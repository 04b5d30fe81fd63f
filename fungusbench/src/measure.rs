//! Timing samples, digests and the result line.

use std::time::{Duration, Instant};

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with the elapsed microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, us(start.elapsed()))
}

/// The `q`-quantile (`0 < q < 1`) of `values` by nearest rank, or `None`
/// when fewer than ten samples lie above it — too few to read a tail from.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10 || q <= 0.5).then(|| sorted[rank - 1])
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over everything a run answered, to compare runs of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds in bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds in a number.
    pub fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The digest of one response's wire encoding.
pub fn hash_of(resp: &fungus_server::Response) -> u64 {
    let mut d = Digest::default();
    d.bytes(&resp.encode().unwrap_or_default());
    d.0
}

/// Latency samples of one run, by class, in microseconds.
#[derive(Debug, Default)]
pub struct Latencies {
    /// Writes (`INSERT` / `insert_batch`).
    pub write: Vec<f64>,
    /// Non-consuming reads.
    pub read: Vec<f64>,
    /// `CONSUME`s.
    pub consume: Vec<f64>,
    /// Decay ticks.
    pub tick: Vec<f64>,
}

impl Latencies {
    /// Records one sample under `class`.
    pub fn push(&mut self, class: crate::gen::Class, us: f64) {
        use crate::gen::Class;
        match class {
            Class::Write => self.write.push(us),
            Class::Read => self.read.push(us),
            Class::Consume => self.consume.push(us),
            Class::Tick => self.tick.push(us),
        }
    }
}

/// Throughput of one block of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Operations completed in the block.
    pub ops: u64,
    /// Rows ingested in the block.
    pub rows: u64,
    /// Wall time of the block.
    pub secs: f64,
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value (`None`: not measurable in this run).
    pub value: Option<f64>,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &'static str, unit: &'static str, value: impl Into<Option<f64>>) -> Metric {
    Metric {
        name,
        unit,
        value: value.into(),
    }
}

/// The end-to-end metrics shared by every workload, from the set-up
/// times, the peak RSS, latency samples and per-block throughput.
pub fn end_to_end(setup_s: &[f64], rss_mb: f64, lat: &Latencies, blocks: &[Block]) -> Vec<Metric> {
    let ops: Vec<f64> = blocks.iter().map(|b| b.ops as f64 / b.secs).collect();
    let rows: Vec<f64> = blocks.iter().map(|b| b.rows as f64 / b.secs).collect();
    let ms = |v: Option<f64>| v.map(|x| x / 1000.0);
    vec![
        metric("setup_s", "s", median(setup_s)),
        metric("ops_per_s", "1/s", median(&ops)),
        metric("rows_per_s", "1/s", median(&rows)),
        metric("read_p50_us", "us", quantile(&lat.read, 0.5)),
        metric("read_p90_us", "us", quantile(&lat.read, 0.9)),
        metric("write_p50_us", "us", quantile(&lat.write, 0.5)),
        metric("write_p90_us", "us", quantile(&lat.write, 0.9)),
        metric("consume_p50_us", "us", quantile(&lat.consume, 0.5)),
        metric("tick_p50_ms", "ms", ms(quantile(&lat.tick, 0.5))),
        metric("tick_p90_ms", "ms", ms(quantile(&lat.tick, 0.9))),
        metric("peak_rss_mb", "MiB", rss_mb),
    ]
}

/// What one run hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations among them that failed or were refused.
    pub failed: u64,
    /// Correctness-gate violations, one line each (empty: correct).
    pub violations: Vec<String>,
    /// The metrics of the requested mode.
    pub metrics: Vec<Metric>,
    /// Exact work counters of the run.
    pub counters: crate::Counters,
    /// Operations per second of each block of the measured phase.
    pub block_rates: Vec<f64>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A metric that could not be measured makes
    /// the run incorrect and is left out.
    pub fn result_line(&self) -> String {
        let mut correct = self.violations.is_empty() && self.failed == 0 && self.attempted > 0;
        let mut parts = Vec::new();
        for m in &self.metrics {
            match m.value {
                Some(v) if v.is_finite() => parts.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )),
                _ => correct = false,
            }
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            parts.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 0.95), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
