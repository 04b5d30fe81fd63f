//! # fungusbench
//!
//! End-to-end and per-layer benchmark of the spacefungus workspace. Each
//! workload runs in its own process, generates all of its inputs from a
//! seed before timing anything, runs a fixed amount of work, checks every
//! answer, and prints one JSON result line. See `README.md` beside this
//! crate for the workloads, the metrics and what each layer should move.

#![warn(missing_docs)]

mod bulk;
mod engine;
mod gen;
mod measure;
mod model;
mod trace;
mod wire;

use std::path::Path;

use engine::Totals;
use measure::Digest;
pub use measure::Outcome;

/// The measured phase is split into this many equal blocks; throughput is
/// the median over blocks.
pub const BLOCKS: usize = 10;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["front_small", "point_churn", "rot_bulk"];

/// Which metrics a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: end-to-end metrics, nothing instrumented.
    EndToEnd,
    /// `--trace 1`: per-layer metrics from the twin replay.
    Traced,
}

/// Set-ups per end-to-end run; `setup_s` is their median. The first one
/// is measured on; the others run after the measured phase, so it starts
/// from the same fresh process every time.
pub const SETUP_REPEATS: usize = 3;

/// Exact work counters of one measured phase. Two runs with one seed and
/// one `--seconds` do identical work, so these repeat exactly; only the
/// times differ.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Write operations (`INSERT` requests or `insert_batch` calls).
    pub writes: u64,
    /// Non-consuming reads (`SELECT`, `SUMMARIZE`, full scans).
    pub reads: u64,
    /// `CONSUME` requests.
    pub consumes: u64,
    /// Decay ticks.
    pub ticks: u64,
    /// Checkpoints.
    pub checkpoints: u64,
    /// Rows inserted by the workload (route deliveries not included).
    pub rows_inserted: u64,
    /// Rows returned by non-consuming reads.
    pub rows_returned: u64,
    /// Rows removed by `CONSUME`.
    pub rows_consumed: u64,
    /// Tuples the reads scanned (traced runs only; 0 otherwise).
    pub tuples_scanned: u64,
    /// Tuples that rotted, over all containers.
    pub rows_rotted: u64,
    /// Rotted tuples delivered along a rot route.
    pub rows_routed: u64,
    /// Values folded into distillation summaries.
    pub rows_distilled: u64,
    /// MVCC snapshots published.
    pub snapshots_published: u64,
    /// Bytes written by checkpoints.
    pub checkpoint_bytes: u64,
    /// Live rows per container at the start of the measured phase.
    pub live_start: Vec<(String, u64)>,
    /// Live rows per container at the end of the measured phase.
    pub live_end: Vec<(String, u64)>,
    /// FNV-1a digest of every response and the final live counts.
    pub digest: u64,
}

impl Counters {
    /// Fills in the engine-side deltas of the phase and seals the digest
    /// with the final live counts.
    pub(crate) fn finish(&mut self, start: &Totals, end: &Totals, digest: &mut Digest) {
        let delta = |f: fn(&fungus_core::EngineMetrics) -> u64| end.sum(f) - start.sum(f);
        self.rows_rotted = delta(|m| m.tuples_rotted);
        self.rows_routed = delta(|m| m.rot_routed);
        self.rows_distilled = delta(|m| m.distilled);
        self.snapshots_published = end.published - start.published;
        self.live_start = start.lives();
        self.live_end = end.lives();
        for (_, live) in &self.live_end {
            digest.num(*live);
        }
        self.digest = digest.0;
    }
}

/// Runs workload `name` and returns its outcome. `scratch` is a private
/// directory for checkpoints, removed by the caller.
pub fn run(
    name: &str,
    seed: u64,
    seconds: u64,
    mode: Mode,
    scratch: &Path,
) -> Result<Outcome, String> {
    match name {
        "front_small" => wire::run(&wire::FRONT_SMALL, seed, seconds, mode, scratch),
        "point_churn" => wire::run(&wire::POINT_CHURN, seed, seconds, mode, scratch),
        "rot_bulk" => bulk::run(seed, seconds, mode, scratch),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
