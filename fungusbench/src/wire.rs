//! The wire workloads, `front_small` and `point_churn`: one closed-loop
//! client on one loopback connection to a default-config server.

use std::path::Path;
use std::time::Instant;

use fungus_core::{Database, SharedDatabase};
use fungus_server::{serve, Client, Response, ServerConfig, ServerHandle};
use fungus_types::Value;

use crate::engine::Totals;
use crate::gen::{self, Ask, Class, Op};
use crate::measure::{end_to_end, hash_of, peak_rss_mb, us, Block, Digest, Latencies, Outcome};
use crate::model::{Decay, Model};
use crate::trace::{replay_twice, PhaseCounts};
use crate::{Counters, Mode, BLOCKS, SETUP_REPEATS};

/// A wire workload's shape.
#[derive(Debug)]
pub struct Spec {
    /// Container DDL.
    pub ddl: &'static [&'static str],
    /// The container's fungus, for the model.
    pub decay: Decay,
    /// The container the operations address.
    pub container: &'static str,
    /// The container's distillation summary, read on every traced tick.
    pub sketch: (&'static str, &'static str),
    /// Rows loaded with `insert_batch` before the server starts.
    pub preload: fn(u64) -> Vec<(i64, f64)>,
    /// The operation stream.
    pub ops: fn(u64, usize) -> Vec<Op>,
    /// Operations run over the wire during set-up, untimed.
    pub warmup: usize,
    /// Tick period of the stream (blocks are whole periods).
    pub tick_every: usize,
    /// Operations per second of measured phase the stream is sized for.
    pub nominal_ops_per_s: f64,
}

/// `front_small`.
pub const FRONT_SMALL: Spec = Spec {
    ddl: &gen::front::DDL,
    decay: Decay::Ttl(gen::front::TTL),
    container: "ev",
    sketch: ("ev", "hot"),
    preload: |_| Vec::new(),
    ops: gen::front::ops,
    warmup: 2_000,
    tick_every: gen::front::TICK_EVERY,
    nominal_ops_per_s: 7_000.0,
};

/// `point_churn`.
pub const POINT_CHURN: Spec = Spec {
    ddl: &gen::churn::DDL,
    decay: Decay::Window(gen::churn::WINDOW),
    container: "big",
    sketch: ("big", "top"),
    preload: gen::churn::preload,
    ops: gen::churn::ops,
    warmup: 200,
    tick_every: gen::churn::TICK_EVERY,
    nominal_ops_per_s: 180.0,
};

fn rows_of(chunk: &[(i64, f64)]) -> Vec<Vec<Value>> {
    chunk
        .iter()
        .map(|&(k, r)| vec![Value::Int(k), Value::Float(r)])
        .collect()
}

/// A started workload: server, connection, model and the operations
/// still to run.
struct Env {
    db: SharedDatabase,
    server: ServerHandle,
    client: Client,
    model: Model,
    warm: Vec<Op>,
    measured: Vec<Op>,
}

impl Env {
    fn close(self) -> Result<(), String> {
        self.client.close();
        self.server.shutdown().map(drop).map_err(|e| e.to_string())
    }
}

fn setup(spec: &Spec, seed: u64, measured: usize) -> Result<Env, String> {
    let mut warm = (spec.ops)(seed, spec.warmup + measured);
    let measured = warm.split_off(spec.warmup);
    let db = SharedDatabase::new(Database::new(seed));
    for stmt in spec.ddl {
        db.execute_ddl(stmt).map_err(|e| format!("{stmt}: {e}"))?;
    }
    let mut model = Model::new(spec.decay);
    for chunk in (spec.preload)(seed).chunks(gen::churn::PRELOAD_BATCH) {
        db.read()
            .insert_batch(spec.container, rows_of(chunk))
            .map_err(|e| e.to_string())?;
        model.insert(chunk.iter().map(|r| r.0));
    }
    let server = serve(db.clone(), ServerConfig::default()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    for op in &warm {
        let resp = client.request(&op.request).map_err(|e| e.to_string())?;
        model.apply(&op.ask, &resp)?;
    }
    Ok(Env {
        db,
        server,
        client,
        model,
        warm,
        measured,
    })
}

/// Runs a wire workload: set-up, the measured phase, the correctness gate,
/// then either the repeated set-ups (end-to-end mode) or the twin replay
/// (traced mode).
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    mode: Mode,
    scratch: &Path,
) -> Result<Outcome, String> {
    let period = spec.tick_every * BLOCKS;
    let periods = ((spec.nominal_ops_per_s * seconds as f64) / period as f64).round();
    let n = period * (periods as usize).max(1);

    let started = Instant::now();
    let mut env = setup(spec, seed, n)?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    let db = env.db.clone();

    // Measured phase: the closed loop, timed per request and per block.
    // Each block's answers are checked after its timer stops, so only a
    // hash of each answer outlives its block.
    let start = Totals::read(&db);
    let mut lat = Latencies::default();
    let mut blocks = Vec::with_capacity(BLOCKS);
    let mut log: Vec<(f64, Option<u64>)> = Vec::with_capacity(n);
    let mut violations = Vec::new();
    let mut counters = Counters::default();
    let mut digest = Digest::default();
    let mut failed = 0;
    for block in env.measured.chunks(n / BLOCKS) {
        let mut answers = Vec::with_capacity(block.len());
        let t = Instant::now();
        let mut rows = 0;
        for op in block {
            let sent = Instant::now();
            let resp = env.client.request(&op.request).ok();
            let took = us(sent.elapsed());
            lat.push(op.class(), took);
            answers.push((took, resp));
            if let Ask::Insert(r) = &op.ask {
                rows += r.len() as u64;
            }
        }
        blocks.push(Block {
            ops: block.len() as u64,
            rows,
            secs: t.elapsed().as_secs_f64(),
        });
        for (op, (took, resp)) in block.iter().zip(answers) {
            let Some(resp) = resp.filter(|r| !r.is_error()) else {
                failed += 1;
                log.push((took, None));
                continue;
            };
            let hash = hash_of(&resp);
            digest.num(hash);
            counters.count(op, &resp);
            if let Err(v) = env.model.apply(&op.ask, &resp) {
                violations.push(v);
            }
            log.push((took, Some(hash)));
        }
    }
    let end = Totals::read(&db);

    // Correctness gate: the model checked every answer above; now the
    // engine's own books.
    violations.extend(end.conservation_violations());
    if env.model.live() as u64 != end.live(spec.container) {
        violations.push(format!(
            "model holds {} live rows, the engine {}",
            env.model.live(),
            end.live(spec.container)
        ));
    }
    counters.finish(&start, &end, &mut digest);

    let metrics = match mode {
        Mode::EndToEnd => {
            let rss_mb = peak_rss_mb();
            for _ in 1..SETUP_REPEATS {
                let started = Instant::now();
                let extra = setup(spec, seed, n)?;
                setup_s.push(started.elapsed().as_secs_f64());
                extra.close()?;
            }
            end_to_end(&setup_s, rss_mb, &lat, &blocks)
        }
        Mode::Traced => {
            let preload = (spec.preload)(seed);
            let (mut traced, plain_us) = replay_twice(seed, spec.ddl, spec.sketch, |r| {
                for chunk in preload.chunks(gen::churn::PRELOAD_BATCH) {
                    let _ = r
                        .twin()
                        .db
                        .read()
                        .insert_batch(spec.container, rows_of(chunk));
                }
                for op in &env.warm {
                    r.twin().handle(op.request.clone());
                }
                for (op, (took, hash)) in env.measured.iter().zip(&log) {
                    if let Some(hash) = hash {
                        r.wire(op, *took, *hash);
                    }
                }
                r.checkpoint(&scratch.join("twin"));
            })?;
            violations.append(&mut traced.violations);
            counters.tuples_scanned = traced.tuples_scanned();
            let infected = db
                .health(spec.container)
                .map_or(f64::NAN, |h| h.infected_fraction);
            traced.metrics(
                plain_us,
                &PhaseCounts {
                    ops: n as u64,
                    ticks: counters.ticks,
                    reads: counters.reads,
                    start: &start,
                    end: &end,
                    infected,
                    hot: spec.container,
                },
            )
        }
    };
    env.close()?;
    Ok(Outcome {
        attempted: n as u64,
        failed,
        violations,
        metrics,
        counters,
        block_rates: blocks
            .iter()
            .map(|b| (b.ops as f64 / b.secs).round())
            .collect(),
    })
}

impl Counters {
    /// Counts one successful wire operation.
    pub(crate) fn count(&mut self, op: &Op, resp: &Response) {
        match op.class() {
            Class::Write => self.writes += 1,
            Class::Read => self.reads += 1,
            Class::Consume => self.consumes += 1,
            Class::Tick => self.ticks += 1,
        }
        if let Ask::Insert(r) = &op.ask {
            self.rows_inserted += r.len() as u64;
        }
        if let Response::Rows { rows, consumed, .. } = resp {
            match op.class() {
                Class::Read => self.rows_returned += rows.len() as u64,
                Class::Consume => self.rows_consumed += consumed,
                _ => {}
            }
        }
    }
}
