//! `rot_bulk`: bulk ingest and decay at scale. Ingest, ticks and
//! checkpoints are in-process calls on the `SharedDatabase`; scans and
//! keyed `CONSUME`s of the same database go over one side connection to a
//! default-config server, off the ingest path.

use std::path::Path;
use std::time::Instant;

use fungus_core::{Database, DistillTrigger, RouteSpec, SharedDatabase};
use fungus_server::{serve, Client, Response, ServerConfig, ServerHandle};
use fungus_types::Value;

use crate::engine::Totals;
use crate::gen::bulk::{Cycles, Step, BATCH, CHECKPOINT_EVERY, DDL};
use crate::gen::{Ask, Class, Op};
use crate::measure::{end_to_end, hash_of, peak_rss_mb, timed, Block, Digest, Latencies, Outcome};
use crate::trace::{dir_bytes, replay_twice, PhaseCounts};
use crate::{Counters, Mode, SETUP_REPEATS};

/// Measured cycles per second of `--seconds`. The box this was sized on
/// runs 20–32 cycles/s, so a traced run (measured phase plus two twin
/// replays) stays well inside its time limit.
const NOMINAL_CYCLES_PER_S: f64 = 22.0;
/// Warm-up cycles. `archive` (TTL 64) fills about 64 ticks after `hot`
/// starts rotting; by cycle ~100 both live counts sit on their plateau
/// (`hot` ≈ 6.7k ± 5%, `archive` ≈ 31.5k ± 1% over seeds 11–15).
const WARMUP: usize = 128;

fn route() -> RouteSpec {
    RouteSpec {
        to: "archive".into(),
        columns: vec!["sensor".into(), "reading".into()],
        trigger: DistillTrigger::Rotted,
    }
}

fn create(seed: u64) -> Result<SharedDatabase, String> {
    let db = SharedDatabase::new(Database::new(seed));
    for stmt in DDL {
        db.execute_ddl(stmt).map_err(|e| format!("{stmt}: {e}"))?;
    }
    db.write()
        .add_route("hot", route())
        .map_err(|e| e.to_string())?;
    Ok(db)
}

/// What one executed step recorded.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // short-lived, one per step
enum Done {
    Batch {
        us: f64,
        ok: bool,
    },
    Tick {
        us: f64,
    },
    Scans {
        us: [f64; 2],
        resp: [Option<Response>; 2],
        live: [u64; 2],
    },
    Consume {
        us: f64,
        resp: Option<Response>,
        sensor: i64,
    },
    Checkpoint {
        bytes: Option<u64>,
    },
}

fn exec(db: &SharedDatabase, client: &mut Client, step: Step, dir: &Path) -> Done {
    let mut wire = |op: &Op| timed(|| client.request(&op.request).ok());
    match step {
        Step::Batch(rows) => {
            let (out, us) = timed(|| db.read().insert_batch("hot", rows));
            Done::Batch {
                us,
                ok: out.is_ok(),
            }
        }
        Step::Tick => Done::Tick {
            us: timed(|| db.tick()).1,
        },
        Step::Scans([a, b]) => {
            let (ra, ua) = wire(&a);
            let (rb, ub) = wire(&b);
            Done::Scans {
                us: [ua, ub],
                resp: [ra, rb],
                live: [db.live_count("hot") as u64, db.live_count("archive") as u64],
            }
        }
        Step::Consume(op) => {
            let (resp, us) = wire(&op);
            let sensor = match op.ask {
                Ask::Consume(k) => k,
                _ => unreachable!("consume steps carry Ask::Consume"),
            };
            Done::Consume { us, resp, sensor }
        }
        Step::Checkpoint => {
            let _ = std::fs::remove_dir_all(dir);
            let out = db.checkpoint(dir);
            let bytes = out.ok().map(|()| dir_bytes(dir));
            let _ = std::fs::remove_dir_all(dir);
            Done::Checkpoint { bytes }
        }
    }
}

/// Checks one executed step; returns its failures and violations.
fn check(done: &Done, violations: &mut Vec<String>) -> u64 {
    let rows_of = |r: &Option<Response>| match r {
        Some(Response::Rows { rows, consumed, .. }) => Some((rows.clone(), *consumed)),
        _ => None,
    };
    match done {
        Done::Batch { ok, .. } => u64::from(!ok),
        Done::Tick { .. } => 0,
        Done::Checkpoint { bytes, .. } => u64::from(bytes.is_none()),
        Done::Scans { resp, live, .. } => {
            let mut failed = 0;
            for (r, live) in resp.iter().zip(live) {
                match rows_of(r) {
                    Some((rows, _)) => {
                        if rows.first().and_then(|r| r.first()) != Some(&Value::Int(*live as i64)) {
                            violations.push(format!("scan counted {rows:?}, {live} live"));
                        }
                    }
                    None => failed += 1,
                }
            }
            failed
        }
        Done::Consume { resp, sensor, .. } => match rows_of(resp) {
            Some((rows, consumed)) => {
                if consumed != rows.len() as u64
                    || rows.iter().any(|r| r.first() != Some(&Value::Int(*sensor)))
                {
                    violations.push(format!("CONSUME of sensor {sensor} returned {rows:?}"));
                }
                0
            }
            None => 1,
        },
    }
}

struct Env {
    db: SharedDatabase,
    server: ServerHandle,
    client: Client,
    /// The measured phase's cycles, generated before its timer starts.
    measured: Vec<Vec<Step>>,
}

impl Env {
    fn close(self) -> Result<(), String> {
        self.client.close();
        self.server.shutdown().map(drop).map_err(|e| e.to_string())
    }
}

/// Builds the database and server, warms it to its plateau, and
/// generates the `n` measured cycles.
fn setup(seed: u64, n: usize, scratch: &Path) -> Result<Env, String> {
    let db = create(seed)?;
    let server = serve(db.clone(), ServerConfig::default()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let mut cycles = Cycles::new(seed);
    let mut violations = Vec::new();
    for step in cycles.by_ref().take(WARMUP).flatten() {
        let done = exec(&db, &mut client, step, scratch);
        if check(&done, &mut violations) > 0 || !violations.is_empty() {
            return Err(format!("warm-up step failed: {done:?} {violations:?}"));
        }
    }
    Ok(Env {
        db,
        server,
        client,
        measured: cycles.take(n).collect(),
    })
}

/// Runs `rot_bulk`.
pub fn run(seed: u64, seconds: u64, mode: Mode, scratch: &Path) -> Result<Outcome, String> {
    let blocks_n = ((NOMINAL_CYCLES_PER_S * seconds as f64) / CHECKPOINT_EVERY as f64)
        .round()
        .max(1.0) as usize;
    let n = blocks_n * CHECKPOINT_EVERY;

    let started = Instant::now();
    let Env {
        db,
        server,
        mut client,
        measured,
    } = setup(seed, n, scratch)?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];

    let start = Totals::read(&db);
    let mut lat = Latencies::default();
    let mut blocks = Vec::new();
    let mut log: Vec<Vec<Done>> = Vec::with_capacity(n);
    let mut attempted = 0;
    let mut cycles = measured.into_iter();
    for _ in 0..blocks_n {
        let t = Instant::now();
        let mut ops = 0;
        for steps in cycles.by_ref().take(CHECKPOINT_EVERY) {
            let mut dones = Vec::with_capacity(steps.len());
            for step in steps {
                let done = exec(&db, &mut client, step, scratch);
                match &done {
                    Done::Batch { us, .. } => lat.push(Class::Write, *us),
                    Done::Tick { us } => lat.push(Class::Tick, *us),
                    Done::Scans { us, .. } => lat.push(Class::Read, us[0] + us[1]),
                    Done::Consume { us, .. } => lat.push(Class::Consume, *us),
                    Done::Checkpoint { .. } => {}
                }
                dones.push(done);
                ops += 1;
            }
            log.push(dones);
        }
        attempted += ops;
        blocks.push(Block {
            ops,
            rows: (CHECKPOINT_EVERY * BATCH) as u64,
            secs: t.elapsed().as_secs_f64(),
        });
    }
    let end = Totals::read(&db);

    // Correctness gate.
    let mut violations = end.conservation_violations();
    let hot = end.containers.iter().find(|c| c.0 == "hot").map(|c| c.1);
    let archive = end
        .containers
        .iter()
        .find(|c| c.0 == "archive")
        .map(|c| c.1);
    match (hot, archive) {
        (Some(h), Some(a)) if h.rot_routed == h.tuples_rotted && a.inserts == h.rot_routed => {}
        _ => violations.push(format!(
            "rot route lost tuples: hot {hot:?}, archive {archive:?}"
        )),
    }
    let mut failed = 0;
    let mut counters = Counters::default();
    let mut digest = Digest::default();
    for done in log.iter().flatten() {
        failed += check(done, &mut violations);
        match done {
            Done::Batch { .. } => {
                counters.writes += 1;
                counters.rows_inserted += BATCH as u64;
            }
            Done::Tick { .. } => counters.ticks += 1,
            Done::Checkpoint { bytes, .. } => {
                counters.checkpoints += 1;
                counters.checkpoint_bytes += bytes.unwrap_or(0);
            }
            Done::Scans { resp, .. } => {
                for r in resp.iter().flatten() {
                    counters.reads += 1;
                    counters.rows_returned += r.row_count().unwrap_or(0) as u64;
                    digest.num(hash_of(r));
                }
            }
            Done::Consume { resp, .. } => {
                counters.consumes += 1;
                if let Some(r @ Response::Rows { consumed, .. }) = resp {
                    counters.rows_consumed += consumed;
                    digest.num(hash_of(r));
                }
            }
        }
    }
    counters.finish(&start, &end, &mut digest);

    let metrics = match mode {
        Mode::EndToEnd => {
            let rss_mb = peak_rss_mb();
            for _ in 1..SETUP_REPEATS {
                let started = Instant::now();
                let extra = setup(seed, n, scratch)?;
                setup_s.push(started.elapsed().as_secs_f64());
                extra.close()?;
            }
            end_to_end(&setup_s, rss_mb, &lat, &blocks)
        }
        Mode::Traced => {
            let twin_dir = scratch.join("twin");
            let (mut traced, plain_us) = replay_twice(seed, &DDL, ("archive", "top"), |r| {
                let _ = r.twin().db.write().add_route("hot", route());
                for step in Cycles::new(seed).take(WARMUP).flatten() {
                    let twin = r.twin();
                    match step {
                        Step::Batch(rows) => drop(twin.db.read().insert_batch("hot", rows)),
                        Step::Tick => drop(twin.db.tick()),
                        Step::Scans(ops) => {
                            ops.into_iter().for_each(|op| drop(twin.handle(op.request)))
                        }
                        Step::Consume(op) => drop(twin.handle(op.request)),
                        Step::Checkpoint => {}
                    }
                }
                let measured = Cycles::new(seed).skip(WARMUP).take(n);
                for (steps, dones) in measured.zip(&log) {
                    for (step, done) in steps.iter().zip(dones) {
                        match (step, done) {
                            (Step::Batch(rows), _) => r.batch("hot", rows),
                            (Step::Tick, _) => r.tick(),
                            (Step::Scans(ops), Done::Scans { us, resp, .. }) => {
                                for ((op, us), resp) in ops.iter().zip(us).zip(resp) {
                                    if let Some(resp) = resp {
                                        r.wire(op, *us, hash_of(resp));
                                    }
                                }
                            }
                            (
                                Step::Consume(op),
                                Done::Consume {
                                    us,
                                    resp: Some(resp),
                                    ..
                                },
                            ) => r.wire(op, *us, hash_of(resp)),
                            (Step::Checkpoint, _) => r.checkpoint(&twin_dir),
                            _ => {}
                        }
                    }
                }
            })?;
            violations.append(&mut traced.violations);
            counters.tuples_scanned = traced.tuples_scanned();
            let infected = db.health("hot").map_or(f64::NAN, |h| h.infected_fraction);
            traced.metrics(
                plain_us,
                &PhaseCounts {
                    ops: attempted,
                    ticks: counters.ticks,
                    reads: counters.reads,
                    start: &start,
                    end: &end,
                    infected,
                    hot: "hot",
                },
            )
        }
    };
    client.close();
    server.shutdown().map_err(|e| e.to_string())?;
    Ok(Outcome {
        attempted,
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
