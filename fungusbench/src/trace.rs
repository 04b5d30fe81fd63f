//! The traced run's per-layer breakdown, measured from outside.
//!
//! After the measured phase, the operation stream is replayed twice, each
//! time on a fresh twin database built with the same seed. The *plain*
//! pass only runs each operation — one `Session::handle` per wire
//! operation, the same in-process calls otherwise — and times it. The
//! *traced* pass runs each operation again, wrapped in timed calls into
//! each crate's public functions: `parse_statement`,
//! `Database::pin_snapshot`, `Planner::plan`, `SnapshotHandle::select` /
//! `summarize` and the protocol codecs. A layer's self time is its
//! parent's plain time minus its children's traced times. Both passes
//! must answer exactly what the server answered over the wire; the traced
//! pass's extra wall time over the plain one is the tracing overhead.
//!
//! The passes run one after the other, not interleaved, so each sees the
//! caches its own previous operation left, as the server did.

use std::path::Path;
use std::time::Instant;

use fungus_core::{Database, SharedDatabase};
use fungus_query::{parse_statement, Planner, Statement};
use fungus_server::{Request, Response, Session};
use fungus_types::Value;

use crate::engine::Totals;
use crate::gen::{Ask, Op};
use crate::measure::{hash_of, mean, median, metric, timed, us, Metric};

/// A database rebuilt from the run's seed, with one session over it.
pub struct Twin {
    /// The twin's catalog.
    pub db: SharedDatabase,
    session: Session,
}

impl Twin {
    /// A fresh twin with the workload's DDL applied.
    fn new(seed: u64, ddl: &[&str]) -> Result<Twin, String> {
        let db = SharedDatabase::new(Database::new(seed));
        for stmt in ddl {
            db.execute_ddl(stmt).map_err(|e| format!("{stmt}: {e}"))?;
        }
        Ok(Twin {
            session: Session::new(1, db.clone()),
            db,
        })
    }

    /// Runs one request through the twin's session.
    pub fn handle(&mut self, request: Request) -> Response {
        self.session.handle(request)
    }
}

fn rotted(db: &SharedDatabase) -> u64 {
    db.container_names()
        .iter()
        .filter_map(|n| db.read().container(n).ok())
        .map(|c| c.read().metrics().tuples_rotted)
        .sum()
}

/// Size in bytes of the files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What the traced pass measures around each operation.
#[derive(Debug, Default)]
struct Probes {
    transport: Vec<f64>,
    session: Vec<f64>,
    protocol: Vec<f64>,
    response_bytes: Vec<f64>,
    parse: Vec<f64>,
    plan: Vec<f64>,
    exec: Vec<f64>,
    pin: Vec<f64>,
    read_self: Vec<f64>,
    write_self: Vec<f64>,
    summarize: Vec<f64>,
    scanned: u64,
    returned: u64,
    pruned_segments: u64,
    pruned_shards: u64,
    tick_us: f64,
    departed: u64,
    checkpoint_ms: Vec<f64>,
    checkpoint_bytes: u64,
    checkpoint_live: u64,
}

/// One replay pass over a twin.
pub struct Replay {
    twin: Twin,
    /// `(container, summary)` read through a pinned snapshot on every tick.
    sketch: (&'static str, &'static str),
    /// Plain pass: `None`. Traced pass: the plain pass's time of every
    /// timed operation, in order, and how many have been consumed.
    plain: Option<(Vec<f64>, usize)>,
    /// Times of the timed operations, in order (plain pass only).
    times: Vec<f64>,
    probes: Probes,
    /// Wall time of the whole pass, set-up excluded.
    pub total_us: f64,
    /// Replayed answers that differ from the wire's, one line each.
    pub violations: Vec<String>,
}

/// Counts over the measured phase that the per-layer metrics divide by,
/// read from the server's own database.
#[derive(Debug)]
pub struct PhaseCounts<'a> {
    /// Operations in the measured phase.
    pub ops: u64,
    /// Decay ticks among them.
    pub ticks: u64,
    /// Non-consuming reads among them.
    pub reads: u64,
    /// Engine counters at the start of the phase.
    pub start: &'a Totals,
    /// Engine counters at the end of the phase.
    pub end: &'a Totals,
    /// Fraction of the first container infected at the end.
    pub infected: f64,
    /// The container reported as `storage.live_hot`.
    pub hot: &'a str,
}

/// Runs `pass` (untimed set-up through [`Replay::twin`], then the timed
/// replay) as the plain pass and then as the traced pass. Returns the
/// traced pass, carrying both passes' violations, and the plain pass's
/// total time.
pub fn replay_twice(
    seed: u64,
    ddl: &[&str],
    sketch: (&'static str, &'static str),
    mut pass: impl FnMut(&mut Replay),
) -> Result<(Replay, f64), String> {
    let mut plain = Replay::plain(seed, ddl, sketch)?;
    pass(&mut plain);
    let mut traced = Replay::traced(seed, ddl, &plain)?;
    drop(plain.twin);
    pass(&mut traced);
    traced.violations.append(&mut plain.violations);
    Ok((traced, plain.total_us))
}

impl Replay {
    /// The plain pass over a fresh twin; `sketch` names the distillation
    /// summary whose pinned read the traced pass times on every tick.
    fn plain(
        seed: u64,
        ddl: &[&str],
        sketch: (&'static str, &'static str),
    ) -> Result<Replay, String> {
        Ok(Replay {
            twin: Twin::new(seed, ddl)?,
            sketch,
            plain: None,
            times: Vec::new(),
            probes: Probes::default(),
            total_us: 0.0,
            violations: Vec::new(),
        })
    }

    /// The traced pass over another fresh twin, following `plain`.
    fn traced(seed: u64, ddl: &[&str], plain: &Replay) -> Result<Replay, String> {
        let mut r = Replay::plain(seed, ddl, plain.sketch)?;
        r.plain = Some((plain.times.clone(), 0));
        Ok(r)
    }

    /// The twin, for untimed set-up steps.
    pub fn twin(&mut self) -> &mut Twin {
        &mut self.twin
    }

    /// Records the plain time of a timed operation (plain pass), or
    /// returns the plain pass's time of the same operation (traced pass).
    fn reference(&mut self, took: f64) -> f64 {
        match &mut self.plain {
            None => {
                self.times.push(took);
                took
            }
            Some((times, next)) => {
                *next += 1;
                times.get(*next - 1).copied().unwrap_or(took)
            }
        }
    }

    fn check(&mut self, op: &Op, want: u64, got: &Response) {
        if hash_of(got) != want {
            self.violations.push(format!(
                "replay of {:?} differs from the wire answer: {got:?}",
                op.request
            ));
        }
    }

    /// Replays one wire operation that took `wire_us` over the wire and
    /// answered a response hashing to `want`.
    pub fn wire(&mut self, op: &Op, wire_us: f64, want: u64) {
        let start = Instant::now();
        let request = op.request.clone();
        if self.plain.is_none() {
            let (resp, session_us) = timed(|| self.twin.handle(request));
            self.reference(session_us);
            self.total_us += us(start.elapsed());
            self.check(op, want, &resp);
            return;
        }
        let parsed = op.sql_text().map(|t| timed(|| parse_statement(t)));
        let mut children = 0.0;
        if let Some((_, parse_us)) = &parsed {
            self.probes.parse.push(*parse_us);
            children += parse_us;
        }
        let read = !matches!(op.ask, Ask::Insert(_) | Ask::Consume(_) | Ask::Tick);
        if let (true, Some((Ok(stmt), _))) = (read, &parsed) {
            children += self.probe_read(stmt);
        }
        let rotted_before = matches!(op.ask, Ask::Tick).then(|| rotted(&self.twin.db));

        let (_, encode_us) = timed(|| Request::decode(&request.encode().unwrap_or_default()));
        let (resp, traced_session_us) = timed(|| self.twin.handle(request));
        let (bytes, decode_us) = timed(|| {
            let bytes = resp.encode().unwrap_or_default();
            let _ = Response::decode(&bytes);
            bytes.len()
        });
        let session_us = self.reference(traced_session_us);
        let protocol_us = encode_us + decode_us;
        let p = &mut self.probes;
        p.session.push(session_us);
        p.protocol.push(protocol_us);
        p.response_bytes.push(bytes as f64);
        p.transport.push(wire_us - session_us - protocol_us);
        match op.ask {
            Ask::Insert(_) | Ask::Consume(_) => p.write_self.push(session_us - children),
            Ask::Tick => {
                p.tick_us += session_us;
                p.departed += rotted(&self.twin.db) - rotted_before.unwrap_or(0);
                self.probe_sketch();
            }
            Ask::Summarize => {}
            _ => p.read_self.push(session_us - children),
        }
        self.total_us += us(start.elapsed());
        self.check(op, want, &resp);
    }

    /// Times pin, plan and execute of a read on the twin's pinned
    /// snapshot (or `SUMMARIZE`'s sketch read); returns their sum.
    fn probe_read(&mut self, stmt: &Statement) -> f64 {
        let table = match stmt {
            Statement::Select(s) => &s.table,
            Statement::Summarize { table, .. } => table,
            _ => return 0.0,
        };
        let (pinned, pin_us) = timed(|| self.twin.db.read().pin_snapshot(table));
        let Ok(Some(handle)) = pinned else {
            self.violations
                .push(format!("no snapshot to pin for `{table}`"));
            return pin_us;
        };
        let p = &mut self.probes;
        p.pin.push(pin_us);
        match stmt {
            Statement::Select(s) => {
                let (_, plan_us) = timed(|| Planner.plan(s, handle.schema()));
                let (result, select_us) = timed(|| handle.select(s));
                let exec_us = select_us - plan_us;
                p.plan.push(plan_us);
                p.exec.push(exec_us);
                if let Ok(r) = result {
                    p.scanned += r.scanned as u64;
                    p.returned += r.rows.len() as u64;
                    p.pruned_segments += r.pruned_segments as u64;
                    p.pruned_shards += r.pruned_shards as u64;
                }
                pin_us + plan_us + exec_us
            }
            Statement::Summarize {
                table,
                summary,
                top,
            } => {
                let (_, summarize_us) = timed(|| handle.summarize(table, summary, *top));
                p.summarize.push(summarize_us);
                pin_us + summarize_us
            }
            _ => pin_us,
        }
    }

    /// Times a pinned read of the workload's distillation summary.
    fn probe_sketch(&mut self) {
        let (container, summary) = self.sketch;
        match self.twin.db.read().pin_snapshot(container) {
            Ok(Some(handle)) => {
                let (out, summarize_us) = timed(|| handle.summarize(container, summary, None));
                self.probes.summarize.push(summarize_us);
                if let Err(e) = out {
                    self.violations
                        .push(format!("SUMMARIZE {summary} failed: {e}"));
                }
            }
            _ => self
                .violations
                .push(format!("no snapshot to pin for `{container}`")),
        }
    }

    /// Replays an in-process `insert_batch` of `rows` into `container`.
    pub fn batch(&mut self, container: &str, rows: &[Vec<Value>]) {
        let rows = rows.to_vec();
        let start = Instant::now();
        let (out, write_us) = timed(|| self.twin.db.read().insert_batch(container, rows));
        let write_us = self.reference(write_us);
        if self.plain.is_some() {
            self.probes.write_self.push(write_us);
        }
        self.total_us += us(start.elapsed());
        if let Err(e) = out {
            self.violations
                .push(format!("replayed insert_batch failed: {e}"));
        }
    }

    /// Replays an in-process `Database::tick`.
    pub fn tick(&mut self) {
        let start = Instant::now();
        let traced = self.plain.is_some();
        let before = if traced { rotted(&self.twin.db) } else { 0 };
        let (_, tick_us) = timed(|| self.twin.db.tick());
        let tick_us = self.reference(tick_us);
        if traced {
            self.probes.tick_us += tick_us;
            self.probes.departed += rotted(&self.twin.db) - before;
            self.probe_sketch();
        }
        self.total_us += us(start.elapsed());
    }

    /// Checkpoints the twin into `dir` (removed again afterwards); the
    /// traced pass records its time and bytes per live row.
    pub fn checkpoint(&mut self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        let start = Instant::now();
        let (out, ckpt_us) = timed(|| self.twin.db.checkpoint(dir));
        self.total_us += us(start.elapsed());
        match out {
            Err(e) => self
                .violations
                .push(format!("replayed checkpoint failed: {e}")),
            Ok(()) if self.plain.is_some() => {
                self.probes.checkpoint_ms.push(ckpt_us / 1000.0);
                self.probes.checkpoint_bytes += dir_bytes(dir);
                self.probes.checkpoint_live += Totals::read(&self.twin.db).sum_live();
            }
            Ok(()) => {}
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Exact count of tuples the traced reads scanned.
    pub fn tuples_scanned(&self) -> u64 {
        self.probes.scanned
    }

    /// The per-layer metrics of this traced pass, in `BENCHMARK.json`
    /// order; `plain_us` is the plain pass's total.
    pub fn metrics(&self, plain_us: f64, p: &PhaseCounts<'_>) -> Vec<Metric> {
        let s = &self.probes;
        let per = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
        let delta = |f: fn(&Totals) -> u64| f(p.end) - f(p.start);
        let rotted = |t: &Totals| t.sum(|m| m.tuples_rotted);
        vec![
            metric("server.transport_us", "us", median(&s.transport)),
            metric("server.session_us", "us", mean(&s.session)),
            metric("server.protocol_us", "us", mean(&s.protocol)),
            metric("server.response_bytes", "B", mean(&s.response_bytes)),
            metric("query.parse_us", "us", mean(&s.parse)),
            metric("query.plan_us", "us", mean(&s.plan)),
            metric("query.exec_us", "us", mean(&s.exec)),
            metric(
                "query.scanned_per_returned",
                "tuple/row",
                per(s.scanned, s.returned),
            ),
            metric("query.pruned_segments", "count", s.pruned_segments as f64),
            metric("query.pruned_shards", "count", s.pruned_shards as f64),
            metric("core.pin_us", "us", mean(&s.pin)),
            metric("core.read_self_us", "us", mean(&s.read_self)),
            metric("core.write_self_us", "us", mean(&s.write_self)),
            metric(
                "core.publishes_per_op",
                "publish/op",
                per(delta(|t| t.published), p.ops),
            ),
            metric(
                "core.retired_outstanding",
                "count",
                p.end.retired_outstanding as f64,
            ),
            metric(
                "core.consume_retries",
                "count",
                delta(|t| t.consume_retries) as f64,
            ),
            metric(
                "core.tick_us_per_departed",
                "us/tuple",
                (s.departed > 0).then(|| s.tick_us / s.departed as f64),
            ),
            metric("shard.resident", "count", p.end.shards_resident as f64),
            metric(
                "shard.dropped_per_tick",
                "shard/tick",
                per(delta(|t| t.shards_dropped), p.ticks),
            ),
            metric(
                "shard.pruned_per_scan",
                "shard/scan",
                per(delta(|t| t.shards_pruned), p.reads),
            ),
            metric(
                "fungi.rotted_per_tick",
                "tuple/tick",
                per(rotted(p.end) - rotted(p.start), p.ticks),
            ),
            metric("fungi.infected_fraction", "fraction", p.infected),
            metric(
                "summary.absorbed_per_tick",
                "value/tick",
                per(delta(|t| t.absorbed), p.ticks),
            ),
            metric("summary.summarize_us", "us", mean(&s.summarize)),
            metric("storage.checkpoint_ms", "ms", median(&s.checkpoint_ms)),
            metric(
                "storage.checkpoint_bytes_per_live",
                "B/tuple",
                per(s.checkpoint_bytes, s.checkpoint_live),
            ),
            metric("storage.live_hot", "tuple", p.end.live(p.hot) as f64),
            metric(
                "storage.live_archive",
                "tuple",
                p.end.live("archive") as f64,
            ),
            metric("clock.ticks", "count", p.ticks as f64),
            metric(
                "trace.overhead_pct",
                "%",
                100.0 * (self.total_us - plain_us) / plain_us,
            ),
        ]
    }
}
