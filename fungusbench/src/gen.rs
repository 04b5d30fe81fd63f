//! Seeded input generation. Every statement, row and tick position of a
//! run is derived here from `--seed` before any timer starts; the engine
//! only ever sees the generated inputs.

use fungus_server::Request;
use fungus_types::Value;

/// splitmix64: a tiny, well-mixed generator whose stream depends only on
/// its seed, so inputs repeat exactly across runs and builds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`; distinct streams of one seed
    /// do not overlap in practice.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as u64
    }

    /// A reading in `[0, 100)` with two decimals, so its SQL text and its
    /// `FLOAT` value round-trip exactly.
    pub fn reading(&mut self) -> f64 {
        self.below(10_000) as f64 / 100.0
    }
}

/// The latency class an operation is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `INSERT` on the wire, `insert_batch` in-process.
    Write,
    /// Non-consuming `SELECT` or `SUMMARIZE`.
    Read,
    /// Keyed `SELECT … CONSUME`.
    Consume,
    /// One decay tick.
    Tick,
}

/// What a wire operation asks, in a form the correctness model can check
/// the response against.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    /// `INSERT` of `(key, reading)` rows.
    Insert(Vec<(i64, f64)>),
    /// `SELECT * … WHERE key = k` through the hash index.
    Point(i64),
    /// `SELECT key, reading … WHERE $age <= n`.
    AgeRange(u64),
    /// `SELECT COUNT(*), AVG(reading) … WHERE $age <= n`.
    AgeAgg(u64),
    /// `SELECT * … WHERE key = k CONSUME`.
    Consume(i64),
    /// `SUMMARIZE <summary> FROM … TOP n`.
    Summarize,
    /// `.tick`.
    Tick,
    /// Full-scan `SELECT COUNT(*), AVG(reading) … WHERE reading >= 0` of
    /// the named container.
    Scan(&'static str),
}

/// One generated wire operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// What it asks.
    pub ask: Ask,
    /// The request sent for it.
    pub request: Request,
}

impl Op {
    fn sql(ask: Ask, text: String) -> Op {
        Op {
            ask,
            request: Request::Sql { text },
        }
    }

    fn tick() -> Op {
        Op {
            ask: Ask::Tick,
            request: Request::Dot {
                line: ".tick".into(),
            },
        }
    }

    /// The latency class of this operation.
    pub fn class(&self) -> Class {
        match self.ask {
            Ask::Insert(_) => Class::Write,
            Ask::Consume(_) => Class::Consume,
            Ask::Tick => Class::Tick,
            Ask::Point(_) | Ask::AgeRange(_) | Ask::AgeAgg(_) | Ask::Summarize | Ask::Scan(_) => {
                Class::Read
            }
        }
    }

    /// The SQL text, if this is a SQL request.
    pub fn sql_text(&self) -> Option<&str> {
        match &self.request {
            Request::Sql { text } => Some(text),
            _ => None,
        }
    }
}

fn insert_op(table: &str, rows: Vec<(i64, f64)>) -> Op {
    let values: Vec<String> = rows.iter().map(|(k, r)| format!("({k}, {r:.2})")).collect();
    let text = format!("INSERT INTO {table} VALUES {}", values.join(", "));
    Op::sql(Ask::Insert(rows), text)
}

/// `front_small`: a ~200-row container behind the wire, where the fixed
/// per-request cost dominates.
pub mod front {
    use super::*;

    /// Container DDL.
    pub const DDL: [&str; 2] = [
        "CREATE CONTAINER ev (sensor INT NOT NULL, reading FLOAT) WITH FUNGUS ttl(8) \
         WITH DISTILL (hot = fading_topk(8, 0.05) ON sensor)",
        "CREATE INDEX ON ev (sensor)",
    ];
    /// TTL of `ev` in ticks.
    pub const TTL: u64 = 8;
    /// Distinct sensors; with ~200 live rows a point read returns ~3.
    pub const SENSORS: u64 = 64;
    /// `.tick` is every `TICK_EVERY`-th operation.
    pub const TICK_EVERY: usize = 25;

    /// The first `n` operations of the stream for `seed` (the warm-up is
    /// a prefix, the measured phase the rest).
    pub fn ops(seed: u64, n: usize) -> Vec<Op> {
        let mut rng = Rng::new(seed, 1);
        (0..n).map(|i| op(i, &mut rng)).collect()
    }

    fn op(i: usize, rng: &mut Rng) -> Op {
        if i % TICK_EVERY == TICK_EVERY - 1 {
            return Op::tick();
        }
        let roll = rng.below(100);
        let sensor = rng.below(SENSORS) as i64;
        let age = 1 + rng.below(10);
        match roll {
            0..=39 => {
                let n = 1 + rng.below(4);
                let rows = (0..n)
                    .map(|_| (rng.below(SENSORS) as i64, rng.reading()))
                    .collect();
                insert_op("ev", rows)
            }
            40..=64 => Op::sql(
                Ask::Point(sensor),
                format!("SELECT * FROM ev WHERE sensor = {sensor}"),
            ),
            65..=79 => Op::sql(
                Ask::AgeRange(age),
                format!("SELECT sensor, reading FROM ev WHERE $age <= {age}"),
            ),
            80..=89 => Op::sql(
                Ask::AgeAgg(age),
                format!("SELECT COUNT(*), AVG(reading) FROM ev WHERE $age <= {age}"),
            ),
            90..=94 => Op::sql(
                Ask::Consume(sensor),
                format!("SELECT * FROM ev WHERE sensor = {sensor} CONSUME"),
            ),
            _ => Op::sql(Ask::Summarize, "SUMMARIZE hot FROM ev TOP 5".into()),
        }
    }
}

/// `point_churn`: single-row writes beside point reads on a 50 000-row
/// container, each write republishing the container's MVCC snapshot.
pub mod churn {
    use super::*;

    /// Container DDL.
    pub const DDL: [&str; 2] = [
        "CREATE CONTAINER big (k INT NOT NULL, v FLOAT) WITH FUNGUS window(50000) \
         WITH DISTILL (top = fading_topk(8, 0.05) ON k)",
        "CREATE INDEX ON big (k)",
    ];
    /// Window capacity of `big`.
    pub const WINDOW: usize = 50_000;
    /// Distinct keys; a point read returns ~4 rows.
    pub const KEYS: u64 = 12_500;
    /// `.tick` is every `TICK_EVERY`-th operation.
    pub const TICK_EVERY: usize = 25;
    /// Rows per preload `insert_batch` call.
    pub const PRELOAD_BATCH: usize = 5_000;

    /// The `WINDOW` preload rows.
    pub fn preload(seed: u64) -> Vec<(i64, f64)> {
        let mut rng = Rng::new(seed, 2);
        (0..WINDOW)
            .map(|_| (rng.below(KEYS) as i64, rng.reading()))
            .collect()
    }

    /// The first `n` operations of the stream for `seed`.
    pub fn ops(seed: u64, n: usize) -> Vec<Op> {
        let mut rng = Rng::new(seed, 3);
        (0..n)
            .map(|i| {
                let roll = rng.below(100);
                let key = rng.below(KEYS) as i64;
                let reading = rng.reading();
                if i % TICK_EVERY == TICK_EVERY - 1 {
                    return Op::tick();
                }
                match roll {
                    0..=49 => insert_op("big", vec![(key, reading)]),
                    50..=89 => Op::sql(
                        Ask::Point(key),
                        format!("SELECT * FROM big WHERE k = {key}"),
                    ),
                    _ => Op::sql(
                        Ask::Consume(key),
                        format!("SELECT * FROM big WHERE k = {key} CONSUME"),
                    ),
                }
            })
            .collect()
    }
}

/// `rot_bulk`: in-process bulk ingest and decay of a rot-routed pair of
/// containers, read and drained over one side connection.
pub mod bulk {
    use super::*;

    /// DDL; `hot` rot-routes into `archive` (the route is added through
    /// `Database::add_route`).
    pub const DDL: [&str; 2] = [
        "CREATE CONTAINER hot (sensor INT NOT NULL, reading FLOAT) WITH FUNGUS egi(8, 6, 0.3)",
        "CREATE CONTAINER archive (sensor INT NOT NULL, reading FLOAT) WITH FUNGUS ttl(64) \
         SHARDS 8192 WITH DISTILL (top = fading_topk(16, 0.05) ON sensor, \
         shape = histogram(0, 100, 20) ON reading)",
    ];
    /// Rows per `insert_batch`.
    pub const BATCH: usize = 500;
    /// Distinct sensors.
    pub const SENSORS: u64 = 256;
    /// A scan round (one full scan of each container) every `SCAN_EVERY`
    /// cycles, and a keyed `CONSUME` of `hot` halfway between.
    pub const SCAN_EVERY: usize = 4;
    /// `Database::checkpoint` every `CHECKPOINT_EVERY` cycles.
    pub const CHECKPOINT_EVERY: usize = 64;

    /// One step of a cycle.
    #[derive(Debug, Clone)]
    pub enum Step {
        /// `insert_batch` of these rows into `hot`.
        Batch(Vec<Vec<Value>>),
        /// `Database::tick`.
        Tick,
        /// A scan round: one full scan of each container, back to back on
        /// the side connection, timed as one read.
        Scans([Op; 2]),
        /// A keyed `CONSUME` of `hot` on the side connection.
        Consume(Op),
        /// `Database::checkpoint`.
        Checkpoint,
    }

    /// The full scan of one container.
    pub fn scan(container: &'static str) -> Op {
        Op::sql(
            Ask::Scan(container),
            format!("SELECT COUNT(*), AVG(reading) FROM {container} WHERE reading >= 0"),
        )
    }

    /// The endless cycle stream for `seed`; cycle `c` is the same whatever
    /// was drawn before it.
    #[derive(Debug, Clone)]
    pub struct Cycles {
        rng: Rng,
        next: usize,
    }

    impl Cycles {
        /// The stream from cycle 0.
        pub fn new(seed: u64) -> Self {
            Cycles {
                rng: Rng::new(seed, 4),
                next: 0,
            }
        }
    }

    impl Iterator for Cycles {
        type Item = Vec<Step>;

        fn next(&mut self) -> Option<Vec<Step>> {
            let c = self.next;
            self.next += 1;
            let rng = &mut self.rng;
            let rows: Vec<Vec<Value>> = (0..BATCH)
                .map(|_| {
                    vec![
                        Value::Int(rng.below(SENSORS) as i64),
                        Value::Float(rng.reading()),
                    ]
                })
                .collect();
            let sensor = rng.below(SENSORS) as i64;
            let mut steps = vec![Step::Batch(rows), Step::Tick];
            if c.is_multiple_of(SCAN_EVERY) {
                steps.push(Step::Scans([scan("hot"), scan("archive")]));
            }
            if c % SCAN_EVERY == SCAN_EVERY / 2 {
                steps.push(Step::Consume(Op::sql(
                    Ask::Consume(sensor),
                    format!("SELECT * FROM hot WHERE sensor = {sensor} CONSUME"),
                )));
            }
            if c % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
                steps.push(Step::Checkpoint);
            }
            Some(steps)
        }
    }
}
