//! Engine-side counters read through the public `SharedDatabase` API:
//! per-container `EngineMetrics`, live counts and catalog telemetry.

use fungus_core::{EngineMetrics, SharedDatabase};

/// Everything the benchmark reads from the engine at one instant.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// `(container, metrics, live)` in catalog order.
    pub containers: Vec<(String, EngineMetrics, u64)>,
    /// MVCC snapshots published.
    pub published: u64,
    /// Retired versions not yet reclaimed.
    pub retired_outstanding: u64,
    /// Optimistic `CONSUME` retries.
    pub consume_retries: u64,
    /// Resident shards.
    pub shards_resident: u64,
    /// Shards dropped whole.
    pub shards_dropped: u64,
    /// Shards skipped by query pruning.
    pub shards_pruned: u64,
    /// Values absorbed by distillation sketches.
    pub absorbed: u64,
}

impl Totals {
    /// Reads the engine's counters now.
    pub fn read(db: &SharedDatabase) -> Totals {
        let mut containers = Vec::new();
        for name in db.container_names() {
            let metrics = db
                .read()
                .container(&name)
                .map(|c| *c.read().metrics())
                .unwrap_or_default();
            let live = db.live_count(&name) as u64;
            containers.push((name, metrics, live));
        }
        let mvcc = db.mvcc_telemetry();
        let shard = db.shard_telemetry();
        Totals {
            containers,
            published: mvcc.published,
            retired_outstanding: mvcc.retired - mvcc.reclaimed,
            consume_retries: mvcc.consume_retries,
            shards_resident: shard.resident,
            shards_dropped: shard.dropped,
            shards_pruned: shard.pruned,
            absorbed: db.sketch_telemetry().absorbed,
        }
    }

    /// A field summed over containers.
    pub fn sum(&self, f: impl Fn(&EngineMetrics) -> u64) -> u64 {
        self.containers.iter().map(|(_, m, _)| f(m)).sum()
    }

    /// Live rows of one container (0 if absent).
    pub fn live(&self, name: &str) -> u64 {
        self.containers
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0, |c| c.2)
    }

    /// Live rows summed over containers.
    pub fn sum_live(&self) -> u64 {
        self.containers.iter().map(|c| c.2).sum()
    }

    /// Live rows of every container, in catalog order.
    pub fn lives(&self) -> Vec<(String, u64)> {
        self.containers
            .iter()
            .map(|(n, _, live)| (n.clone(), *live))
            .collect()
    }

    /// Conservation per container: every row inserted is still live, was
    /// consumed, or rotted. Route deliveries count as inserts at their
    /// target, so the sum holds for route targets too.
    pub fn conservation_violations(&self) -> Vec<String> {
        self.containers
            .iter()
            .filter(|(_, m, live)| m.inserts != live + m.tuples_consumed + m.tuples_rotted)
            .map(|(name, m, live)| {
                format!(
                    "{name}: inserted {} != live {live} + consumed {} + rotted {}",
                    m.inserts, m.tuples_consumed, m.tuples_rotted
                )
            })
            .collect()
    }
}
