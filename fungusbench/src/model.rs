//! An independent model of a wire workload's container, against which
//! every response is checked. TTL and window decay are deterministic, so
//! the model knows exactly which rows are live at every tick.

use fungus_server::Response;
use fungus_types::Value;

use crate::gen::Ask;

/// The container's fungus, as the model applies it on each tick.
#[derive(Debug, Clone, Copy)]
pub enum Decay {
    /// `ttl(n)`: a row rots once its age reaches `n` ticks.
    Ttl(u64),
    /// `window(n)`: only the newest `n` rows survive a tick.
    Window(usize),
}

/// Live rows as `(key, inserted_at)`, oldest first.
#[derive(Debug, Clone)]
pub struct Model {
    decay: Decay,
    now: u64,
    rows: Vec<(i64, u64)>,
}

impl Model {
    /// An empty container at tick 0.
    pub fn new(decay: Decay) -> Self {
        Model {
            decay,
            now: 0,
            rows: Vec::new(),
        }
    }

    /// Rows the model holds live.
    pub fn live(&self) -> usize {
        self.rows.len()
    }

    /// Records rows inserted at the current tick.
    pub fn insert(&mut self, keys: impl IntoIterator<Item = i64>) {
        let now = self.now;
        self.rows.extend(keys.into_iter().map(|k| (k, now)));
    }

    fn tick(&mut self) {
        self.now += 1;
        match self.decay {
            Decay::Ttl(max_age) => {
                let now = self.now;
                self.rows.retain(|&(_, t)| now - t < max_age);
            }
            Decay::Window(cap) => {
                let excess = self.rows.len().saturating_sub(cap);
                self.rows.drain(..excess);
            }
        }
    }

    fn with_key(&self, k: i64) -> usize {
        self.rows.iter().filter(|r| r.0 == k).count()
    }

    fn within_age(&self, n: u64) -> usize {
        self.rows.iter().filter(|r| self.now - r.1 <= n).count()
    }

    /// Checks one response against the model and applies the operation.
    pub fn apply(&mut self, ask: &Ask, resp: &Response) -> Result<(), String> {
        let bad = |what: &str| Err(format!("{ask:?}: {what}; got {resp:?}"));
        let Response::Rows {
            rows,
            consumed,
            columns,
            ..
        } = resp
        else {
            return match (ask, resp) {
                (Ask::Tick, Response::Ack { .. }) => {
                    self.tick();
                    Ok(())
                }
                _ => bad("unexpected response kind"),
            };
        };
        match ask {
            Ask::Insert(new) => {
                if rows.as_slice() != [vec![Value::Int(new.len() as i64)]] {
                    return bad("wrong inserted count");
                }
                self.insert(new.iter().map(|r| r.0));
            }
            Ask::Point(k) => {
                let want = self.with_key(*k);
                if rows.len() != want || rows.iter().any(|r| r.first() != Some(&Value::Int(*k))) {
                    return bad(&format!("expected {want} rows of key {k}"));
                }
            }
            Ask::AgeRange(n) => {
                let want = self.within_age(*n);
                if rows.len() != want {
                    return bad(&format!("expected {want} rows"));
                }
            }
            Ask::AgeAgg(n) => {
                let want = self.within_age(*n) as i64;
                if rows.first().and_then(|r| r.first()) != Some(&Value::Int(want)) {
                    return bad(&format!("expected COUNT(*) = {want}"));
                }
            }
            Ask::Consume(k) => {
                let want = self.with_key(*k);
                if *consumed != want as u64 || rows.len() != want {
                    return bad(&format!("expected {want} rows of key {k} consumed"));
                }
                self.rows.retain(|r| r.0 != *k);
            }
            Ask::Summarize => {
                if columns.is_empty() || rows.len() > 5 {
                    return bad("malformed summary");
                }
            }
            Ask::Tick | Ask::Scan(_) => return bad("unexpected row response"),
        }
        Ok(())
    }
}
