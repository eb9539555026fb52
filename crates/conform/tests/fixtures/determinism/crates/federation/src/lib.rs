//! Violating fixture: determinism discipline (R5).
//!
//! `fingerprint` delegates to a helper in another file that iterates a
//! `HashMap` — only the cross-file call graph can see that the order
//! escapes into the digest. `rearm` feeds `EventQueue` ordering as a
//! transitive *caller* of `schedule`. `report.rs`'s `to_json` walks a
//! map straight into committed-bench output. `debug_dump` iterates the
//! same map but is connected to no sink, so it must stay clean.

mod canon;
mod report;

use std::collections::HashMap;
use std::time::Instant;

pub struct Store {
    entries: HashMap<String, u64>,
}

impl Store {
    /// Canonical digest over the replicated entries.
    pub fn fingerprint(&self) -> String {
        canon::canonical_text(&self.entries)
    }

    /// Unconnected to any sink: hash iteration here is legal.
    pub fn debug_dump(&self) -> usize {
        let mut n = 0;
        for (_k, _v) in self.entries.iter() {
            n += 1;
        }
        n
    }
}

pub struct Queue {
    marks: HashMap<u64, u64>,
    slots: Vec<u64>,
}

impl Queue {
    /// The ordering sink: what arrives here fires in arrival order.
    pub fn schedule(&mut self, at: u64) {
        self.slots.push(at);
    }

    /// Hash iteration deciding what to schedule: the arbitrary order
    /// escapes into the event queue.
    pub fn rearm(&mut self) {
        let pending: Vec<u64> = self.marks.keys().copied().collect();
        for at in pending {
            self.schedule(at);
        }
    }
}

/// Wall-clock read in shipping code: flagged regardless of the graph.
pub fn stamp() -> u64 {
    let epoch = Instant::now();
    epoch.elapsed().as_micros() as u64
}

/// Unseeded randomness: flagged regardless of the graph.
pub fn jitter() -> u64 {
    let mut rng = thread_rng();
    rng.next_u64()
}
