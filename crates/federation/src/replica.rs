//! Anti-entropy replication of environment knowledge.
//!
//! Each federated environment keeps a [`ReplicatedStore`] mirroring the
//! shareable slice of its Information and Organisational models as
//! versioned key→value entries. Replication is pull-based anti-entropy:
//! a replica sends its *digest* (per-origin applied watermarks), the
//! peer answers with the *delta* (every update the digest lacks, in
//! per-origin sequence order), and ingestion applies updates under
//! causal per-origin FIFO with deterministic conflict resolution — so
//! all replicas converge to bit-for-bit identical state regardless of
//! exchange order.

use std::borrow::{Borrow, Cow};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use cscw_kernel::{percent_escape_into, percent_unescape};

use crate::clock::{ClockStamp, VectorClock};
use crate::error::FederationError;

/// One versioned update to a replicated key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplEntry {
    /// Namespaced key (`org:…`, `info:…`).
    pub key: String,
    /// Canonical value rendering.
    pub value: String,
    /// Version vector at write time.
    pub clock: ClockStamp,
    /// The environment that wrote this version.
    pub origin: String,
    /// Gap-free per-origin sequence number (1-based).
    pub seq: u64,
}

/// The codec's structural characters, the record and unit separators,
/// escaped in every field (with `%` itself) by
/// [`percent_escape_into`].
const FIELD_RESERVED: &[u8] = b"\x1e\x1f";

/// Reverses the field escaping; borrows `s` when it holds no escape.
pub(crate) fn unescape(s: &str) -> Result<Cow<'_, str>, FederationError> {
    percent_unescape(s).ok_or_else(|| FederationError::Codec(format!("bad escape in {s:?}")))
}

impl ReplEntry {
    /// Appends one record to `out`: fields joined by the unit
    /// separator.
    pub fn encode_into(&self, out: &mut String) {
        percent_escape_into(out, &self.key, FIELD_RESERVED);
        out.push('\x1f');
        percent_escape_into(out, &self.value, FIELD_RESERVED);
        out.push('\x1f');
        out.push_str(self.clock.as_str());
        out.push('\x1f');
        percent_escape_into(out, &self.origin, FIELD_RESERVED);
        out.push('\x1f');
        // Writing to a String cannot fail.
        let _ = write!(out, "{}", self.seq);
    }

    /// Decodes one record.
    ///
    /// # Errors
    ///
    /// [`FederationError::Codec`] on wrong arity or malformed fields.
    pub fn decode(record: &str) -> Result<Self, FederationError> {
        let fields: Vec<&str> = record.split('\x1f').collect();
        let [key, value, clock, origin, seq] = fields.as_slice() else {
            return Err(FederationError::Codec(format!(
                "entry has {} fields, want 5",
                fields.len()
            )));
        };
        Ok(ReplEntry {
            key: unescape(key)?.into_owned(),
            value: unescape(value)?.into_owned(),
            clock: ClockStamp::decode(clock)?,
            origin: unescape(origin)?.into_owned(),
            seq: seq
                .parse()
                .map_err(|_| FederationError::Codec(format!("bad seq: {seq}")))?,
        })
    }
}

/// Appends a delta (entry list) to `out` as one frame body: records
/// joined by the record separator.
pub fn encode_delta_into<'a>(out: &mut String, entries: impl IntoIterator<Item = &'a ReplEntry>) {
    for (i, entry) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push('\x1e');
        }
        entry.encode_into(out);
    }
}

/// [`encode_delta_into`] a fresh body.
pub fn encode_delta<'a>(entries: impl IntoIterator<Item = &'a ReplEntry>) -> String {
    let mut body = String::new();
    encode_delta_into(&mut body, entries);
    body
}

/// Decodes a delta frame body.
///
/// # Errors
///
/// [`FederationError::Codec`] from any malformed record.
pub fn decode_delta(body: &str) -> Result<Vec<ReplEntry>, FederationError> {
    body.split('\x1e')
        .filter(|r| !r.is_empty())
        .map(ReplEntry::decode)
        .collect()
}

/// Appends a digest (per-origin watermarks) to `out` as one frame
/// body.
pub fn encode_digest_into(out: &mut String, digest: &BTreeMap<String, u64>) {
    for (i, (origin, seq)) in digest.iter().enumerate() {
        if i > 0 {
            out.push('\x1e');
        }
        percent_escape_into(out, origin, FIELD_RESERVED);
        // Writing to a String cannot fail.
        let _ = write!(out, "\x1f{seq}");
    }
}

/// [`encode_digest_into`] a fresh body.
pub fn encode_digest(digest: &BTreeMap<String, u64>) -> String {
    let mut body = String::new();
    encode_digest_into(&mut body, digest);
    body
}

/// Decodes a digest frame body. Origins borrow from `body` unless
/// they hold an escape; a repeated origin keeps its last watermark.
///
/// # Errors
///
/// [`FederationError::Codec`] on malformed records.
pub fn decode_digest(body: &str) -> Result<BTreeMap<Cow<'_, str>, u64>, FederationError> {
    let mut digest = BTreeMap::new();
    for record in body.split('\x1e').filter(|r| !r.is_empty()) {
        let (origin, seq) = record
            .split_once('\x1f')
            .ok_or_else(|| FederationError::Codec("digest record missing separator".into()))?;
        let seq: u64 = seq
            .parse()
            .map_err(|_| FederationError::Codec(format!("bad digest seq: {seq}")))?;
        digest.insert(unescape(origin)?, seq);
    }
    Ok(digest)
}

/// What one [`ReplicatedStore::ingest`] call did with its batch.
///
/// The standing-query layer reads `changed`, the replica's own answer
/// to "which resolved values did this batch change?"; `applied`,
/// `buffered` and `stale` feed gossip telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Updates applied this call, in causal application order
    /// (includes previously buffered updates whose gap just filled).
    /// Each is the same allocation the replica's log and resolved
    /// state hold.
    pub applied: Vec<Arc<ReplEntry>>,
    /// The resolved entries whose value this call changed: one per
    /// key, carrying its final value, in key order. An update that
    /// lost resolution, a new version with the old value, and a key
    /// changed and changed back within the batch are not here.
    pub changed: Vec<Arc<ReplEntry>>,
    /// Updates from this batch still parked out-of-order in the
    /// pending buffer after the drain.
    pub buffered: usize,
    /// Updates dropped: already applied (seq at or below the origin's
    /// watermark) or from this replica's own origin.
    pub stale: usize,
}

impl IngestReport {
    /// Number of updates applied.
    pub fn applied_count(&self) -> usize {
        self.applied.len()
    }
}

/// The updates one batch's resolution let win, each with the version
/// it displaced (`None` for a key new to the replica), in apply order.
type Wins = Vec<(Arc<ReplEntry>, Option<Arc<ReplEntry>>)>;

/// A replica of the federated knowledge state for one environment.
///
/// Every applied version is one shared [`ReplEntry`]: its origin's log,
/// the resolved state (while it wins) and the [`IngestReport`] that
/// applied it all point at the same allocation.
#[derive(Debug, Clone, Default)]
pub struct ReplicatedStore {
    domain: String,
    /// Resolved current value per key.
    state: BTreeMap<String, Arc<ReplEntry>>,
    /// Gap-free update log per origin (index i holds seq i+1).
    logs: BTreeMap<String, Vec<Arc<ReplEntry>>>,
    /// Highest contiguously applied seq per origin.
    applied: BTreeMap<String, u64>,
    /// Out-of-causal-order updates buffered until their gap fills.
    pending: BTreeMap<String, BTreeMap<u64, ReplEntry>>,
    /// This replica's own clock (ticked on local writes, merged on
    /// ingestion).
    clock: VectorClock,
}

impl ReplicatedStore {
    /// A fresh replica owned by `domain`.
    pub fn new(domain: impl Into<String>) -> Self {
        ReplicatedStore {
            domain: domain.into(),
            ..Default::default()
        }
    }

    /// The owning domain.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// Number of resolved keys.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// True when nothing has replicated yet.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// The resolved value for a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.state.get(key).map(|e| e.value.as_str())
    }

    /// Resolved entries in key order.
    pub fn entries(&self) -> impl Iterator<Item = &ReplEntry> {
        self.state.values().map(|e| &**e)
    }

    /// Writes locally: ticks this domain's clock component, appends to
    /// its own log and applies immediately.
    pub fn put(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.clock.tick(&self.domain);
        let seq = self.applied.get(&self.domain).copied().unwrap_or(0) + 1;
        let entry = Arc::new(ReplEntry {
            key: key.into(),
            value: value.into(),
            clock: self.clock.stamp(),
            origin: self.domain.clone(),
            seq,
        });
        self.append(&entry);
        // A local write always wins: the clock it carries has merged
        // every version this replica resolved, and then ticked.
        self.resolve(&entry);
    }

    /// The digest: per-origin applied watermarks.
    pub fn digest(&self) -> &BTreeMap<String, u64> {
        &self.applied
    }

    /// Every update a replica at `their` digest is missing, per-origin
    /// sequence order — gap-free because origin logs are gap-free.
    pub fn delta_since<K: Borrow<str> + Ord>(&self, their: &BTreeMap<K, u64>) -> Vec<&ReplEntry> {
        let mut delta = Vec::new();
        for (origin, log) in &self.logs {
            let have = their.get(origin.as_str()).copied().unwrap_or(0) as usize;
            if have < log.len() {
                delta.extend(log[have..].iter().map(|e| &**e));
            }
        }
        delta
    }

    /// Ingests updates from a peer under causal per-origin FIFO: an
    /// update applies only once every earlier update from its origin
    /// has applied; later arrivals buffer until the gap fills. An
    /// update that continues its origin's log while nothing of that
    /// origin is parked applies at once, so in-order delivery never
    /// touches the buffer. A seq the batch repeats parks once; each
    /// repeat counts as stale.
    ///
    /// Returns an [`IngestReport`]: *which* updates applied (buffered
    /// ones appear when their gap fills), how many still wait for a
    /// gap, and how many were stale duplicates.
    pub fn ingest(&mut self, updates: Vec<ReplEntry>) -> IngestReport {
        let mut report = IngestReport::default();
        let mut wins = Vec::new();
        // The origins this batch parked updates for, sorted, each with
        // the seqs it parked.
        let mut parked: Vec<(String, Vec<u64>)> = Vec::new();
        for update in updates {
            if update.origin == self.domain {
                report.stale += 1; // own history is authoritative locally
                continue;
            }
            let watermark = self.applied.get(&update.origin).copied().unwrap_or(0);
            if update.seq <= watermark {
                report.stale += 1; // duplicate of an already-applied seq
                continue;
            }
            if update.seq == watermark + 1 && !self.pending.contains_key(&update.origin) {
                self.apply(Arc::new(update), &mut report, &mut wins);
                continue;
            }
            match parked.binary_search_by(|(o, _)| o.as_str().cmp(&update.origin)) {
                Ok(i) if parked[i].1.contains(&update.seq) => {
                    report.stale += 1; // repeated within this batch
                    continue;
                }
                Ok(i) => parked[i].1.push(update.seq),
                Err(i) => parked.insert(i, (update.origin.clone(), vec![update.seq])),
            }
            match self.pending.get_mut(&update.origin) {
                Some(buf) => {
                    buf.insert(update.seq, update);
                }
                None => {
                    let origin = update.origin.clone();
                    self.pending
                        .insert(origin, BTreeMap::from([(update.seq, update)]));
                }
            }
        }
        // Only an origin this batch parked for can have a run that now
        // continues its log: every earlier ingest drained all the rest.
        for (origin, seqs) in &parked {
            loop {
                let next_seq = self.applied.get(origin).copied().unwrap_or(0) + 1;
                let Some(entry) = self
                    .pending
                    .get_mut(origin)
                    .and_then(|buf| buf.remove(&next_seq))
                else {
                    break;
                };
                self.apply(Arc::new(entry), &mut report, &mut wins);
            }
            // An emptied buffer goes, so an origin with parked updates
            // is exactly a key of `pending`.
            match self.pending.get(origin) {
                Some(buf) if buf.is_empty() => {
                    self.pending.remove(origin);
                }
                Some(buf) => {
                    report.buffered += seqs.iter().filter(|s| buf.contains_key(s)).count();
                }
                None => {}
            }
        }
        report.changed = self.changes(wins);
        report
    }

    /// Applies one update that continues its origin's log: learns its
    /// clock, logs it, resolves it and reports it; a win joins `wins`.
    fn apply(&mut self, entry: Arc<ReplEntry>, report: &mut IngestReport, wins: &mut Wins) {
        self.clock.merge_stamp(&entry.clock);
        self.append(&entry);
        if let Some(displaced) = self.resolve(&entry) {
            wins.push((Arc::clone(&entry), displaced));
        }
        report.applied.push(entry);
    }

    /// A batch's `changed` report from its `wins`: per key, the final
    /// resolved entry when its value differs from the one the batch
    /// started from, in key order.
    fn changes(&self, mut wins: Wins) -> Vec<Arc<ReplEntry>> {
        // Stable, so each key's first win holds the version the batch
        // started from.
        wins.sort_by(|(a, _), (b, _)| a.key.cmp(&b.key));
        wins.dedup_by(|(next, _), (first, _)| next.key == first.key);
        wins.into_iter()
            .filter_map(|(won, displaced)| {
                let now = &self.state[&won.key];
                let same = displaced.is_some_and(|old| old.value == now.value);
                (!same).then(|| Arc::clone(now))
            })
            .collect()
    }

    /// Appends `entry` to its origin's log and advances the origin's
    /// watermark to its seq.
    fn append(&mut self, entry: &Arc<ReplEntry>) {
        match self.logs.get_mut(&entry.origin) {
            Some(log) => log.push(Arc::clone(entry)),
            None => {
                self.logs
                    .insert(entry.origin.clone(), vec![Arc::clone(entry)]);
            }
        }
        match self.applied.get_mut(&entry.origin) {
            Some(watermark) => *watermark = entry.seq,
            None => {
                self.applied.insert(entry.origin.clone(), entry.seq);
            }
        }
    }

    /// Conflict resolution: the surviving version is the maximum under
    /// a total order on immutable version metadata — clock total, then
    /// origin, then sequence, then value. Strict clock dominance implies
    /// a strictly larger total, so causally-later versions always win;
    /// concurrent versions fall to the deterministic tie-break. A pure
    /// max over a total order makes the fold commutative, associative
    /// and idempotent: replicas converge regardless of apply order.
    ///
    /// Returns `Some` when `incoming` won, holding the version it
    /// displaced (`None` for a key new to the replica).
    fn resolve(&mut self, incoming: &Arc<ReplEntry>) -> Option<Option<Arc<ReplEntry>>> {
        match self.state.get_mut(&incoming.key) {
            Some(current) if rank(current) < rank(incoming) => {
                Some(Some(std::mem::replace(current, Arc::clone(incoming))))
            }
            Some(_) => None,
            None => {
                self.state
                    .insert(incoming.key.clone(), Arc::clone(incoming));
                Some(None)
            }
        }
    }

    /// Canonical rendering of the resolved state — replicas that have
    /// converged produce bit-for-bit identical fingerprints.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for entry in self.state.values() {
            out.push_str(&entry.key);
            out.push('=');
            out.push_str(&entry.value);
            out.push_str(" @");
            out.push_str(entry.clock.as_str());
            out.push_str(" by ");
            out.push_str(&entry.origin);
            out.push('\n');
        }
        out
    }
}

/// The total order resolution maximises over. Built only from fields
/// that never change after a version is written, so every replica ranks
/// the same pair identically no matter what it has seen in between.
fn rank(e: &ReplEntry) -> (u64, &str, u64, &str) {
    (e.clock.total(), &e.origin, e.seq, &e.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscw_kernel::SeededRng;

    /// Owned copies of `from`'s delta for a replica at `their` digest —
    /// what a receiver decodes off the wire.
    fn delta(from: &ReplicatedStore, their: &BTreeMap<String, u64>) -> Vec<ReplEntry> {
        from.delta_since(their).into_iter().cloned().collect()
    }

    fn sync(from: &ReplicatedStore, to: &mut ReplicatedStore) -> usize {
        to.ingest(delta(from, to.digest())).applied_count()
    }

    fn seqs(report: &IngestReport) -> Vec<(&str, u64)> {
        report
            .applied
            .iter()
            .map(|e| (e.origin.as_str(), e.seq))
            .collect()
    }

    #[test]
    fn digest_delta_round_trip_converges_two_replicas() {
        let mut a = ReplicatedStore::new("env-a");
        let mut b = ReplicatedStore::new("env-b");
        a.put("org:cn=Tom", "person Tom");
        a.put("info:doc1", "minutes v1");
        b.put("org:cn=Wolfgang", "person Wolfgang");
        assert_eq!(sync(&a, &mut b), 2);
        assert_eq!(sync(&b, &mut a), 1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.len(), 3);
        assert_eq!(b.get("info:doc1"), Some("minutes v1"));
        // Already-synced: empty deltas.
        assert!(a.delta_since(b.digest()).is_empty());
    }

    #[test]
    fn causal_fifo_buffers_gaps() {
        let mut a = ReplicatedStore::new("env-a");
        a.put("k1", "v1");
        a.put("k1", "v2");
        a.put("k2", "x");
        let delta = delta(&a, &BTreeMap::new());
        let mut b = ReplicatedStore::new("env-b");
        // Deliver out of order: seq 3 and 2 first — nothing applies.
        let first = b.ingest(vec![delta[2].clone()]);
        assert_eq!(
            (first.applied_count(), first.buffered, first.stale),
            (0, 1, 0)
        );
        assert_eq!(b.ingest(vec![delta[1].clone()]).applied_count(), 0);
        assert!(b.is_empty());
        // The gap fills: all three apply, in causal order.
        let third = b.ingest(vec![delta[0].clone()]);
        assert_eq!(third.applied_count(), 3);
        assert_eq!(
            third.applied.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "applied entries surface in causal order"
        );
        assert_eq!(b.get("k1"), Some("v2"));
        assert_eq!(b.fingerprint(), a.fingerprint());
    }

    #[test]
    fn a_batch_drains_only_the_origins_it_parked_for() {
        let mut a = ReplicatedStore::new("env-a");
        let mut b = ReplicatedStore::new("env-b");
        for i in 1..=3 {
            b.put(format!("b{i}"), "x");
        }
        let from_b = delta(&b, &BTreeMap::new());
        let mut c = ReplicatedStore::new("env-c");
        // env-b's seq 2 and 3 arrive ahead of seq 1: a buffered gap.
        let gap = c.ingest(from_b[1..].to_vec());
        assert_eq!((gap.applied_count(), gap.buffered), (0, 2));
        // A batch touching only env-a applies and leaves env-b parked.
        a.put("a1", "y");
        a.put("a2", "y");
        let only_a = c.ingest(delta(&a, &BTreeMap::new())[1..].to_vec());
        assert_eq!((only_a.applied_count(), only_a.buffered), (0, 1));
        let only_a = c.ingest(delta(&a, c.digest()));
        assert_eq!(seqs(&only_a), vec![("env-a", 1), ("env-a", 2)]);
        assert_eq!((only_a.buffered, only_a.stale), (0, 0));
        assert_eq!(c.get("b2"), None, "env-b's run stays buffered");
        // Filling env-b's gap applies its whole run in seq order.
        let fill = c.ingest(vec![from_b[0].clone()]);
        assert_eq!(seqs(&fill), vec![("env-b", 1), ("env-b", 2), ("env-b", 3)]);
        assert_eq!(fill.buffered, 0);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn stale_and_own_origin_updates_are_dropped_not_buffered() {
        let mut a = ReplicatedStore::new("env-a");
        a.put("k", "v");
        let delta = delta(&a, &BTreeMap::new());
        let mut b = ReplicatedStore::new("env-b");
        assert_eq!(b.ingest(delta.clone()).applied_count(), 1);
        // Re-delivery is stale: dropped, not parked in pending forever.
        let again = b.ingest(delta.clone());
        assert_eq!(
            (again.applied_count(), again.buffered, again.stale),
            (0, 0, 1)
        );
        // A replica never re-applies its own history.
        let own = a.ingest(delta);
        assert_eq!((own.applied_count(), own.stale), (0, 1));
    }

    #[test]
    fn a_gapped_update_repeated_in_one_batch_parks_once() {
        let mut a = ReplicatedStore::new("env-a");
        a.put("k", "v1");
        a.put("k", "v2");
        let gapped = delta(&a, &BTreeMap::new())[1].clone();
        let mut b = ReplicatedStore::new("env-b");
        let report = b.ingest(vec![gapped.clone(), gapped]);
        assert_eq!(
            (report.applied_count(), report.buffered, report.stale),
            (0, 1, 1)
        );
        assert_eq!(b.pending["env-a"].len(), 1, "one update parked");
    }

    /// A report's changed entries as `(key, value)`.
    fn changed(report: &IngestReport) -> Vec<(&str, &str)> {
        report
            .changed
            .iter()
            .map(|e| (e.key.as_str(), e.value.as_str()))
            .collect()
    }

    #[test]
    fn a_losing_update_is_not_reported() {
        let mut a = ReplicatedStore::new("env-a");
        let mut b = ReplicatedStore::new("env-b");
        a.put("shared", "from-a");
        b.put("shared", "from-b");
        let mut c = ReplicatedStore::new("env-c");
        // Concurrent versions tie on clock total; the origin breaks it.
        let won = c.ingest(delta(&b, &BTreeMap::new()));
        assert_eq!(changed(&won), vec![("shared", "from-b")]);
        let lost = c.ingest(delta(&a, c.digest()));
        assert_eq!(lost.applied_count(), 1);
        assert!(
            lost.changed.is_empty(),
            "the losing version changed nothing"
        );
        assert_eq!(c.get("shared"), Some("from-b"));
    }

    #[test]
    fn a_same_valued_version_from_another_origin_is_not_reported() {
        let mut a = ReplicatedStore::new("env-a");
        let mut b = ReplicatedStore::new("env-b");
        a.put("k", "same");
        b.put("k", "same");
        let mut c = ReplicatedStore::new("env-c");
        assert_eq!(
            changed(&c.ingest(delta(&a, &BTreeMap::new()))),
            vec![("k", "same")]
        );
        let again = c.ingest(delta(&b, c.digest()));
        assert_eq!(again.applied_count(), 1);
        assert!(again.changed.is_empty(), "the new version wins, same value");
        assert!(c.fingerprint().contains("by env-b"));
    }

    #[test]
    fn a_key_written_twice_in_one_batch_is_reported_once_with_its_final_value() {
        let mut a = ReplicatedStore::new("env-a");
        a.put("k", "v1");
        a.put("k", "v2");
        let mut b = ReplicatedStore::new("env-b");
        let report = b.ingest(delta(&a, &BTreeMap::new()));
        assert_eq!(report.applied_count(), 2);
        assert_eq!(changed(&report), vec![("k", "v2")]);
    }

    #[test]
    fn a_key_changed_and_changed_back_in_one_batch_is_not_reported() {
        let mut a = ReplicatedStore::new("env-a");
        let mut b = ReplicatedStore::new("env-b");
        a.put("k", "v1");
        sync(&a, &mut b);
        a.put("k", "v2");
        a.put("k", "v1");
        let report = b.ingest(delta(&a, b.digest()));
        assert_eq!(report.applied_count(), 2);
        assert!(report.changed.is_empty());
    }

    #[test]
    fn reported_keys_come_in_key_order() {
        let mut a = ReplicatedStore::new("env-a");
        for key in ["m", "z", "a", "m"] {
            a.put(key, format!("{key}-value"));
        }
        let mut b = ReplicatedStore::new("env-b");
        let report = b.ingest(delta(&a, &BTreeMap::new()));
        assert_eq!(
            changed(&report),
            vec![("a", "a-value"), ("m", "m-value"), ("z", "z-value")]
        );
        // Each reported entry is the resolved state's own allocation.
        assert!(std::ptr::eq(
            &*report.changed[0],
            b.entries().next().unwrap()
        ));
    }

    #[test]
    fn applied_entries_are_shared_with_the_log_and_the_state() {
        let mut a = ReplicatedStore::new("env-a");
        a.put("k", "v");
        let mut b = ReplicatedStore::new("env-b");
        let report = b.ingest(delta(&a, &BTreeMap::new()));
        let applied = &report.applied[0];
        assert!(std::ptr::eq(&**applied, b.entries().next().unwrap()));
        assert!(std::ptr::eq(
            &**applied,
            b.delta_since(&BTreeMap::<String, u64>::new())[0]
        ));
    }

    #[test]
    fn concurrent_writes_resolve_identically_both_ways() {
        let mut a = ReplicatedStore::new("env-a");
        let mut b = ReplicatedStore::new("env-b");
        a.put("shared", "from-a");
        b.put("shared", "from-b");
        // Exchange in opposite orders on each side.
        let da = delta(&a, &BTreeMap::new());
        let db = delta(&b, &BTreeMap::new());
        a.ingest(db);
        b.ingest(da);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "conflict resolution must be order-independent"
        );
        assert_eq!(a.get("shared"), b.get("shared"));
    }

    #[test]
    fn resolved_conflicts_stay_resolved_after_further_sync() {
        let mut a = ReplicatedStore::new("env-a");
        let mut b = ReplicatedStore::new("env-b");
        let mut c = ReplicatedStore::new("env-c");
        a.put("k", "a1");
        b.put("k", "b1");
        sync(&a, &mut c);
        sync(&b, &mut c);
        sync(&a, &mut b);
        sync(&b, &mut a);
        sync(&c, &mut a);
        sync(&c, &mut b);
        sync(&a, &mut c);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(b.fingerprint(), c.fingerprint());
    }

    #[test]
    fn entry_and_frame_codecs_round_trip() {
        let mut clock = VectorClock::new();
        clock.tick("env-a");
        let entry = ReplEntry {
            key: "info:weird\x1fkey%".into(),
            value: "line1\nline2\x1e".into(),
            clock: clock.stamp(),
            origin: "env-a".into(),
            seq: 7,
        };
        let mut record = String::new();
        entry.encode_into(&mut record);
        assert_eq!(ReplEntry::decode(&record).unwrap(), entry);

        let body = encode_delta([&entry]);
        assert_eq!(decode_delta(&body).unwrap(), vec![entry]);
        assert!(decode_delta("garbage").is_err());

        let digest = BTreeMap::from([("env-a".to_owned(), 3u64), ("env-b".to_owned(), 9)]);
        let body = encode_digest(&digest);
        let decoded = decode_digest(&body).unwrap();
        assert!(decoded.keys().all(|o| matches!(o, Cow::Borrowed(_))));
        assert!(decoded
            .iter()
            .map(|(o, n)| (o.as_ref(), *n))
            .eq(digest.iter().map(|(o, n)| (o.as_str(), *n))));
        assert!(decode_digest("bad").is_err());
        assert!(decode_digest("").unwrap().is_empty());
        // A repeated origin keeps its last watermark.
        let repeated = decode_digest("env-a\x1f3\x1eenv-a\x1f1").unwrap();
        assert_eq!(repeated.get("env-a"), Some(&1));
    }

    /// The encoders' output, pinned byte for byte: the wire and every
    /// fingerprint depend on it.
    #[test]
    fn wire_bytes_are_pinned() {
        let digest = BTreeMap::from([
            ("env-a".to_owned(), 3u64),
            ("env-b%".to_owned(), 12),
            ("env\x1ec".to_owned(), 1),
        ]);
        assert_eq!(
            encode_digest(&digest),
            "env%1Ec\x1f1\x1eenv-a\x1f3\x1eenv-b%25\x1f12"
        );
        let body = encode_digest(&digest);
        let decoded = decode_digest(&body).unwrap();
        assert_eq!(decoded.get("env\x1ec"), Some(&1));
        assert_eq!(decoded.get("env-b%"), Some(&12));

        let mut a = ReplicatedStore::new("env-a");
        let mut b = ReplicatedStore::new("env-b");
        a.put("info:100%", "v\x1e1");
        b.put("org:cn=Tom\x1f", "50% off");
        b.put("org:k", "x\x1fy\x1ez");
        sync(&b, &mut a);
        a.put("info:100%", "v2%");
        let body = encode_delta(a.delta_since(&BTreeMap::<String, u64>::new()));
        assert_eq!(
            body,
            "info:100%25\x1fv%1E1\x1fenv-a:1\x1fenv-a\x1f1\x1e\
             info:100%25\x1fv2%25\x1fenv-a:2,env-b:2\x1fenv-a\x1f2\x1e\
             org:cn=Tom%1F\x1f50%25 off\x1fenv-b:1\x1fenv-b\x1f1\x1e\
             org:k\x1fx%1Fy%1Ez\x1fenv-b:2\x1fenv-b\x1f2"
        );
        assert_eq!(
            a.fingerprint(),
            "info:100%=v2% @env-a:2,env-b:2 by env-a\n\
             org:cn=Tom\x1f=50% off @env-b:1 by env-b\n\
             org:k=x\x1fy\x1ez @env-b:2 by env-b\n"
        );

        let zero = VectorClock::decode("env-a:0,env-b:2,env-c:1").unwrap();
        let mut wire = String::new();
        zero.encode_into(&mut wire);
        assert_eq!(wire, "env-b:2,env-c:1", "zero components stay off the wire");
    }

    #[test]
    fn awkward_domain_names_survive_the_delta_codec() {
        for name in [
            "env,a", "env%a", "env\x1fa", "env:a", "env\x1ea", "e,%:\x1f",
        ] {
            let mut origin = ReplicatedStore::new(name);
            let mut peer = ReplicatedStore::new("env-b");
            peer.put("k0", "v0");
            sync(&peer, &mut origin);
            origin.put("k1", "v1");
            origin.put("k1", "v2");
            let body = encode_delta(origin.delta_since(&BTreeMap::<String, u64>::new()));
            let decoded = decode_delta(&body).unwrap_or_else(|e| panic!("{name:?}: {e}"));
            assert_eq!(decoded, delta(&origin, &BTreeMap::new()), "{name:?}");
            let last = decoded.iter().find(|e| e.origin == name && e.seq == 2);
            assert_eq!(last.map(|e| e.clock.get(name)), Some(2), "{name:?}");
            sync(&origin, &mut peer);
            assert_eq!(peer.fingerprint(), origin.fingerprint(), "{name:?}");
        }
    }

    /// The reference ingest: every update parks, then each origin the
    /// batch parked for drains in order. The fast path must be
    /// indistinguishable from it.
    fn ingest_parking_only(store: &mut ReplicatedStore, updates: Vec<ReplEntry>) -> IngestReport {
        let mut report = IngestReport::default();
        let mut parked: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for update in updates {
            let watermark = store.applied.get(&update.origin).copied().unwrap_or(0);
            if update.origin == store.domain || update.seq <= watermark {
                report.stale += 1;
                continue;
            }
            let seqs = parked.entry(update.origin.clone()).or_default();
            if seqs.contains(&update.seq) {
                report.stale += 1;
                continue;
            }
            seqs.push(update.seq);
            store
                .pending
                .entry(update.origin.clone())
                .or_default()
                .insert(update.seq, update);
        }
        for (origin, seqs) in &parked {
            loop {
                let next_seq = store.applied.get(origin).copied().unwrap_or(0) + 1;
                let Some(entry) = store
                    .pending
                    .get_mut(origin)
                    .and_then(|buf| buf.remove(&next_seq))
                else {
                    break;
                };
                let entry = Arc::new(entry);
                store.clock.merge_stamp(&entry.clock);
                store.append(&entry);
                store.resolve(&entry);
                report.applied.push(entry);
            }
            if let Some(buf) = store.pending.get(origin) {
                report.buffered += seqs.iter().filter(|s| buf.contains_key(s)).count();
            }
        }
        report
    }

    /// The resolved `key → value` map.
    fn resolved(store: &ReplicatedStore) -> BTreeMap<String, String> {
        store
            .entries()
            .map(|e| (e.key.clone(), e.value.clone()))
            .collect()
    }

    /// Applied seqs grouped by origin, each in application order.
    fn per_origin(report: &IngestReport) -> BTreeMap<&str, Vec<u64>> {
        let mut out: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for e in &report.applied {
            out.entry(e.origin.as_str()).or_default().push(e.seq);
        }
        out
    }

    /// Seeded batches mixing in-order, gapped, re-delivered (also
    /// within one batch) and own-origin updates: the fast path applies the same updates per
    /// origin in the same order, parks and drops the same counts, and
    /// resolves to the same fingerprint as parking every update. Its
    /// change report names exactly the keys whose resolved value the
    /// batch changed, with their new values.
    #[test]
    fn fast_path_ingest_matches_parking_only() {
        const WRITERS: [&str; 3] = ["env-a", "env-b", "env-r"];
        for seed in 1..=200 {
            let mut rng = SeededRng::seed_from(seed);
            // Writers interleave puts with syncs, so clocks carry
            // several components.
            let mut writers: Vec<ReplicatedStore> =
                WRITERS.iter().map(|d| ReplicatedStore::new(*d)).collect();
            for _ in 0..24 {
                let w = rng.below(3) as usize;
                if rng.chance(0.3) {
                    let from = rng.below(3) as usize;
                    if from != w {
                        let updates = delta(&writers[from], writers[w].digest());
                        writers[w].ingest(updates);
                    }
                } else {
                    let key = format!("k{}", rng.below(6));
                    writers[w].put(key, format!("v{}", rng.below(100)));
                }
            }
            // Each writer's own log; the receiver is `env-r`, so its
            // own log only ever arrives as own-origin updates.
            let logs: Vec<Vec<ReplEntry>> = writers
                .iter()
                .map(|w| {
                    delta(w, &BTreeMap::new())
                        .into_iter()
                        .filter(|e| e.origin == w.domain())
                        .collect()
                })
                .collect();
            let mut fast = ReplicatedStore::new("env-r");
            let mut parking = ReplicatedStore::new("env-r");
            let mut next = [0usize; 3];
            for batch_no in 0..30 {
                let mut batch: Vec<ReplEntry> = Vec::new();
                for _ in 0..rng.range_inclusive(1, 6) {
                    let w = rng.below(3) as usize;
                    let log = &logs[w];
                    if log.is_empty() {
                        continue;
                    }
                    let i = if rng.chance(0.6) && next[w] < log.len() {
                        next[w] += 1; // in order
                        next[w] - 1
                    } else {
                        rng.below(log.len() as u64) as usize // gap or re-delivery
                    };
                    batch.push(log[i].clone());
                }
                if rng.chance(0.3) {
                    batch.reverse();
                }
                let before = resolved(&fast);
                let got = fast.ingest(batch.clone());
                let want = ingest_parking_only(&mut parking, batch);
                let at = format!("seed {seed} batch {batch_no}");
                let after = resolved(&fast);
                let diff: Vec<(&str, &str)> = after
                    .iter()
                    .filter(|(k, v)| before.get(*k) != Some(*v))
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                assert_eq!(changed(&got), diff, "{at}: the change report");
                assert_eq!(per_origin(&got), per_origin(&want), "{at}");
                assert_eq!(
                    (got.buffered, got.stale),
                    (want.buffered, want.stale),
                    "{at}"
                );
                assert_eq!(fast.fingerprint(), parking.fingerprint(), "{at}");
                assert_eq!(fast.digest(), parking.digest(), "{at}");
            }
            // Every log delivered in full settles both identically.
            let all: Vec<ReplEntry> = logs.concat();
            fast.ingest(all.clone());
            ingest_parking_only(&mut parking, all);
            assert_eq!(fast.fingerprint(), parking.fingerprint(), "seed {seed}");
            assert!(fast.pending.is_empty(), "seed {seed}: nothing stays parked");
        }
    }
}
