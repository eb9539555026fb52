//! The incremental subscription engine.
//!
//! A [`SubscriptionRegistry`] holds standing queries and evaluates
//! them *incrementally*. Every change reaches it through one
//! [`apply`](SubscriptionRegistry::apply): resolved replicated-knowledge
//! values as `(key, value)` pairs (the values of the keys a gossip
//! ingest applied, or local publishes), then directory mutations as the
//! [`DitChange`]s a recording [`Dit`] logged
//! ([`Dit::take_changes`]). Each change touches only the subscriptions
//! whose interest indexes say it could matter:
//!
//! * **attribute index** — entry subscriptions keyed by every
//!   attribute type their query references; a change is routed to the
//!   union over the changed entry's attributes (plus negation-bearing
//!   queries, which cannot be pruned, and queries that currently match
//!   the changed DN — a removal is relevant to whoever matched it).
//! * **key index** — knowledge subscriptions with a derivable key
//!   prefix skip keys outside it.
//! * **edge index** — a registry-wide reverse map `attr → target value
//!   → referring DNs`, so when a join target flips (an entry starts or
//!   stops matching a join's inner filter) exactly the entries whose
//!   edge attribute names that target are re-evaluated.
//!
//! Each subscription keeps its current result set; comparing the
//! incremental evaluation against it yields [`QueryDelta`]s
//! (`Added`/`Removed`/`Changed`) with **zero re-scans** of the
//! population in steady state. The only full scans are the one-time
//! [`prime`](SubscriptionRegistry::prime) at subscribe time and the
//! explicit [`oracle_matches`](SubscriptionRegistry::oracle_matches)
//! used by equivalence tests — both tracked separately so callers can
//! assert the zero-re-scan property.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cscw_directory::{AttributeType, Dit, DitChange, Dn, Entry};
use cscw_kernel::{Layer, Telemetry};

use crate::compile::{CompiledQuery, Source};
use crate::error::QueryError;

/// Identifies one standing query within a registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(u64);

impl SubscriptionId {
    /// The raw id value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub-{}", self.0)
    }
}

/// One push notification: the result set of a standing query changed.
///
/// `id` is the member's identity in the watched stream: the entry DN
/// for directory queries, the knowledge key for knowledge queries.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryDelta {
    /// The member entered the result set.
    Added {
        /// DN or knowledge key.
        id: String,
    },
    /// The member stayed in the result set but its state changed.
    Changed {
        /// DN or knowledge key.
        id: String,
    },
    /// The member left the result set.
    Removed {
        /// DN or knowledge key.
        id: String,
    },
}

impl QueryDelta {
    /// The member's identity (DN or key).
    pub fn id(&self) -> &str {
        match self {
            QueryDelta::Added { id } | QueryDelta::Changed { id } | QueryDelta::Removed { id } => {
                id
            }
        }
    }

    /// Stable kind name (`added`/`changed`/`removed`).
    pub fn kind(&self) -> &'static str {
        match self {
            QueryDelta::Added { .. } => "added",
            QueryDelta::Changed { .. } => "changed",
            QueryDelta::Removed { .. } => "removed",
        }
    }
}

impl fmt::Display for QueryDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind(), self.id())
    }
}

/// One registered standing query with its incremental state.
#[derive(Debug)]
struct Subscription {
    query: CompiledQuery,
    /// Current result set for entry queries.
    matched_dns: BTreeSet<Dn>,
    /// Current result set for knowledge queries.
    matched_keys: BTreeSet<String>,
    /// Per-join target sets (DN strings matching the join's inner
    /// filter), aligned with the compiled query's join table.
    targets: Vec<BTreeSet<String>>,
    /// Set once the initial result set has been computed; deltas only
    /// flow after priming.
    primed: bool,
}

/// Standing queries with incremental evaluation (see module docs).
#[derive(Debug)]
pub struct SubscriptionRegistry {
    telemetry: Telemetry,
    subs: BTreeMap<u64, Subscription>,
    /// Attribute interest: attr type name → entry subscriptions that
    /// reference it.
    attr_index: BTreeMap<String, BTreeSet<u64>>,
    /// Entry subscriptions whose queries contain negations (cannot be
    /// pruned by attribute interest).
    wildcard_subs: BTreeSet<u64>,
    /// Knowledge subscriptions.
    knowledge_subs: BTreeSet<u64>,
    /// Reverse membership: DN → entry subscriptions currently matching
    /// it (removals are relevant to them regardless of attributes).
    matched_index: BTreeMap<Dn, BTreeSet<u64>>,
    /// Edge occurrence index: edge attr → target value → referring DNs.
    edge_occ: BTreeMap<AttributeType, BTreeMap<String, BTreeSet<Dn>>>,
    /// How many subscriptions reference each indexed edge attribute.
    edge_refs: BTreeMap<AttributeType, usize>,
    /// Resolved shadow of replicated knowledge, fed by applies.
    knowledge: BTreeMap<String, String>,
    next_id: u64,
    rescans: u64,
}

impl Default for SubscriptionRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl SubscriptionRegistry {
    /// An empty registry with its own telemetry stream.
    pub fn new() -> Self {
        Self::with_telemetry(Telemetry::new())
    }

    /// An empty registry emitting on a shared telemetry stream.
    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        SubscriptionRegistry {
            telemetry,
            subs: BTreeMap::new(),
            attr_index: BTreeMap::new(),
            wildcard_subs: BTreeSet::new(),
            knowledge_subs: BTreeSet::new(),
            matched_index: BTreeMap::new(),
            edge_occ: BTreeMap::new(),
            edge_refs: BTreeMap::new(),
            knowledge: BTreeMap::new(),
            next_id: 0,
            rescans: 0,
        }
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True when no subscriptions are registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// How many full re-scans ([`oracle_matches`]
    /// (SubscriptionRegistry::oracle_matches)) have run — stays `0`
    /// under purely incremental operation.
    pub fn rescans(&self) -> u64 {
        self.rescans
    }

    /// Registers a standing query. The subscription emits no deltas
    /// until primed ([`prime`](SubscriptionRegistry::prime) for entry
    /// queries, [`prime_knowledge`](SubscriptionRegistry::prime_knowledge)
    /// for knowledge queries).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the source fails to parse or compile.
    pub fn subscribe(&mut self, src: &str, at: u64) -> Result<SubscriptionId, QueryError> {
        let span = self
            .telemetry
            .span_begin(Layer::Query, "query.sub.register", at);
        let result = self.subscribe_inner(src);
        self.telemetry.span_end(span, at);
        result
    }

    fn subscribe_inner(&mut self, src: &str) -> Result<SubscriptionId, QueryError> {
        let query = CompiledQuery::compile(src)?;
        let id = self.next_id;
        self.next_id += 1;
        match query.source() {
            Source::Entries => {
                for attr in &query.attrs {
                    self.attr_index.entry(attr.clone()).or_default().insert(id);
                }
                if query.wildcard {
                    self.wildcard_subs.insert(id);
                }
                for join in &query.joins {
                    *self.edge_refs.entry(join.attr.clone()).or_insert(0) += 1;
                }
            }
            Source::Knowledge => {
                self.knowledge_subs.insert(id);
            }
        }
        let targets = vec![BTreeSet::new(); query.joins.len()];
        self.subs.insert(
            id,
            Subscription {
                query,
                matched_dns: BTreeSet::new(),
                matched_keys: BTreeSet::new(),
                targets,
                primed: false,
            },
        );
        self.telemetry.incr(Layer::Query, "query.sub.register");
        Ok(SubscriptionId(id))
    }

    /// Cancels a subscription; returns whether it existed.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let Some(sub) = self.subs.remove(&id.0) else {
            return false;
        };
        for attr in &sub.query.attrs {
            if let Some(set) = self.attr_index.get_mut(attr) {
                set.remove(&id.0);
                if set.is_empty() {
                    self.attr_index.remove(attr);
                }
            }
        }
        self.wildcard_subs.remove(&id.0);
        self.knowledge_subs.remove(&id.0);
        for dn in &sub.matched_dns {
            if let Some(set) = self.matched_index.get_mut(dn) {
                set.remove(&id.0);
                if set.is_empty() {
                    self.matched_index.remove(dn);
                }
            }
        }
        for join in &sub.query.joins {
            if let Some(refs) = self.edge_refs.get_mut(&join.attr) {
                *refs -= 1;
                if *refs == 0 {
                    self.edge_refs.remove(&join.attr);
                    self.edge_occ.remove(&join.attr);
                }
            }
        }
        self.telemetry.incr(Layer::Query, "query.sub.cancel");
        true
    }

    /// Computes an entry subscription's initial result set with one
    /// full pass over the DIT (the single authorized scan), builds any
    /// missing edge-occurrence indexes, and returns the initial
    /// `Added` deltas.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownSubscription`] for an unknown id.
    pub fn prime(
        &mut self,
        id: SubscriptionId,
        dit: &Dit,
        at: u64,
    ) -> Result<Vec<QueryDelta>, QueryError> {
        let span = self
            .telemetry
            .span_begin(Layer::Query, "query.sub.prime", at);
        let result = self.prime_inner(id, dit);
        self.telemetry.span_end(span, at);
        result
    }

    fn prime_inner(
        &mut self,
        id: SubscriptionId,
        dit: &Dit,
    ) -> Result<Vec<QueryDelta>, QueryError> {
        // Index edge occurrences for any join attribute not yet covered.
        let missing: Vec<AttributeType> = self
            .edge_refs
            .keys()
            .filter(|a| !self.edge_occ.contains_key(*a))
            .cloned()
            .collect();
        for attr in missing {
            let mut occ: BTreeMap<String, BTreeSet<Dn>> = BTreeMap::new();
            for entry in dit.iter() {
                for value in edge_values(entry, &attr) {
                    occ.entry(value).or_default().insert(entry.dn().clone());
                }
            }
            self.edge_occ.insert(attr, occ);
        }
        let sub = self
            .subs
            .get_mut(&id.0)
            .ok_or(QueryError::UnknownSubscription(id.0))?;
        // Join target sets from scratch.
        for (j, join) in sub.query.joins.iter().enumerate() {
            sub.targets[j] = dit
                .iter()
                .filter(|e| join.inner.matches(e))
                .map(|e| e.dn().to_string())
                .collect();
        }
        // Initial result set.
        let mut deltas = Vec::new();
        for entry in dit.iter() {
            if sub.query.eval_entry(entry, &sub.targets) {
                sub.matched_dns.insert(entry.dn().clone());
                self.matched_index
                    .entry(entry.dn().clone())
                    .or_default()
                    .insert(id.0);
                deltas.push(QueryDelta::Added {
                    id: entry.dn().to_string(),
                });
            }
        }
        sub.primed = true;
        self.telemetry.incr(Layer::Query, "query.sub.prime");
        self.telemetry
            .add(Layer::Query, "query.delta.added", deltas.len() as u64);
        Ok(deltas)
    }

    /// Computes a knowledge subscription's initial result set from the
    /// registry's resolved shadow (seed the shadow first via
    /// [`apply`](SubscriptionRegistry::apply)).
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownSubscription`] for an unknown id.
    pub fn prime_knowledge(
        &mut self,
        id: SubscriptionId,
        at: u64,
    ) -> Result<Vec<QueryDelta>, QueryError> {
        let span = self
            .telemetry
            .span_begin(Layer::Query, "query.sub.prime", at);
        let sub = match self.subs.get_mut(&id.0) {
            Some(sub) => sub,
            None => {
                self.telemetry.span_end(span, at);
                return Err(QueryError::UnknownSubscription(id.0));
            }
        };
        let mut deltas = Vec::new();
        for (key, value) in &self.knowledge {
            if sub.query.eval_kv(key, value) {
                sub.matched_keys.insert(key.clone());
                deltas.push(QueryDelta::Added { id: key.clone() });
            }
        }
        sub.primed = true;
        self.telemetry.incr(Layer::Query, "query.sub.prime");
        self.telemetry
            .add(Layer::Query, "query.delta.added", deltas.len() as u64);
        self.telemetry.span_end(span, at);
        Ok(deltas)
    }

    /// Feeds one batch of knowledge changes through every interested
    /// subscription: first the resolved replicated-knowledge `pairs`
    /// (idempotent: a pair equal to the shadowed value is a no-op),
    /// then the directory `changes`, oldest first. Returns the emitted
    /// deltas in deterministic (change, subscription id) order. `dit`
    /// is the post-change tree.
    pub fn apply(
        &mut self,
        pairs: &[(String, String)],
        changes: &[DitChange],
        dit: &Dit,
        at: u64,
    ) -> Vec<(SubscriptionId, QueryDelta)> {
        let span = self.telemetry.span_begin(Layer::Query, "query.apply", at);
        let mut out = Vec::new();
        for (key, value) in pairs {
            self.apply_pair(key, value, &mut out);
        }
        for change in changes {
            self.telemetry.incr(Layer::Query, "query.change.seen");
            self.apply_one_change(change, dit, &mut out);
        }
        for (_, delta) in &out {
            self.telemetry.incr(
                Layer::Query,
                match delta {
                    QueryDelta::Added { .. } => "query.delta.added",
                    QueryDelta::Changed { .. } => "query.delta.changed",
                    QueryDelta::Removed { .. } => "query.delta.removed",
                },
            );
        }
        self.telemetry.span_end(span, at);
        out
    }

    fn apply_one_change(
        &mut self,
        change: &DitChange,
        dit: &Dit,
        out: &mut Vec<(SubscriptionId, QueryDelta)>,
    ) {
        let (before, after) = match change {
            DitChange::Added(e) => (None, Some(e)),
            DitChange::Modified { before, after } => (Some(before), Some(after)),
            DitChange::Removed(e) => (Some(e), None),
        };
        let dn = change.entry().dn().clone();
        let dn_str = dn.to_string();

        // Maintain the edge occurrence index for the changed entry.
        let indexed: Vec<AttributeType> = self.edge_occ.keys().cloned().collect();
        for attr in indexed {
            let old: BTreeSet<String> = before.map(|e| edge_values(e, &attr)).unwrap_or_default();
            let new: BTreeSet<String> = after.map(|e| edge_values(e, &attr)).unwrap_or_default();
            if old == new {
                continue;
            }
            let occ = self.edge_occ.entry(attr).or_default();
            for gone in old.difference(&new) {
                if let Some(set) = occ.get_mut(gone) {
                    set.remove(&dn);
                    if set.is_empty() {
                        occ.remove(gone);
                    }
                }
            }
            for fresh in new.difference(&old) {
                occ.entry(fresh.clone()).or_default().insert(dn.clone());
            }
        }

        // Interested subscriptions: attribute-index union ∪ negation
        // queries ∪ whoever currently matches this DN.
        let mut touched: BTreeSet<&str> = BTreeSet::new();
        for e in before.iter().chain(after.iter()) {
            for attr in e.attrs() {
                touched.insert(attr.ty().as_str());
            }
        }
        let mut interested: BTreeSet<u64> = self.wildcard_subs.clone();
        for attr in touched {
            if let Some(set) = self.attr_index.get(attr) {
                interested.extend(set.iter().copied());
            }
        }
        if let Some(set) = self.matched_index.get(&dn) {
            interested.extend(set.iter().copied());
        }

        for sub_id in interested {
            let Some(sub) = self.subs.get_mut(&sub_id) else {
                continue;
            };
            if !sub.primed {
                continue;
            }
            // Update join target sets; a flipped target re-evaluates
            // exactly the entries whose edge attribute names it.
            let mut candidates: BTreeSet<Dn> = BTreeSet::from([dn.clone()]);
            for (j, join) in sub.query.joins.iter().enumerate() {
                let was = before.map(|e| join.inner.matches(e)).unwrap_or(false);
                let now = after.map(|e| join.inner.matches(e)).unwrap_or(false);
                if was == now {
                    continue;
                }
                if now {
                    sub.targets[j].insert(dn_str.clone());
                } else {
                    sub.targets[j].remove(&dn_str);
                }
                if let Some(referrers) = self
                    .edge_occ
                    .get(&join.attr)
                    .and_then(|occ| occ.get(&dn_str))
                {
                    candidates.extend(referrers.iter().cloned());
                }
            }
            for cand in candidates {
                self.telemetry.incr(Layer::Query, "query.eval.entry");
                // The mutated entry is evaluated against its own
                // post-change snapshot so a batch replays in stream
                // order; join-flip candidates read the post-batch
                // tree (later changes to them re-evaluate anyway).
                let now = if cand == dn {
                    after.is_some_and(|e| sub.query.eval_entry(e, &sub.targets))
                } else {
                    dit.get(&cand)
                        .map(|e| sub.query.eval_entry(e, &sub.targets))
                        .unwrap_or(false)
                };
                let was = sub.matched_dns.contains(&cand);
                let cand_str = cand.to_string();
                match (was, now) {
                    (false, true) => {
                        sub.matched_dns.insert(cand.clone());
                        self.matched_index
                            .entry(cand.clone())
                            .or_default()
                            .insert(sub_id);
                        out.push((SubscriptionId(sub_id), QueryDelta::Added { id: cand_str }));
                    }
                    (true, false) => {
                        sub.matched_dns.remove(&cand);
                        if let Some(set) = self.matched_index.get_mut(&cand) {
                            set.remove(&sub_id);
                            if set.is_empty() {
                                self.matched_index.remove(&cand);
                            }
                        }
                        out.push((SubscriptionId(sub_id), QueryDelta::Removed { id: cand_str }));
                    }
                    (true, true) => {
                        // Only the mutated entry itself is "changed";
                        // entries re-evaluated via a flipped join
                        // target did not change state.
                        if cand == dn && matches!(change, DitChange::Modified { .. }) {
                            out.push((
                                SubscriptionId(sub_id),
                                QueryDelta::Changed { id: cand_str },
                            ));
                        }
                    }
                    (false, false) => {}
                }
            }
        }
    }

    fn apply_pair(&mut self, key: &str, value: &str, out: &mut Vec<(SubscriptionId, QueryDelta)>) {
        if self.knowledge.get(key).is_some_and(|v| v == value) {
            return;
        }
        self.knowledge.insert(key.to_owned(), value.to_owned());
        self.telemetry.incr(Layer::Query, "query.change.seen");
        for sub_id in self.knowledge_subs.iter().copied() {
            let Some(sub) = self.subs.get_mut(&sub_id) else {
                continue;
            };
            if !sub.primed {
                continue;
            }
            if let Some(prefix) = sub.query.key_prefix() {
                if !key.starts_with(prefix) {
                    continue;
                }
            }
            self.telemetry.incr(Layer::Query, "query.eval.entry");
            let now = sub.query.eval_kv(key, value);
            let was = sub.matched_keys.contains(key);
            let delta = match (was, now) {
                (false, true) => {
                    sub.matched_keys.insert(key.to_owned());
                    QueryDelta::Added { id: key.to_owned() }
                }
                (true, false) => {
                    sub.matched_keys.remove(key);
                    QueryDelta::Removed { id: key.to_owned() }
                }
                (true, true) => QueryDelta::Changed { id: key.to_owned() },
                (false, false) => continue,
            };
            out.push((SubscriptionId(sub_id), delta));
        }
    }

    /// The current incrementally-maintained result set (DN strings or
    /// knowledge keys), or `None` for an unknown id.
    pub fn matches(&self, id: SubscriptionId) -> Option<BTreeSet<String>> {
        let sub = self.subs.get(&id.0)?;
        Some(match sub.query.source() {
            Source::Entries => sub.matched_dns.iter().map(|d| d.to_string()).collect(),
            Source::Knowledge => sub.matched_keys.clone(),
        })
    }

    /// The query source text for a subscription.
    pub fn query_src(&self, id: SubscriptionId) -> Option<&str> {
        self.subs.get(&id.0).map(|s| s.query.src())
    }

    /// Re-computes a subscription's result set *from scratch* — the
    /// oracle the incremental path is tested against. Counts as a
    /// re-scan (see [`rescans`](SubscriptionRegistry::rescans)); the
    /// incremental state is not modified.
    ///
    /// Entry queries scan `dit`; knowledge queries scan the resolved
    /// shadow (pass any `Dit` — it is unused for them).
    pub fn oracle_matches(&mut self, id: SubscriptionId, dit: &Dit) -> Option<BTreeSet<String>> {
        let sub = self.subs.get(&id.0)?;
        self.rescans += 1;
        self.telemetry.incr(Layer::Query, "query.rescan");
        Some(match sub.query.source() {
            Source::Entries => {
                let targets: Vec<BTreeSet<String>> = sub
                    .query
                    .joins
                    .iter()
                    .map(|join| {
                        dit.iter()
                            .filter(|e| join.inner.matches(e))
                            .map(|e| e.dn().to_string())
                            .collect()
                    })
                    .collect();
                dit.iter()
                    .filter(|e| sub.query.eval_entry(e, &targets))
                    .map(|e| e.dn().to_string())
                    .collect()
            }
            Source::Knowledge => self
                .knowledge
                .iter()
                .filter(|(k, v)| sub.query.eval_kv(k, v))
                .map(|(k, _)| k.clone())
                .collect(),
        })
    }
}

/// Text values of one attribute of an entry, as a set.
fn edge_values(entry: &Entry, attr: &AttributeType) -> BTreeSet<String> {
    entry
        .attr(attr.as_str())
        .map(|a| {
            a.values()
                .iter()
                .filter_map(|v| v.as_text())
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscw_directory::Attribute;

    /// A recording DIT holding `c=UK`, its log already taken.
    fn base_dit() -> Dit {
        let mut dit = Dit::new();
        dit.record_changes();
        dit.add(
            Entry::new("c=UK".parse().unwrap())
                .with_class("country")
                .with_attr(Attribute::single("c", "UK")),
        )
        .unwrap();
        dit.take_changes();
        dit
    }

    fn person(dn: &str, cn: &str, sn: &str) -> Entry {
        Entry::new(dn.parse().unwrap())
            .with_class("person")
            .with_attr(Attribute::single("cn", cn))
            .with_attr(Attribute::single("sn", sn))
    }

    fn apply_changes(
        reg: &mut SubscriptionRegistry,
        dit: &mut Dit,
    ) -> Vec<(SubscriptionId, QueryDelta)> {
        let changes = dit.take_changes();
        reg.apply(&[], &changes, dit, 0)
    }

    fn apply_pairs(
        reg: &mut SubscriptionRegistry,
        pairs: &[(&str, &str)],
    ) -> Vec<(SubscriptionId, QueryDelta)> {
        let pairs: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        reg.apply(&pairs, &[], &Dit::new(), 0)
    }

    #[test]
    fn add_modify_remove_emit_deltas_without_rescans() {
        let mut dit = base_dit();
        let mut reg = SubscriptionRegistry::new();
        let sub = reg
            .subscribe(r#"class = person and sn = "Rodden""#, 0)
            .unwrap();
        assert!(reg.prime(sub, &dit, 0).unwrap().is_empty());

        dit.add(person("c=UK,cn=Tom Rodden", "Tom Rodden", "Rodden"))
            .unwrap();
        let deltas = apply_changes(&mut reg, &mut dit);
        assert_eq!(deltas.len(), 1);
        assert_eq!(
            deltas[0].1,
            QueryDelta::Added {
                id: "c=UK,cn=Tom Rodden".into()
            }
        );

        let dn: Dn = "c=UK,cn=Tom Rodden".parse().unwrap();
        dit.add_value(&dn, "mail", "t@lancs.ac.uk").unwrap();
        let deltas = apply_changes(&mut reg, &mut dit);
        assert_eq!(deltas[0].1.kind(), "changed");

        // A modification that breaks the predicate removes it.
        dit.modify(&dn, |e| {
            e.replace_attr(Attribute::single("sn", "Other"));
        })
        .unwrap();
        let deltas = apply_changes(&mut reg, &mut dit);
        assert_eq!(deltas[0].1.kind(), "removed");

        dit.modify(&dn, |e| {
            e.replace_attr(Attribute::single("sn", "Rodden"));
        })
        .unwrap();
        dit.remove(&dn).unwrap();
        let deltas = apply_changes(&mut reg, &mut dit);
        assert_eq!(deltas.len(), 2, "re-added then removed");
        assert_eq!(deltas[1].1.kind(), "removed");
        assert_eq!(reg.rescans(), 0, "steady state never re-scans");
        assert!(reg.matches(sub).unwrap().is_empty());
    }

    #[test]
    fn join_target_flips_reevaluate_referring_entries_only() {
        let mut dit = base_dit();
        dit.schema_mut().define(cscw_directory::ObjectClass::new(
            "cscwproject",
            ["cn"],
            ["description", "projectstate"],
        ));
        let mut reg = SubscriptionRegistry::new();
        let sub = reg
            .subscribe(r#"class = person and works-on (projectstate = active)"#, 0)
            .unwrap();
        reg.prime(sub, &dit, 0).unwrap();

        let mut alice = person("c=UK,cn=Alice", "Alice A", "A");
        alice.put_attr(Attribute::single("workson", "c=UK,cn=odp-paper"));
        dit.add(alice).unwrap();
        assert!(
            apply_changes(&mut reg, &mut dit).is_empty(),
            "project not active yet"
        );

        // The project appears in the active state: Alice matches now.
        dit.add(
            Entry::new("c=UK,cn=odp-paper".parse().unwrap())
                .with_class("cscwproject")
                .with_attr(Attribute::single("cn", "odp-paper"))
                .with_attr(Attribute::single("projectstate", "active")),
        )
        .unwrap();
        let deltas = apply_changes(&mut reg, &mut dit);
        assert_eq!(deltas.len(), 1);
        assert_eq!(
            deltas[0].1,
            QueryDelta::Added {
                id: "c=UK,cn=Alice".into()
            }
        );

        // The project goes dormant: Alice drops out — via the edge
        // index, with no scan.
        dit.modify(&"c=UK,cn=odp-paper".parse().unwrap(), |e| {
            e.replace_attr(Attribute::single("projectstate", "dormant"));
        })
        .unwrap();
        let deltas = apply_changes(&mut reg, &mut dit);
        assert_eq!(deltas.len(), 1);
        assert_eq!(
            deltas[0].1,
            QueryDelta::Removed {
                id: "c=UK,cn=Alice".into()
            }
        );
        assert_eq!(reg.rescans(), 0);
    }

    #[test]
    fn knowledge_subscriptions_follow_applied_pairs_idempotently() {
        let mut reg = SubscriptionRegistry::new();
        let sub = reg
            .subscribe(r#"key prefix "org:" and value matches "*coordinator*""#, 0)
            .unwrap();
        assert!(reg.prime_knowledge(sub, 0).unwrap().is_empty());

        let deltas = apply_pairs(&mut reg, &[("org:cn=A", "role: coordinator")]);
        assert_eq!(
            deltas[0].1,
            QueryDelta::Added {
                id: "org:cn=A".into()
            }
        );
        // Same value again: no delta.
        assert!(apply_pairs(&mut reg, &[("org:cn=A", "role: coordinator")]).is_empty());
        // Value changes but still matches: Changed.
        let deltas = apply_pairs(&mut reg, &[("org:cn=A", "senior coordinator")]);
        assert_eq!(deltas[0].1.kind(), "changed");
        // Stops matching: Removed. Non-prefixed keys are skipped.
        let deltas = apply_pairs(
            &mut reg,
            &[("org:cn=A", "role: member"), ("info:x", "coordinator")],
        );
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].1.kind(), "removed");
    }

    #[test]
    fn unsubscribe_stops_deltas_and_cleans_indexes() {
        let mut dit = base_dit();
        let mut reg = SubscriptionRegistry::new();
        let sub = reg.subscribe("class = person", 0).unwrap();
        reg.prime(sub, &dit, 0).unwrap();
        assert!(reg.unsubscribe(sub));
        assert!(!reg.unsubscribe(sub));
        dit.add(person("c=UK,cn=A", "A A", "A")).unwrap();
        assert!(apply_changes(&mut reg, &mut dit).is_empty());
        assert!(reg.matches(sub).is_none());
    }

    #[test]
    fn incremental_set_equals_oracle_after_every_change() {
        let mut dit = base_dit();
        let mut reg = SubscriptionRegistry::new();
        let sub = reg
            .subscribe(
                r#"class = person and (sn matches "R*" or occupies "cn=chair")"#,
                0,
            )
            .unwrap();
        reg.prime(sub, &dit, 0).unwrap();
        type Step = Box<dyn Fn(&mut Dit)>;
        let steps: Vec<Step> = vec![
            Box::new(|d| d.add(person("c=UK,cn=A", "A A", "Rossi")).unwrap()),
            Box::new(|d| d.add(person("c=UK,cn=B", "B B", "Smith")).unwrap()),
            Box::new(|d| {
                d.add_value(&"c=UK,cn=B".parse().unwrap(), "occupiesrole", "cn=chair")
                    .unwrap();
            }),
            Box::new(|d| {
                d.modify(&"c=UK,cn=A".parse().unwrap(), |e| {
                    e.replace_attr(Attribute::single("sn", "Smith"));
                })
                .unwrap();
            }),
            Box::new(|d| {
                d.remove(&"c=UK,cn=B".parse().unwrap()).unwrap();
            }),
        ];
        for step in steps {
            step(&mut dit);
            apply_changes(&mut reg, &mut dit);
            assert_eq!(
                reg.matches(sub).unwrap(),
                reg.oracle_matches(sub, &dit).unwrap(),
                "incremental result diverged from the re-scan oracle"
            );
        }
        assert_eq!(reg.rescans(), 5, "only the oracle re-scans");
    }

    #[test]
    fn one_apply_feeds_pairs_before_directory_changes() {
        let telemetry = Telemetry::new();
        let mut dit = base_dit();
        let mut reg = SubscriptionRegistry::with_telemetry(telemetry.clone());
        let entries = reg.subscribe("class = person", 0).unwrap();
        reg.prime(entries, &dit, 0).unwrap();
        let knowledge = reg.subscribe(r#"key prefix "org:""#, 0).unwrap();
        reg.prime_knowledge(knowledge, 0).unwrap();
        apply_pairs(&mut reg, &[("org:cn=B", "b")]);
        let seen = telemetry.counter(Layer::Query, "query.change.seen");

        dit.add(person("c=UK,cn=A", "A A", "A")).unwrap();
        let changes = dit.take_changes();
        let pairs = [
            ("org:cn=A".to_owned(), "a".to_owned()),
            ("org:cn=B".to_owned(), "b".to_owned()),
        ];
        let deltas = reg.apply(&pairs, &changes, &dit, 0);
        assert_eq!(
            deltas,
            [
                (
                    knowledge,
                    QueryDelta::Added {
                        id: "org:cn=A".into()
                    }
                ),
                (
                    entries,
                    QueryDelta::Added {
                        id: "c=UK,cn=A".into()
                    }
                ),
            ]
        );
        // The pair equal to the shadow is no change at all.
        assert_eq!(
            telemetry.counter(Layer::Query, "query.change.seen"),
            seen + 2
        );
    }
}
