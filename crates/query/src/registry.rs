//! The incremental subscription engine.
//!
//! A [`SubscriptionRegistry`] holds standing queries and evaluates
//! them *incrementally*. Every change reaches it through one
//! [`apply`](SubscriptionRegistry::apply): replicated-knowledge values
//! the replica reports changed, as borrowed `(key, value)` pairs, then
//! directory mutations as the [`DitChange`]s a recording [`Dit`]
//! logged ([`Dit::take_changes`]). It keeps result sets, never the
//! knowledge itself. Each change touches only the subscriptions whose
//! interest indexes say it could matter:
//!
//! * **attribute index** — entry subscriptions keyed by every
//!   attribute type their query references; a change is routed to the
//!   union over the types it touched ([`DitChange::changed_types`]:
//!   every type of an added or removed entry, the unshared attributes
//!   of a modified one), plus negation-bearing queries, which cannot be
//!   pruned, and queries that currently match the changed entry, which
//!   see every change to it. A query that neither matched the entry nor
//!   references a changed attribute cannot start to match, so an `sn`
//!   rewrite never evaluates a query that only watches `workson`.
//! * **membership** — one table of `entry → its name and the entry
//!   subscriptions whose result set holds it`, one row per member
//!   entry, found through a dense index by the slot of the entry's
//!   [`EntryId`]. It is the only record of entry results: one slot read
//!   per change yields both the interested matchers and whether each
//!   matched the entry before, and a transition updates it in place. A
//!   row whose generation is not the id's reads as "not a member".
//! * **key index** — knowledge subscriptions with a derivable key
//!   prefix skip keys outside it.
//! * **edge index** — a registry-wide reverse map `attr → target value
//!   → referring entry ids`, so when a join target flips (an entry
//!   starts or stops matching a join's inner filter) exactly the
//!   entries whose edge attribute names that target are re-evaluated,
//!   in DN order. A change updates it only for an edge attribute the
//!   two states do not share.
//!
//! State is keyed by identity, not by name: an entry keeps its id
//! through a modify and a rename, so no change searches a DN-keyed map
//! here, and names are read only to sort flip candidates and to write
//! a delta's text. A join-flip candidate is read in the post-batch tree
//! by id; one that a later change of the same batch removes or renames
//! reads as absent, since its name at the flip no longer names it, and
//! that later change settles it.
//!
//! Comparing the incremental evaluation against the current result
//! sets yields [`QueryDelta`]s
//! (`Added`/`Removed`/`Changed`) with **zero re-scans** of the
//! population in steady state. The only full scans are the one-time
//! [`prime`](SubscriptionRegistry::prime) at subscribe time and the
//! explicit [`oracle_matches`](SubscriptionRegistry::oracle_matches)
//! used by equivalence tests — both tracked separately so callers can
//! assert the zero-re-scan property. A change builds DN text only when
//! a join target flips or a delta is emitted, and counters are added
//! once per [`apply`](SubscriptionRegistry::apply).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cscw_directory::{Attribute, AttributeType, Dit, DitChange, Dn, Entry, EntryId};
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
    /// Current result set for knowledge queries (an entry query's set
    /// lives in the registry's membership table).
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
    /// Membership, by entry id slot. The only record of entry results.
    members: Membership,
    /// Edge occurrence index: edge attr → target value → referring
    /// entries.
    edge_occ: BTreeMap<AttributeType, BTreeMap<String, BTreeSet<EntryId>>>,
    /// How many subscriptions reference each indexed edge attribute.
    edge_refs: BTreeMap<AttributeType, usize>,
    /// Reused per change: interested subscription ids, each with
    /// whether it matched the changed DN before the change.
    interest: Vec<(u64, bool)>,
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
            members: Membership::default(),
            edge_occ: BTreeMap::new(),
            edge_refs: BTreeMap::new(),
            interest: Vec::new(),
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

    /// How many full re-scans
    /// ([`oracle_matches`](SubscriptionRegistry::oracle_matches)) have
    /// run — stays `0` under purely incremental operation.
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
        if sub.query.source() == Source::Entries {
            self.members.cancel(id.0);
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
            let mut occ: BTreeMap<String, BTreeSet<EntryId>> = BTreeMap::new();
            for (entry_id, entry) in dit.iter_ids() {
                for value in edge_values(entry.attr(&attr)) {
                    occ.entry(value.to_owned()).or_default().insert(entry_id);
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
                .map(|e| e.dn().text())
                .collect();
        }
        // Initial result set.
        let mut deltas = Vec::new();
        for (entry_id, entry) in dit.iter_ids() {
            if sub.query.eval_entry(entry, &sub.targets) {
                self.members.insert(entry_id, entry.dn(), id.0);
                deltas.push(QueryDelta::Added {
                    id: entry.dn().text(),
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
    /// resolved `knowledge` it is given (a replica snapshot) and
    /// returns the initial `Added` deltas. Later changes to that
    /// knowledge must reach [`apply`](SubscriptionRegistry::apply).
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownSubscription`] for an unknown id.
    pub fn prime_knowledge<'a>(
        &mut self,
        id: SubscriptionId,
        knowledge: impl IntoIterator<Item = (&'a str, &'a str)>,
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
        for (key, value) in knowledge {
            if sub.query.eval_kv(key, value) {
                sub.matched_keys.insert(key.to_owned());
                deltas.push(QueryDelta::Added { id: key.to_owned() });
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
    /// subscription: first the replicated-knowledge `pairs`, each a
    /// key whose resolved value changed to the value given, then the
    /// directory `changes`, oldest first. Returns the emitted deltas in
    /// deterministic (change, subscription id) order. `dit` is the
    /// post-change tree.
    pub fn apply<'a>(
        &mut self,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
        changes: &[DitChange],
        dit: &Dit,
        at: u64,
    ) -> Vec<(SubscriptionId, QueryDelta)> {
        let span = self.telemetry.span_begin(Layer::Query, "query.apply", at);
        let mut out = Vec::new();
        let mut seen = changes.len() as u64;
        let mut evals = 0;
        for (key, value) in pairs {
            seen += 1;
            self.apply_pair(key, value, &mut evals, &mut out);
        }
        let mut batch = Batch {
            changes,
            dit,
            last_removal: None,
        };
        for at in 0..changes.len() {
            self.apply_one_change(&mut batch, at, &mut evals, &mut out);
        }
        let mut kinds = [0; 3];
        for (_, delta) in &out {
            kinds[match delta {
                QueryDelta::Added { .. } => 0,
                QueryDelta::Changed { .. } => 1,
                QueryDelta::Removed { .. } => 2,
            }] += 1;
        }
        for (name, n) in [
            ("query.change.seen", seen),
            ("query.eval.entry", evals),
            ("query.delta.added", kinds[0]),
            ("query.delta.changed", kinds[1]),
            ("query.delta.removed", kinds[2]),
        ] {
            if n > 0 {
                self.telemetry.add(Layer::Query, name, n);
            }
        }
        self.telemetry.span_end(span, at);
        out
    }

    fn apply_one_change(
        &mut self,
        batch: &mut Batch<'_>,
        at: usize,
        evals: &mut u64,
        out: &mut Vec<(SubscriptionId, QueryDelta)>,
    ) {
        let changes = batch.changes;
        let change = &changes[at];
        let (before, after): (Option<&Entry>, Option<&Entry>) = match change {
            DitChange::Added { entry, .. } => (None, Some(entry)),
            DitChange::Modified { before, after, .. } => (Some(before), Some(after)),
            DitChange::Removed { entry, .. } => (Some(entry), None),
        };
        let id = change.id();
        let dn = change.entry().dn();
        self.index_edges(id, before, after);

        // Interested subscriptions: negation queries ∪ the attribute
        // index over the types the change touched ∪ whoever currently
        // matches this entry, which also says who matched it before the
        // change. A non-member none of whose attributes changed cannot
        // start to match.
        let mut interest = std::mem::take(&mut self.interest);
        interest.clear();
        interest.extend(self.wildcard_subs.iter().map(|&sub| (sub, false)));
        for ty in change.changed_types() {
            if let Some(set) = self.attr_index.get(ty.as_str()) {
                interest.extend(set.iter().map(|&sub| (sub, false)));
            }
        }
        if let Some(member) = self.members.get(id) {
            interest.extend(member.subs.iter().map(|&sub| (sub, true)));
        }
        // `(id, false)` sorts before `(id, true)`: keep the first, with
        // the flag of either.
        interest.sort_unstable();
        interest.dedup_by(|next, kept| {
            kept.1 |= next.1 && next.0 == kept.0;
            next.0 == kept.0
        });

        let modified = matches!(change, DitChange::Modified { .. });
        let mut dn_text: Option<String> = None;
        for &(sub_id, was_member) in &interest {
            let Some(sub) = self.subs.get_mut(&sub_id) else {
                continue;
            };
            if !sub.primed {
                continue;
            }
            // Update join target sets; a flipped target re-evaluates
            // exactly the entries whose edge attribute names it.
            let mut referrers: Option<BTreeSet<EntryId>> = None;
            for (j, join) in sub.query.joins.iter().enumerate() {
                let was = before.is_some_and(|e| join.inner.matches(e));
                let now = after.is_some_and(|e| join.inner.matches(e));
                if was == now {
                    continue;
                }
                let text = dn_text.get_or_insert_with(|| dn.text());
                if now {
                    sub.targets[j].insert(text.clone());
                } else {
                    sub.targets[j].remove(text.as_str());
                }
                if let Some(refs) = self
                    .edge_occ
                    .get(&join.attr)
                    .and_then(|occ| occ.get(text.as_str()))
                {
                    referrers
                        .get_or_insert_with(BTreeSet::new)
                        .extend(refs.iter().copied());
                }
            }
            // A flip settles its candidates in DN order, each under its
            // name at this change. One that reads as absent and was no
            // member cannot change state, so it needs no name.
            let named = referrers.map(|mut candidates| {
                candidates.insert(id);
                *evals += candidates.len() as u64;
                let mut named: Vec<(Dn, EntryId, Option<&Entry>)> = candidates
                    .into_iter()
                    .filter_map(|cand| {
                        if cand == id {
                            return Some((dn.clone(), id, after));
                        }
                        match batch.settled(cand, at) {
                            Some(e) => Some((e.dn().clone(), cand, Some(e))),
                            None => self
                                .members
                                .get(cand)
                                .filter(|m| m.subs.binary_search(&sub_id).is_ok())
                                .map(|m| (m.dn.clone(), cand, None)),
                        }
                    })
                    .collect();
                named.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                named
            });
            // The mutated entry is evaluated against its own
            // post-change snapshot so a batch replays in stream order;
            // join-flip candidates read the post-batch tree (later
            // changes to them re-evaluate anyway). Only the mutated
            // entry itself can be "changed": entries re-evaluated via a
            // flipped join target did not change state.
            let mut settle = |cand: EntryId, name: &Dn, state: Option<&Entry>| {
                let (was, changed) = if cand == id {
                    (was_member, modified)
                } else {
                    (self.members.holding(cand, sub_id).is_some(), false)
                };
                let now = state.is_some_and(|e| sub.query.eval_entry(e, &sub.targets));
                let delta = match (was, now) {
                    (false, true) => {
                        self.members.insert(cand, name, sub_id);
                        QueryDelta::Added { id: name.text() }
                    }
                    (true, false) => {
                        self.members.remove(cand, sub_id);
                        QueryDelta::Removed { id: name.text() }
                    }
                    (true, true) if changed => QueryDelta::Changed { id: name.text() },
                    _ => return,
                };
                out.push((SubscriptionId(sub_id), delta));
            };
            match named {
                None => {
                    *evals += 1;
                    settle(id, dn, after);
                }
                Some(named) => {
                    for (name, cand, state) in &named {
                        settle(*cand, name, *state);
                    }
                }
            }
        }
        self.interest = interest;
    }

    /// Keeps the edge occurrence index in step with one changed entry;
    /// an edge attribute both states share costs one comparison, and a
    /// changed one is diffed in place.
    fn index_edges(&mut self, id: EntryId, before: Option<&Entry>, after: Option<&Entry>) {
        for (attr, occ) in &mut self.edge_occ {
            let old = before.and_then(|e| e.attr(attr));
            let new = after.and_then(|e| e.attr(attr));
            // One shared attribute, or none on either side.
            if old.map(std::ptr::from_ref) == new.map(std::ptr::from_ref) {
                continue;
            }
            for gone in edge_values(old).filter(|v| !has_edge(new, v)) {
                if let Some(set) = occ.get_mut(gone) {
                    set.remove(&id);
                    if set.is_empty() {
                        occ.remove(gone);
                    }
                }
            }
            for fresh in edge_values(new).filter(|v| !has_edge(old, v)) {
                match occ.get_mut(fresh) {
                    Some(set) => {
                        set.insert(id);
                    }
                    None => {
                        occ.insert(fresh.to_owned(), BTreeSet::from([id]));
                    }
                }
            }
        }
    }

    /// Feeds one changed pair through the knowledge subscriptions.
    fn apply_pair(
        &mut self,
        key: &str,
        value: &str,
        evals: &mut u64,
        out: &mut Vec<(SubscriptionId, QueryDelta)>,
    ) {
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
            *evals += 1;
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
            Source::Entries => self
                .members
                .rows()
                .filter(|m| m.subs.binary_search(&id.0).is_ok())
                .map(|m| m.dn.text())
                .collect(),
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
    /// `knowledge` they are given (each source is unused by the other
    /// kind).
    pub fn oracle_matches<'a>(
        &mut self,
        id: SubscriptionId,
        dit: &Dit,
        knowledge: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Option<BTreeSet<String>> {
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
                            .map(|e| e.dn().text())
                            .collect()
                    })
                    .collect();
                dit.iter()
                    .filter(|e| sub.query.eval_entry(e, &targets))
                    .map(|e| e.dn().text())
                    .collect()
            }
            Source::Knowledge => knowledge
                .into_iter()
                .filter(|(k, v)| sub.query.eval_kv(k, v))
                .map(|(k, _)| k.to_owned())
                .collect(),
        })
    }
}

/// Text values of an edge attribute.
fn edge_values(attr: Option<&Attribute>) -> impl Iterator<Item = &str> {
    attr.into_iter()
        .flat_map(|a| a.values())
        .filter_map(|v| v.as_text())
}

/// Whether an edge attribute holds the text value `value`.
fn has_edge(attr: Option<&Attribute>, value: &str) -> bool {
    edge_values(attr).any(|v| v == value)
}

/// One row of the membership table: an entry that is in at least one
/// entry subscription's result set.
#[derive(Debug)]
struct Member {
    /// The entry.
    id: EntryId,
    /// The entry's name as of the last change applied.
    dn: Dn,
    /// The subscriptions whose result set holds the entry, sorted
    /// ascending; never empty.
    subs: Vec<u64>,
}

/// Entry results: one row per member entry, found through a dense
/// index by entry id slot.
#[derive(Debug, Default)]
struct Membership {
    /// Per entry id slot: one more than the index of its row in
    /// `rows`, or 0 when the slot has none.
    index: Vec<u32>,
    /// The rows, in no meaningful order.
    rows: Vec<Member>,
}

impl Membership {
    /// The position in `rows` of the row at `id`'s slot, if it has
    /// one (which may belong to another generation).
    fn row_at(&self, id: EntryId) -> Option<usize> {
        let row = self.index.get(id.slot())?.checked_sub(1)?;
        Some(row as usize)
    }

    /// The row of `id`; `None` when it is in no result set, or when
    /// the slot's row belongs to another generation.
    fn get(&self, id: EntryId) -> Option<&Member> {
        self.rows.get(self.row_at(id)?).filter(|m| m.id == id)
    }

    /// The row of `id` if subscription `sub`'s result set holds it.
    fn holding(&self, id: EntryId, sub: u64) -> Option<&Member> {
        self.get(id).filter(|m| m.subs.binary_search(&sub).is_ok())
    }

    /// Every row, in no meaningful order.
    fn rows(&self) -> impl Iterator<Item = &Member> {
        self.rows.iter()
    }

    /// Records that `id`, named `dn`, entered `sub`'s result set.
    fn insert(&mut self, id: EntryId, dn: &Dn, sub: u64) {
        let fresh = || Member {
            id,
            dn: dn.clone(),
            subs: vec![sub],
        };
        match self.row_at(id).and_then(|r| self.rows.get_mut(r)) {
            Some(m) if m.id == id => {
                if let Err(i) = m.subs.binary_search(&sub) {
                    m.subs.insert(i, sub);
                }
            }
            // A row left by an earlier holder of the slot.
            Some(m) => *m = fresh(),
            None => {
                let slot = id.slot();
                if self.index.len() <= slot {
                    self.index.resize(slot + 1, 0);
                }
                self.index[slot] = row_index(self.rows.len());
                self.rows.push(fresh());
            }
        }
    }

    /// Records that `id` left `sub`'s result set.
    fn remove(&mut self, id: EntryId, sub: u64) {
        let Some(r) = self.row_at(id) else {
            return;
        };
        let Some(m) = self.rows.get_mut(r).filter(|m| m.id == id) else {
            return;
        };
        if let Ok(i) = m.subs.binary_search(&sub) {
            m.subs.remove(i);
        }
        if m.subs.is_empty() {
            let gone = self.rows.swap_remove(r);
            self.index[gone.id.slot()] = 0;
            if let Some(moved) = self.rows.get(r) {
                self.index[moved.id.slot()] = row_index(r);
            }
        }
    }

    /// Drops a cancelled subscription from every row.
    fn cancel(&mut self, sub: u64) {
        for m in &mut self.rows {
            if let Ok(i) = m.subs.binary_search(&sub) {
                m.subs.remove(i);
            }
        }
        self.rows.retain(|m| !m.subs.is_empty());
        self.index.fill(0);
        for (r, m) in self.rows.iter().enumerate() {
            self.index[m.id.slot()] = row_index(r);
        }
    }
}

/// The membership index entry of row `r`. A table never holds 2^32
/// rows: it has one per live entry.
fn row_index(r: usize) -> u32 {
    u32::try_from(r + 1).unwrap_or(u32::MAX)
}

/// The directory changes one [`apply`](SubscriptionRegistry::apply)
/// feeds, with the tree they leave.
struct Batch<'a> {
    changes: &'a [DitChange],
    dit: &'a Dit,
    /// Per id, the index of its last removal in `changes`; built at the
    /// first join flip that needs it.
    last_removal: Option<BTreeMap<EntryId, usize>>,
}

impl<'a> Batch<'a> {
    /// The post-batch state of join-flip candidate `id`, read at change
    /// `at`: `None` when it is gone, or when a later change in the
    /// batch removes or renames it, since its name at `at` no longer
    /// names it after the batch.
    fn settled(&mut self, id: EntryId, at: usize) -> Option<&'a Entry> {
        if at + 1 < self.changes.len() {
            let changes = self.changes;
            let last = self.last_removal.get_or_insert_with(|| {
                changes
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| matches!(c, DitChange::Removed { .. }))
                    .map(|(i, c)| (c.id(), i))
                    .collect()
            });
            if last.get(&id).is_some_and(|&i| i > at) {
                return None;
            }
        }
        self.dit.entry(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        reg.apply([], &changes, dit, 0)
    }

    fn apply_pairs(
        reg: &mut SubscriptionRegistry,
        pairs: &[(&str, &str)],
    ) -> Vec<(SubscriptionId, QueryDelta)> {
        reg.apply(pairs.iter().copied(), &[], &Dit::new(), 0)
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
    fn a_change_to_an_unwatched_attribute_reaches_members_and_negations_only() {
        let telemetry = Telemetry::new();
        let mut dit = base_dit();
        let (a, b): (Dn, Dn) = ("c=UK,cn=A".parse().unwrap(), "c=UK,cn=B".parse().unwrap());
        dit.add(person("c=UK,cn=A", "A A", "Rodden")).unwrap();
        dit.add(person("c=UK,cn=B", "B B", "Prinz")).unwrap();
        dit.take_changes();
        let mut reg = SubscriptionRegistry::with_telemetry(telemetry.clone());
        let rodden = reg
            .subscribe(r#"class = person and sn = "Rodden""#, 0)
            .unwrap();
        reg.prime(rodden, &dit, 0).unwrap();
        let evals = || telemetry.counter(Layer::Query, "query.eval.entry");

        // No query names `mail`: B, a non-member, is not evaluated.
        let start = evals();
        dit.add_value(&b, "mail", "b@uk").unwrap();
        assert!(apply_changes(&mut reg, &mut dit).is_empty());
        assert_eq!(
            evals(),
            start,
            "a non-member's unwatched change evaluates nothing"
        );

        // A, a member, is evaluated and reported changed.
        dit.add_value(&a, "mail", "a@uk").unwrap();
        assert_eq!(
            apply_changes(&mut reg, &mut dit),
            [(
                rodden,
                QueryDelta::Changed {
                    id: "c=UK,cn=A".into()
                }
            )]
        );
        assert_eq!(evals(), start + 1);

        // A negation query sees a change to an attribute it does not
        // name; the attribute query still skips the non-member.
        let unmailed = reg
            .subscribe("class = person and not mail present", 0)
            .unwrap();
        assert!(reg.prime(unmailed, &dit, 0).unwrap().is_empty());
        let start = evals();
        dit.add_value(&b, "title", "lecturer").unwrap();
        assert!(apply_changes(&mut reg, &mut dit).is_empty());
        assert_eq!(evals(), start + 1, "only the negation query evaluates");
        assert_eq!(reg.rescans(), 0);
    }

    #[test]
    fn knowledge_subscriptions_follow_changed_pairs() {
        let mut reg = SubscriptionRegistry::new();
        let sub = reg
            .subscribe(r#"key prefix "org:" and value matches "*coordinator*""#, 0)
            .unwrap();
        // Priming reads the knowledge it is given.
        let primed = reg
            .prime_knowledge(
                sub,
                [("org:cn=B", "coordinator"), ("info:x", "coordinator")],
                0,
            )
            .unwrap();
        assert_eq!(
            primed,
            [QueryDelta::Added {
                id: "org:cn=B".into()
            }]
        );

        let deltas = apply_pairs(&mut reg, &[("org:cn=A", "role: coordinator")]);
        assert_eq!(
            deltas[0].1,
            QueryDelta::Added {
                id: "org:cn=A".into()
            }
        );
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
        assert_eq!(
            reg.matches(sub).unwrap(),
            BTreeSet::from(["org:cn=B".to_owned()])
        );
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
                reg.oracle_matches(sub, &dit, []).unwrap(),
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
        reg.prime_knowledge(knowledge, [("org:cn=B", "b")], 0)
            .unwrap();
        let seen = telemetry.counter(Layer::Query, "query.change.seen");

        dit.add(person("c=UK,cn=A", "A A", "A")).unwrap();
        let changes = dit.take_changes();
        let deltas = reg.apply([("org:cn=A", "a")], &changes, &dit, 0);
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
        // Every pair is a change: one pair and one DIT change seen.
        assert_eq!(
            telemetry.counter(Layer::Query, "query.change.seen"),
            seen + 2
        );
    }

    /// Seeded operations for the equivalence property below.
    mod stream {
        use cscw_directory::{Attribute, Dit, Dn, Entry};
        use cscw_kernel::SeededRng;

        pub const PEOPLE: u64 = 16;
        pub const PROJECTS: u64 = 2;
        const SURNAMES: [&str; 3] = ["Rodden", "Prinz", "Navarro"];

        pub fn person_dn(i: u64) -> Dn {
            format!("c=UK,cn=p{i}").parse().unwrap()
        }

        pub fn project_dn(j: u64) -> Dn {
            format!("c=UK,cn=proj{j}").parse().unwrap()
        }

        fn person(rng: &mut SeededRng, dn: Dn) -> Entry {
            let sn = SURNAMES[rng.below(SURNAMES.len() as u64) as usize];
            let mut e = Entry::new(dn)
                .with_class("person")
                .with_attr(Attribute::single("cn", "someone"))
                .with_attr(Attribute::single("sn", sn));
            if rng.chance(0.5) {
                e.put_attr(Attribute::single("mail", "x@example.org"));
            }
            // Most people work on project 0, so its flips have many
            // referrers.
            if rng.chance(0.8) {
                let j = if rng.chance(0.75) {
                    0
                } else {
                    rng.below(PROJECTS)
                };
                e.put_attr(Attribute::single("workson", project_dn(j).to_string()));
            }
            if rng.chance(0.3) {
                e.put_attr(Attribute::single("occupiesrole", "cn=chair"));
            }
            e
        }

        /// A recording DIT with the country, the projects (project 0
        /// works on itself) and half the people, its log taken.
        pub fn seed(rng: &mut SeededRng) -> Dit {
            let mut dit = Dit::new();
            dit.record_changes();
            dit.add(
                Entry::new("c=UK".parse().unwrap())
                    .with_class("country")
                    .with_attr(Attribute::single("c", "UK")),
            )
            .unwrap();
            for j in 0..PROJECTS {
                let mut e = Entry::new(project_dn(j))
                    .with_class("cscwproject")
                    .with_attr(Attribute::single("cn", format!("proj{j}")))
                    .with_attr(Attribute::single("projectstate", "dormant"));
                if j == 0 {
                    e.put_attr(Attribute::single("workson", project_dn(0).to_string()));
                }
                dit.add(e).unwrap();
            }
            for i in (0..PEOPLE).step_by(2) {
                let e = person(rng, person_dn(i));
                dit.add(e).unwrap();
            }
            dit.take_changes();
            dit
        }

        /// One random mutation of person `who` or of a project: add,
        /// modify, remove or rename. Mutations that do not apply are
        /// skipped.
        pub fn op(rng: &mut SeededRng, dit: &mut Dit, who: u64) {
            let dn = person_dn(who);
            let present = dit.get(&dn).is_some();
            match rng.below(8) {
                0 if !present => {
                    let e = person(rng, dn);
                    dit.add(e).unwrap();
                }
                1 if present => {
                    dit.remove(&dn).unwrap();
                }
                2 if present => {
                    let to = person_dn(rng.below(PEOPLE));
                    if dit.get(&to).is_none() {
                        dit.rename(&dn, to).unwrap();
                    }
                }
                3 if present => {
                    let sn = SURNAMES[rng.below(SURNAMES.len() as u64) as usize];
                    dit.modify(&dn, |e| e.replace_attr(Attribute::single("sn", sn)))
                        .unwrap();
                }
                4 if present => {
                    let mail = rng.chance(0.5);
                    dit.modify(&dn, |e| {
                        if mail {
                            e.put_attr(Attribute::single("mail", "x@example.org"));
                        } else {
                            e.remove_attr(&"mail".into());
                        }
                    })
                    .unwrap();
                }
                5 if present => {
                    let target = project_dn(rng.below(PROJECTS)).to_string();
                    let drop = rng.chance(0.2);
                    dit.modify(&dn, |e| {
                        if drop {
                            e.remove_attr(&"workson".into());
                        } else {
                            e.replace_attr(Attribute::single("workson", target));
                        }
                    })
                    .unwrap();
                }
                // Flip a join target: project state active <-> dormant.
                6 | 7 => {
                    let project = project_dn(rng.below(PROJECTS));
                    let active = dit.get(&project).and_then(|e| e.first_text("projectstate"))
                        == Some("active");
                    let state = if active { "dormant" } else { "active" };
                    dit.modify(&project, |e| {
                        e.replace_attr(Attribute::single("projectstate", state));
                    })
                    .unwrap();
                }
                _ => {}
            }
        }
    }

    /// Whether any interest or membership index still names `id`.
    fn indexes_name(reg: &SubscriptionRegistry, id: u64) -> bool {
        reg.attr_index.values().any(|set| set.contains(&id))
            || reg.wildcard_subs.contains(&id)
            || reg.knowledge_subs.contains(&id)
            || reg.members.rows().any(|m| m.subs.contains(&id))
    }

    #[test]
    fn incremental_registry_matches_its_oracle_on_seeded_batches() {
        use cscw_kernel::SeededRng;
        use std::collections::BTreeMap;

        const QUERIES: [&str; 5] = [
            r#"class = person and sn = "Rodden""#,
            r#"class = person and not mail present"#,
            r#"works-on (projectstate = active)"#,
            r#"class = person and not works-on (projectstate = active)"#,
            r#"occupies "cn=chair" or sn matches "P*""#,
        ];
        const BATCHES: u64 = 60;
        for seed in 1..=40u64 {
            let mut rng = SeededRng::seed_from(seed);
            let mut dit = stream::seed(&mut rng);
            let mut reg = SubscriptionRegistry::new();
            let mut live: BTreeMap<SubscriptionId, BTreeSet<String>> = BTreeMap::new();
            let subscribe = |reg: &mut SubscriptionRegistry, dit: &Dit, src: &str| {
                let id = reg.subscribe(src, 0).unwrap();
                let initial = reg.prime(id, dit, 0).unwrap();
                let set: BTreeSet<String> = initial.iter().map(|d| d.id().to_owned()).collect();
                assert_eq!(set.len(), initial.len(), "priming repeats a member");
                (id, set)
            };
            for src in QUERIES {
                let (id, set) = subscribe(&mut reg, &dit, src);
                live.insert(id, set);
            }
            let knowledge = reg
                .subscribe(r#"from knowledge key prefix "org:""#, 0)
                .unwrap();
            reg.prime_knowledge(knowledge, [], 0).unwrap();
            let mut known: BTreeSet<String> = BTreeSet::new();
            // Stands in for the replica: current values, and the
            // judge of which written pairs are changes.
            let mut replica: BTreeMap<String, String> = BTreeMap::new();

            for batch in 0..BATCHES {
                if batch == BATCHES / 2 {
                    // Cancel one query mid-stream, then subscribe it
                    // afresh under a new id.
                    let victim = *live
                        .keys()
                        .nth(rng.below(live.len() as u64) as usize)
                        .unwrap();
                    let src = reg.query_src(victim).unwrap().to_owned();
                    assert!(reg.unsubscribe(victim));
                    live.remove(&victim);
                    assert!(
                        !indexes_name(&reg, victim.value()),
                        "seed {seed}: an index still names cancelled {victim}"
                    );
                    let (id, set) = subscribe(&mut reg, &dit, &src);
                    live.insert(id, set);
                }
                // Several changes per batch, often to one DN.
                let focus = rng.below(stream::PEOPLE);
                for _ in 0..=rng.below(4) {
                    let who = if rng.chance(0.5) {
                        focus
                    } else {
                        rng.below(stream::PEOPLE)
                    };
                    stream::op(&mut rng, &mut dit, who);
                }
                let written: Vec<(String, String)> = (0..rng.below(3))
                    .map(|_| {
                        let key = format!("org:{}", rng.below(4));
                        (key, format!("v{}", rng.below(2)))
                    })
                    .filter(|(key, value)| {
                        replica.insert(key.clone(), value.clone()).as_ref() != Some(value)
                    })
                    .collect();
                let pairs = written.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                let changes = dit.take_changes();
                let modified: BTreeSet<String> = changes
                    .iter()
                    .filter(|c| matches!(c, DitChange::Modified { .. }))
                    .map(|c| c.entry().dn().to_string())
                    .collect();
                let deltas = reg.apply(pairs, &changes, &dit, batch);
                for (id, delta) in &deltas {
                    let set = if *id == knowledge {
                        &mut known
                    } else {
                        live.get_mut(id).expect("a delta for a live query")
                    };
                    let member = delta.id().to_owned();
                    match delta {
                        QueryDelta::Added { .. } => {
                            assert!(set.insert(member), "seed {seed}: {delta} twice");
                        }
                        QueryDelta::Removed { .. } => {
                            assert!(set.remove(&member), "seed {seed}: {delta} of a non-member");
                        }
                        QueryDelta::Changed { .. } => {
                            assert!(
                                set.contains(&member),
                                "seed {seed}: {delta} of a non-member"
                            );
                            assert!(
                                *id == knowledge || modified.contains(&member),
                                "seed {seed}: {delta} for an entry no change modified"
                            );
                        }
                    }
                }
                for (id, set) in &live {
                    assert_eq!(
                        reg.matches(*id).as_ref(),
                        Some(set),
                        "seed {seed} batch {batch}: deltas do not sum to the result set of {id}"
                    );
                    assert_eq!(
                        reg.oracle_matches(*id, &dit, []).as_ref(),
                        Some(set),
                        "seed {seed} batch {batch}: {id} diverged from the re-scan oracle"
                    );
                }
                assert_eq!(reg.matches(knowledge).as_ref(), Some(&known));
                let current = replica.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                assert_eq!(
                    reg.oracle_matches(knowledge, &dit, current).as_ref(),
                    Some(&known)
                );
            }
        }
    }
}
