//! Distributed directory: DSAs and DUAs over the simulated network.
//!
//! The directory is partitioned into **naming contexts** (subtrees), each
//! mastered by one Directory System Agent ([`DsaNode`]). A DSA that does
//! not hold the target context either **chains** the request to the DSA
//! that does (default), or returns a **referral** for the client to
//! follow, mirroring the X.500 distributed operation modes.
//!
//! Subtree searches whose base dominates contexts held elsewhere are
//! chained to every subordinate DSA and the partial results merged —
//! a simplified form of X.518 distributed search.
//!
//! Masters push **shadow updates** to replica DSAs on every successful
//! write (primary-copy replication); shadows answer reads locally and
//! reject writes with [`DirectoryError::NotMaster`].
//!
//! The [`Dua`] (Directory User Agent) is the synchronous client facade:
//! it injects a request into the simulation, drives it to completion and
//! returns the outcome.

use std::collections::BTreeMap;
use std::fmt;

use cscw_kernel::Layer;
use simnet::{Message, Node, NodeCtx, NodeId, Payload, Sim};

use crate::attribute::{Attribute, AttributeType, AttributeValue};
use crate::dit::Dit;
use crate::entry::Entry;
use crate::error::DirectoryError;
use crate::name::Dn;
use crate::search::{SearchOutcome, SearchRequest};

/// Maximum chaining depth before a request is refused (loop guard).
pub const MAX_HOPS: u8 = 8;

/// Counts and records a directory event in the simulation's telemetry
/// stream, tagged [`Layer::Directory`].
fn emit_directory(ctx: &NodeCtx<'_>, name: &'static str, detail: impl fmt::Display) {
    let t = ctx.telemetry();
    t.incr(Layer::Directory, name);
    t.emit(ctx.now_micros(), Layer::Directory, name, detail);
}

/// A network-transferable entry modification (closures cannot cross the
/// simulated wire).
#[derive(Debug, Clone, PartialEq)]
pub enum Modification {
    /// Add/merge an attribute.
    Put(Attribute),
    /// Replace an attribute wholesale.
    Replace(Attribute),
    /// Remove an attribute entirely.
    RemoveAttr(AttributeType),
    /// Remove one value (attribute dropped when emptied).
    RemoveValue(AttributeType, AttributeValue),
}

impl Modification {
    /// Applies the modification to an entry.
    pub fn apply(&self, entry: &mut Entry) {
        match self {
            Modification::Put(a) => entry.put_attr(a.clone()),
            Modification::Replace(a) => entry.replace_attr(a.clone()),
            Modification::RemoveAttr(ty) => {
                entry.remove_attr(ty);
            }
            Modification::RemoveValue(ty, v) => {
                entry.remove_value(ty, v);
            }
        }
    }
}

/// A directory operation.
#[derive(Debug, Clone, PartialEq)]
pub enum DirOp {
    /// Add an entry.
    Add(Entry),
    /// Remove a leaf entry.
    Remove(Dn),
    /// Apply modifications to an entry.
    Modify(Dn, Vec<Modification>),
    /// Rename a leaf entry to a new name within the same naming context.
    Rename(Dn, Dn),
    /// Read one entry.
    Read(Dn),
    /// Search.
    Search(SearchRequest),
}

impl DirOp {
    /// The name that decides which naming context must execute the op.
    pub fn target(&self) -> &Dn {
        match self {
            DirOp::Add(e) => e.dn(),
            DirOp::Remove(dn) | DirOp::Modify(dn, _) | DirOp::Read(dn) | DirOp::Rename(dn, _) => dn,
            DirOp::Search(req) => &req.base,
        }
    }

    /// True for operations that change directory state.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            DirOp::Add(_) | DirOp::Remove(_) | DirOp::Modify(..) | DirOp::Rename(..)
        )
    }
}

/// A successful operation result.
#[derive(Debug, Clone, PartialEq)]
pub enum DirResult {
    /// Write completed.
    Done,
    /// The entry read.
    Entry(Entry),
    /// Search results.
    Search(SearchOutcome),
}

/// The DSA/DUA wire protocol.
#[derive(Debug)]
pub enum DapMessage {
    /// An operation travelling toward the responsible DSA.
    Request {
        /// Correlates responses with requests.
        req_id: u64,
        /// Node to send the final response to.
        origin: NodeId,
        /// The operation.
        op: DirOp,
        /// Chain-hop counter (loop guard).
        hops: u8,
    },
    /// The final answer for `req_id`.
    Response {
        /// Correlates with the request.
        req_id: u64,
        /// Outcome.
        result: Result<DirResult, DirectoryError>,
    },
    /// A referral: re-send the request to `target`.
    Referral {
        /// Correlates with the request.
        req_id: u64,
        /// The DSA believed to hold the context.
        target: NodeId,
        /// The original operation, returned for re-submission.
        op: DirOp,
    },
    /// Primary-copy replication push (master → shadow).
    ShadowUpdate {
        /// The write to replay.
        op: DirOp,
    },
    /// Internal: a merged piece of a distributed subtree search.
    PartialSearch {
        /// Correlates with the aggregation.
        agg_id: u64,
        /// Partial result from one subordinate DSA.
        result: Result<SearchOutcome, DirectoryError>,
    },
}

/// How a DSA handles requests for contexts it does not hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InteractionMode {
    /// Forward the request itself (X.518 chaining).
    #[default]
    Chaining,
    /// Tell the client where to go (X.518 referral).
    Referral,
}

/// State for an in-progress distributed subtree search.
#[derive(Debug)]
struct Aggregation {
    /// Id used on sub-requests; partial responses match on this.
    agg_id: u64,
    /// The original client request id to answer.
    orig_req_id: u64,
    origin: NodeId,
    merged: SearchOutcome,
    outstanding: usize,
    failed: Option<DirectoryError>,
}

/// A Directory System Agent bound to one simulated node.
#[derive(Debug)]
pub struct DsaNode {
    dit: Dit,
    /// Context prefixes this DSA masters.
    contexts: Vec<Dn>,
    /// Context prefixes this DSA shadows (read-only copies).
    shadowed: Vec<Dn>,
    /// Knowledge of remote contexts: prefix → responsible DSA.
    knowledge: BTreeMap<Dn, NodeId>,
    /// Replica DSAs to push writes to.
    shadows: Vec<NodeId>,
    mode: InteractionMode,
    next_agg: u64,
    aggregations: Vec<Aggregation>,
}

impl DsaNode {
    /// Creates a DSA mastering the given naming contexts.
    pub fn new(contexts: impl IntoIterator<Item = Dn>) -> Self {
        DsaNode {
            dit: Dit::new(),
            contexts: contexts.into_iter().collect(),
            shadowed: Vec::new(),
            knowledge: BTreeMap::new(),
            shadows: Vec::new(),
            mode: InteractionMode::Chaining,
            next_agg: 0,
            aggregations: Vec::new(),
        }
    }

    /// Switches between chaining and referral handling.
    #[must_use]
    pub fn with_mode(mut self, mode: InteractionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Registers knowledge that `prefix` is mastered at `dsa`.
    pub fn add_knowledge(&mut self, prefix: Dn, dsa: NodeId) {
        self.knowledge.insert(prefix, dsa);
    }

    /// Registers a shadow replica to push writes to.
    pub fn add_shadow(&mut self, shadow: NodeId) {
        self.shadows.push(shadow);
    }

    /// Marks `prefix` as shadowed here (read-only copy of a remote
    /// master's context).
    pub fn add_shadowed_context(&mut self, prefix: Dn) {
        self.shadowed.push(prefix);
    }

    /// Direct access to the local DIT (tests, bootstrap).
    pub fn dit(&self) -> &Dit {
        &self.dit
    }

    /// Mutable access to the local DIT for out-of-band bootstrap.
    pub fn dit_mut(&mut self) -> &mut Dit {
        &mut self.dit
    }

    fn masters(&self, dn: &Dn) -> bool {
        self.contexts.iter().any(|c| c.is_prefix_of(dn))
    }

    fn holds_copy(&self, dn: &Dn) -> bool {
        self.masters(dn) || self.shadowed.iter().any(|c| c.is_prefix_of(dn))
    }

    /// The remote DSA responsible for `dn`, by longest-prefix knowledge.
    fn route(&self, dn: &Dn) -> Option<NodeId> {
        self.knowledge
            .iter()
            .filter(|(prefix, _)| prefix.is_prefix_of(dn))
            .max_by_key(|(prefix, _)| prefix.depth())
            .map(|(_, &node)| node)
    }

    /// Subordinate DSAs whose contexts fall strictly under `base`.
    fn subordinates(&self, base: &Dn) -> Vec<(Dn, NodeId)> {
        self.knowledge
            .iter()
            .filter(|(prefix, _)| base.is_prefix_of(prefix) || base.is_root())
            .map(|(p, &n)| (p.clone(), n))
            .collect()
    }

    fn execute_local(&mut self, op: DirOp) -> Result<DirResult, DirectoryError> {
        match op {
            DirOp::Add(entry) => {
                self.dit.add(entry)?;
                Ok(DirResult::Done)
            }
            DirOp::Remove(dn) => {
                self.dit.remove(&dn)?;
                Ok(DirResult::Done)
            }
            DirOp::Modify(dn, mods) => {
                self.dit.modify(&dn, |e| {
                    for m in &mods {
                        m.apply(e);
                    }
                })?;
                Ok(DirResult::Done)
            }
            DirOp::Rename(from, to) => {
                // Renames may not cross naming contexts: the target must
                // stay under a context this DSA masters.
                if !self.masters(&to) {
                    return Err(DirectoryError::NoSuchContext(to));
                }
                self.dit.rename(&from, to)?;
                Ok(DirResult::Done)
            }
            DirOp::Read(dn) => Ok(DirResult::Entry(self.dit.read(&dn)?.clone())),
            DirOp::Search(req) => Ok(DirResult::Search(self.dit.search(&req)?)),
        }
    }

    fn respond(
        ctx: &mut NodeCtx<'_>,
        origin: NodeId,
        req_id: u64,
        result: Result<DirResult, DirectoryError>,
    ) {
        emit_directory(
            ctx,
            "dsa.respond",
            format_args!(
                "req {req_id}: {}",
                if result.is_ok() { "ok" } else { "error" }
            ),
        );
        ctx.send(
            origin,
            Payload::new(DapMessage::Response { req_id, result }),
        );
    }

    fn push_shadow_update(&self, ctx: &mut NodeCtx<'_>, op: &DirOp) {
        for &shadow in &self.shadows {
            emit_directory(ctx, "dsa.shadow_push", format_args!("to {shadow:?}"));
            ctx.send(
                shadow,
                Payload::new(DapMessage::ShadowUpdate { op: op.clone() }),
            );
        }
    }

    fn handle_request(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        req_id: u64,
        origin: NodeId,
        op: DirOp,
        hops: u8,
    ) {
        let target = op.target().clone();

        if op.is_write() {
            if self.masters(&target) {
                // The write moves into the DIT; only a DSA with shadows
                // to push to keeps a copy of it.
                let push = (!self.shadows.is_empty()).then(|| op.clone());
                let result = self.execute_local(op);
                if let (Ok(_), Some(op)) = (&result, push) {
                    self.push_shadow_update(ctx, &op);
                }
                Self::respond(ctx, origin, req_id, result);
                return;
            }
            if self.holds_copy(&target) {
                // A shadow must not accept writes.
                Self::respond(ctx, origin, req_id, Err(DirectoryError::NotMaster(target)));
                return;
            }
        } else if self.holds_copy(&target) {
            // Distributed subtree search: merge in subordinate contexts.
            if let DirOp::Search(req) = &op {
                if req.scope == crate::search::SearchScope::Subtree {
                    let subs = self.subordinates(&req.base);
                    if !subs.is_empty() {
                        self.start_aggregation(ctx, req_id, origin, req.clone(), subs);
                        return;
                    }
                }
            }
            let result = self.execute_local(op);
            Self::respond(ctx, origin, req_id, result);
            return;
        }

        // Not ours: route onward.
        let Some(next) = self.route(&target) else {
            Self::respond(
                ctx,
                origin,
                req_id,
                Err(DirectoryError::NoSuchContext(target)),
            );
            return;
        };
        match self.mode {
            InteractionMode::Chaining => {
                if hops >= MAX_HOPS {
                    Self::respond(
                        ctx,
                        origin,
                        req_id,
                        Err(DirectoryError::Unavailable(
                            "chaining hop limit reached".into(),
                        )),
                    );
                    return;
                }
                emit_directory(ctx, "dsa.chain", format_args!("req {req_id} to {next:?}"));
                ctx.send(
                    next,
                    Payload::new(DapMessage::Request {
                        req_id,
                        origin,
                        op,
                        hops: hops + 1,
                    }),
                );
            }
            InteractionMode::Referral => {
                ctx.telemetry().incr(Layer::Directory, "dir.dsa.referral");
                ctx.send(
                    origin,
                    Payload::new(DapMessage::Referral {
                        req_id,
                        target: next,
                        op,
                    }),
                );
            }
        }
    }

    fn start_aggregation(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        req_id: u64,
        origin: NodeId,
        req: SearchRequest,
        subs: Vec<(Dn, NodeId)>,
    ) {
        let local = self.dit.search(&req);
        let mut merged = match local {
            Ok(out) => out,
            Err(e) => {
                Self::respond(ctx, origin, req_id, Err(e));
                return;
            }
        };
        // Dedup guard: a subordinate may shadow entries we also hold.
        let agg_id = self.next_agg;
        self.next_agg += 1;
        let me = ctx.id();
        let mut outstanding = 0;
        for (prefix, node) in subs {
            if node == me {
                continue;
            }
            let sub_req = SearchRequest {
                base: prefix,
                scope: crate::search::SearchScope::Subtree,
                filter: req.filter.clone(),
                size_limit: req.size_limit,
            };
            ctx.telemetry().incr(Layer::Directory, "dir.dsa.subsearch");
            ctx.send(
                node,
                Payload::new(DapMessage::Request {
                    req_id: agg_id,
                    origin: me,
                    op: DirOp::Search(sub_req),
                    hops: 0,
                }),
            );
            outstanding += 1;
        }
        if outstanding == 0 {
            Self::respond(ctx, origin, req_id, Ok(DirResult::Search(merged)));
            return;
        }
        merged.entries.sort_by(|a, b| a.dn().cmp(b.dn()));
        self.aggregations.push(Aggregation {
            agg_id,
            orig_req_id: req_id,
            origin,
            merged,
            outstanding,
            failed: None,
        });
    }

    fn handle_partial(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        agg_id: u64,
        result: Result<SearchOutcome, DirectoryError>,
    ) {
        let Some(pos) = self.aggregations.iter().position(|a| a.agg_id == agg_id) else {
            return;
        };
        let finished = {
            let agg = &mut self.aggregations[pos];
            match result {
                Ok(out) => {
                    for e in out.entries {
                        if !agg.merged.entries.iter().any(|x| x.dn() == e.dn()) {
                            agg.merged.entries.push(e);
                        }
                    }
                    agg.merged.truncated |= out.truncated;
                }
                Err(e) => {
                    agg.failed.get_or_insert(e);
                }
            }
            agg.outstanding -= 1;
            agg.outstanding == 0
        };
        if finished {
            let agg = self.aggregations.remove(pos);
            let mut merged = agg.merged;
            merged.entries.sort_by(|a, b| a.dn().cmp(b.dn()));
            let result = match agg.failed {
                Some(e) => Err(e),
                None => Ok(DirResult::Search(merged)),
            };
            Self::respond(ctx, agg.origin, agg.orig_req_id, result);
        }
    }
}

impl Node for DsaNode {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        let dap = match msg.payload.downcast::<DapMessage>() {
            Ok(dap) => dap,
            Err(_) => return, // not ours; ignore foreign traffic
        };
        match dap {
            DapMessage::Request {
                req_id,
                origin,
                op,
                hops,
            } => {
                emit_directory(
                    ctx,
                    "dsa.request",
                    format_args!("req {req_id} for {}", op.target()),
                );
                // Detect sub-search responses bound for an aggregation:
                // they come back as Response to *us*, not Request.
                self.handle_request(ctx, req_id, origin, op, hops);
            }
            DapMessage::Response { req_id, result } => {
                // A response addressed to a DSA is a sub-search partial.
                let partial = result.map(|r| match r {
                    DirResult::Search(out) => out,
                    _ => SearchOutcome::default(),
                });
                self.handle_partial(ctx, req_id, partial);
            }
            DapMessage::ShadowUpdate { op } => {
                ctx.telemetry()
                    .incr(Layer::Directory, "dir.dsa.shadow_apply");
                if self.execute_local(op).is_err() {
                    ctx.telemetry()
                        .incr(Layer::Directory, "dir.dsa.shadow_conflict");
                }
            }
            DapMessage::Referral { .. } | DapMessage::PartialSearch { .. } => {
                // Referrals are client-side concerns; PartialSearch is
                // reserved for future incremental merging.
            }
        }
    }
}

/// The client-side response collector bound to a user's node.
#[derive(Debug, Default)]
pub struct DuaNode {
    responses: BTreeMap<u64, Result<DirResult, DirectoryError>>,
    referrals: BTreeMap<u64, (NodeId, DirOp)>,
}

impl Node for DuaNode {
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, msg: Message) {
        let Ok(dap) = msg.payload.downcast::<DapMessage>() else {
            return;
        };
        match dap {
            DapMessage::Response { req_id, result } => {
                self.responses.insert(req_id, result);
            }
            DapMessage::Referral { req_id, target, op } => {
                self.referrals.insert(req_id, (target, op));
            }
            _ => {}
        }
    }
}

/// Synchronous Directory User Agent: drives the simulation until each
/// operation completes.
///
/// # Examples
///
/// See the crate-level documentation for a full two-DSA example.
#[derive(Debug, Clone, Copy)]
pub struct Dua {
    client: NodeId,
    home_dsa: NodeId,
    next_req: u64,
}

impl Dua {
    /// Creates a DUA for `client` whose default DSA is `home_dsa`.
    /// `client` must have a [`DuaNode`] registered.
    pub fn new(client: NodeId, home_dsa: NodeId) -> Self {
        Dua {
            client,
            home_dsa,
            next_req: 1,
        }
    }

    /// The client node.
    pub fn client(&self) -> NodeId {
        self.client
    }

    /// Performs `op` against the home DSA, following one referral if
    /// offered, and drives the simulation until the answer arrives.
    ///
    /// # Errors
    ///
    /// * Any [`DirectoryError`] produced by the responsible DSA.
    /// * [`DirectoryError::Unavailable`] when no response arrives (node
    ///   down or partition).
    pub fn perform(&mut self, sim: &mut Sim, op: DirOp) -> Result<DirResult, DirectoryError> {
        let req_id = self.next_req;
        self.next_req += 1;
        sim.send_from(
            self.client,
            self.home_dsa,
            Payload::new(DapMessage::Request {
                req_id,
                origin: self.client,
                op,
                hops: 0,
            }),
            256,
        );
        sim.run_until_idle();
        // Follow one referral hop if the home DSA redirected us.
        if let Some((target, op)) = self.take_referral(sim, req_id) {
            sim.send_from(
                self.client,
                target,
                Payload::new(DapMessage::Request {
                    req_id,
                    origin: self.client,
                    op,
                    hops: 0,
                }),
                256,
            );
            sim.run_until_idle();
        }
        self.take_response(sim, req_id)
            .unwrap_or_else(|| Err(DirectoryError::Unavailable("no response from DSA".into())))
    }

    fn take_referral(&self, sim: &mut Sim, req_id: u64) -> Option<(NodeId, DirOp)> {
        sim.node_mut::<DuaNode>(self.client)?
            .referrals
            .remove(&req_id)
    }

    fn take_response(
        &self,
        sim: &mut Sim,
        req_id: u64,
    ) -> Option<Result<DirResult, DirectoryError>> {
        sim.node_mut::<DuaNode>(self.client)?
            .responses
            .remove(&req_id)
    }

    /// Adds an entry.
    ///
    /// # Errors
    ///
    /// As for [`Dua::perform`].
    pub fn add(&mut self, sim: &mut Sim, entry: Entry) -> Result<(), DirectoryError> {
        self.perform(sim, DirOp::Add(entry)).map(|_| ())
    }

    /// Removes a leaf entry.
    ///
    /// # Errors
    ///
    /// As for [`Dua::perform`].
    pub fn remove(&mut self, sim: &mut Sim, dn: Dn) -> Result<(), DirectoryError> {
        self.perform(sim, DirOp::Remove(dn)).map(|_| ())
    }

    /// Renames a leaf entry (within one naming context).
    ///
    /// # Errors
    ///
    /// As for [`Dua::perform`]; additionally
    /// [`DirectoryError::NoSuchContext`] when the new name would leave
    /// the master's context.
    pub fn rename(&mut self, sim: &mut Sim, from: Dn, to: Dn) -> Result<(), DirectoryError> {
        self.perform(sim, DirOp::Rename(from, to)).map(|_| ())
    }

    /// Applies modifications to an entry.
    ///
    /// # Errors
    ///
    /// As for [`Dua::perform`].
    pub fn modify(
        &mut self,
        sim: &mut Sim,
        dn: Dn,
        mods: Vec<Modification>,
    ) -> Result<(), DirectoryError> {
        self.perform(sim, DirOp::Modify(dn, mods)).map(|_| ())
    }

    /// Reads an entry.
    ///
    /// # Errors
    ///
    /// As for [`Dua::perform`].
    pub fn read(&mut self, sim: &mut Sim, dn: Dn) -> Result<Entry, DirectoryError> {
        match self.perform(sim, DirOp::Read(dn))? {
            DirResult::Entry(e) => Ok(e),
            _ => Err(DirectoryError::Unavailable("unexpected result kind".into())),
        }
    }

    /// Searches the directory.
    ///
    /// # Errors
    ///
    /// As for [`Dua::perform`].
    pub fn search(
        &mut self,
        sim: &mut Sim,
        request: SearchRequest,
    ) -> Result<SearchOutcome, DirectoryError> {
        match self.perform(sim, DirOp::Search(request))? {
            DirResult::Search(out) => Ok(out),
            _ => Err(DirectoryError::Unavailable("unexpected result kind".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;
    use crate::search::SearchScope;
    use simnet::{LinkSpec, TopologyBuilder};

    /// Two DSAs: UK context on one, DE context on the other, one client.
    fn two_dsa_world(mode: InteractionMode) -> (Sim, Dua, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let client = b.add_node("client");
        let dsa_uk = b.add_node("dsa-uk");
        let dsa_de = b.add_node("dsa-de");
        b.full_mesh(LinkSpec::lan());
        let mut sim = Sim::new(b.build(), 5);

        let uk: Dn = "c=UK".parse().unwrap();
        let de: Dn = "c=DE".parse().unwrap();

        let mut uk_dsa = DsaNode::new([uk.clone()]).with_mode(mode);
        uk_dsa.add_knowledge(de.clone(), dsa_de);
        let mut de_dsa = DsaNode::new([de.clone()]).with_mode(mode);
        de_dsa.add_knowledge(uk.clone(), dsa_uk);

        // Bootstrap context roots locally.
        uk_dsa
            .dit_mut()
            .add(
                Entry::new(uk)
                    .with_class("country")
                    .with_attr(Attribute::single("c", "UK")),
            )
            .unwrap();
        de_dsa
            .dit_mut()
            .add(
                Entry::new(de)
                    .with_class("country")
                    .with_attr(Attribute::single("c", "DE")),
            )
            .unwrap();

        sim.register(dsa_uk, uk_dsa);
        sim.register(dsa_de, de_dsa);
        sim.register(client, DuaNode::default());
        (sim, Dua::new(client, dsa_uk), dsa_uk, dsa_de)
    }

    fn org(dn: &str, o: &str) -> Entry {
        Entry::new(dn.parse().unwrap())
            .with_class("organization")
            .with_attr(Attribute::single("o", o))
    }

    #[test]
    fn local_add_and_read() {
        let (mut sim, mut dua, _, _) = two_dsa_world(InteractionMode::Chaining);
        dua.add(&mut sim, org("c=UK,o=Lancaster", "Lancaster"))
            .unwrap();
        let e = dua
            .read(&mut sim, "c=UK,o=Lancaster".parse().unwrap())
            .unwrap();
        assert_eq!(e.first_text("o"), Some("Lancaster"));
    }

    #[test]
    fn chaining_routes_to_remote_master() {
        let (mut sim, mut dua, _, _) = two_dsa_world(InteractionMode::Chaining);
        dua.add(&mut sim, org("c=DE,o=GMD", "GMD")).unwrap();
        let e = dua.read(&mut sim, "c=DE,o=GMD".parse().unwrap()).unwrap();
        assert_eq!(e.first_text("o"), Some("GMD"));
        assert!(
            sim.telemetry().counter(Layer::Directory, "dsa.chain") >= 2,
            "add and read both chained"
        );
    }

    #[test]
    fn referral_mode_redirects_client() {
        let (mut sim, mut dua, _, _) = two_dsa_world(InteractionMode::Referral);
        dua.add(&mut sim, org("c=DE,o=GMD", "GMD")).unwrap();
        assert!(
            sim.telemetry()
                .counter(Layer::Directory, "dir.dsa.referral")
                >= 1
        );
        assert_eq!(sim.telemetry().counter(Layer::Directory, "dsa.chain"), 0);
        let e = dua.read(&mut sim, "c=DE,o=GMD".parse().unwrap()).unwrap();
        assert_eq!(e.first_text("o"), Some("GMD"));
    }

    #[test]
    fn unknown_context_is_reported() {
        let (mut sim, mut dua, _, _) = two_dsa_world(InteractionMode::Chaining);
        let err = dua.add(&mut sim, org("c=FR,o=INRIA", "INRIA")).unwrap_err();
        assert!(matches!(err, DirectoryError::NoSuchContext(_)));
    }

    #[test]
    fn remote_errors_propagate_back() {
        let (mut sim, mut dua, _, _) = two_dsa_world(InteractionMode::Chaining);
        let err = dua
            .read(&mut sim, "c=DE,o=Nowhere".parse().unwrap())
            .unwrap_err();
        assert!(matches!(err, DirectoryError::NoSuchEntry(_)));
    }

    #[test]
    fn partition_yields_unavailable() {
        let (mut sim, mut dua, dsa_uk, _) = two_dsa_world(InteractionMode::Chaining);
        sim.apply_fault(simnet::FaultAction::Partition(
            vec![dua.client()],
            vec![dsa_uk],
        ));
        let err = dua.read(&mut sim, "c=UK".parse().unwrap()).unwrap_err();
        assert!(matches!(err, DirectoryError::Unavailable(_)));
    }

    #[test]
    fn distributed_subtree_search_merges_contexts() {
        let (mut sim, mut dua, _, _) = two_dsa_world(InteractionMode::Chaining);
        dua.add(&mut sim, org("c=UK,o=Lancaster", "Lancaster"))
            .unwrap();
        dua.add(&mut sim, org("c=DE,o=GMD", "GMD")).unwrap();
        // Root-based subtree search from the UK DSA must include DE results.
        let out = dua
            .search(
                &mut sim,
                SearchRequest::new(
                    "c=UK".parse().unwrap(),
                    SearchScope::Subtree,
                    Filter::present("o"),
                ),
            )
            .unwrap();
        assert_eq!(out.entries.len(), 1, "UK subtree has one org");
        // Search within DE context routed transparently.
        let out = dua
            .search(
                &mut sim,
                SearchRequest::new(
                    "c=DE".parse().unwrap(),
                    SearchScope::Subtree,
                    Filter::present("o"),
                ),
            )
            .unwrap();
        assert_eq!(out.entries.len(), 1, "DE subtree has one org");
    }

    #[test]
    fn shadow_replication_serves_reads_and_rejects_writes() {
        let mut b = TopologyBuilder::new();
        let client = b.add_node("client");
        let master = b.add_node("master");
        let shadow = b.add_node("shadow");
        b.full_mesh(LinkSpec::lan());
        let mut sim = Sim::new(b.build(), 5);

        let uk: Dn = "c=UK".parse().unwrap();
        let mut m = DsaNode::new([uk.clone()]);
        m.add_shadow(shadow);
        m.dit_mut()
            .add(
                Entry::new(uk.clone())
                    .with_class("country")
                    .with_attr(Attribute::single("c", "UK")),
            )
            .unwrap();
        let mut s = DsaNode::new([]);
        s.add_shadowed_context(uk.clone());
        s.dit_mut()
            .add(
                Entry::new(uk)
                    .with_class("country")
                    .with_attr(Attribute::single("c", "UK")),
            )
            .unwrap();

        sim.register(master, m);
        sim.register(shadow, s);
        sim.register(client, DuaNode::default());

        let mut dua = Dua::new(client, master);
        dua.add(&mut sim, org("c=UK,o=Lancaster", "Lancaster"))
            .unwrap();

        // Read from the shadow: replication already pushed the entry.
        let mut shadow_dua = Dua::new(client, shadow);
        let e = shadow_dua
            .read(&mut sim, "c=UK,o=Lancaster".parse().unwrap())
            .unwrap();
        assert_eq!(e.first_text("o"), Some("Lancaster"));

        // Writes at the shadow are refused.
        let err = shadow_dua
            .add(&mut sim, org("c=UK,o=Oxford", "Oxford"))
            .unwrap_err();
        assert!(matches!(err, DirectoryError::NotMaster(_)));
        assert!(sim.telemetry().counter(Layer::Directory, "dsa.shadow_push") >= 1);
    }

    #[test]
    fn rename_stays_within_context_and_replicates() {
        let (mut sim, mut dua, _, _) = two_dsa_world(InteractionMode::Chaining);
        dua.add(&mut sim, org("c=UK,o=Lancaster", "Lancaster"))
            .unwrap();
        dua.rename(
            &mut sim,
            "c=UK,o=Lancaster".parse().unwrap(),
            "c=UK,o=Lancaster University".parse().unwrap(),
        )
        .unwrap();
        let moved = dua
            .read(&mut sim, "c=UK,o=Lancaster University".parse().unwrap())
            .unwrap();
        assert_eq!(moved.first_text("o"), Some("Lancaster"));
        assert!(dua
            .read(&mut sim, "c=UK,o=Lancaster".parse().unwrap())
            .is_err());
        // Cross-context rename is refused.
        dua.add(&mut sim, org("c=UK,o=Oxford", "Oxford")).unwrap();
        let err = dua
            .rename(
                &mut sim,
                "c=UK,o=Oxford".parse().unwrap(),
                "c=DE,o=Oxford".parse().unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, DirectoryError::NoSuchContext(_)));
    }
}
