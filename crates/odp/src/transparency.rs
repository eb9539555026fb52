//! Selective distribution transparencies.
//!
//! ODP lets a designer pick which distribution problems the
//! infrastructure masks. The paper argues (§6.1) that for CSCW this
//! selection "shouldn't be provided only for application designers …
//! the user should be allowed to select their required transparency".
//! [`TransparencySelection`] is therefore plain data that the MOCCA
//! tailoring layer exposes to end users; the ablation bench (R5)
//! measures the cost of each flag.
//!
//! Semantics of each flag in [`TransparentInvoker::invoke`]:
//!
//! * **access** — arguments are marshalled for the wire. Without it,
//!   only same-node invocations are legal (heterogeneous access fails).
//! * **location** — the target node is resolved through a [`Locator`]
//!   instead of being baked into the reference.
//! * **migration** — on "no such object", the locator is re-consulted
//!   and the call retried once (the object may have moved).
//! * **replication** — the reference may name a replica group; reads go
//!   to the first reachable member, updates go to every member.
//! * **failure** — unavailable results are retried up to
//!   [`TransparentInvoker::FAILURE_RETRIES`] times.

use std::collections::BTreeMap;

use cscw_messaging::net::{NodeId, Sim};
use serde::{Deserialize, Serialize};

use crate::error::OdpError;
use crate::object::{InterfaceRef, Invoker, ObjectHost, ObjectId};
use crate::value::Value;

/// Which distribution transparencies are engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransparencySelection {
    /// Mask heterogeneity of access (marshalling).
    pub access: bool,
    /// Mask where objects are (locator indirection).
    pub location: bool,
    /// Mask that objects move (re-resolve and retry).
    pub migration: bool,
    /// Mask that objects are replicated (group invocation).
    pub replication: bool,
    /// Mask failures (bounded retry).
    pub failure: bool,
}

impl TransparencySelection {
    /// Everything masked — the convenient default.
    pub fn full() -> Self {
        TransparencySelection {
            access: true,
            location: true,
            migration: true,
            replication: true,
            failure: true,
        }
    }

    /// Nothing masked — the caller sees raw distribution.
    pub fn none() -> Self {
        TransparencySelection {
            access: false,
            location: false,
            migration: false,
            replication: false,
            failure: false,
        }
    }

    /// Count of engaged transparencies (bench reporting).
    pub fn engaged_count(&self) -> usize {
        [
            self.access,
            self.location,
            self.migration,
            self.replication,
            self.failure,
        ]
        .iter()
        .filter(|&&b| b)
        .count()
    }
}

impl Default for TransparencySelection {
    fn default() -> Self {
        Self::full()
    }
}

/// Is an operation a read or an update? Replication transparency needs
/// to know: updates must reach every replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpMode {
    /// Read-only: any single replica serves it.
    Read,
    /// State-changing: all replicas must apply it.
    Update,
}

/// The engineering "relocator": maps object ids to their current node
/// and replica set.
#[derive(Debug, Clone, Default)]
pub struct Locator {
    locations: BTreeMap<ObjectId, Vec<NodeId>>,
    lookups: u64,
}

impl Locator {
    /// Creates an empty locator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) an object's replica locations. The first
    /// entry is the preferred replica.
    pub fn register(&mut self, id: ObjectId, nodes: Vec<NodeId>) {
        self.locations.insert(id, nodes);
    }

    /// Records a migration: the object now lives at `node` (single
    /// location).
    pub fn migrate(&mut self, id: &ObjectId, node: NodeId) {
        self.locations.insert(id.clone(), vec![node]);
    }

    /// Where the object lives now (all replicas).
    pub fn resolve(&mut self, id: &ObjectId) -> Option<&[NodeId]> {
        self.lookups += 1;
        self.locations.get(id).map(Vec::as_slice)
    }

    /// How many lookups have been served — the measurable cost of
    /// location transparency.
    pub fn lookup_count(&self) -> u64 {
        self.lookups
    }
}

/// An invoker that composes the selected transparencies over the plain
/// [`Invoker`].
#[derive(Debug)]
pub struct TransparentInvoker {
    invoker: Invoker,
    selection: TransparencySelection,
    locator: Locator,
}

impl TransparentInvoker {
    /// Retries attempted when failure transparency is engaged.
    pub const FAILURE_RETRIES: u32 = 2;

    /// Creates a transparent invoker for `client`.
    pub fn new(client: NodeId, selection: TransparencySelection) -> Self {
        TransparentInvoker {
            invoker: Invoker::new(client),
            selection,
            locator: Locator::new(),
        }
    }

    /// The locator, for registering objects and replica groups.
    pub fn locator_mut(&mut self) -> &mut Locator {
        &mut self.locator
    }

    /// The current selection.
    pub fn selection(&self) -> TransparencySelection {
        self.selection
    }

    /// Re-selects transparencies (the user-tailorable knob).
    pub fn select(&mut self, selection: TransparencySelection) {
        self.selection = selection;
    }

    /// Invokes with the engaged transparencies.
    ///
    /// With location transparency the `iref.node` field is ignored and
    /// the locator decides; without it the reference must carry the
    /// correct node.
    ///
    /// # Errors
    ///
    /// * [`OdpError::Unavailable`] — target unreachable and failure
    ///   transparency exhausted (or disengaged).
    /// * [`OdpError::NotConformant`] — access transparency disengaged and
    ///   the target is remote.
    /// * Any error from the remote object.
    pub fn invoke(
        &mut self,
        sim: &mut Sim,
        iref: &InterfaceRef,
        op: &str,
        args: Vec<Value>,
        mode: OpMode,
    ) -> Result<Value, OdpError> {
        // Access transparency: without marshalling, remote calls are
        // impossible — the 1992 heterogeneity story.
        if !self.selection.access && iref.node != self.invoker.client() {
            return Err(OdpError::NotConformant {
                reason: "access transparency disengaged: remote invocation impossible".into(),
            });
        }

        let replicas: Vec<NodeId> = if self.selection.location {
            match self.locator.resolve(&iref.object) {
                Some(nodes) if !nodes.is_empty() => nodes.to_vec(),
                _ => vec![iref.node],
            }
        } else {
            vec![iref.node]
        };

        if self.selection.replication && replicas.len() > 1 {
            return self.invoke_replicated(sim, iref, op, args, mode, &replicas);
        }

        let target = replicas[0];
        self.invoke_one_with_masks(sim, iref, target, op, args)
    }

    /// Single-target invocation with migration + failure masking.
    fn invoke_one_with_masks(
        &mut self,
        sim: &mut Sim,
        iref: &InterfaceRef,
        target: NodeId,
        op: &str,
        args: Vec<Value>,
    ) -> Result<Value, OdpError> {
        let attempts = if self.selection.failure {
            1 + Self::FAILURE_RETRIES
        } else {
            1
        };
        let mut target = target;
        let mut last_err = OdpError::Unavailable("no attempt made".into());
        for _ in 0..attempts {
            let r = InterfaceRef {
                node: target,
                ..iref.clone()
            };
            match self.invoker.invoke(sim, &r, op, args.clone()) {
                Ok(v) => return Ok(v),
                Err(OdpError::NoSuchObject(_)) if self.selection.migration => {
                    // The object may have migrated: re-resolve and retry
                    // once at the new location.
                    if let Some(nodes) = self.locator.resolve(&iref.object) {
                        if let Some(&fresh) = nodes.first() {
                            if fresh != target {
                                target = fresh;
                                let r2 = InterfaceRef {
                                    node: fresh,
                                    ..iref.clone()
                                };
                                match self.invoker.invoke(sim, &r2, op, args.clone()) {
                                    Ok(v) => return Ok(v),
                                    Err(e) => last_err = e,
                                }
                                continue;
                            }
                        }
                    }
                    last_err = OdpError::NoSuchObject(iref.object.to_string());
                }
                Err(e @ OdpError::Unavailable(_)) if self.selection.failure => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// Replica-group invocation: reads take the first success, updates
    /// go everywhere (best-effort: at least one must succeed).
    fn invoke_replicated(
        &mut self,
        sim: &mut Sim,
        iref: &InterfaceRef,
        op: &str,
        args: Vec<Value>,
        mode: OpMode,
        replicas: &[NodeId],
    ) -> Result<Value, OdpError> {
        match mode {
            OpMode::Read => {
                let mut last_err = OdpError::Unavailable("empty replica group".into());
                for &node in replicas {
                    let r = InterfaceRef {
                        node,
                        ..iref.clone()
                    };
                    match self.invoker.invoke(sim, &r, op, args.clone()) {
                        Ok(v) => return Ok(v),
                        Err(e) => last_err = e,
                    }
                }
                Err(last_err)
            }
            OpMode::Update => {
                let mut result = None;
                let mut last_err = None;
                for &node in replicas {
                    let r = InterfaceRef {
                        node,
                        ..iref.clone()
                    };
                    match self.invoker.invoke(sim, &r, op, args.clone()) {
                        Ok(v) => result = Some(v),
                        Err(e) => last_err = Some(e),
                    }
                }
                match (result, last_err) {
                    (Some(v), _) => Ok(v),
                    (None, Some(e)) => Err(e),
                    (None, None) => Err(OdpError::Unavailable("empty replica group".into())),
                }
            }
        }
    }
}

/// Moves an object between hosts and updates the locator — the
/// engineering action behind migration transparency.
///
/// # Errors
///
/// [`OdpError::NoSuchObject`] when the object is not at `from` (or a
/// host is missing).
pub fn migrate_object(
    sim: &mut Sim,
    locator: &mut Locator,
    id: &ObjectId,
    from: NodeId,
    to: NodeId,
) -> Result<(), OdpError> {
    let obj = sim
        .node_mut::<ObjectHost>(from)
        .ok_or_else(|| OdpError::NoSuchObject(format!("host {from}")))?
        .eject(id)
        .ok_or_else(|| OdpError::NoSuchObject(id.to_string()))?;
    sim.node_mut::<ObjectHost>(to)
        .ok_or_else(|| OdpError::NoSuchObject(format!("host {to}")))?
        .adopt(id.clone(), obj);
    locator.migrate(id, to);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::{InterfaceType, OperationSig};
    use crate::object::{ComputationalObject, InvokerNode};
    use crate::value::ValueKind;
    use simnet::{FaultAction, LinkSpec, Sim, TopologyBuilder};

    struct Counter {
        n: i64,
        iface: InterfaceType,
    }
    impl Counter {
        fn new() -> Self {
            Counter {
                n: 0,
                iface: InterfaceType::new("counter")
                    .with_operation(OperationSig::new("add", [ValueKind::Int], ValueKind::Int))
                    .with_operation(OperationSig::new("get", [], ValueKind::Int)),
            }
        }
    }
    impl ComputationalObject for Counter {
        fn interface(&self) -> &InterfaceType {
            &self.iface
        }
        fn invoke(&mut self, op: &str, args: &[Value]) -> Result<Value, OdpError> {
            match op {
                "add" => {
                    self.n += args[0].as_int().expect("checked");
                    Ok(Value::Int(self.n))
                }
                "get" => Ok(Value::Int(self.n)),
                _ => unreachable!(),
            }
        }
    }

    struct World {
        sim: Sim,
        client: NodeId,
        hosts: Vec<NodeId>,
    }

    fn world(n_hosts: usize) -> World {
        let mut b = TopologyBuilder::new();
        let client = b.add_node("client");
        let hosts: Vec<NodeId> = (0..n_hosts).map(|i| b.add_node(format!("h{i}"))).collect();
        b.full_mesh(LinkSpec::lan());
        let mut sim = Sim::new(b.build(), 3);
        sim.register(client, InvokerNode::default());
        for &h in &hosts {
            sim.register(h, ObjectHost::new());
        }
        World { sim, client, hosts }
    }

    fn install_counter(w: &mut World, host: usize, id: &str) {
        w.sim
            .node_mut::<ObjectHost>(w.hosts[host])
            .unwrap()
            .install(id.into(), Counter::new());
    }

    fn iref(w: &World, host: usize, id: &str) -> InterfaceRef {
        InterfaceRef {
            object: id.into(),
            node: w.hosts[host],
            interface: "counter".into(),
        }
    }

    #[test]
    fn no_access_transparency_blocks_remote_calls() {
        let mut w = world(1);
        install_counter(&mut w, 0, "c");
        let mut ti = TransparentInvoker::new(w.client, TransparencySelection::none());
        let target = iref(&w, 0, "c");
        let err = ti
            .invoke(&mut w.sim, &target, "get", vec![], OpMode::Read)
            .unwrap_err();
        assert!(matches!(err, OdpError::NotConformant { .. }));
    }

    #[test]
    fn location_transparency_resolves_through_locator() {
        let mut w = world(2);
        install_counter(&mut w, 1, "c");
        let mut ti = TransparentInvoker::new(w.client, TransparencySelection::full());
        ti.locator_mut().register("c".into(), vec![w.hosts[1]]);
        // Reference points at the WRONG node; locator corrects it.
        let wrong = iref(&w, 0, "c");
        let v = ti
            .invoke(&mut w.sim, &wrong, "get", vec![], OpMode::Read)
            .unwrap();
        assert_eq!(v, Value::Int(0));
        assert_eq!(ti.locator_mut().lookup_count(), 1);
    }

    #[test]
    fn without_location_transparency_the_reference_is_trusted() {
        let mut w = world(2);
        install_counter(&mut w, 1, "c");
        let mut selection = TransparencySelection::full();
        selection.location = false;
        selection.migration = false;
        let mut ti = TransparentInvoker::new(w.client, selection);
        ti.locator_mut().register("c".into(), vec![w.hosts[1]]);
        let wrong = iref(&w, 0, "c");
        assert!(ti
            .invoke(&mut w.sim, &wrong, "get", vec![], OpMode::Read)
            .is_err());
    }

    #[test]
    fn migration_transparency_chases_moved_objects() {
        let mut w = world(2);
        install_counter(&mut w, 0, "c");
        let mut ti = TransparentInvoker::new(w.client, TransparencySelection::full());
        ti.locator_mut().register("c".into(), vec![w.hosts[0]]);
        let target = iref(&w, 0, "c");
        ti.invoke(
            &mut w.sim,
            &target,
            "add",
            vec![Value::Int(5)],
            OpMode::Update,
        )
        .unwrap();

        // Move the object but "forget" to tell the client's reference.
        let (from, to) = (w.hosts[0], w.hosts[1]);
        let mut locator = std::mem::take(ti.locator_mut());
        migrate_object(&mut w.sim, &mut locator, &"c".into(), from, to).unwrap();
        *ti.locator_mut() = locator;

        // Stale reference still works: locator is consulted.
        let target = iref(&w, 0, "c");
        let v = ti
            .invoke(&mut w.sim, &target, "get", vec![], OpMode::Read)
            .unwrap();
        assert_eq!(v, Value::Int(5), "state moved with the object");
    }

    #[test]
    fn replication_reads_survive_replica_crash() {
        let mut w = world(2);
        install_counter(&mut w, 0, "c");
        install_counter(&mut w, 1, "c");
        let mut ti = TransparentInvoker::new(w.client, TransparencySelection::full());
        ti.locator_mut()
            .register("c".into(), vec![w.hosts[0], w.hosts[1]]);
        // Update both replicas.
        let target = iref(&w, 0, "c");
        ti.invoke(
            &mut w.sim,
            &target,
            "add",
            vec![Value::Int(3)],
            OpMode::Update,
        )
        .unwrap();
        // Crash the preferred replica; reads fail over.
        w.sim.apply_fault(FaultAction::Crash(w.hosts[0]));
        let target = iref(&w, 0, "c");
        let v = ti
            .invoke(&mut w.sim, &target, "get", vec![], OpMode::Read)
            .unwrap();
        assert_eq!(v, Value::Int(3));
    }

    #[test]
    fn updates_reach_all_replicas() {
        let mut w = world(2);
        install_counter(&mut w, 0, "c");
        install_counter(&mut w, 1, "c");
        let mut ti = TransparentInvoker::new(w.client, TransparencySelection::full());
        ti.locator_mut()
            .register("c".into(), vec![w.hosts[0], w.hosts[1]]);
        let target = iref(&w, 0, "c");
        ti.invoke(
            &mut w.sim,
            &target,
            "add",
            vec![Value::Int(9)],
            OpMode::Update,
        )
        .unwrap();
        for host in [w.hosts[0], w.hosts[1]] {
            let got = w
                .sim
                .node_mut::<ObjectHost>(host)
                .unwrap()
                .invoke_local(&"c".into(), "get", &[])
                .unwrap();
            assert_eq!(got, Value::Int(9), "replica at {host} applied the update");
        }
    }

    #[test]
    fn failure_transparency_retries_through_transient_crash() {
        let mut w = world(1);
        install_counter(&mut w, 0, "c");
        let mut ti = TransparentInvoker::new(w.client, TransparencySelection::full());
        ti.locator_mut().register("c".into(), vec![w.hosts[0]]);
        // Crash now; restart shortly — the retry finds it back up.
        w.sim.apply_fault(FaultAction::Crash(w.hosts[0]));
        w.sim
            .schedule_fault(w.sim.now() + 1_000, FaultAction::Restart(w.hosts[0]));
        let target = iref(&w, 0, "c");
        let v = ti
            .invoke(&mut w.sim, &target, "get", vec![], OpMode::Read)
            .unwrap();
        assert_eq!(v, Value::Int(0));
    }

    #[test]
    fn without_failure_transparency_errors_surface() {
        let mut w = world(1);
        install_counter(&mut w, 0, "c");
        let mut selection = TransparencySelection::full();
        selection.failure = false;
        let mut ti = TransparentInvoker::new(w.client, selection);
        ti.locator_mut().register("c".into(), vec![w.hosts[0]]);
        w.sim.apply_fault(FaultAction::Crash(w.hosts[0]));
        let target = iref(&w, 0, "c");
        let err = ti.invoke(&mut w.sim, &target, "get", vec![], OpMode::Read);
        assert!(matches!(err, Err(OdpError::Unavailable(_))));
    }

    #[test]
    fn selection_counts() {
        assert_eq!(TransparencySelection::full().engaged_count(), 5);
        assert_eq!(TransparencySelection::none().engaged_count(), 0);
        assert_eq!(
            TransparencySelection::default(),
            TransparencySelection::full()
        );
    }
}
