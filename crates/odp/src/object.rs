//! Computational objects and their engineering hosts.
//!
//! In ODP terms: the computational viewpoint sees objects with typed
//! operational interfaces; the engineering viewpoint places them in
//! **capsules** on **nodes**. [`ObjectHost`] is the capsule: a `simnet`
//! node hosting computational objects and serving remote invocations.

use std::collections::BTreeMap;
use std::fmt;

use cscw_messaging::net::{Message, Node, NodeCtx, NodeId, Payload, Sim};
use serde::{Deserialize, Serialize};

use crate::error::OdpError;
use crate::interface::InterfaceType;
use crate::value::Value;

/// A globally unique object name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId(String);

impl ObjectId {
    /// Creates an object id.
    pub fn new(id: impl Into<String>) -> Self {
        ObjectId(id.into())
    }

    /// The raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ObjectId {
    fn from(s: &str) -> Self {
        ObjectId::new(s)
    }
}

/// A reference to an interface of an object at a known engineering
/// location. Location transparency replaces the `node` with a locator
/// lookup; see [`crate::TransparentInvoker`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterfaceRef {
    /// The object.
    pub object: ObjectId,
    /// Where it currently lives.
    pub node: NodeId,
    /// The interface type name it offers there.
    pub interface: String,
}

/// A computational object: behaviour behind a typed interface.
///
/// Implementations must validate their own state transitions; argument
/// arity/kind checking against the declared [`InterfaceType`] is done by
/// the host before `invoke` is called.
pub trait ComputationalObject: std::any::Any {
    /// The interface this object offers.
    fn interface(&self) -> &InterfaceType;

    /// Handles one operation.
    ///
    /// # Errors
    ///
    /// Implementations return [`OdpError::Application`] (or a more
    /// specific variant) to signal refusal.
    fn invoke(&mut self, op: &str, args: &[Value]) -> Result<Value, OdpError>;
}

/// The ODP invocation protocol.
#[derive(Debug)]
pub enum OdpPdu {
    /// An operation invocation.
    Invoke {
        /// Correlation id.
        req_id: u64,
        /// Where to send the reply.
        reply_to: NodeId,
        /// Target object.
        object: ObjectId,
        /// Operation name.
        op: String,
        /// Arguments.
        args: Vec<Value>,
    },
    /// The reply.
    Reply {
        /// Correlation id.
        req_id: u64,
        /// Outcome.
        result: Result<Value, OdpError>,
    },
}

/// An engineering capsule: hosts computational objects on one node.
#[derive(Default)]
pub struct ObjectHost {
    objects: BTreeMap<ObjectId, Box<dyn ComputationalObject>>,
}

impl fmt::Debug for ObjectHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectHost")
            .field("objects", &self.objects.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ObjectHost {
    /// Creates an empty host.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs an object; replaces any previous object with the id.
    pub fn install(&mut self, id: ObjectId, object: impl ComputationalObject) {
        self.objects.insert(id, Box::new(object));
    }

    /// Removes an object, e.g. for migration. Returns it when present.
    pub fn eject(&mut self, id: &ObjectId) -> Option<Box<dyn ComputationalObject>> {
        self.objects.remove(id)
    }

    /// Installs a previously ejected object (migration arrival).
    pub fn adopt(&mut self, id: ObjectId, object: Box<dyn ComputationalObject>) {
        self.objects.insert(id, object);
    }

    /// True when the object is hosted here.
    pub fn hosts(&self, id: &ObjectId) -> bool {
        self.objects.contains_key(id)
    }

    /// Number of hosted objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Borrows a hosted object's concrete type (for test assertions).
    pub fn object<T: ComputationalObject>(&self, id: &ObjectId) -> Option<&T> {
        self.objects
            .get(id)
            .and_then(|o| (o.as_ref() as &dyn std::any::Any).downcast_ref::<T>())
    }

    /// Invokes locally, with full signature checking — the same path a
    /// remote invoke takes, minus the network.
    ///
    /// # Errors
    ///
    /// * [`OdpError::NoSuchObject`] / [`OdpError::NoSuchOperation`] /
    ///   [`OdpError::BadArguments`] from dispatch checks.
    /// * Whatever the object itself returns.
    pub fn invoke_local(
        &mut self,
        id: &ObjectId,
        op: &str,
        args: &[Value],
    ) -> Result<Value, OdpError> {
        let object = self
            .objects
            .get_mut(id)
            .ok_or_else(|| OdpError::NoSuchObject(id.to_string()))?;
        let sig = object
            .interface()
            .operation(op)
            .ok_or_else(|| OdpError::NoSuchOperation {
                object: id.to_string(),
                operation: op.to_owned(),
            })?
            .clone();
        sig.check_args(args)?;
        object.invoke(op, args)
    }
}

impl Node for ObjectHost {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        let Ok(pdu) = msg.payload.downcast::<OdpPdu>() else {
            return;
        };
        if let OdpPdu::Invoke {
            req_id,
            reply_to,
            object,
            op,
            args,
        } = pdu
        {
            let t = ctx.telemetry();
            t.incr(cscw_kernel::Layer::Odp, "odp.invoke");
            t.emit(
                ctx.now_micros(),
                cscw_kernel::Layer::Odp,
                "odp.invoke",
                format_args!("req {req_id}: {object}.{op}"),
            );
            let result = self.invoke_local(&object, &op, &args);
            let size = 16 + result.as_ref().map(Value::wire_size).unwrap_or(32);
            ctx.send_sized(
                reply_to,
                Payload::new(OdpPdu::Reply { req_id, result }),
                size,
            );
        }
    }
}

/// Client-side reply collector; register on the invoking node.
#[derive(Debug, Default)]
pub struct InvokerNode {
    replies: BTreeMap<u64, Result<Value, OdpError>>,
}

impl Node for InvokerNode {
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, msg: Message) {
        if let Ok(OdpPdu::Reply { req_id, result }) = msg.payload.downcast::<OdpPdu>() {
            self.replies.insert(req_id, result);
        }
    }
}

/// Synchronous remote invocation facade.
///
/// # Examples
///
/// ```
/// use odp::*;
/// use simnet::*;
///
/// struct Counter(i64);
/// impl ComputationalObject for Counter {
///     fn interface(&self) -> &InterfaceType {
///         static TYPE: std::sync::OnceLock<InterfaceType> = std::sync::OnceLock::new();
///         TYPE.get_or_init(|| {
///             InterfaceType::new("counter")
///                 .with_operation(OperationSig::new("add", [ValueKind::Int], ValueKind::Int))
///         })
///     }
///     fn invoke(&mut self, _op: &str, args: &[Value]) -> Result<Value, OdpError> {
///         let delta = args
///             .first()
///             .and_then(Value::as_int)
///             .ok_or_else(|| OdpError::BadArguments("add wants one int".into()))?;
///         self.0 += delta;
///         Ok(Value::Int(self.0))
///     }
/// }
///
/// let mut b = TopologyBuilder::new();
/// let client = b.add_node("client");
/// let server = b.add_node("server");
/// b.link_both(client, server, LinkSpec::lan());
/// let mut sim = Sim::new(b.build(), 1);
///
/// let mut host = ObjectHost::new();
/// host.install("c1".into(), Counter(0));
/// sim.register(server, host);
/// sim.register(client, InvokerNode::default());
///
/// let iref = InterfaceRef { object: "c1".into(), node: server, interface: "counter".into() };
/// let mut invoker = Invoker::new(client);
/// let v = invoker.invoke(&mut sim, &iref, "add", vec![Value::Int(5)]).unwrap();
/// assert_eq!(v, Value::Int(5));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Invoker {
    client: NodeId,
    next_req: u64,
}

impl Invoker {
    /// Creates an invoker sending from `client` (which must have an
    /// [`InvokerNode`] registered).
    pub fn new(client: NodeId) -> Self {
        Invoker {
            client,
            next_req: 1,
        }
    }

    /// The invoking node.
    pub fn client(&self) -> NodeId {
        self.client
    }

    /// Invokes `op` on the referenced interface and drives the
    /// simulation until the reply arrives.
    ///
    /// # Errors
    ///
    /// * Whatever the remote dispatch or object returns.
    /// * [`OdpError::Unavailable`] when no reply arrives (node down or
    ///   partitioned) — failure transparency retries on this.
    pub fn invoke(
        &mut self,
        sim: &mut Sim,
        iref: &InterfaceRef,
        op: &str,
        args: Vec<Value>,
    ) -> Result<Value, OdpError> {
        let req_id = self.next_req;
        self.next_req += 1;
        let size = 32 + args.iter().map(Value::wire_size).sum::<u64>();
        sim.send_from(
            self.client,
            iref.node,
            Payload::new(OdpPdu::Invoke {
                req_id,
                reply_to: self.client,
                object: iref.object.clone(),
                op: op.to_owned(),
                args,
            }),
            size,
        );
        sim.run_until_idle();
        sim.node_mut::<InvokerNode>(self.client)
            .and_then(|n| n.replies.remove(&req_id))
            .unwrap_or_else(|| Err(OdpError::Unavailable("no reply".into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::OperationSig;
    use crate::value::ValueKind;
    use simnet::{FaultAction, LinkSpec, TopologyBuilder};

    struct Register {
        value: Value,
        iface: InterfaceType,
    }

    impl Register {
        fn new() -> Self {
            Register {
                value: Value::Unit,
                iface: InterfaceType::new("register")
                    .with_operation(OperationSig::new("set", [ValueKind::Any], ValueKind::Unit))
                    .with_operation(OperationSig::new("get", [], ValueKind::Any)),
            }
        }
    }

    impl ComputationalObject for Register {
        fn interface(&self) -> &InterfaceType {
            &self.iface
        }
        fn invoke(&mut self, op: &str, args: &[Value]) -> Result<Value, OdpError> {
            match op {
                "set" => {
                    self.value = args[0].clone();
                    Ok(Value::Unit)
                }
                "get" => Ok(self.value.clone()),
                _ => unreachable!("host checks operations"),
            }
        }
    }

    fn world() -> (Sim, Invoker, InterfaceRef) {
        let mut b = TopologyBuilder::new();
        let client = b.add_node("client");
        let server = b.add_node("server");
        b.link_both(client, server, LinkSpec::lan());
        let mut sim = Sim::new(b.build(), 2);
        let mut host = ObjectHost::new();
        host.install("r1".into(), Register::new());
        sim.register(server, host);
        sim.register(client, InvokerNode::default());
        let iref = InterfaceRef {
            object: "r1".into(),
            node: server,
            interface: "register".into(),
        };
        (sim, Invoker::new(client), iref)
    }

    #[test]
    fn remote_set_get_round_trip() {
        let (mut sim, mut invoker, iref) = world();
        invoker
            .invoke(&mut sim, &iref, "set", vec![Value::Int(42)])
            .unwrap();
        let got = invoker.invoke(&mut sim, &iref, "get", vec![]).unwrap();
        assert_eq!(got, Value::Int(42));
        assert_eq!(
            sim.telemetry()
                .counter(cscw_kernel::Layer::Odp, "odp.invoke"),
            2
        );
    }

    #[test]
    fn unknown_object_and_operation_error() {
        let (mut sim, mut invoker, iref) = world();
        let missing = InterfaceRef {
            object: "ghost".into(),
            ..iref.clone()
        };
        assert!(matches!(
            invoker
                .invoke(&mut sim, &missing, "get", vec![])
                .unwrap_err(),
            OdpError::NoSuchObject(_)
        ));
        assert!(matches!(
            invoker.invoke(&mut sim, &iref, "frob", vec![]).unwrap_err(),
            OdpError::NoSuchOperation { .. }
        ));
    }

    #[test]
    fn bad_arity_is_rejected_before_the_object_runs() {
        let (mut sim, mut invoker, iref) = world();
        let err = invoker.invoke(&mut sim, &iref, "set", vec![]).unwrap_err();
        assert!(matches!(err, OdpError::BadArguments(_)));
        // Object state untouched.
        let got = invoker.invoke(&mut sim, &iref, "get", vec![]).unwrap();
        assert_eq!(got, Value::Unit);
    }

    #[test]
    fn crashed_server_is_unavailable() {
        let (mut sim, mut invoker, iref) = world();
        sim.apply_fault(FaultAction::Crash(iref.node));
        let err = invoker.invoke(&mut sim, &iref, "get", vec![]).unwrap_err();
        assert!(matches!(err, OdpError::Unavailable(_)));
    }

    #[test]
    fn migration_between_hosts_preserves_state() {
        let mut b = TopologyBuilder::new();
        let client = b.add_node("client");
        let s1 = b.add_node("s1");
        let s2 = b.add_node("s2");
        b.full_mesh(LinkSpec::lan());
        let mut sim = Sim::new(b.build(), 2);
        let mut h1 = ObjectHost::new();
        h1.install("r1".into(), Register::new());
        sim.register(s1, h1);
        sim.register(s2, ObjectHost::new());
        sim.register(client, InvokerNode::default());
        let mut invoker = Invoker::new(client);

        let at_s1 = InterfaceRef {
            object: "r1".into(),
            node: s1,
            interface: "register".into(),
        };
        invoker
            .invoke(&mut sim, &at_s1, "set", vec![Value::Int(7)])
            .unwrap();

        // Migrate: eject from s1, adopt at s2.
        let obj = sim
            .node_mut::<ObjectHost>(s1)
            .unwrap()
            .eject(&"r1".into())
            .unwrap();
        sim.node_mut::<ObjectHost>(s2)
            .unwrap()
            .adopt("r1".into(), obj);

        let at_s2 = InterfaceRef {
            node: s2,
            ..at_s1.clone()
        };
        assert_eq!(
            invoker.invoke(&mut sim, &at_s2, "get", vec![]).unwrap(),
            Value::Int(7)
        );
        // The old location no longer serves it.
        assert!(matches!(
            invoker.invoke(&mut sim, &at_s1, "get", vec![]).unwrap_err(),
            OdpError::NoSuchObject(_)
        ));
    }

    #[test]
    fn local_invocation_uses_same_checks() {
        let mut host = ObjectHost::new();
        host.install("r1".into(), Register::new());
        assert!(host
            .invoke_local(&"r1".into(), "set", &[Value::Int(1)])
            .is_ok());
        assert!(matches!(
            host.invoke_local(&"r1".into(), "set", &[]).unwrap_err(),
            OdpError::BadArguments(_)
        ));
        assert!(host.object::<Register>(&"r1".into()).is_some());
        assert_eq!(host.object_count(), 1);
    }
}
