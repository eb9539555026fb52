//! Explicit binding and channels.
//!
//! The ODP engineering model connects computational objects through
//! **channels** composed of stubs (marshalling), binders (integrity of
//! the binding) and protocol objects (the wire). [`Binder::bind`] builds
//! a [`Channel`] after checking interface conformance, and the channel
//! then counts the per-layer work it does — the observable cost of the
//! engineering structure that the F4 bench reports.

use cscw_messaging::net::{NodeId, Sim};

use crate::error::OdpError;
use crate::interface::InterfaceType;
use crate::object::{InterfaceRef, Invoker};
use crate::value::Value;

/// Per-channel accounting of engineering-layer work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Operations sent through the channel.
    pub invocations: u64,
    /// Bytes marshalled by the client stub.
    pub marshalled_bytes: u64,
    /// Binder integrity checks performed.
    pub binder_checks: u64,
}

/// An established binding between a client and a server interface.
#[derive(Debug)]
pub struct Channel {
    invoker: Invoker,
    server: InterfaceRef,
    /// Interface type agreed at bind time; operations outside it are
    /// refused by the client stub before anything hits the wire.
    contract: InterfaceType,
    stats: ChannelStats,
}

impl Channel {
    /// The interface this channel is bound to.
    pub fn server(&self) -> &InterfaceRef {
        &self.server
    }

    /// Work counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Invokes through the channel: stub check, marshalling accounting,
    /// binder check, then the wire.
    ///
    /// # Errors
    ///
    /// * [`OdpError::NoSuchOperation`] / [`OdpError::BadArguments`] —
    ///   refused by the client stub (never reaches the wire).
    /// * Whatever the remote end returns.
    pub fn invoke(&mut self, sim: &mut Sim, op: &str, args: Vec<Value>) -> Result<Value, OdpError> {
        // Client stub: signature check against the bind-time contract.
        let sig = self
            .contract
            .operation(op)
            .ok_or_else(|| OdpError::NoSuchOperation {
                object: self.server.object.to_string(),
                operation: op.to_owned(),
            })?;
        sig.check_args(&args)?;
        self.stats.marshalled_bytes += args.iter().map(Value::wire_size).sum::<u64>();
        // Binder: binding integrity (the server ref is still the one we
        // bound; a real binder would validate epochs/leases).
        self.stats.binder_checks += 1;
        self.stats.invocations += 1;
        // Protocol object: the wire.
        self.invoker.invoke(sim, &self.server, op, args)
    }
}

/// Establishes channels.
#[derive(Debug, Clone, Copy)]
pub struct Binder {
    client: NodeId,
}

impl Binder {
    /// Creates a binder acting for `client` (which must have an
    /// [`crate::object::InvokerNode`] registered).
    pub fn new(client: NodeId) -> Self {
        Binder { client }
    }

    /// Binds to `server`, agreeing on `required` as the contract.
    ///
    /// `offered` is the server's declared interface type (e.g. from a
    /// trader offer's service type); it must conform to `required`.
    ///
    /// # Errors
    ///
    /// [`OdpError::NotConformant`] when the offered interface does not
    /// satisfy the required contract.
    pub fn bind(
        &self,
        server: InterfaceRef,
        offered: &InterfaceType,
        required: &InterfaceType,
    ) -> Result<Channel, OdpError> {
        offered.conforms_to(required)?;
        Ok(Channel {
            invoker: Invoker::new(self.client),
            server,
            contract: required.clone(),
            stats: ChannelStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::OperationSig;
    use crate::object::{ComputationalObject, InvokerNode, ObjectHost};
    use crate::value::ValueKind;
    use simnet::{LinkSpec, TopologyBuilder};

    struct EchoObj {
        iface: InterfaceType,
    }
    impl EchoObj {
        fn new() -> Self {
            EchoObj {
                iface: InterfaceType::new("echo")
                    .with_operation(OperationSig::new(
                        "echo",
                        [ValueKind::Text],
                        ValueKind::Text,
                    ))
                    .with_operation(OperationSig::new("extra", [], ValueKind::Unit)),
            }
        }
    }
    impl ComputationalObject for EchoObj {
        fn interface(&self) -> &InterfaceType {
            &self.iface
        }
        fn invoke(&mut self, op: &str, args: &[Value]) -> Result<Value, OdpError> {
            match op {
                "echo" => Ok(args[0].clone()),
                _ => Ok(Value::Unit),
            }
        }
    }

    fn world() -> (Sim, NodeId, InterfaceRef, InterfaceType) {
        let mut b = TopologyBuilder::new();
        let client = b.add_node("client");
        let server = b.add_node("server");
        b.link_both(client, server, LinkSpec::lan());
        let mut sim = Sim::new(b.build(), 4);
        let obj = EchoObj::new();
        let offered = obj.iface.clone();
        let mut host = ObjectHost::new();
        host.install("e".into(), obj);
        sim.register(server, host);
        sim.register(client, InvokerNode::default());
        let iref = InterfaceRef {
            object: "e".into(),
            node: server,
            interface: "echo".into(),
        };
        (sim, client, iref, offered)
    }

    #[test]
    fn bind_checks_conformance() {
        let (_sim, client, iref, offered) = world();
        let binder = Binder::new(client);
        let required = InterfaceType::new("echo").with_operation(OperationSig::new(
            "echo",
            [ValueKind::Text],
            ValueKind::Text,
        ));
        assert!(binder.bind(iref.clone(), &offered, &required).is_ok());
        let impossible = required.with_operation(OperationSig::new("missing", [], ValueKind::Unit));
        assert!(matches!(
            binder.bind(iref, &offered, &impossible),
            Err(OdpError::NotConformant { .. })
        ));
    }

    #[test]
    fn channel_invokes_and_counts_work() {
        let (mut sim, client, iref, offered) = world();
        let required = InterfaceType::new("echo").with_operation(OperationSig::new(
            "echo",
            [ValueKind::Text],
            ValueKind::Text,
        ));
        let mut chan = Binder::new(client).bind(iref, &offered, &required).unwrap();
        let v = chan
            .invoke(&mut sim, "echo", vec![Value::from("hi")])
            .unwrap();
        assert_eq!(v, Value::from("hi"));
        let stats = chan.stats();
        assert_eq!(stats.invocations, 1);
        assert_eq!(stats.binder_checks, 1);
        assert_eq!(stats.marshalled_bytes, 4 + 2);
    }

    #[test]
    fn stub_refuses_operations_outside_the_contract() {
        let (mut sim, client, iref, offered) = world();
        // Narrow contract: only `echo`, even though the server also
        // offers `extra`.
        let required = InterfaceType::new("echo").with_operation(OperationSig::new(
            "echo",
            [ValueKind::Text],
            ValueKind::Text,
        ));
        let mut chan = Binder::new(client).bind(iref, &offered, &required).unwrap();
        let before = sim.telemetry().counter(cscw_kernel::Layer::Net, "net.sent");
        let err = chan.invoke(&mut sim, "extra", vec![]).unwrap_err();
        assert!(matches!(err, OdpError::NoSuchOperation { .. }));
        assert_eq!(
            sim.telemetry().counter(cscw_kernel::Layer::Net, "net.sent"),
            before,
            "refused before the wire"
        );
        // Bad arguments equally refused at the stub.
        assert!(matches!(
            chan.invoke(&mut sim, "echo", vec![]).unwrap_err(),
            OdpError::BadArguments(_)
        ));
    }
}
