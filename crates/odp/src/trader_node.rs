//! A trader as an engineering object: the trading function served over
//! the simulated network.
//!
//! The in-memory [`Trader`](crate::Trader) is the computational view; a
//! [`TraderNode`] places it on a `simnet` node so importers elsewhere
//! reach it by message — which is how ODP deployments actually ran the
//! trading function. A [`RemoteTrader`] is the importer-side facade.

use std::collections::BTreeMap;

use cscw_kernel::Layer;
use cscw_messaging::net::{Message, Node, NodeCtx, NodeId, Payload, Sim};

use crate::error::OdpError;
use crate::interface::InterfaceType;
use crate::object::InterfaceRef;
use crate::trader::{ImportRequest, OfferId, ServiceOffer, Trader};
use crate::value::Value;

/// The trader wire protocol.
#[derive(Debug)]
pub enum TraderPdu {
    /// Export an offer.
    Export {
        /// Correlation id.
        req_id: u64,
        /// Who gets the reply.
        reply_to: NodeId,
        /// The service type to export under.
        service_type: String,
        /// The offered interface's full type.
        offering_type: InterfaceType,
        /// The interface reference.
        interface: InterfaceRef,
        /// Offer properties.
        properties: Vec<(String, Value)>,
    },
    /// Import matching offers.
    Import {
        /// Correlation id.
        req_id: u64,
        /// Who gets the reply.
        reply_to: NodeId,
        /// The request.
        request: ImportRequest,
    },
    /// Reply to an export.
    ExportReply {
        /// Correlation id.
        req_id: u64,
        /// The offer id, or why not.
        result: Result<OfferId, OdpError>,
    },
    /// Reply to an import.
    ImportReply {
        /// Correlation id.
        req_id: u64,
        /// Matching offers, or why none.
        result: Result<Vec<ServiceOffer>, OdpError>,
    },
}

/// A trader bound to a network node.
#[derive(Debug)]
pub struct TraderNode {
    trader: Trader,
}

impl TraderNode {
    /// Wraps a trader for network service.
    pub fn new(trader: Trader) -> Self {
        TraderNode { trader }
    }

    /// The wrapped trader (e.g. to register service types or policies).
    pub fn trader_mut(&mut self) -> &mut Trader {
        &mut self.trader
    }

    /// Read access to the wrapped trader.
    pub fn trader(&self) -> &Trader {
        &self.trader
    }
}

impl Node for TraderNode {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        let Ok(pdu) = msg.payload.downcast::<TraderPdu>() else {
            return;
        };
        match pdu {
            TraderPdu::Export {
                req_id,
                reply_to,
                service_type,
                offering_type,
                interface,
                properties,
            } => {
                let t = ctx.telemetry();
                t.incr(Layer::Odp, "trader.export");
                t.emit(
                    ctx.now_micros(),
                    Layer::Odp,
                    "trader.export",
                    format_args!("req {req_id}: offer of {service_type}"),
                );
                // `export` takes 'static keys for ergonomic inline use;
                // the wire carries owned strings, so go through the
                // dynamic path.
                let result = self.trader.export_dynamic(
                    &service_type,
                    &offering_type,
                    interface,
                    properties,
                );
                ctx.send(
                    reply_to,
                    Payload::new(TraderPdu::ExportReply { req_id, result }),
                );
            }
            TraderPdu::Import {
                req_id,
                reply_to,
                request,
            } => {
                let t = ctx.telemetry();
                t.incr(Layer::Odp, "trader.import");
                t.emit(
                    ctx.now_micros(),
                    Layer::Odp,
                    "trader.import",
                    format_args!("req {req_id}: seeking {}", request.service_type),
                );
                let result = self
                    .trader
                    .import(&request)
                    .map(|offers| offers.into_iter().cloned().collect());
                ctx.send(
                    reply_to,
                    Payload::new(TraderPdu::ImportReply { req_id, result }),
                );
            }
            TraderPdu::ExportReply { .. } | TraderPdu::ImportReply { .. } => {}
        }
    }
}

/// Importer-side reply collector; register on the importing node.
#[derive(Debug, Default)]
pub struct TraderClientNode {
    exports: BTreeMap<u64, Result<OfferId, OdpError>>,
    imports: BTreeMap<u64, Result<Vec<ServiceOffer>, OdpError>>,
}

impl Node for TraderClientNode {
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, msg: Message) {
        match msg.payload.downcast::<TraderPdu>() {
            Ok(TraderPdu::ExportReply { req_id, result }) => {
                self.exports.insert(req_id, result);
            }
            Ok(TraderPdu::ImportReply { req_id, result }) => {
                self.imports.insert(req_id, result);
            }
            _ => {}
        }
    }
}

/// Synchronous facade over a remote trader.
#[derive(Debug, Clone, Copy)]
pub struct RemoteTrader {
    client: NodeId,
    trader: NodeId,
    next_req: u64,
}

impl RemoteTrader {
    /// Creates a facade for `client` (with a [`TraderClientNode`]
    /// registered) against the trader at `trader`.
    pub fn new(client: NodeId, trader: NodeId) -> Self {
        RemoteTrader {
            client,
            trader,
            next_req: 1,
        }
    }

    /// Exports an offer remotely.
    ///
    /// # Errors
    ///
    /// Trader errors, or [`OdpError::Unavailable`] when no reply comes
    /// back (partition/crash).
    pub fn export(
        &mut self,
        sim: &mut Sim,
        service_type: &str,
        offering_type: &InterfaceType,
        interface: InterfaceRef,
        properties: Vec<(String, Value)>,
    ) -> Result<OfferId, OdpError> {
        let req_id = self.next_req;
        self.next_req += 1;
        sim.send_from(
            self.client,
            self.trader,
            Payload::new(TraderPdu::Export {
                req_id,
                reply_to: self.client,
                service_type: service_type.to_owned(),
                offering_type: offering_type.clone(),
                interface,
                properties,
            }),
            256,
        );
        sim.run_until_idle();
        sim.node_mut::<TraderClientNode>(self.client)
            .and_then(|n| n.exports.remove(&req_id))
            .unwrap_or_else(|| Err(OdpError::Unavailable("no export reply".into())))
    }

    /// Imports remotely.
    ///
    /// # Errors
    ///
    /// As for [`RemoteTrader::export`].
    pub fn import(
        &mut self,
        sim: &mut Sim,
        request: ImportRequest,
    ) -> Result<Vec<ServiceOffer>, OdpError> {
        let req_id = self.next_req;
        self.next_req += 1;
        sim.send_from(
            self.client,
            self.trader,
            Payload::new(TraderPdu::Import {
                req_id,
                reply_to: self.client,
                request,
            }),
            128,
        );
        sim.run_until_idle();
        sim.node_mut::<TraderClientNode>(self.client)
            .and_then(|n| n.imports.remove(&req_id))
            .unwrap_or_else(|| Err(OdpError::Unavailable("no import reply".into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::OperationSig;
    use crate::value::ValueKind;
    use simnet::{FaultAction, LinkSpec, TopologyBuilder};

    fn printer_type() -> InterfaceType {
        InterfaceType::new("printer").with_operation(OperationSig::new(
            "print",
            [ValueKind::Text],
            ValueKind::Bool,
        ))
    }

    fn world() -> (Sim, RemoteTrader, NodeId) {
        let mut b = TopologyBuilder::new();
        let client = b.add_node("client");
        let trader_node = b.add_node("trader");
        b.link_both(client, trader_node, LinkSpec::wan());
        let mut sim = Sim::new(b.build(), 23);
        let mut trader = Trader::new("remote");
        trader.register_service_type(printer_type());
        sim.register(trader_node, TraderNode::new(trader));
        sim.register(client, TraderClientNode::default());
        (sim, RemoteTrader::new(client, trader_node), trader_node)
    }

    fn iref() -> InterfaceRef {
        InterfaceRef {
            object: "lp0".into(),
            node: NodeId::from_raw(1),
            interface: "printer".into(),
        }
    }

    #[test]
    fn export_then_import_over_the_wire() {
        let (mut sim, mut remote, _) = world();
        let id = remote
            .export(
                &mut sim,
                "printer",
                &printer_type(),
                iref(),
                vec![("dpi".to_owned(), Value::Int(600))],
            )
            .unwrap();
        let _ = id;
        let offers = remote
            .import(&mut sim, ImportRequest::any("printer"))
            .unwrap();
        assert_eq!(offers.len(), 1);
        assert_eq!(offers[0].property("dpi"), Some(&Value::Int(600)));
        assert!(sim.telemetry().counter(Layer::Odp, "trader.export") == 1);
        assert!(sim.telemetry().counter(Layer::Odp, "trader.import") == 1);
    }

    #[test]
    fn remote_errors_come_back_typed() {
        let (mut sim, mut remote, _) = world();
        let err = remote
            .import(&mut sim, ImportRequest::any("scanner"))
            .unwrap_err();
        assert!(matches!(err, OdpError::UnknownServiceType(_)));
        let err = remote
            .export(
                &mut sim,
                "printer",
                &InterfaceType::new("empty"),
                iref(),
                vec![],
            )
            .unwrap_err();
        assert!(matches!(err, OdpError::NotConformant { .. }));
    }

    #[test]
    fn crashed_trader_is_unavailable() {
        let (mut sim, mut remote, trader_node) = world();
        sim.apply_fault(FaultAction::Crash(trader_node));
        let err = remote
            .import(&mut sim, ImportRequest::any("printer"))
            .unwrap_err();
        assert!(matches!(err, OdpError::Unavailable(_)));
    }
}
