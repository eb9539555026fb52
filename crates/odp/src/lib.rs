//! # odp — an ODP engineering substrate
//!
//! The paper ("Open CSCW Systems: Will ODP help?", ICDCS 1992) argues
//! that open CSCW environments should be built as a specialisation of
//! Open Distributed Processing. This crate implements the ODP Basic
//! Reference Model machinery the paper discusses, over the simulated
//! network:
//!
//! * **Computational model** — [`ComputationalObject`]s with typed
//!   operational interfaces ([`InterfaceType`], [`OperationSig`]) and
//!   structural conformance checking.
//! * **Engineering model** — [`ObjectHost`] capsules on `simnet` nodes,
//!   remote invocation ([`Invoker`]), explicit binding with stub/binder
//!   accounting ([`Binder`], [`Channel`]), and object migration.
//! * **Trader** — typed service offers, constraint/preference imports,
//!   pluggable [`TradingPolicy`] (where the paper attaches the
//!   organisational knowledge base), and the link and query-scope types
//!   federated trading builds on.
//! * **Selective distribution transparencies** — access, location,
//!   migration, replication and failure, composable per call and
//!   tailorable by *users*, as §6.1 demands ([`TransparentInvoker`]).
//! * **Viewpoints** — the five viewpoint specifications with
//!   cross-viewpoint consistency checks ([`SystemSpec`]).
//!
//! The MOCCA environment (`mocca` crate) sits above this layer in the
//! paper's Figure 4, but only its trading operations reach it today:
//! `register_app` exports an offer and `exchange` imports one.
//! `store_object` and `publish_knowledge` go straight to the directory
//! and never touch ODP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binding;
mod error;
mod interface;
mod object;
mod trader;
mod trader_node;
mod transparency;
mod value;
mod viewpoint;

pub use binding::{Binder, Channel, ChannelStats};
pub use error::OdpError;
pub use interface::{InterfaceType, OperationSig};
pub use object::{
    ComputationalObject, InterfaceRef, Invoker, InvokerNode, ObjectHost, ObjectId, OdpPdu,
};
pub use trader::{
    Constraint, ImportRequest, LinkState, OfferId, Preference, QueryScope, ServiceOffer, Trader,
    TraderLink, TradingPolicy,
};
pub use trader_node::{RemoteTrader, TraderClientNode, TraderNode, TraderPdu};
pub use transparency::{
    migrate_object, Locator, OpMode, TransparencySelection, TransparentInvoker,
};
pub use value::{Value, ValueKind};
pub use viewpoint::{
    ComputationalObjectDecl, ComputationalSpec, EngineeringSpec, EnterprisePolicy, EnterpriseSpec,
    InformationSpec, Placement, PolicyKind, SystemSpec, TechnologySpec, Viewpoint,
};
