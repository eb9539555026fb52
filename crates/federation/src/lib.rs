//! # cscw-federation — inter-environment federation
//!
//! The paper's Figure 3 turns N mutually-ignorant groupware
//! applications into an interoperating federation *within one*
//! environment. This crate extends the claim *across* environments:
//! N `CscwEnvironment` instances, each on its own platform, federated
//! by three mechanisms:
//!
//! * **Trader interworking** ([`FederatedTrader`]) — ODP's "linked
//!   traders": service queries that miss locally are forwarded across
//!   directed links, breadth-first, bounded by a hop budget and a
//!   visited set, with TTL-cached remote offers.
//! * **Anti-entropy knowledge replication** ([`ReplicatedStore`]) —
//!   the Information and Organisational models replicate as versioned
//!   entries, each carrying one Lamport stamp, with causal per-origin
//!   delivery and deterministic conflict resolution;
//!   periodic digest exchange + delta sync ride the messaging layer as
//!   [`cscw_messaging::gossip`] frames.
//! * **Remote exchange routing** ([`FederationFabric`],
//!   [`FederationPort`]) — an environment whose local trader cannot
//!   locate an exchange partner resolves it through the federation and
//!   routes the artifact (lowered to the common information model) to
//!   the hosting environment.
//!
//! The crate holds mechanisms only. Every site joins the fabric under
//! a dense [`SiteId`], and the calls made per gossip or pump take that
//! id. What paces them lives one layer up: the environment crate's
//! federation driver owns the one event queue and runs gossip, pumps,
//! offer-TTL sweeps and link changes as its own scheduled events.
//!
//! In the Figure-4 stack the federation layer sits between the ODP
//! functions and the environment: it is built *from* odp + messaging
//! vocabulary and consumed *by* the environment through the
//! [`FederationPort`] — the environment never names its peers
//! (organisation + view transparency across sites).

#![warn(missing_docs)]

pub mod error;
pub mod fabric;
pub mod replica;
pub mod trader;

pub use error::FederationError;
pub use fabric::{DomainPort, FederationFabric, FederationPort, RemoteDelivery, SiteId};
pub use replica::{IngestReport, ReplEntry, ReplicatedStore};
pub use trader::{FederatedTrader, Resolution, ResolutionSource, DEFAULT_HOP_LIMIT};
