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
//!   entries under per-environment vector clocks, with causal
//!   per-origin delivery and deterministic conflict resolution;
//!   periodic digest exchange + delta sync ride the messaging layer as
//!   [`cscw_messaging::gossip`] frames.
//! * **Remote exchange routing** ([`FederationFabric`],
//!   [`FederationPort`]) — an environment whose local trader cannot
//!   locate an exchange partner resolves it through the federation and
//!   routes the artifact (lowered to the common information model) to
//!   the hosting environment.
//!
//! All three are *driven* by a fourth piece, the event-driven
//! [`FederationRuntime`]: gossip rounds, offer-TTL expiry and delivery
//! pumping are scheduled events on the kernel's deterministic queue,
//! one jittered periodic timer set per site, so federations of 100+
//! sites run without any hand-cranked coordinator loop.
//!
//! In the Figure-4 stack the federation layer sits between the ODP
//! functions and the environment: it is built *from* odp + messaging
//! vocabulary and consumed *by* the environment through the
//! [`FederationPort`] — the environment never names its peers
//! (organisation + view transparency across sites).

#![warn(missing_docs)]

pub mod clock;
pub mod error;
pub mod fabric;
pub mod replica;
pub mod runtime;
pub mod trader;

pub use clock::{ClockOrder, VectorClock};
pub use error::FederationError;
pub use fabric::{DomainPort, FederationFabric, FederationPort, RemoteDelivery};
pub use replica::{IngestReport, ReplEntry, ReplicatedStore};
pub use runtime::{FedEvent, FederationRuntime, Pulse, DEFAULT_GOSSIP_PERIOD_MICROS};
pub use trader::{FederatedTrader, Resolution, ResolutionSource, DEFAULT_HOP_LIMIT};
