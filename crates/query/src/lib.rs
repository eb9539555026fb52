//! # cscw-query — standing queries over directory + replicated knowledge
//!
//! The paper's central claim is that open CSCW systems need
//! *selective awareness*: cooperating users at autonomously-managed
//! sites must learn about relevant changes to the shared
//! organisational context without polling it. This crate supplies the
//! mechanism as a layer between the federation fabric and the
//! environment in the Figure-4 stack:
//!
//! * a small **query language** ([`lang`](crate) internals, grammar in
//!   the DESIGN notes) that compiles onto the directory's
//!   [`Filter`](cscw_directory::Filter) combinators, adds org-model
//!   edge traversal (`member-of`, `works-on`, `occupies`, including
//!   one-hop joins such as `works-on (projectstate = active)`), and
//!   `key`/`value` predicates over replicated knowledge;
//! * an **incremental [`SubscriptionRegistry`]** that evaluates
//!   standing queries against change *deltas* instead of re-scanning
//!   the population, and pushes [`QueryDelta`]s
//!   (`Added`/`Removed`/`Changed`) to subscribers. Changes arrive
//!   through one [`apply`](SubscriptionRegistry::apply): the resolved
//!   values of replicated-knowledge keys (what a gossip ingest
//!   applied, or a local publish), then the directory mutations a
//!   recording [`Dit`](cscw_directory::Dit) logged.
//!
//! Interest indexes (per-attribute, per-key-prefix, and a reverse
//! edge-occurrence map for joins) keep the per-change cost
//! proportional to the number of *affected* subscriptions and
//! entries, not to the population size; the
//! [`rescans`](SubscriptionRegistry::rescans) counter lets callers
//! assert the zero-re-scan property end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
mod error;
mod lang;
mod registry;

pub use compile::{CompiledQuery, Source};
pub use error::QueryError;
pub use registry::{QueryDelta, SubscriptionId, SubscriptionRegistry};
