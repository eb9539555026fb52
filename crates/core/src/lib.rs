//! # mocca — the open CSCW environment
//!
//! This crate is the primary contribution of the reproduced paper
//! (Navarro, Prinz, Rodden — *"Open CSCW Systems: Will ODP help?"*,
//! ICDCS 1992): the **MOCCA environment**, a middleware layer between
//! CSCW applications and an ODP platform (the paper's Figure 4) that
//! lets heterogeneous groupware "work in harmony rather than in
//! isolation of each other" (Figure 3).
//!
//! ## The five models (§5)
//!
//! | Model | Module | In one line |
//! |---|---|---|
//! | Organisational | [`org`] | people/roles/resources/projects, relations, deontic rules, directory-backed knowledge base, trading policy |
//! | Inter-activity | [`activity`] | activities, membership, temporal/resource/information dependencies, negotiation, monitoring |
//! | Information | [`info`] | information objects, composition/dependency relations, role-based access, shared repository |
//! | Communication | [`comm`] | communicators, contexts, and one channel API over live sessions and X.400 |
//! | User expertise | [`expertise`] | capabilities (individual) and responsibilities (organisation-imposed) |
//!
//! ## The four CSCW transparencies (§4)
//!
//! [`transparency`] implements organisation, time, view and activity
//! transparency — all **user-selectable** ([`tailor`]), which is the
//! paper's main demand on ODP (§6.1).
//!
//! ## The environment (§3)
//!
//! [`env::CscwEnvironment`] assembles everything, registers
//! applications with one format mapping each ([`env::InteropHub`],
//! Figure 3) and offers the closed pairwise world as an explicit
//! baseline ([`env::ClosedWorld`], Figure 2).
//!
//! ## The platform ([`platform`])
//!
//! Substrates: `cscw-kernel` (clocks, telemetry, layered errors),
//! `simnet` (network), `cscw-directory` (X.500), `cscw-messaging`
//! (X.400), `odp` (trader, transparencies, viewpoints). The
//! environment reaches them only through the [`platform::Platform`]
//! ports. Operations that share state across applications —
//! `exchange`, `store_object`, `publish_knowledge`, `register_app` —
//! lower through those ports onto the trader, directory and MTS
//! (in-process on [`platform::LocalPlatform`], across a simulated
//! network on [`platform::SimPlatform`]); purely model-local
//! operations (activity bookkeeping, expertise queries, tailoring)
//! stay in the environment layer. That is Figure 4's subset claim at
//! the granularity the code actually implements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod comm;
pub mod env;
mod error;
pub mod expertise;
pub mod federation;
pub mod info;
pub mod org;
pub mod platform;
pub mod tailor;
pub mod transparency;

pub use env::CscwEnvironment;
pub use error::MoccaError;
pub use federation::{ConvergenceReport, FederatedEnvironments, RunReport};
pub use platform::{
    DirectoryPort, LocalPlatform, Platform, ResilientPlatform, SimPlatform, TraderPort,
    TransportPort,
};
