//! The Organisational Model (§5).
//!
//! "A central motivation for the development of open CSCW systems and
//! the Mocca project is the realisation that organisational context is
//! crucial to the success of CSCW systems."
//!
//! * [`objects`] — people, roles, resources, projects, units, relations.
//! * [`model`] — the aggregate model with derived queries and
//!   role-based authorisation.
//! * [`rules`] — the deontic rule base (permit/forbid/oblige).
//! * [`knowledge`] — the knowledge base published into the X.500
//!   directory (§4's requirement).
//! * [`trading`] — the organisational trading policy attached to the ODP
//!   trader (§6.1's proposal).

pub mod knowledge;
pub mod model;
pub mod objects;
pub mod rules;
pub mod trading;

pub use knowledge::KnowledgeBase;
pub use model::{OrganisationalModel, SharedOrgModel};
pub use objects::{OrgRelation, OrgUnit, Person, Project, RelationKind, Resource, Role};
pub use rules::{evaluate, obligations, Authorisation, OrgRule, RuleKind};
pub use trading::{OrgTradingPolicy, ENV_PRINCIPAL};
