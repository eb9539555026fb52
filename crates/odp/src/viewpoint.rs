//! The five ODP viewpoints and cross-viewpoint consistency.
//!
//! The Basic Reference Model describes a system from five viewpoints —
//! enterprise, information, computational, engineering and technology —
//! each "a different set of abstractions of the original system" (§6.1).
//! The paper's design-trajectory point is that CSCW applications should
//! *start* from the enterprise or information viewpoint; the MOCCA
//! organisational model populates the enterprise specification here.
//!
//! [`SystemSpec::check_consistency`] implements the cross-viewpoint
//! checks that make the five descriptions one system rather than five
//! documents.

use crate::error::OdpError;

/// The five viewpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Viewpoint {
    /// Purpose, scope, policies: communities, roles, obligations.
    Enterprise,
    /// Semantics of information and information processing.
    Information,
    /// Functional decomposition into objects with interfaces.
    Computational,
    /// Mechanisms for distribution: nodes, capsules, channels.
    Engineering,
    /// Concrete technology choices.
    Technology,
}

/// Deontic modality of an enterprise policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The role must perform the behaviour.
    Obligation,
    /// The role may perform the behaviour.
    Permission,
    /// The role must not perform the behaviour.
    Prohibition,
}

/// One enterprise policy statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnterprisePolicy {
    /// Which role it binds.
    pub role: String,
    /// Modality.
    pub kind: PolicyKind,
    /// The behaviour, by name.
    pub behaviour: String,
}

/// The enterprise specification: communities, roles, policies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnterpriseSpec {
    /// Communities (e.g. organisations, projects).
    pub communities: Vec<String>,
    /// Roles that must be filled.
    pub roles: Vec<String>,
    /// Policy statements over roles.
    pub policies: Vec<EnterprisePolicy>,
}

/// The information specification: named schemata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InformationSpec {
    /// Invariant schemata: always-true predicates, by name.
    pub invariants: Vec<String>,
    /// Static schemata: state snapshots, by name.
    pub statics: Vec<String>,
    /// Dynamic schemata: permitted state changes, by name.
    pub dynamics: Vec<String>,
}

/// One computational object declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputationalObjectDecl {
    /// The object name.
    pub name: String,
    /// Interface type names it offers.
    pub interfaces: Vec<String>,
    /// The enterprise role it fulfils, when any.
    pub fulfils_role: Option<String>,
}

/// The computational specification.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComputationalSpec {
    /// Declared objects.
    pub objects: Vec<ComputationalObjectDecl>,
    /// Declared interface type names.
    pub interface_types: Vec<String>,
}

/// One engineering placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The computational object placed.
    pub object: String,
    /// The node (by name) it runs on.
    pub node: String,
}

/// The engineering specification.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineeringSpec {
    /// Node names.
    pub nodes: Vec<String>,
    /// Object placements.
    pub placements: Vec<Placement>,
    /// Channels as (client object, server object) pairs.
    pub channels: Vec<(String, String)>,
}

/// The technology specification.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TechnologySpec {
    /// Implementation choices as (component, technology) pairs.
    pub choices: Vec<(String, String)>,
}

/// A complete five-viewpoint system description.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemSpec {
    /// Enterprise viewpoint.
    pub enterprise: EnterpriseSpec,
    /// Information viewpoint.
    pub information: InformationSpec,
    /// Computational viewpoint.
    pub computational: ComputationalSpec,
    /// Engineering viewpoint.
    pub engineering: EngineeringSpec,
    /// Technology viewpoint.
    pub technology: TechnologySpec,
}

impl SystemSpec {
    /// Cross-viewpoint consistency checks:
    ///
    /// 1. every engineering placement names a declared computational
    ///    object and a declared node;
    /// 2. every computational object is placed somewhere;
    /// 3. every enterprise role is fulfilled by some computational
    ///    object;
    /// 4. every channel endpoint is a placed object;
    /// 5. every policy binds a declared role.
    ///
    /// # Errors
    ///
    /// [`OdpError::InconsistentViewpoints`] naming the first violation.
    pub fn check_consistency(&self) -> Result<(), OdpError> {
        let fail = |reason: String| Err(OdpError::InconsistentViewpoints(reason));
        let declared: Vec<&str> = self
            .computational
            .objects
            .iter()
            .map(|o| o.name.as_str())
            .collect();

        for p in &self.engineering.placements {
            if !declared.contains(&p.object.as_str()) {
                return fail(format!("placement of undeclared object {:?}", p.object));
            }
            if !self.engineering.nodes.contains(&p.node) {
                return fail(format!("placement on undeclared node {:?}", p.node));
            }
        }
        for o in &self.computational.objects {
            if !self
                .engineering
                .placements
                .iter()
                .any(|p| p.object == o.name)
            {
                return fail(format!("object {:?} has no engineering placement", o.name));
            }
        }
        for role in &self.enterprise.roles {
            if !self
                .computational
                .objects
                .iter()
                .any(|o| o.fulfils_role.as_deref() == Some(role))
            {
                return fail(format!("enterprise role {role:?} fulfilled by no object"));
            }
        }
        for (a, b) in &self.engineering.channels {
            for end in [a, b] {
                if !self.engineering.placements.iter().any(|p| &p.object == end) {
                    return fail(format!("channel endpoint {end:?} is not placed"));
                }
            }
        }
        for policy in &self.enterprise.policies {
            if !self.enterprise.roles.contains(&policy.role) {
                return fail(format!("policy binds undeclared role {:?}", policy.role));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consistent_spec() -> SystemSpec {
        SystemSpec {
            enterprise: EnterpriseSpec {
                communities: vec!["channel-tunnel-project".into()],
                roles: vec!["coordinator".into()],
                policies: vec![EnterprisePolicy {
                    role: "coordinator".into(),
                    kind: PolicyKind::Obligation,
                    behaviour: "schedule-progress-meetings".into(),
                }],
            },
            information: InformationSpec {
                invariants: vec!["every activity has an owner".into()],
                statics: vec!["activity state".into()],
                dynamics: vec!["activity transitions".into()],
            },
            computational: ComputationalSpec {
                objects: vec![ComputationalObjectDecl {
                    name: "scheduler".into(),
                    interfaces: vec!["scheduling".into()],
                    fulfils_role: Some("coordinator".into()),
                }],
                interface_types: vec!["scheduling".into()],
            },
            engineering: EngineeringSpec {
                nodes: vec!["lancaster-1".into()],
                placements: vec![Placement {
                    object: "scheduler".into(),
                    node: "lancaster-1".into(),
                }],
                channels: vec![],
            },
            technology: TechnologySpec {
                choices: vec![("wire".into(), "osi-tp4".into())],
            },
        }
    }

    #[test]
    fn consistent_spec_passes() {
        assert!(consistent_spec().check_consistency().is_ok());
    }

    #[test]
    fn unplaced_object_fails() {
        let mut s = consistent_spec();
        s.engineering.placements.clear();
        let err = s.check_consistency().unwrap_err();
        assert!(err.to_string().contains("no engineering placement"));
    }

    #[test]
    fn placement_of_ghost_object_fails() {
        let mut s = consistent_spec();
        s.engineering.placements.push(Placement {
            object: "ghost".into(),
            node: "lancaster-1".into(),
        });
        assert!(s.check_consistency().is_err());
    }

    #[test]
    fn placement_on_ghost_node_fails() {
        let mut s = consistent_spec();
        s.engineering.placements[0].node = "atlantis".into();
        assert!(s.check_consistency().is_err());
    }

    #[test]
    fn unfulfilled_role_fails() {
        let mut s = consistent_spec();
        s.enterprise.roles.push("auditor".into());
        let err = s.check_consistency().unwrap_err();
        assert!(err.to_string().contains("auditor"));
    }

    #[test]
    fn dangling_channel_endpoint_fails() {
        let mut s = consistent_spec();
        s.engineering
            .channels
            .push(("scheduler".into(), "nowhere".into()));
        assert!(s.check_consistency().is_err());
    }

    #[test]
    fn policy_on_undeclared_role_fails() {
        let mut s = consistent_spec();
        s.enterprise.policies.push(EnterprisePolicy {
            role: "phantom".into(),
            kind: PolicyKind::Prohibition,
            behaviour: "anything".into(),
        });
        assert!(s.check_consistency().is_err());
    }
}
