//! Management domains and inter-domain federation.
//!
//! Open systems span administrations. A [`Domain`] groups objects under
//! one administration's policy; a [`FederationContract`] between two
//! domains states which service types cross the boundary. The paper's
//! *organisation transparency* ("inter-organisational connections
//! should/could hide the complexity of different organisational …
//! policies; sometimes interaction is not possible due to incompatible
//! policies") is implemented over this: the MOCCA layer consults
//! [`DomainRegistry::interaction_allowed`] before binding across
//! organisations.

use std::collections::BTreeMap;

use crate::object::ObjectId;

/// A management domain: a named administration with member objects.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Domain {
    name: String,
    members: Vec<ObjectId>,
    /// Service types this domain exports to federations.
    exported_services: Vec<String>,
    /// Service types this domain refuses to let members import.
    forbidden_imports: Vec<String>,
}

impl Domain {
    /// Creates an empty domain.
    pub fn new(name: impl Into<String>) -> Self {
        Domain {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The domain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a member object.
    pub fn add_member(&mut self, id: ObjectId) {
        if !self.members.contains(&id) {
            self.members.push(id);
        }
    }

    /// True when the object belongs to this domain.
    pub fn contains(&self, id: &ObjectId) -> bool {
        self.members.contains(id)
    }

    /// Declares a service type exported across federations.
    pub fn export_service(&mut self, service_type: impl Into<String>) {
        self.exported_services.push(service_type.into());
    }

    /// Forbids members from importing a service type from anywhere.
    pub fn forbid_import(&mut self, service_type: impl Into<String>) {
        self.forbidden_imports.push(service_type.into());
    }

    /// Whether the domain exports the type.
    pub fn exports(&self, service_type: &str) -> bool {
        self.exported_services.iter().any(|s| s == service_type)
    }

    /// Whether the domain forbids importing the type.
    pub fn forbids_import(&self, service_type: &str) -> bool {
        self.forbidden_imports.iter().any(|s| s == service_type)
    }
}

/// A federation contract between two domains for specific service types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FederationContract {
    /// One party.
    pub a: String,
    /// The other party.
    pub b: String,
    /// Service types allowed to cross in either direction.
    pub service_types: Vec<String>,
}

impl FederationContract {
    /// True when the contract covers the pair (in either order) and the
    /// service type.
    pub fn covers(&self, from: &str, to: &str, service_type: &str) -> bool {
        let pair_ok = (self.a == from && self.b == to) || (self.a == to && self.b == from);
        pair_ok && self.service_types.iter().any(|s| s == service_type)
    }
}

/// All domains and contracts known to one environment.
#[derive(Debug, Clone, Default)]
pub struct DomainRegistry {
    domains: BTreeMap<String, Domain>,
    contracts: Vec<FederationContract>,
}

/// The verdict of an interaction check, with the reason when refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InteractionVerdict {
    /// The interaction may proceed.
    Allowed,
    /// Same domain — trivially allowed, no contract involved.
    AllowedIntraDomain,
    /// Refused: no contract covers the pair and service type.
    NoContract,
    /// Refused: the exporting domain does not export the type.
    NotExported,
    /// Refused: the importing domain forbids importing the type.
    ImportForbidden,
    /// Refused: one of the domains is unknown.
    UnknownDomain(String),
}

impl InteractionVerdict {
    /// True for the allowed verdicts.
    pub fn is_allowed(&self) -> bool {
        matches!(
            self,
            InteractionVerdict::Allowed | InteractionVerdict::AllowedIntraDomain
        )
    }
}

impl DomainRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a domain.
    pub fn add_domain(&mut self, domain: Domain) {
        self.domains.insert(domain.name().to_owned(), domain);
    }

    /// Borrows a domain.
    pub fn domain(&self, name: &str) -> Option<&Domain> {
        self.domains.get(name)
    }

    /// Mutably borrows a domain.
    pub fn domain_mut(&mut self, name: &str) -> Option<&mut Domain> {
        self.domains.get_mut(name)
    }

    /// Records a federation contract.
    pub fn add_contract(&mut self, contract: FederationContract) {
        self.contracts.push(contract);
    }

    /// The domain an object belongs to, if any.
    pub fn domain_of(&self, id: &ObjectId) -> Option<&Domain> {
        self.domains.values().find(|d| d.contains(id))
    }

    /// May `importer_domain` use `service_type` from `exporter_domain`?
    ///
    /// The full inter-organisational check the paper's organisation
    /// transparency relies on.
    pub fn interaction_allowed(
        &self,
        importer_domain: &str,
        exporter_domain: &str,
        service_type: &str,
    ) -> InteractionVerdict {
        let Some(importer) = self.domains.get(importer_domain) else {
            return InteractionVerdict::UnknownDomain(importer_domain.to_owned());
        };
        let Some(exporter) = self.domains.get(exporter_domain) else {
            return InteractionVerdict::UnknownDomain(exporter_domain.to_owned());
        };
        if importer_domain == exporter_domain {
            return InteractionVerdict::AllowedIntraDomain;
        }
        if importer.forbids_import(service_type) {
            return InteractionVerdict::ImportForbidden;
        }
        if !exporter.exports(service_type) {
            return InteractionVerdict::NotExported;
        }
        if !self
            .contracts
            .iter()
            .any(|c| c.covers(importer_domain, exporter_domain, service_type))
        {
            return InteractionVerdict::NoContract;
        }
        InteractionVerdict::Allowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> DomainRegistry {
        let mut reg = DomainRegistry::new();
        let mut lancaster = Domain::new("lancaster");
        lancaster.add_member("doc-store".into());
        lancaster.export_service("document-store");
        let mut gmd = Domain::new("gmd");
        gmd.add_member("coord".into());
        gmd.export_service("coordination");
        gmd.forbid_import("gambling");
        reg.add_domain(lancaster);
        reg.add_domain(gmd);
        reg.add_contract(FederationContract {
            a: "lancaster".into(),
            b: "gmd".into(),
            service_types: vec!["document-store".into(), "coordination".into()],
        });
        reg
    }

    #[test]
    fn contracted_export_is_allowed_both_ways() {
        let reg = registry();
        assert!(reg
            .interaction_allowed("gmd", "lancaster", "document-store")
            .is_allowed());
        assert!(reg
            .interaction_allowed("lancaster", "gmd", "coordination")
            .is_allowed());
    }

    #[test]
    fn intra_domain_needs_no_contract() {
        let reg = registry();
        assert_eq!(
            reg.interaction_allowed("gmd", "gmd", "anything"),
            InteractionVerdict::AllowedIntraDomain
        );
    }

    #[test]
    fn unexported_service_is_refused() {
        let reg = registry();
        // lancaster never exported "coordination".
        assert_eq!(
            reg.interaction_allowed("gmd", "lancaster", "coordination"),
            InteractionVerdict::NotExported
        );
    }

    #[test]
    fn missing_contract_is_refused() {
        let mut reg = registry();
        let mut upc = Domain::new("upc");
        upc.export_service("document-store");
        reg.add_domain(upc);
        assert_eq!(
            reg.interaction_allowed("gmd", "upc", "document-store"),
            InteractionVerdict::NoContract
        );
    }

    #[test]
    fn forbidden_import_is_refused_first() {
        let reg = registry();
        assert_eq!(
            reg.interaction_allowed("gmd", "lancaster", "gambling"),
            InteractionVerdict::ImportForbidden
        );
    }

    #[test]
    fn unknown_domains_are_reported() {
        let reg = registry();
        assert_eq!(
            reg.interaction_allowed("atlantis", "gmd", "x"),
            InteractionVerdict::UnknownDomain("atlantis".into())
        );
        assert!(!reg.interaction_allowed("atlantis", "gmd", "x").is_allowed());
    }

    #[test]
    fn domain_membership_lookup() {
        let reg = registry();
        assert_eq!(
            reg.domain_of(&"doc-store".into()).unwrap().name(),
            "lancaster"
        );
        assert!(reg.domain_of(&"ghost".into()).is_none());
    }

    #[test]
    fn add_member_is_idempotent() {
        let mut d = Domain::new("x");
        d.add_member("a".into());
        d.add_member("a".into());
        assert!(d.contains(&"a".into()));
    }
}
