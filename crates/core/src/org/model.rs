//! The organisational model: objects + relations + rules.
//!
//! "The aim of the organisational model is to make explicit the sharing
//! of organisational resources, policies and regulations" (§5).

use std::cell::{Ref, RefCell, RefMut};
use std::collections::BTreeMap;
use std::rc::Rc;

use cscw_directory::Dn;

use crate::error::MoccaError;
use crate::org::objects::{OrgRelation, OrgUnit, Person, Project, RelationKind, Resource, Role};
use crate::org::rules::{evaluate, Authorisation, OrgRule};

/// The in-memory organisational model.
///
/// All objects are indexed by their directory DN;
/// [`crate::org::knowledge::KnowledgeBase`] mirrors the model into the
/// X.500 directory.
#[derive(Debug, Clone, Default)]
pub struct OrganisationalModel {
    people: BTreeMap<Dn, Person>,
    roles: BTreeMap<Dn, Role>,
    resources: BTreeMap<Dn, Resource>,
    projects: BTreeMap<Dn, Project>,
    units: BTreeMap<Dn, OrgUnit>,
    relations: Vec<OrgRelation>,
    rules: Vec<OrgRule>,
}

impl OrganisationalModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- population -----------------------------------------------------

    /// Adds a person.
    pub fn add_person(&mut self, person: Person) {
        self.people.insert(person.dn.clone(), person);
    }

    /// Adds a role.
    pub fn add_role(&mut self, role: Role) {
        self.roles.insert(role.dn.clone(), role);
    }

    /// Adds a resource.
    pub fn add_resource(&mut self, resource: Resource) {
        self.resources.insert(resource.dn.clone(), resource);
    }

    /// Adds a project.
    pub fn add_project(&mut self, project: Project) {
        self.projects.insert(project.dn.clone(), project);
    }

    /// Adds an organisational unit.
    pub fn add_unit(&mut self, unit: OrgUnit) {
        self.units.insert(unit.dn.clone(), unit);
    }

    /// Records a relation between two known objects.
    ///
    /// # Errors
    ///
    /// [`MoccaError::UnknownOrgObject`] when either endpoint is unknown
    /// to the model.
    pub fn relate(&mut self, from: &Dn, kind: RelationKind, to: &Dn) -> Result<(), MoccaError> {
        for end in [from, to] {
            if !self.knows(end) {
                return Err(MoccaError::UnknownOrgObject(end.to_string()));
            }
        }
        let rel = OrgRelation {
            from: from.clone(),
            kind,
            to: to.clone(),
        };
        if !self.relations.contains(&rel) {
            self.relations.push(rel);
        }
        Ok(())
    }

    /// Adds an authorisation rule.
    pub fn add_rule(&mut self, rule: OrgRule) {
        self.rules.push(rule);
    }

    // ---- lookups --------------------------------------------------------

    /// True when any object with this DN exists.
    pub fn knows(&self, dn: &Dn) -> bool {
        self.people.contains_key(dn)
            || self.roles.contains_key(dn)
            || self.resources.contains_key(dn)
            || self.projects.contains_key(dn)
            || self.units.contains_key(dn)
    }

    /// A person by DN.
    pub fn person(&self, dn: &Dn) -> Option<&Person> {
        self.people.get(dn)
    }

    /// A role by DN.
    pub fn role(&self, dn: &Dn) -> Option<&Role> {
        self.roles.get(dn)
    }

    /// A resource by DN.
    pub fn resource(&self, dn: &Dn) -> Option<&Resource> {
        self.resources.get(dn)
    }

    /// All people.
    pub fn people(&self) -> impl Iterator<Item = &Person> {
        self.people.values()
    }

    /// All resources.
    pub fn resources(&self) -> impl Iterator<Item = &Resource> {
        self.resources.values()
    }

    /// All projects.
    pub fn projects(&self) -> impl Iterator<Item = &Project> {
        self.projects.values()
    }

    /// All organisational units.
    pub fn units(&self) -> impl Iterator<Item = &OrgUnit> {
        self.units.values()
    }

    /// A project by DN.
    pub fn project(&self, dn: &Dn) -> Option<&Project> {
        self.projects.get(dn)
    }

    /// All rules.
    pub fn rules(&self) -> &[OrgRule] {
        &self.rules
    }

    /// All relations.
    pub fn relations(&self) -> &[OrgRelation] {
        &self.relations
    }

    // ---- derived queries -------------------------------------------------

    /// The roles a person occupies.
    pub fn roles_of(&self, person: &Dn) -> Vec<Dn> {
        self.relations
            .iter()
            .filter(|r| r.kind == RelationKind::Occupies && &r.from == person)
            .map(|r| r.to.clone())
            .collect()
    }

    /// The people occupying a role.
    pub fn occupants_of(&self, role: &Dn) -> Vec<Dn> {
        self.relations
            .iter()
            .filter(|r| r.kind == RelationKind::Occupies && &r.to == role)
            .map(|r| r.from.clone())
            .collect()
    }

    /// Members of a unit or project.
    pub fn members_of(&self, group: &Dn) -> Vec<Dn> {
        self.relations
            .iter()
            .filter(|r| r.kind == RelationKind::MemberOf && &r.to == group)
            .map(|r| r.from.clone())
            .collect()
    }

    /// The management chain upward from a person (nearest first).
    /// Cycles are tolerated (each manager appears once).
    pub fn reporting_chain(&self, person: &Dn) -> Vec<Dn> {
        let mut chain = Vec::new();
        let mut current = person.clone();
        loop {
            let next = self
                .relations
                .iter()
                .find(|r| r.kind == RelationKind::ReportsTo && r.from == current)
                .map(|r| r.to.clone());
            match next {
                Some(boss) if !chain.contains(&boss) && boss != *person => {
                    chain.push(boss.clone());
                    current = boss;
                }
                _ => return chain,
            }
        }
    }

    /// The units a person is a member of, in the order the memberships
    /// were recorded. The first is the person's management domain.
    pub fn units_of(&self, person: &Dn) -> Vec<&OrgUnit> {
        self.relations
            .iter()
            .filter(|r| r.kind == RelationKind::MemberOf && &r.from == person)
            .filter_map(|r| self.units.get(&r.to))
            .collect()
    }

    /// What a rule can bind for a person: the roles they occupy and the
    /// units they are a member of.
    fn principals_of(&self, person: &Dn) -> Vec<Dn> {
        let mut principals = self.roles_of(person);
        principals.extend(self.units_of(person).into_iter().map(|u| u.dn.clone()));
        principals
    }

    /// Full authorisation check: evaluates the rule base over the roles
    /// a person occupies and the units they are a member of.
    pub fn authorise(&self, person: &Dn, action: &str, target_kind: &str) -> Authorisation {
        let principals = self.principals_of(person);
        evaluate(&self.rules, &principals, action, target_kind)
    }

    /// The importer's side of every trading decision, for the trader's
    /// [`OrgTradingPolicy`](crate::org::OrgTradingPolicy) and for
    /// [`check_cooperation`](Self::check_cooperation): `importer` must be
    /// permitted `import` on `service:<service_type>` and, for an offer
    /// from organisation `org`, `import-from` on `org:<org>`.
    ///
    /// # Errors
    ///
    /// [`MoccaError::AccessDenied`] naming the first step not permitted.
    pub fn check_import(
        &self,
        importer: &Dn,
        service_type: &str,
        org: Option<&str>,
    ) -> Result<(), MoccaError> {
        let principals = self.principals_of(importer);
        let service = ("import", format!("service:{service_type}"));
        let contract = org.map(|org| ("import-from", format!("org:{org}")));
        for (action, target) in std::iter::once(service).chain(contract) {
            if !evaluate(&self.rules, &principals, action, &target).is_permitted() {
                return Err(MoccaError::AccessDenied {
                    who: importer.to_string(),
                    action: action.to_owned(),
                    target,
                });
            }
        }
        Ok(())
    }

    /// May `importer` use `service_type` provided by `exporter`? A
    /// person's management domain is their first unit; within one unit
    /// no rule is read. Across units the importer must pass
    /// [`check_import`](Self::check_import) from the exporter's unit, and
    /// the exporter must be permitted `export` on `service:<type>`.
    ///
    /// # Errors
    ///
    /// * [`MoccaError::UnknownOrgObject`] — a person is unknown or in no
    ///   unit.
    /// * [`MoccaError::IncompatiblePolicies`] — the rules refuse, with
    ///   the reason in the message.
    pub fn check_cooperation(
        &self,
        importer: &Dn,
        exporter: &Dn,
        service_type: &str,
    ) -> Result<(), MoccaError> {
        let domain_of = |person: &Dn| {
            self.person(person)
                .and_then(|_| self.units_of(person).first().copied())
                .ok_or_else(|| MoccaError::UnknownOrgObject(person.to_string()))
        };
        let (from, to) = (domain_of(importer)?, domain_of(exporter)?);
        if from.dn == to.dn {
            return Ok(());
        }
        let (from, to) = (&from.name, &to.name);
        let reason = match self.check_import(importer, service_type, Some(to)) {
            Err(MoccaError::AccessDenied { action, .. }) if action == "import" => {
                format!("{from} forbids importing {service_type}")
            }
            Err(_) => format!("no federation contract between {from} and {to}"),
            Ok(()) => {
                let service = format!("service:{service_type}");
                if self.authorise(exporter, "export", &service).is_permitted() {
                    return Ok(());
                }
                format!("{to} does not export {service_type}")
            }
        };
        Err(MoccaError::IncompatiblePolicies(reason))
    }

    /// Convenience: authorisation as a `Result`.
    ///
    /// # Errors
    ///
    /// [`MoccaError::AccessDenied`] unless permitted.
    pub fn require(&self, person: &Dn, action: &str, target_kind: &str) -> Result<(), MoccaError> {
        if self.authorise(person, action, target_kind).is_permitted() {
            Ok(())
        } else {
            Err(MoccaError::AccessDenied {
                who: person.to_string(),
                action: action.to_owned(),
                target: target_kind.to_owned(),
            })
        }
    }
}

/// The one organisational model the environment and its trading policy
/// share: cloning the handle shares the model. The stack runs on one
/// thread, so the handle is a `RefCell` and takes no lock; a borrow
/// from [`read`](Self::read) or [`write`](Self::write) must end before
/// a conflicting one starts, or the second panics.
#[derive(Debug, Clone, Default)]
pub struct SharedOrgModel(Rc<RefCell<OrganisationalModel>>);

impl SharedOrgModel {
    /// Shares `model`.
    pub fn new(model: OrganisationalModel) -> Self {
        SharedOrgModel(Rc::new(RefCell::new(model)))
    }

    /// Borrows the model to read it.
    pub fn read(&self) -> Ref<'_, OrganisationalModel> {
        self.0.borrow()
    }

    /// Borrows the model to change it.
    pub fn write(&self) -> RefMut<'_, OrganisationalModel> {
        self.0.borrow_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::rules::RuleKind;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    /// A small Lancaster/GMD world.
    fn model() -> OrganisationalModel {
        let mut m = OrganisationalModel::new();
        m.add_person(Person::new(dn("c=UK,cn=Tom"), "Tom"));
        m.add_person(Person::new(dn("c=UK,cn=Gordon"), "Gordon"));
        m.add_person(Person::new(dn("c=DE,cn=Wolfgang"), "Wolfgang"));
        m.add_role(Role::new(dn("cn=coordinator"), "coordinator"));
        m.add_role(Role::new(dn("cn=member"), "member"));
        m.add_project(Project::new(dn("cn=mocca"), "MOCCA"));
        m.add_resource(Resource::new(dn("cn=room1"), "Room 1", "meeting-room"));
        m.relate(
            &dn("c=UK,cn=Tom"),
            RelationKind::Occupies,
            &dn("cn=coordinator"),
        )
        .unwrap();
        m.relate(&dn("c=UK,cn=Tom"), RelationKind::Occupies, &dn("cn=member"))
            .unwrap();
        m.relate(
            &dn("c=DE,cn=Wolfgang"),
            RelationKind::Occupies,
            &dn("cn=member"),
        )
        .unwrap();
        m.relate(&dn("c=UK,cn=Tom"), RelationKind::MemberOf, &dn("cn=mocca"))
            .unwrap();
        m.relate(
            &dn("c=DE,cn=Wolfgang"),
            RelationKind::MemberOf,
            &dn("cn=mocca"),
        )
        .unwrap();
        m.relate(
            &dn("c=UK,cn=Tom"),
            RelationKind::ReportsTo,
            &dn("c=UK,cn=Gordon"),
        )
        .unwrap();
        m.add_rule(OrgRule::new(
            dn("cn=coordinator"),
            RuleKind::Permit,
            "schedule",
            "activity",
        ));
        m.add_rule(OrgRule::new(dn("cn=member"), RuleKind::Permit, "read", "*"));
        m
    }

    #[test]
    fn relations_require_known_objects() {
        let mut m = model();
        let err = m
            .relate(&dn("cn=ghost"), RelationKind::Occupies, &dn("cn=member"))
            .unwrap_err();
        assert!(matches!(err, MoccaError::UnknownOrgObject(_)));
    }

    #[test]
    fn relate_is_idempotent() {
        let mut m = model();
        let before = m.relations().len();
        m.relate(&dn("c=UK,cn=Tom"), RelationKind::Occupies, &dn("cn=member"))
            .unwrap();
        assert_eq!(m.relations().len(), before);
    }

    #[test]
    fn role_and_membership_queries() {
        let m = model();
        let roles = m.roles_of(&dn("c=UK,cn=Tom"));
        assert_eq!(roles.len(), 2);
        assert_eq!(m.occupants_of(&dn("cn=member")).len(), 2);
        let members = m.members_of(&dn("cn=mocca"));
        assert_eq!(members.len(), 2);
    }

    #[test]
    fn reporting_chain_walks_up() {
        let m = model();
        assert_eq!(
            m.reporting_chain(&dn("c=UK,cn=Tom")),
            vec![dn("c=UK,cn=Gordon")]
        );
        assert!(m.reporting_chain(&dn("c=UK,cn=Gordon")).is_empty());
    }

    #[test]
    fn reporting_cycle_terminates() {
        let mut m = model();
        m.relate(
            &dn("c=UK,cn=Gordon"),
            RelationKind::ReportsTo,
            &dn("c=UK,cn=Tom"),
        )
        .unwrap();
        let chain = m.reporting_chain(&dn("c=UK,cn=Tom"));
        assert_eq!(
            chain,
            vec![dn("c=UK,cn=Gordon")],
            "cycle does not revisit the start"
        );
    }

    #[test]
    fn authorisation_via_roles() {
        let m = model();
        assert!(m
            .authorise(&dn("c=UK,cn=Tom"), "schedule", "activity")
            .is_permitted());
        assert!(!m
            .authorise(&dn("c=DE,cn=Wolfgang"), "schedule", "activity")
            .is_permitted());
        assert!(m
            .require(&dn("c=DE,cn=Wolfgang"), "read", "document")
            .is_ok());
        let err = m
            .require(&dn("c=DE,cn=Wolfgang"), "schedule", "activity")
            .unwrap_err();
        assert!(matches!(err, MoccaError::AccessDenied { .. }));
    }

    #[test]
    fn knows_covers_all_kinds() {
        let m = model();
        for d in ["c=UK,cn=Tom", "cn=coordinator", "cn=mocca", "cn=room1"] {
            assert!(m.knows(&dn(d)), "{d}");
        }
        assert!(!m.knows(&dn("cn=ghost")));
    }

    /// Lancaster, GMD and UPC as management domains: a unit each, its
    /// members, and unit-bound export, import and contract rules.
    /// Nomad works on a project but belongs to no unit.
    fn domains() -> OrganisationalModel {
        let mut m = OrganisationalModel::new();
        for (unit, people) in [
            ("lancaster", &["Tom", "Gordon"][..]),
            ("gmd", &["Wolfgang"]),
            ("upc", &["Leandro"]),
        ] {
            let ou = dn(&format!("ou={unit}"));
            m.add_unit(OrgUnit::new(ou.clone(), unit));
            for name in people {
                let person = dn(&format!("cn={name}"));
                m.add_person(Person::new(person.clone(), *name));
                m.relate(&person, RelationKind::MemberOf, &ou).unwrap();
            }
        }
        m.add_person(Person::new(dn("cn=Nomad"), "Nomad"));
        m.add_project(Project::new(dn("cn=mocca"), "MOCCA"));
        m.relate(&dn("cn=Nomad"), RelationKind::MemberOf, &dn("cn=mocca"))
            .unwrap();
        for (unit, kind, action, target) in [
            (
                "lancaster",
                RuleKind::Permit,
                "export",
                "service:document-store",
            ),
            ("lancaster", RuleKind::Permit, "export", "service:gambling"),
            ("lancaster", RuleKind::Permit, "import", "*"),
            ("lancaster", RuleKind::Permit, "import-from", "org:gmd"),
            ("gmd", RuleKind::Permit, "export", "service:coordination"),
            ("gmd", RuleKind::Permit, "import", "*"),
            ("gmd", RuleKind::Forbid, "import", "service:gambling"),
            ("gmd", RuleKind::Permit, "import-from", "org:lancaster"),
            ("upc", RuleKind::Permit, "export", "service:document-store"),
            ("upc", RuleKind::Permit, "import", "*"),
        ] {
            let ou = dn(&format!("ou={unit}"));
            m.add_rule(OrgRule::new(ou, kind, action, target));
        }
        m
    }

    /// The reason `check_cooperation` gives for refusing.
    fn refusal(m: &OrganisationalModel, importer: &str, exporter: &str, service: &str) -> String {
        match m.check_cooperation(&dn(importer), &dn(exporter), service) {
            Err(MoccaError::IncompatiblePolicies(why)) => why,
            other => panic!("{importer} <- {exporter} over {service}: {other:?}"),
        }
    }

    #[test]
    fn unit_rules_hold_for_every_member() {
        let m = domains();
        let names = |p: &str| -> Vec<String> {
            m.units_of(&dn(p)).iter().map(|u| u.name.clone()).collect()
        };
        assert_eq!(names("cn=Gordon"), ["lancaster"]);
        assert!(names("cn=Nomad").is_empty(), "a project is not a unit");
        assert!(m
            .authorise(&dn("cn=Gordon"), "export", "service:document-store")
            .is_permitted());
        let refused_step = |service: &str, org: Option<&str>| match m.check_import(
            &dn("cn=Wolfgang"),
            service,
            org,
        ) {
            Err(MoccaError::AccessDenied { action, target, .. }) => Some((action, target)),
            Err(other) => panic!("{other}"),
            Ok(()) => None,
        };
        assert_eq!(
            refused_step("gambling", None),
            Some(("import".into(), "service:gambling".into()))
        );
        assert_eq!(
            refused_step("document-store", Some("upc")),
            Some(("import-from".into(), "org:upc".into()))
        );
        assert_eq!(refused_step("document-store", Some("lancaster")), None);
    }

    #[test]
    fn contracted_exported_service_is_allowed_both_ways() {
        let m = domains();
        m.check_cooperation(&dn("cn=Wolfgang"), &dn("cn=Tom"), "document-store")
            .unwrap();
        m.check_cooperation(&dn("cn=Tom"), &dn("cn=Wolfgang"), "coordination")
            .unwrap();
    }

    #[test]
    fn one_unit_cooperates_over_any_service_without_a_rule() {
        let mut m = domains();
        // Not even a unit-wide ban is read inside the unit.
        m.add_rule(OrgRule::new(
            dn("ou=lancaster"),
            RuleKind::Forbid,
            "import",
            "*",
        ));
        assert!(m
            .check_cooperation(&dn("cn=Tom"), &dn("cn=Gordon"), "anything")
            .is_ok());
    }

    #[test]
    fn unexported_service_is_refused() {
        let m = domains();
        // GMD may import anything from Lancaster, which never exports
        // coordination.
        let why = refusal(&m, "cn=Wolfgang", "cn=Tom", "coordination");
        assert!(why.contains("does not export"), "{why}");
        assert_eq!(why, "lancaster does not export coordination");
    }

    #[test]
    fn missing_contract_is_refused() {
        let mut m = domains();
        assert_eq!(
            refusal(&m, "cn=Wolfgang", "cn=Leandro", "document-store"),
            "no federation contract between gmd and upc"
        );
        // A contract rule covers one direction only.
        m.add_rule(OrgRule::new(
            dn("ou=upc"),
            RuleKind::Permit,
            "import-from",
            "org:gmd",
        ));
        assert!(m
            .check_cooperation(&dn("cn=Leandro"), &dn("cn=Wolfgang"), "coordination")
            .is_ok());
        assert_eq!(
            refusal(&m, "cn=Wolfgang", "cn=Leandro", "document-store"),
            "no federation contract between gmd and upc"
        );
    }

    #[test]
    fn forbidden_import_is_refused_first() {
        let m = domains();
        // Lancaster exports gambling and holds a contract with GMD.
        assert_eq!(
            refusal(&m, "cn=Wolfgang", "cn=Tom", "gambling"),
            "gmd forbids importing gambling"
        );
    }

    #[test]
    fn import_is_denied_until_a_unit_permits_it() {
        let mut m = domains();
        let cern = dn("ou=cern");
        m.add_unit(OrgUnit::new(cern.clone(), "cern"));
        m.add_person(Person::new(dn("cn=Tim"), "Tim"));
        m.relate(&dn("cn=Tim"), RelationKind::MemberOf, &cern)
            .unwrap();
        m.add_rule(OrgRule::new(
            cern.clone(),
            RuleKind::Permit,
            "import-from",
            "org:lancaster",
        ));
        assert_eq!(
            refusal(&m, "cn=Tim", "cn=Tom", "document-store"),
            "cern forbids importing document-store"
        );
        m.add_rule(OrgRule::new(cern, RuleKind::Permit, "import", "*"));
        assert!(m
            .check_cooperation(&dn("cn=Tim"), &dn("cn=Tom"), "document-store")
            .is_ok());
    }

    #[test]
    fn unknown_or_unaffiliated_people_are_unknown_org_objects() {
        let m = domains();
        for (importer, exporter) in [
            ("cn=Ghost", "cn=Tom"),
            ("cn=Tom", "cn=Ghost"),
            ("cn=Nomad", "cn=Tom"),
            ("cn=Tom", "cn=Nomad"),
        ] {
            let verdict = m.check_cooperation(&dn(importer), &dn(exporter), "document-store");
            assert!(
                matches!(verdict, Err(MoccaError::UnknownOrgObject(_))),
                "{importer} <- {exporter}: {verdict:?}"
            );
        }
    }
}
