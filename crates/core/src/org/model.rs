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

    /// Full authorisation check: collects the person's roles and
    /// evaluates the rule base.
    pub fn authorise(&self, person: &Dn, action: &str, target_kind: &str) -> Authorisation {
        evaluate(&self.rules, &self.roles_of(person), action, target_kind)
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
}
