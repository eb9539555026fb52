//! Access control over information objects.
//!
//! §4: "appropriate access control mechanisms. (Traditionally, roles
//! have been used to signify different access rights of users.)"
//! Grants name either a person or a role DN; a person holds a right when
//! they are granted it directly or through any role they occupy.
//! Rights are ordered (`Share > Write > Read`): a higher grant implies
//! the lower ones. The owner always holds every right.

use cscw_directory::Dn;
use std::collections::BTreeMap;

use crate::error::MoccaError;
use crate::info::object::InfoObjectId;
use crate::org::OrganisationalModel;

/// Rights over an information object, in increasing order of power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessRight {
    /// May read the object.
    Read,
    /// May update the object (implies read).
    Write,
    /// May grant access to others (implies write).
    Share,
}

/// One grant: a principal (person or role DN) holds a right.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// The person or role.
    pub principal: Dn,
    /// The right held.
    pub right: AccessRight,
}

/// Per-object access control lists.
#[derive(Debug, Clone, Default)]
pub struct AccessControl {
    acls: BTreeMap<InfoObjectId, Vec<Grant>>,
    owners: BTreeMap<InfoObjectId, Dn>,
}

impl AccessControl {
    /// Creates empty ACLs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the object's owner (who implicitly holds every right).
    pub fn set_owner(&mut self, object: InfoObjectId, owner: Dn) {
        self.owners.insert(object, owner);
    }

    /// Grants a right (idempotent; a stronger existing grant is kept).
    pub fn grant(&mut self, object: &InfoObjectId, principal: Dn, right: AccessRight) {
        let acl = self.acls.entry(object.clone()).or_default();
        if let Some(existing) = acl.iter_mut().find(|g| g.principal == principal) {
            if existing.right < right {
                existing.right = right;
            }
        } else {
            acl.push(Grant { principal, right });
        }
    }

    /// Revokes every grant the principal has on the object; returns
    /// whether anything was removed. Ownership is not revocable.
    pub fn revoke(&mut self, object: &InfoObjectId, principal: &Dn) -> bool {
        match self.acls.get_mut(object) {
            Some(acl) => {
                let before = acl.len();
                acl.retain(|g| &g.principal != principal);
                acl.len() != before
            }
            None => false,
        }
    }

    /// The grants on an object.
    pub fn grants(&self, object: &InfoObjectId) -> &[Grant] {
        self.acls.get(object).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Does `person` hold `right` on `object`? Checks ownership, direct
    /// grants, and grants to any organisational role the person
    /// occupies. Removing a role can therefore never *add* access
    /// (monotonicity — property-tested).
    pub fn check(
        &self,
        org: &OrganisationalModel,
        person: &Dn,
        right: AccessRight,
        object: &InfoObjectId,
    ) -> bool {
        if self.owners.get(object) == Some(person) {
            return true;
        }
        let Some(acl) = self.acls.get(object) else {
            return false;
        };
        let roles = org.roles_of(person);
        acl.iter()
            .any(|g| g.right >= right && (&g.principal == person || roles.contains(&g.principal)))
    }

    /// [`AccessControl::check`] as a `Result`.
    ///
    /// # Errors
    ///
    /// [`MoccaError::AccessDenied`] when the right is not held.
    pub fn require(
        &self,
        org: &OrganisationalModel,
        person: &Dn,
        right: AccessRight,
        object: &InfoObjectId,
    ) -> Result<(), MoccaError> {
        if self.check(org, person, right, object) {
            Ok(())
        } else {
            Err(MoccaError::AccessDenied {
                who: person.to_string(),
                action: format!("{right:?}").to_lowercase(),
                target: object.to_string(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::{Person, RelationKind, Role};

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn org() -> OrganisationalModel {
        let mut m = OrganisationalModel::new();
        m.add_person(Person::new(dn("cn=Tom"), "Tom"));
        m.add_person(Person::new(dn("cn=Wolfgang"), "Wolfgang"));
        m.add_person(Person::new(dn("cn=Leandro"), "Leandro"));
        m.add_role(Role::new(dn("cn=editors"), "editors"));
        m.relate(
            &dn("cn=Wolfgang"),
            RelationKind::Occupies,
            &dn("cn=editors"),
        )
        .unwrap();
        m
    }

    fn doc() -> InfoObjectId {
        "doc:report".into()
    }

    #[test]
    fn owner_holds_everything() {
        let mut ac = AccessControl::new();
        ac.set_owner(doc(), dn("cn=Tom"));
        let org = org();
        for right in [AccessRight::Read, AccessRight::Write, AccessRight::Share] {
            assert!(ac.check(&org, &dn("cn=Tom"), right, &doc()));
        }
        assert!(!ac.check(&org, &dn("cn=Leandro"), AccessRight::Read, &doc()));
    }

    #[test]
    fn higher_rights_imply_lower() {
        let mut ac = AccessControl::new();
        ac.grant(&doc(), dn("cn=Leandro"), AccessRight::Write);
        let org = org();
        assert!(ac.check(&org, &dn("cn=Leandro"), AccessRight::Read, &doc()));
        assert!(ac.check(&org, &dn("cn=Leandro"), AccessRight::Write, &doc()));
        assert!(!ac.check(&org, &dn("cn=Leandro"), AccessRight::Share, &doc()));
    }

    #[test]
    fn role_grants_reach_occupants() {
        let mut ac = AccessControl::new();
        ac.grant(&doc(), dn("cn=editors"), AccessRight::Write);
        let org = org();
        assert!(ac.check(&org, &dn("cn=Wolfgang"), AccessRight::Write, &doc()));
        assert!(
            !ac.check(&org, &dn("cn=Leandro"), AccessRight::Read, &doc()),
            "not an editor"
        );
    }

    #[test]
    fn regrant_keeps_strongest() {
        let mut ac = AccessControl::new();
        ac.grant(&doc(), dn("cn=Leandro"), AccessRight::Share);
        ac.grant(&doc(), dn("cn=Leandro"), AccessRight::Read);
        let org = org();
        assert!(ac.check(&org, &dn("cn=Leandro"), AccessRight::Share, &doc()));
        assert_eq!(ac.grants(&doc()).len(), 1);
    }

    #[test]
    fn revoke_removes_access() {
        let mut ac = AccessControl::new();
        ac.grant(&doc(), dn("cn=Leandro"), AccessRight::Read);
        assert!(ac.revoke(&doc(), &dn("cn=Leandro")));
        assert!(!ac.revoke(&doc(), &dn("cn=Leandro")));
        let org = org();
        assert!(!ac.check(&org, &dn("cn=Leandro"), AccessRight::Read, &doc()));
    }

    #[test]
    fn require_formats_denial() {
        let ac = AccessControl::new();
        let org = org();
        let err = ac
            .require(&org, &dn("cn=Leandro"), AccessRight::Write, &doc())
            .unwrap_err();
        assert!(err.to_string().contains("may not write"));
    }
}
