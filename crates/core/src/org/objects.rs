//! Organisational objects.
//!
//! "The model is constructed from a set of organisational objects (e.g.
//! resources, projects, people, roles), organisational relations and
//! rules" (§5, The Organisational Model). Identities are directory
//! distinguished names, so the knowledge base can live in the X.500
//! directory as the paper proposes.

use cscw_directory::Dn;
use cscw_messaging::OrAddress;

/// A person known to the organisation.
#[derive(Debug, Clone, PartialEq)]
pub struct Person {
    /// Directory identity.
    pub dn: Dn,
    /// Display name.
    pub name: String,
    /// X.400 mailbox, when the person is reachable by message.
    pub mailbox: Option<OrAddress>,
}

impl Person {
    /// Creates a person.
    pub fn new(dn: Dn, name: impl Into<String>) -> Self {
        Person {
            dn,
            name: name.into(),
            mailbox: None,
        }
    }

    /// Sets the mailbox.
    #[must_use]
    pub fn with_mailbox(mut self, mailbox: OrAddress) -> Self {
        self.mailbox = Some(mailbox);
        self
    }
}

/// An organisational role ("traditionally, roles have been used to
/// signify different access rights of users", §4).
#[derive(Debug, Clone, PartialEq)]
pub struct Role {
    /// Directory identity.
    pub dn: Dn,
    /// Role name (e.g. `project-coordinator`).
    pub name: String,
    /// Free-text description.
    pub description: String,
}

impl Role {
    /// Creates a role.
    pub fn new(dn: Dn, name: impl Into<String>) -> Self {
        Role {
            dn,
            name: name.into(),
            description: String::new(),
        }
    }
}

/// A shareable organisational resource (meeting room, printer,
/// repository…).
#[derive(Debug, Clone, PartialEq)]
pub struct Resource {
    /// Directory identity.
    pub dn: Dn,
    /// Resource name.
    pub name: String,
    /// Kind tag (`meeting-room`, `printer`, `repository`…).
    pub resource_type: String,
}

impl Resource {
    /// Creates a resource.
    pub fn new(dn: Dn, name: impl Into<String>, resource_type: impl Into<String>) -> Self {
        Resource {
            dn,
            name: name.into(),
            resource_type: resource_type.into(),
        }
    }
}

/// A project: a long-lived organisational undertaking that activities
/// belong to (e.g. "building the Channel Tunnel", §3).
#[derive(Debug, Clone, PartialEq)]
pub struct Project {
    /// Directory identity.
    pub dn: Dn,
    /// Project name.
    pub name: String,
}

impl Project {
    /// Creates a project.
    pub fn new(dn: Dn, name: impl Into<String>) -> Self {
        Project {
            dn,
            name: name.into(),
        }
    }
}

/// An organisational unit (department, institute, group).
#[derive(Debug, Clone, PartialEq)]
pub struct OrgUnit {
    /// Directory identity.
    pub dn: Dn,
    /// Unit name.
    pub name: String,
}

impl OrgUnit {
    /// Creates a unit.
    pub fn new(dn: Dn, name: impl Into<String>) -> Self {
        OrgUnit {
            dn,
            name: name.into(),
        }
    }
}

/// A typed relation between two organisational objects (by DN).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrgRelation {
    /// Source object.
    pub from: Dn,
    /// Relation kind.
    pub kind: RelationKind,
    /// Target object.
    pub to: Dn,
}

/// The relation kinds the organisational model tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelationKind {
    /// Person reports to person.
    ReportsTo,
    /// Person is a member of a unit or project.
    MemberOf,
    /// Person occupies a role.
    Occupies,
    /// Role is responsible for a resource, project or activity.
    ResponsibleFor,
    /// A unit owns a resource.
    Owns,
    /// A project belongs to a unit.
    PartOf,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_construct() {
        let dn: Dn = "c=UK,o=Lancaster,cn=Tom Rodden".parse().unwrap();
        let mailbox: OrAddress = "C=UK;O=Lancaster;PN=Tom Rodden".parse().unwrap();
        let p = Person::new(dn.clone(), "Tom Rodden").with_mailbox(mailbox.clone());
        assert_eq!(p.dn, dn);
        assert_eq!(p.mailbox, Some(mailbox));
        let r = Role::new("c=UK,cn=coordinator".parse().unwrap(), "coordinator");
        assert_eq!(r.name, "coordinator");
        let res = Resource::new("c=UK,cn=room1".parse().unwrap(), "Room 1", "meeting-room");
        assert_eq!(res.resource_type, "meeting-room");
    }

    #[test]
    fn relations_are_plain_data() {
        let rel = OrgRelation {
            from: "c=UK,cn=Tom".parse().unwrap(),
            kind: RelationKind::Occupies,
            to: "c=UK,cn=coordinator".parse().unwrap(),
        };
        assert_eq!(rel.kind, RelationKind::Occupies);
        assert_ne!(RelationKind::Occupies, RelationKind::MemberOf);
    }
}
