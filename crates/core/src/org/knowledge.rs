//! The organisational knowledge base, stored in the X.500 directory.
//!
//! §4 requires "maintaining a knowledge base of people, resources and
//! on-going activities" with "smooth integration and utilization of
//! standard information repositories, for example, the X.500 directory
//! service". This module publishes the organisational model into a
//! [`Dit`] (or a distributed DSA via [`Dua`]) and answers queries from
//! it, so other environments can interoperate through the standard
//! repository rather than through MOCCA's in-memory structures.

use std::collections::BTreeSet;

use cscw_directory::{Attribute, Dit, Dn, Dua, Entry, Filter, SearchRequest, SearchScope};
use cscw_messaging::net::Sim;

use crate::error::MoccaError;
use crate::org::model::OrganisationalModel;
use crate::org::objects::RelationKind;

/// Publishes organisational objects as directory entries and answers
/// people/resource queries from the directory.
#[derive(Debug)]
pub struct KnowledgeBase {
    dit: Dit,
}

impl Default for KnowledgeBase {
    fn default() -> Self {
        Self::new()
    }
}

impl KnowledgeBase {
    /// Creates an empty knowledge base backed by a local DIT (the
    /// standard schema already carries the CSCW extension classes,
    /// `cscwproject` included).
    pub fn new() -> Self {
        KnowledgeBase { dit: Dit::new() }
    }

    /// The backing DIT.
    pub fn dit(&self) -> &Dit {
        &self.dit
    }

    /// Mutable access to the backing DIT (for callers that maintain
    /// entries beyond what [`publish`](Self::publish) mirrors, e.g.
    /// project state attributes).
    pub fn dit_mut(&mut self) -> &mut Dit {
        &mut self.dit
    }

    /// Ensures every ancestor of `dn` exists, fabricating plain
    /// organisational entries as needed (countries, organizations,
    /// units) so deep publishes never fail on missing parents.
    fn ensure_ancestors(&mut self, dn: &Dn) -> Result<(), MoccaError> {
        let rdns = dn.rdns();
        let mut prefix = Dn::root();
        for rdn in &rdns[..rdns.len().saturating_sub(1)] {
            prefix = prefix.child(rdn.clone());
            if self.dit.get(&prefix).is_some() {
                continue;
            }
            let class = match rdn.attr().as_str() {
                "c" => "country",
                "o" => "organization",
                "ou" => "organizationalunit",
                _ => "organizationalunit",
            };
            let mut entry = Entry::new(prefix.clone()).with_class(class);
            entry.put_attr(Attribute::single(rdn.attr().as_str(), rdn.value()));
            if class == "organizationalunit" && rdn.attr().as_str() != "ou" {
                entry.put_attr(Attribute::single("ou", rdn.value()));
            }
            self.dit.add(entry)?;
        }
        Ok(())
    }

    /// The organisational edges a person carries as directory
    /// attributes: role occupancy, group membership, and project work
    /// (`MemberOf` relations whose target is a project).
    fn person_edges(
        model: &OrganisationalModel,
        person: &Dn,
    ) -> [(&'static str, BTreeSet<String>); 3] {
        let occupies: BTreeSet<String> = model.roles_of(person).iter().map(Dn::to_string).collect();
        let mut memberof = BTreeSet::new();
        let mut workson = BTreeSet::new();
        for rel in model.relations() {
            if rel.kind != RelationKind::MemberOf || &rel.from != person {
                continue;
            }
            memberof.insert(rel.to.to_string());
            if model.project(&rel.to).is_some() {
                workson.insert(rel.to.to_string());
            }
        }
        [
            ("occupiesrole", occupies),
            ("memberof", memberof),
            ("workson", workson),
        ]
    }

    /// Brings an existing entry's edge attributes in line with the
    /// model; a no-op (logging no change) when nothing differs.
    /// Returns 1 when the entry was rewritten.
    fn sync_edges(
        &mut self,
        dn: &Dn,
        desired: &[(&'static str, BTreeSet<String>)],
    ) -> Result<usize, MoccaError> {
        let Some(entry) = self.dit.get(dn) else {
            return Ok(0);
        };
        let differs = desired.iter().any(|(attr, want)| {
            let have: BTreeSet<String> = entry
                .attr(*attr)
                .map(|a| {
                    a.values()
                        .iter()
                        .filter_map(|v| v.as_text())
                        .map(str::to_owned)
                        .collect()
                })
                .unwrap_or_default();
            have != *want
        });
        if !differs {
            return Ok(0);
        }
        self.dit.modify(dn, |e| {
            for (attr, want) in desired {
                if want.is_empty() {
                    e.remove_attr(&(*attr).into());
                } else {
                    e.replace_attr(Attribute::multi(*attr, want.iter().map(String::as_str)));
                }
            }
        })?;
        Ok(1)
    }

    /// Publishes (or republishes) the whole organisational model into
    /// the DIT. Returns how many entries were written (added, or
    /// rewritten because their organisational edges changed —
    /// republishing an unchanged model writes nothing).
    ///
    /// # Errors
    ///
    /// Any [`cscw_directory::DirectoryError`] from entry creation.
    pub fn publish(&mut self, model: &OrganisationalModel) -> Result<usize, MoccaError> {
        let mut written = 0;
        for person in model.people() {
            self.ensure_ancestors(&person.dn)?;
            let edges = Self::person_edges(model, &person.dn);
            if self.dit.get(&person.dn).is_some() {
                written += self.sync_edges(&person.dn, &edges)?;
                continue;
            }
            let mut e = Entry::new(person.dn.clone())
                .with_class("person")
                .with_attr(Attribute::single("cn", person.name.as_str()))
                .with_attr(Attribute::single(
                    "sn",
                    person
                        .name
                        .split_whitespace()
                        .last()
                        .unwrap_or(&person.name),
                ));
            if let Some(mb) = &person.mailbox {
                e.put_attr(Attribute::single("mail", mb.to_string()));
            }
            // Edges become multi-valued attributes for searchability
            // (and for the query layer's edge traversal).
            for (attr, values) in &edges {
                for value in values {
                    e.put_attr(Attribute::single(*attr, value.as_str()));
                }
            }
            self.dit.add(e)?;
            written += 1;
        }
        // Projects and units become entries of their own, so edge
        // targets (`works-on`, `member-of`) resolve within the DIT.
        for project in model.projects() {
            self.ensure_ancestors(&project.dn)?;
            if self.dit.get(&project.dn).is_some() {
                continue;
            }
            let e = Entry::new(project.dn.clone())
                .with_class("cscwproject")
                .with_attr(Attribute::single("cn", project.name.as_str()));
            self.dit.add(e)?;
            written += 1;
        }
        for unit in model.units() {
            self.ensure_ancestors(&unit.dn)?;
            if self.dit.get(&unit.dn).is_some() {
                continue;
            }
            let e = Entry::new(unit.dn.clone())
                .with_class("organizationalunit")
                .with_attr(Attribute::single("ou", unit.name.as_str()));
            self.dit.add(e)?;
            written += 1;
        }
        for resource in model.resources() {
            self.ensure_ancestors(&resource.dn)?;
            if self.dit.get(&resource.dn).is_some() {
                continue;
            }
            let e = Entry::new(resource.dn.clone())
                .with_class("cscwresource")
                .with_attr(Attribute::single("cn", resource.name.as_str()))
                .with_attr(Attribute::single(
                    "resourcetype",
                    resource.resource_type.as_str(),
                ));
            self.dit.add(e)?;
            written += 1;
        }
        Ok(written)
    }

    /// Finds people by filter (e.g. `(occupiesrole=cn=coordinator)`).
    ///
    /// # Errors
    ///
    /// Any directory search error.
    pub fn find_people(&self, filter: Filter) -> Result<Vec<Entry>, MoccaError> {
        let combined = Filter::and([Filter::eq("objectclass", "person"), filter]);
        Ok(self.dit.search_all(combined)?)
    }

    /// Finds resources of a type.
    ///
    /// # Errors
    ///
    /// Any directory search error.
    pub fn find_resources(&self, resource_type: &str) -> Result<Vec<Entry>, MoccaError> {
        Ok(self.dit.search_all(Filter::and([
            Filter::eq("objectclass", "cscwresource"),
            Filter::eq("resourcetype", resource_type),
        ]))?)
    }

    /// Pushes the local knowledge base to a remote DSA via a [`Dua`]
    /// (the distributed deployment the paper assumes). Entries that
    /// already exist remotely are skipped. Returns how many were pushed.
    ///
    /// # Errors
    ///
    /// [`MoccaError::Directory`] on any remote failure other than
    /// "entry exists".
    pub fn push_to_dsa(&self, sim: &mut Sim, dua: &mut Dua) -> Result<usize, MoccaError> {
        let mut pushed = 0;
        for entry in self.dit.iter() {
            match dua.add(sim, entry.clone()) {
                Ok(()) => pushed += 1,
                Err(cscw_directory::DirectoryError::EntryExists(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(pushed)
    }

    /// Queries a remote DSA for people matching a filter.
    ///
    /// # Errors
    ///
    /// Any remote directory error.
    pub fn find_people_remote(
        sim: &mut Sim,
        dua: &mut Dua,
        base: Dn,
        filter: Filter,
    ) -> Result<Vec<Entry>, MoccaError> {
        let combined = Filter::and([Filter::eq("objectclass", "person"), filter]);
        let out = dua.search(
            sim,
            SearchRequest::new(base, SearchScope::Subtree, combined),
        )?;
        Ok(out.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::objects::{Person, Resource, Role};
    use crate::org::RelationKind;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn model() -> OrganisationalModel {
        let mut m = OrganisationalModel::new();
        m.add_person(Person::new(
            dn("c=UK,o=Lancaster,cn=Tom Rodden"),
            "Tom Rodden",
        ));
        m.add_person(Person::new(
            dn("c=DE,o=GMD,cn=Wolfgang Prinz"),
            "Wolfgang Prinz",
        ));
        m.add_role(Role::new(dn("cn=coordinator"), "coordinator"));
        m.relate(
            &dn("c=UK,o=Lancaster,cn=Tom Rodden"),
            RelationKind::Occupies,
            &dn("cn=coordinator"),
        )
        .unwrap();
        m.add_resource(Resource::new(
            dn("c=UK,o=Lancaster,cn=Room 1"),
            "Room 1",
            "meeting-room",
        ));
        m
    }

    #[test]
    fn publish_creates_ancestors_and_entries() {
        let mut kb = KnowledgeBase::new();
        let written = kb.publish(&model()).unwrap();
        assert_eq!(written, 3, "two people and one resource");
        // Ancestors were fabricated.
        assert!(kb.dit().get(&dn("c=UK")).is_some());
        assert!(kb.dit().get(&dn("c=UK,o=Lancaster")).is_some());
        assert!(kb.dit().get(&dn("c=DE,o=GMD")).is_some());
    }

    #[test]
    fn publish_is_idempotent() {
        let mut kb = KnowledgeBase::new();
        let m = model();
        kb.publish(&m).unwrap();
        let second = kb.publish(&m).unwrap();
        assert_eq!(second, 0);
    }

    #[test]
    fn find_people_by_role_attribute() {
        let mut kb = KnowledgeBase::new();
        kb.publish(&model()).unwrap();
        let coordinators = kb
            .find_people(Filter::eq("occupiesrole", "cn=coordinator"))
            .unwrap();
        assert_eq!(coordinators.len(), 1);
        assert_eq!(coordinators[0].first_text("cn"), Some("Tom Rodden"));
        let all = kb.find_people(Filter::True).unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn find_resources_by_type() {
        let mut kb = KnowledgeBase::new();
        kb.publish(&model()).unwrap();
        let rooms = kb.find_resources("meeting-room").unwrap();
        assert_eq!(rooms.len(), 1);
        assert!(kb.find_resources("printer").unwrap().is_empty());
    }
}
