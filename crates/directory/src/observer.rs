//! The change log of a [`Dit`](crate::Dit).
//!
//! A DIT that [records changes](crate::Dit::record_changes) logs every
//! successful mutation — `add`, `modify`, `remove`, `remove_subtree`,
//! `rename`, `add_value` — as a [`DitChange`] carrying the before/after
//! entries, so the standing-query layer (or anything else that wants
//! push-based awareness of directory state) can evaluate incrementally
//! without re-reading the tree. The log shares each entry with the tree
//! (an `Arc<Entry>`, see [`Dit`](crate::Dit)): logging costs a
//! reference-count bump, and a `Modified` pair shares every attribute
//! the modification did not touch. The reader
//! [takes](crate::Dit::take_changes) the log, oldest first, when it is
//! ready to evaluate a batch.
//!
//! A change is logged *after* the mutation has been applied and
//! validated; failed operations (schema violations, missing parents)
//! and no-op modifications log nothing.
//!
//! Every change carries the [`EntryId`] of its entry ([`DitChange::id`]),
//! so a reader can key its own state by identity and resolve names only
//! where it shows them. A rename logs a `Removed` of the old name and an
//! `Added` of the new one under the same id; a removal followed by an
//! add of the same name logs two different ids.
//!
//! [`DitChange::changed_types`] names the attribute types a change may
//! have changed, so a reader can ignore a change to attributes it does
//! not watch without comparing any value.

use std::cmp::Ordering;
use std::iter::Peekable;
use std::sync::Arc;

use crate::attribute::{Attribute, AttributeType};
use crate::dit::EntryId;
use crate::entry::Entry;

/// One applied mutation on a DIT, with full entry state.
#[derive(Debug, Clone, PartialEq)]
pub enum DitChange {
    /// An entry was inserted (by `add` or the insert half of `rename`).
    Added {
        /// The entry's id.
        id: EntryId,
        /// The entry as inserted.
        entry: Arc<Entry>,
    },
    /// An entry was modified in place; `before != after` is guaranteed
    /// (no-op modifications are not logged).
    Modified {
        /// The entry's id.
        id: EntryId,
        /// The entry as it was before the modification.
        before: Arc<Entry>,
        /// The entry after the modification.
        after: Arc<Entry>,
    },
    /// An entry was removed (by `remove`, `remove_subtree`, or the
    /// remove half of `rename`).
    Removed {
        /// The entry's id.
        id: EntryId,
        /// The entry as it was when removed.
        entry: Arc<Entry>,
    },
}

impl DitChange {
    /// The changed entry's id.
    pub fn id(&self) -> EntryId {
        match self {
            DitChange::Added { id, .. }
            | DitChange::Modified { id, .. }
            | DitChange::Removed { id, .. } => *id,
        }
    }

    /// The entry state after the change — the removed entry for
    /// [`DitChange::Removed`] (useful for interest matching: a removal
    /// is relevant to whoever matched the old state).
    pub fn entry(&self) -> &Entry {
        match self {
            DitChange::Added { entry, .. } | DitChange::Removed { entry, .. } => entry,
            DitChange::Modified { after, .. } => after,
        }
    }

    /// The attribute types the change may have changed, in type order,
    /// each once: every type of the entry for [`DitChange::Added`] and
    /// [`DitChange::Removed`]; for [`DitChange::Modified`], every type
    /// whose attribute `before` and `after` do not share.
    ///
    /// A shared attribute is one allocation, which a write never
    /// mutates in place, so it is certainly unchanged. An unshared one
    /// may still hold equal values (a rewrite with the same value), so
    /// the set over-approximates the changed types but never misses
    /// one. [`Dit::modify`](crate::Dit::modify) copies only the
    /// attributes it writes, which keeps the set close to exact.
    pub fn changed_types(&self) -> impl Iterator<Item = &AttributeType> {
        let (before, after) = match self {
            DitChange::Added { entry, .. } => (None, Some(entry)),
            DitChange::Modified { before, after, .. } => (Some(before), Some(after)),
            DitChange::Removed { entry, .. } => (Some(entry), None),
        };
        Unshared {
            before: attrs_of(before).peekable(),
            after: attrs_of(after).peekable(),
        }
    }
}

/// The attributes of `entry`, if any, in type order.
fn attrs_of(entry: Option<&Arc<Entry>>) -> impl Iterator<Item = (&AttributeType, &Arc<Attribute>)> {
    entry.into_iter().flat_map(|e| e.shared_attrs())
}

/// A merge walk of two type-ordered attribute lists, yielding each type
/// whose attribute the two sides do not share.
struct Unshared<I: Iterator> {
    before: Peekable<I>,
    after: Peekable<I>,
}

impl<'a, I> Iterator for Unshared<I>
where
    I: Iterator<Item = (&'a AttributeType, &'a Arc<Attribute>)>,
{
    type Item = &'a AttributeType;

    fn next(&mut self) -> Option<&'a AttributeType> {
        loop {
            let side = match (self.before.peek(), self.after.peek()) {
                (Some((b, _)), Some((a, _))) => b.cmp(a),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => return None,
            };
            match side {
                Ordering::Less => return self.before.next().map(|(ty, _)| ty),
                Ordering::Greater => return self.after.next().map(|(ty, _)| ty),
                Ordering::Equal => {
                    let (ty, b) = self.before.next()?;
                    let (_, a) = self.after.next()?;
                    if !Arc::ptr_eq(b, a) {
                        return Some(ty);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::dit::Dit;
    use crate::name::Dn;

    fn person(dn: &str, cn: &str, sn: &str) -> Entry {
        Entry::new(dn.parse().unwrap())
            .with_class("person")
            .with_attr(Attribute::single("cn", cn))
            .with_attr(Attribute::single("sn", sn))
    }

    fn country() -> Entry {
        Entry::new("c=UK".parse().unwrap())
            .with_class("country")
            .with_attr(Attribute::single("c", "UK"))
    }

    /// A recording DIT holding `c=UK`, its log already taken.
    fn recording() -> Dit {
        let mut dit = Dit::new();
        dit.record_changes();
        dit.add(country()).unwrap();
        dit.take_changes();
        dit
    }

    #[test]
    fn add_modify_remove_are_logged_in_order() {
        let mut dit = recording();
        let dn: Dn = "c=UK,cn=Tom Rodden".parse().unwrap();
        dit.add(person("c=UK,cn=Tom Rodden", "Tom Rodden", "Rodden"))
            .unwrap();
        dit.add_value(&dn, "mail", "tom@lancs.ac.uk").unwrap();
        dit.remove(&dn).unwrap();
        let changes = dit.take_changes();
        assert_eq!(changes.len(), 3);
        assert!(matches!(&changes[0], DitChange::Added { entry, .. } if entry.dn() == &dn));
        match &changes[1] {
            DitChange::Modified { before, after, .. } => {
                assert_eq!(before.first_text("mail"), None);
                assert_eq!(after.first_text("mail"), Some("tom@lancs.ac.uk"));
            }
            other => panic!("expected Modified, got {other:?}"),
        }
        assert!(matches!(&changes[2], DitChange::Removed { entry, .. } if entry.dn() == &dn));
        assert!(
            changes.iter().all(|c| c.id() == changes[0].id()),
            "one entry, one id: {changes:?}"
        );
        assert!(dit.take_changes().is_empty(), "taking empties the log");
    }

    #[test]
    fn failed_and_noop_mutations_log_nothing() {
        let mut dit = recording();
        let dn: Dn = "c=UK,cn=Tom Rodden".parse().unwrap();
        dit.add(person("c=UK,cn=Tom Rodden", "Tom Rodden", "Rodden"))
            .unwrap();
        dit.take_changes();
        // Schema violation rolls back: nothing logged.
        assert!(dit
            .modify(&dn, |e| {
                e.remove_attr(&"sn".into());
            })
            .is_err());
        // A modification that leaves the entry identical is a no-op.
        dit.modify(&dn, |_| {}).unwrap();
        // A failed add (duplicate) logs nothing either.
        assert!(dit
            .add(person("c=UK,cn=Tom Rodden", "Tom Rodden", "Rodden"))
            .is_err());
        assert!(dit.take_changes().is_empty());
    }

    #[test]
    fn subtree_removal_logs_every_entry() {
        let mut dit = recording();
        dit.add(person("c=UK,cn=A", "A A", "A")).unwrap();
        dit.add(person("c=UK,cn=B", "B B", "B")).unwrap();
        dit.take_changes();
        dit.remove_subtree(&"c=UK".parse().unwrap()).unwrap();
        let changes = dit.take_changes();
        assert_eq!(changes.len(), 3);
        assert!(changes
            .iter()
            .all(|c| matches!(c, DitChange::Removed { .. })));
    }

    #[test]
    fn rename_is_a_remove_plus_add_under_one_id() {
        let mut dit = recording();
        dit.add(person("c=UK,cn=A", "A A", "A")).unwrap();
        let id = dit.take_changes()[0].id();
        dit.rename(&"c=UK,cn=A".parse().unwrap(), "c=UK,cn=A2".parse().unwrap())
            .unwrap();
        let changes = dit.take_changes();
        assert_eq!(changes.len(), 2);
        assert!(
            matches!(&changes[0], DitChange::Removed { entry, .. } if entry.dn().to_string() == "c=UK,cn=A")
        );
        assert!(
            matches!(&changes[1], DitChange::Added { entry, .. } if entry.dn().to_string() == "c=UK,cn=A2")
        );
        assert!(changes.iter().all(|c| c.id() == id));
    }

    #[test]
    fn clones_do_not_record() {
        let mut dit = recording();
        let mut copy = dit.clone();
        copy.add(person("c=UK,cn=A", "A A", "A")).unwrap();
        assert!(copy.take_changes().is_empty(), "a clone starts detached");
        assert!(
            dit.take_changes().is_empty(),
            "clone mutations must not leak"
        );
    }

    #[test]
    fn a_dit_that_does_not_record_keeps_no_log() {
        let mut dit = Dit::new();
        dit.add(country()).unwrap();
        dit.add(person("c=UK,cn=A", "A A", "A")).unwrap();
        dit.add_value(&"c=UK,cn=A".parse().unwrap(), "mail", "a@uk")
            .unwrap();
        dit.remove_subtree(&"c=UK".parse().unwrap()).unwrap();
        assert!(dit.take_changes().is_empty());
    }

    #[test]
    fn recording_again_keeps_the_log() {
        let mut dit = Dit::new();
        dit.record_changes();
        dit.add(country()).unwrap();
        dit.record_changes();
        dit.add(person("c=UK,cn=A", "A A", "A")).unwrap();
        let changes = dit.take_changes();
        assert_eq!(changes.len(), 2, "{changes:?}");
        assert!(
            matches!(&changes[0], DitChange::Added { entry, .. } if entry.dn().to_string() == "c=UK")
        );
    }

    /// The types `change` reports as changed, as text.
    fn changed(change: &DitChange) -> Vec<&str> {
        change.changed_types().map(|ty| ty.as_str()).collect()
    }

    #[test]
    fn changed_types_name_what_a_modify_wrote() {
        let mut dit = recording();
        let dn: Dn = "c=UK,cn=Tom Rodden".parse().unwrap();
        dit.add(
            person("c=UK,cn=Tom Rodden", "Tom Rodden", "Rodden")
                .with_attr(Attribute::single("mail", "tom@lancs.ac.uk")),
        )
        .unwrap();
        // Rewriting `sn` with an equal value still copies it: reported,
        // as the set may over-approximate. `mail` goes and `title`
        // comes; the shared `cn` and `objectclass` are not reported.
        dit.modify(&dn, |e| {
            e.replace_attr(Attribute::single("sn", "Rodden"));
            e.remove_attr(&"mail".into());
            e.put_attr(Attribute::single("title", "lecturer"));
        })
        .unwrap();
        dit.remove(&dn).unwrap();
        let changes = dit.take_changes();
        assert_eq!(changes.len(), 3, "{changes:?}");
        let every = ["cn", "mail", "objectclass", "sn"];
        assert_eq!(changed(&changes[0]), every, "an add reports every type");
        assert_eq!(changed(&changes[1]), ["mail", "sn", "title"]);
        assert_eq!(
            changed(&changes[2]),
            ["cn", "objectclass", "sn", "title"],
            "a removal reports every type"
        );
    }

    #[test]
    fn a_modify_of_shared_attributes_reports_nothing() {
        let before = Arc::new(person("c=UK,cn=A", "A A", "A"));
        let change = DitChange::Modified {
            id: recording().id(&"c=UK".parse().unwrap()).unwrap(),
            before: Arc::clone(&before),
            after: Arc::new(Entry::clone(&before)),
        };
        assert!(changed(&change).is_empty(), "{change:?}");
    }

    /// The `Debug` of the id the entry [`rendered`] builds gets, second
    /// in its DIT.
    const ID_DEBUG: &str = "EntryId { slot: 1, generation: 0 }";

    /// The `Debug` of the entry [`rendered`] builds.
    const ENTRY_DEBUG: &str = "Entry { dn: Dn { rdns: [Rdn { attr: AttributeType(\"c\"), \
        value: \"UK\" }, Rdn { attr: AttributeType(\"cn\"), value: \"Tom Rodden\" }] }, \
        attrs: {AttributeType(\"capabilitylevel\"): Attribute { ty: AttributeType(\"capabilitylevel\"), \
        values: [Int(4)] }, AttributeType(\"cn\"): Attribute { ty: AttributeType(\"cn\"), \
        values: [Text(\"Tom Rodden\"), Text(\"Tom\")] }, AttributeType(\"objectclass\"): \
        Attribute { ty: AttributeType(\"objectclass\"), values: [Text(\"person\")] }, \
        AttributeType(\"sn\"): Attribute { ty: AttributeType(\"sn\"), values: [Text(\"Rodden\")] }} }";

    /// The same entry after `mail` is added.
    const AFTER_DEBUG: &str = "Entry { dn: Dn { rdns: [Rdn { attr: AttributeType(\"c\"), \
        value: \"UK\" }, Rdn { attr: AttributeType(\"cn\"), value: \"Tom Rodden\" }] }, \
        attrs: {AttributeType(\"capabilitylevel\"): Attribute { ty: AttributeType(\"capabilitylevel\"), \
        values: [Int(4)] }, AttributeType(\"cn\"): Attribute { ty: AttributeType(\"cn\"), \
        values: [Text(\"Tom Rodden\"), Text(\"Tom\")] }, AttributeType(\"mail\"): \
        Attribute { ty: AttributeType(\"mail\"), values: [Text(\"tom@lancs.ac.uk\")] }, \
        AttributeType(\"objectclass\"): Attribute { ty: AttributeType(\"objectclass\"), \
        values: [Text(\"person\")] }, AttributeType(\"sn\"): Attribute { ty: AttributeType(\"sn\"), \
        values: [Text(\"Rodden\")] }} }";

    /// A multi-valued entry mixing known (`cn`, `sn`) and other
    /// (`capabilityLevel`) attribute names.
    fn rendered() -> Entry {
        Entry::new("c=UK,cn=Tom Rodden".parse().unwrap())
            .with_class("person")
            .with_attr(Attribute::multi("cn", ["Tom Rodden", "Tom"]))
            .with_attr(Attribute::single("sn", "Rodden"))
            .with_attr(Attribute::single("capabilityLevel", 4i64))
    }

    #[test]
    fn renderings_are_pinned() {
        let before = rendered();
        let after = before
            .clone()
            .with_attr(Attribute::single("mail", "tom@lancs.ac.uk"));
        assert_eq!(format!("{before:?}"), ENTRY_DEBUG);
        assert_eq!(
            before.to_string(),
            "c=UK,cn=Tom Rodden\n  capabilitylevel=4\n  cn=Tom Rodden|Tom\n  \
             objectclass=person\n  sn=Rodden"
        );
        let mut dit = Dit::new();
        dit.record_changes();
        dit.add(
            Entry::new("c=UK".parse().unwrap())
                .with_class("country")
                .with_attr(Attribute::single("c", "UK")),
        )
        .unwrap();
        dit.take_changes();
        dit.add(before).unwrap();
        dit.add_value(after.dn(), "mail", "tom@lancs.ac.uk")
            .unwrap();
        dit.remove(after.dn()).unwrap();
        let rendered: Vec<String> = dit
            .take_changes()
            .iter()
            .map(|c| format!("{c:?}"))
            .collect();
        assert_eq!(
            rendered,
            [
                format!("Added {{ id: {ID_DEBUG}, entry: {ENTRY_DEBUG} }}"),
                format!(
                    "Modified {{ id: {ID_DEBUG}, before: {ENTRY_DEBUG}, after: {AFTER_DEBUG} }}"
                ),
                format!("Removed {{ id: {ID_DEBUG}, entry: {AFTER_DEBUG} }}"),
            ]
        );
        assert_eq!(format!("{after:?}"), AFTER_DEBUG);
    }
}
