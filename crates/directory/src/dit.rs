//! The Directory Information Tree.
//!
//! A [`Dit`] stores entries and answers for them by name. It is the
//! single-DSA building block; the distributed directory in
//! [`crate::dsa`] composes several DITs (one naming context each) over
//! the simulated network.
//!
//! Every entry also has an identity under its name: a dense
//! [`EntryId`], allocated by [`Dit::add`], kept by
//! [`modify`](Dit::modify) and [`rename`](Dit::rename), and retired by
//! a removal. Names are for people and for DN-ordered walks; ids are
//! for state that follows one entry through its life, such as the
//! standing-query layer's membership table. [`Dit::id`] and
//! [`Dit::name`] translate between the two, and every logged
//! [`DitChange`] carries its entry's id.
//!
//! The store is the slot table: the slot of an entry's id holds the
//! entry, so [`Dit::entry`] is one vector read, and an entry's name is
//! its own [`dn`](Entry::dn). Two indexes map names to ids:
//!
//! * a hash map answers every point lookup — [`get`](Dit::get),
//!   [`id`](Dit::id), [`modify`](Dit::modify) and the existence checks
//!   of [`add`](Dit::add) and [`rename`](Dit::rename) — and is never
//!   iterated, so its order never escapes;
//! * an ordered map keeps DN order for every walk:
//!   [`iter`](Dit::iter), subtree [`search`](Dit::search),
//!   [`remove_subtree`](Dit::remove_subtree) and
//!   [`children`](Dit::children). A subtree is one contiguous run of
//!   that order, starting at its root, so a child is a name in its
//!   parent's run one level deeper, and an entry is a leaf when the
//!   next name after it does not descend from it.

use std::collections::{hash_map, BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use crate::attribute::{Attribute, AttributeType, AttributeValue};
use crate::entry::Entry;
use crate::error::DirectoryError;
use crate::filter::Filter;
use crate::name::Dn;
use crate::observer::DitChange;
use crate::schema::Schema;
use crate::search::{SearchOutcome, SearchRequest, SearchScope};

/// The identity of one directory entry in one [`Dit`]: a dense slot
/// plus a generation.
///
/// An entry keeps its id through [`modify`](Dit::modify) and
/// [`rename`](Dit::rename). Removing the entry frees its slot; the
/// next [`add`](Dit::add) may reuse the slot, under a higher
/// generation, so an id that outlives its entry never names the new
/// one ([`Dit::name`] answers `None` for it). Ids order by slot, then
/// generation. A [`Dit::clone`] keeps every id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryId {
    slot: u32,
    generation: u32,
}

impl EntryId {
    /// The slot: a dense index, below the number of entries the DIT
    /// has ever held at once.
    pub fn slot(self) -> usize {
        self.slot as usize
    }

    /// How many entries held this slot before this one.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// The entry store: per slot, its generation and the entry that holds
/// it.
#[derive(Debug, Clone, Default)]
struct Slots {
    /// Per slot: the current generation and, while the slot is held,
    /// the holder.
    rows: Vec<(u32, Option<Arc<Entry>>)>,
    /// Freed slots, reused last-freed first.
    free: Vec<u32>,
}

impl Slots {
    /// Stores `entry` under a fresh id.
    fn alloc(&mut self, entry: Arc<Entry>) -> EntryId {
        if let Some(slot) = self.free.pop() {
            let (generation, held) = &mut self.rows[slot as usize];
            *held = Some(entry);
            return EntryId {
                slot,
                generation: *generation,
            };
        }
        // A DIT never holds 2^32 entries at once: that alone would
        // take hundreds of GiB.
        let slot = u32::try_from(self.rows.len()).unwrap_or(u32::MAX);
        self.rows.push((0, Some(entry)));
        EntryId {
            slot,
            generation: 0,
        }
    }

    /// Retires `id` and hands back its entry: the slot is free for
    /// reuse under the next generation (which wraps after 2^32 reuses
    /// of one slot).
    fn release(&mut self, id: EntryId) -> Option<Arc<Entry>> {
        let (generation, held) = self.rows.get_mut(id.slot())?;
        if *generation != id.generation {
            return None;
        }
        *generation = generation.wrapping_add(1);
        self.free.push(id.slot);
        held.take()
    }

    /// The entry `id` holds, if it is still live.
    fn get(&self, id: EntryId) -> Option<&Arc<Entry>> {
        match self.rows.get(id.slot()) {
            Some((generation, held)) if *generation == id.generation => held.as_ref(),
            _ => None,
        }
    }

    /// The entry `id` holds, for replacing, if it is still live.
    fn get_mut(&mut self, id: EntryId) -> Option<&mut Arc<Entry>> {
        match self.rows.get_mut(id.slot()) {
            Some((generation, held)) if *generation == id.generation => held.as_mut(),
            _ => None,
        }
    }
}

/// An in-memory DIT with schema checking.
///
/// Entries are immutable shared values: the tree, its change log and
/// every clone of the tree hold the same `Arc<Entry>`, so logging a
/// change or taking a snapshot copies no entry.
///
/// # Examples
///
/// ```
/// use cscw_directory::{Attribute, Dit, Entry, Filter, SearchRequest, SearchScope};
///
/// let mut dit = Dit::new();
/// dit.add(Entry::new("c=UK".parse()?)
///     .with_class("country")
///     .with_attr(Attribute::single("c", "UK")))?;
/// dit.add(Entry::new("c=UK,o=Lancaster".parse()?)
///     .with_class("organization")
///     .with_attr(Attribute::single("o", "Lancaster")))?;
///
/// let out = dit.search(&SearchRequest::new(
///     "c=UK".parse()?,
///     SearchScope::Subtree,
///     Filter::present("o"),
/// ))?;
/// assert_eq!(out.entries.len(), 1);
///
/// // A rename keeps the entry's identity.
/// let id = dit.id(&"c=UK,o=Lancaster".parse()?).unwrap();
/// dit.rename(&"c=UK,o=Lancaster".parse()?, "c=UK,o=Lancs".parse()?)?;
/// assert_eq!(dit.name(id).unwrap().to_string(), "c=UK,o=Lancs");
/// # Ok::<(), cscw_directory::DirectoryError>(())
/// ```
#[derive(Debug)]
pub struct Dit {
    /// The one entry store, by id slot.
    slots: Slots,
    /// Name → id, for point lookups; never iterated.
    by_hash: HashMap<Dn, EntryId>,
    /// Name → id in DN order, for every walk.
    by_order: BTreeMap<Dn, EntryId>,
    schema: Schema,
    /// The change log, oldest first; `None` until
    /// [`record_changes`](Dit::record_changes) turns it on.
    changes: Option<Vec<DitChange>>,
}

impl Default for Dit {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Dit {
    /// Cloning shares entries and copies structure, ids and schema but
    /// **not** the change log: a clone is a detached snapshot that
    /// records nothing, so mutations on it never reach readers of the
    /// original's log. Neither side sees the other's later writes: a
    /// write replaces the writer's `Arc`, never the shared entry, and
    /// each side allocates ids from its own copy of the slot table.
    fn clone(&self) -> Self {
        Dit {
            slots: self.slots.clone(),
            by_hash: self.by_hash.clone(),
            by_order: self.by_order.clone(),
            schema: self.schema.clone(),
            changes: None,
        }
    }
}

impl Dit {
    /// Creates an empty DIT with the standard schema.
    pub fn new() -> Self {
        Self::with_schema(Schema::standard())
    }

    /// Creates an empty DIT with a custom schema.
    pub fn with_schema(schema: Schema) -> Self {
        Dit {
            slots: Slots::default(),
            by_hash: HashMap::new(),
            by_order: BTreeMap::new(),
            schema,
            changes: None,
        }
    }

    /// Starts logging every applied mutation as a [`DitChange`], for
    /// [`take_changes`](Dit::take_changes). A DIT logs nothing until
    /// this is called, so one nobody reads keeps no log; calling it
    /// again keeps what is already logged.
    pub fn record_changes(&mut self) {
        self.changes.get_or_insert_with(Vec::new);
    }

    /// Takes every logged change, oldest first (nothing when the DIT
    /// is not recording).
    pub fn take_changes(&mut self) -> Vec<DitChange> {
        self.changes
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// The active schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable schema access (e.g. to define app-specific classes).
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.by_order.len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.by_order.is_empty()
    }

    /// Logs `change` when the DIT is recording.
    fn log(&mut self, change: impl FnOnce() -> DitChange) {
        if let Some(log) = self.changes.as_mut() {
            log.push(change());
        }
    }

    /// Adds an entry under a fresh [`EntryId`].
    ///
    /// # Errors
    ///
    /// * [`DirectoryError::InvalidName`] — the root cannot hold an entry.
    /// * [`DirectoryError::EntryExists`] — name already taken.
    /// * [`DirectoryError::NoParent`] — parent entry missing (the DIT
    ///   grows strictly top-down, except depth-1 entries under the root).
    /// * [`DirectoryError::SchemaViolation`] — schema check failed.
    pub fn add(&mut self, entry: Entry) -> Result<(), DirectoryError> {
        let dn = entry.dn().clone();
        let Some(parent) = dn.parent() else {
            return Err(DirectoryError::InvalidName("cannot add the root".into()));
        };
        // A taken name always has its parent, so checking the parent
        // first reports what checking the name first would.
        if !parent.is_root() && !self.by_hash.contains_key(&parent) {
            return Err(DirectoryError::NoParent(dn));
        }
        let hash_map::Entry::Vacant(vacant) = self.by_hash.entry(dn.clone()) else {
            return Err(DirectoryError::EntryExists(dn));
        };
        self.schema.validate(&entry)?;
        let entry = Arc::new(entry);
        let id = self.slots.alloc(Arc::clone(&entry));
        vacant.insert(id);
        self.by_order.insert(dn, id);
        self.log(|| DitChange::Added { id, entry });
        Ok(())
    }

    /// Reads an entry.
    pub fn get(&self, dn: &Dn) -> Option<&Entry> {
        self.id(dn).and_then(|id| self.entry(id))
    }

    /// The id of the entry named `dn`.
    pub fn id(&self, dn: &Dn) -> Option<EntryId> {
        self.by_hash.get(dn).copied()
    }

    /// The current name of the entry `id`; `None` once it is removed.
    pub fn name(&self, id: EntryId) -> Option<&Dn> {
        self.entry(id).map(Entry::dn)
    }

    /// Reads an entry by id; `None` once it is removed.
    pub fn entry(&self, id: EntryId) -> Option<&Entry> {
        self.slots.get(id).map(|e| &**e)
    }

    /// Reads an entry, as a `Result`.
    ///
    /// # Errors
    ///
    /// [`DirectoryError::NoSuchEntry`] when absent.
    pub fn read(&self, dn: &Dn) -> Result<&Entry, DirectoryError> {
        self.get(dn)
            .ok_or_else(|| DirectoryError::NoSuchEntry(dn.clone()))
    }

    /// Removes a leaf entry; its id is retired.
    ///
    /// # Errors
    ///
    /// * [`DirectoryError::NoSuchEntry`] — absent.
    /// * [`DirectoryError::NotLeaf`] — entry has children.
    pub fn remove(&mut self, dn: &Dn) -> Result<Arc<Entry>, DirectoryError> {
        let id = self.unlink(dn)?;
        self.slots
            .release(id)
            .ok_or_else(|| DirectoryError::NoSuchEntry(dn.clone()))
    }

    /// Takes a leaf's name out of both indexes and logs the entry as
    /// removed; its slot still holds the entry under the same id.
    fn unlink(&mut self, dn: &Dn) -> Result<EntryId, DirectoryError> {
        // A subtree's names follow its root in DN order.
        let has_children = self
            .by_order
            .range::<Dn, _>((Bound::Excluded(dn), Bound::Unbounded))
            .next()
            .is_some_and(|(next, _)| dn.is_prefix_of(next));
        if has_children {
            return Err(DirectoryError::NotLeaf(dn.clone()));
        }
        let id = self
            .by_hash
            .remove(dn)
            .ok_or_else(|| DirectoryError::NoSuchEntry(dn.clone()))?;
        self.by_order.remove(dn);
        if let Some(entry) = self.slots.get(id).map(Arc::clone) {
            self.log(|| DitChange::Removed { id, entry });
        }
        Ok(id)
    }

    /// Removes an entire subtree rooted at `dn` (inclusive), parent
    /// first; returns how many entries were removed. Every removed id
    /// is retired.
    ///
    /// # Errors
    ///
    /// [`DirectoryError::NoSuchEntry`] when the root of the subtree is
    /// absent.
    pub fn remove_subtree(&mut self, dn: &Dn) -> Result<usize, DirectoryError> {
        if !self.by_hash.contains_key(dn) {
            return Err(DirectoryError::NoSuchEntry(dn.clone()));
        }
        let doomed: Vec<(Dn, EntryId)> = self
            .walk(dn.clone())
            .map(|(name, id)| (name.clone(), id))
            .collect();
        for (name, id) in &doomed {
            self.by_hash.remove(name);
            self.by_order.remove(name);
            if let Some(entry) = self.slots.release(*id) {
                self.log(|| DitChange::Removed { id: *id, entry });
            }
        }
        Ok(doomed.len())
    }

    /// Applies a closure to an entry and re-validates it. The entry
    /// keeps its id.
    ///
    /// The closure edits a clone that shares every attribute with the
    /// stored entry; only attributes it writes are copied. The stored
    /// entry is then replaced, and moves into the log as `before`.
    ///
    /// # Errors
    ///
    /// * [`DirectoryError::NoSuchEntry`] — absent.
    /// * [`DirectoryError::SchemaViolation`] — modification broke schema
    ///   (the stored entry is left untouched).
    pub fn modify(&mut self, dn: &Dn, f: impl FnOnce(&mut Entry)) -> Result<(), DirectoryError> {
        let absent = || DirectoryError::NoSuchEntry(dn.clone());
        let id = self.id(dn).ok_or_else(absent)?;
        let stored = self.slots.get_mut(id).ok_or_else(absent)?;
        let mut after = Entry::clone(stored);
        f(&mut after);
        // The DN is structural; modifications must not change it.
        after.set_dn(dn.clone());
        self.schema.validate(&after)?;
        match self.changes.as_mut() {
            None => *stored = Arc::new(after),
            // A no-op modification logs nothing.
            Some(_) if after == **stored => {}
            Some(log) => {
                // The old state moves out of the store into the log.
                let after = Arc::new(after);
                let before = std::mem::replace(stored, Arc::clone(&after));
                log.push(DitChange::Modified { id, before, after });
            }
        }
        Ok(())
    }

    /// Adds a value to an attribute of an existing entry.
    ///
    /// # Errors
    ///
    /// As for [`Dit::modify`].
    pub fn add_value(
        &mut self,
        dn: &Dn,
        ty: impl Into<AttributeType>,
        value: impl Into<AttributeValue>,
    ) -> Result<(), DirectoryError> {
        let (ty, value) = (ty.into(), value.into());
        self.modify(dn, |e| e.put_attr(Attribute::multi(ty, [value])))
    }

    /// Renames a **leaf** entry to a new name whose parent already
    /// exists. The entry keeps its id; the log records the rename as
    /// the removal of the old name and the addition of the new one,
    /// both under that id.
    ///
    /// # Errors
    ///
    /// * [`DirectoryError::NoSuchEntry`] / [`DirectoryError::NotLeaf`] on
    ///   the source.
    /// * [`DirectoryError::EntryExists`] / [`DirectoryError::NoParent`] on
    ///   the target.
    pub fn rename(&mut self, from: &Dn, to: Dn) -> Result<(), DirectoryError> {
        if self.by_hash.contains_key(&to) {
            return Err(DirectoryError::EntryExists(to));
        }
        let to_parent = to
            .parent()
            .ok_or(DirectoryError::InvalidName("rename to root".into()))?;
        if !to_parent.is_root() && !self.by_hash.contains_key(&to_parent) {
            return Err(DirectoryError::NoParent(to));
        }
        let id = self.unlink(from)?;
        if let Some(stored) = self.slots.get_mut(id) {
            // Copies the entry only when the log still holds it.
            Arc::make_mut(stored).set_dn(to.clone());
            let entry = Arc::clone(stored);
            self.log(|| DitChange::Added { id, entry });
        }
        self.by_hash.insert(to.clone(), id);
        self.by_order.insert(to, id);
        Ok(())
    }

    /// The names and ids of the subtree rooted at `base` (inclusive;
    /// every entry for the root), in DN order.
    fn walk(&self, base: Dn) -> impl Iterator<Item = (&Dn, EntryId)> {
        self.by_order
            .range(base.clone()..)
            .take_while(move |(dn, _)| base.is_prefix_of(dn))
            .map(|(dn, id)| (dn, *id))
    }

    /// The immediate children of `base` (which may be the root), in DN
    /// order: the names of its subtree one level deeper.
    pub fn children(&self, base: &Dn) -> impl Iterator<Item = &Entry> {
        let depth = base.depth() + 1;
        self.walk(base.clone())
            .filter(move |(dn, _)| dn.depth() == depth)
            .filter_map(|(_, id)| self.entry(id))
    }

    /// Iterates over every entry in DN order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.iter_ids().map(|(_, e)| e)
    }

    /// Iterates over every entry with its id, in DN order.
    pub fn iter_ids(&self) -> impl Iterator<Item = (EntryId, &Entry)> {
        self.by_order
            .values()
            .filter_map(|&id| Some((id, self.entry(id)?)))
    }

    /// Evaluates a search request.
    ///
    /// # Errors
    ///
    /// [`DirectoryError::NoSuchEntry`] when the base object is missing
    /// (and is not the root).
    pub fn search(&self, request: &SearchRequest) -> Result<SearchOutcome, DirectoryError> {
        if !request.base.is_root() && !self.by_hash.contains_key(&request.base) {
            return Err(DirectoryError::NoSuchEntry(request.base.clone()));
        }
        let mut entries = Vec::new();
        let mut truncated = false;
        let candidates: Vec<&Entry> = match request.scope {
            SearchScope::Base => self.get(&request.base).into_iter().collect(),
            SearchScope::OneLevel => self.children(&request.base).collect(),
            SearchScope::Subtree => self
                .walk(request.base.clone())
                .filter_map(|(_, id)| self.entry(id))
                .collect(),
        };
        for entry in candidates {
            if request.filter.matches(entry) {
                if let Some(limit) = request.size_limit {
                    if entries.len() >= limit {
                        truncated = true;
                        break;
                    }
                }
                entries.push(entry.clone());
            }
        }
        Ok(SearchOutcome { entries, truncated })
    }

    /// Convenience: subtree search from the root with the given filter.
    ///
    /// # Errors
    ///
    /// Never fails in practice (the base always exists); the `Result`
    /// mirrors [`Dit::search`].
    pub fn search_all(&self, filter: Filter) -> Result<Vec<Entry>, DirectoryError> {
        Ok(self
            .search(&SearchRequest::new(
                Dn::root(),
                SearchScope::Subtree,
                filter,
            ))?
            .entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dit {
        let mut dit = Dit::new();
        for (dn, class, attrs) in [
            ("c=UK", "country", vec![("c", "UK")]),
            ("c=UK,o=Lancaster", "organization", vec![("o", "Lancaster")]),
            (
                "c=UK,o=Lancaster,ou=Computing",
                "organizationalunit",
                vec![("ou", "Computing")],
            ),
            (
                "c=UK,o=Lancaster,ou=Computing,cn=Tom Rodden",
                "person",
                vec![("cn", "Tom Rodden"), ("sn", "Rodden")],
            ),
            ("c=DE", "country", vec![("c", "DE")]),
            ("c=DE,o=GMD", "organization", vec![("o", "GMD")]),
            (
                "c=DE,o=GMD,cn=Wolfgang Prinz",
                "person",
                vec![("cn", "Wolfgang Prinz"), ("sn", "Prinz")],
            ),
        ] {
            let mut e = Entry::new(dn.parse().unwrap()).with_class(class);
            for (t, v) in attrs {
                e.put_attr(Attribute::single(t, v));
            }
            dit.add(e).unwrap();
        }
        dit
    }

    #[test]
    fn add_requires_existing_parent() {
        let mut dit = Dit::new();
        let orphan = Entry::new("c=UK,o=Lancaster".parse().unwrap())
            .with_class("organization")
            .with_attr(Attribute::single("o", "Lancaster"));
        assert!(matches!(
            dit.add(orphan).unwrap_err(),
            DirectoryError::NoParent(_)
        ));
    }

    #[test]
    fn add_rejects_duplicates_and_root() {
        let mut dit = sample();
        let dup = Entry::new("c=UK".parse().unwrap())
            .with_class("country")
            .with_attr(Attribute::single("c", "UK"));
        assert!(matches!(
            dit.add(dup).unwrap_err(),
            DirectoryError::EntryExists(_)
        ));
        let root = Entry::new(Dn::root()).with_class("country");
        assert!(dit.add(root).is_err());
    }

    #[test]
    fn schema_violations_never_enter_the_tree() {
        let mut dit = Dit::new();
        let bad = Entry::new("c=UK".parse().unwrap()).with_class("country");
        assert!(matches!(
            dit.add(bad).unwrap_err(),
            DirectoryError::SchemaViolation { .. }
        ));
        assert!(dit.is_empty());
    }

    #[test]
    fn remove_leaf_only() {
        let mut dit = sample();
        let uk: Dn = "c=UK".parse().unwrap();
        assert!(matches!(
            dit.remove(&uk).unwrap_err(),
            DirectoryError::NotLeaf(_)
        ));
        let tom: Dn = "c=UK,o=Lancaster,ou=Computing,cn=Tom Rodden"
            .parse()
            .unwrap();
        assert!(dit.remove(&tom).is_ok());
        assert!(dit.get(&tom).is_none());
        assert!(matches!(
            dit.remove(&tom).unwrap_err(),
            DirectoryError::NoSuchEntry(_)
        ));
    }

    #[test]
    fn remove_subtree_removes_descendants() {
        let mut dit = sample();
        let uk: Dn = "c=UK".parse().unwrap();
        let removed = dit.remove_subtree(&uk).unwrap();
        assert_eq!(removed, 4);
        assert_eq!(dit.len(), 3);
        assert!(dit.get(&"c=DE".parse().unwrap()).is_some());
    }

    #[test]
    fn remove_subtree_spares_names_sharing_a_text_prefix() {
        let mut dit = Dit::new();
        dit.record_changes();
        dit.add(
            Entry::new("c=UK".parse().unwrap())
                .with_class("country")
                .with_attr(Attribute::single("c", "UK")),
        )
        .unwrap();
        for o in ["org1", "org10"] {
            dit.add(
                Entry::new(format!("c=UK,o={o}").parse().unwrap())
                    .with_class("organization")
                    .with_attr(Attribute::single("o", o)),
            )
            .unwrap();
            for p in ["a", "b"] {
                dit.add(
                    Entry::new(format!("c=UK,o={o},cn={p}").parse().unwrap())
                        .with_class("person")
                        .with_attr(Attribute::single("cn", p))
                        .with_attr(Attribute::single("sn", p)),
                )
                .unwrap();
            }
        }
        dit.take_changes();
        let org1: Dn = "c=UK,o=org1".parse().unwrap();
        assert_eq!(dit.remove_subtree(&org1).unwrap(), 3);
        let removed: Vec<String> = dit
            .take_changes()
            .iter()
            .map(|c| c.entry().dn().to_string())
            .collect();
        assert_eq!(
            removed,
            ["c=UK,o=org1", "c=UK,o=org1,cn=a", "c=UK,o=org1,cn=b"],
            "parent first, DN order"
        );
        let left: Vec<String> = dit.iter().map(|e| e.dn().to_string()).collect();
        assert_eq!(
            left,
            [
                "c=UK",
                "c=UK,o=org10",
                "c=UK,o=org10,cn=a",
                "c=UK,o=org10,cn=b"
            ]
        );
        assert_eq!(dit.children(&"c=UK".parse().unwrap()).count(), 1);
    }

    #[test]
    fn ids_survive_modify_and_rename_and_retire_on_removal() {
        let mut dit = sample();
        let from: Dn = "c=DE,o=GMD,cn=Wolfgang Prinz".parse().unwrap();
        let to: Dn = "c=DE,o=GMD,cn=W Prinz".parse().unwrap();
        let id = dit.id(&from).unwrap();
        assert_eq!(dit.name(id), Some(&from));
        dit.add_value(&from, "mail", "w@gmd.de").unwrap();
        dit.rename(&from, to.clone()).unwrap();
        assert_eq!(dit.id(&to), Some(id), "a rename keeps the id");
        assert_eq!(dit.name(id), Some(&to));
        assert_eq!(dit.entry(id).unwrap().first_text("mail"), Some("w@gmd.de"));
        assert_eq!(dit.id(&from), None);

        dit.remove(&to).unwrap();
        assert_eq!(dit.name(id), None);
        assert!(dit.entry(id).is_none());
        dit.add(
            Entry::new(from.clone())
                .with_class("person")
                .with_attr(Attribute::single("cn", "Wolfgang Prinz"))
                .with_attr(Attribute::single("sn", "Prinz")),
        )
        .unwrap();
        let reused = dit.id(&from).unwrap();
        assert_eq!(reused.slot(), id.slot(), "the freed slot is reused");
        assert!(reused.generation() > id.generation());
        assert_eq!(dit.name(id), None, "the old id stays retired");
        let ids: Vec<EntryId> = dit.iter_ids().map(|(id, _)| id).collect();
        let named: Vec<EntryId> = dit.iter().map(|e| dit.id(e.dn()).unwrap()).collect();
        assert_eq!(ids, named);
    }

    #[test]
    fn modify_rolls_back_on_schema_violation() {
        let mut dit = sample();
        let tom: Dn = "c=UK,o=Lancaster,ou=Computing,cn=Tom Rodden"
            .parse()
            .unwrap();
        let err = dit.modify(&tom, |e| {
            e.remove_attr(&"sn".into());
        });
        assert!(err.is_err());
        assert_eq!(dit.get(&tom).unwrap().first_text("sn"), Some("Rodden"));
    }

    #[test]
    fn modify_updates_attributes() {
        let mut dit = sample();
        let tom: Dn = "c=UK,o=Lancaster,ou=Computing,cn=Tom Rodden"
            .parse()
            .unwrap();
        dit.add_value(&tom, "mail", "tom@lancs.ac.uk").unwrap();
        assert_eq!(
            dit.get(&tom).unwrap().first_text("mail"),
            Some("tom@lancs.ac.uk")
        );
    }

    #[test]
    fn rename_moves_leaf() {
        let mut dit = sample();
        let from: Dn = "c=DE,o=GMD,cn=Wolfgang Prinz".parse().unwrap();
        let to: Dn = "c=DE,o=GMD,cn=W Prinz".parse().unwrap();
        dit.rename(&from, to.clone()).unwrap();
        assert!(dit.get(&from).is_none());
        let moved = dit.get(&to).unwrap();
        assert_eq!(moved.dn(), &to);
        assert_eq!(moved.first_text("sn"), Some("Prinz"));
    }

    #[test]
    fn rename_rejects_existing_target_and_missing_parent() {
        let mut dit = sample();
        let from: Dn = "c=DE,o=GMD,cn=Wolfgang Prinz".parse().unwrap();
        assert!(matches!(
            dit.rename(&from, "c=UK".parse().unwrap()).unwrap_err(),
            DirectoryError::EntryExists(_)
        ));
        assert!(matches!(
            dit.rename(&from, "c=FR,cn=W".parse().unwrap()).unwrap_err(),
            DirectoryError::NoParent(_)
        ));
    }

    #[test]
    fn search_scopes() {
        let dit = sample();
        let base: Dn = "c=UK".parse().unwrap();
        let all = Filter::True;

        let base_hit = dit
            .search(&SearchRequest::new(
                base.clone(),
                SearchScope::Base,
                all.clone(),
            ))
            .unwrap();
        assert_eq!(base_hit.entries.len(), 1);

        let one = dit
            .search(&SearchRequest::new(
                base.clone(),
                SearchScope::OneLevel,
                all.clone(),
            ))
            .unwrap();
        assert_eq!(one.entries.len(), 1);
        assert_eq!(one.entries[0].dn().to_string(), "c=UK,o=Lancaster");

        let sub = dit
            .search(&SearchRequest::new(base, SearchScope::Subtree, all))
            .unwrap();
        assert_eq!(sub.entries.len(), 4, "subtree includes the base");
    }

    #[test]
    fn search_with_filter_and_size_limit() {
        let dit = sample();
        let people = dit.search_all(Filter::eq("objectclass", "person")).unwrap();
        assert_eq!(people.len(), 2);

        let req =
            SearchRequest::new(Dn::root(), SearchScope::Subtree, Filter::True).with_size_limit(3);
        let out = dit.search(&req).unwrap();
        assert_eq!(out.entries.len(), 3);
        assert!(out.truncated);
    }

    #[test]
    fn search_missing_base_errors() {
        let dit = sample();
        let req = SearchRequest::new("c=FR".parse().unwrap(), SearchScope::Subtree, Filter::True);
        assert!(matches!(
            dit.search(&req).unwrap_err(),
            DirectoryError::NoSuchEntry(_)
        ));
    }

    #[test]
    fn subtree_search_does_not_leak_siblings() {
        let dit = sample();
        // Regression guard for the classic prefix bug: "c=U" must not match "c=UK".
        let req = SearchRequest::new("c=DE".parse().unwrap(), SearchScope::Subtree, Filter::True);
        let out = dit.search(&req).unwrap();
        assert!(out
            .entries
            .iter()
            .all(|e| e.dn().to_string().starts_with("c=DE")));
        assert_eq!(out.entries.len(), 3);
    }
}
