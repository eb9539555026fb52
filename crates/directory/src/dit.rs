//! The Directory Information Tree.
//!
//! A [`Dit`] stores entries indexed by DN and maintains the parent/child
//! structure. It is the single-DSA building block; the distributed
//! directory in [`crate::dsa`] composes several DITs (one naming context
//! each) over the simulated network.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::attribute::{Attribute, AttributeType, AttributeValue};
use crate::entry::Entry;
use crate::error::DirectoryError;
use crate::filter::Filter;
use crate::name::Dn;
use crate::observer::{DitChange, DitObserver};
use crate::schema::Schema;
use crate::search::{SearchOutcome, SearchRequest, SearchScope};

/// An in-memory DIT with schema checking.
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
/// # Ok::<(), cscw_directory::DirectoryError>(())
/// ```
#[derive(Debug)]
pub struct Dit {
    entries: BTreeMap<Dn, Entry>,
    children: BTreeMap<Dn, BTreeSet<Dn>>,
    schema: Schema,
    observers: Vec<Arc<dyn DitObserver>>,
}

impl Default for Dit {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Dit {
    /// Cloning copies entries, structure and schema but **not**
    /// observers: a clone is a detached snapshot, and mutations on it
    /// must not surprise subscribers of the original.
    fn clone(&self) -> Self {
        Dit {
            entries: self.entries.clone(),
            children: self.children.clone(),
            schema: self.schema.clone(),
            observers: Vec::new(),
        }
    }
}

impl Dit {
    /// Creates an empty DIT with the standard schema.
    pub fn new() -> Self {
        Dit {
            entries: BTreeMap::new(),
            children: BTreeMap::new(),
            schema: Schema::standard(),
            observers: Vec::new(),
        }
    }

    /// Creates an empty DIT with a custom schema.
    pub fn with_schema(schema: Schema) -> Self {
        Dit {
            entries: BTreeMap::new(),
            children: BTreeMap::new(),
            schema,
            observers: Vec::new(),
        }
    }

    /// Registers an observer notified after every applied mutation
    /// (see [`DitChange`]). Observers are invoked in registration
    /// order; clones of the DIT do not inherit them.
    pub fn observe(&mut self, observer: Arc<dyn DitObserver>) {
        self.observers.push(observer);
    }

    fn notify(&self, change: DitChange) {
        for obs in &self.observers {
            obs.on_change(&change);
        }
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
        self.entries.len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds an entry.
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
        if dn.is_root() {
            return Err(DirectoryError::InvalidName("cannot add the root".into()));
        }
        if self.entries.contains_key(&dn) {
            return Err(DirectoryError::EntryExists(dn));
        }
        let Some(parent) = dn.parent() else {
            return Err(DirectoryError::InvalidName("cannot add the root".into()));
        };
        if !parent.is_root() && !self.entries.contains_key(&parent) {
            return Err(DirectoryError::NoParent(dn));
        }
        self.schema.validate(&entry)?;
        self.children.entry(parent).or_default().insert(dn.clone());
        let snapshot = (!self.observers.is_empty()).then(|| entry.clone());
        self.entries.insert(dn, entry);
        if let Some(added) = snapshot {
            self.notify(DitChange::Added(added));
        }
        Ok(())
    }

    /// Reads an entry.
    pub fn get(&self, dn: &Dn) -> Option<&Entry> {
        self.entries.get(dn)
    }

    /// Reads an entry, as a `Result`.
    ///
    /// # Errors
    ///
    /// [`DirectoryError::NoSuchEntry`] when absent.
    pub fn read(&self, dn: &Dn) -> Result<&Entry, DirectoryError> {
        self.entries
            .get(dn)
            .ok_or_else(|| DirectoryError::NoSuchEntry(dn.clone()))
    }

    /// Removes a leaf entry.
    ///
    /// # Errors
    ///
    /// * [`DirectoryError::NoSuchEntry`] — absent.
    /// * [`DirectoryError::NotLeaf`] — entry has children.
    pub fn remove(&mut self, dn: &Dn) -> Result<Entry, DirectoryError> {
        if !self.entries.contains_key(dn) {
            return Err(DirectoryError::NoSuchEntry(dn.clone()));
        }
        if self
            .children
            .get(dn)
            .map(|c| !c.is_empty())
            .unwrap_or(false)
        {
            return Err(DirectoryError::NotLeaf(dn.clone()));
        }
        if let Some(siblings) = dn.parent().and_then(|p| self.children.get_mut(&p)) {
            siblings.remove(dn);
        }
        self.children.remove(dn);
        let entry = self
            .entries
            .remove(dn)
            .ok_or_else(|| DirectoryError::NoSuchEntry(dn.clone()))?;
        if !self.observers.is_empty() {
            self.notify(DitChange::Removed(entry.clone()));
        }
        Ok(entry)
    }

    /// Removes an entire subtree rooted at `dn` (inclusive); returns how
    /// many entries were removed.
    ///
    /// # Errors
    ///
    /// [`DirectoryError::NoSuchEntry`] when the root of the subtree is
    /// absent.
    pub fn remove_subtree(&mut self, dn: &Dn) -> Result<usize, DirectoryError> {
        if !self.entries.contains_key(dn) {
            return Err(DirectoryError::NoSuchEntry(dn.clone()));
        }
        let doomed: Vec<Dn> = self
            .entries
            .keys()
            .filter(|k| dn.is_prefix_of(k))
            .cloned()
            .collect();
        let mut removed = Vec::with_capacity(doomed.len());
        for d in &doomed {
            if let Some(e) = self.entries.remove(d) {
                removed.push(e);
            }
            self.children.remove(d);
        }
        if let Some(parent) = dn.parent() {
            if let Some(siblings) = self.children.get_mut(&parent) {
                siblings.remove(dn);
            }
        }
        if !self.observers.is_empty() {
            for e in removed {
                self.notify(DitChange::Removed(e));
            }
        }
        Ok(doomed.len())
    }

    /// Applies a closure to an entry and re-validates it.
    ///
    /// # Errors
    ///
    /// * [`DirectoryError::NoSuchEntry`] — absent.
    /// * [`DirectoryError::SchemaViolation`] — modification broke schema
    ///   (the stored entry is left untouched).
    pub fn modify(&mut self, dn: &Dn, f: impl FnOnce(&mut Entry)) -> Result<(), DirectoryError> {
        let stored = self
            .entries
            .get_mut(dn)
            .ok_or_else(|| DirectoryError::NoSuchEntry(dn.clone()))?;
        let mut after = stored.clone();
        f(&mut after);
        // The DN is structural; modifications must not change it.
        after.set_dn(dn.clone());
        self.schema.validate(&after)?;
        if self.observers.is_empty() {
            *stored = after;
            return Ok(());
        }
        if after == *stored {
            return Ok(());
        }
        // Observers only borrow the change, so the new state travels in
        // it and then moves into the tree rather than being copied; the
        // placeholder is unreachable meanwhile, as `self` is borrowed.
        let before = std::mem::replace(stored, Entry::new(dn.clone()));
        let change = DitChange::Modified { before, after };
        for obs in &self.observers {
            obs.on_change(&change);
        }
        if let DitChange::Modified { after, .. } = change {
            *stored = after;
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

    /// Renames a **leaf** entry to a new name whose parent already exists.
    ///
    /// # Errors
    ///
    /// * [`DirectoryError::NoSuchEntry`] / [`DirectoryError::NotLeaf`] on
    ///   the source.
    /// * [`DirectoryError::EntryExists`] / [`DirectoryError::NoParent`] on
    ///   the target.
    pub fn rename(&mut self, from: &Dn, to: Dn) -> Result<(), DirectoryError> {
        if self.entries.contains_key(&to) {
            return Err(DirectoryError::EntryExists(to));
        }
        let to_parent = to
            .parent()
            .ok_or(DirectoryError::InvalidName("rename to root".into()))?;
        if !to_parent.is_root() && !self.entries.contains_key(&to_parent) {
            return Err(DirectoryError::NoParent(to));
        }
        let mut entry = self.remove(from)?;
        entry.set_dn(to.clone());
        self.children
            .entry(to_parent)
            .or_default()
            .insert(to.clone());
        let snapshot = (!self.observers.is_empty()).then(|| entry.clone());
        self.entries.insert(to, entry);
        if let Some(added) = snapshot {
            self.notify(DitChange::Added(added));
        }
        Ok(())
    }

    /// The immediate children of `base` (which may be the root).
    pub fn children(&self, base: &Dn) -> impl Iterator<Item = &Entry> {
        self.children
            .get(base)
            .into_iter()
            .flat_map(|set| set.iter())
            .filter_map(|dn| self.entries.get(dn))
    }

    /// Iterates over every entry in DN order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values()
    }

    /// Evaluates a search request.
    ///
    /// # Errors
    ///
    /// [`DirectoryError::NoSuchEntry`] when the base object is missing
    /// (and is not the root).
    pub fn search(&self, request: &SearchRequest) -> Result<SearchOutcome, DirectoryError> {
        if !request.base.is_root() && !self.entries.contains_key(&request.base) {
            return Err(DirectoryError::NoSuchEntry(request.base.clone()));
        }
        let mut entries = Vec::new();
        let mut truncated = false;
        let candidates: Vec<&Entry> = match request.scope {
            SearchScope::Base => self.entries.get(&request.base).into_iter().collect(),
            SearchScope::OneLevel => self.children(&request.base).collect(),
            SearchScope::Subtree => self
                .entries
                .range(request.base.clone()..)
                .take_while(|(dn, _)| request.base.is_prefix_of(dn))
                .map(|(_, e)| e)
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
