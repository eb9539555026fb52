//! Directory entries.

use std::collections::BTreeMap;
use std::fmt;

use crate::attribute::{Attribute, AttributeType, AttributeValue};
use crate::name::Dn;

/// An entry in the Directory Information Tree: a name plus a set of
/// typed, multi-valued attributes.
///
/// The entry's object classes are themselves stored in the
/// `objectclass` attribute, as in X.500.
///
/// # Examples
///
/// ```
/// use cscw_directory::{Attribute, Entry};
///
/// let entry = Entry::new("c=UK,o=Lancaster,cn=Tom Rodden".parse()?)
///     .with_class("person")
///     .with_attr(Attribute::single("cn", "Tom Rodden"))
///     .with_attr(Attribute::single("sn", "Rodden"));
/// assert!(entry.has_class("person"));
/// assert_eq!(entry.first_text("sn"), Some("Rodden"));
/// # Ok::<(), cscw_directory::DirectoryError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    dn: Dn,
    attrs: BTreeMap<AttributeType, Attribute>,
}

/// The attribute holding an entry's object classes.
pub const OBJECT_CLASS: &str = "objectclass";

impl Entry {
    /// Creates an empty entry at `dn`.
    pub fn new(dn: Dn) -> Self {
        Entry {
            dn,
            attrs: BTreeMap::new(),
        }
    }

    /// The entry's distinguished name.
    pub fn dn(&self) -> &Dn {
        &self.dn
    }

    /// Replaces the DN (used internally by rename).
    pub(crate) fn set_dn(&mut self, dn: Dn) {
        self.dn = dn;
    }

    /// Builder-style: adds or merges an attribute.
    #[must_use]
    pub fn with_attr(mut self, attr: Attribute) -> Self {
        self.put_attr(attr);
        self
    }

    /// Builder-style: adds an object class.
    #[must_use]
    pub fn with_class(mut self, class: &str) -> Self {
        self.add_class(class);
        self
    }

    /// Adds or merges an attribute (values are unioned).
    pub fn put_attr(&mut self, attr: Attribute) {
        match self.attrs.get_mut(attr.ty()) {
            Some(existing) => {
                for v in attr.values() {
                    existing.add_value(v.clone());
                }
            }
            None => {
                self.attrs.insert(attr.ty().clone(), attr);
            }
        }
    }

    /// Replaces an attribute wholesale.
    pub fn replace_attr(&mut self, attr: Attribute) {
        self.attrs.insert(attr.ty().clone(), attr);
    }

    /// Removes an attribute entirely; returns it if present.
    pub fn remove_attr(&mut self, ty: &AttributeType) -> Option<Attribute> {
        self.attrs.remove(ty)
    }

    /// Removes a single value; drops the attribute when it empties.
    /// Returns whether the value was present.
    pub fn remove_value(&mut self, ty: &AttributeType, value: &AttributeValue) -> bool {
        let Some(attr) = self.attrs.get_mut(ty) else {
            return false;
        };
        let removed = attr.remove_value(value);
        if attr.is_empty() {
            self.attrs.remove(ty);
        }
        removed
    }

    /// Looks up an attribute by type name, case-insensitively. A name
    /// already in normal form (trimmed, lowercase) is looked up without
    /// allocating.
    pub fn attr(&self, ty: impl AsRef<str>) -> Option<&Attribute> {
        let name: &str = &AttributeType::normal_form(ty.as_ref());
        self.attrs.get(name)
    }

    /// The first textual value of an attribute, a very common access.
    pub fn first_text(&self, ty: impl AsRef<str>) -> Option<&str> {
        self.attr(ty)
            .and_then(|a| a.first())
            .and_then(|v| v.as_text())
    }

    /// The first integer value of an attribute.
    pub fn first_int(&self, ty: impl AsRef<str>) -> Option<i64> {
        self.attr(ty)
            .and_then(|a| a.first())
            .and_then(|v| v.as_int())
    }

    /// Iterates over all attributes in type order.
    pub fn attrs(&self) -> impl Iterator<Item = &Attribute> {
        self.attrs.values()
    }

    /// Number of attributes.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Registers an object class (idempotent).
    pub fn add_class(&mut self, class: &str) {
        self.put_attr(Attribute::single(OBJECT_CLASS, class.to_ascii_lowercase()));
    }

    /// True when the entry carries the given object class
    /// (case-insensitive).
    pub fn has_class(&self, class: &str) -> bool {
        self.attr(OBJECT_CLASS)
            .map(|a| a.contains(&AttributeValue::from(class.to_ascii_lowercase())))
            .unwrap_or(false)
    }

    /// The entry's object classes.
    pub fn classes(&self) -> Vec<&str> {
        self.attr(OBJECT_CLASS)
            .map(|a| a.values().iter().filter_map(|v| v.as_text()).collect())
            .unwrap_or_default()
    }
}

impl fmt::Display for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.dn)?;
        for attr in self.attrs.values() {
            write!(f, "\n  {attr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person() -> Entry {
        Entry::new("c=DE,o=GMD,cn=Wolfgang Prinz".parse().unwrap())
            .with_class("person")
            .with_attr(Attribute::single("cn", "Wolfgang Prinz"))
            .with_attr(Attribute::single("sn", "Prinz"))
            .with_attr(Attribute::single("capabilitylevel", 4i64))
    }

    #[test]
    fn class_membership_is_case_insensitive() {
        let e = person();
        assert!(e.has_class("Person"));
        assert!(e.has_class("PERSON"));
        assert!(!e.has_class("role"));
        assert_eq!(e.classes(), vec!["person"]);
    }

    #[test]
    fn put_attr_merges_values() {
        let mut e = person();
        e.put_attr(Attribute::single("cn", "W. Prinz"));
        assert_eq!(e.attr("cn").unwrap().values().len(), 2);
        // merging a duplicate is a no-op
        e.put_attr(Attribute::single("cn", "W. Prinz"));
        assert_eq!(e.attr("cn").unwrap().values().len(), 2);
    }

    #[test]
    fn replace_attr_overwrites() {
        let mut e = person();
        e.replace_attr(Attribute::single("sn", "P."));
        assert_eq!(e.first_text("sn"), Some("P."));
        assert_eq!(e.attr("sn").unwrap().values().len(), 1);
    }

    #[test]
    fn remove_value_drops_empty_attribute() {
        let mut e = person();
        assert!(e.remove_value(&"sn".into(), &AttributeValue::from("Prinz")));
        assert!(e.attr("sn").is_none());
        assert!(!e.remove_value(&"sn".into(), &AttributeValue::from("Prinz")));
    }

    #[test]
    fn typed_accessors() {
        let e = person();
        assert_eq!(e.first_int("capabilitylevel"), Some(4));
        assert_eq!(e.first_text("capabilitylevel"), None);
        assert_eq!(e.first_text("missing"), None);
    }

    #[test]
    fn display_lists_dn_and_attrs() {
        let s = person().to_string();
        assert!(s.starts_with("c=DE,o=GMD,cn=Wolfgang Prinz"));
        assert!(s.contains("sn=Prinz"));
        assert!(s.contains("objectclass=person"));
    }
}
