//! Attribute types and values.
//!
//! X.500 entries are bags of typed, multi-valued attributes. We keep the
//! value syntax simple — strings and integers — which covers everything
//! the CSCW knowledge base stores (names, roles, mailbox addresses,
//! capability levels).

use std::borrow::{Borrow, Cow};
use std::fmt;

/// A case-insensitive attribute type name (`cn`, `telephoneNumber`, …).
///
/// Normalised to lowercase at construction so that lookups and schema
/// checks need no case folding.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttributeType(String);

impl AttributeType {
    /// Creates a type name (normalising to lowercase).
    pub fn new(name: impl AsRef<str>) -> Self {
        AttributeType(Self::normal_form(name.as_ref()).into_owned())
    }

    /// `name` as [`AttributeType::new`] normalises it: trimmed and
    /// lowercase. Borrowed, with no allocation, when `name` is already
    /// in that form — the common case for lookups by literal name.
    pub(crate) fn normal_form(name: &str) -> Cow<'_, str> {
        let trimmed = name.trim();
        if trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(trimmed.to_ascii_lowercase())
        } else {
            Cow::Borrowed(trimmed)
        }
    }

    /// The normalised name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AttributeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Lookups by `&str`: the derived `Eq`/`Ord` compare the normalised
/// name exactly as `str` does, so maps keyed by `AttributeType` can be
/// queried with a name in normal form.
impl Borrow<str> for AttributeType {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for AttributeType {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for AttributeType {
    fn from(s: &str) -> Self {
        AttributeType::new(s)
    }
}

impl From<String> for AttributeType {
    fn from(s: String) -> Self {
        AttributeType::new(s)
    }
}

/// One attribute value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttributeValue {
    /// A (case-sensitive) string value.
    Text(String),
    /// An integer value, for counters and levels.
    Int(i64),
}

impl AttributeValue {
    /// The value as a string slice, when textual.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AttributeValue::Text(s) => Some(s),
            AttributeValue::Int(_) => None,
        }
    }

    /// The value as an integer, when numeric.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttributeValue::Int(i) => Some(*i),
            AttributeValue::Text(_) => None,
        }
    }

    /// Ordering comparison used by `>=` / `<=` filters. Integers compare
    /// numerically; strings lexicographically; mixed kinds are unordered.
    pub fn partial_cmp_same_kind(&self, other: &AttributeValue) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (AttributeValue::Text(a), AttributeValue::Text(b)) => Some(a.cmp(b)),
            (AttributeValue::Int(a), AttributeValue::Int(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl fmt::Display for AttributeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttributeValue::Text(s) => f.write_str(s),
            AttributeValue::Int(i) => write!(f, "{i}"),
        }
    }
}

impl From<&str> for AttributeValue {
    fn from(s: &str) -> Self {
        AttributeValue::Text(s.to_owned())
    }
}

impl From<String> for AttributeValue {
    fn from(s: String) -> Self {
        AttributeValue::Text(s)
    }
}

impl From<i64> for AttributeValue {
    fn from(i: i64) -> Self {
        AttributeValue::Int(i)
    }
}

/// A typed, multi-valued attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    ty: AttributeType,
    values: Vec<AttributeValue>,
}

impl Attribute {
    /// Creates an attribute with a single value.
    pub fn single(ty: impl Into<AttributeType>, value: impl Into<AttributeValue>) -> Self {
        Attribute {
            ty: ty.into(),
            values: vec![value.into()],
        }
    }

    /// Creates an attribute with several values.
    pub fn multi<V: Into<AttributeValue>>(
        ty: impl Into<AttributeType>,
        values: impl IntoIterator<Item = V>,
    ) -> Self {
        Attribute {
            ty: ty.into(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// The attribute type.
    pub fn ty(&self) -> &AttributeType {
        &self.ty
    }

    /// All values.
    pub fn values(&self) -> &[AttributeValue] {
        &self.values
    }

    /// The first value (attributes are never empty in practice).
    pub fn first(&self) -> Option<&AttributeValue> {
        self.values.first()
    }

    /// Adds a value if not already present; returns whether it was added.
    pub fn add_value(&mut self, value: impl Into<AttributeValue>) -> bool {
        let value = value.into();
        if self.values.contains(&value) {
            false
        } else {
            self.values.push(value);
            true
        }
    }

    /// Removes a value; returns whether it was present.
    pub fn remove_value(&mut self, value: &AttributeValue) -> bool {
        let before = self.values.len();
        self.values.retain(|v| v != value);
        self.values.len() != before
    }

    /// True when no values remain.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// True when any value equals `value`.
    pub fn contains(&self, value: &AttributeValue) -> bool {
        self.values.contains(value)
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}=", self.ty)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str("|")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_normalise_case() {
        assert_eq!(AttributeType::new("CN"), AttributeType::new("cn"));
        assert_eq!(
            AttributeType::new(" SurName "),
            AttributeType::new("surname")
        );
        assert_eq!(AttributeType::new("CN").to_string(), "cn");
    }

    #[test]
    fn values_expose_kind_accessors() {
        let t = AttributeValue::from("hello");
        let i = AttributeValue::from(42i64);
        assert_eq!(t.as_text(), Some("hello"));
        assert_eq!(t.as_int(), None);
        assert_eq!(i.as_int(), Some(42));
        assert_eq!(i.as_text(), None);
        assert_eq!(i.to_string(), "42");
    }

    #[test]
    fn same_kind_comparison() {
        use std::cmp::Ordering::*;
        let a = AttributeValue::from(1i64);
        let b = AttributeValue::from(2i64);
        assert_eq!(a.partial_cmp_same_kind(&b), Some(Less));
        let s = AttributeValue::from("abc");
        let t = AttributeValue::from("abd");
        assert_eq!(s.partial_cmp_same_kind(&t), Some(Less));
        assert_eq!(a.partial_cmp_same_kind(&s), None);
    }

    #[test]
    fn multi_valued_attribute_add_remove() {
        let mut a = Attribute::multi("memberOfActivity", ["design", "review"]);
        assert_eq!(a.values().len(), 2);
        assert!(a.add_value("progress-meeting"));
        assert!(!a.add_value("design"), "duplicates rejected");
        assert!(a.remove_value(&AttributeValue::from("review")));
        assert!(!a.remove_value(&AttributeValue::from("review")));
        assert_eq!(a.values().len(), 2);
        assert!(a.contains(&AttributeValue::from("design")));
    }

    #[test]
    fn display_formats() {
        let a = Attribute::multi("cn", ["Tom", "Thomas"]);
        assert_eq!(a.to_string(), "cn=Tom|Thomas");
    }
}
