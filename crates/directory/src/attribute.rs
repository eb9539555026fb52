//! Attribute types and values.
//!
//! X.500 entries are bags of typed, multi-valued attributes. We keep the
//! value syntax simple — strings and integers — which covers everything
//! the CSCW knowledge base stores (names, roles, mailbox addresses,
//! capability levels).

use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The attribute names most entries carry: each name the standard
/// schema declares, `objectclass`, and the CSCW edge names the
/// knowledge base writes. Sorted, for binary search. A known name is
/// held as a `&'static str`, so building and cloning it never
/// allocates.
const KNOWN_NAMES: [&str; 28] = [
    "activitystate",
    "c",
    "cn",
    "contenttype",
    "deadline",
    "dependson",
    "description",
    "location",
    "mail",
    "member",
    "o",
    "objectclass",
    "occupiesrole",
    "ou",
    "owner",
    "partof",
    "postaladdress",
    "presentationaddress",
    "projectstate",
    "resourcetype",
    "roleoccupant",
    "sn",
    "supportedapplicationcontext",
    "telephonenumber",
    "title",
    "userpassword",
    "version",
    "workson",
];

/// A case-insensitive attribute type name (`cn`, `telephoneNumber`, …).
///
/// Normalised to lowercase at construction so that lookups and schema
/// checks need no case folding. A shared name: a [known](KNOWN_NAMES)
/// name is static, any other is one reference-counted string, so a
/// clone is a copy or a count bump. Equality, order and hashing are
/// those of the name text.
#[derive(Clone)]
pub struct AttributeType(Name);

#[derive(Clone)]
enum Name {
    Known(&'static str),
    Shared(Arc<str>),
}

impl AttributeType {
    /// Creates a type name (normalising to lowercase).
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = Self::normal_form(name.as_ref());
        AttributeType(match KNOWN_NAMES.binary_search(&&*name) {
            Ok(i) => Name::Known(KNOWN_NAMES[i]),
            Err(_) => Name::Shared(Arc::from(name)),
        })
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
        match &self.0 {
            Name::Known(name) => name,
            Name::Shared(name) => name,
        }
    }

    /// True when the name is one of the static known names.
    #[cfg(test)]
    pub(crate) fn is_known(&self) -> bool {
        matches!(self.0, Name::Known(_))
    }
}

impl PartialEq for AttributeType {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for AttributeType {}

impl PartialOrd for AttributeType {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AttributeType {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

/// Hashes as the name's `str` does, as [`Borrow<str>`] requires.
impl Hash for AttributeType {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

/// Prints the name as one tuple field: `AttributeType("cn")`.
impl fmt::Debug for AttributeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AttributeType")
            .field(&self.as_str())
            .finish()
    }
}

impl fmt::Display for AttributeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Lookups by `&str`: `Eq`, `Ord` and `Hash` compare the normalised
/// name exactly as `str` does, so maps keyed by `AttributeType` can be
/// queried with a name in normal form.
impl Borrow<str> for AttributeType {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for AttributeType {
    fn as_ref(&self) -> &str {
        self.as_str()
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
    fn known_and_shared_names_behave_alike() {
        assert!(
            KNOWN_NAMES.windows(2).all(|w| w[0] < w[1]),
            "sorted, unique"
        );
        let (known, shared) = (
            AttributeType::new("CN"),
            AttributeType::new("capabilityLevel"),
        );
        assert!(known.is_known() && !shared.is_known());
        assert_eq!(shared.as_str(), "capabilitylevel");
        assert!(
            shared < known && known < AttributeType::new("mail"),
            "ordered by text"
        );
        assert_eq!(
            format!("{known:?} {shared:?}"),
            r#"AttributeType("cn") AttributeType("capabilitylevel")"#
        );
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
