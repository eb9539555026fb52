//! Distinguished names.
//!
//! An X.500 distinguished name (DN) is a path from the root of the
//! Directory Information Tree to an entry, written here in the familiar
//! left-to-right *leaf-last* string form used throughout the paper's era:
//! `c=UK, o=Lancaster University, ou=Computing, cn=Tom Rodden`.
//!
//! Internally a [`Dn`] stores its RDNs **root-first** behind a shared
//! handle, next to one contiguous *order key*: the RDNs encoded as
//! `attr \x01 value`, joined by `\x00`. Cloning is a reference-count
//! bump, and comparing, hashing and prefix tests are single byte-string
//! operations on the key. Both separators sort below every byte an RDN
//! may contain ([`Rdn::new`] rejects them), so key order is exactly the
//! RDN-by-RDN order of the names: type before value, shorter names first.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::{Arc, LazyLock};

use crate::attribute::AttributeType;
use crate::error::DirectoryError;

/// Joins RDNs in a [`Dn`]'s order key.
const RDN_SEPARATOR: char = '\x00';
/// Joins an RDN's type and value in a [`Dn`]'s order key.
const VALUE_SEPARATOR: char = '\x01';
const KEY_SEPARATORS: [char; 2] = [RDN_SEPARATOR, VALUE_SEPARATOR];
/// How the root is written and parsed.
const ROOT_TEXT: &str = "<root>";

/// A relative distinguished name: one `attribute=value` naming step.
///
/// Attribute types compare case-insensitively (they are normalised to
/// lowercase on construction); values compare exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rdn {
    attr: AttributeType,
    value: String,
}

impl Rdn {
    /// Creates an RDN from an attribute type and value.
    ///
    /// # Errors
    ///
    /// Returns [`DirectoryError::InvalidName`] if the value is empty or
    /// contains the reserved characters `,` or `=`, or if either the type
    /// or the value contains a DN order-key separator (`\x00`, `\x01`).
    pub fn new(
        attr: impl Into<AttributeType>,
        value: impl Into<String>,
    ) -> Result<Self, DirectoryError> {
        let (attr, value) = (attr.into(), value.into());
        if value.is_empty() || value.contains([',', '=']) || value.contains(KEY_SEPARATORS) {
            return Err(DirectoryError::InvalidName(format!(
                "bad RDN value {value:?}"
            )));
        }
        if attr.as_str().contains(KEY_SEPARATORS) {
            return Err(DirectoryError::InvalidName(format!(
                "bad RDN attribute {:?}",
                attr.as_str()
            )));
        }
        Ok(Rdn { attr, value })
    }

    /// The attribute type (e.g. `cn`).
    pub fn attr(&self) -> &AttributeType {
        &self.attr
    }

    /// The attribute value (e.g. `Tom Rodden`).
    pub fn value(&self) -> &str {
        &self.value
    }
}

impl fmt::Display for Rdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.attr.as_str())?;
        f.write_str("=")?;
        f.write_str(&self.value)
    }
}

impl FromStr for Rdn {
    type Err = DirectoryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (attr, value) = s
            .split_once('=')
            .ok_or_else(|| DirectoryError::InvalidName(format!("missing '=' in RDN {s:?}")))?;
        let attr = attr.trim();
        let value = value.trim();
        if attr.is_empty() {
            return Err(DirectoryError::InvalidName(format!(
                "empty attribute in RDN {s:?}"
            )));
        }
        Rdn::new(attr, value)
    }
}

/// A distinguished name: the full path of an entry, root-first.
///
/// # Examples
///
/// ```
/// use cscw_directory::Dn;
///
/// let dn: Dn = "c=UK, o=Lancaster, ou=Computing, cn=Tom Rodden".parse()?;
/// assert_eq!(dn.depth(), 4);
/// assert_eq!(dn.rdn().unwrap().value(), "Tom Rodden");
/// let parent = dn.parent().unwrap();
/// assert!(parent.is_ancestor_of(&dn));
/// assert_eq!(parent.to_string(), "c=UK,o=Lancaster,ou=Computing");
/// # Ok::<(), cscw_directory::DirectoryError>(())
/// ```
#[derive(Clone)]
pub struct Dn(Arc<DnInner>);

/// The root's body, shared by every root name.
static ROOT: LazyLock<Dn> = LazyLock::new(|| {
    Dn(Arc::new(DnInner {
        key: String::new(),
        rdns: Vec::new(),
    }))
});

/// The immutable body shared by clones of one [`Dn`].
struct DnInner {
    /// The order key: `attr \x01 value` per RDN, root-first, joined by
    /// `\x00`. Empty for the root.
    key: String,
    rdns: Vec<Rdn>,
}

impl Dn {
    /// The root of the DIT (the empty name). Every root shares one
    /// body, so this allocates nothing.
    pub fn root() -> Self {
        ROOT.clone()
    }

    /// Builds a DN from root-first RDNs.
    pub fn from_rdns(rdns: Vec<Rdn>) -> Self {
        if rdns.is_empty() {
            return Dn::root();
        }
        let len = rdns
            .iter()
            .map(|r| r.attr.as_str().len() + r.value.len() + 2)
            .sum();
        let mut key = String::with_capacity(len);
        for rdn in &rdns {
            push_key(&mut key, rdn);
        }
        Dn(Arc::new(DnInner { key, rdns }))
    }

    /// True for the DIT root.
    pub fn is_root(&self) -> bool {
        self.0.rdns.is_empty()
    }

    /// Number of RDNs.
    pub fn depth(&self) -> usize {
        self.0.rdns.len()
    }

    /// The final (leaf) RDN, or `None` for the root.
    pub fn rdn(&self) -> Option<&Rdn> {
        self.0.rdns.last()
    }

    /// The RDNs, root-first.
    pub fn rdns(&self) -> &[Rdn] {
        &self.0.rdns
    }

    /// The name one level up, or `None` for the root.
    pub fn parent(&self) -> Option<Dn> {
        let (_, rdns) = self.0.rdns.split_last()?;
        if rdns.is_empty() {
            return Some(Dn::root());
        }
        let key_len = self.0.key.rfind(RDN_SEPARATOR).unwrap_or(0);
        Some(Dn(Arc::new(DnInner {
            key: self.0.key[..key_len].to_owned(),
            rdns: rdns.to_vec(),
        })))
    }

    /// Returns `self` extended by one RDN.
    pub fn child(&self, rdn: Rdn) -> Dn {
        let mut key = self.0.key.clone();
        push_key(&mut key, &rdn);
        let mut rdns = Vec::with_capacity(self.0.rdns.len() + 1);
        rdns.extend_from_slice(&self.0.rdns);
        rdns.push(rdn);
        Dn(Arc::new(DnInner { key, rdns }))
    }

    /// The name's text, equal to its `to_string()`, built in one
    /// allocation of exact length: the text of a non-root name is its
    /// order key with each `\x00` written as `,` and each `\x01` as
    /// `=`, so it is as long as the key.
    pub fn text(&self) -> String {
        if self.is_root() {
            return ROOT_TEXT.to_owned();
        }
        let mut text = String::with_capacity(self.0.key.len());
        for (i, rdn) in self.0.rdns.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            text.push_str(rdn.attr.as_str());
            text.push('=');
            text.push_str(&rdn.value);
        }
        text
    }

    /// True when `self` is a strict ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &Dn) -> bool {
        self.depth() < other.depth() && self.is_prefix_of(other)
    }

    /// True when `self` is `other` or an ancestor of it.
    pub fn is_prefix_of(&self, other: &Dn) -> bool {
        let (mine, theirs) = (self.0.key.as_bytes(), other.0.key.as_bytes());
        self.is_root()
            || (theirs.starts_with(mine)
                && theirs
                    .get(mine.len())
                    .is_none_or(|&b| b == RDN_SEPARATOR as u8))
    }
}

/// Appends one RDN to an order key.
fn push_key(key: &mut String, rdn: &Rdn) {
    if !key.is_empty() {
        key.push(RDN_SEPARATOR);
    }
    key.push_str(rdn.attr.as_str());
    key.push(VALUE_SEPARATOR);
    key.push_str(&rdn.value);
}

impl Default for Dn {
    /// The root.
    fn default() -> Self {
        Dn::root()
    }
}

impl PartialEq for Dn {
    fn eq(&self, other: &Dn) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.key == other.0.key
    }
}

impl Eq for Dn {}

impl Ord for Dn {
    fn cmp(&self, other: &Dn) -> Ordering {
        self.0.key.as_bytes().cmp(other.0.key.as_bytes())
    }
}

impl PartialOrd for Dn {
    fn partial_cmp(&self, other: &Dn) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Dn {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.key.hash(state);
    }
}

impl fmt::Debug for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dn").field("rdns", &self.0.rdns).finish()
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(ROOT_TEXT);
        }
        for (i, rdn) in self.rdns().iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            fmt::Display::fmt(rdn, f)?;
        }
        Ok(())
    }
}

impl FromStr for Dn {
    type Err = DirectoryError;

    /// Parses `attr=value, attr=value, …` (root-first). The empty string
    /// and `"<root>"` parse to the root.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == ROOT_TEXT {
            return Ok(Dn::root());
        }
        let rdns = s
            .split(',')
            .map(|part| part.parse::<Rdn>())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Dn::from_rdns(rdns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let s = "c=UK,o=Lancaster,ou=Computing,cn=Tom Rodden";
        let dn: Dn = s.parse().unwrap();
        assert_eq!(dn.to_string(), s);
        assert_eq!(dn.depth(), 4);
    }

    #[test]
    fn parse_tolerates_spaces_and_normalises_attr_case() {
        let dn: Dn = " C=UK , O=Lancaster ".parse().unwrap();
        assert_eq!(dn.to_string(), "c=UK,o=Lancaster");
    }

    #[test]
    fn text_is_the_display_in_one_exact_allocation() {
        for s in [
            "c=UK",
            "c=UK,o=Lancaster,ou=Computing,cn=Tom Rodden",
            "c=ES,o=Ü,cn=é ñ",
        ] {
            let dn: Dn = s.parse().unwrap();
            let text = dn.text();
            assert_eq!(text, s);
            assert_eq!(text, dn.to_string());
            assert_eq!(text.len(), dn.0.key.len(), "{s}: as long as the order key");
            assert_eq!(text.capacity(), text.len(), "{s}: no slack");
        }
        assert_eq!(Dn::root().text(), "<root>");
        assert_eq!(
            Rdn::new("CN", "Tom").unwrap().to_string(),
            "cn=Tom",
            "an RDN writes its normalised type"
        );
    }

    #[test]
    fn root_parses_and_displays() {
        assert!(Dn::from_str("").unwrap().is_root());
        assert!(Dn::from_str("<root>").unwrap().is_root());
        assert_eq!(Dn::root().to_string(), "<root>");
        assert_eq!(Dn::root().parent(), None);
        assert_eq!(Dn::root().rdn(), None);
    }

    #[test]
    fn ancestor_relationships() {
        let uk: Dn = "c=UK".parse().unwrap();
        let lanc: Dn = "c=UK,o=Lancaster".parse().unwrap();
        let other: Dn = "c=DE,o=GMD".parse().unwrap();
        assert!(uk.is_ancestor_of(&lanc));
        assert!(!lanc.is_ancestor_of(&uk));
        assert!(!uk.is_ancestor_of(&uk));
        assert!(uk.is_prefix_of(&uk));
        assert!(Dn::root().is_ancestor_of(&uk));
        assert!(!uk.is_ancestor_of(&other));
    }

    #[test]
    fn child_extends_parent() {
        let base: Dn = "c=ES".parse().unwrap();
        let child = base.child(Rdn::new("o", "UPC").unwrap());
        assert_eq!(child.to_string(), "c=ES,o=UPC");
        assert_eq!(child.parent(), Some(base));
    }

    #[test]
    fn invalid_rdns_are_rejected() {
        assert!("noequals".parse::<Dn>().is_err());
        assert!("=value".parse::<Dn>().is_err());
        assert!("cn=".parse::<Dn>().is_err());
        assert!(Rdn::new("cn", "a,b").is_err());
        assert!(Rdn::new("cn", "a=b").is_err());
        for sep in ["\x00", "\x01"] {
            assert!(Rdn::new("cn", format!("a{sep}b")).is_err());
            assert!(Rdn::new(format!("c{sep}n"), "a").is_err());
        }
    }

    #[test]
    fn debug_rendering_is_pinned() {
        let dn: Dn = "c=UK,cn=Tom Rodden".parse().unwrap();
        assert_eq!(
            format!("{dn:?}"),
            "Dn { rdns: [Rdn { attr: AttributeType(\"c\"), value: \"UK\" }, \
             Rdn { attr: AttributeType(\"cn\"), value: \"Tom Rodden\" }] }"
        );
        assert_eq!(format!("{:?}", Dn::root()), "Dn { rdns: [] }");
        assert_eq!(Dn::default(), Dn::root());
    }

    #[test]
    fn rdn_attr_compare_is_case_insensitive() {
        let a: Rdn = "CN=Tom".parse().unwrap();
        let b: Rdn = "cn=Tom".parse().unwrap();
        assert_eq!(a, b);
        let c: Rdn = "cn=tom".parse().unwrap();
        assert_ne!(a, c, "values are case-sensitive");
    }
}
