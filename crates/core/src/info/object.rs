//! Information objects.
//!
//! "The Mocca information model aims to allow information used within
//! different CSCW systems to be represented externally and to be shared
//! between systems. The model is expressed in terms of information
//! objects, the relationships between these objects (e.g. composition,
//! dependencies) and the access to these objects" (§5).

use std::collections::BTreeMap;

use cscw_directory::Dn;

/// Identifies an information object.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InfoObjectId(String);

impl InfoObjectId {
    /// Creates an id.
    pub fn new(id: impl Into<String>) -> Self {
        InfoObjectId(id.into())
    }

    /// The raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for InfoObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for InfoObjectId {
    fn from(s: &str) -> Self {
        InfoObjectId::new(s)
    }
}

/// The content of an information object, in the *common* representation
/// every registered application can convert to and from.
#[derive(Debug, Clone, PartialEq)]
pub enum InfoContent {
    /// Unstructured text.
    Text(String),
    /// Semi-structured fields — the exchange lingua franca
    /// (Object-Lens-style semi-structured objects).
    Fields(BTreeMap<String, String>),
    /// Opaque bytes with a format label (not convertible, only carried).
    Binary {
        /// Format label.
        format: String,
        /// The bytes.
        data: Vec<u8>,
    },
}

impl InfoContent {
    /// Builds field content from pairs.
    pub fn fields<K: Into<String>, V: Into<String>>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Self {
        InfoContent::Fields(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// A field value, when field-structured.
    pub fn field(&self, key: &str) -> Option<&str> {
        match self {
            InfoContent::Fields(map) => map.get(key).map(String::as_str),
            _ => None,
        }
    }

    /// Approximate size in bytes.
    pub fn size(&self) -> usize {
        match self {
            InfoContent::Text(s) => s.len(),
            InfoContent::Fields(map) => map.iter().map(|(k, v)| k.len() + v.len()).sum(),
            InfoContent::Binary { data, .. } => data.len(),
        }
    }
}

/// An information object in the shared model.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoObject {
    /// The id.
    pub id: InfoObjectId,
    /// Kind tag (`document`, `message`, `minutes`, `annotation`, …).
    pub kind: String,
    /// Owning person (directory DN).
    pub owner: Dn,
    /// Version, bumped on every update.
    pub version: u32,
    /// The content.
    pub content: InfoContent,
}

impl InfoObject {
    /// Creates a version-1 object.
    pub fn new(id: InfoObjectId, kind: &str, owner: Dn, content: InfoContent) -> Self {
        InfoObject {
            id,
            kind: kind.to_owned(),
            owner,
            version: 1,
            content,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_builder_and_accessor() {
        let c = InfoContent::fields([("title", "Progress report"), ("status", "draft")]);
        assert_eq!(c.field("title"), Some("Progress report"));
        assert_eq!(c.field("missing"), None);
        assert_eq!(InfoContent::Text("x".into()).field("title"), None);
    }

    #[test]
    fn sizes() {
        assert_eq!(InfoContent::Text("abc".into()).size(), 3);
        assert_eq!(InfoContent::fields([("a", "xy")]).size(), 3);
        assert_eq!(
            InfoContent::Binary {
                format: "oda".into(),
                data: vec![0; 7]
            }
            .size(),
            7
        );
    }

    #[test]
    fn new_objects_start_at_version_one() {
        let o = InfoObject::new(
            "doc1".into(),
            "document",
            "cn=Tom".parse().unwrap(),
            InfoContent::Text("hello".into()),
        );
        assert_eq!(o.version, 1);
        assert_eq!(o.kind, "document");
        assert_eq!(o.id.to_string(), "doc1");
    }
}
