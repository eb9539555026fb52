//! View transparency.
//!
//! "Transparency of view means that applications can be interested or
//! not in the way users view data. WYSIWIS applications will not use
//! this mechanism" (§4).
//!
//! A [`View`] projects a field-structured information object into what
//! one user sees: selected fields, optionally renamed. Strict WYSIWIS
//! ("what you see is what I see") is the *absence* of per-user views —
//! [`ViewRegistry::check_wysiwis`] verifies a group renders identically.

use std::collections::BTreeMap;

use cscw_directory::Dn;

use crate::info::{InfoContent, InfoObject};

/// A per-user projection of field-structured content.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct View {
    /// Fields shown, in order, as (common name, label shown to the
    /// user). An empty list shows everything unrelabelled.
    pub fields: Vec<(String, String)>,
}

impl View {
    /// The identity view (show everything as-is).
    pub fn identity() -> Self {
        Self::default()
    }

    /// A view selecting and relabelling fields.
    pub fn selecting<K: Into<String>, L: Into<String>>(
        fields: impl IntoIterator<Item = (K, L)>,
    ) -> Self {
        View {
            fields: fields
                .into_iter()
                .map(|(k, l)| (k.into(), l.into()))
                .collect(),
        }
    }

    /// Renders an object through the view.
    ///
    /// Non-field content (plain text, binary) renders unchanged — views
    /// only structure field content.
    pub fn render(&self, object: &InfoObject) -> InfoContent {
        match (&object.content, self.fields.is_empty()) {
            (InfoContent::Fields(map), false) => {
                let mut out = BTreeMap::new();
                for (key, label) in &self.fields {
                    if let Some(v) = map.get(key) {
                        out.insert(label.clone(), v.clone());
                    }
                }
                InfoContent::Fields(out)
            }
            (content, _) => content.clone(),
        }
    }
}

/// Per-user views, keyed by `(user, object kind)`.
#[derive(Debug, Clone, Default)]
pub struct ViewRegistry {
    views: BTreeMap<(Dn, String), View>,
}

impl ViewRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a user's view for an object kind.
    pub fn set_view(&mut self, user: Dn, kind: &str, view: View) {
        self.views.insert((user, kind.to_owned()), view);
    }

    /// The view a user has for a kind (identity when unset).
    pub fn view_for(&self, user: &Dn, kind: &str) -> View {
        self.views
            .get(&(user.clone(), kind.to_owned()))
            .cloned()
            .unwrap_or_default()
    }

    /// Renders an object for a user.
    pub fn render_for(&self, user: &Dn, object: &InfoObject) -> InfoContent {
        self.view_for(user, &object.kind).render(object)
    }

    /// Strict-WYSIWIS check: do all `users` see `object` identically?
    pub fn check_wysiwis(&self, users: &[Dn], object: &InfoObject) -> bool {
        let mut renditions = users.iter().map(|u| self.render_for(u, object));
        match renditions.next() {
            None => true,
            Some(first) => renditions.all(|r| r == first),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::InfoObjectId;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn report() -> InfoObject {
        InfoObject::new(
            InfoObjectId::new("doc1"),
            "document",
            dn("cn=Tom"),
            InfoContent::fields([
                ("title", "Progress report"),
                ("status", "draft"),
                ("budget", "secret"),
            ]),
        )
    }

    #[test]
    fn identity_view_shows_everything() {
        let v = View::identity();
        assert_eq!(v.render(&report()), report().content);
    }

    #[test]
    fn selecting_view_projects_and_relabels() {
        let v = View::selecting([("title", "Titel"), ("status", "Stand")]);
        let rendered = v.render(&report());
        assert_eq!(rendered.field("Titel"), Some("Progress report"));
        assert_eq!(rendered.field("Stand"), Some("draft"));
        assert_eq!(rendered.field("budget"), None, "unselected fields hidden");
        assert_eq!(rendered.field("title"), None, "original names hidden");
    }

    #[test]
    fn missing_fields_are_skipped() {
        let v = View::selecting([("title", "T"), ("nonexistent", "X")]);
        let rendered = v.render(&report());
        assert_eq!(rendered.field("T"), Some("Progress report"));
        assert_eq!(rendered.field("X"), None);
    }

    #[test]
    fn text_content_is_view_proof() {
        let v = View::selecting([("a", "b")]);
        let obj = InfoObject::new(
            "t".into(),
            "note",
            dn("cn=Tom"),
            InfoContent::Text("as is".into()),
        );
        assert_eq!(v.render(&obj), InfoContent::Text("as is".into()));
    }

    #[test]
    fn wysiwis_holds_without_views_and_breaks_with_them() {
        let mut reg = ViewRegistry::new();
        let users = [dn("cn=Tom"), dn("cn=Wolfgang")];
        assert!(
            reg.check_wysiwis(&users, &report()),
            "no views: strict WYSIWIS"
        );
        reg.set_view(
            dn("cn=Wolfgang"),
            "document",
            View::selecting([("title", "Titel")]),
        );
        assert!(
            !reg.check_wysiwis(&users, &report()),
            "personal view breaks WYSIWIS"
        );
        // Same view for both restores it.
        reg.set_view(
            dn("cn=Tom"),
            "document",
            View::selecting([("title", "Titel")]),
        );
        assert!(reg.check_wysiwis(&users, &report()));
        assert!(reg.check_wysiwis(&[], &report()), "vacuous truth");
    }

    #[test]
    fn views_are_scoped_by_kind() {
        let mut reg = ViewRegistry::new();
        reg.set_view(dn("cn=Tom"), "message", View::selecting([("title", "T")]));
        // Document objects are unaffected by the message view.
        assert_eq!(reg.render_for(&dn("cn=Tom"), &report()), report().content);
    }
}
