//! Application interoperability: the hub (Figure 3) and the closed
//! pairwise baseline (Figure 2).
//!
//! Every application speaks its own *native format*: a named bag of
//! fields. The **hub** requires each application to register one
//! [`FormatMapping`] between its native field names and the common
//! information model; any two registered applications can then exchange
//! artifacts via common form, at a cost of exactly two conversions and
//! N total mappings.
//!
//! The **closed world** has no common model: an exchange succeeds only
//! if someone has hand-written a direct adapter for that ordered pair —
//! up to N·(N−1) adapters, and any missing pair is a failed exchange.
//! The F2/F3 bench measures exactly this contrast.

use std::collections::BTreeMap;

use crate::env::registry::AppId;
use crate::error::MoccaError;

/// An artifact in some application's native format.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeArtifact {
    /// The producing application.
    pub app: AppId,
    /// The format name (must match the app's descriptor).
    pub format: String,
    /// Native fields.
    pub fields: BTreeMap<String, String>,
}

impl NativeArtifact {
    /// Creates an artifact.
    pub fn new(
        app: AppId,
        format: &str,
        fields: impl IntoIterator<Item = (&'static str, String)>,
    ) -> Self {
        NativeArtifact {
            app,
            format: format.to_owned(),
            fields: fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        }
    }
}

/// A bidirectional mapping between native field names and common-model
/// field names.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FormatMapping {
    /// Pairs of (native field, common field).
    pub pairs: Vec<(String, String)>,
}

impl FormatMapping {
    /// Builds a mapping from pairs.
    pub fn new<N: Into<String>, C: Into<String>>(pairs: impl IntoIterator<Item = (N, C)>) -> Self {
        FormatMapping {
            pairs: pairs
                .into_iter()
                .map(|(n, c)| (n.into(), c.into()))
                .collect(),
        }
    }

    /// Native → common: renames known fields, drops unknown ones (an
    /// application's private fields do not pollute the common model).
    pub fn to_common(&self, fields: &BTreeMap<String, String>) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        for (native, common) in &self.pairs {
            if let Some(v) = fields.get(native) {
                out.insert(common.clone(), v.clone());
            }
        }
        out
    }

    /// Common → native: the inverse renaming; common fields the app has
    /// no name for are dropped (it cannot represent them).
    pub fn from_common(&self, fields: &BTreeMap<String, String>) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        for (native, common) in &self.pairs {
            if let Some(v) = fields.get(common) {
                out.insert(native.clone(), v.clone());
            }
        }
        out
    }
}

/// The environment's interop hub (Figure 3): one mapping per app.
#[derive(Debug, Clone, Default)]
pub struct InteropHub {
    mappings: BTreeMap<AppId, FormatMapping>,
    conversions_performed: u64,
}

impl InteropHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an application's mapping to the common model.
    pub fn register_mapping(&mut self, app: AppId, mapping: FormatMapping) {
        self.mappings.insert(app, mapping);
    }

    /// Number of mappings the hub needed — O(N), Figure 3's point.
    pub fn mappings_needed(&self) -> usize {
        self.mappings.len()
    }

    /// Conversions performed so far: 2 per local exchange, and 1 on
    /// each side of an exchange with a peer environment.
    pub fn conversions_performed(&self) -> u64 {
        self.conversions_performed
    }

    /// Exchanges an artifact from its producing app to `to`, through
    /// the common model.
    ///
    /// # Errors
    ///
    /// [`MoccaError::UnknownApplication`] when either end has no
    /// registered mapping.
    pub fn exchange(
        &mut self,
        artifact: &NativeArtifact,
        to: &AppId,
    ) -> Result<NativeArtifact, MoccaError> {
        let common = self.to_common(artifact)?;
        self.exchange_common(to, &common)
    }

    /// The second half of [`Self::exchange`], for a caller that already
    /// holds the artifact's common form from [`Self::to_common`]: raises
    /// it into `to`'s native format and counts both conversions of the
    /// exchange.
    ///
    /// # Errors
    ///
    /// [`MoccaError::UnknownApplication`] when `to` has no registered
    /// mapping.
    pub fn exchange_common(
        &mut self,
        to: &AppId,
        common: &BTreeMap<String, String>,
    ) -> Result<NativeArtifact, MoccaError> {
        let raised = self.from_common(to, common)?;
        self.count_sent();
        Ok(raised)
    }

    /// Counts the sending half of an exchange: the conversion the
    /// caller's [`Self::to_common`] performed, once the common form is
    /// on its way to the destination (raised here by
    /// [`Self::exchange_common`], or handed to a peer environment).
    pub fn count_sent(&mut self) {
        self.conversions_performed += 1;
    }

    /// Materialises a common-model artifact into `to`'s native format —
    /// the receiving half of an exchange whose sending half ran in a
    /// *different* environment (one conversion; the sender already paid
    /// the other).
    ///
    /// # Errors
    ///
    /// [`MoccaError::UnknownApplication`] when `to` has no registered
    /// mapping.
    pub fn from_common(
        &mut self,
        to: &AppId,
        common: &BTreeMap<String, String>,
    ) -> Result<NativeArtifact, MoccaError> {
        let to_mapping = self
            .mappings
            .get(to)
            .ok_or_else(|| MoccaError::UnknownApplication(to.to_string()))?;
        let native = to_mapping.from_common(common);
        self.conversions_performed += 1;
        Ok(NativeArtifact {
            app: to.clone(),
            format: format!("{to}-native"),
            fields: native,
        })
    }

    /// The common form of an artifact (for storing in the information
    /// repository).
    ///
    /// # Errors
    ///
    /// [`MoccaError::UnknownApplication`] when the app is unmapped.
    pub fn to_common(
        &self,
        artifact: &NativeArtifact,
    ) -> Result<BTreeMap<String, String>, MoccaError> {
        Ok(self
            .mappings
            .get(&artifact.app)
            .ok_or_else(|| MoccaError::UnknownApplication(artifact.app.to_string()))?
            .to_common(&artifact.fields))
    }
}

/// The closed world (Figure 2): explicit per-ordered-pair adapters.
#[derive(Debug, Clone, Default)]
pub struct ClosedWorld {
    adapters: BTreeMap<(AppId, AppId), FormatMapping>,
    conversions_performed: u64,
    failed_exchanges: u64,
}

impl ClosedWorld {
    /// Creates an empty closed world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a hand-written adapter for the ordered pair
    /// `(from, to)`. The mapping's pairs are (from-field, to-field).
    pub fn install_adapter(&mut self, from: AppId, to: AppId, mapping: FormatMapping) {
        self.adapters.insert((from, to), mapping);
    }

    /// Number of adapters written — up to O(N²), Figure 2's point.
    pub fn adapters_needed(&self) -> usize {
        self.adapters.len()
    }

    /// Conversions performed so far (1 per successful exchange — direct
    /// adapters are cheaper per message, which is exactly the trade-off
    /// the crossover bench shows).
    pub fn conversions_performed(&self) -> u64 {
        self.conversions_performed
    }

    /// Exchanges that failed for want of an adapter.
    pub fn failed_exchanges(&self) -> u64 {
        self.failed_exchanges
    }

    /// Attempts a direct exchange.
    ///
    /// # Errors
    ///
    /// [`MoccaError::NoConversionPath`] when no adapter exists for the
    /// ordered pair.
    pub fn exchange(
        &mut self,
        artifact: &NativeArtifact,
        to: &AppId,
    ) -> Result<NativeArtifact, MoccaError> {
        match self.adapters.get(&(artifact.app.clone(), to.clone())) {
            Some(mapping) => {
                self.conversions_performed += 1;
                // A direct adapter *is* a to_common whose "common" names
                // are the target's native names.
                let fields = mapping.to_common(&artifact.fields);
                Ok(NativeArtifact {
                    app: to.clone(),
                    format: format!("{to}-native"),
                    fields,
                })
            }
            None => {
                self.failed_exchanges += 1;
                Err(MoccaError::NoConversionPath {
                    from: artifact.app.to_string(),
                    to: to.to_string(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three apps with different native vocabularies for a document.
    fn hub() -> InteropHub {
        let mut h = InteropHub::new();
        h.register_mapping(
            "sharedx".into(),
            FormatMapping::new([("window_title", "title"), ("window_body", "body")]),
        );
        h.register_mapping(
            "com".into(),
            FormatMapping::new([("subject", "title"), ("entry_text", "body")]),
        );
        h.register_mapping(
            "lens".into(),
            FormatMapping::new([("Subject", "title"), ("Text", "body"), ("Folder", "folder")]),
        );
        h
    }

    fn sharedx_doc() -> NativeArtifact {
        NativeArtifact::new(
            "sharedx".into(),
            "sharedx-native",
            [
                ("window_title", "Minutes".to_owned()),
                ("window_body", "We agreed.".to_owned()),
            ],
        )
    }

    #[test]
    fn hub_exchange_translates_vocabulary() {
        let mut h = hub();
        let got = h.exchange(&sharedx_doc(), &"com".into()).unwrap();
        assert_eq!(
            got.fields.get("subject").map(String::as_str),
            Some("Minutes")
        );
        assert_eq!(
            got.fields.get("entry_text").map(String::as_str),
            Some("We agreed.")
        );
        assert_eq!(h.conversions_performed(), 2);
    }

    #[test]
    fn hub_needs_one_mapping_per_app() {
        let h = hub();
        assert_eq!(h.mappings_needed(), 3);
    }

    #[test]
    fn hub_any_pair_works_without_extra_registration() {
        let mut h = hub();
        for to in ["com", "lens"] {
            assert!(h.exchange(&sharedx_doc(), &to.into()).is_ok());
        }
        // Reverse direction too.
        let com_doc = NativeArtifact::new(
            "com".into(),
            "com-native",
            [
                ("subject", "Re: Minutes".to_owned()),
                ("entry_text", "I disagree.".to_owned()),
            ],
        );
        let back = h.exchange(&com_doc, &"sharedx".into()).unwrap();
        assert_eq!(
            back.fields.get("window_title").map(String::as_str),
            Some("Re: Minutes")
        );
    }

    #[test]
    fn hub_unknown_app_is_an_error() {
        let mut h = hub();
        assert!(matches!(
            h.exchange(&sharedx_doc(), &"ghost".into()).unwrap_err(),
            MoccaError::UnknownApplication(_)
        ));
        let alien = NativeArtifact::new("alien".into(), "alien", []);
        assert!(h.exchange(&alien, &"com".into()).is_err());
    }

    #[test]
    fn private_fields_do_not_cross_the_hub() {
        let mut h = hub();
        let mut doc = sharedx_doc();
        doc.fields.insert("x11_display".into(), ":0".into());
        let got = h.exchange(&doc, &"lens".into()).unwrap();
        assert!(got.fields.values().all(|v| v != ":0"));
        // But lens's extra "Folder" concept simply stays empty rather
        // than failing.
        assert!(!got.fields.contains_key("Folder"));
    }

    #[test]
    fn closed_world_needs_a_specific_adapter_per_direction() {
        let mut w = ClosedWorld::new();
        w.install_adapter(
            "sharedx".into(),
            "com".into(),
            FormatMapping::new([("window_title", "subject"), ("window_body", "entry_text")]),
        );
        assert!(w.exchange(&sharedx_doc(), &"com".into()).is_ok());
        // The reverse direction was never written: fails.
        let com_doc = NativeArtifact::new("com".into(), "com-native", []);
        let err = w.exchange(&com_doc, &"sharedx".into()).unwrap_err();
        assert!(matches!(err, MoccaError::NoConversionPath { .. }));
        assert_eq!(w.failed_exchanges(), 1);
        assert_eq!(w.adapters_needed(), 1);
        assert_eq!(w.conversions_performed(), 1, "direct adapter converts once");
    }

    #[test]
    fn mapping_round_trip_preserves_shared_fields() {
        let m = FormatMapping::new([("a", "x"), ("b", "y")]);
        let mut native = BTreeMap::new();
        native.insert("a".to_owned(), "1".to_owned());
        native.insert("b".to_owned(), "2".to_owned());
        native.insert("private".to_owned(), "3".to_owned());
        let common = m.to_common(&native);
        let back = m.from_common(&common);
        assert_eq!(back.get("a").map(String::as_str), Some("1"));
        assert_eq!(back.get("b").map(String::as_str), Some("2"));
        assert!(!back.contains_key("private"));
    }
}
