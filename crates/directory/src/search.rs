//! Search requests and results.

use crate::entry::Entry;
use crate::filter::Filter;
use crate::name::Dn;

/// How far below the base object a search extends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchScope {
    /// The base object only.
    Base,
    /// The immediate children of the base (excluding the base).
    OneLevel,
    /// The base and all of its descendants.
    Subtree,
}

/// A directory search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// Where the search starts.
    pub base: Dn,
    /// How far it extends.
    pub scope: SearchScope,
    /// Which entries qualify.
    pub filter: Filter,
    /// Maximum entries to return; `None` is unlimited.
    pub size_limit: Option<usize>,
}

impl SearchRequest {
    /// Creates an unlimited search.
    pub fn new(base: Dn, scope: SearchScope, filter: Filter) -> Self {
        SearchRequest {
            base,
            scope,
            filter,
            size_limit: None,
        }
    }

    /// Returns the request with a size limit applied.
    #[must_use]
    pub fn with_size_limit(mut self, limit: usize) -> Self {
        self.size_limit = Some(limit);
        self
    }
}

/// The result of a search.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchOutcome {
    /// Matching entries, in DN order.
    pub entries: Vec<Entry>,
    /// True when a size limit cut the result short.
    pub truncated: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_limit() {
        let r =
            SearchRequest::new(Dn::root(), SearchScope::Subtree, Filter::True).with_size_limit(10);
        assert_eq!(r.size_limit, Some(10));
    }

    #[test]
    fn outcome_default_is_empty() {
        let o = SearchOutcome::default();
        assert!(o.entries.is_empty());
        assert!(!o.truncated);
    }
}
