//! Relationships between information objects.
//!
//! "…the relationships between these objects (e.g. composition,
//! dependencies)…" (§5). Composition (`PartOf`) must stay acyclic — an
//! object cannot transitively contain itself; dependency and derivation
//! edges are unconstrained.

use std::collections::{BTreeSet, VecDeque};

use crate::error::MoccaError;
use crate::info::object::InfoObjectId;

/// How two information objects relate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfoRelationKind {
    /// `from` is a component of `to` (composition).
    PartOf,
    /// `from` depends on `to` (invalidate `from` when `to` changes).
    DependsOn,
    /// `from` was derived from `to` (provenance).
    DerivedFrom,
}

/// One relation edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfoRelation {
    /// Source object.
    pub from: InfoObjectId,
    /// Kind.
    pub kind: InfoRelationKind,
    /// Target object.
    pub to: InfoObjectId,
}

/// The relation graph.
#[derive(Debug, Clone, Default)]
pub struct InfoRelations {
    edges: Vec<InfoRelation>,
}

impl InfoRelations {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an edge.
    ///
    /// # Errors
    ///
    /// [`MoccaError::DependencyCycle`] when a `PartOf` edge would make
    /// an object (transitively) part of itself.
    pub fn add(
        &mut self,
        from: InfoObjectId,
        kind: InfoRelationKind,
        to: InfoObjectId,
    ) -> Result<(), MoccaError> {
        if kind == InfoRelationKind::PartOf
            && (from == to || self.reachable(&to, &from, InfoRelationKind::PartOf))
        {
            return Err(MoccaError::DependencyCycle(from.to_string()));
        }
        let edge = InfoRelation { from, kind, to };
        if !self.edges.contains(&edge) {
            self.edges.push(edge);
        }
        Ok(())
    }

    /// All edges.
    pub fn edges(&self) -> &[InfoRelation] {
        &self.edges
    }

    fn reachable(
        &self,
        start: &InfoObjectId,
        target: &InfoObjectId,
        kind: InfoRelationKind,
    ) -> bool {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([start.clone()]);
        while let Some(current) = queue.pop_front() {
            if &current == target {
                return true;
            }
            if !seen.insert(current.clone()) {
                continue;
            }
            for e in &self.edges {
                if e.kind == kind && e.from == current {
                    queue.push_back(e.to.clone());
                }
            }
        }
        false
    }

    /// Direct components of a composite.
    pub fn parts_of(&self, whole: &InfoObjectId) -> Vec<&InfoObjectId> {
        self.edges
            .iter()
            .filter(|e| e.kind == InfoRelationKind::PartOf && &e.to == whole)
            .map(|e| &e.from)
            .collect()
    }

    /// The composite an object belongs to, if any (single parent by
    /// convention: the first recorded).
    pub fn whole_of(&self, part: &InfoObjectId) -> Option<&InfoObjectId> {
        self.edges
            .iter()
            .find(|e| e.kind == InfoRelationKind::PartOf && &e.from == part)
            .map(|e| &e.to)
    }

    /// Everything that (transitively) depends on `object` — the
    /// invalidation set when it changes.
    pub fn dependents_of(&self, object: &InfoObjectId) -> Vec<InfoObjectId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([object.clone()]);
        while let Some(current) = queue.pop_front() {
            for e in &self.edges {
                if e.kind == InfoRelationKind::DependsOn
                    && e.to == current
                    && seen.insert(e.from.clone())
                {
                    queue.push_back(e.from.clone());
                }
            }
        }
        seen.into_iter().collect()
    }

    /// The provenance chain of `object` (what it was derived from,
    /// transitively, nearest first).
    pub fn provenance_of(&self, object: &InfoObjectId) -> Vec<InfoObjectId> {
        let mut chain = Vec::new();
        let mut current = object.clone();
        loop {
            let next = self
                .edges
                .iter()
                .find(|e| e.kind == InfoRelationKind::DerivedFrom && e.from == current)
                .map(|e| e.to.clone());
            match next {
                Some(src) if !chain.contains(&src) => {
                    chain.push(src.clone());
                    current = src;
                }
                _ => return chain,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> InfoObjectId {
        s.into()
    }

    fn graph() -> InfoRelations {
        let mut g = InfoRelations::new();
        g.add(id("chapter1"), InfoRelationKind::PartOf, id("report"))
            .unwrap();
        g.add(id("chapter2"), InfoRelationKind::PartOf, id("report"))
            .unwrap();
        g.add(id("summary"), InfoRelationKind::DependsOn, id("report"))
            .unwrap();
        g.add(id("slides"), InfoRelationKind::DependsOn, id("summary"))
            .unwrap();
        g.add(id("report"), InfoRelationKind::DerivedFrom, id("proposal"))
            .unwrap();
        g
    }

    #[test]
    fn composition_queries() {
        let g = graph();
        let parts = g.parts_of(&id("report"));
        assert_eq!(parts.len(), 2);
        assert_eq!(g.whole_of(&id("chapter1")), Some(&id("report")));
        assert_eq!(g.whole_of(&id("report")), None);
    }

    #[test]
    fn composition_cycles_are_refused() {
        let mut g = graph();
        let err = g
            .add(id("report"), InfoRelationKind::PartOf, id("chapter1"))
            .unwrap_err();
        assert!(matches!(err, MoccaError::DependencyCycle(_)));
        assert!(g.add(id("x"), InfoRelationKind::PartOf, id("x")).is_err());
        // Dependency cycles are allowed (mutual dependency is real).
        g.add(id("report"), InfoRelationKind::DependsOn, id("summary"))
            .unwrap();
    }

    #[test]
    fn invalidation_set_is_transitive() {
        let g = graph();
        let deps = g.dependents_of(&id("report"));
        assert_eq!(deps.len(), 2);
        assert!(deps.contains(&id("summary")));
        assert!(deps.contains(&id("slides")));
        assert!(g.dependents_of(&id("slides")).is_empty());
    }

    #[test]
    fn provenance_chain() {
        let mut g = graph();
        g.add(
            id("proposal"),
            InfoRelationKind::DerivedFrom,
            id("call-for-tenders"),
        )
        .unwrap();
        let chain = g.provenance_of(&id("report"));
        assert_eq!(chain, vec![id("proposal"), id("call-for-tenders")]);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut g = graph();
        let before = g.edges().len();
        g.add(id("chapter1"), InfoRelationKind::PartOf, id("report"))
            .unwrap();
        assert_eq!(g.edges().len(), before);
    }
}
