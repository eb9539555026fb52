//! The Inter-activity Model (§5).
//!
//! "Rather than finding a common mechanism for representing activities
//! and roles the aim of the inter-activity model is to allow the
//! dependencies between different activities and roles to be
//! represented within the environment."
//!
//! Dependencies come in the three flavours §3 enumerates: temporal
//! relationships, shared resources and shared information. Temporal
//! `Before` edges must stay acyclic (they induce the schedule);
//! resource- and information-sharing edges may form any graph.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cscw_directory::Dn;

use crate::activity::activity::{Activity, ActivityId, ActivityState};
use crate::error::MoccaError;

/// How two activities relate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DependencyKind {
    /// `from` must complete before `to` starts ("well-defined temporal
    /// relationships").
    Before,
    /// Both use the resource ("activities may use common resources").
    SharesResource(Dn),
    /// Both read/write the information object ("activities may share
    /// common information").
    SharesInformation(String),
}

/// One inter-activity dependency edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependency {
    /// Source activity.
    pub from: ActivityId,
    /// Kind.
    pub kind: DependencyKind,
    /// Target activity.
    pub to: ActivityId,
}

/// The inter-activity model: the registered activities plus the
/// dependency graph between them.
#[derive(Debug, Clone, Default)]
pub struct InterActivityModel {
    activities: BTreeMap<ActivityId, Activity>,
    dependencies: Vec<Dependency>,
}

impl InterActivityModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an activity.
    ///
    /// # Errors
    ///
    /// [`MoccaError::UnknownActivity`] (with a "duplicate" message) when
    /// an activity with the same id is already registered.
    pub fn register(&mut self, activity: Activity) -> Result<(), MoccaError> {
        if self.activities.contains_key(&activity.id) {
            return Err(MoccaError::UnknownActivity(format!(
                "duplicate activity id {}",
                activity.id
            )));
        }
        self.activities.insert(activity.id.clone(), activity);
        Ok(())
    }

    /// Borrows an activity.
    pub fn activity(&self, id: &ActivityId) -> Option<&Activity> {
        self.activities.get(id)
    }

    /// Mutably borrows an activity.
    pub fn activity_mut(&mut self, id: &ActivityId) -> Option<&mut Activity> {
        self.activities.get_mut(id)
    }

    /// All activities.
    pub fn activities(&self) -> impl Iterator<Item = &Activity> {
        self.activities.values()
    }

    /// Number of activities.
    pub fn len(&self) -> usize {
        self.activities.len()
    }

    /// True when no activities are registered.
    pub fn is_empty(&self) -> bool {
        self.activities.is_empty()
    }

    /// All dependencies.
    pub fn dependencies(&self) -> &[Dependency] {
        &self.dependencies
    }

    /// Adds a dependency between two registered activities.
    ///
    /// # Errors
    ///
    /// * [`MoccaError::UnknownActivity`] — either endpoint missing.
    /// * [`MoccaError::DependencyCycle`] — a `Before` edge would close a
    ///   temporal cycle.
    pub fn add_dependency(
        &mut self,
        from: &ActivityId,
        kind: DependencyKind,
        to: &ActivityId,
    ) -> Result<(), MoccaError> {
        for end in [from, to] {
            if !self.activities.contains_key(end) {
                return Err(MoccaError::UnknownActivity(end.to_string()));
            }
        }
        if kind == DependencyKind::Before && (from == to || self.temporally_reachable(to, from)) {
            return Err(MoccaError::DependencyCycle(from.to_string()));
        }
        let dep = Dependency {
            from: from.clone(),
            kind,
            to: to.clone(),
        };
        if !self.dependencies.contains(&dep) {
            self.dependencies.push(dep);
        }
        Ok(())
    }

    /// Is `target` reachable from `start` along `Before` edges?
    fn temporally_reachable(&self, start: &ActivityId, target: &ActivityId) -> bool {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([start.clone()]);
        while let Some(current) = queue.pop_front() {
            if &current == target {
                return true;
            }
            if !seen.insert(current.clone()) {
                continue;
            }
            for dep in &self.dependencies {
                if dep.kind == DependencyKind::Before && dep.from == current {
                    queue.push_back(dep.to.clone());
                }
            }
        }
        false
    }

    /// A valid schedule order: topological sort over `Before` edges
    /// (ties broken by id for determinism).
    pub fn schedule_order(&self) -> Vec<ActivityId> {
        let mut indegree: BTreeMap<&ActivityId, usize> =
            self.activities.keys().map(|id| (id, 0)).collect();
        for dep in &self.dependencies {
            if dep.kind == DependencyKind::Before {
                if let Some(d) = indegree.get_mut(&dep.to) {
                    *d += 1;
                }
            }
        }
        let mut ready: BTreeSet<&ActivityId> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        let mut order = Vec::with_capacity(self.activities.len());
        while let Some(&next) = ready.iter().next() {
            ready.remove(next);
            order.push(next.clone());
            for dep in &self.dependencies {
                if dep.kind == DependencyKind::Before && dep.from == *next {
                    if let Some(d) = indegree.get_mut(&dep.to) {
                        *d -= 1;
                        if *d == 0 {
                            ready.insert(&dep.to);
                        }
                    }
                }
            }
        }
        order
    }

    /// Activities sharing a resource with `id` (either direction).
    pub fn resource_neighbours(&self, id: &ActivityId) -> Vec<(&ActivityId, &Dn)> {
        self.dependencies
            .iter()
            .filter_map(|d| match &d.kind {
                DependencyKind::SharesResource(res) if &d.from == id => Some((&d.to, res)),
                DependencyKind::SharesResource(res) if &d.to == id => Some((&d.from, res)),
                _ => None,
            })
            .collect()
    }

    /// Everything transitively after `id` (the activities affected if it
    /// slips — the monitoring query).
    pub fn downstream_of(&self, id: &ActivityId) -> Vec<ActivityId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([id.clone()]);
        while let Some(current) = queue.pop_front() {
            for dep in &self.dependencies {
                if dep.kind == DependencyKind::Before
                    && dep.from == current
                    && seen.insert(dep.to.clone())
                {
                    queue.push_back(dep.to.clone());
                }
            }
        }
        seen.into_iter().collect()
    }

    /// May `id` start? All `Before` predecessors must be completed.
    pub fn can_start(&self, id: &ActivityId) -> bool {
        self.dependencies
            .iter()
            .filter(|d| d.kind == DependencyKind::Before && &d.to == id)
            .all(|d| {
                self.activities
                    .get(&d.from)
                    .map(|a| a.state() == ActivityState::Completed)
                    .unwrap_or(false)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> ActivityId {
        s.into()
    }

    /// The paper's Channel-Tunnel-flavoured set: meetings, report,
    /// monitoring, interviews.
    fn model() -> InterActivityModel {
        let mut m = InterActivityModel::new();
        for (a, name) in [
            ("interviews", "Site interviews"),
            ("report", "Joint progress report"),
            ("meeting", "Team progress meeting"),
            ("monitoring", "Progress monitoring"),
        ] {
            m.register(Activity::new(a.into(), name)).unwrap();
        }
        m.add_dependency(&id("interviews"), DependencyKind::Before, &id("report"))
            .unwrap();
        m.add_dependency(&id("report"), DependencyKind::Before, &id("meeting"))
            .unwrap();
        m.add_dependency(
            &id("meeting"),
            DependencyKind::SharesResource("cn=room1".parse().unwrap()),
            &id("interviews"),
        )
        .unwrap();
        m.add_dependency(
            &id("report"),
            DependencyKind::SharesInformation("doc:report-draft".into()),
            &id("monitoring"),
        )
        .unwrap();
        m
    }

    #[test]
    fn duplicate_registration_fails() {
        let mut m = model();
        assert!(m.register(Activity::new("report".into(), "again")).is_err());
    }

    #[test]
    fn dependencies_require_known_activities() {
        let mut m = model();
        let err = m
            .add_dependency(&id("ghost"), DependencyKind::Before, &id("report"))
            .unwrap_err();
        assert!(matches!(err, MoccaError::UnknownActivity(_)));
    }

    #[test]
    fn temporal_cycles_are_refused() {
        let mut m = model();
        let err = m
            .add_dependency(&id("meeting"), DependencyKind::Before, &id("interviews"))
            .unwrap_err();
        assert!(matches!(err, MoccaError::DependencyCycle(_)));
        // Self-loop refused too.
        assert!(m
            .add_dependency(&id("report"), DependencyKind::Before, &id("report"))
            .is_err());
        // Non-temporal cycles are fine.
        m.add_dependency(
            &id("meeting"),
            DependencyKind::SharesInformation("doc:x".into()),
            &id("meeting"),
        )
        .unwrap();
    }

    #[test]
    fn schedule_respects_before_edges() {
        let m = model();
        let order = m.schedule_order();
        assert_eq!(order.len(), 4);
        let pos = |x: &str| order.iter().position(|a| a.as_str() == x).unwrap();
        assert!(pos("interviews") < pos("report"));
        assert!(pos("report") < pos("meeting"));
    }

    #[test]
    fn schedule_is_deterministic() {
        let m = model();
        assert_eq!(m.schedule_order(), m.schedule_order());
    }

    #[test]
    fn downstream_propagation() {
        let m = model();
        let affected = m.downstream_of(&id("interviews"));
        assert_eq!(affected.len(), 2);
        assert!(affected.contains(&id("report")));
        assert!(affected.contains(&id("meeting")));
        assert!(m.downstream_of(&id("meeting")).is_empty());
    }

    #[test]
    fn can_start_gates_on_predecessors() {
        let mut m = model();
        assert!(m.can_start(&id("interviews")), "no predecessors");
        assert!(!m.can_start(&id("report")), "interviews not completed");
        {
            let a = m.activity_mut(&id("interviews")).unwrap();
            a.transition(ActivityState::Active).unwrap();
            a.report_progress(100).unwrap();
        }
        assert!(m.can_start(&id("report")));
    }

    #[test]
    fn resource_neighbours_are_bidirectional() {
        let m = model();
        let n1 = m.resource_neighbours(&id("meeting"));
        assert_eq!(n1.len(), 1);
        assert_eq!(n1[0].0.as_str(), "interviews");
        let n2 = m.resource_neighbours(&id("interviews"));
        assert_eq!(n2.len(), 1);
        assert_eq!(n2[0].0.as_str(), "meeting");
    }

    #[test]
    fn duplicate_dependency_edges_collapse() {
        let mut m = model();
        let before = m.dependencies().len();
        m.add_dependency(&id("interviews"), DependencyKind::Before, &id("report"))
            .unwrap();
        assert_eq!(m.dependencies().len(), before);
    }
}
