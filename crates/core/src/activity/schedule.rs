//! Scheduling and progress monitoring.
//!
//! §4 requires "scheduling activities and monitoring the progress of
//! activities". The [`Monitor`] derives a report over the inter-activity
//! model: what can start, what is overdue, what a slip would drag with
//! it.

use cscw_kernel::Timestamp;

use crate::activity::activity::{ActivityId, ActivityState};
use crate::activity::deps::InterActivityModel;

/// One activity's line in a monitoring report.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityStatus {
    /// The activity.
    pub id: ActivityId,
    /// Lifecycle state.
    pub state: ActivityState,
    /// Progress 0..=100.
    pub progress: u8,
    /// Past its deadline without completing.
    pub overdue: bool,
    /// All `Before` predecessors are complete (startable now).
    pub startable: bool,
    /// Activities that slip if this one slips.
    pub at_risk_downstream: Vec<ActivityId>,
}

/// A whole-model monitoring report.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// When the report was taken.
    pub at: Timestamp,
    /// Per-activity status in schedule order.
    pub statuses: Vec<ActivityStatus>,
}

impl MonitorReport {
    /// The overdue activities.
    pub fn overdue(&self) -> impl Iterator<Item = &ActivityStatus> {
        self.statuses.iter().filter(|s| s.overdue)
    }

    /// Activities ready to start (proposed + startable).
    pub fn ready_to_start(&self) -> impl Iterator<Item = &ActivityStatus> {
        self.statuses
            .iter()
            .filter(|s| s.state == ActivityState::Proposed && s.startable)
    }

    /// Mean progress over non-terminal activities, or `None` when all
    /// are terminal.
    pub fn mean_active_progress(&self) -> Option<f64> {
        let open: Vec<_> = self
            .statuses
            .iter()
            .filter(|s| !s.state.is_terminal())
            .collect();
        if open.is_empty() {
            return None;
        }
        Some(open.iter().map(|s| s.progress as f64).sum::<f64>() / open.len() as f64)
    }
}

/// Derives monitoring reports from the inter-activity model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Monitor;

impl Monitor {
    /// Takes a report at `now`.
    pub fn report(model: &InterActivityModel, now: Timestamp) -> MonitorReport {
        let order = model.schedule_order();
        let statuses = order
            .iter()
            .filter_map(|id| model.activity(id).map(|a| (id, a)))
            .map(|(id, a)| {
                let overdue = a.is_overdue(now);
                ActivityStatus {
                    id: id.clone(),
                    state: a.state(),
                    progress: a.progress(),
                    overdue,
                    startable: model.can_start(id),
                    at_risk_downstream: if overdue {
                        model.downstream_of(id)
                    } else {
                        Vec::new()
                    },
                }
            })
            .collect();
        MonitorReport { at: now, statuses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::activity::Activity;
    use crate::activity::deps::DependencyKind;

    fn id(s: &str) -> ActivityId {
        s.into()
    }

    fn model() -> InterActivityModel {
        let mut m = InterActivityModel::new();
        for a in ["dig", "line", "open"] {
            m.register(Activity::new(a.into(), a)).unwrap();
        }
        m.add_dependency(&id("dig"), DependencyKind::Before, &id("line"))
            .unwrap();
        m.add_dependency(&id("line"), DependencyKind::Before, &id("open"))
            .unwrap();
        m
    }

    #[test]
    fn report_orders_and_flags_startable() {
        let m = model();
        let report = Monitor::report(&m, Timestamp::ZERO);
        assert_eq!(report.statuses.len(), 3);
        assert_eq!(report.statuses[0].id, id("dig"));
        assert!(report.statuses[0].startable);
        assert!(!report.statuses[1].startable);
        assert_eq!(report.ready_to_start().count(), 1);
    }

    #[test]
    fn overdue_drags_downstream_into_risk() {
        let mut m = model();
        {
            let a = m.activity_mut(&id("dig")).unwrap();
            a.deadline = Some(Timestamp::from_secs(10));
            a.transition(ActivityState::Active).unwrap();
            a.report_progress(50).unwrap();
        }
        let report = Monitor::report(&m, Timestamp::from_secs(20));
        let dig = report.statuses.iter().find(|s| s.id == id("dig")).unwrap();
        assert!(dig.overdue);
        assert_eq!(dig.at_risk_downstream.len(), 2);
        assert_eq!(report.overdue().count(), 1);
    }

    #[test]
    fn mean_progress_ignores_terminal() {
        let mut m = model();
        {
            let a = m.activity_mut(&id("dig")).unwrap();
            a.transition(ActivityState::Active).unwrap();
            a.report_progress(100).unwrap(); // completes
        }
        {
            let a = m.activity_mut(&id("line")).unwrap();
            a.transition(ActivityState::Active).unwrap();
            a.report_progress(60).unwrap();
        }
        let report = Monitor::report(&m, Timestamp::ZERO);
        let mean = report.mean_active_progress().unwrap();
        assert!(
            (mean - 30.0).abs() < 1e-9,
            "mean of 60 and 0 (open activities), got {mean}"
        );
    }

    #[test]
    fn all_terminal_mean_is_none() {
        let mut m = InterActivityModel::new();
        m.register(Activity::new("a".into(), "a")).unwrap();
        {
            let a = m.activity_mut(&id("a")).unwrap();
            a.transition(ActivityState::Active).unwrap();
            a.report_progress(100).unwrap();
        }
        assert_eq!(
            Monitor::report(&m, Timestamp::ZERO).mean_active_progress(),
            None
        );
    }
}
