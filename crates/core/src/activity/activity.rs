//! Activities and their lifecycle.
//!
//! "Cooperative working needs to be considered in terms of numerous
//! related activities occurring within an organisational environment"
//! (§3). An [`Activity`] has members (people in activity roles), a
//! lifecycle state machine, an optional deadline and a progress figure
//! for monitoring.

use cscw_directory::Dn;
use cscw_kernel::Timestamp;

use crate::error::MoccaError;

/// Identifies an activity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActivityId(String);

impl ActivityId {
    /// Creates an id.
    pub fn new(id: impl Into<String>) -> Self {
        ActivityId(id.into())
    }

    /// The raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ActivityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ActivityId {
    fn from(s: &str) -> Self {
        ActivityId::new(s)
    }
}

/// Activity lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivityState {
    /// Proposed, not yet agreed.
    Proposed,
    /// Running.
    Active,
    /// Temporarily stopped.
    Suspended,
    /// Finished successfully.
    Completed,
    /// Abandoned.
    Cancelled,
}

impl ActivityState {
    /// The state's name, for errors and traces.
    pub fn name(self) -> &'static str {
        match self {
            ActivityState::Proposed => "proposed",
            ActivityState::Active => "active",
            ActivityState::Suspended => "suspended",
            ActivityState::Completed => "completed",
            ActivityState::Cancelled => "cancelled",
        }
    }

    /// Legal transitions: Proposed→Active/Cancelled,
    /// Active→Suspended/Completed/Cancelled, Suspended→Active/Cancelled.
    /// Completed and Cancelled are terminal.
    pub fn can_transition_to(self, next: ActivityState) -> bool {
        use ActivityState::*;
        matches!(
            (self, next),
            (Proposed, Active)
                | (Proposed, Cancelled)
                | (Active, Suspended)
                | (Active, Completed)
                | (Active, Cancelled)
                | (Suspended, Active)
                | (Suspended, Cancelled)
        )
    }

    /// True for terminal states.
    pub fn is_terminal(self) -> bool {
        matches!(self, ActivityState::Completed | ActivityState::Cancelled)
    }
}

/// A member's role within one activity (distinct from organisational
/// roles — the inter-activity model maps between them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityRole(pub String);

/// One cooperative activity.
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    /// The id.
    pub id: ActivityId,
    /// Human name ("team progress meeting", "joint report").
    pub name: String,
    /// Lifecycle state.
    state: ActivityState,
    /// Members and their activity roles.
    members: Vec<(Dn, ActivityRole)>,
    /// The member responsible for the activity (settled by
    /// negotiation — see [`crate::activity::negotiation`]).
    pub responsible: Option<Dn>,
    /// Optional deadline.
    pub deadline: Option<Timestamp>,
    /// Progress 0..=100, reported by members.
    progress: u8,
}

impl Activity {
    /// Creates a proposed activity.
    pub fn new(id: ActivityId, name: impl Into<String>) -> Self {
        Activity {
            id,
            name: name.into(),
            state: ActivityState::Proposed,
            members: Vec::new(),
            responsible: None,
            deadline: None,
            progress: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> ActivityState {
        self.state
    }

    /// Transitions the lifecycle.
    ///
    /// # Errors
    ///
    /// [`MoccaError::IllegalTransition`] for transitions outside the
    /// state machine.
    pub fn transition(&mut self, next: ActivityState) -> Result<(), MoccaError> {
        if !self.state.can_transition_to(next) {
            return Err(MoccaError::IllegalTransition {
                activity: self.id.to_string(),
                from: self.state.name(),
                to: next.name(),
            });
        }
        self.state = next;
        Ok(())
    }

    /// Adds a member in a role. Re-joining replaces the role.
    pub fn join(&mut self, person: Dn, role: ActivityRole) {
        if let Some(slot) = self.members.iter_mut().find(|(p, _)| *p == person) {
            slot.1 = role;
        } else {
            self.members.push((person, role));
        }
    }

    /// Removes a member; returns whether they were present. A departing
    /// responsible leaves the activity without a responsible.
    pub fn leave(&mut self, person: &Dn) -> bool {
        let before = self.members.len();
        self.members.retain(|(p, _)| p != person);
        if self.responsible.as_ref() == Some(person) {
            self.responsible = None;
        }
        self.members.len() != before
    }

    /// The members.
    pub fn members(&self) -> &[(Dn, ActivityRole)] {
        &self.members
    }

    /// True when the person participates.
    pub fn has_member(&self, person: &Dn) -> bool {
        self.members.iter().any(|(p, _)| p == person)
    }

    /// A member's activity role.
    pub fn role_of(&self, person: &Dn) -> Option<&ActivityRole> {
        self.members
            .iter()
            .find(|(p, _)| p == person)
            .map(|(_, r)| r)
    }

    /// Progress 0..=100.
    pub fn progress(&self) -> u8 {
        self.progress
    }

    /// Reports progress (clamped to 100). Completing the activity via
    /// progress is intentional: 100% on an active activity transitions
    /// it to Completed.
    ///
    /// # Errors
    ///
    /// [`MoccaError::IllegalTransition`] when reporting progress on a
    /// terminal activity.
    pub fn report_progress(&mut self, progress: u8) -> Result<(), MoccaError> {
        if self.state.is_terminal() {
            return Err(MoccaError::IllegalTransition {
                activity: self.id.to_string(),
                from: self.state.name(),
                to: self.state.name(),
            });
        }
        self.progress = progress.min(100);
        if self.progress == 100 && self.state == ActivityState::Active {
            self.state = ActivityState::Completed;
        }
        Ok(())
    }

    /// True when the deadline has passed without completion.
    pub fn is_overdue(&self, now: Timestamp) -> bool {
        match self.deadline {
            Some(d) => now > d && !matches!(self.state, ActivityState::Completed),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn activity() -> Activity {
        Activity::new("progress-meetings".into(), "Team progress meetings")
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut a = activity();
        assert_eq!(a.state(), ActivityState::Proposed);
        a.transition(ActivityState::Active).unwrap();
        a.transition(ActivityState::Suspended).unwrap();
        a.transition(ActivityState::Active).unwrap();
        a.transition(ActivityState::Completed).unwrap();
        assert!(a.state().is_terminal());
    }

    #[test]
    fn illegal_transitions_are_refused() {
        let mut a = activity();
        assert!(
            a.transition(ActivityState::Completed).is_err(),
            "proposed cannot complete"
        );
        a.transition(ActivityState::Active).unwrap();
        a.transition(ActivityState::Completed).unwrap();
        let err = a.transition(ActivityState::Active).unwrap_err();
        assert!(matches!(err, MoccaError::IllegalTransition { .. }));
        assert!(err.to_string().contains("completed -> active"));
    }

    #[test]
    fn membership_join_leave_rejoin() {
        let mut a = activity();
        a.join(dn("cn=Tom"), ActivityRole("chair".into()));
        a.join(dn("cn=Wolfgang"), ActivityRole("minute-taker".into()));
        assert!(a.has_member(&dn("cn=Tom")));
        assert_eq!(a.role_of(&dn("cn=Tom")).unwrap().0, "chair");
        // Rejoin replaces the role.
        a.join(dn("cn=Tom"), ActivityRole("participant".into()));
        assert_eq!(a.members().len(), 2);
        assert_eq!(a.role_of(&dn("cn=Tom")).unwrap().0, "participant");
        assert!(a.leave(&dn("cn=Tom")));
        assert!(!a.leave(&dn("cn=Tom")));
        assert!(!a.has_member(&dn("cn=Tom")));
    }

    #[test]
    fn departing_responsible_clears_responsibility() {
        let mut a = activity();
        a.join(dn("cn=Tom"), ActivityRole("chair".into()));
        a.responsible = Some(dn("cn=Tom"));
        a.leave(&dn("cn=Tom"));
        assert_eq!(a.responsible, None);
    }

    #[test]
    fn progress_completes_at_100() {
        let mut a = activity();
        a.transition(ActivityState::Active).unwrap();
        a.report_progress(40).unwrap();
        assert_eq!(a.progress(), 40);
        assert_eq!(a.state(), ActivityState::Active);
        a.report_progress(250).unwrap(); // clamped
        assert_eq!(a.progress(), 100);
        assert_eq!(a.state(), ActivityState::Completed);
        assert!(a.report_progress(10).is_err(), "terminal activities freeze");
    }

    #[test]
    fn overdue_detection() {
        let mut a = activity();
        a.deadline = Some(Timestamp::from_secs(100));
        assert!(!a.is_overdue(Timestamp::from_secs(50)));
        assert!(a.is_overdue(Timestamp::from_secs(101)));
        a.transition(ActivityState::Active).unwrap();
        a.report_progress(100).unwrap();
        assert!(
            !a.is_overdue(Timestamp::from_secs(101)),
            "completed is never overdue"
        );
    }
}
