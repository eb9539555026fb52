//! Office procedure support (DOMINO-like).
//!
//! The paper cites "experiences with the DOMINO procedure system" \[13\]
//! and warns that office-procedure systems were "too rigid and
//! procedural" (§6.1). This module implements the *shared facility*
//! quadrant (different times / same place): a procedure instance lives
//! on one shared workstation; workers holding the right organisational
//! roles perform its steps at different times.
//!
//! Heeding the paper's warning, the procedure is deliberately
//! non-rigid: steps may be **skipped by an exception** recorded with a
//! rationale (the human factor), not only completed in order.

use cscw_directory::Dn;
use cscw_kernel::Timestamp;
use mocca::org::OrganisationalModel;

use crate::GroupwareError;

/// One step of a procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcedureStep {
    /// Step name.
    pub name: String,
    /// The organisational role (DN) whose occupant must perform it.
    pub required_role: Dn,
}

/// How a step ended.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// Performed normally.
    Performed {
        /// Who did it.
        by: Dn,
        /// When.
        at: Timestamp,
    },
    /// Skipped by exception.
    Skipped {
        /// Who took the exception.
        by: Dn,
        /// When.
        at: Timestamp,
        /// Why — the recorded human judgement.
        rationale: String,
    },
}

/// A running procedure instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Procedure {
    /// Instance name (e.g. "travel-claim-1992-07").
    pub name: String,
    steps: Vec<ProcedureStep>,
    outcomes: Vec<StepOutcome>,
}

impl Procedure {
    /// Defines a procedure instance from its steps.
    pub fn new(name: &str, steps: Vec<ProcedureStep>) -> Self {
        Procedure {
            name: name.to_owned(),
            steps,
            outcomes: Vec::new(),
        }
    }

    /// The step definitions.
    pub fn steps(&self) -> &[ProcedureStep] {
        &self.steps
    }

    /// Completed/skipped outcomes so far, in step order.
    pub fn outcomes(&self) -> &[StepOutcome] {
        &self.outcomes
    }

    /// Index of the next step due, or `None` when complete.
    pub fn due(&self) -> Option<usize> {
        (self.outcomes.len() < self.steps.len()).then_some(self.outcomes.len())
    }

    /// True when every step has an outcome.
    pub fn is_complete(&self) -> bool {
        self.due().is_none()
    }

    fn check_turn(&self, index: usize) -> Result<&ProcedureStep, GroupwareError> {
        let due = self.due().ok_or(GroupwareError::ProcedureComplete)?;
        if index != due {
            return Err(GroupwareError::StepOutOfOrder {
                attempted: index,
                due,
            });
        }
        Ok(&self.steps[index])
    }

    /// Performs the step at `index`, checking role authority against
    /// the organisational model.
    ///
    /// # Errors
    ///
    /// * [`GroupwareError::ProcedureComplete`] /
    ///   [`GroupwareError::StepOutOfOrder`] — sequencing.
    /// * [`GroupwareError::WrongRole`] — the performer does not occupy
    ///   the required role.
    pub fn perform(
        &mut self,
        org: &OrganisationalModel,
        index: usize,
        who: &Dn,
        at: Timestamp,
    ) -> Result<(), GroupwareError> {
        let step = self.check_turn(index)?;
        if !org.roles_of(who).contains(&step.required_role) {
            return Err(GroupwareError::WrongRole {
                who: who.to_string(),
                required: step.required_role.to_string(),
            });
        }
        self.outcomes.push(StepOutcome::Performed {
            by: who.clone(),
            at,
        });
        Ok(())
    }

    /// Skips the step at `index` by exception, recording the rationale.
    /// Any participant may take an exception — the paper's lesson that
    /// "employees do often not behave as it is prescribed in the
    /// organisational handbook".
    ///
    /// # Errors
    ///
    /// Sequencing errors as for [`Procedure::perform`].
    pub fn skip(
        &mut self,
        index: usize,
        who: &Dn,
        rationale: &str,
        at: Timestamp,
    ) -> Result<(), GroupwareError> {
        self.check_turn(index)?;
        self.outcomes.push(StepOutcome::Skipped {
            by: who.clone(),
            at,
            rationale: rationale.to_owned(),
        });
        Ok(())
    }

    /// How many steps were skipped by exception.
    pub fn exception_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, StepOutcome::Skipped { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocca::org::{Person, RelationKind, Role};

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn org() -> OrganisationalModel {
        let mut m = OrganisationalModel::new();
        m.add_person(Person::new(dn("cn=Clerk"), "Clerk"));
        m.add_person(Person::new(dn("cn=Manager"), "Manager"));
        m.add_role(Role::new(dn("cn=clerk-role"), "clerk"));
        m.add_role(Role::new(dn("cn=manager-role"), "manager"));
        m.relate(
            &dn("cn=Clerk"),
            RelationKind::Occupies,
            &dn("cn=clerk-role"),
        )
        .unwrap();
        m.relate(
            &dn("cn=Manager"),
            RelationKind::Occupies,
            &dn("cn=manager-role"),
        )
        .unwrap();
        m
    }

    fn claim() -> Procedure {
        Procedure::new(
            "travel-claim",
            vec![
                ProcedureStep {
                    name: "file claim".into(),
                    required_role: dn("cn=clerk-role"),
                },
                ProcedureStep {
                    name: "approve".into(),
                    required_role: dn("cn=manager-role"),
                },
                ProcedureStep {
                    name: "pay out".into(),
                    required_role: dn("cn=clerk-role"),
                },
            ],
        )
    }

    #[test]
    fn steps_complete_in_order_at_different_times() {
        let org = org();
        let mut p = claim();
        p.perform(&org, 0, &dn("cn=Clerk"), Timestamp::from_secs(100))
            .unwrap();
        // The manager comes in much later — the "different times" point.
        p.perform(&org, 1, &dn("cn=Manager"), Timestamp::from_secs(90_000))
            .unwrap();
        p.perform(&org, 2, &dn("cn=Clerk"), Timestamp::from_secs(180_000))
            .unwrap();
        assert!(p.is_complete());
        assert_eq!(p.outcomes().len(), 3);
        assert!(p
            .perform(&org, 0, &dn("cn=Clerk"), Timestamp::ZERO)
            .is_err());
    }

    #[test]
    fn sequencing_is_enforced() {
        let org = org();
        let mut p = claim();
        let err = p
            .perform(&org, 1, &dn("cn=Manager"), Timestamp::ZERO)
            .unwrap_err();
        assert!(matches!(
            err,
            GroupwareError::StepOutOfOrder {
                attempted: 1,
                due: 0
            }
        ));
    }

    #[test]
    fn roles_are_enforced() {
        let org = org();
        let mut p = claim();
        let err = p
            .perform(&org, 0, &dn("cn=Manager"), Timestamp::ZERO)
            .unwrap_err();
        assert!(matches!(err, GroupwareError::WrongRole { .. }));
    }

    #[test]
    fn exceptions_allow_human_flexibility() {
        let org = org();
        let mut p = claim();
        p.perform(&org, 0, &dn("cn=Clerk"), Timestamp::ZERO)
            .unwrap();
        // The manager is on holiday; the clerk takes a recorded exception.
        p.skip(
            1,
            &dn("cn=Clerk"),
            "manager on leave, pre-approved by phone",
            Timestamp::ZERO,
        )
        .unwrap();
        p.perform(&org, 2, &dn("cn=Clerk"), Timestamp::ZERO)
            .unwrap();
        assert!(p.is_complete());
        assert_eq!(p.exception_count(), 1);
        match &p.outcomes()[1] {
            StepOutcome::Skipped { rationale, .. } => {
                assert!(rationale.contains("on leave"));
            }
            other => panic!("expected skip, got {other:?}"),
        }
    }

    #[test]
    fn due_tracks_progress() {
        let org = org();
        let mut p = claim();
        assert_eq!(p.due(), Some(0));
        p.perform(&org, 0, &dn("cn=Clerk"), Timestamp::ZERO)
            .unwrap();
        assert_eq!(p.due(), Some(1));
    }
}
