//! Negotiation of responsibility and division of competence.
//!
//! §4 requires "mechanisms for negotiating the responsibility for
//! activities" and "mechanisms for negotiating the division of
//! competence within activities". This module provides a small
//! propose / counter / accept / reject protocol whose outcome is
//! recorded on the activity.

use cscw_directory::Dn;

use crate::activity::activity::ActivityId;
use crate::error::MoccaError;

/// What is being negotiated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NegotiationSubject {
    /// Who is responsible for the activity.
    Responsibility(ActivityId),
    /// Who covers a named competence (sub-task) within the activity.
    Competence {
        /// The activity.
        activity: ActivityId,
        /// The competence being divided (e.g. "minute-taking").
        competence: String,
    },
}

/// Protocol states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegotiationState {
    /// A proposal is on the table for the respondent.
    AwaitingRespondent,
    /// A counter-proposal is on the table for the initiator.
    AwaitingInitiator,
    /// Agreement reached.
    Accepted,
    /// Negotiation abandoned.
    Rejected,
}

/// The move kinds a negotiation step can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegotiationAction {
    /// Opening proposal.
    Propose,
    /// Counter-proposal.
    Counter,
    /// Acceptance of the current proposal.
    Accept,
    /// Rejection, closing the negotiation.
    Reject,
}

/// One recorded protocol step.
#[derive(Debug, Clone, PartialEq)]
pub struct NegotiationStep {
    /// Who moved.
    pub by: Dn,
    /// What they proposed (the assignee under discussion), or `None`
    /// for accept/reject moves.
    pub proposal: Option<Dn>,
    /// The move made.
    pub action: NegotiationAction,
}

/// A negotiation between an initiator and a respondent.
#[derive(Debug, Clone, PartialEq)]
pub struct Negotiation {
    /// What it is about.
    pub subject: NegotiationSubject,
    /// Who opened it.
    pub initiator: Dn,
    /// Who must respond.
    pub respondent: Dn,
    state: NegotiationState,
    /// The assignee currently on the table.
    current_proposal: Dn,
    history: Vec<NegotiationStep>,
}

impl Negotiation {
    /// Opens a negotiation: `initiator` proposes `proposal` as the
    /// assignee and awaits `respondent`.
    pub fn propose(
        subject: NegotiationSubject,
        initiator: Dn,
        respondent: Dn,
        proposal: Dn,
    ) -> Self {
        let step = NegotiationStep {
            by: initiator.clone(),
            proposal: Some(proposal.clone()),
            action: NegotiationAction::Propose,
        };
        Negotiation {
            subject,
            initiator,
            respondent,
            state: NegotiationState::AwaitingRespondent,
            current_proposal: proposal,
            history: vec![step],
        }
    }

    /// The protocol state.
    pub fn state(&self) -> NegotiationState {
        self.state
    }

    /// The assignee currently proposed.
    pub fn current_proposal(&self) -> &Dn {
        &self.current_proposal
    }

    /// The recorded steps.
    pub fn history(&self) -> &[NegotiationStep] {
        &self.history
    }

    /// Whose turn it is, or `None` when closed.
    pub fn awaiting(&self) -> Option<&Dn> {
        match self.state {
            NegotiationState::AwaitingRespondent => Some(&self.respondent),
            NegotiationState::AwaitingInitiator => Some(&self.initiator),
            _ => None,
        }
    }

    fn require_turn(&self, who: &Dn) -> Result<(), MoccaError> {
        match self.awaiting() {
            Some(expected) if expected == who => Ok(()),
            Some(expected) => Err(MoccaError::BadNegotiationState(format!(
                "it is {expected}'s turn, not {who}'s"
            ))),
            None => Err(MoccaError::BadNegotiationState(
                "negotiation is closed".into(),
            )),
        }
    }

    /// The party whose turn it is counter-proposes a different assignee;
    /// the turn passes to the other party.
    ///
    /// # Errors
    ///
    /// [`MoccaError::BadNegotiationState`] when it is not `who`'s turn
    /// or the negotiation is closed.
    pub fn counter(&mut self, who: &Dn, proposal: Dn) -> Result<(), MoccaError> {
        self.require_turn(who)?;
        self.history.push(NegotiationStep {
            by: who.clone(),
            proposal: Some(proposal.clone()),
            action: NegotiationAction::Counter,
        });
        self.current_proposal = proposal;
        self.state = if who == &self.respondent {
            NegotiationState::AwaitingInitiator
        } else {
            NegotiationState::AwaitingRespondent
        };
        Ok(())
    }

    /// The party whose turn it is accepts the current proposal.
    ///
    /// # Errors
    ///
    /// As for [`Negotiation::counter`].
    pub fn accept(&mut self, who: &Dn) -> Result<&Dn, MoccaError> {
        self.require_turn(who)?;
        self.history.push(NegotiationStep {
            by: who.clone(),
            proposal: None,
            action: NegotiationAction::Accept,
        });
        self.state = NegotiationState::Accepted;
        Ok(&self.current_proposal)
    }

    /// The party whose turn it is rejects and closes the negotiation.
    ///
    /// # Errors
    ///
    /// As for [`Negotiation::counter`].
    pub fn reject(&mut self, who: &Dn) -> Result<(), MoccaError> {
        self.require_turn(who)?;
        self.history.push(NegotiationStep {
            by: who.clone(),
            proposal: None,
            action: NegotiationAction::Reject,
        });
        self.state = NegotiationState::Rejected;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn fresh() -> Negotiation {
        Negotiation::propose(
            NegotiationSubject::Responsibility("report".into()),
            dn("cn=Tom"),
            dn("cn=Wolfgang"),
            dn("cn=Leandro"),
        )
    }

    #[test]
    fn immediate_accept() {
        let mut n = fresh();
        assert_eq!(n.awaiting(), Some(&dn("cn=Wolfgang")));
        let assignee = n.accept(&dn("cn=Wolfgang")).unwrap().clone();
        assert_eq!(assignee, dn("cn=Leandro"));
        assert_eq!(n.state(), NegotiationState::Accepted);
        assert_eq!(n.history().len(), 2);
    }

    #[test]
    fn counter_passes_the_turn() {
        let mut n = fresh();
        n.counter(&dn("cn=Wolfgang"), dn("cn=Wolfgang")).unwrap();
        assert_eq!(n.awaiting(), Some(&dn("cn=Tom")));
        assert_eq!(n.current_proposal(), &dn("cn=Wolfgang"));
        // Initiator counters back, respondent finally accepts.
        n.counter(&dn("cn=Tom"), dn("cn=Leandro")).unwrap();
        assert_eq!(n.awaiting(), Some(&dn("cn=Wolfgang")));
        n.accept(&dn("cn=Wolfgang")).unwrap();
        assert_eq!(n.state(), NegotiationState::Accepted);
        assert_eq!(n.history().len(), 4);
    }

    #[test]
    fn out_of_turn_moves_are_refused() {
        let mut n = fresh();
        assert!(
            n.accept(&dn("cn=Tom")).is_err(),
            "initiator cannot accept own proposal"
        );
        assert!(
            n.counter(&dn("cn=Leandro"), dn("cn=X")).is_err(),
            "third parties have no turn"
        );
    }

    #[test]
    fn closed_negotiations_freeze() {
        let mut n = fresh();
        n.reject(&dn("cn=Wolfgang")).unwrap();
        assert_eq!(n.state(), NegotiationState::Rejected);
        assert_eq!(n.awaiting(), None);
        let err = n.accept(&dn("cn=Wolfgang")).unwrap_err();
        assert!(matches!(err, MoccaError::BadNegotiationState(_)));
        assert!(n.counter(&dn("cn=Tom"), dn("cn=Y")).is_err());
    }

    #[test]
    fn history_records_every_step() {
        let mut n = fresh();
        n.counter(&dn("cn=Wolfgang"), dn("cn=Wolfgang")).unwrap();
        n.reject(&dn("cn=Tom")).unwrap();
        let actions: Vec<NegotiationAction> = n.history().iter().map(|s| s.action).collect();
        assert_eq!(
            actions,
            [
                NegotiationAction::Propose,
                NegotiationAction::Counter,
                NegotiationAction::Reject
            ]
        );
    }

    #[test]
    fn competence_subject_carries_the_task() {
        let n = Negotiation::propose(
            NegotiationSubject::Competence {
                activity: "meeting".into(),
                competence: "minute-taking".into(),
            },
            dn("cn=Tom"),
            dn("cn=Wolfgang"),
            dn("cn=Wolfgang"),
        );
        match &n.subject {
            NegotiationSubject::Competence { competence, .. } => {
                assert_eq!(competence, "minute-taking");
            }
            other => panic!("wrong subject {other:?}"),
        }
    }
}
