//! Electronic meeting room (COLAB-like).
//!
//! The paper's *same time / same place* quadrant: "CO-located systems
//! often exploit purpose built meeting rooms such as the COLAB at Xerox
//! Parc" (§2). A [`MeetingRoom`] runs a structured meeting on one
//! node-local hub: a brainstorm phase collecting items from everyone at
//! once, then a voting phase, producing a ranked outcome — the
//! Cognoter/Argnoter flavour of COLAB.

use std::collections::BTreeMap;

use cscw_directory::Dn;

use crate::GroupwareError;

/// Meeting phases, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeetingPhase {
    /// Collecting items; everyone may contribute simultaneously.
    Brainstorm,
    /// Scoring items; one vote per person per item.
    Voting,
    /// Finished; results available.
    Closed,
}

/// One brainstormed item.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardItem {
    /// Item index on the board.
    pub index: usize,
    /// Who proposed it.
    pub proposer: Dn,
    /// The text.
    pub text: String,
    /// Total votes received.
    pub votes: u32,
}

/// A co-located structured meeting.
///
/// Being co-located, the meeting is a local data structure: the paper's
/// point about this quadrant is that the *people* share a room, so the
/// supporting computation needs no wide-area distribution. (The open
/// environment still shares its *outcome* — see
/// [`MeetingRoom::minutes`].)
#[derive(Debug)]
pub struct MeetingRoom {
    /// Meeting title.
    pub title: String,
    facilitator: Dn,
    participants: Vec<Dn>,
    phase: MeetingPhase,
    items: Vec<BoardItem>,
    votes_cast: BTreeMap<(Dn, usize), ()>,
}

impl MeetingRoom {
    /// Convenes a meeting.
    pub fn convene(title: &str, facilitator: Dn, participants: Vec<Dn>) -> Self {
        let mut all = participants;
        if !all.contains(&facilitator) {
            all.push(facilitator.clone());
        }
        MeetingRoom {
            title: title.to_owned(),
            facilitator,
            participants: all,
            phase: MeetingPhase::Brainstorm,
            items: Vec::new(),
            votes_cast: BTreeMap::new(),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> MeetingPhase {
        self.phase
    }

    /// The board, in proposal order.
    pub fn board(&self) -> &[BoardItem] {
        &self.items
    }

    /// Participants.
    pub fn participants(&self) -> &[Dn] {
        &self.participants
    }

    fn require_participant(&self, who: &Dn) -> Result<(), GroupwareError> {
        if self.participants.contains(who) {
            Ok(())
        } else {
            Err(GroupwareError::NotAParticipant(who.to_string()))
        }
    }

    /// Adds an item during brainstorm. Unlike the conference's floor
    /// control, *everyone contributes at once* — the defining trait of
    /// the COLAB style.
    ///
    /// # Errors
    ///
    /// * [`GroupwareError::WrongPhase`] outside brainstorm.
    /// * [`GroupwareError::NotAParticipant`] for outsiders.
    pub fn propose(&mut self, who: &Dn, text: &str) -> Result<usize, GroupwareError> {
        self.require_participant(who)?;
        if self.phase != MeetingPhase::Brainstorm {
            return Err(GroupwareError::WrongPhase {
                expected: "brainstorm",
            });
        }
        let index = self.items.len();
        self.items.push(BoardItem {
            index,
            proposer: who.clone(),
            text: text.to_owned(),
            votes: 0,
        });
        Ok(index)
    }

    /// The facilitator moves the meeting to voting.
    ///
    /// # Errors
    ///
    /// * [`GroupwareError::NotFacilitator`] for anyone else.
    /// * [`GroupwareError::WrongPhase`] when not brainstorming.
    pub fn start_voting(&mut self, who: &Dn) -> Result<(), GroupwareError> {
        if who != &self.facilitator {
            return Err(GroupwareError::NotFacilitator(who.to_string()));
        }
        if self.phase != MeetingPhase::Brainstorm {
            return Err(GroupwareError::WrongPhase {
                expected: "brainstorm",
            });
        }
        self.phase = MeetingPhase::Voting;
        Ok(())
    }

    /// Casts a vote for an item: one vote per participant per item.
    ///
    /// # Errors
    ///
    /// * [`GroupwareError::WrongPhase`] outside voting.
    /// * [`GroupwareError::NotAParticipant`] / double votes / bad index.
    pub fn vote(&mut self, who: &Dn, item: usize) -> Result<(), GroupwareError> {
        self.require_participant(who)?;
        if self.phase != MeetingPhase::Voting {
            return Err(GroupwareError::WrongPhase { expected: "voting" });
        }
        if item >= self.items.len() {
            return Err(GroupwareError::NoSuchItem(item));
        }
        if self.votes_cast.contains_key(&(who.clone(), item)) {
            return Err(GroupwareError::AlreadyVoted(who.to_string(), item));
        }
        self.votes_cast.insert((who.clone(), item), ());
        self.items[item].votes += 1;
        Ok(())
    }

    /// The facilitator closes the meeting; items are ranked by votes
    /// (ties by board order).
    ///
    /// # Errors
    ///
    /// * [`GroupwareError::NotFacilitator`] / [`GroupwareError::WrongPhase`].
    pub fn close(&mut self, who: &Dn) -> Result<Vec<BoardItem>, GroupwareError> {
        if who != &self.facilitator {
            return Err(GroupwareError::NotFacilitator(who.to_string()));
        }
        if self.phase != MeetingPhase::Voting {
            return Err(GroupwareError::WrongPhase { expected: "voting" });
        }
        self.phase = MeetingPhase::Closed;
        Ok(self.ranking())
    }

    /// Items ranked by votes (descending), ties by proposal order.
    pub fn ranking(&self) -> Vec<BoardItem> {
        let mut ranked = self.items.clone();
        ranked.sort_by(|a, b| b.votes.cmp(&a.votes).then(a.index.cmp(&b.index)));
        ranked
    }

    /// Renders the meeting outcome as minutes (field-structured, ready
    /// for the environment's information model).
    pub fn minutes(&self) -> Vec<(String, String)> {
        let mut fields = vec![
            ("title".to_owned(), self.title.clone()),
            (
                "participants".to_owned(),
                self.participants.len().to_string(),
            ),
        ];
        for (rank, item) in self.ranking().iter().enumerate() {
            fields.push((
                format!("item{}", rank + 1),
                format!("{} ({} votes)", item.text, item.votes),
            ));
        }
        fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn meeting() -> MeetingRoom {
        MeetingRoom::convene(
            "Design review",
            dn("cn=Tom"),
            vec![dn("cn=Wolfgang"), dn("cn=Leandro")],
        )
    }

    #[test]
    fn everyone_brainstorms_simultaneously() {
        let mut m = meeting();
        m.propose(&dn("cn=Tom"), "use the trader").unwrap();
        m.propose(&dn("cn=Wolfgang"), "attach the knowledge base")
            .unwrap();
        m.propose(&dn("cn=Leandro"), "user-selectable transparency")
            .unwrap();
        assert_eq!(m.board().len(), 3);
        assert!(m.propose(&dn("cn=Stranger"), "heckling").is_err());
    }

    #[test]
    fn phases_gate_operations() {
        let mut m = meeting();
        let item = m.propose(&dn("cn=Tom"), "idea").unwrap();
        assert!(
            m.vote(&dn("cn=Tom"), item).is_err(),
            "no voting during brainstorm"
        );
        assert!(
            m.start_voting(&dn("cn=Wolfgang")).is_err(),
            "only the facilitator"
        );
        m.start_voting(&dn("cn=Tom")).unwrap();
        assert!(m.propose(&dn("cn=Tom"), "too late").is_err());
        m.vote(&dn("cn=Wolfgang"), item).unwrap();
        assert!(
            m.vote(&dn("cn=Wolfgang"), item).is_err(),
            "one vote per item"
        );
        assert!(m.vote(&dn("cn=Wolfgang"), 99).is_err());
        let results = m.close(&dn("cn=Tom")).unwrap();
        assert_eq!(results[0].votes, 1);
        assert_eq!(m.phase(), MeetingPhase::Closed);
        assert!(m.close(&dn("cn=Tom")).is_err(), "already closed");
    }

    #[test]
    fn ranking_orders_by_votes_then_board_order() {
        let mut m = meeting();
        let a = m.propose(&dn("cn=Tom"), "A").unwrap();
        let b = m.propose(&dn("cn=Tom"), "B").unwrap();
        let c = m.propose(&dn("cn=Tom"), "C").unwrap();
        m.start_voting(&dn("cn=Tom")).unwrap();
        for who in ["cn=Tom", "cn=Wolfgang", "cn=Leandro"] {
            m.vote(&dn(who), b).unwrap();
        }
        m.vote(&dn("cn=Tom"), c).unwrap();
        m.vote(&dn("cn=Wolfgang"), a).unwrap();
        let ranked = m.ranking();
        assert_eq!(ranked[0].text, "B");
        assert_eq!(ranked[1].text, "A", "tie broken by board order");
        assert_eq!(ranked[2].text, "C");
    }

    #[test]
    fn minutes_capture_the_outcome() {
        let mut m = meeting();
        let a = m.propose(&dn("cn=Tom"), "adopt MOCCA").unwrap();
        m.start_voting(&dn("cn=Tom")).unwrap();
        m.vote(&dn("cn=Wolfgang"), a).unwrap();
        m.close(&dn("cn=Tom")).unwrap();
        let minutes = m.minutes();
        assert!(minutes
            .iter()
            .any(|(k, v)| k == "title" && v == "Design review"));
        assert!(minutes
            .iter()
            .any(|(k, v)| k == "item1" && v.contains("adopt MOCCA")));
    }

    #[test]
    fn facilitator_is_always_a_participant() {
        let m = MeetingRoom::convene("x", dn("cn=Solo"), vec![]);
        assert_eq!(m.participants().len(), 1);
    }
}
