//! Communicators, contexts, and the exchange ledger.

use cscw_directory::Dn;
use cscw_kernel::Timestamp;
use cscw_messaging::OrAddress;

use crate::activity::ActivityId;
use crate::info::InfoObjectId;

/// A participant in communication, with their reachable media.
#[derive(Debug, Clone, PartialEq)]
pub struct Communicator {
    /// Directory identity.
    pub dn: Dn,
    /// X.400 mailbox for asynchronous media.
    pub mailbox: Option<OrAddress>,
    /// Media the communicator accepts, most preferred first
    /// (`"text"`, `"fax"`, `"paper"`): §4's "wide range of media".
    pub accepted_media: Vec<String>,
}

impl Communicator {
    /// Creates a text-only communicator.
    pub fn new(dn: Dn) -> Self {
        Communicator {
            dn,
            mailbox: None,
            accepted_media: vec!["text".to_owned()],
        }
    }

    /// Sets the mailbox.
    #[must_use]
    pub fn with_mailbox(mut self, mailbox: OrAddress) -> Self {
        self.mailbox = Some(mailbox);
        self
    }

    /// Replaces the accepted media list.
    #[must_use]
    pub fn with_media<S: Into<String>>(mut self, media: impl IntoIterator<Item = S>) -> Self {
        self.accepted_media = media.into_iter().map(Into::into).collect();
        self
    }

    /// The most preferred medium both parties accept, if any — the
    /// basis of media interchange decisions.
    pub fn common_medium<'a>(&'a self, other: &Communicator) -> Option<&'a str> {
        self.accepted_media
            .iter()
            .find(|m| other.accepted_media.contains(m))
            .map(String::as_str)
    }
}

/// The context communication happens in: which activity, which
/// participants — "the context within which communication takes place".
#[derive(Debug, Clone, PartialEq)]
pub struct CommContext {
    /// Context id.
    pub id: String,
    /// The activity this communication belongs to, when scoped.
    pub activity: Option<ActivityId>,
    /// Participants (by DN).
    pub participants: Vec<Dn>,
}

impl CommContext {
    /// Creates a context.
    pub fn new(id: impl Into<String>, participants: Vec<Dn>) -> Self {
        CommContext {
            id: id.into(),
            activity: None,
            participants,
        }
    }

    /// Scopes the context to an activity.
    #[must_use]
    pub fn in_activity(mut self, activity: ActivityId) -> Self {
        self.activity = Some(activity);
        self
    }
}

/// One recorded exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct CommEvent {
    /// When.
    pub at: Timestamp,
    /// Sender.
    pub from: Dn,
    /// Receivers.
    pub to: Vec<Dn>,
    /// Context id.
    pub context: String,
    /// The information object exchanged, when one was.
    pub object: Option<InfoObjectId>,
    /// Whether it travelled synchronously or store-and-forward.
    pub synchronous: bool,
}

/// The communication model: who can communicate, in which contexts,
/// and what has been exchanged.
#[derive(Debug, Clone, Default)]
pub struct CommunicationModel {
    communicators: Vec<Communicator>,
    contexts: Vec<CommContext>,
    ledger: Vec<CommEvent>,
}

impl CommunicationModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a communicator (replacing any with the same DN).
    pub fn register(&mut self, c: Communicator) {
        self.communicators.retain(|x| x.dn != c.dn);
        self.communicators.push(c);
    }

    /// Looks up a communicator.
    pub fn communicator(&self, dn: &Dn) -> Option<&Communicator> {
        self.communicators.iter().find(|c| &c.dn == dn)
    }

    /// Opens a context.
    pub fn open_context(&mut self, ctx: CommContext) {
        self.contexts.retain(|x| x.id != ctx.id);
        self.contexts.push(ctx);
    }

    /// Looks up a context.
    pub fn context(&self, id: &str) -> Option<&CommContext> {
        self.contexts.iter().find(|c| c.id == id)
    }

    /// Records an exchange.
    pub fn record(&mut self, event: CommEvent) {
        self.ledger.push(event);
    }

    /// The exchanges in a context, in order.
    pub fn events_in<'a>(&'a self, context: &'a str) -> impl Iterator<Item = &'a CommEvent> + 'a {
        self.ledger.iter().filter(move |e| e.context == context)
    }

    /// Every pair that has communicated (deduplicated, order-normalised).
    pub fn communication_pairs(&self) -> Vec<(Dn, Dn)> {
        let mut pairs = Vec::new();
        for e in &self.ledger {
            for to in &e.to {
                let (a, b) = if e.from <= *to {
                    (e.from.clone(), to.clone())
                } else {
                    (to.clone(), e.from.clone())
                };
                if !pairs.contains(&(a.clone(), b.clone())) {
                    pairs.push((a, b));
                }
            }
        }
        pairs
    }

    /// Whole ledger.
    pub fn ledger(&self) -> &[CommEvent] {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    #[test]
    fn common_medium_respects_preference_order() {
        let a = Communicator::new(dn("cn=A")).with_media(["text", "fax"]);
        let b = Communicator::new(dn("cn=B")).with_media(["fax", "paper"]);
        assert_eq!(a.common_medium(&b), Some("fax"));
        assert_eq!(b.common_medium(&a), Some("fax"));
        let c = Communicator::new(dn("cn=C")).with_media(["paper"]);
        assert_eq!(a.common_medium(&c), None);
    }

    #[test]
    fn register_replaces_by_dn() {
        let mut m = CommunicationModel::new();
        m.register(Communicator::new(dn("cn=A")));
        m.register(Communicator::new(dn("cn=A")).with_media(["fax"]));
        assert_eq!(m.communicator(&dn("cn=A")).unwrap().accepted_media, ["fax"]);
    }

    #[test]
    fn context_scoping() {
        let ctx = CommContext::new("report-discussion", vec![dn("cn=A"), dn("cn=B")])
            .in_activity("report".into());
        assert_eq!(ctx.activity.as_ref().unwrap().as_str(), "report");
    }

    #[test]
    fn ledger_queries() {
        let mut m = CommunicationModel::new();
        m.open_context(CommContext::new("c1", vec![dn("cn=A"), dn("cn=B")]));
        m.record(CommEvent {
            at: Timestamp::ZERO,
            from: dn("cn=A"),
            to: vec![dn("cn=B")],
            context: "c1".into(),
            object: Some("doc1".into()),
            synchronous: false,
        });
        m.record(CommEvent {
            at: Timestamp::from_secs(1),
            from: dn("cn=B"),
            to: vec![dn("cn=A")],
            context: "c1".into(),
            object: None,
            synchronous: true,
        });
        assert_eq!(m.events_in("c1").count(), 2);
        assert_eq!(m.events_in("ghost").count(), 0);
        let pairs = m.communication_pairs();
        assert_eq!(pairs.len(), 1, "A→B and B→A normalise to one pair");
    }
}
