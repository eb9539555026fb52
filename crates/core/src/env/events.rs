//! The environment event bus, with activity-scoped delivery.
//!
//! Applications publish events (activity started, object changed,
//! member joined…); subscribers receive them filtered through
//! [`ActivityIsolation`] — the concrete mechanism behind activity
//! transparency. Disturbances (deliveries that only happen because
//! isolation is off) are counted, giving R5 its measurable effect.

use std::collections::{BTreeMap, BTreeSet};

use cscw_directory::Dn;
use cscw_kernel::Timestamp;

use crate::activity::ActivityId;
use crate::info::InfoContent;
use crate::transparency::activity::{ActivityIsolation, Visibility};

/// One environment event.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvEvent {
    /// Event kind (`activity-started`, `object-updated`, `utterance`…).
    pub kind: String,
    /// The activity it belongs to; `None` for environment-wide events.
    pub activity: Option<ActivityId>,
    /// When it happened.
    pub at: Timestamp,
    /// Structured payload.
    pub payload: InfoContent,
}

/// A subscriber's mailbox on the bus.
#[derive(Debug, Clone, Default)]
struct Subscription {
    memberships: BTreeSet<ActivityId>,
    delivered: Vec<EnvEvent>,
    disturbances: u64,
}

/// The event bus.
#[derive(Debug, Default)]
pub struct EventBus {
    isolation: Option<ActivityIsolation>,
    subscriptions: BTreeMap<Dn, Subscription>,
    published: u64,
}

impl EventBus {
    /// Creates a bus with isolation engaged.
    pub fn new() -> Self {
        EventBus {
            isolation: Some(ActivityIsolation::on()),
            ..Default::default()
        }
    }

    /// Sets the isolation policy (the activity-transparency toggle).
    pub fn set_isolation(&mut self, isolation: ActivityIsolation) {
        self.isolation = Some(isolation);
    }

    /// Subscribes a person with their current activity memberships.
    pub fn subscribe(&mut self, who: Dn, memberships: impl IntoIterator<Item = ActivityId>) {
        let sub = self.subscriptions.entry(who).or_default();
        sub.memberships = memberships.into_iter().collect();
    }

    /// Updates a subscriber's memberships (joining/leaving activities).
    pub fn update_memberships(
        &mut self,
        who: &Dn,
        memberships: impl IntoIterator<Item = ActivityId>,
    ) {
        if let Some(sub) = self.subscriptions.get_mut(who) {
            sub.memberships = memberships.into_iter().collect();
        }
    }

    /// Publishes an event to all subscribers per the isolation policy.
    /// Returns how many subscribers received it.
    pub fn publish(&mut self, event: EnvEvent) -> usize {
        self.published += 1;
        let isolation = self.isolation.unwrap_or(ActivityIsolation::on());
        let mut delivered = 0;
        for sub in self.subscriptions.values_mut() {
            match isolation.classify(event.activity.as_ref(), &sub.memberships) {
                Visibility::Relevant => {
                    sub.delivered.push(event.clone());
                    delivered += 1;
                }
                Visibility::Disturbance => {
                    sub.delivered.push(event.clone());
                    sub.disturbances += 1;
                    delivered += 1;
                }
                Visibility::Hidden => {}
            }
        }
        delivered
    }

    /// The events a subscriber has received, in publish order.
    pub fn delivered_to(&self, who: &Dn) -> &[EnvEvent] {
        self.subscriptions
            .get(who)
            .map(|s| s.delivered.as_slice())
            .unwrap_or(&[])
    }

    /// How many of a subscriber's deliveries were disturbances.
    pub fn disturbances_of(&self, who: &Dn) -> u64 {
        self.subscriptions
            .get(who)
            .map(|s| s.disturbances)
            .unwrap_or(0)
    }

    /// Total disturbances across all subscribers.
    pub fn total_disturbances(&self) -> u64 {
        self.subscriptions.values().map(|s| s.disturbances).sum()
    }

    /// Total events published.
    pub fn published_count(&self) -> u64 {
        self.published
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn event(kind: &str, activity: Option<&str>) -> EnvEvent {
        EnvEvent {
            kind: kind.to_owned(),
            activity: activity.map(ActivityId::from),
            at: Timestamp::ZERO,
            payload: InfoContent::Text(kind.to_owned()),
        }
    }

    fn bus() -> EventBus {
        let mut b = EventBus::new();
        b.subscribe(dn("cn=Tom"), [ActivityId::from("report")]);
        b.subscribe(dn("cn=Wolfgang"), [ActivityId::from("meeting")]);
        b
    }

    #[test]
    fn scoped_events_reach_members_only() {
        let mut b = bus();
        let n = b.publish(event("object-updated", Some("report")));
        assert_eq!(n, 1);
        assert_eq!(b.delivered_to(&dn("cn=Tom")).len(), 1);
        assert!(b.delivered_to(&dn("cn=Wolfgang")).is_empty());
        assert_eq!(b.total_disturbances(), 0);
    }

    #[test]
    fn broadcasts_reach_everyone_without_disturbance() {
        let mut b = bus();
        let n = b.publish(event("environment-notice", None));
        assert_eq!(n, 2);
        assert_eq!(b.total_disturbances(), 0);
    }

    #[test]
    fn isolation_off_delivers_everything_and_counts_disturbance() {
        let mut b = bus();
        b.set_isolation(ActivityIsolation::off());
        let n = b.publish(event("object-updated", Some("report")));
        assert_eq!(n, 2, "everyone gets it");
        assert_eq!(b.disturbances_of(&dn("cn=Wolfgang")), 1);
        assert_eq!(
            b.disturbances_of(&dn("cn=Tom")),
            0,
            "members are never disturbed"
        );
        assert_eq!(b.total_disturbances(), 1);
    }

    #[test]
    fn membership_updates_take_effect() {
        let mut b = bus();
        b.publish(event("e1", Some("meeting")));
        assert!(b.delivered_to(&dn("cn=Tom")).is_empty());
        b.update_memberships(&dn("cn=Tom"), [ActivityId::from("meeting")]);
        b.publish(event("e2", Some("meeting")));
        assert_eq!(b.delivered_to(&dn("cn=Tom")).len(), 1);
        assert_eq!(b.published_count(), 2);
    }

    #[test]
    fn unknown_subscribers_read_empty() {
        let b = bus();
        assert!(b.delivered_to(&dn("cn=Ghost")).is_empty());
        assert_eq!(b.disturbances_of(&dn("cn=Ghost")), 0);
    }
}
