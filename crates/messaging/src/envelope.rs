//! Transfer envelopes and trace information.

use cscw_kernel::Timestamp;
use serde::{Deserialize, Serialize};

use crate::address::OrAddress;

/// Transfer priority (P1 envelope grade of delivery).
///
/// Priority scales each MTA's per-hop processing delay: urgent messages
/// move through queues faster than non-urgent ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub enum Priority {
    /// Bulk traffic (4× processing delay).
    NonUrgent,
    /// Routine traffic (2× processing delay).
    #[default]
    Normal,
    /// Urgent traffic (1× processing delay).
    Urgent,
}

impl Priority {
    /// The processing-delay multiplier applied at each MTA hop.
    pub fn delay_factor(self) -> u64 {
        match self {
            Priority::Urgent => 1,
            Priority::Normal => 2,
            Priority::NonUrgent => 4,
        }
    }
}

/// One hop recorded in the envelope's trace, for loop detection and
/// observability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHop {
    /// The MTA's name.
    pub mta: String,
    /// When it relayed the message.
    pub at: Timestamp,
}

/// The transfer envelope (P1): everything MTAs need without opening the
/// content.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// MTS-assigned message identifier (unique per submission).
    pub message_id: u64,
    /// The submitting user.
    pub originator: OrAddress,
    /// Remaining recipients this copy of the message is for. MTAs split
    /// envelopes when recipients diverge across routes.
    pub recipients: Vec<OrAddress>,
    /// Grade of delivery.
    pub priority: Priority,
    /// Do not deliver before this time, if set.
    pub deferred_until: Option<Timestamp>,
    /// When the message was submitted.
    pub submitted_at: Timestamp,
    /// Whether the originator wants a delivery report.
    pub report_requested: bool,
    /// MTAs traversed so far.
    pub trace: Vec<TraceHop>,
    /// Distribution lists already expanded (loop guard).
    pub expanded_dls: Vec<String>,
}

impl Envelope {
    /// Creates an envelope for a fresh submission.
    pub fn new(
        message_id: u64,
        originator: OrAddress,
        recipients: Vec<OrAddress>,
        submitted_at: Timestamp,
    ) -> Self {
        Envelope {
            message_id,
            originator,
            recipients,
            priority: Priority::default(),
            deferred_until: None,
            submitted_at,
            report_requested: false,
            trace: Vec::new(),
            expanded_dls: Vec::new(),
        }
    }

    /// Returns the envelope with a different priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Returns the envelope with deferred delivery set.
    #[must_use]
    pub fn with_deferred_delivery(mut self, until: Timestamp) -> Self {
        self.deferred_until = Some(until);
        self
    }

    /// Returns the envelope with a delivery report requested.
    #[must_use]
    pub fn with_report(mut self) -> Self {
        self.report_requested = true;
        self
    }

    /// True if the named MTA already appears in the trace.
    pub fn visited(&self, mta: &str) -> bool {
        self.trace.iter().any(|h| h.mta == mta)
    }

    /// Number of hops so far.
    pub fn hop_count(&self) -> usize {
        self.trace.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(pn: &str) -> OrAddress {
        OrAddress::new("UK", "Lancaster", Vec::<String>::new(), pn).unwrap()
    }

    #[test]
    fn priority_factors_order_correctly() {
        assert!(Priority::Urgent.delay_factor() < Priority::Normal.delay_factor());
        assert!(Priority::Normal.delay_factor() < Priority::NonUrgent.delay_factor());
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn builders_set_fields() {
        let e = Envelope::new(1, addr("A"), vec![addr("B")], Timestamp::ZERO)
            .with_priority(Priority::Urgent)
            .with_deferred_delivery(Timestamp::from_secs(60))
            .with_report();
        assert_eq!(e.priority, Priority::Urgent);
        assert_eq!(e.deferred_until, Some(Timestamp::from_secs(60)));
        assert!(e.report_requested);
    }

    #[test]
    fn trace_tracks_visits() {
        let mut e = Envelope::new(1, addr("A"), vec![addr("B")], Timestamp::ZERO);
        assert!(!e.visited("mta-uk"));
        e.trace.push(TraceHop {
            mta: "mta-uk".into(),
            at: Timestamp::ZERO,
        });
        assert!(e.visited("mta-uk"));
        assert_eq!(e.hop_count(), 1);
    }
}
