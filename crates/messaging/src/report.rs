//! Delivery reports and receipt notifications.

use cscw_kernel::Timestamp;
use serde::{Deserialize, Serialize};

use crate::address::OrAddress;

/// Why a recipient could not be served.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NonDeliveryReason {
    /// The recipient is unknown at the destination MTA.
    UnknownRecipient,
    /// No route exists toward the recipient's domain.
    NoRoute,
    /// The message looped until the hop limit.
    HopLimitExceeded,
    /// A distribution list expansion looped.
    DlLoop,
    /// The next-hop link stayed congested through every retry.
    Congestion,
}

impl std::fmt::Display for NonDeliveryReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NonDeliveryReason::UnknownRecipient => "unknown recipient",
            NonDeliveryReason::NoRoute => "no route",
            NonDeliveryReason::HopLimitExceeded => "hop limit exceeded",
            NonDeliveryReason::DlLoop => "distribution list loop",
            NonDeliveryReason::Congestion => "congestion",
        };
        f.write_str(s)
    }
}

/// Per-recipient outcome in a delivery report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeliveryOutcome {
    /// Delivered to the recipient's message store at the given time.
    Delivered {
        /// Delivery time.
        at: Timestamp,
    },
    /// Delivery failed.
    NonDelivery {
        /// The failure reason.
        reason: NonDeliveryReason,
    },
}

impl DeliveryOutcome {
    /// True for successful delivery.
    pub fn is_delivered(&self) -> bool {
        matches!(self, DeliveryOutcome::Delivered { .. })
    }
}

/// A delivery / non-delivery report sent back to the originator
/// (X.400 DR/NDR).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliveryReport {
    /// The message this reports on.
    pub subject_message_id: u64,
    /// The recipient this report concerns.
    pub recipient: OrAddress,
    /// What happened.
    pub outcome: DeliveryOutcome,
}

/// An end-to-end receipt notification: the *user* (not the MTA) has seen
/// the message (X.420 IPN).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReceiptNotification {
    /// The message that was read.
    pub subject_message_id: u64,
    /// Who read it.
    pub recipient: OrAddress,
    /// When they read it.
    pub at: Timestamp,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicate() {
        assert!(DeliveryOutcome::Delivered {
            at: Timestamp::ZERO
        }
        .is_delivered());
        assert!(!DeliveryOutcome::NonDelivery {
            reason: NonDeliveryReason::NoRoute
        }
        .is_delivered());
    }

    #[test]
    fn reasons_display() {
        assert_eq!(
            NonDeliveryReason::UnknownRecipient.to_string(),
            "unknown recipient"
        );
        assert_eq!(
            NonDeliveryReason::DlLoop.to_string(),
            "distribution list loop"
        );
    }
}
