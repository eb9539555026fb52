//! Per-user message stores.
//!
//! Each user served by an MTA has a message store holding delivered
//! messages in named folders (inbox by default), plus received delivery
//! reports and receipt notifications.

use std::collections::BTreeMap;
use std::sync::Arc;

use cscw_kernel::Timestamp;

use crate::content::Ipm;
use crate::report::{DeliveryReport, ReceiptNotification};

/// The folder new deliveries land in.
pub const INBOX: &str = "inbox";

/// A message at rest in a store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredMessage {
    /// MTS message id.
    pub message_id: u64,
    /// When the MTA delivered it.
    pub delivered_at: Timestamp,
    /// Whether the user has fetched/read it.
    pub read: bool,
    /// The content, shared with every other recipient's copy.
    pub ipm: Arc<Ipm>,
}

/// One user's message store.
#[derive(Debug, Clone, Default)]
pub struct MessageStore {
    folders: BTreeMap<String, Vec<StoredMessage>>,
    reports: Vec<DeliveryReport>,
    receipts: Vec<ReceiptNotification>,
}

impl MessageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Files a delivery into the inbox.
    pub fn deliver(&mut self, message_id: u64, delivered_at: Timestamp, ipm: Arc<Ipm>) {
        self.folders
            .entry(INBOX.to_owned())
            .or_default()
            .push(StoredMessage {
                message_id,
                delivered_at,
                read: false,
                ipm,
            });
    }

    /// Files a delivery report.
    pub fn file_report(&mut self, report: DeliveryReport) {
        self.reports.push(report);
    }

    /// Files a receipt notification.
    pub fn file_receipt(&mut self, receipt: ReceiptNotification) {
        self.receipts.push(receipt);
    }

    /// The messages in a folder, oldest first.
    pub fn folder(&self, name: &str) -> &[StoredMessage] {
        self.folders.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The inbox.
    pub fn inbox(&self) -> &[StoredMessage] {
        self.folder(INBOX)
    }

    /// All delivery reports received.
    pub fn reports(&self) -> &[DeliveryReport] {
        &self.reports
    }

    /// All receipt notifications received.
    pub fn receipts(&self) -> &[ReceiptNotification] {
        &self.receipts
    }

    /// Folder names in use.
    pub fn folder_names(&self) -> impl Iterator<Item = &str> {
        self.folders.keys().map(String::as_str)
    }

    /// Marks a message read; returns the message if found.
    pub fn mark_read(&mut self, message_id: u64) -> Option<&StoredMessage> {
        for msgs in self.folders.values_mut() {
            if let Some(m) = msgs.iter_mut().find(|m| m.message_id == message_id) {
                m.read = true;
                return Some(m);
            }
        }
        None
    }

    /// Moves a message from one folder to another; returns whether it
    /// was found. The target folder is created on demand.
    pub fn move_message(&mut self, message_id: u64, from: &str, to: &str) -> bool {
        let Some(src) = self.folders.get_mut(from) else {
            return false;
        };
        let Some(pos) = src.iter().position(|m| m.message_id == message_id) else {
            return false;
        };
        let msg = src.remove(pos);
        self.folders.entry(to.to_owned()).or_default().push(msg);
        true
    }

    /// Deletes a message anywhere in the store; returns whether found.
    pub fn delete(&mut self, message_id: u64) -> bool {
        for msgs in self.folders.values_mut() {
            let before = msgs.len();
            msgs.retain(|m| m.message_id != message_id);
            if msgs.len() != before {
                return true;
            }
        }
        false
    }

    /// Total messages across all folders.
    pub fn total_messages(&self) -> usize {
        self.folders.values().map(Vec::len).sum()
    }

    /// Unread messages in the inbox.
    pub fn unread_count(&self) -> usize {
        self.inbox().iter().filter(|m| !m.read).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::OrAddress;

    fn ipm(n: u64) -> Arc<Ipm> {
        let a = OrAddress::new("UK", "L", Vec::<String>::new(), "A").unwrap();
        let b = OrAddress::new("UK", "L", Vec::<String>::new(), "B").unwrap();
        Arc::new(Ipm::text(a, b, &format!("msg {n}"), "body"))
    }

    #[test]
    fn deliver_lands_in_inbox_unread() {
        let mut s = MessageStore::new();
        s.deliver(1, Timestamp::ZERO, ipm(1));
        assert_eq!(s.inbox().len(), 1);
        assert_eq!(s.unread_count(), 1);
        assert!(!s.inbox()[0].read);
    }

    #[test]
    fn mark_read_clears_unread() {
        let mut s = MessageStore::new();
        s.deliver(1, Timestamp::ZERO, ipm(1));
        assert!(s.mark_read(1).is_some());
        assert_eq!(s.unread_count(), 0);
        assert!(s.mark_read(99).is_none());
    }

    #[test]
    fn move_between_folders() {
        let mut s = MessageStore::new();
        s.deliver(1, Timestamp::ZERO, ipm(1));
        s.deliver(2, Timestamp::ZERO, ipm(2));
        assert!(s.move_message(1, INBOX, "archive"));
        assert_eq!(s.inbox().len(), 1);
        assert_eq!(s.folder("archive").len(), 1);
        assert!(!s.move_message(1, INBOX, "archive"), "already moved");
        let names: Vec<_> = s.folder_names().collect();
        assert_eq!(names, ["archive", INBOX]);
    }

    #[test]
    fn delete_anywhere() {
        let mut s = MessageStore::new();
        s.deliver(1, Timestamp::ZERO, ipm(1));
        s.move_message(1, INBOX, "archive");
        assert!(s.delete(1));
        assert!(!s.delete(1));
        assert_eq!(s.total_messages(), 0);
    }

    #[test]
    fn reports_and_receipts_are_filed_separately() {
        use crate::report::{DeliveryOutcome, ReceiptNotification};
        let mut s = MessageStore::new();
        let who = OrAddress::new("UK", "L", Vec::<String>::new(), "B").unwrap();
        s.file_report(DeliveryReport {
            subject_message_id: 1,
            recipient: who.clone(),
            outcome: DeliveryOutcome::Delivered {
                at: Timestamp::ZERO,
            },
        });
        s.file_receipt(ReceiptNotification {
            subject_message_id: 1,
            recipient: who,
            at: Timestamp::ZERO,
        });
        assert_eq!(s.reports().len(), 1);
        assert_eq!(s.receipts().len(), 1);
        assert_eq!(s.total_messages(), 0, "reports are not messages");
    }
}
