//! Message Transfer Agents and User Agents.
//!
//! An [`MtaNode`] is a `simnet` node implementing X.400-style
//! store-and-forward transfer:
//!
//! * per-hop **processing delay** scaled by envelope [`Priority`];
//! * **deferred delivery** (hold until a requested time);
//! * **routing** by O/R domain with envelope splitting when recipients
//!   diverge;
//! * **loop protection** via envelope trace and hop limit;
//! * **distribution lists** with expansion-history loop guards;
//! * **delivery / non-delivery reports** routed back to the originator;
//! * local **message stores** for the users it serves.
//!
//! The [`UserAgent`] is the client facade: it submits messages from a
//! user's node and reads that user's store back out of the simulation.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use cscw_kernel::{Layer, Timestamp};
use simnet::{Message, Node, NodeCtx, NodeId, Payload, Sim};

use crate::address::OrAddress;
use crate::content::Ipm;
use crate::envelope::{Envelope, Priority, TraceHop};
use crate::error::MtsError;
use crate::report::{DeliveryOutcome, DeliveryReport, NonDeliveryReason, ReceiptNotification};
use crate::routing::RoutingTable;
use crate::store::MessageStore;

/// Maximum MTA hops before a message is bounced.
pub const MAX_HOPS: usize = 16;

/// Maximum wire-send attempts per next-hop transfer before the MTA
/// gives up and bounces the message with
/// [`NonDeliveryReason::Congestion`].
pub const MAX_TRANSFER_ATTEMPTS: u32 = 4;

/// An onward transfer the wire refused (bounded egress queue shed the
/// send): held for a backoff retry.
#[derive(Debug)]
struct DeferredTransfer {
    hop: NodeId,
    envelope: Envelope,
    ipm: Arc<Ipm>,
    attempts: u32,
}

/// Counts and records an MTS event in the simulation's telemetry
/// stream, tagged [`Layer::Messaging`].
fn emit_messaging(ctx: &NodeCtx<'_>, name: &'static str, detail: impl fmt::Display) {
    let t = ctx.telemetry();
    t.incr(Layer::Messaging, name);
    t.emit(ctx.now_micros(), Layer::Messaging, name, detail);
}

/// The inter-MTA / UA-MTA wire protocol (P1-ish).
// PDUs are boxed inside `simnet::Payload` the moment they are sent, so
// the variant size difference never lives on the stack.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum MtsPdu {
    /// A message in transit.
    Transfer {
        /// The transfer envelope.
        envelope: Envelope,
        /// The content, shared by every copy of the message: content is
        /// immutable once submitted, so splitting, retrying and local
        /// delivery bump a reference count instead of copying it.
        ipm: Arc<Ipm>,
    },
    /// A delivery report travelling back to the originator.
    Report {
        /// Final destination (the originator of the subject message).
        to: OrAddress,
        /// The report.
        report: DeliveryReport,
        /// Hop counter.
        hops: u8,
    },
    /// A receipt notification travelling back to the originator.
    Receipt {
        /// Final destination.
        to: OrAddress,
        /// The receipt.
        receipt: ReceiptNotification,
        /// Hop counter.
        hops: u8,
    },
}

/// A Message Transfer Agent bound to one simulated node.
#[derive(Debug)]
pub struct MtaNode {
    name: String,
    routing: RoutingTable,
    mailboxes: BTreeMap<OrAddress, MessageStore>,
    dls: BTreeMap<OrAddress, Vec<OrAddress>>,
    base_delay_micros: u64,
    pending: BTreeMap<u64, (Envelope, Arc<Ipm>)>,
    deferred: BTreeMap<u64, DeferredTransfer>,
    next_tag: u64,
}

impl MtaNode {
    /// Creates an MTA with the given trace name and a default per-hop
    /// processing delay of 50 ms (scaled by priority).
    pub fn new(name: impl Into<String>) -> Self {
        MtaNode {
            name: name.into(),
            routing: RoutingTable::new(),
            mailboxes: BTreeMap::new(),
            dls: BTreeMap::new(),
            base_delay_micros: 50_000,
            pending: BTreeMap::new(),
            deferred: BTreeMap::new(),
            next_tag: 0,
        }
    }

    /// Overrides the base per-hop processing delay, in microseconds.
    #[must_use]
    pub fn with_base_delay(mut self, delay_micros: u64) -> Self {
        self.base_delay_micros = delay_micros;
        self
    }

    /// The MTA's trace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mutable routing-table access.
    pub fn routing_mut(&mut self) -> &mut RoutingTable {
        &mut self.routing
    }

    /// Creates a mailbox for a served user (idempotent).
    pub fn register_mailbox(&mut self, user: OrAddress) {
        self.mailboxes.entry(user).or_default();
    }

    /// Registers a distribution list at this MTA.
    pub fn register_dl(&mut self, list: OrAddress, members: Vec<OrAddress>) {
        self.dls.insert(list, members);
    }

    /// Read access to a served user's store.
    pub fn mailbox(&self, user: &OrAddress) -> Option<&MessageStore> {
        self.mailboxes.get(user)
    }

    /// Mutable access to a served user's store.
    pub fn mailbox_mut(&mut self, user: &OrAddress) -> Option<&mut MessageStore> {
        self.mailboxes.get_mut(user)
    }

    /// Heuristic used to distinguish "unknown user here" from "cannot
    /// route": does this MTA serve the address's domain at all?
    fn serves_domain(&self, addr: &OrAddress) -> bool {
        self.mailboxes
            .keys()
            .chain(self.dls.keys())
            .any(|a| a.domain() == addr.domain())
    }

    /// How long `envelope` waits before processing: until its deferred
    /// delivery time if that is still ahead, else the base delay scaled
    /// by its priority.
    fn processing_delay(&self, envelope: &Envelope, now: Timestamp) -> u64 {
        match envelope.deferred_until {
            Some(t) if t > now => t - now,
            _ => self
                .base_delay_micros
                .saturating_mul(envelope.priority.delay_factor()),
        }
    }

    fn schedule_processing(&mut self, ctx: &mut NodeCtx<'_>, envelope: Envelope, ipm: Arc<Ipm>) {
        let delay = self.processing_delay(&envelope, ctx.now());
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending.insert(tag, (envelope, ipm));
        ctx.set_timer(delay, tag);
    }

    fn process(&mut self, ctx: &mut NodeCtx<'_>, mut envelope: Envelope, ipm: Arc<Ipm>) {
        // Loop protection before stamping our own hop.
        if envelope.hop_count() >= MAX_HOPS || envelope.visited(&self.name) {
            let recipients = std::mem::take(&mut envelope.recipients);
            for r in recipients {
                self.non_deliver(ctx, &envelope, r, NonDeliveryReason::HopLimitExceeded);
            }
            return;
        }
        envelope.trace.push(TraceHop {
            mta: self.name.clone(),
            at: ctx.now(),
        });

        let mut queue: VecDeque<OrAddress> = envelope.recipients.drain(..).collect();
        let mut locals: Vec<OrAddress> = Vec::new();
        let mut forwards: BTreeMap<NodeId, Vec<OrAddress>> = BTreeMap::new();
        let mut expanded_here = false;

        while let Some(recipient) = queue.pop_front() {
            if let Some(members) = self.dls.get(&recipient) {
                let dl_key = recipient.to_string();
                if envelope.expanded_dls.contains(&dl_key) {
                    self.non_deliver(ctx, &envelope, recipient, NonDeliveryReason::DlLoop);
                    continue;
                }
                envelope.expanded_dls.push(dl_key);
                expanded_here = true;
                ctx.telemetry().incr(Layer::Messaging, "mts.dl.expand");
                for m in members.clone() {
                    queue.push_back(m);
                }
                continue;
            }
            if self.mailboxes.contains_key(&recipient) {
                if !locals.contains(&recipient) {
                    locals.push(recipient);
                }
                continue;
            }
            match self.routing.next_hop(&recipient) {
                Some(hop) if hop != ctx.id() => {
                    let bucket = forwards.entry(hop).or_default();
                    if !bucket.contains(&recipient) {
                        bucket.push(recipient);
                    }
                }
                _ => {
                    let reason = if self.serves_domain(&recipient) {
                        NonDeliveryReason::UnknownRecipient
                    } else {
                        NonDeliveryReason::NoRoute
                    };
                    self.non_deliver(ctx, &envelope, recipient, reason);
                }
            }
        }

        // Local deliveries.
        let now = ctx.now();
        for recipient in locals {
            // Bucketed as local above; if the mailbox vanished since,
            // report non-delivery rather than assume.
            if !self.mailboxes.contains_key(&recipient) {
                self.non_deliver(
                    ctx,
                    &envelope,
                    recipient,
                    NonDeliveryReason::UnknownRecipient,
                );
                continue;
            }
            if let Some(store) = self.mailboxes.get_mut(&recipient) {
                store.deliver(envelope.message_id, now, ipm.clone());
            }
            emit_messaging(
                ctx,
                "mts.deliver",
                format_args!("{} delivered to {recipient}", envelope.message_id),
            );
            ctx.telemetry().record_micros(
                Layer::Messaging,
                "mts.end_to_end",
                now - envelope.submitted_at,
            );
            if envelope.report_requested {
                let report = DeliveryReport {
                    subject_message_id: envelope.message_id,
                    recipient,
                    outcome: DeliveryOutcome::Delivered { at: now },
                };
                self.route_report(ctx, envelope.originator.clone(), report, 0);
            }
        }

        // Onward transfers, one split envelope per next hop. A DL
        // expansion is a fresh distribution (X.400 expansion point):
        // its copies restart the trace here, so members served by MTAs
        // the original message already crossed are still reachable.
        for (hop, recipients) in forwards {
            let mut copy = envelope.clone();
            if expanded_here {
                copy.trace = vec![TraceHop {
                    mta: self.name.clone(),
                    at: ctx.now(),
                }];
            }
            copy.recipients = recipients;
            emit_messaging(
                ctx,
                "mts.forward",
                format_args!("{} via {}", envelope.message_id, self.name),
            );
            self.forward(ctx, hop, copy, ipm.clone(), 1);
        }
    }

    /// Puts a split envelope on the wire toward `hop`. A bounded egress
    /// queue may shed the send ([`simnet::SendOutcome::Shed`]); the MTA
    /// is store-and-forward, so a shed transfer is not lost — it is
    /// parked in `deferred` and retried with exponential backoff until
    /// [`MAX_TRANSFER_ATTEMPTS`] is exhausted, then bounced with
    /// [`NonDeliveryReason::Congestion`].
    fn forward(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        hop: NodeId,
        envelope: Envelope,
        ipm: Arc<Ipm>,
        attempt: u32,
    ) {
        let size = ipm.wire_size();
        let outcome = ctx.send_sized(
            hop,
            Payload::new(MtsPdu::Transfer {
                envelope: envelope.clone(),
                ipm: ipm.clone(),
            }),
            size,
        );
        if !outcome.is_shed() {
            return;
        }
        if attempt >= MAX_TRANSFER_ATTEMPTS {
            emit_messaging(
                ctx,
                "mts.congestion_bounce",
                format_args!(
                    "{} toward {hop:?} after {attempt} attempts",
                    envelope.message_id
                ),
            );
            let mut envelope = envelope;
            let recipients = std::mem::take(&mut envelope.recipients);
            for r in recipients {
                self.non_deliver(ctx, &envelope, r, NonDeliveryReason::Congestion);
            }
            return;
        }
        emit_messaging(
            ctx,
            "mts.defer",
            format_args!("{} toward {hop:?} attempt {attempt}", envelope.message_id),
        );
        let tag = self.next_tag;
        self.next_tag += 1;
        self.deferred.insert(
            tag,
            DeferredTransfer {
                hop,
                envelope,
                ipm,
                attempts: attempt,
            },
        );
        // Exponential backoff in units of the per-hop processing delay.
        let backoff = self
            .base_delay_micros
            .saturating_mul(1u64 << attempt.min(6));
        ctx.set_timer(backoff, tag);
    }

    fn non_deliver(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        envelope: &Envelope,
        recipient: OrAddress,
        reason: NonDeliveryReason,
    ) {
        emit_messaging(
            ctx,
            "mts.non_deliver",
            format_args!("{} to {recipient}: {reason:?}", envelope.message_id),
        );
        let report = DeliveryReport {
            subject_message_id: envelope.message_id,
            recipient,
            outcome: DeliveryOutcome::NonDelivery { reason },
        };
        // NDRs are always generated, reports on success only on request.
        self.route_report(ctx, envelope.originator.clone(), report, 0);
    }

    fn route_report(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        to: OrAddress,
        report: DeliveryReport,
        hops: u8,
    ) {
        if let Some(store) = self.mailboxes.get_mut(&to) {
            store.file_report(report);
            ctx.telemetry().incr(Layer::Messaging, "mts.report.file");
            return;
        }
        if hops as usize >= MAX_HOPS {
            ctx.telemetry().incr(Layer::Messaging, "mts.report.lost");
            return;
        }
        match self.routing.next_hop(&to) {
            Some(hop) if hop != ctx.id() => {
                ctx.send(
                    hop,
                    Payload::new(MtsPdu::Report {
                        to,
                        report,
                        hops: hops + 1,
                    }),
                );
            }
            _ => ctx.telemetry().incr(Layer::Messaging, "mts.report.lost"),
        }
    }

    fn route_receipt(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        to: OrAddress,
        receipt: ReceiptNotification,
        hops: u8,
    ) {
        if let Some(store) = self.mailboxes.get_mut(&to) {
            store.file_receipt(receipt);
            ctx.telemetry().incr(Layer::Messaging, "mts.receipt.file");
            return;
        }
        if hops as usize >= MAX_HOPS {
            return;
        }
        match self.routing.next_hop(&to) {
            Some(hop) if hop != ctx.id() => {
                ctx.send(
                    hop,
                    Payload::new(MtsPdu::Receipt {
                        to,
                        receipt,
                        hops: hops + 1,
                    }),
                );
            }
            _ => {}
        }
    }
}

impl Node for MtaNode {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        let Ok(pdu) = msg.payload.downcast::<MtsPdu>() else {
            return;
        };
        match pdu {
            MtsPdu::Transfer { envelope, ipm } => {
                emit_messaging(
                    ctx,
                    "mts.transfer_in",
                    format_args!("{} at {}", envelope.message_id, self.name),
                );
                self.schedule_processing(ctx, envelope, ipm);
            }
            MtsPdu::Report { to, report, hops } => self.route_report(ctx, to, report, hops),
            MtsPdu::Receipt { to, receipt, hops } => self.route_receipt(ctx, to, receipt, hops),
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: simnet::TimerId, tag: u64) {
        if let Some((envelope, ipm)) = self.pending.remove(&tag) {
            self.process(ctx, envelope, ipm);
            return;
        }
        if let Some(d) = self.deferred.remove(&tag) {
            // Retry the wire send directly: the envelope already
            // carries this MTA's trace hop, so re-entering `process()`
            // would bounce it as a loop.
            self.forward(ctx, d.hop, d.envelope, d.ipm, d.attempts + 1);
        }
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        // The message queue is durable (disk-backed in a real MTA): any
        // message whose processing timer was lost to the crash is
        // re-armed now, preserving deferred-delivery times.
        let now = ctx.now();
        let rearm: Vec<(u64, u64)> = self
            .pending
            .iter()
            .map(|(&tag, (envelope, _))| (tag, self.processing_delay(envelope, now)))
            .collect();
        for (tag, delay) in rearm {
            ctx.telemetry()
                .incr(Layer::Messaging, "mts.restart.recover");
            ctx.set_timer(delay, tag);
        }
        // Deferred (congestion-shed) transfers are durable too; retry
        // them one base delay after coming back up.
        let deferred_tags: Vec<u64> = self.deferred.keys().copied().collect();
        for tag in deferred_tags {
            ctx.telemetry()
                .incr(Layer::Messaging, "mts.restart.recover");
            ctx.set_timer(self.base_delay_micros, tag);
        }
    }
}

/// Submission options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Grade of delivery.
    pub priority: Priority,
    /// Hold delivery until this simulated time.
    pub deferred_until: Option<Timestamp>,
    /// Request a delivery report.
    pub report: bool,
}

/// The user-side facade: submits messages and reads the user's store.
///
/// A `UserAgent` owns no simulation state; it validates against the
/// user's home [`MtaNode`] inside the [`Sim`] passed to each call.
#[derive(Debug, Clone)]
pub struct UserAgent {
    address: OrAddress,
    user_node: NodeId,
    home_mta: NodeId,
    next_submission: u64,
}

impl UserAgent {
    /// Creates a user agent for `address`, sending from `user_node` via
    /// `home_mta`.
    pub fn new(address: OrAddress, user_node: NodeId, home_mta: NodeId) -> Self {
        UserAgent {
            address,
            user_node,
            home_mta,
            next_submission: 0,
        }
    }

    /// The user's address.
    pub fn address(&self) -> &OrAddress {
        &self.address
    }

    /// Submits a message; returns its MTS message id. The simulation is
    /// *not* driven — run it (or keep working) and the store-and-forward
    /// machinery delivers asynchronously, which is the point of the
    /// "different time" quadrants.
    pub fn submit(&mut self, sim: &mut Sim, ipm: Ipm, options: SubmitOptions) -> u64 {
        let message_id = ((self.user_node.as_raw() as u64) << 32) | self.next_submission;
        self.next_submission += 1;
        let recipients: Vec<OrAddress> = ipm.heading.recipients().cloned().collect();
        let mut envelope = Envelope::new(message_id, self.address.clone(), recipients, sim.now())
            .with_priority(options.priority);
        if let Some(t) = options.deferred_until {
            envelope = envelope.with_deferred_delivery(t);
        }
        if options.report {
            envelope = envelope.with_report();
        }
        let size = ipm.wire_size();
        sim.send_from(
            self.user_node,
            self.home_mta,
            Payload::new(MtsPdu::Transfer {
                envelope,
                ipm: Arc::new(ipm),
            }),
            size,
        );
        message_id
    }

    /// Convenience: submit and run the simulation until idle.
    pub fn submit_and_run(&mut self, sim: &mut Sim, ipm: Ipm, options: SubmitOptions) -> u64 {
        let id = self.submit(sim, ipm, options);
        sim.run_until_idle();
        id
    }

    /// Reads the user's inbox out of the home MTA.
    ///
    /// # Errors
    ///
    /// [`MtsError::UnknownRecipient`] when the home MTA has no mailbox
    /// for this user (or is not an MTA).
    pub fn inbox<'a>(&self, sim: &'a Sim) -> Result<&'a [crate::store::StoredMessage], MtsError> {
        sim.node::<MtaNode>(self.home_mta)
            .and_then(|mta| mta.mailbox(&self.address))
            .map(|s| s.inbox())
            .ok_or_else(|| MtsError::UnknownRecipient(self.address.to_string()))
    }

    /// Reads the user's delivery reports.
    ///
    /// # Errors
    ///
    /// As for [`UserAgent::inbox`].
    pub fn reports<'a>(&self, sim: &'a Sim) -> Result<&'a [DeliveryReport], MtsError> {
        sim.node::<MtaNode>(self.home_mta)
            .and_then(|mta| mta.mailbox(&self.address))
            .map(|s| s.reports())
            .ok_or_else(|| MtsError::UnknownRecipient(self.address.to_string()))
    }

    /// Reads the user's receipt notifications.
    ///
    /// # Errors
    ///
    /// As for [`UserAgent::inbox`].
    pub fn receipts<'a>(&self, sim: &'a Sim) -> Result<&'a [ReceiptNotification], MtsError> {
        sim.node::<MtaNode>(self.home_mta)
            .and_then(|mta| mta.mailbox(&self.address))
            .map(|s| s.receipts())
            .ok_or_else(|| MtsError::UnknownRecipient(self.address.to_string()))
    }

    /// Marks a message read and, when the originator asked for a receipt,
    /// emits a receipt notification back to them.
    ///
    /// # Errors
    ///
    /// [`MtsError::UnknownRecipient`] when the user or message is absent.
    pub fn mark_read(&self, sim: &mut Sim, message_id: u64) -> Result<(), MtsError> {
        let now = sim.now();
        let mta = sim
            .node_mut::<MtaNode>(self.home_mta)
            .ok_or_else(|| MtsError::Unavailable("home MTA not found".into()))?;
        let store = mta
            .mailbox_mut(&self.address)
            .ok_or_else(|| MtsError::UnknownRecipient(self.address.to_string()))?;
        let msg = store
            .mark_read(message_id)
            .ok_or_else(|| MtsError::UnknownRecipient(format!("message {message_id}")))?;
        let wants_receipt = msg.ipm.heading.receipt_requested;
        let originator = msg.ipm.heading.originator.clone();
        if wants_receipt {
            let receipt = ReceiptNotification {
                subject_message_id: message_id,
                recipient: self.address.clone(),
                at: now,
            };
            sim.send_from(
                self.user_node,
                self.home_mta,
                Payload::new(MtsPdu::Receipt {
                    to: originator,
                    receipt,
                    hops: 0,
                }),
                64,
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::BodyPart;
    use simnet::{LinkSpec, TopologyBuilder};

    fn addr(c: &str, o: &str, pn: &str) -> OrAddress {
        OrAddress::new(c, o, Vec::<String>::new(), pn).unwrap()
    }

    /// Two-MTA world: Lancaster (UK) and GMD (DE), one user at each.
    struct World {
        sim: Sim,
        tom: UserAgent,
        wolfgang: UserAgent,
    }

    fn world() -> World {
        let mut b = TopologyBuilder::new();
        let tom_ws = b.add_node("tom-ws");
        let wolfgang_ws = b.add_node("wolfgang-ws");
        let mta_uk = b.add_node("mta-uk");
        let mta_de = b.add_node("mta-de");
        b.full_mesh(LinkSpec::wan());
        let mut sim = Sim::new(b.build(), 17);

        let tom = addr("UK", "Lancaster", "Tom Rodden");
        let wolfgang = addr("DE", "GMD", "Wolfgang Prinz");

        let mut uk = MtaNode::new("mta-uk");
        uk.register_mailbox(tom.clone());
        uk.routing_mut().add_country_route("DE", mta_de);
        let mut de = MtaNode::new("mta-de");
        de.register_mailbox(wolfgang.clone());
        de.routing_mut().add_country_route("UK", mta_uk);

        sim.register(mta_uk, uk);
        sim.register(mta_de, de);

        World {
            sim,
            tom: UserAgent::new(tom, tom_ws, mta_uk),
            wolfgang: UserAgent::new(wolfgang, wolfgang_ws, mta_de),
        }
    }

    #[test]
    fn cross_mta_delivery() {
        let mut w = world();
        let ipm = Ipm::text(
            w.tom.address().clone(),
            w.wolfgang.address().clone(),
            "ODP paper",
            "Shall we write it?",
        );
        let id = w
            .tom
            .submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
        let inbox = w.wolfgang.inbox(&w.sim).unwrap();
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].message_id, id);
        assert_eq!(inbox[0].ipm.heading.subject, "ODP paper");
        assert!(w.sim.telemetry().counter(Layer::Messaging, "mts.forward") >= 1);
    }

    #[test]
    fn local_delivery_stays_on_one_mta() {
        let mut w = world();
        // Tom writes to himself.
        let ipm = Ipm::text(
            w.tom.address().clone(),
            w.tom.address().clone(),
            "note",
            "todo",
        );
        w.tom
            .submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
        assert_eq!(w.tom.inbox(&w.sim).unwrap().len(), 1);
        assert_eq!(
            w.sim.telemetry().counter(Layer::Messaging, "mts.forward"),
            0
        );
    }

    #[test]
    fn delivery_report_round_trip() {
        let mut w = world();
        let ipm = Ipm::text(
            w.tom.address().clone(),
            w.wolfgang.address().clone(),
            "with report",
            "x",
        );
        let id = w.tom.submit_and_run(
            &mut w.sim,
            ipm,
            SubmitOptions {
                report: true,
                ..Default::default()
            },
        );
        let reports = w.tom.reports(&w.sim).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].subject_message_id, id);
        assert!(reports[0].outcome.is_delivered());
    }

    #[test]
    fn unknown_recipient_bounces() {
        let mut w = world();
        let ghost = addr("DE", "GMD", "Nobody");
        let ipm = Ipm::text(w.tom.address().clone(), ghost, "hello?", "x");
        w.tom
            .submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
        let reports = w.tom.reports(&w.sim).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(matches!(
            reports[0].outcome,
            DeliveryOutcome::NonDelivery {
                reason: NonDeliveryReason::UnknownRecipient
            }
        ));
    }

    #[test]
    fn unroutable_domain_bounces_with_no_route() {
        let mut w = world();
        let lost = addr("FR", "INRIA", "Someone");
        let ipm = Ipm::text(w.tom.address().clone(), lost, "hello?", "x");
        w.tom
            .submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
        let reports = w.tom.reports(&w.sim).unwrap();
        assert!(matches!(
            reports[0].outcome,
            DeliveryOutcome::NonDelivery {
                reason: NonDeliveryReason::NoRoute
            }
        ));
    }

    #[test]
    fn urgent_beats_non_urgent_end_to_end() {
        // Two identical submissions, different priorities; measure.
        let mut w = world();
        let slow_ipm = Ipm::text(
            w.tom.address().clone(),
            w.wolfgang.address().clone(),
            "slow",
            "x",
        );
        let fast_ipm = Ipm::text(
            w.tom.address().clone(),
            w.wolfgang.address().clone(),
            "fast",
            "x",
        );
        w.tom.submit(
            &mut w.sim,
            slow_ipm,
            SubmitOptions {
                priority: Priority::NonUrgent,
                ..Default::default()
            },
        );
        w.tom.submit(
            &mut w.sim,
            fast_ipm,
            SubmitOptions {
                priority: Priority::Urgent,
                ..Default::default()
            },
        );
        w.sim.run_until_idle();
        let inbox = w.wolfgang.inbox(&w.sim).unwrap();
        assert_eq!(inbox.len(), 2);
        let fast = inbox
            .iter()
            .find(|m| m.ipm.heading.subject == "fast")
            .unwrap();
        let slow = inbox
            .iter()
            .find(|m| m.ipm.heading.subject == "slow")
            .unwrap();
        assert!(fast.delivered_at < slow.delivered_at);
    }

    #[test]
    fn deferred_delivery_waits() {
        let mut w = world();
        let ipm = Ipm::text(
            w.tom.address().clone(),
            w.wolfgang.address().clone(),
            "later",
            "x",
        );
        let defer_to = Timestamp::from_secs(3600);
        w.tom.submit_and_run(
            &mut w.sim,
            ipm,
            SubmitOptions {
                deferred_until: Some(defer_to),
                ..Default::default()
            },
        );
        let inbox = w.wolfgang.inbox(&w.sim).unwrap();
        assert_eq!(inbox.len(), 1);
        assert!(
            inbox[0].delivered_at >= defer_to,
            "{} < {defer_to}",
            inbox[0].delivered_at
        );
    }

    #[test]
    fn receipt_notification_flows_back_when_requested() {
        let mut w = world();
        let mut ipm = Ipm::text(
            w.tom.address().clone(),
            w.wolfgang.address().clone(),
            "rsvp",
            "x",
        );
        ipm.heading.receipt_requested = true;
        let id = w
            .tom
            .submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
        w.wolfgang.mark_read(&mut w.sim, id).unwrap();
        w.sim.run_until_idle();
        let receipts = w.tom.receipts(&w.sim).unwrap();
        assert_eq!(receipts.len(), 1);
        assert_eq!(receipts[0].subject_message_id, id);
        assert_eq!(receipts[0].recipient, *w.wolfgang.address());
    }

    #[test]
    fn no_receipt_when_not_requested() {
        let mut w = world();
        let ipm = Ipm::text(
            w.tom.address().clone(),
            w.wolfgang.address().clone(),
            "fyi",
            "x",
        );
        let id = w
            .tom
            .submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
        w.wolfgang.mark_read(&mut w.sim, id).unwrap();
        w.sim.run_until_idle();
        assert!(w.tom.receipts(&w.sim).unwrap().is_empty());
    }

    #[test]
    fn distribution_list_expands_to_members() {
        let mut w = world();
        // A DL at the UK MTA containing both users.
        let dl = addr("UK", "Lancaster", "mocca-project");
        let members = vec![w.tom.address().clone(), w.wolfgang.address().clone()];
        w.sim
            .node_mut::<MtaNode>(simnet::NodeId::from_raw(2))
            .unwrap()
            .register_dl(dl.clone(), members);
        let ipm = Ipm::text(w.tom.address().clone(), dl, "to the project", "hello all");
        w.tom
            .submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
        assert_eq!(w.tom.inbox(&w.sim).unwrap().len(), 1);
        assert_eq!(w.wolfgang.inbox(&w.sim).unwrap().len(), 1);
        assert_eq!(
            w.sim.telemetry().counter(Layer::Messaging, "mts.dl.expand"),
            1
        );
    }

    #[test]
    fn nested_dls_with_cycle_bounce_not_livelock() {
        let mut w = world();
        let dl_a = addr("UK", "Lancaster", "dl-a");
        let dl_b = addr("UK", "Lancaster", "dl-b");
        {
            let mta = w
                .sim
                .node_mut::<MtaNode>(simnet::NodeId::from_raw(2))
                .unwrap();
            mta.register_dl(dl_a.clone(), vec![dl_b.clone(), w.tom.address().clone()]);
            mta.register_dl(dl_b.clone(), vec![dl_a.clone()]);
        }
        let ipm = Ipm::text(w.tom.address().clone(), dl_a, "loop?", "x");
        w.tom
            .submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
        // Tom (a member of dl-a) still gets it; the dl-a→dl-b→dl-a cycle bounces.
        assert_eq!(w.tom.inbox(&w.sim).unwrap().len(), 1);
        let reports = w.tom.reports(&w.sim).unwrap();
        assert!(reports.iter().any(|r| matches!(
            r.outcome,
            DeliveryOutcome::NonDelivery {
                reason: NonDeliveryReason::DlLoop
            }
        )));
    }

    #[test]
    fn partition_prevents_transfer() {
        let mut w = world();
        let mta_uk = simnet::NodeId::from_raw(2);
        let mta_de = simnet::NodeId::from_raw(3);
        w.sim
            .apply_fault(simnet::FaultAction::Partition(vec![mta_uk], vec![mta_de]));
        let ipm = Ipm::text(
            w.tom.address().clone(),
            w.wolfgang.address().clone(),
            "lost",
            "x",
        );
        w.tom
            .submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
        assert!(w.wolfgang.inbox(&w.sim).unwrap().is_empty());
        assert!(
            w.sim
                .telemetry()
                .counter(Layer::Net, "net.dropped_partitioned")
                >= 1
        );
    }

    #[test]
    fn multipart_message_survives_transfer_intact() {
        let mut w = world();
        let mut ipm = Ipm::text(
            w.tom.address().clone(),
            w.wolfgang.address().clone(),
            "mixed",
            "cover note",
        );
        let (fax, _) = BodyPart::Text("diagram".into()).convert_to("fax").unwrap();
        ipm.body.push(fax);
        w.tom
            .submit_and_run(&mut w.sim, ipm.clone(), SubmitOptions::default());
        let got = &w.wolfgang.inbox(&w.sim).unwrap()[0].ipm;
        assert_eq!(got.body.len(), 2);
        assert_eq!(got.body[1].kind_name(), "fax");
        assert_eq!(**got, ipm);
    }

    #[test]
    fn multiple_recipients_split_and_all_receive() {
        let mut w = world();
        let mut ipm = Ipm::text(
            w.tom.address().clone(),
            w.wolfgang.address().clone(),
            "both",
            "x",
        );
        ipm.heading.cc.push(w.tom.address().clone());
        w.tom
            .submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
        assert_eq!(w.tom.inbox(&w.sim).unwrap().len(), 1);
        assert_eq!(w.wolfgang.inbox(&w.sim).unwrap().len(), 1);
    }

    #[test]
    fn local_recipients_share_one_copy_of_the_content() {
        let mut b = TopologyBuilder::new();
        let ws = b.add_node("ws");
        let mta = b.add_node("mta-de");
        b.full_mesh(LinkSpec::lan());
        let mut sim = Sim::new(b.build(), 3);
        let wolfgang = addr("DE", "GMD", "Wolfgang Prinz");
        let thomas = addr("DE", "GMD", "Thomas Kreifelts");
        let mut node = MtaNode::new("mta-de");
        node.register_mailbox(wolfgang.clone());
        node.register_mailbox(thomas.clone());
        sim.register(mta, node);

        let mut ipm = Ipm::text(wolfgang.clone(), thomas.clone(), "minutes", "attached");
        ipm.heading.cc.push(wolfgang.clone());
        let mut ua = UserAgent::new(wolfgang.clone(), ws, mta);
        ua.submit_and_run(&mut sim, ipm.clone(), SubmitOptions::default());

        let node = sim.node::<MtaNode>(mta).unwrap();
        let stored = |user: &OrAddress| node.mailbox(user).unwrap().inbox()[0].ipm.clone();
        let (a, b) = (stored(&wolfgang), stored(&thomas));
        assert!(Arc::ptr_eq(&a, &b), "both recipients share one body");
        assert_eq!(*a, ipm);
        assert_eq!(*b, ipm);
    }

    /// Like [`world`], but the UK→DE transfer link is a bottleneck:
    /// `bandwidth` bytes/sec with a zero-capacity egress queue, so any
    /// send issued while the wire is busy is shed immediately.
    fn congested_world(bandwidth: u64) -> World {
        let mut b = TopologyBuilder::new();
        let tom_ws = b.add_node("tom-ws");
        let wolfgang_ws = b.add_node("wolfgang-ws");
        let mta_uk = b.add_node("mta-uk");
        let mta_de = b.add_node("mta-de");
        b.link(tom_ws, mta_uk, LinkSpec::lan());
        b.link(
            mta_uk,
            mta_de,
            LinkSpec::fixed(10_000)
                .with_bandwidth(bandwidth)
                .with_queue_capacity_msgs(0),
        );
        b.link(mta_de, mta_uk, LinkSpec::lan());
        let mut sim = Sim::new(b.build(), 17);

        let tom = addr("UK", "Lancaster", "Tom Rodden");
        let wolfgang = addr("DE", "GMD", "Wolfgang Prinz");

        let mut uk = MtaNode::new("mta-uk");
        uk.register_mailbox(tom.clone());
        uk.routing_mut().add_country_route("DE", mta_de);
        let mut de = MtaNode::new("mta-de");
        de.register_mailbox(wolfgang.clone());
        de.routing_mut().add_country_route("UK", mta_uk);

        sim.register(mta_uk, uk);
        sim.register(mta_de, de);

        World {
            sim,
            tom: UserAgent::new(tom, tom_ws, mta_uk),
            wolfgang: UserAgent::new(wolfgang, wolfgang_ws, mta_de),
        }
    }

    #[test]
    fn congestion_shed_transfer_is_deferred_then_delivered() {
        // A 65-byte IPM over a 130 B/s wire occupies it for 500 ms.
        // Two simultaneous submissions: the second transfer is shed by
        // the zero-capacity queue, deferred, and the backoff retries
        // (at +100/+300/+700 ms) land once the wire frees at +500 ms.
        let mut w = congested_world(130);
        for subject in ["first", "second"] {
            let ipm = Ipm::text(
                w.tom.address().clone(),
                w.wolfgang.address().clone(),
                subject,
                "x",
            );
            w.tom.submit(&mut w.sim, ipm, SubmitOptions::default());
        }
        w.sim.run_until_idle();
        assert_eq!(w.wolfgang.inbox(&w.sim).unwrap().len(), 2);
        assert!(w.sim.telemetry().counter(Layer::Messaging, "mts.defer") >= 1);
        assert_eq!(
            w.sim
                .telemetry()
                .counter(Layer::Messaging, "mts.congestion_bounce"),
            0
        );
        assert!(w.tom.reports(&w.sim).unwrap().is_empty());
    }

    #[test]
    fn persistent_congestion_bounces_with_congestion_ndr() {
        // At 1 B/s the first transfer holds the wire for 65 s — far past
        // the last backoff retry — so the second exhausts its attempts
        // and bounces.
        let mut w = congested_world(1);
        for subject in ["hog", "victim"] {
            let ipm = Ipm::text(
                w.tom.address().clone(),
                w.wolfgang.address().clone(),
                subject,
                "x",
            );
            w.tom.submit(&mut w.sim, ipm, SubmitOptions::default());
        }
        w.sim.run_until_idle();
        // The wire-hogging first message still arrives eventually.
        assert_eq!(w.wolfgang.inbox(&w.sim).unwrap().len(), 1);
        assert_eq!(
            w.sim
                .telemetry()
                .counter(Layer::Messaging, "mts.congestion_bounce"),
            1
        );
        let reports = w.tom.reports(&w.sim).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(matches!(
            reports[0].outcome,
            DeliveryOutcome::NonDelivery {
                reason: NonDeliveryReason::Congestion
            }
        ));
    }

    #[test]
    fn end_to_end_latency_is_recorded() {
        let mut w = world();
        let ipm = Ipm::text(
            w.tom.address().clone(),
            w.wolfgang.address().clone(),
            "t",
            "x",
        );
        w.tom
            .submit_and_run(&mut w.sim, ipm, SubmitOptions::default());
        let h = w
            .sim
            .telemetry()
            .histogram(Layer::Messaging, "mts.end_to_end")
            .unwrap();
        assert_eq!(h.count, 1);
        // Store-and-forward must cost at least the two processing delays.
        assert!(h.min_micros >= 100_000);
    }
}
