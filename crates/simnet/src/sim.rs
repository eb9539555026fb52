//! The discrete-event simulator driver.
//!
//! A [`Sim`] owns a [`Topology`], a set of node behaviours implementing
//! [`Node`], and a time-ordered event queue. Execution is strictly
//! deterministic: events fire in `(time, enqueue-sequence)` order and all
//! randomness flows from one seed.
//!
//! # Delivery model
//!
//! For a message of `size` bytes sent at `t` over link `l`:
//!
//! 1. if `l`'s wire is idle and its egress queue empty, the message
//!    starts serialising immediately; otherwise it enters the bounded
//!    egress queue, where the link's
//!    [`QueueDiscipline`](crate::QueueDiscipline) decides admission
//!    (over capacity the message is shed with
//!    [`DropReason::QueueFull`]) and dequeue order. The sender sees
//!    which happened via [`SendOutcome`];
//! 2. serialisation takes [`crate::LinkSpec::transmission_delay`]; the
//!    wire carries one message at a time, so queued messages drain in
//!    discipline order as it frees;
//! 3. the message propagates for `latency + U[0, jitter]`;
//! 4. delivery is clamped to be no earlier than the previous delivery
//!    on the same link — **links are FIFO**, modelling the connection-
//!    oriented OSI transports of the paper's era;
//! 5. it may be dropped: at *send* time if the sender is crashed, no
//!    link exists, or the egress queue sheds it; on the *wire* by the
//!    link's loss probability (the lost message still occupied the
//!    wire, but later deliveries are not delayed behind the arrival
//!    that never happens); and at *delivery* time if the pair is
//!    partitioned or the destination is down. Messages in flight when
//!    a partition starts are therefore lost, like a broken connection
//!    — but bits already propagating survive a *sender* crash (they
//!    have left the host; only its queued egress buffers die with it).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cscw_kernel::{Clock, EventQueue, Layer, SeededRng, SpanContext, Telemetry, Timestamp};

use crate::id::{MessageId, NodeId, TimerId};
use crate::payload::Payload;
use crate::topology::{LinkSpec, QueueDiscipline, Topology};

/// Simulated size assumed by [`NodeCtx::send`] when the caller does not
/// care about bandwidth effects.
pub const DEFAULT_MESSAGE_SIZE: u64 = 128;

/// A message as seen by its receiver.
#[derive(Debug)]
pub struct Message {
    /// Unique id of this send.
    pub id: MessageId,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Simulated wire size in bytes.
    pub size: u64,
    /// When the sender handed the message to the network.
    pub sent_at: Timestamp,
    /// The trace context this send belongs to, if the sender was inside
    /// one — delivery resumes it, so a message delivered long after the
    /// originating call still lands in the right span tree.
    pub span: Option<SpanContext>,
    /// The payload; downcast to the protocol type.
    pub payload: Payload,
}

/// Behaviour attached to a node.
///
/// Handlers run to completion at a single instant of simulated time; any
/// sends or timers they issue are scheduled strictly afterwards, so there
/// is no intra-handler concurrency to reason about.
pub trait Node: std::any::Any {
    /// Called once when the simulation starts (before any message).
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }

    /// Called for each delivered message.
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message);

    /// Called when a timer armed with [`NodeCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerId, tag: u64) {
        let _ = (ctx, timer, tag);
    }

    /// Called when the node comes back up after a
    /// [`FaultAction::Restart`]. Timers that would have fired while the
    /// node was down are *not* replayed (a crash loses the volatile
    /// clock); behaviours with durable queues re-arm them here, the way
    /// a store-and-forward MTA recovers its disk queue.
    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }
}

/// What happened to a send at the network boundary, as seen by the
/// sender — the backpressure signal bounded link queues feed upward so
/// higher layers can defer, shrink, or fail fast under congestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message went straight onto an idle wire.
    Accepted {
        /// The send's message id.
        id: MessageId,
    },
    /// The wire was busy; the message waits in the link's egress queue.
    Queued {
        /// The send's message id.
        id: MessageId,
        /// Queue depth including this message — a congestion signal.
        depth: usize,
    },
    /// The message was shed before reaching the wire (queue full,
    /// sender down, or no usable route); it will never deliver.
    Shed {
        /// The send's message id.
        id: MessageId,
    },
}

impl SendOutcome {
    /// The message id, regardless of outcome.
    pub fn id(&self) -> MessageId {
        match *self {
            SendOutcome::Accepted { id }
            | SendOutcome::Queued { id, .. }
            | SendOutcome::Shed { id } => id,
        }
    }

    /// True when the message will never deliver.
    pub fn is_shed(&self) -> bool {
        matches!(self, SendOutcome::Shed { .. })
    }
}

/// Why a message failed to deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No link exists between the endpoints.
    NoRoute,
    /// The endpoints are currently partitioned.
    Partitioned,
    /// The destination (or source) node is crashed.
    NodeDown,
    /// Random loss on the link.
    Loss,
    /// The link's bounded egress queue refused the message (congestion).
    QueueFull,
}

impl DropReason {
    /// The [`Layer::Net`] counter that tallies drops for this reason.
    pub fn counter(self) -> &'static str {
        match self {
            DropReason::NoRoute => "net.dropped_no_route",
            DropReason::Partitioned => "net.dropped_partitioned",
            DropReason::NodeDown => "net.dropped_node_down",
            DropReason::Loss => "net.dropped_loss",
            DropReason::QueueFull => "net.dropped_queue_full",
        }
    }
}

/// A scheduled environmental fault.
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Sever traffic between two groups.
    Partition(Vec<NodeId>, Vec<NodeId>),
    /// Restore traffic between two groups.
    Heal(Vec<NodeId>, Vec<NodeId>),
    /// Restore all traffic.
    HealAll,
    /// Crash a node (drops all its traffic until restart).
    Crash(NodeId),
    /// Restart a crashed node.
    Restart(NodeId),
}

enum EventKind {
    Deliver(Message),
    Timer {
        node: NodeId,
        timer: TimerId,
        tag: u64,
    },
    Fault(FaultAction),
    /// The wire `from -> to` frees up: dequeue the next waiting
    /// message (per discipline) and put it on the wire.
    LinkReady {
        from: NodeId,
        to: NodeId,
    },
}

/// One message waiting in a link's egress queue.
struct Waiter {
    class: u8,
    msg: Message,
}

/// Per-directed-link egress queue state.
///
/// Invariant: whenever `waiting` is non-empty there is exactly one
/// `LinkReady` event scheduled for the link; `draining` tracks it.
#[derive(Default)]
struct LinkQueue {
    waiting: VecDeque<Waiter>,
    queued_bytes: u64,
    draining: bool,
}

/// A periodic timer's recurrence: how to re-arm it each time it fires.
#[derive(Debug, Clone, Copy)]
struct PeriodicSpec {
    period_micros: u64,
    jitter_micros: u64,
}

/// Everything a node handler may touch while running.
pub struct NodeCtx<'a> {
    core: &'a mut Core,
    node: NodeId,
}

impl NodeCtx<'_> {
    /// The current simulation time.
    pub fn now(&self) -> Timestamp {
        self.core.queue.now()
    }

    /// The id of the node this handler belongs to.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The trace name of this node.
    pub fn name(&self) -> &str {
        self.core.topology.node_name(self.node)
    }

    /// Sends a payload with [`DEFAULT_MESSAGE_SIZE`].
    pub fn send(&mut self, to: NodeId, payload: Payload) -> MessageId {
        self.send_sized(to, payload, DEFAULT_MESSAGE_SIZE).id()
    }

    /// Sends a payload with an explicit simulated size. The returned
    /// [`SendOutcome`] tells the sender whether the message reached the
    /// wire, queued behind it, or was shed by a bounded egress queue.
    pub fn send_sized(&mut self, to: NodeId, payload: Payload, size: u64) -> SendOutcome {
        self.core.enqueue_send(self.node, to, payload, size, 0)
    }

    /// Sends a payload with an explicit size and transmit class. The
    /// class only matters on links with a
    /// [`Priority`](crate::QueueDiscipline::Priority) discipline, where
    /// class 0 dequeues first.
    pub fn send_classed(
        &mut self,
        to: NodeId,
        payload: Payload,
        size: u64,
        class: u8,
    ) -> SendOutcome {
        self.core.enqueue_send(self.node, to, payload, size, class)
    }

    /// Arms a one-shot timer `delay_micros` from now; `tag` is echoed
    /// to [`Node::on_timer`].
    pub fn set_timer(&mut self, delay_micros: u64, tag: u64) -> TimerId {
        self.core.set_timer(self.node, delay_micros, tag)
    }

    /// Arms a periodic timer firing every `period_micros` from now; `tag` is
    /// echoed to [`Node::on_timer`] on every firing. The timer re-arms
    /// itself after each firing until cancelled — the node behaves as
    /// an autonomous channel rather than waiting for an external
    /// driver. A crash silences it (the volatile clock is lost);
    /// [`Node::on_restart`] is the place to re-arm.
    pub fn set_periodic_timer(&mut self, period_micros: u64, tag: u64) -> TimerId {
        self.set_periodic_timer_jittered(period_micros, 0, tag)
    }

    /// Arms a periodic timer whose inter-fire delay is
    /// `period_micros + U[0, jitter_micros]`, drawn from this node's
    /// private seeded stream — N peers on the same period de-phase
    /// deterministically.
    pub fn set_periodic_timer_jittered(
        &mut self,
        period_micros: u64,
        jitter_micros: u64,
        tag: u64,
    ) -> TimerId {
        let spec = PeriodicSpec {
            period_micros,
            jitter_micros,
        };
        self.core.set_periodic_timer(self.node, spec, tag)
    }

    /// Cancels a pending timer (one-shot or periodic). Cancelling an
    /// already-fired or unknown timer is a no-op.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        // Only a still-pending timer needs a cancellation marker; the
        // marker is consumed by the firing it suppresses, so marking an
        // already-fired id would leak it forever.
        if self.core.pending_timers.remove(&timer) {
            self.core.cancelled_timers.insert(timer);
        }
        self.core.periodic_timers.remove(&timer);
    }

    /// This node's private deterministic random stream.
    pub fn rng(&mut self) -> &mut SeededRng {
        &mut self.core.node_rngs[self.node.index()]
    }

    /// The simulation's layer-tagged telemetry stream (see
    /// [`Sim::telemetry`]). Node behaviours record their own layer's
    /// counters and events here, beside the Net ones the simulator
    /// writes.
    pub fn telemetry(&self) -> &Telemetry {
        &self.core.telemetry
    }

    /// Current simulation time in microseconds, for telemetry
    /// timestamps.
    pub fn now_micros(&self) -> u64 {
        self.core.now().as_micros()
    }

    /// Read-only view of the topology (e.g. to enumerate neighbours).
    pub fn topology(&self) -> &Topology {
        &self.core.topology
    }
}

struct Core {
    topology: Topology,
    /// The kernel's deterministic scheduler: `simnet`'s event loop is a
    /// client of the same `(time, sequence)`-ordered queue the layers
    /// above use for their own scheduled behaviour. Its `now()` is the
    /// simulation's one clock.
    queue: EventQueue<EventKind>,
    next_msg: u64,
    next_timer: u64,
    cancelled_timers: BTreeSet<TimerId>,
    /// Timers armed but not yet fired; bounds `cancelled_timers` — only
    /// ids in here can enter the cancelled set.
    pending_timers: BTreeSet<TimerId>,
    periodic_timers: BTreeMap<TimerId, (NodeId, u64, PeriodicSpec)>,
    link_busy_until: BTreeMap<(NodeId, NodeId), Timestamp>,
    link_last_delivery: BTreeMap<(NodeId, NodeId), Timestamp>,
    link_queues: BTreeMap<(NodeId, NodeId), LinkQueue>,
    rng: SeededRng,
    node_rngs: Vec<SeededRng>,
    telemetry: Telemetry,
}

impl Core {
    fn now(&self) -> Timestamp {
        self.queue.now()
    }

    fn set_timer(&mut self, node: NodeId, delay_micros: u64, tag: u64) -> TimerId {
        let timer = TimerId(self.next_timer);
        self.next_timer += 1;
        self.pending_timers.insert(timer);
        self.queue
            .schedule_after(delay_micros, EventKind::Timer { node, timer, tag });
        timer
    }

    /// Draws this spec's next inter-fire delay: the period plus a fresh
    /// uniform jitter from the node's private stream.
    fn periodic_delay(&mut self, node: NodeId, spec: PeriodicSpec) -> u64 {
        if spec.jitter_micros == 0 {
            return spec.period_micros;
        }
        spec.period_micros + self.node_rngs[node.index()].below(spec.jitter_micros + 1)
    }

    fn set_periodic_timer(&mut self, node: NodeId, spec: PeriodicSpec, tag: u64) -> TimerId {
        let timer = TimerId(self.next_timer);
        self.next_timer += 1;
        self.pending_timers.insert(timer);
        self.periodic_timers.insert(timer, (node, tag, spec));
        let delay = self.periodic_delay(node, spec);
        self.queue
            .schedule_after(delay, EventKind::Timer { node, timer, tag });
        timer
    }

    fn enqueue_send(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: Payload,
        size: u64,
        class: u8,
    ) -> SendOutcome {
        let id = MessageId(self.next_msg);
        self.next_msg += 1;
        let t = &self.telemetry;
        // If the sender is inside a traced operation, this send gets a
        // Net-layer span of its own, and the message carries its
        // context so the (possibly much later) delivery parents on it.
        let now = self.now();
        let span = t.current_context().map(|_| {
            let s = t.span_begin(Layer::Net, "net.send", now.as_micros());
            t.span_end(s, now.as_micros());
            s
        });
        t.incr(Layer::Net, "net.sent");
        t.emit(
            now.as_micros(),
            Layer::Net,
            "net.send",
            format_args!(
                "{} -> {} {} ({size}B)",
                self.topology.node_name(from),
                self.topology.node_name(to),
                payload.type_label(),
            ),
        );

        // A crashed host's bits never reach the wire: sends from a down
        // node are shed at source.
        if self.topology.is_down(from) {
            self.drop_message(id, DropReason::NodeDown);
            return SendOutcome::Shed { id };
        }

        let msg = Message {
            id,
            from,
            to,
            size,
            sent_at: now,
            span,
            payload,
        };

        // Local delivery: no link involved, zero latency.
        if from == to {
            self.queue.schedule(now, EventKind::Deliver(msg));
            return SendOutcome::Accepted { id };
        }

        let Some(spec) = self.topology.link(from, to).copied() else {
            self.drop_message(id, DropReason::NoRoute);
            return SendOutcome::Shed { id };
        };
        if spec.transmission_delay(size) == u64::MAX {
            // Zero-bandwidth link: the message never gets onto the wire.
            self.drop_message(id, DropReason::NoRoute);
            return SendOutcome::Shed { id };
        }

        let key = (from, to);
        let busy_until = self
            .link_busy_until
            .get(&key)
            .copied()
            .unwrap_or(Timestamp::ZERO);
        let queue_empty = self
            .link_queues
            .get(&key)
            .is_none_or(|q| q.waiting.is_empty());
        if queue_empty && busy_until <= now {
            // Wire idle, nothing waiting: straight onto the wire.
            self.transmit(key, &spec, msg);
            return SendOutcome::Accepted { id };
        }
        self.admit(key, &spec, msg, class)
    }

    /// Puts `msg` on the wire (which must be free no later than `now`):
    /// occupies it for the transmission delay, draws jitter and loss,
    /// applies the FIFO clamp, and schedules delivery.
    fn transmit(&mut self, key: (NodeId, NodeId), spec: &LinkSpec, msg: Message) {
        let start = self.now().max(
            self.link_busy_until
                .get(&key)
                .copied()
                .unwrap_or(Timestamp::ZERO),
        );
        let wire_free = start + spec.transmission_delay(msg.size);
        self.link_busy_until.insert(key, wire_free);

        let jitter = if spec.jitter_micros == 0 {
            0
        } else {
            self.rng.below(spec.jitter_micros + 1)
        };

        // Loss draws *before* the FIFO clamp registers: a lost message
        // really occupied the wire (`link_busy_until` stands), but later
        // deliveries must not wait behind an arrival that never happens.
        if spec.loss_probability > 0.0 && self.rng.chance(spec.loss_probability) {
            self.drop_message(msg.id, DropReason::Loss);
            return;
        }

        // FIFO clamp: never deliver before an earlier message on this link.
        let last = self
            .link_last_delivery
            .get(&key)
            .copied()
            .unwrap_or(Timestamp::ZERO);
        let deliver_at = (wire_free + spec.latency_micros + jitter).max(last);
        self.link_last_delivery.insert(key, deliver_at);
        self.queue.schedule(deliver_at, EventKind::Deliver(msg));
    }

    /// Admits `msg` to the link's bounded egress queue (the wire is
    /// busy or others are already waiting), applying the discipline's
    /// early-drop, overflow, and eviction rules.
    fn admit(
        &mut self,
        key: (NodeId, NodeId),
        spec: &LinkSpec,
        msg: Message,
        class: u8,
    ) -> SendOutcome {
        let id = msg.id;
        let size = msg.size;

        // Random early drop (Lossy discipline) sheds contended arrivals
        // with probability `p` even while capacity remains.
        if let QueueDiscipline::Lossy { p } = spec.discipline {
            if p > 0.0 && self.rng.chance(p) {
                self.drop_message(id, DropReason::QueueFull);
                return SendOutcome::Shed { id };
            }
        }
        let class = match spec.discipline {
            QueueDiscipline::Priority { classes } => class.min(classes.saturating_sub(1)),
            _ => class,
        };

        let cap_msgs = spec.queue_capacity_msgs.map(|c| c as usize);
        let cap_bytes = spec.queue_capacity_bytes;
        let mut evicted: Vec<MessageId> = Vec::new();
        let (admitted, depth) = {
            let q = self.link_queues.entry(key).or_default();
            loop {
                let over = cap_msgs.is_some_and(|c| q.waiting.len() >= c)
                    || cap_bytes.is_some_and(|c| q.queued_bytes + size > c);
                if !over {
                    q.waiting.push_back(Waiter { class, msg });
                    q.queued_bytes += size;
                    break (true, q.waiting.len());
                }
                // Overflow. Under Priority the arrival may displace the
                // rear-most waiter of the numerically largest (worst)
                // class, provided the arrival outranks it; otherwise
                // the arrival itself is shed.
                let mut victim: Option<(usize, u8)> = None;
                if matches!(spec.discipline, QueueDiscipline::Priority { .. }) {
                    for (i, w) in q.waiting.iter().enumerate() {
                        if w.class > class && victim.is_none_or(|(_, c)| w.class >= c) {
                            victim = Some((i, w.class));
                        }
                    }
                }
                let Some(w) = victim.and_then(|(i, _)| q.waiting.remove(i)) else {
                    break (false, q.waiting.len());
                };
                q.queued_bytes = q.queued_bytes.saturating_sub(w.msg.size);
                evicted.push(w.msg.id);
            }
        };
        for v in evicted {
            self.drop_message(v, DropReason::QueueFull);
        }
        if !admitted {
            self.drop_message(id, DropReason::QueueFull);
            return SendOutcome::Shed { id };
        }

        self.telemetry.incr(Layer::Net, "net.queued");
        self.telemetry
            .record_micros(Layer::Net, "net.queue_depth", depth as u64);
        // Keep the invariant: a non-empty queue always has exactly one
        // LinkReady scheduled for the instant the wire frees.
        let busy_until = self
            .link_busy_until
            .get(&key)
            .copied()
            .unwrap_or(Timestamp::ZERO);
        let at = self.now().max(busy_until);
        let needs_drain = self
            .link_queues
            .get_mut(&key)
            .is_some_and(|q| !std::mem::replace(&mut q.draining, true));
        if needs_drain {
            self.queue.schedule(
                at,
                EventKind::LinkReady {
                    from: key.0,
                    to: key.1,
                },
            );
        }
        SendOutcome::Queued { id, depth }
    }

    /// Handles a `LinkReady` event: the wire `from -> to` is free, so
    /// the discipline picks the next waiter and transmits it.
    fn link_ready(&mut self, from: NodeId, to: NodeId) {
        let key = (from, to);
        let Some(spec) = self.topology.link(from, to).copied() else {
            return;
        };
        let Some(q) = self.link_queues.get_mut(&key) else {
            return;
        };
        let idx = match spec.discipline {
            // Lowest class value first, FIFO within a class.
            QueueDiscipline::Priority { .. } => {
                let mut best = 0usize;
                let mut best_class = u8::MAX;
                for (i, w) in q.waiting.iter().enumerate() {
                    if w.class < best_class {
                        best_class = w.class;
                        best = i;
                    }
                }
                best
            }
            _ => 0,
        };
        let Some(w) = q.waiting.remove(idx) else {
            q.draining = false;
            return;
        };
        q.queued_bytes = q.queued_bytes.saturating_sub(w.msg.size);
        let more = !q.waiting.is_empty();
        q.draining = more;
        self.transmit(key, &spec, w.msg);
        if more {
            let at = self
                .link_busy_until
                .get(&key)
                .copied()
                .unwrap_or(self.now());
            self.queue.schedule(at, EventKind::LinkReady { from, to });
        }
    }

    /// A crash loses the NIC's egress buffers: every message queued on
    /// the node's out-links is dropped. `draining` flags are left as
    /// they are — already-scheduled `LinkReady` events fire on empty
    /// queues and settle them.
    fn clear_egress_queues(&mut self, node: NodeId) {
        let mut victims = Vec::new();
        for (key, q) in self.link_queues.iter_mut() {
            if key.0 != node {
                continue;
            }
            while let Some(w) = q.waiting.pop_front() {
                victims.push(w.msg.id);
            }
            q.queued_bytes = 0;
        }
        for id in victims {
            self.drop_message(id, DropReason::NodeDown);
        }
    }

    fn drop_message(&mut self, id: MessageId, reason: DropReason) {
        let t = &self.telemetry;
        t.incr(Layer::Net, "net.dropped");
        t.incr(Layer::Net, reason.counter());
        t.emit(
            self.now().as_micros(),
            Layer::Net,
            "net.drop",
            format_args!("{id:?} {reason:?}"),
        );
    }

    fn apply_fault(&mut self, action: FaultAction) {
        match &action {
            FaultAction::Partition(a, b) => self.topology.partition(a, b),
            FaultAction::Heal(a, b) => self.topology.heal(a, b),
            FaultAction::HealAll => self.topology.heal_all(),
            FaultAction::Crash(n) => {
                self.topology.crash_node(*n);
                self.clear_egress_queues(*n);
            }
            FaultAction::Restart(n) => self.topology.restart_node(*n),
        }
        self.telemetry.incr(Layer::Net, "net.faults");
        self.telemetry.emit(
            self.now().as_micros(),
            Layer::Net,
            "net.fault",
            format_args!("{action:?}"),
        );
    }
}

/// The simulator.
///
/// # Examples
///
/// ```
/// use simnet::*;
///
/// struct Echo;
/// impl Node for Echo {
///     fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
///         let n = msg.payload.downcast::<u32>().expect("protocol");
///         ctx.send(msg.from, Payload::new(n + 1));
///     }
/// }
///
/// struct Client {
///     got: Option<u32>,
/// }
/// impl Node for Client {
///     fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, msg: Message) {
///         self.got = msg.payload.downcast::<u32>().ok();
///     }
/// }
///
/// let mut b = TopologyBuilder::new();
/// let c = b.add_node("client");
/// let s = b.add_node("server");
/// b.link_both(c, s, LinkSpec::lan());
/// let mut sim = Sim::new(b.build(), 1);
/// sim.register(s, Echo);
/// sim.register(c, Client { got: None });
/// sim.send_from(c, s, Payload::new(41u32), 16);
/// sim.run_until_idle();
/// assert_eq!(sim.node::<Client>(c).unwrap().got, Some(42));
/// ```
pub struct Sim {
    core: Core,
    nodes: Vec<Option<Box<dyn Node>>>,
    started: bool,
}

impl Sim {
    /// Creates a simulator over `topology`, seeding all randomness from
    /// `seed`.
    pub fn new(topology: Topology, seed: u64) -> Self {
        let n = topology.node_count();
        let mut rng = SeededRng::seed_from(seed);
        let node_rngs = (0..n).map(|_| rng.fork()).collect();
        Sim {
            core: Core {
                topology,
                queue: EventQueue::new(),
                next_msg: 0,
                next_timer: 0,
                cancelled_timers: BTreeSet::new(),
                pending_timers: BTreeSet::new(),
                periodic_timers: BTreeMap::new(),
                link_busy_until: BTreeMap::new(),
                link_last_delivery: BTreeMap::new(),
                link_queues: BTreeMap::new(),
                rng,
                node_rngs,
                telemetry: Telemetry::new(),
            },
            nodes: (0..n).map(|_| None).collect(),
            started: false,
        }
    }

    /// Attaches behaviour to a node, replacing any previous behaviour.
    ///
    /// Nodes without behaviour silently drop deliveries (counted in the
    /// `net.unhandled` counter), which suits pure traffic sinks.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this simulator's topology.
    pub fn register<N: Node>(&mut self, id: NodeId, node: N) {
        assert!(id.index() < self.nodes.len(), "unknown node id");
        self.nodes[id.index()] = Some(Box::new(node));
    }

    /// Borrows a node's behaviour, if it is registered and of type `N`.
    pub fn node<N: Node>(&self, id: NodeId) -> Option<&N> {
        self.nodes
            .get(id.index())
            .and_then(|slot| slot.as_deref())
            .and_then(|n| (n as &dyn std::any::Any).downcast_ref::<N>())
    }

    /// Mutably borrows a node's behaviour, if registered and of type `N`.
    pub fn node_mut<N: Node>(&mut self, id: NodeId) -> Option<&mut N> {
        self.nodes
            .get_mut(id.index())
            .and_then(|slot| slot.as_deref_mut())
            .and_then(|n| (n as &mut dyn std::any::Any).downcast_mut::<N>())
    }

    /// Sends a message "from the outside", as if `from` had sent it.
    pub fn send_from(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: Payload,
        size: u64,
    ) -> MessageId {
        self.core.enqueue_send(from, to, payload, size, 0).id()
    }

    /// Like [`Sim::send_from`], but with an explicit transmit class and
    /// the full [`SendOutcome`] so harnesses can observe backpressure.
    pub fn send_from_classed(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: Payload,
        size: u64,
        class: u8,
    ) -> SendOutcome {
        self.core.enqueue_send(from, to, payload, size, class)
    }

    /// Schedules a fault to occur at `at`.
    pub fn schedule_fault(&mut self, at: Timestamp, action: FaultAction) {
        self.core.queue.schedule(at, EventKind::Fault(action));
    }

    /// Applies a fault immediately.
    pub fn apply_fault(&mut self, action: FaultAction) {
        self.handle_fault(action);
    }

    /// Applies a fault, notifying a restarted node's behaviour so it can
    /// recover durable state (see [`Node::on_restart`]).
    fn handle_fault(&mut self, action: FaultAction) {
        let restarted = match &action {
            FaultAction::Restart(n) => Some(*n),
            _ => None,
        };
        self.core.apply_fault(action);
        if let Some(node) = restarted {
            if let Some(mut behaviour) = self.nodes[node.index()].take() {
                let mut ctx = NodeCtx {
                    core: &mut self.core,
                    node,
                };
                behaviour.on_restart(&mut ctx);
                self.nodes[node.index()] = Some(behaviour);
            }
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Timestamp {
        self.core.now()
    }

    /// The simulator's own Net counters under their historical names,
    /// read-only — see [`NetCounters`]. New code reads
    /// [`Sim::telemetry`] instead.
    pub fn metrics(&self) -> NetCounters<'_> {
        NetCounters(&self.core.telemetry)
    }

    /// Replaces the simulation's telemetry stream, typically with a
    /// clone of one shared with the layers above, so one operation's
    /// Net activity lands in the same stream as its callers'. Counts
    /// already written to the old stream stay there.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.core.telemetry = telemetry;
    }

    /// The one stream everything in the simulation writes to: the
    /// simulator's [`Layer::Net`] counters (`net.sent`,
    /// `net.delivered`, `net.queued`, `net.dropped` plus one
    /// `net.dropped_<reason>` per [`DropReason`], `net.faults`,
    /// `net.unhandled`), histograms and events, and whatever node
    /// behaviours record through [`NodeCtx::telemetry`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.core.telemetry
    }

    /// The topology (for inspection or direct fault injection).
    pub fn topology(&self) -> &Topology {
        &self.core.topology
    }

    /// Mutable topology access for unscheduled manipulation between runs.
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.core.topology
    }

    /// Number of events waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.core.queue.len()
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for idx in 0..self.nodes.len() {
            let id = NodeId(idx as u32);
            if let Some(mut node) = self.nodes[idx].take() {
                let mut ctx = NodeCtx {
                    core: &mut self.core,
                    node: id,
                };
                node.on_start(&mut ctx);
                self.nodes[idx] = Some(node);
            }
        }
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let Some((_, kind)) = self.core.queue.pop() else {
            return false;
        };
        match kind {
            EventKind::Fault(action) => self.handle_fault(action),
            EventKind::LinkReady { from, to } => self.core.link_ready(from, to),
            EventKind::Timer { node, timer, tag } => {
                if self.core.cancelled_timers.remove(&timer) {
                    self.core.periodic_timers.remove(&timer);
                    return true;
                }
                self.core.pending_timers.remove(&timer);
                if self.core.topology.is_down(node) {
                    // A crash loses the volatile clock: periodic timers
                    // stop recurring until `on_restart` re-arms them.
                    self.core.periodic_timers.remove(&timer);
                    return true;
                }
                // Periodic timers re-arm themselves before dispatch, so
                // a handler that cancels its own timer wins the race.
                if let Some(&(_, _, spec)) = self.core.periodic_timers.get(&timer) {
                    let delay = self.core.periodic_delay(node, spec);
                    self.core.pending_timers.insert(timer);
                    self.core
                        .queue
                        .schedule_after(delay, EventKind::Timer { node, timer, tag });
                }
                if let Some(mut behaviour) = self.nodes[node.index()].take() {
                    let mut ctx = NodeCtx {
                        core: &mut self.core,
                        node,
                    };
                    behaviour.on_timer(&mut ctx, timer, tag);
                    self.nodes[node.index()] = Some(behaviour);
                }
            }
            EventKind::Deliver(msg) => {
                let (from, to, id) = (msg.from, msg.to, msg.id);
                // Only the *destination* being down kills an arriving
                // message: bits already propagating survive a sender
                // crash (sends from a down node were shed at source).
                if self.core.topology.is_down(to) {
                    self.core.drop_message(id, DropReason::NodeDown);
                    return true;
                }
                if from != to && self.core.topology.is_partitioned(from, to) {
                    self.core.drop_message(id, DropReason::Partitioned);
                    return true;
                }
                let now = self.core.now();
                let t = &self.core.telemetry;
                t.incr(Layer::Net, "net.delivered");
                t.record_micros(Layer::Net, "net.delivery_latency", now - msg.sent_at);
                let now = now.as_micros();
                t.emit(
                    now,
                    Layer::Net,
                    "net.deliver",
                    format_args!(
                        "{} -> {} {}",
                        self.core.topology.node_name(from),
                        self.core.topology.node_name(to),
                        msg.payload.type_label(),
                    ),
                );
                // Resume the sender's trace for the delivery: the
                // receiving handler's own emissions nest under this
                // span even when delivery runs long after the send.
                let deliver_span = msg
                    .span
                    .map(|parent| t.span_begin_with_parent(parent, Layer::Net, "net.deliver", now));
                if let Some(mut behaviour) = self.nodes[to.index()].take() {
                    let mut ctx = NodeCtx {
                        core: &mut self.core,
                        node: to,
                    };
                    behaviour.on_message(&mut ctx, msg);
                    self.nodes[to.index()] = Some(behaviour);
                } else {
                    self.core.telemetry.incr(Layer::Net, "net.unhandled");
                }
                if let Some(s) = deliver_span {
                    self.core.telemetry.span_end(s, self.core.now().as_micros());
                }
            }
        }
        true
    }

    /// Runs until the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics after 100 million events as a runaway-loop backstop; use
    /// [`Sim::run_with_budget`] for workloads that legitimately exceed it.
    pub fn run_until_idle(&mut self) {
        let mut budget: u64 = 100_000_000;
        while self.step() {
            budget -= 1;
            assert!(
                budget > 0,
                "run_until_idle exceeded event budget; livelock?"
            );
        }
    }

    /// Processes at most `max_events` events; returns how many ran.
    pub fn run_with_budget(&mut self, max_events: u64) -> u64 {
        let mut ran = 0;
        while ran < max_events && self.step() {
            ran += 1;
        }
        ran
    }

    /// Runs until simulated time reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue empties.
    pub fn run_until(&mut self, deadline: Timestamp) {
        self.start_if_needed();
        while self.core.queue.peek_at().is_some_and(|at| at <= deadline) {
            self.step();
        }
        self.core.queue.advance_to(deadline);
    }
}

/// The simulator is its own kernel [`Clock`]: it reads the event
/// queue's `now`, so a platform over simulated time needs no second
/// copy of it.
impl Clock for Sim {
    fn now_micros(&self) -> u64 {
        self.core.now().as_micros()
    }
}

/// A read-only view of a [`Sim`]'s [`Layer::Net`] counters under the
/// names simnet used before it wrote only to kernel telemetry. Kept so
/// existing readers of [`Sim::metrics`] keep working; every name maps
/// onto one `net.*` counter, and unknown names read 0.
#[derive(Debug, Clone, Copy)]
pub struct NetCounters<'a>(&'a Telemetry);

impl NetCounters<'_> {
    /// Reads a counter by its historical name.
    pub fn counter(&self, name: &str) -> u64 {
        let net = match name {
            "messages_sent" => "net.sent",
            "messages_delivered" => "net.delivered",
            "messages_dropped" => "net.dropped",
            "messages_queued" => "net.queued",
            "faults_applied" => "net.faults",
            "delivered_unhandled" => "net.unhandled",
            "dropped_no_route" => DropReason::NoRoute.counter(),
            "dropped_partitioned" => DropReason::Partitioned.counter(),
            "dropped_node_down" => DropReason::NodeDown.counter(),
            "dropped_loss" => DropReason::Loss.counter(),
            "dropped_queue_full" => DropReason::QueueFull.counter(),
            _ => return 0,
        };
        self.0.counter(Layer::Net, net)
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.core.now())
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.core.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkSpec, TopologyBuilder};

    #[derive(Debug, Default)]
    struct Collector {
        received: Vec<(NodeId, u32, Timestamp)>,
    }

    impl Node for Collector {
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
            let n = msg.payload.downcast::<u32>().expect("u32 protocol");
            self.received.push((msg.from, n, ctx.now()));
        }
    }

    struct Echo;
    impl Node for Echo {
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
            let n = msg.payload.downcast::<u32>().expect("u32 protocol");
            ctx.send(msg.from, Payload::new(n + 1));
        }
    }

    fn pair(latency_ms: u64) -> (Sim, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.link_both(a, c, LinkSpec::fixed(latency_ms * 1_000));
        (Sim::new(b.build(), 7), a, c)
    }

    #[test]
    fn request_reply_round_trip_takes_two_latencies() {
        let (mut sim, a, c) = pair(5);
        sim.register(c, Echo);
        sim.register(a, Collector::default());
        sim.send_from(a, c, Payload::new(1u32), 16);
        sim.run_until_idle();
        let got = &sim.node::<Collector>(a).unwrap().received;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 2);
        assert_eq!(got[0].2, Timestamp::from_millis(10));
    }

    #[test]
    fn local_send_delivers_instantly() {
        let (mut sim, a, _c) = pair(5);
        sim.register(a, Collector::default());
        sim.send_from(a, a, Payload::new(9u32), 8);
        sim.run_until_idle();
        let got = &sim.node::<Collector>(a).unwrap().received;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].2, Timestamp::ZERO);
    }

    #[test]
    fn no_route_drops_at_send() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        // no link
        let mut sim = Sim::new(b.build(), 7);
        sim.register(c, Collector::default());
        sim.send_from(a, c, Payload::new(1u32), 8);
        sim.run_until_idle();
        assert!(sim.node::<Collector>(c).unwrap().received.is_empty());
        assert_eq!(
            sim.telemetry().counter(Layer::Net, "net.dropped_no_route"),
            1
        );
    }

    #[test]
    fn partition_mid_flight_drops_message() {
        let (mut sim, a, c) = pair(10);
        sim.register(c, Collector::default());
        sim.send_from(a, c, Payload::new(1u32), 8);
        sim.schedule_fault(
            Timestamp::from_millis(5),
            FaultAction::Partition(vec![a], vec![c]),
        );
        sim.run_until_idle();
        assert!(sim.node::<Collector>(c).unwrap().received.is_empty());
        assert_eq!(
            sim.telemetry()
                .counter(Layer::Net, "net.dropped_partitioned"),
            1
        );
    }

    #[test]
    fn heal_restores_delivery() {
        let (mut sim, a, c) = pair(10);
        sim.register(c, Collector::default());
        sim.apply_fault(FaultAction::Partition(vec![a], vec![c]));
        sim.schedule_fault(Timestamp::from_millis(100), FaultAction::HealAll);
        sim.send_from(a, c, Payload::new(1u32), 8);
        sim.run_until(Timestamp::from_millis(200));
        // First message was in flight while partitioned: lost.
        assert_eq!(
            sim.telemetry()
                .counter(Layer::Net, "net.dropped_partitioned"),
            1
        );
        sim.send_from(a, c, Payload::new(2u32), 8);
        sim.run_until_idle();
        assert_eq!(sim.node::<Collector>(c).unwrap().received.len(), 1);
    }

    #[test]
    fn crashed_destination_drops_then_restart_receives() {
        let (mut sim, a, c) = pair(1);
        sim.register(c, Collector::default());
        sim.apply_fault(FaultAction::Crash(c));
        sim.send_from(a, c, Payload::new(1u32), 8);
        sim.run_until_idle();
        assert_eq!(
            sim.telemetry().counter(Layer::Net, "net.dropped_node_down"),
            1
        );
        sim.apply_fault(FaultAction::Restart(c));
        sim.send_from(a, c, Payload::new(2u32), 8);
        sim.run_until_idle();
        assert_eq!(sim.node::<Collector>(c).unwrap().received.len(), 1);
    }

    #[test]
    fn timers_fire_in_order_with_tags() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(2_000, 2);
                ctx.set_timer(1_000, 1);
                ctx.set_timer(3_000, 3);
            }
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {}
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: TimerId, tag: u64) {
                self.fired.push(tag);
            }
        }
        let (mut sim, a, _c) = pair(1);
        sim.register(a, TimerNode { fired: vec![] });
        sim.run_until_idle();
        assert_eq!(sim.node::<TimerNode>(a).unwrap().fired, vec![1, 2, 3]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct CancelNode {
            fired: Vec<u64>,
        }
        impl Node for CancelNode {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                let t = ctx.set_timer(2_000, 99);
                ctx.set_timer(5_000, 1);
                ctx.cancel_timer(t);
            }
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {}
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: TimerId, tag: u64) {
                self.fired.push(tag);
            }
        }
        let (mut sim, a, _c) = pair(1);
        sim.register(a, CancelNode { fired: vec![] });
        sim.run_until_idle();
        assert_eq!(sim.node::<CancelNode>(a).unwrap().fired, vec![1]);
    }

    #[test]
    fn fifo_holds_despite_jitter() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.link_both(a, c, LinkSpec::fixed(1_000).with_jitter(50_000));
        let mut sim = Sim::new(b.build(), 3);
        sim.register(c, Collector::default());
        for i in 0..50u32 {
            sim.send_from(a, c, Payload::new(i), 8);
        }
        sim.run_until_idle();
        let got: Vec<u32> = sim
            .node::<Collector>(c)
            .unwrap()
            .received
            .iter()
            .map(|r| r.1)
            .collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn bandwidth_serialises_messages() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        // 1 byte/µs, zero latency link.
        b.link(a, c, LinkSpec::fixed(0).with_bandwidth(1_000_000));
        let mut sim = Sim::new(b.build(), 3);
        sim.register(c, Collector::default());
        sim.send_from(a, c, Payload::new(0u32), 1_000);
        sim.send_from(a, c, Payload::new(1u32), 1_000);
        sim.run_until_idle();
        let got = &sim.node::<Collector>(c).unwrap().received;
        assert_eq!(got[0].2, Timestamp::from_micros(1_000));
        assert_eq!(
            got[1].2,
            Timestamp::from_micros(2_000),
            "second message queued behind first"
        );
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.link(a, c, LinkSpec::lan().with_loss(0.5));
        let mut sim = Sim::new(b.build(), 11);
        sim.register(c, Collector::default());
        for i in 0..1000u32 {
            sim.send_from(a, c, Payload::new(i), 8);
        }
        sim.run_until_idle();
        let delivered = sim.node::<Collector>(c).unwrap().received.len();
        assert!(
            (300..700).contains(&delivered),
            "delivered {delivered} of 1000 at p=0.5"
        );
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        // Jitter + loss + a congested bounded queue all draw from the
        // seed; the whole observable run must replay bit-for-bit.
        let run = |seed: u64| {
            let mut b = TopologyBuilder::new();
            let a = b.add_node("a");
            let c = b.add_node("c");
            b.link_both(
                a,
                c,
                LinkSpec::lan()
                    .with_jitter(20_000)
                    .with_loss(0.2)
                    .with_bandwidth(200_000)
                    .with_queue_capacity_msgs(16),
            );
            let mut sim = Sim::new(b.build(), seed);
            sim.register(c, Collector::default());
            for i in 0..100u32 {
                sim.send_from(a, c, Payload::new(i), 8);
            }
            sim.run_until_idle();
            let received = sim
                .node::<Collector>(c)
                .unwrap()
                .received
                .iter()
                .map(|&(_, n, t)| (n, t))
                .collect::<Vec<_>>();
            (
                received,
                sim.telemetry().counter(Layer::Net, "net.dropped_loss"),
                sim.telemetry()
                    .counter(Layer::Net, "net.dropped_queue_full"),
            )
        };
        let (_, _, shed) = run(42);
        assert!(shed > 0, "the congested run must actually shed");
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn lost_message_does_not_delay_later_deliveries() {
        // Phantom-clamp regression: a loss-killed message used to
        // register the FIFO clamp first, so survivors behind it were
        // delayed behind a delivery that never happens. Pinned times
        // for this seed: pre-fix, messages 8-11 all arrived at the
        // phantom 47 965 µs clamp; post-fix they arrive on their own
        // jitter draws.
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.link(
            a,
            c,
            LinkSpec::fixed(1_000).with_jitter(50_000).with_loss(0.5),
        );
        let mut sim = Sim::new(b.build(), 11);
        sim.register(c, Collector::default());
        for i in 0..12u32 {
            sim.send_from(a, c, Payload::new(i), 8);
        }
        sim.run_until_idle();
        let got: Vec<(u32, u64)> = sim
            .node::<Collector>(c)
            .unwrap()
            .received
            .iter()
            .map(|&(_, n, t)| (n, t.as_micros()))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 9_227),
                (2, 39_235),
                (8, 39_235),
                (9, 40_051),
                (10, 40_051),
                (11, 46_391),
            ],
        );
        assert_eq!(sim.telemetry().counter(Layer::Net, "net.dropped_loss"), 6);
    }

    #[test]
    fn sender_crash_does_not_destroy_in_flight_messages() {
        // Bits already propagating survive a sender crash: only the
        // destination being down (or a partition) kills an arrival.
        let (mut sim, a, c) = pair(10);
        sim.register(c, Collector::default());
        sim.send_from(a, c, Payload::new(1u32), 8);
        sim.schedule_fault(Timestamp::from_millis(5), FaultAction::Crash(a));
        sim.run_until_idle();
        assert_eq!(
            sim.node::<Collector>(c).unwrap().received.len(),
            1,
            "in-flight message survives the sender's crash"
        );
        // A send attempted *while* crashed is shed at source, so crash
        // semantics still hold at the boundary where they belong.
        let outcome = sim.send_from_classed(a, c, Payload::new(2u32), 8, 0);
        assert!(outcome.is_shed());
        sim.run_until_idle();
        assert_eq!(
            sim.telemetry().counter(Layer::Net, "net.dropped_node_down"),
            1
        );
        assert_eq!(sim.node::<Collector>(c).unwrap().received.len(), 1);
    }

    #[test]
    fn cancelled_timer_set_stays_bounded() {
        // Cancelling already-fired timers used to grow
        // `cancelled_timers` forever across long runs.
        struct LateCanceller {
            ids: Vec<TimerId>,
        }
        impl Node for LateCanceller {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                for i in 0..1000 {
                    self.ids.push(ctx.set_timer(i + 1, 0));
                }
                ctx.set_timer(100_000, 1);
            }
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId, tag: u64) {
                if tag == 1 {
                    // Every one of these already fired: cancelling them
                    // must be a no-op, not a leak.
                    for id in self.ids.drain(..) {
                        ctx.cancel_timer(id);
                    }
                }
            }
        }
        let (mut sim, a, _c) = pair(1);
        sim.register(a, LateCanceller { ids: vec![] });
        sim.run_until_idle();
        assert!(
            sim.core.cancelled_timers.is_empty(),
            "cancelling fired timers must not leave markers behind"
        );
        assert!(sim.core.pending_timers.is_empty());
    }

    #[test]
    fn zero_capacity_queue_sheds_all_contended_sends() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        // 1 byte/µs: the first send occupies the wire for 100 µs.
        b.link(
            a,
            c,
            LinkSpec::fixed(0)
                .with_bandwidth(1_000_000)
                .with_queue_capacity_msgs(0),
        );
        let mut sim = Sim::new(b.build(), 1);
        sim.register(c, Collector::default());
        let first = sim.send_from_classed(a, c, Payload::new(0u32), 100, 0);
        assert!(matches!(first, SendOutcome::Accepted { .. }));
        for i in 1..5u32 {
            let outcome = sim.send_from_classed(a, c, Payload::new(i), 100, 0);
            assert!(outcome.is_shed(), "zero capacity admits nothing");
        }
        sim.run_until_idle();
        assert_eq!(sim.node::<Collector>(c).unwrap().received.len(), 1);
        assert_eq!(
            sim.telemetry()
                .counter(Layer::Net, "net.dropped_queue_full"),
            4
        );
    }

    #[test]
    fn drop_tail_burst_matches_hand_computed_drop_counts() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        // 1 byte/µs, zero latency, room for 3 waiters: a 10-message
        // burst of 100 B keeps 1 on the wire + 3 queued, sheds 6, and
        // delivers at exactly 100/200/300/400 µs.
        b.link(
            a,
            c,
            LinkSpec::fixed(0)
                .with_bandwidth(1_000_000)
                .with_queue_capacity_msgs(3),
        );
        let mut sim = Sim::new(b.build(), 1);
        sim.register(c, Collector::default());
        for i in 0..10u32 {
            sim.send_from(a, c, Payload::new(i), 100);
        }
        sim.run_until_idle();
        let got: Vec<(u32, u64)> = sim
            .node::<Collector>(c)
            .unwrap()
            .received
            .iter()
            .map(|&(_, n, t)| (n, t.as_micros()))
            .collect();
        assert_eq!(got, vec![(0, 100), (1, 200), (2, 300), (3, 400)]);
        assert_eq!(
            sim.telemetry()
                .counter(Layer::Net, "net.dropped_queue_full"),
            6
        );
        assert_eq!(sim.telemetry().counter(Layer::Net, "net.queued"), 3);
    }

    #[test]
    fn priority_class_jumps_queue_but_bulk_still_drains() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.link(
            a,
            c,
            LinkSpec::fixed(0)
                .with_bandwidth(1_000_000)
                .with_queue_capacity_msgs(10)
                .with_discipline(QueueDiscipline::Priority { classes: 2 }),
        );
        let mut sim = Sim::new(b.build(), 1);
        sim.register(c, Collector::default());
        // Bulk (class 1, 100 B) first: one on the wire, three queued.
        for i in 0..4u32 {
            sim.send_from_classed(a, c, Payload::new(100 + i), 100, 1);
        }
        // Interactive (class 0, 10 B) arrives behind the backlog.
        for i in 0..2u32 {
            sim.send_from_classed(a, c, Payload::new(i), 10, 0);
        }
        sim.run_until_idle();
        let got: Vec<(u32, u64)> = sim
            .node::<Collector>(c)
            .unwrap()
            .received
            .iter()
            .map(|&(_, n, t)| (n, t.as_micros()))
            .collect();
        // Interactive jumps the queue as soon as the wire frees, but
        // the starvation bound holds: every bulk message still drains
        // (by 420 µs here — strict priority never wedges the backlog).
        assert_eq!(
            got,
            vec![
                (100, 100),
                (0, 110),
                (1, 120),
                (101, 220),
                (102, 320),
                (103, 420),
            ],
        );
        assert_eq!(
            sim.telemetry()
                .counter(Layer::Net, "net.dropped_queue_full"),
            0
        );
    }

    #[test]
    fn priority_overflow_evicts_lowest_priority_first() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.link(
            a,
            c,
            LinkSpec::fixed(0)
                .with_bandwidth(1_000_000)
                .with_queue_capacity_msgs(2)
                .with_discipline(QueueDiscipline::Priority { classes: 2 }),
        );
        let mut sim = Sim::new(b.build(), 1);
        sim.register(c, Collector::default());
        // Fill: 100 on the wire, 101 + 102 queued (capacity 2).
        for i in 0..3u32 {
            sim.send_from_classed(a, c, Payload::new(100 + i), 100, 1);
        }
        // Same-class overflow sheds the arrival...
        let bulk = sim.send_from_classed(a, c, Payload::new(103u32), 100, 1);
        assert!(bulk.is_shed(), "equal class cannot evict");
        // ...but a higher class evicts the rear-most bulk waiter.
        let interactive = sim.send_from_classed(a, c, Payload::new(0u32), 10, 0);
        assert!(matches!(interactive, SendOutcome::Queued { depth: 2, .. }));
        sim.run_until_idle();
        let got: Vec<u32> = sim
            .node::<Collector>(c)
            .unwrap()
            .received
            .iter()
            .map(|r| r.1)
            .collect();
        assert_eq!(got, vec![100, 0, 101], "102 was evicted, 103 shed");
        assert_eq!(
            sim.telemetry()
                .counter(Layer::Net, "net.dropped_queue_full"),
            2
        );
    }

    #[test]
    fn lossy_discipline_early_drops_contended_arrivals() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.link(
            a,
            c,
            LinkSpec::fixed(0)
                .with_bandwidth(1_000_000)
                .with_discipline(QueueDiscipline::Lossy { p: 1.0 }),
        );
        let mut sim = Sim::new(b.build(), 1);
        sim.register(c, Collector::default());
        assert!(!sim
            .send_from_classed(a, c, Payload::new(0u32), 100, 0)
            .is_shed());
        // p = 1.0: every contended arrival is early-dropped even though
        // the queue itself is unbounded.
        for i in 1..4u32 {
            assert!(sim
                .send_from_classed(a, c, Payload::new(i), 100, 0)
                .is_shed());
        }
        sim.run_until_idle();
        assert_eq!(sim.node::<Collector>(c).unwrap().received.len(), 1);
        assert_eq!(
            sim.telemetry()
                .counter(Layer::Net, "net.dropped_queue_full"),
            3
        );
    }

    #[test]
    fn fifo_order_holds_under_loss_jitter_and_queueing() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.link(
            a,
            c,
            LinkSpec::fixed(1_000)
                .with_jitter(5_000)
                .with_loss(0.3)
                .with_bandwidth(1_000_000)
                .with_queue_capacity_msgs(32),
        );
        let mut sim = Sim::new(b.build(), 9);
        sim.register(c, Collector::default());
        for i in 0..40u32 {
            sim.send_from(a, c, Payload::new(i), 50);
        }
        sim.run_until_idle();
        let got: Vec<u32> = sim
            .node::<Collector>(c)
            .unwrap()
            .received
            .iter()
            .map(|r| r.1)
            .collect();
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "deliveries must stay in send order: {got:?}"
        );
        let delivered = got.len() as u64;
        let lost = sim.telemetry().counter(Layer::Net, "net.dropped_loss");
        let shed = sim
            .telemetry()
            .counter(Layer::Net, "net.dropped_queue_full");
        assert_eq!(delivered + lost + shed, 40, "every message accounted for");
        assert!(shed > 0, "the burst must overflow the 32-slot queue");
    }

    #[test]
    fn crash_clears_queued_egress_messages() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.link(a, c, LinkSpec::fixed(0).with_bandwidth(1_000));
        let mut sim = Sim::new(b.build(), 1);
        sim.register(c, Collector::default());
        // 1 byte/ms: the first send holds the wire until t = 100 ms,
        // the rest sit in the sender's egress queue.
        for i in 0..5u32 {
            sim.send_from(a, c, Payload::new(i), 100);
        }
        sim.schedule_fault(Timestamp::from_millis(10), FaultAction::Crash(a));
        sim.schedule_fault(Timestamp::from_secs(10), FaultAction::Restart(a));
        sim.run_until_idle();
        // The message on the wire survives (bits had left the host);
        // the queued four die with the crashed sender's buffers.
        assert_eq!(sim.node::<Collector>(c).unwrap().received.len(), 1);
        assert_eq!(
            sim.telemetry().counter(Layer::Net, "net.dropped_node_down"),
            4
        );
    }

    #[test]
    fn queue_telemetry_records_depth_and_sheds() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.link(
            a,
            c,
            LinkSpec::fixed(0)
                .with_bandwidth(1_000_000)
                .with_queue_capacity_msgs(2),
        );
        let mut sim = Sim::new(b.build(), 1);
        let telemetry = Telemetry::new();
        sim.attach_telemetry(telemetry.clone());
        sim.register(c, Collector::default());
        for i in 0..6u32 {
            sim.send_from(a, c, Payload::new(i), 100);
        }
        sim.run_until_idle();
        assert_eq!(telemetry.counter(Layer::Net, "net.queued"), 2);
        assert_eq!(telemetry.counter(Layer::Net, "net.dropped_queue_full"), 3);
        let depth = telemetry
            .histogram(Layer::Net, "net.queue_depth")
            .expect("queue depth histogram");
        assert_eq!(depth.count, 2);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let (mut sim, _a, _c) = pair(1);
        sim.run_until(Timestamp::from_secs(5));
        assert_eq!(sim.now(), Timestamp::from_secs(5));
        // No event popped: the deadline itself moved the one clock.
        assert_eq!(Clock::now_micros(&sim), 5_000_000);
    }

    #[test]
    fn telemetry_counts_sends_and_deliveries() {
        let (mut sim, a, c) = pair(1);
        sim.register(c, Collector::default());
        sim.send_from(a, c, Payload::new(1u32), 8);
        sim.run_until_idle();
        let t = sim.telemetry();
        assert_eq!(t.counter(Layer::Net, "net.sent"), 1);
        assert_eq!(t.counter(Layer::Net, "net.delivered"), 1);
        let h = t.histogram(Layer::Net, "net.delivery_latency").unwrap();
        assert_eq!(h.count, 1);
    }

    #[test]
    fn unregistered_node_counts_unhandled() {
        let (mut sim, a, c) = pair(1);
        sim.send_from(a, c, Payload::new(1u32), 8);
        sim.run_until_idle();
        assert_eq!(sim.telemetry().counter(Layer::Net, "net.unhandled"), 1);
    }

    #[test]
    fn events_record_send_and_delivery_in_causal_order() {
        let (mut sim, a, c) = pair(2);
        sim.register(c, Collector::default());
        sim.send_from(a, c, Payload::new(1u32), 8);
        sim.run_until_idle();
        let events = sim.telemetry().events();
        let names: Vec<_> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["net.send", "net.deliver"]);
        assert!(events[0].at_micros < events[1].at_micros);
    }

    #[test]
    fn run_with_budget_stops_exactly_at_the_budget() {
        let (mut sim, a, c) = pair(1);
        sim.register(c, Collector::default());
        for i in 0..10u32 {
            sim.send_from(a, c, Payload::new(i), 8);
        }
        assert_eq!(sim.pending_events(), 10);
        let ran = sim.run_with_budget(4);
        assert_eq!(ran, 4);
        assert_eq!(sim.pending_events(), 6);
        let ran = sim.run_with_budget(100);
        assert_eq!(ran, 6, "budget larger than the queue drains it");
        assert_eq!(sim.node::<Collector>(c).unwrap().received.len(), 10);
    }

    #[test]
    fn default_send_size_is_applied() {
        struct Echoless;
        impl Node for Echoless {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
                // Forward with the default size.
                let n = msg.payload.downcast::<u32>().expect("protocol");
                ctx.send(msg.from, Payload::new(n));
            }
        }
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        // 1 byte/µs so size is visible in timing.
        b.link_both(a, c, LinkSpec::fixed(0).with_bandwidth(1_000_000));
        let mut sim = Sim::new(b.build(), 1);
        sim.register(c, Echoless);
        sim.register(a, Collector::default());
        sim.send_from(a, c, Payload::new(5u32), 0);
        sim.run_until_idle();
        let got = &sim.node::<Collector>(a).unwrap().received;
        assert_eq!(got.len(), 1);
        // The reply took DEFAULT_MESSAGE_SIZE µs of transmission.
        assert_eq!(got[0].2, Timestamp::from_micros(DEFAULT_MESSAGE_SIZE));
    }

    #[test]
    fn timers_do_not_fire_on_crashed_nodes() {
        struct TimerNode {
            fired: u32,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(10_000, 1);
            }
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {}
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: TimerId, _tag: u64) {
                self.fired += 1;
            }
        }
        let (mut sim, a, _c) = pair(1);
        sim.register(a, TimerNode { fired: 0 });
        sim.schedule_fault(Timestamp::from_millis(5), FaultAction::Crash(a));
        sim.run_until_idle();
        assert_eq!(sim.node::<TimerNode>(a).unwrap().fired, 0);
    }

    #[test]
    fn on_restart_fires_after_restart_fault() {
        #[derive(Default)]
        struct Phoenix {
            restarts: u32,
        }
        impl Node for Phoenix {
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {}
            fn on_restart(&mut self, _ctx: &mut NodeCtx<'_>) {
                self.restarts += 1;
            }
        }
        let (mut sim, a, _c) = pair(1);
        sim.register(a, Phoenix::default());
        sim.apply_fault(FaultAction::Crash(a));
        sim.apply_fault(FaultAction::Restart(a));
        assert_eq!(sim.node::<Phoenix>(a).unwrap().restarts, 1);
        // Scheduled restarts fire the hook too.
        sim.apply_fault(FaultAction::Crash(a));
        sim.schedule_fault(Timestamp::from_millis(5), FaultAction::Restart(a));
        sim.run_until_idle();
        assert_eq!(sim.node::<Phoenix>(a).unwrap().restarts, 2);
    }

    #[test]
    fn periodic_timer_fires_until_cancelled() {
        struct Pulse {
            fired: Vec<Timestamp>,
            stop_after: usize,
            timer: Option<TimerId>,
        }
        impl Node for Pulse {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                self.timer = Some(ctx.set_periodic_timer(10_000, 7));
            }
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId, tag: u64) {
                assert_eq!(tag, 7);
                self.fired.push(ctx.now());
                if self.fired.len() >= self.stop_after {
                    ctx.cancel_timer(self.timer.unwrap());
                }
            }
        }
        let (mut sim, a, _c) = pair(1);
        sim.register(
            a,
            Pulse {
                fired: vec![],
                stop_after: 3,
                timer: None,
            },
        );
        sim.run_until_idle();
        assert_eq!(
            sim.node::<Pulse>(a).unwrap().fired,
            vec![
                Timestamp::from_millis(10),
                Timestamp::from_millis(20),
                Timestamp::from_millis(30)
            ],
            "fires on the period grid, then the cancel sticks"
        );
    }

    #[test]
    fn jittered_periodic_timer_is_seed_deterministic() {
        struct Pulse {
            fired: Vec<Timestamp>,
        }
        impl Node for Pulse {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_periodic_timer_jittered(10_000, 5_000, 1);
            }
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId, _tag: u64) {
                self.fired.push(ctx.now());
            }
        }
        let run = |seed: u64| {
            let mut b = TopologyBuilder::new();
            let a = b.add_node("a");
            let mut sim = Sim::new(b.build(), seed);
            sim.register(a, Pulse { fired: vec![] });
            sim.run_until(Timestamp::from_millis(100));
            sim.node::<Pulse>(a).unwrap().fired.clone()
        };
        assert_eq!(run(5), run(5), "same seed, same jittered firings");
        assert_ne!(run(5), run(6), "jitter really draws from the seed");
        for window in run(5).windows(2) {
            let gap = window[1] - window[0];
            assert!(
                (10_000..=15_000).contains(&gap),
                "inter-fire gap {gap:?} outside period+jitter bound"
            );
        }
    }

    #[test]
    fn crash_silences_periodic_timer_until_restart_rearms() {
        struct Pulse {
            fired: u32,
        }
        impl Node for Pulse {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_periodic_timer(10_000, 1);
            }
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {}
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: TimerId, _tag: u64) {
                self.fired += 1;
            }
            fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_periodic_timer(10_000, 1);
            }
        }
        let (mut sim, a, _c) = pair(1);
        sim.register(a, Pulse { fired: 0 });
        // Two firings (10, 20 ms), crash at 25 ms kills the recurrence,
        // restart at 55 ms re-arms it: firings resume at 65 ms.
        sim.schedule_fault(Timestamp::from_millis(25), FaultAction::Crash(a));
        sim.schedule_fault(Timestamp::from_millis(55), FaultAction::Restart(a));
        sim.run_until(Timestamp::from_millis(100));
        // 10, 20 before the crash; 65, 75, 85, 95 after the restart.
        assert_eq!(sim.node::<Pulse>(a).unwrap().fired, 6);
    }

    #[test]
    fn debug_impl_reports_state() {
        let (mut sim, a, c) = pair(1);
        sim.send_from(a, c, Payload::new(1u32), 8);
        let dbg = format!("{sim:?}");
        assert!(dbg.contains("pending_events: 1"), "{dbg}");
        assert!(dbg.contains("nodes: 2"), "{dbg}");
    }

    #[test]
    fn attached_telemetry_mirrors_net_activity() {
        let (mut sim, a, c) = pair(5);
        let telemetry = Telemetry::new();
        sim.attach_telemetry(telemetry.clone());
        assert_eq!(sim.now_micros(), 0);

        sim.register(c, Echo);
        sim.register(a, Collector::default());
        sim.send_from(a, c, Payload::new(1u32), 16);
        sim.run_until_idle();

        assert_eq!(telemetry.counter(Layer::Net, "net.sent"), 2);
        assert_eq!(telemetry.counter(Layer::Net, "net.delivered"), 2);
        let latency = telemetry
            .histogram(Layer::Net, "net.delivery_latency")
            .expect("latency recorded");
        assert_eq!(latency.count, 2);
        assert!(telemetry
            .events()
            .iter()
            .any(|e| e.name == "net.deliver" && e.layer == Layer::Net));
        // The simulator's kernel clock is its event loop: two 5 ms hops.
        assert_eq!(sim.now_micros(), sim.now().as_micros());
        assert_eq!(sim.now_micros(), 10_000);
    }

    #[test]
    fn attach_replaces_the_stream() {
        let (mut sim, a, c) = pair(1);
        sim.send_from(a, c, Payload::new(1u32), 8);
        let shared = Telemetry::new();
        sim.attach_telemetry(shared.clone());
        assert!(sim.telemetry().same_stream(&shared));
        sim.send_from(a, c, Payload::new(2u32), 8);
        assert_eq!(shared.counter(Layer::Net, "net.sent"), 1);
    }

    #[test]
    fn telemetry_records_drops_and_faults() {
        let (mut sim, a, c) = pair(1);
        let telemetry = Telemetry::new();
        sim.attach_telemetry(telemetry.clone());
        sim.apply_fault(FaultAction::Crash(c));
        sim.send_from(a, c, Payload::new(1u32), 8);
        sim.run_until_idle();
        assert_eq!(telemetry.counter(Layer::Net, "net.faults"), 1);
        assert_eq!(telemetry.counter(Layer::Net, "net.dropped"), 1);
        assert_eq!(telemetry.counter(Layer::Net, "net.dropped_node_down"), 1);
        assert!(telemetry.events().iter().any(|e| e.name == "net.drop"));
    }

    #[test]
    fn metrics_view_reads_each_historical_name_from_its_net_counter() {
        // One run that exercises every counter the view maps: a queued
        // and a shed send on a slow bounded link, random loss, no route,
        // a partition, a crashed destination, an unhandled delivery and
        // the faults themselves.
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        let lossy = b.add_node("lossy");
        let sink = b.add_node("sink");
        let island = b.add_node("island");
        b.link(
            a,
            c,
            LinkSpec::fixed(0)
                .with_bandwidth(1_000_000)
                .with_queue_capacity_msgs(1),
        );
        b.link(a, lossy, LinkSpec::lan().with_loss(1.0));
        b.link_both(a, sink, LinkSpec::lan());
        let mut sim = Sim::new(b.build(), 1);
        sim.register(c, Collector::default());
        for i in 0..3u32 {
            sim.send_from(a, c, Payload::new(i), 100); // wire, queue, shed
        }
        sim.send_from(a, lossy, Payload::new(0u32), 8);
        sim.send_from(a, island, Payload::new(0u32), 8);
        sim.send_from(a, sink, Payload::new(0u32), 8);
        sim.run_until_idle();
        sim.apply_fault(FaultAction::Partition(vec![a], vec![sink]));
        sim.send_from(a, sink, Payload::new(1u32), 8);
        sim.run_until_idle();
        sim.apply_fault(FaultAction::HealAll);
        sim.apply_fault(FaultAction::Crash(sink));
        sim.send_from(a, sink, Payload::new(2u32), 8);
        sim.run_until_idle();

        let pins = [
            ("messages_sent", "net.sent"),
            ("messages_delivered", "net.delivered"),
            ("messages_dropped", "net.dropped"),
            ("messages_queued", "net.queued"),
            ("faults_applied", "net.faults"),
            ("delivered_unhandled", "net.unhandled"),
            ("dropped_no_route", "net.dropped_no_route"),
            ("dropped_partitioned", "net.dropped_partitioned"),
            ("dropped_node_down", "net.dropped_node_down"),
            ("dropped_loss", "net.dropped_loss"),
            ("dropped_queue_full", "net.dropped_queue_full"),
        ];
        for (old, net) in pins {
            let want = sim.telemetry().counter(Layer::Net, net);
            assert!(want > 0, "{net} was never exercised");
            assert_eq!(sim.metrics().counter(old), want, "{old} -> {net}");
        }
        assert_eq!(sim.metrics().counter("delivery_latency"), 0);
        assert_eq!(sim.metrics().counter("net.sent"), 0, "only old names map");
    }
}
