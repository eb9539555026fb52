//! Bounded-queue congestion scenarios — the adversary is offered load.
//!
//! Builders and the measured experiments behind
//! `BENCH_net_congestion.json`: three adversarial traffic shapes on
//! queue-bounded [`simnet`] links, each deterministic per seed (rerun
//! any cell and every count and quantile replays bit-for-bit):
//!
//! * **flash crowd** — N clients stampede a relay whose uplink to the
//!   server is slow and queue-bounded. A calm phase (staggered sends)
//!   baselines the latency floor; the burst phase piles the whole crowd
//!   onto the wire at one instant, so delivered messages queue behind
//!   each other (p99 ≫ p50) and the overflow is shed. A side probe
//!   drives the same overload through [`ResilientPlatform`] and shows a
//!   circuit breaker opening with *zero* injected faults.
//! * **gossip storm vs interactive** — bulk class-1 gossip bursts and
//!   small class-0 pings share one thin link, once under
//!   [`QueueDiscipline::DropTail`] and once under
//!   [`QueueDiscipline::Priority`]; the interactive quantiles show what
//!   the discipline buys.
//! * **WAN bridge** — two LAN islands joined by one slow, byte-capped
//!   bridge; cross-island traffic overloads it (queueing + sheds) while
//!   intra-island latency stays flat.
//!
//! All latencies are simulated time recorded into the kernel's
//! [`cscw_kernel::LogHistogram`] via layer-tagged telemetry, so the
//! quantiles are as deterministic as the event order itself.

use cscw_kernel::{BreakerState, Layer, RetryPolicy, Telemetry};
use mocca::{Platform, ResilientPlatform, SimPlatform};
use simnet::{
    LinkSpec, Message, Node, NodeCtx, NodeId, Payload, QueueDiscipline, Sim, TopologyBuilder,
};

use crate::report::{cell, every_cell, fnv1a, Claim, PhaseQuantiles, Report, Value};

/// Seeds every scenario sweeps.
pub const SEEDS: [u64; 3] = [1, 2, 3];

/// Clients stampeding the relay in the flash-crowd scenario.
pub const FLASH_CLIENTS: usize = 24;

/// Messages per client in each flash-crowd phase.
const FLASH_MSGS_PER_CLIENT: u64 = 4;

/// Flash-crowd message wire size (5 ms on the 40 kB/s bottleneck).
const FLASH_MSG_BYTES: u64 = 200;

/// When the whole crowd fires at once (after the calm phase drains).
const FLASH_BURST_AT_MICROS: u64 = 6_000_000;

impl PhaseQuantiles {
    fn digest_field(&self) -> String {
        format!("{}/{}/{}/{}", self.p50, self.p90, self.p99, self.max)
    }
}

// ---------------------------------------------------------------------
// Flash crowd: clients -> relay -> (bounded wire) -> server.
// ---------------------------------------------------------------------

/// A stamped application message; the server turns `sent_micros` into
/// a delivery-latency sample.
struct FlashMsg {
    burst: bool,
    sent_micros: u64,
}

/// One conference client: four staggered calm sends, then four more
/// the instant the flash crowd hits.
struct FlashClient {
    relay: NodeId,
    idx: u64,
}

const TAG_BURST: u64 = 99;

impl Node for FlashClient {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // Calm sends are staggered globally (50 ms apart across the
        // whole crowd) so the bottleneck drains between them.
        for k in 0..FLASH_MSGS_PER_CLIENT {
            let at = (k * FLASH_CLIENTS as u64 + self.idx) * 50_000;
            ctx.set_timer(at, k);
        }
        ctx.set_timer(FLASH_BURST_AT_MICROS, TAG_BURST);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: simnet::TimerId, tag: u64) {
        let burst = tag == TAG_BURST;
        let sends = if burst { FLASH_MSGS_PER_CLIENT } else { 1 };
        for _ in 0..sends {
            let msg = FlashMsg {
                burst,
                sent_micros: ctx.now_micros(),
            };
            let _ = ctx.send_sized(self.relay, Payload::new(msg), FLASH_MSG_BYTES);
            ctx.telemetry().incr(Layer::Net, "net.flash.offered");
        }
    }
}

/// The relay: forwards every client message over the bounded uplink,
/// counting what the full queue sheds.
struct FlashRelay {
    server: NodeId,
}

impl Node for FlashRelay {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        let Ok(flash) = msg.payload.downcast::<FlashMsg>() else {
            return;
        };
        let outcome = ctx.send_sized(self.server, Payload::new(flash), FLASH_MSG_BYTES);
        if outcome.is_shed() {
            ctx.telemetry().incr(Layer::Net, "net.flash.relay_shed");
        }
    }
}

/// The server: every arrival becomes a latency sample, split by phase.
struct FlashServer;

impl Node for FlashServer {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        let Ok(flash) = msg.payload.downcast::<FlashMsg>() else {
            return;
        };
        let latency = ctx.now_micros().saturating_sub(flash.sent_micros);
        let t = ctx.telemetry();
        t.incr(Layer::Net, "net.flash.delivered");
        t.record_micros(Layer::Net, "net.flash.latency", latency);
        let phase = if flash.burst {
            "net.flash.burst"
        } else {
            "net.flash.calm"
        };
        t.record_micros(Layer::Net, phase, latency);
    }
}

cell! {
    /// One measured flash-crowd cell.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct FlashCrowdResult {
        /// Simulation seed.
        pub seed: u64,
        /// Clients in the crowd.
        pub clients: usize,
        /// Messages offered to the relay.
        pub offered: u64,
        /// Messages the server received.
        pub delivered: u64,
        /// Messages the bounded uplink queue shed.
        pub shed: u64,
        /// `dropped_queue_full` as counted by the simulator itself.
        pub dropped_queue_full: u64,
        /// Calm-phase delivery latency quantiles (micros).
        pub calm_micros: PhaseQuantiles,
        /// Burst-phase delivery latency quantiles (micros).
        pub burst_micros: PhaseQuantiles,
        /// Whole-run delivery latency quantiles (micros).
        pub overall_micros: PhaseQuantiles,
        /// Whether the congestion-only probe left the trader breaker
        /// open.
        pub breaker_opened: bool,
        /// The probe's `resilience.trader.breaker_open` transitions.
        pub breaker_trips: u64,
        /// Crash/partition faults the probe injected (always zero —
        /// that is the point).
        pub injected_faults: u64,
        /// Hex FNV-1a digest of every count and quantile above plus the
        /// probe's queue drops — equal across reruns of the same seed.
        pub fingerprint: String,
    }
}

/// Floods the facade's own wire through [`ResilientPlatform`] until the
/// trader breaker opens — no fault is ever injected; shed requests
/// classify as transient and walk the breaker open on their own.
/// Returns whether the trader breaker ended open, its
/// `resilience.trader.breaker_open` transitions, and the mesh's
/// queue-overflow drops.
fn breaker_probe(seed: u64) -> (bool, u64, u64) {
    let spec = LinkSpec::fixed(1_000)
        .with_bandwidth(10_000)
        .with_queue_capacity_msgs(4);
    let sim_platform = SimPlatform::with_link_spec(seed, Telemetry::new(), spec);
    let mut p = ResilientPlatform::new(Box::new(sim_platform))
        .with_policy(RetryPolicy::none())
        .with_breakers(3, 1_000_000);

    for _ in 0..3 {
        // Fill the trader-client -> trader egress queue with junk so
        // the facade's next request is shed by the full queue.
        if let Some(sp) = p.inner_mut().as_any_mut().downcast_mut::<SimPlatform>() {
            let sim = sp.sim_mut();
            let (client, trader) = (NodeId::from_raw(0), NodeId::from_raw(3));
            for _ in 0..8 {
                sim.send_from(client, trader, Payload::new(0u32), 600);
            }
        }
        let _ = p.trader().import(&odp::ImportRequest::any("printer"));
    }

    let (trader_breaker, _, _) = p.breaker_states();
    let trips = p
        .telemetry()
        .counter(Layer::Env, "resilience.trader.breaker_open");
    let dropped = p
        .inner_mut()
        .as_any_mut()
        .downcast_mut::<SimPlatform>()
        .map(|sp| {
            sp.sim()
                .telemetry()
                .counter(Layer::Net, "net.dropped_queue_full")
        })
        .unwrap_or(0);
    (trader_breaker == BreakerState::Open, trips, dropped)
}

/// Runs one flash-crowd cell: calm baseline, then the stampede.
pub fn flash_crowd(seed: u64) -> FlashCrowdResult {
    let mut b = TopologyBuilder::new();
    let clients: Vec<NodeId> = (0..FLASH_CLIENTS)
        .map(|i| b.add_node(format!("client-{i}")))
        .collect();
    let relay = b.add_node("relay");
    let server = b.add_node("server");
    for &c in &clients {
        // Client access links are fast but jittered, so each seed
        // shuffles the burst's arrival order at the relay.
        b.link(c, relay, LinkSpec::lan().with_jitter(3_000));
    }
    // The bottleneck: 40 kB/s (5 ms per message) holding at most 64
    // queued messages — the flash crowd's tail queues here and the
    // overflow is shed.
    b.link(
        relay,
        server,
        LinkSpec::fixed(2_000)
            .with_bandwidth(40_000)
            .with_queue_capacity_msgs(64),
    );

    let mut sim = Sim::new(b.build(), seed);
    for (i, &c) in clients.iter().enumerate() {
        sim.register(
            c,
            FlashClient {
                relay,
                idx: i as u64,
            },
        );
    }
    sim.register(relay, FlashRelay { server });
    sim.register(server, FlashServer);
    sim.run_until_idle();

    let telemetry = sim.telemetry();
    let quantiles = |name| PhaseQuantiles::of(telemetry, Layer::Net, name);
    let (breaker_opened, breaker_trips, probe_drops) = breaker_probe(seed);
    let mut r = FlashCrowdResult {
        seed,
        clients: FLASH_CLIENTS,
        offered: telemetry.counter(Layer::Net, "net.flash.offered"),
        delivered: telemetry.counter(Layer::Net, "net.flash.delivered"),
        shed: telemetry.counter(Layer::Net, "net.flash.relay_shed"),
        dropped_queue_full: telemetry.counter(Layer::Net, "net.dropped_queue_full"),
        calm_micros: quantiles("net.flash.calm"),
        burst_micros: quantiles("net.flash.burst"),
        overall_micros: quantiles("net.flash.latency"),
        breaker_opened,
        breaker_trips,
        injected_faults: 0,
        fingerprint: String::new(),
    };
    r.fingerprint = format!(
        "{:016x}",
        fnv1a(&format!(
            "flash:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}",
            r.seed,
            r.offered,
            r.delivered,
            r.shed,
            r.dropped_queue_full,
            r.calm_micros.digest_field(),
            r.burst_micros.digest_field(),
            r.overall_micros.digest_field(),
            r.breaker_opened,
            r.breaker_trips,
            probe_drops,
        ))
    );
    r
}

// ---------------------------------------------------------------------
// Gossip storm vs interactive on one thin link.
// ---------------------------------------------------------------------

/// Bulk bursts fired by the gateway (each one a gossip frame fan-out).
const STORM_BULK_BURSTS: u64 = 10;
/// Bulk messages per burst.
const STORM_BULK_PER_BURST: u64 = 12;
/// Bulk wire size (20 ms per message at 100 kB/s).
const STORM_BULK_BYTES: u64 = 2_000;
/// Interactive pings sent over the storm.
const STORM_PINGS: u64 = 40;
/// Interactive wire size.
const STORM_PING_BYTES: u64 = 64;

const TAG_PING_BASE: u64 = 1_000;

struct StormMsg {
    class: u8,
    sent_micros: u64,
}

/// The gateway: periodic bulk gossip bursts (class 1) interleaved with
/// small interactive pings (class 0), all down one thin link.
struct StormGateway {
    peer: NodeId,
}

impl Node for StormGateway {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for j in 0..STORM_BULK_BURSTS {
            ctx.set_timer(j * 100_000, j);
        }
        for k in 0..STORM_PINGS {
            // Pings land mid-burst (13 ms phase offset) so they always
            // contend with queued bulk.
            ctx.set_timer(k * 25_000 + 13_000, TAG_PING_BASE + k);
        }
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _msg: Message) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: simnet::TimerId, tag: u64) {
        if tag >= TAG_PING_BASE {
            let msg = StormMsg {
                class: 0,
                sent_micros: ctx.now_micros(),
            };
            let outcome = ctx.send_classed(self.peer, Payload::new(msg), STORM_PING_BYTES, 0);
            if outcome.is_shed() {
                ctx.telemetry().incr(Layer::Net, "net.storm.ping_shed");
            }
        } else {
            for _ in 0..STORM_BULK_PER_BURST {
                let msg = StormMsg {
                    class: 1,
                    sent_micros: ctx.now_micros(),
                };
                let outcome = ctx.send_classed(self.peer, Payload::new(msg), STORM_BULK_BYTES, 1);
                if outcome.is_shed() {
                    ctx.telemetry().incr(Layer::Net, "net.storm.bulk_shed");
                }
            }
        }
    }
}

/// The far end: every arrival becomes a per-class latency sample.
struct StormPeer;

impl Node for StormPeer {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        let Ok(storm) = msg.payload.downcast::<StormMsg>() else {
            return;
        };
        let latency = ctx.now_micros().saturating_sub(storm.sent_micros);
        if storm.class == 0 {
            let t = ctx.telemetry();
            t.incr(Layer::Net, "net.storm.ping_delivered");
            t.record_micros(Layer::Net, "net.storm.interactive", latency);
        } else {
            let t = ctx.telemetry();
            t.incr(Layer::Net, "net.storm.bulk_delivered");
            t.record_micros(Layer::Net, "net.storm.bulk", latency);
        }
    }
}

cell! {
    /// One discipline's half of the storm comparison.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct StormSide {
        /// Queue discipline name (`drop_tail` or `priority`).
        pub discipline: &'static str,
        /// Interactive delivery latency quantiles (micros).
        pub interactive_micros: PhaseQuantiles,
        /// Bulk delivery latency quantiles (micros).
        pub bulk_micros: PhaseQuantiles,
        /// Interactive pings delivered / shed.
        pub interactive_delivered: u64,
        /// Pings the full queue shed.
        pub interactive_shed: u64,
        /// Bulk messages delivered.
        pub bulk_delivered: u64,
        /// Bulk messages shed (at enqueue or displaced by class 0).
        pub bulk_shed: u64,
        /// Simulator-counted queue-overflow drops.
        pub dropped_queue_full: u64,
    }
}

impl StormSide {
    fn digest_field(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}:{}:{}",
            self.discipline,
            self.interactive_micros.digest_field(),
            self.bulk_micros.digest_field(),
            self.interactive_delivered,
            self.interactive_shed,
            self.bulk_delivered,
            self.bulk_shed,
        )
    }
}

cell! {
    /// One measured gossip-storm cell: the same storm under both queue
    /// disciplines.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct GossipStormResult {
        /// Simulation seed.
        pub seed: u64,
        /// The storm under [`QueueDiscipline::DropTail`].
        pub drop_tail: StormSide,
        /// The storm under [`QueueDiscipline::Priority`] (2 classes).
        pub priority: StormSide,
        /// Hex FNV-1a digest over both sides.
        pub fingerprint: String,
    }
}

fn storm_side(seed: u64, discipline: QueueDiscipline, name: &'static str) -> StormSide {
    let mut b = TopologyBuilder::new();
    let gw = b.add_node("site-gw");
    let peer = b.add_node("peer");
    // One thin shared wire: 100 kB/s, 64-message queue. Bulk gossip
    // demands ~2.4 s of serialisation in a 1 s window, so the queue is
    // saturated for the whole storm.
    b.link(
        gw,
        peer,
        LinkSpec::fixed(5_000)
            .with_jitter(2_000)
            .with_bandwidth(100_000)
            .with_queue_capacity_msgs(64)
            .with_discipline(discipline),
    );

    let mut sim = Sim::new(b.build(), seed);
    sim.register(gw, StormGateway { peer });
    sim.register(peer, StormPeer);
    sim.run_until_idle();

    let telemetry = sim.telemetry();
    StormSide {
        discipline: name,
        interactive_micros: PhaseQuantiles::of(telemetry, Layer::Net, "net.storm.interactive"),
        bulk_micros: PhaseQuantiles::of(telemetry, Layer::Net, "net.storm.bulk"),
        interactive_delivered: telemetry.counter(Layer::Net, "net.storm.ping_delivered"),
        interactive_shed: telemetry.counter(Layer::Net, "net.storm.ping_shed"),
        bulk_delivered: telemetry.counter(Layer::Net, "net.storm.bulk_delivered"),
        bulk_shed: telemetry.counter(Layer::Net, "net.storm.bulk_shed"),
        dropped_queue_full: telemetry.counter(Layer::Net, "net.dropped_queue_full"),
    }
}

/// Runs one gossip-storm cell under both disciplines.
pub fn gossip_storm(seed: u64) -> GossipStormResult {
    let drop_tail = storm_side(seed, QueueDiscipline::DropTail, "drop_tail");
    let priority = storm_side(seed, QueueDiscipline::Priority { classes: 2 }, "priority");
    let fingerprint = format!(
        "{:016x}",
        fnv1a(&format!(
            "storm:{}:{}:{}",
            seed,
            drop_tail.digest_field(),
            priority.digest_field()
        ))
    );
    GossipStormResult {
        seed,
        drop_tail,
        priority,
        fingerprint,
    }
}

// ---------------------------------------------------------------------
// WAN bridge between two LAN islands.
// ---------------------------------------------------------------------

/// Workers per island (plus one gateway each).
const BRIDGE_WORKERS: usize = 3;
/// Cross-island messages per worker.
const BRIDGE_CROSS_MSGS: u64 = 10;
/// Intra-island messages per worker.
const BRIDGE_INTRA_MSGS: u64 = 10;
/// Cross-island wire size (30 ms on the 20 kB/s bridge).
const BRIDGE_CROSS_BYTES: u64 = 600;
/// Intra-island wire size.
const BRIDGE_INTRA_BYTES: u64 = 200;

const TAG_INTRA_BASE: u64 = 1_000;

/// A message relayed gateway-to-gateway toward `dest`.
struct BridgeMsg {
    dest: NodeId,
    sent_micros: u64,
}

/// A same-island message, sent direct.
struct IntraMsg {
    sent_micros: u64,
}

/// An island worker: offered cross-island load (via its gateway) plus
/// an intra-island baseline stream.
struct BridgeWorker {
    gw: NodeId,
    sibling: NodeId,
    remote: Vec<NodeId>,
}

impl Node for BridgeWorker {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for k in 0..BRIDGE_CROSS_MSGS {
            // Three workers on a 20 ms cadence offer 4.5x the bridge's
            // service rate — the byte-capped queue fills and sheds.
            ctx.set_timer(k * 20_000, k);
        }
        for k in 0..BRIDGE_INTRA_MSGS {
            ctx.set_timer(k * 30_000 + 7_000, TAG_INTRA_BASE + k);
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        if msg.payload.is::<BridgeMsg>() {
            let Ok(bridge) = msg.payload.downcast::<BridgeMsg>() else {
                return;
            };
            let latency = ctx.now_micros().saturating_sub(bridge.sent_micros);
            let t = ctx.telemetry();
            t.incr(Layer::Net, "net.bridge.cross_delivered");
            t.record_micros(Layer::Net, "net.bridge.cross", latency);
        } else if let Ok(intra) = msg.payload.downcast::<IntraMsg>() {
            let latency = ctx.now_micros().saturating_sub(intra.sent_micros);
            let t = ctx.telemetry();
            t.incr(Layer::Net, "net.bridge.intra_delivered");
            t.record_micros(Layer::Net, "net.bridge.intra", latency);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: simnet::TimerId, tag: u64) {
        if tag >= TAG_INTRA_BASE {
            let msg = IntraMsg {
                sent_micros: ctx.now_micros(),
            };
            let _ = ctx.send_sized(self.sibling, Payload::new(msg), BRIDGE_INTRA_BYTES);
        } else {
            let dest = self.remote[(tag as usize) % self.remote.len()];
            let msg = BridgeMsg {
                dest,
                sent_micros: ctx.now_micros(),
            };
            let _ = ctx.send_sized(self.gw, Payload::new(msg), BRIDGE_CROSS_BYTES);
            ctx.telemetry().incr(Layer::Net, "net.bridge.cross_offered");
        }
    }
}

/// An island gateway: local destinations get a LAN hop, everything
/// else crosses the bounded bridge to the peer gateway.
struct BridgeGateway {
    peer: NodeId,
}

impl Node for BridgeGateway {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        let Ok(bridge) = msg.payload.downcast::<BridgeMsg>() else {
            return;
        };
        let dest = bridge.dest;
        let me = ctx.id();
        let local = ctx.topology().link(me, dest).is_some();
        let to = if local { dest } else { self.peer };
        let outcome = ctx.send_sized(to, Payload::new(bridge), BRIDGE_CROSS_BYTES);
        if outcome.is_shed() {
            ctx.telemetry().incr(Layer::Net, "net.bridge.shed");
        }
    }
}

cell! {
    /// One measured WAN-bridge cell.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct WanBridgeResult {
        /// Simulation seed.
        pub seed: u64,
        /// Cross-island messages offered by workers.
        pub cross_offered: u64,
        /// Cross-island messages delivered end-to-end.
        pub cross_delivered: u64,
        /// Cross-island messages the bridge queue shed.
        pub cross_shed: u64,
        /// Intra-island messages delivered.
        pub intra_delivered: u64,
        /// Simulator-counted queue-overflow drops.
        pub dropped_queue_full: u64,
        /// Intra-island delivery latency quantiles (micros).
        pub intra_micros: PhaseQuantiles,
        /// Cross-island delivery latency quantiles (micros).
        pub cross_micros: PhaseQuantiles,
        /// Hex FNV-1a digest of every count and quantile above.
        pub fingerprint: String,
    }
}

/// Runs one WAN-bridge cell: two 4-node islands, one byte-capped
/// 20 kB/s bridge each way.
pub fn wan_bridge(seed: u64) -> WanBridgeResult {
    let mut b = TopologyBuilder::new();
    let gw_a = b.add_node("gw-a");
    let gw_b = b.add_node("gw-b");
    let workers_a: Vec<NodeId> = (0..BRIDGE_WORKERS)
        .map(|i| b.add_node(format!("wa-{i}")))
        .collect();
    let workers_b: Vec<NodeId> = (0..BRIDGE_WORKERS)
        .map(|i| b.add_node(format!("wb-{i}")))
        .collect();
    for island in [(&workers_a, gw_a), (&workers_b, gw_b)] {
        let (workers, gw) = island;
        for (i, &w) in workers.iter().enumerate() {
            b.link_both(w, gw, LinkSpec::lan());
            let sib = workers[(i + 1) % workers.len()];
            b.link_both(w, sib, LinkSpec::lan());
        }
    }
    // The bridge: WAN latency + jitter, 20 kB/s, and a queue bounded
    // in *bytes* — about thirteen 600-byte messages deep.
    let bridge = LinkSpec::wan()
        .with_bandwidth(20_000)
        .with_queue_capacity_bytes(8_192);
    b.link_both(gw_a, gw_b, bridge);

    let mut sim = Sim::new(b.build(), seed);
    sim.register(gw_a, BridgeGateway { peer: gw_b });
    sim.register(gw_b, BridgeGateway { peer: gw_a });
    for island in [
        (&workers_a, gw_a, &workers_b),
        (&workers_b, gw_b, &workers_a),
    ] {
        let (workers, gw, remote) = island;
        for (i, &w) in workers.iter().enumerate() {
            sim.register(
                w,
                BridgeWorker {
                    gw,
                    sibling: workers[(i + 1) % workers.len()],
                    remote: remote.clone(),
                },
            );
        }
    }
    sim.run_until_idle();

    let telemetry = sim.telemetry();
    let mut r = WanBridgeResult {
        seed,
        cross_offered: telemetry.counter(Layer::Net, "net.bridge.cross_offered"),
        cross_delivered: telemetry.counter(Layer::Net, "net.bridge.cross_delivered"),
        cross_shed: telemetry.counter(Layer::Net, "net.bridge.shed"),
        intra_delivered: telemetry.counter(Layer::Net, "net.bridge.intra_delivered"),
        dropped_queue_full: telemetry.counter(Layer::Net, "net.dropped_queue_full"),
        intra_micros: PhaseQuantiles::of(telemetry, Layer::Net, "net.bridge.intra"),
        cross_micros: PhaseQuantiles::of(telemetry, Layer::Net, "net.bridge.cross"),
        fingerprint: String::new(),
    };
    r.fingerprint = format!(
        "{:016x}",
        fnv1a(&format!(
            "bridge:{}:{}:{}:{}:{}:{}:{}:{}",
            r.seed,
            r.cross_offered,
            r.cross_delivered,
            r.cross_shed,
            r.intra_delivered,
            r.dropped_queue_full,
            r.intra_micros.digest_field(),
            r.cross_micros.digest_field(),
        ))
    );
    r
}

// ---------------------------------------------------------------------
// The report and its claims.
// ---------------------------------------------------------------------

/// The `BENCH_net_congestion.json` document over `seeds`' cells. The
/// full sweep is cheap, so a report is never a smoke run.
pub fn report(
    seeds: &[u64],
    flash: &[FlashCrowdResult],
    storm: &[GossipStormResult],
    bridge: &[WanBridgeResult],
) -> Report {
    let sections = [
        ("seeds", Value::list(seeds)),
        ("flash_crowd", Value::list(flash)),
        ("gossip_storm", Value::list(storm)),
        ("wan_bridge", Value::list(bridge)),
    ];
    Report::new("net_congestion", false, sections)
}

/// The report over one default cell per section: every net_congestion
/// report must have exactly its key tree.
pub fn template() -> Report {
    report(
        &[0],
        &[Default::default()],
        &[Default::default()],
        &[Default::default()],
    )
}

/// The net_congestion headline claims.
pub const CLAIMS: &[Claim] = &[
    Claim {
        name: "flash crowd p99 is at least 10x its p50",
        check: |doc| {
            every_cell(doc, "flash_crowd", |c| {
                let p50 = c.u64_at("overall_micros.p50")?;
                Ok(c.u64_at("overall_micros.p99")? >= 10 * p50.max(1))
            })
        },
    },
    Claim {
        name: "flash crowd sheds",
        check: |doc| every_cell(doc, "flash_crowd", |c| Ok(c.u64_at("shed")? > 0)),
    },
    Claim {
        name: "congestion alone opens the breaker",
        check: |doc| {
            every_cell(doc, "flash_crowd", |c| {
                let opened = c.at("breaker_opened")? == &Value::Bool(true);
                Ok(opened && c.u64_at("injected_faults")? == 0)
            })
        },
    },
    Claim {
        name: "priority shields interactive p99 at least 4x",
        check: |doc| {
            every_cell(doc, "gossip_storm", |c| {
                let drop_tail = c.u64_at("drop_tail.interactive_micros.p99")?;
                Ok(c.u64_at("priority.interactive_micros.p99")? * 4 <= drop_tail.max(1))
            })
        },
    },
    Claim {
        name: "WAN bridge sheds cross-island traffic",
        check: |doc| every_cell(doc, "wan_bridge", |c| Ok(c.u64_at("cross_shed")? > 0)),
    },
    Claim {
        name: "WAN bridge cross p50 is over 5x intra p50",
        check: |doc| {
            every_cell(doc, "wan_bridge", |c| {
                let intra = c.u64_at("intra_micros.p50")?;
                Ok(c.u64_at("cross_micros.p50")? > 5 * intra.max(1))
            })
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_crowd_has_heavy_tail_sheds_and_opens_the_breaker() {
        let r = flash_crowd(1);
        assert_eq!(
            r.offered,
            2 * FLASH_MSGS_PER_CLIENT * FLASH_CLIENTS as u64,
            "calm + burst offered load"
        );
        assert!(r.delivered > 0 && r.delivered < r.offered, "{r:?}");
        assert!(r.shed > 0, "burst overflow must shed: {r:?}");
        assert!(r.dropped_queue_full >= r.shed, "{r:?}");
        // The headline: queueing alone makes the tail, p99 >> p50.
        assert!(
            r.overall_micros.p99 >= 10 * r.overall_micros.p50.max(1),
            "p99 {} must dwarf p50 {}",
            r.overall_micros.p99,
            r.overall_micros.p50
        );
        assert!(r.burst_micros.p99 > r.calm_micros.p99, "{r:?}");
        // And sustained overload alone opens a breaker: zero faults.
        assert!(r.breaker_opened, "{r:?}");
        assert_eq!(r.breaker_trips, 1, "{r:?}");
        assert_eq!(r.injected_faults, 0);
        let (_, _, probe_drops) = breaker_probe(1);
        assert!(probe_drops >= 3, "{probe_drops}");
    }

    #[test]
    fn flash_crowd_replays_bit_for_bit_per_seed() {
        for seed in SEEDS {
            let a = flash_crowd(seed);
            let b = flash_crowd(seed);
            assert_eq!(a, b, "seed {seed} must replay exactly");
        }
    }

    #[test]
    fn priority_discipline_shields_interactive_traffic() {
        let r = gossip_storm(1);
        // Same storm, same seed: priority delivers every ping fast
        // while drop-tail makes pings wait behind (or die with) bulk.
        assert_eq!(
            r.priority.interactive_delivered, STORM_PINGS,
            "class 0 displaces bulk, never sheds: {:?}",
            r.priority
        );
        assert!(
            r.priority.interactive_micros.p99 * 4 <= r.drop_tail.interactive_micros.p99.max(1),
            "priority p99 {} vs drop-tail p99 {}",
            r.priority.interactive_micros.p99,
            r.drop_tail.interactive_micros.p99
        );
        assert!(
            r.drop_tail.dropped_queue_full > 0,
            "the storm must overflow: {:?}",
            r.drop_tail
        );
        let b = gossip_storm(1);
        assert_eq!(r, b, "storm must replay exactly");
    }

    #[test]
    fn wan_bridge_queues_and_sheds_cross_island_traffic_only() {
        let r = wan_bridge(1);
        assert_eq!(
            r.cross_offered,
            2 * BRIDGE_WORKERS as u64 * BRIDGE_CROSS_MSGS
        );
        assert!(r.cross_shed > 0, "bridge must shed: {r:?}");
        assert_eq!(
            r.intra_delivered,
            2 * BRIDGE_WORKERS as u64 * BRIDGE_INTRA_MSGS,
            "intra-island traffic never queues: {r:?}"
        );
        assert!(
            r.cross_micros.p50 > 5 * r.intra_micros.p50.max(1),
            "cross p50 {} vs intra p50 {}",
            r.cross_micros.p50,
            r.intra_micros.p50
        );
        let b = wan_bridge(1);
        assert_eq!(r, b, "bridge must replay exactly");
    }

    #[test]
    fn fresh_report_round_trips_and_passes_its_checks() {
        let report = report(
            &[1],
            &[flash_crowd(1)],
            &[gossip_storm(1)],
            &[wan_bridge(1)],
        );
        let doc = crate::report::parse(&report.to_json()).expect("parse");
        assert_eq!(doc, report.value());
        crate::report::check(&doc).expect("schema and claims");
        let cell = |section: &str| doc.list_at(section).expect("section")[0].clone();
        let opened = cell("flash_crowd").at("breaker_opened").cloned();
        assert_eq!(opened, Ok(Value::Bool(true)));
        let storm = cell("gossip_storm");
        assert_eq!(storm.str_at("drop_tail.discipline"), Ok("drop_tail"));
        assert_eq!(storm.str_at("priority.discipline"), Ok("priority"));
        assert!(cell("wan_bridge").at("cross_micros.p50").is_ok());
    }
}
