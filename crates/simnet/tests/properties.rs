//! Property-based tests for the simulator's core invariants:
//! determinism, per-link FIFO, clock monotonicity, and conservation of
//! messages (sent = delivered + dropped), all read off the simulation's
//! telemetry stream.
//!
//! The `k`-th property in this file draws case `c` from
//! `SeededRng::seed_from((k << 32) | c)`; a failure names its case and
//! seed, and replays from that seed alone.

use cscw_kernel::{Layer, SeededRng, Timestamp};
use simnet::*;

/// Every counter in a stream, as `((layer, name), value)`.
type Counters = Vec<((Layer, &'static str), u64)>;

/// Reads one Net counter out of a counter snapshot (absent reads 0).
fn net(counters: &Counters, name: &str) -> u64 {
    counters
        .iter()
        .find(|((layer, n), _)| *layer == Layer::Net && *n == name)
        .map_or(0, |&(_, v)| v)
}

/// A recorded delivery: (sender, sequence number, delivery time).
type Deliveries = Vec<(NodeId, u32, Timestamp)>;

#[derive(Debug, Default)]
struct Collector {
    received: Deliveries,
    times: Vec<Timestamp>,
}

impl Node for Collector {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        let n = msg.payload.downcast::<u32>().expect("u32 protocol");
        self.received.push((msg.from, n, ctx.now()));
        self.times.push(ctx.now());
    }
}

/// One generated send instruction.
#[derive(Debug)]
struct SendOp {
    from: usize,
    to: usize,
    size: u64,
}

/// Between 1 and `max_ops - 1` sends among `nodes` nodes.
fn send_ops(rng: &mut SeededRng, nodes: u64, max_ops: u64) -> Vec<SendOp> {
    (0..rng.range_inclusive(1, max_ops - 1))
        .map(|_| SendOp {
            from: rng.below(nodes) as usize,
            to: rng.below(nodes) as usize,
            size: rng.range_inclusive(1, 4095),
        })
        .collect()
}

fn arb_link(rng: &mut SeededRng) -> LinkSpec {
    let lat = rng.below(50);
    let jit = rng.below(20);
    let bw = rng
        .chance(0.5)
        .then(|| rng.range_inclusive(1_000, 9_999_999));
    let loss = rng.unit() * 0.3;
    let queue = rng.chance(0.5).then(|| rng.below(8) as u32);
    let mut spec = LinkSpec::fixed(lat * 1_000)
        .with_jitter(jit * 1_000)
        .with_loss(loss);
    if let Some(bw) = bw {
        spec = spec.with_bandwidth(bw);
    }
    if let Some(cap) = queue {
        spec = spec.with_queue_capacity_msgs(cap);
    }
    spec
}

/// Builds a fully-meshed sim with `n` collector nodes and runs `ops`.
fn run(n: usize, spec: LinkSpec, ops: &[SendOp], seed: u64) -> (Vec<Deliveries>, Counters) {
    let mut b = TopologyBuilder::new();
    let ids = b.add_nodes("s", n);
    b.full_mesh(spec);
    let mut sim = Sim::new(b.build(), seed);
    for &id in &ids {
        sim.register(id, Collector::default());
    }
    for (i, op) in ops.iter().enumerate() {
        sim.send_from(ids[op.from], ids[op.to], Payload::new(i as u32), op.size);
    }
    sim.run_until_idle();
    let deliveries = ids
        .iter()
        .map(|&id| sim.node::<Collector>(id).unwrap().received.clone())
        .collect();
    (deliveries, sim.telemetry().counters())
}

/// The same seed and workload always produce the identical outcome.
#[test]
fn determinism() {
    for case in 0..64 {
        let seed = (1 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let ops = send_ops(&mut rng, 4, 40);
        let spec = arb_link(&mut rng);
        let sim_seed = rng.next_u64();
        let (d1, m1) = run(4, spec, &ops, sim_seed);
        let (d2, m2) = run(4, spec, &ops, sim_seed);
        assert_eq!(d1, d2, "{at}");
        assert_eq!(m1, m2, "{at}");
    }
}

/// Messages between the same ordered pair arrive in send order
/// (per-link FIFO), whatever the jitter and bandwidth.
#[test]
fn per_link_fifo() {
    for case in 0..64 {
        let seed = (2 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let ops = send_ops(&mut rng, 3, 60);
        let spec = arb_link(&mut rng);
        let (deliveries, _) = run(3, spec, &ops, rng.next_u64());
        for per_node in &deliveries {
            // For each sender, the global sequence numbers we received
            // from that sender must be increasing.
            let mut last_seq: std::collections::HashMap<NodeId, u32> = Default::default();
            for &(from, seq, _) in per_node {
                if let Some(&prev) = last_seq.get(&from) {
                    assert!(
                        prev < seq,
                        "{at}: FIFO violated: {prev} then {seq} from {from}"
                    );
                }
                last_seq.insert(from, seq);
            }
        }
    }
}

/// Delivery timestamps observed by any node never decrease, and no
/// delivery predates its send.
#[test]
fn clock_monotonicity() {
    for case in 0..64 {
        let seed = (3 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let ops = send_ops(&mut rng, 4, 40);
        let spec = arb_link(&mut rng);
        let (deliveries, _) = run(4, spec, &ops, rng.next_u64());
        for per_node in &deliveries {
            for w in per_node.windows(2) {
                assert!(w[0].2 <= w[1].2, "{at}: node observed time going backwards");
            }
        }
    }
}

/// Every sent message is either delivered or dropped — none vanish,
/// none duplicate — and every drop is tallied under exactly one reason,
/// over lossy links with bounded egress queues.
#[test]
fn message_conservation() {
    for case in 0..64 {
        let seed = (4 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let ops = send_ops(&mut rng, 4, 60);
        let spec = arb_link(&mut rng);
        let (deliveries, counters) = run(4, spec, &ops, rng.next_u64());
        let delivered: usize = deliveries.iter().map(Vec::len).sum();
        assert_eq!(delivered as u64, net(&counters, "net.delivered"), "{at}");
        assert_eq!(ops.len() as u64, net(&counters, "net.sent"), "{at}");
        assert_eq!(
            net(&counters, "net.sent"),
            net(&counters, "net.delivered") + net(&counters, "net.dropped"),
            "{at}"
        );
        let by_reason: u64 = [
            DropReason::NoRoute,
            DropReason::Partitioned,
            DropReason::NodeDown,
            DropReason::Loss,
            DropReason::QueueFull,
        ]
        .iter()
        .map(|r| net(&counters, r.counter()))
        .sum();
        assert_eq!(net(&counters, "net.dropped"), by_reason, "{at}");
    }
}

/// With a lossless, partition-free topology every message arrives.
#[test]
fn lossless_delivers_everything() {
    for case in 0..64 {
        let seed = (5 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let ops = send_ops(&mut rng, 4, 60);
        let spec = LinkSpec::lan().with_jitter(5_000);
        let (_, counters) = run(4, spec, &ops, rng.next_u64());
        assert_eq!(net(&counters, "net.dropped"), 0, "{at}");
        assert_eq!(
            net(&counters, "net.sent"),
            net(&counters, "net.delivered"),
            "{at}"
        );
    }
}

/// A partitioned pair exchanges nothing; unrelated pairs are
/// unaffected; healing restores the pair.
#[test]
fn partition_isolates_exactly_the_pair() {
    for case in 0..64 {
        let seed = (6 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let sim_seed = rng.next_u64();
        let n_msgs = rng.range_inclusive(1, 19) as usize;
        let mut b = TopologyBuilder::new();
        let ids = b.add_nodes("s", 3);
        b.full_mesh(LinkSpec::lan());
        let mut sim = Sim::new(b.build(), sim_seed);
        for &id in &ids {
            sim.register(id, Collector::default());
        }
        sim.apply_fault(FaultAction::Partition(vec![ids[0]], vec![ids[1]]));
        for i in 0..n_msgs {
            sim.send_from(ids[0], ids[1], Payload::new(i as u32), 8);
            sim.send_from(ids[0], ids[2], Payload::new(i as u32), 8);
        }
        sim.run_until_idle();
        let received = |sim: &Sim, id| sim.node::<Collector>(id).unwrap().received.len();
        assert_eq!(received(&sim, ids[1]), 0, "{at}");
        assert_eq!(received(&sim, ids[2]), n_msgs, "{at}");

        sim.apply_fault(FaultAction::HealAll);
        for i in 0..n_msgs {
            sim.send_from(ids[0], ids[1], Payload::new(i as u32), 8);
        }
        sim.run_until_idle();
        assert_eq!(received(&sim, ids[1]), n_msgs, "{at}");
    }
}
