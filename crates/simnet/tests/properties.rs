//! Property-based tests for the simulator's core invariants:
//! determinism, per-link FIFO, clock monotonicity, and conservation of
//! messages (sent = delivered + dropped), all read off the simulation's
//! telemetry stream.

use cscw_kernel::{Layer, Timestamp};
use proptest::prelude::*;
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

/// One send instruction generated by proptest.
#[derive(Debug, Clone)]
struct SendOp {
    from: usize,
    to: usize,
    size: u64,
}

fn send_ops(nodes: usize, max_ops: usize) -> impl Strategy<Value = Vec<SendOp>> {
    prop::collection::vec(
        (0..nodes, 0..nodes, 1u64..4096).prop_map(|(from, to, size)| SendOp { from, to, size }),
        1..max_ops,
    )
}

fn arb_link() -> impl Strategy<Value = LinkSpec> {
    (
        0u64..50,
        0u64..20,
        prop::option::of(1_000u64..10_000_000),
        0.0f64..0.3,
        prop::option::of(0u32..8),
    )
        .prop_map(|(lat, jit, bw, loss, queue)| {
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
        })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same seed and workload always produce the identical outcome.
    #[test]
    fn determinism(ops in send_ops(4, 40), spec in arb_link(), seed in any::<u64>()) {
        let (d1, m1) = run(4, spec, &ops, seed);
        let (d2, m2) = run(4, spec, &ops, seed);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(m1, m2);
    }

    /// Messages between the same ordered pair arrive in send order
    /// (per-link FIFO), whatever the jitter and bandwidth.
    #[test]
    fn per_link_fifo(ops in send_ops(3, 60), spec in arb_link(), seed in any::<u64>()) {
        let (deliveries, _) = run(3, spec, &ops, seed);
        for per_node in &deliveries {
            // For each sender, the global sequence numbers we received
            // from that sender must be increasing.
            let mut last_seq: std::collections::HashMap<NodeId, u32> = Default::default();
            for &(from, seq, _) in per_node {
                if let Some(&prev) = last_seq.get(&from) {
                    prop_assert!(prev < seq, "FIFO violated: {prev} then {seq} from {from}");
                }
                last_seq.insert(from, seq);
            }
        }
    }

    /// Delivery timestamps observed by any node never decrease, and no
    /// delivery predates its send.
    #[test]
    fn clock_monotonicity(ops in send_ops(4, 40), spec in arb_link(), seed in any::<u64>()) {
        let (deliveries, _) = run(4, spec, &ops, seed);
        for per_node in &deliveries {
            for w in per_node.windows(2) {
                prop_assert!(w[0].2 <= w[1].2, "node observed time going backwards");
            }
        }
    }

    /// Every sent message is either delivered or dropped — none vanish,
    /// none duplicate — and every drop is tallied under exactly one
    /// reason, over lossy links with bounded egress queues.
    #[test]
    fn message_conservation(ops in send_ops(4, 60), spec in arb_link(), seed in any::<u64>()) {
        let (deliveries, counters) = run(4, spec, &ops, seed);
        let delivered: usize = deliveries.iter().map(Vec::len).sum();
        prop_assert_eq!(delivered as u64, net(&counters, "net.delivered"));
        prop_assert_eq!(ops.len() as u64, net(&counters, "net.sent"));
        prop_assert_eq!(
            net(&counters, "net.sent"),
            net(&counters, "net.delivered") + net(&counters, "net.dropped")
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
        prop_assert_eq!(net(&counters, "net.dropped"), by_reason);
    }

    /// With a lossless, partition-free topology every message arrives.
    #[test]
    fn lossless_delivers_everything(ops in send_ops(4, 60), seed in any::<u64>()) {
        let spec = LinkSpec::lan().with_jitter(5_000);
        let (_, counters) = run(4, spec, &ops, seed);
        prop_assert_eq!(net(&counters, "net.dropped"), 0);
        prop_assert_eq!(net(&counters, "net.sent"), net(&counters, "net.delivered"));
    }

    /// A partitioned pair exchanges nothing; unrelated pairs are
    /// unaffected; healing restores the pair.
    #[test]
    fn partition_isolates_exactly_the_pair(seed in any::<u64>(), n_msgs in 1usize..20) {
        let mut b = TopologyBuilder::new();
        let ids = b.add_nodes("s", 3);
        b.full_mesh(LinkSpec::lan());
        let mut sim = Sim::new(b.build(), seed);
        for &id in &ids {
            sim.register(id, Collector::default());
        }
        sim.apply_fault(FaultAction::Partition(vec![ids[0]], vec![ids[1]]));
        for i in 0..n_msgs {
            sim.send_from(ids[0], ids[1], Payload::new(i as u32), 8);
            sim.send_from(ids[0], ids[2], Payload::new(i as u32), 8);
        }
        sim.run_until_idle();
        prop_assert_eq!(sim.node::<Collector>(ids[1]).unwrap().received.len(), 0);
        prop_assert_eq!(sim.node::<Collector>(ids[2]).unwrap().received.len(), n_msgs);

        sim.apply_fault(FaultAction::HealAll);
        for i in 0..n_msgs {
            sim.send_from(ids[0], ids[1], Payload::new(i as u32), 8);
        }
        sim.run_until_idle();
        prop_assert_eq!(sim.node::<Collector>(ids[1]).unwrap().received.len(), n_msgs);
    }
}
