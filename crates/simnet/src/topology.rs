//! Network topology: nodes, links, and partitions.
//!
//! A topology is built once with [`TopologyBuilder`], then owned by the
//! simulator. Links are directed; the common bidirectional case is
//! covered by [`TopologyBuilder::link_both`]. Every ordered node pair has
//! at most one link.
//!
//! Partitions are runtime state layered over the static link set: a
//! partitioned pair drops traffic without forgetting the underlying link,
//! so healing restores the original characteristics.
//!
//! Beyond hand-wired graphs, the builder grows whole *families* at once
//! — [`ring`](TopologyBuilder::add_ring), [`star`](TopologyBuilder::add_star),
//! [`seeded-random`](TopologyBuilder::add_random) and
//! [`partitioned islands`](TopologyBuilder::add_islands) — over the pure
//! edge generators in [`shapes`], which higher-level experiment
//! harnesses reuse to shape their own peer graphs identically.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::id::NodeId;
use cscw_kernel::Timestamp;

/// Pure edge-list generators for the standard experiment families.
///
/// Each function yields undirected edges over peers indexed `0..n`,
/// independent of any simulator type — the same shapes wire `simnet`
/// topologies and federation domain graphs, so an N-site experiment
/// runs the identical structure at both layers.
pub mod shapes {
    use cscw_kernel::SeededRng;

    /// A bidirectional ring: `i — (i+1) mod n`. Empty below 2 peers;
    /// exactly one edge for 2.
    pub fn ring(n: usize) -> Vec<(usize, usize)> {
        match n {
            0 | 1 => Vec::new(),
            2 => vec![(0, 1)],
            _ => (0..n).map(|i| (i, (i + 1) % n)).collect(),
        }
    }

    /// A star: peer 0 is the hub, every other peer links to it.
    pub fn star(n: usize) -> Vec<(usize, usize)> {
        (1..n).map(|leaf| (0, leaf)).collect()
    }

    /// A seeded-random connected graph: a random spanning tree (each
    /// peer `i > 0` attaches to a uniformly drawn earlier peer) plus up
    /// to `extra` additional distinct random edges. Identical
    /// `(n, extra, seed)` triples always produce the identical edge
    /// list, in the identical order.
    pub fn random(n: usize, extra: usize, seed: u64) -> Vec<(usize, usize)> {
        if n < 2 {
            return Vec::new();
        }
        let mut rng = SeededRng::seed_from(seed);
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n - 1 + extra);
        let mut have = std::collections::BTreeSet::new();
        for i in 1..n {
            let parent = rng.below(i as u64) as usize;
            edges.push((parent, i));
            have.insert((parent.min(i), parent.max(i)));
        }
        // Bounded attempts so a dense request can't loop forever.
        let mut added = 0;
        for _ in 0..extra * 8 {
            if added >= extra {
                break;
            }
            let a = rng.below(n as u64) as usize;
            let b = rng.below(n as u64) as usize;
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if have.insert(key) {
                edges.push(key);
                added += 1;
            }
        }
        edges
    }

    /// Islands: peer groups internally ringed, joined island-to-island
    /// by single bridge edges into a path (island `k`'s first peer to
    /// island `k+1`'s first peer). Partitioning the bridges yields `k`
    /// self-contained fragments; healing reconnects the whole graph.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Islands {
        /// Peer indices per island, island-major.
        pub groups: Vec<Vec<usize>>,
        /// Intra-island edges (each island's internal ring).
        pub intra: Vec<(usize, usize)>,
        /// The inter-island bridge edges.
        pub bridges: Vec<(usize, usize)>,
    }

    /// Builds `islands` islands of `per_island` peers each.
    pub fn islands(islands: usize, per_island: usize) -> Islands {
        let mut groups = Vec::with_capacity(islands);
        let mut intra = Vec::new();
        for k in 0..islands {
            let base = k * per_island;
            let group: Vec<usize> = (base..base + per_island).collect();
            intra.extend(
                ring(per_island)
                    .into_iter()
                    .map(|(a, b)| (base + a, base + b)),
            );
            groups.push(group);
        }
        let bridges = (1..islands)
            .map(|k| ((k - 1) * per_island, k * per_island))
            .collect();
        Islands {
            groups,
            intra,
            bridges,
        }
    }
}

/// How a bounded link egress queue admits and orders waiting messages.
///
/// The discipline only matters while the wire is busy: an arrival on an
/// idle link always transmits immediately, regardless of discipline.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// Admit arrivals until the queue is full, then shed new arrivals.
    #[default]
    DropTail,
    /// Random early drop: while the wire is busy each arrival is shed
    /// with probability `p` *before* the capacity check; survivors then
    /// behave as drop-tail.
    Lossy {
        /// Early-drop probability in `[0, 1]`.
        p: f64,
    },
    /// Strict priority across `classes` transmit classes (class 0 is
    /// highest). Dequeue picks the lowest class value first, FIFO
    /// within a class; on overflow the rear-most lowest-priority
    /// waiter is evicted if the arrival outranks it, otherwise the
    /// arrival is shed.
    Priority {
        /// Number of distinct classes; send classes are clamped to
        /// `classes - 1`.
        classes: u8,
    },
}

/// Transmission characteristics of a directed link.
///
/// Delivery time for a message of `size` bytes is
/// `latency + jitter_draw + size / bandwidth`, where `jitter_draw` is
/// uniform in `[0, jitter]`. While the wire is serialising an earlier
/// message, later arrivals wait in a bounded egress queue (see
/// [`QueueDiscipline`]); with both capacities `None` the queue is
/// unbounded and the link never sheds for congestion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Fixed propagation delay, in microseconds.
    pub latency_micros: u64,
    /// Maximum additional uniform random delay, in microseconds.
    pub jitter_micros: u64,
    /// Throughput in bytes per simulated second; `None` models an
    /// uncongested link where size does not affect delay.
    pub bandwidth_bytes_per_sec: Option<u64>,
    /// Probability in `[0, 1]` that a given message is silently lost.
    pub loss_probability: f64,
    /// Maximum number of messages the egress queue holds; `None` is
    /// unbounded. `Some(0)` admits nothing while the wire is busy.
    pub queue_capacity_msgs: Option<u32>,
    /// Maximum queued payload bytes; `None` is unbounded.
    pub queue_capacity_bytes: Option<u64>,
    /// Admission and dequeue policy for the egress queue.
    pub discipline: QueueDiscipline,
}

impl LinkSpec {
    /// A symmetric LAN-like link: 1 ms latency, no jitter, lossless.
    pub fn lan() -> Self {
        LinkSpec {
            latency_micros: 1_000,
            jitter_micros: 0,
            bandwidth_bytes_per_sec: None,
            loss_probability: 0.0,
            queue_capacity_msgs: None,
            queue_capacity_bytes: None,
            discipline: QueueDiscipline::DropTail,
        }
    }

    /// A WAN-like link: 40 ms latency, 10 ms jitter, lossless.
    pub fn wan() -> Self {
        LinkSpec {
            latency_micros: 40_000,
            jitter_micros: 10_000,
            ..LinkSpec::lan()
        }
    }

    /// A link with exactly the given fixed latency (in microseconds)
    /// and nothing else.
    pub fn fixed(latency_micros: u64) -> Self {
        LinkSpec {
            latency_micros,
            jitter_micros: 0,
            ..LinkSpec::lan()
        }
    }

    /// Returns a copy with the given loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss_probability = p;
        self
    }

    /// Returns a copy with the given bandwidth in bytes per second.
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.bandwidth_bytes_per_sec = Some(bytes_per_sec);
        self
    }

    /// Returns a copy with the given jitter bound, in microseconds.
    pub fn with_jitter(mut self, jitter_micros: u64) -> Self {
        self.jitter_micros = jitter_micros;
        self
    }

    /// Returns a copy whose egress queue holds at most `msgs` messages.
    pub fn with_queue_capacity_msgs(mut self, msgs: u32) -> Self {
        self.queue_capacity_msgs = Some(msgs);
        self
    }

    /// Returns a copy whose egress queue holds at most `bytes` payload
    /// bytes.
    pub fn with_queue_capacity_bytes(mut self, bytes: u64) -> Self {
        self.queue_capacity_bytes = Some(bytes);
        self
    }

    /// Returns a copy using the given queue discipline.
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// True when either queue capacity is bounded — only then can the
    /// link shed for congestion.
    pub fn is_queue_bounded(&self) -> bool {
        self.queue_capacity_msgs.is_some() || self.queue_capacity_bytes.is_some()
    }

    /// The size-dependent serialisation delay for `size` bytes, in
    /// microseconds (`u64::MAX` on a zero-bandwidth link).
    pub fn transmission_delay(&self, size_bytes: u64) -> u64 {
        match self.bandwidth_bytes_per_sec {
            None => 0,
            Some(0) => u64::MAX,
            Some(bw) => {
                // micros = bytes * 1e6 / bw, rounded up so a non-empty
                // message never transmits in zero time.
                let micros = (size_bytes as u128 * 1_000_000).div_ceil(bw as u128);
                micros.min(u64::MAX as u128) as u64
            }
        }
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::lan()
    }
}

/// Incrementally builds a [`Topology`].
///
/// # Examples
///
/// ```
/// use simnet::{LinkSpec, TopologyBuilder};
///
/// let mut b = TopologyBuilder::new();
/// let a = b.add_node("barcelona");
/// let c = b.add_node("lancaster");
/// b.link_both(a, c, LinkSpec::wan());
/// let topo = b.build();
/// assert_eq!(topo.node_count(), 2);
/// assert!(topo.link(a, c).is_some());
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    names: Vec<String>,
    links: BTreeMap<(NodeId, NodeId), LinkSpec>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a node and returns its id. Names are for traces only and
    /// need not be unique.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.names.len() as u32);
        self.names.push(name.into());
        id
    }

    /// Adds `n` nodes named `prefix0..prefixN-1`, returning their ids.
    pub fn add_nodes(&mut self, prefix: &str, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|i| self.add_node(format!("{prefix}{i}")))
            .collect()
    }

    /// Adds (or replaces) the directed link `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if either node id was not produced by this builder, or if
    /// `from == to` (local delivery needs no link).
    pub fn link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) -> &mut Self {
        assert!(from.index() < self.names.len(), "unknown `from` node");
        assert!(to.index() < self.names.len(), "unknown `to` node");
        assert_ne!(from, to, "self-links are implicit");
        self.links.insert((from, to), spec);
        self
    }

    /// Adds the link in both directions with the same spec.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TopologyBuilder::link`].
    pub fn link_both(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> &mut Self {
        self.link(a, b, spec);
        self.link(b, a, spec);
        self
    }

    /// Fully connects every distinct ordered pair with `spec`.
    pub fn full_mesh(&mut self, spec: LinkSpec) -> &mut Self {
        let n = self.names.len() as u32;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    self.links.insert((NodeId(i), NodeId(j)), spec);
                }
            }
        }
        self
    }

    /// Adds `n` nodes wired into a bidirectional ring.
    ///
    /// Returns the node ids in ring order.
    pub fn add_ring(&mut self, prefix: &str, n: usize, spec: LinkSpec) -> Vec<NodeId> {
        let ids = self.add_nodes(prefix, n);
        for (a, b) in shapes::ring(n) {
            self.link_both(ids[a], ids[b], spec);
        }
        ids
    }

    /// Adds `n` nodes wired into a star. The first returned id is the
    /// hub; the rest are leaves linked only to it.
    pub fn add_star(&mut self, prefix: &str, n: usize, spec: LinkSpec) -> Vec<NodeId> {
        let ids = self.add_nodes(prefix, n);
        for (hub, leaf) in shapes::star(n) {
            self.link_both(ids[hub], ids[leaf], spec);
        }
        ids
    }

    /// Adds `n` nodes wired into a seeded-random connected graph (a
    /// random spanning tree plus up to `extra` additional edges).
    /// Identical `(n, extra, seed)` triples wire identical graphs.
    pub fn add_random(
        &mut self,
        prefix: &str,
        n: usize,
        extra: usize,
        seed: u64,
        spec: LinkSpec,
    ) -> Vec<NodeId> {
        let ids = self.add_nodes(prefix, n);
        for (a, b) in shapes::random(n, extra, seed) {
            self.link_both(ids[a], ids[b], spec);
        }
        ids
    }

    /// Adds `islands × per_island` nodes as internally-ringed islands
    /// joined by single bridge links (`intra` spec inside an island,
    /// `bridge` spec between islands). The returned [`IslandPlan`]
    /// carries the groups so a harness can partition the islands apart
    /// and schedule the heal that reconnects them.
    pub fn add_islands(
        &mut self,
        prefix: &str,
        islands: usize,
        per_island: usize,
        intra: LinkSpec,
        bridge: LinkSpec,
    ) -> IslandPlan {
        let shape = shapes::islands(islands, per_island);
        let ids = self.add_nodes(prefix, islands * per_island);
        for &(a, b) in &shape.intra {
            self.link_both(ids[a], ids[b], intra);
        }
        for &(a, b) in &shape.bridges {
            self.link_both(ids[a], ids[b], bridge);
        }
        IslandPlan {
            groups: shape
                .groups
                .iter()
                .map(|g| g.iter().map(|&i| ids[i]).collect())
                .collect(),
            bridges: shape
                .bridges
                .iter()
                .map(|&(a, b)| (ids[a], ids[b]))
                .collect(),
        }
    }

    /// Finalises the topology.
    pub fn build(self) -> Topology {
        Topology {
            names: self.names,
            links: self.links,
            partitioned_pairs: BTreeSet::new(),
            down_nodes: BTreeSet::new(),
        }
    }
}

/// The island layout produced by [`TopologyBuilder::add_islands`]:
/// which nodes form each island, and which links bridge them.
///
/// The plan turns "islands that heal" into scheduled simulator events:
/// [`schedule_partition`](Self::schedule_partition) severs every
/// island pair at a simulated instant, and
/// [`schedule_heal`](Self::schedule_heal) restores them later — no
/// harness intervention between the two.
#[derive(Debug, Clone)]
pub struct IslandPlan {
    /// Node ids per island, island-major.
    pub groups: Vec<Vec<NodeId>>,
    /// The inter-island bridge links (as built, before partitions).
    pub bridges: Vec<(NodeId, NodeId)>,
}

impl IslandPlan {
    /// The partition actions severing every pair of islands.
    pub fn partition_actions(&self) -> Vec<crate::sim::FaultAction> {
        let mut actions = Vec::new();
        for i in 0..self.groups.len() {
            for j in (i + 1)..self.groups.len() {
                actions.push(crate::sim::FaultAction::Partition(
                    self.groups[i].clone(),
                    self.groups[j].clone(),
                ));
            }
        }
        actions
    }

    /// The heal actions restoring every pair of islands.
    pub fn heal_actions(&self) -> Vec<crate::sim::FaultAction> {
        self.partition_actions()
            .into_iter()
            .map(|a| match a {
                crate::sim::FaultAction::Partition(x, y) => crate::sim::FaultAction::Heal(x, y),
                other => other,
            })
            .collect()
    }

    /// Schedules the partition of all islands at `at`.
    pub fn schedule_partition(&self, sim: &mut crate::sim::Sim, at: Timestamp) {
        for action in self.partition_actions() {
            sim.schedule_fault(at, action);
        }
    }

    /// Schedules the heal of all islands at `at`.
    pub fn schedule_heal(&self, sim: &mut crate::sim::Sim, at: Timestamp) {
        for action in self.heal_actions() {
            sim.schedule_fault(at, action);
        }
    }
}

/// The static link structure plus runtime partition/crash state.
#[derive(Debug, Clone)]
pub struct Topology {
    names: Vec<String>,
    links: BTreeMap<(NodeId, NodeId), LinkSpec>,
    partitioned_pairs: BTreeSet<(NodeId, NodeId)>,
    down_nodes: BTreeSet<NodeId>,
}

impl Topology {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// The trace name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this topology.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// The directed link spec `from -> to`, if one exists.
    pub fn link(&self, from: NodeId, to: NodeId) -> Option<&LinkSpec> {
        self.links.get(&(from, to))
    }

    /// True when traffic can currently flow `from -> to`: a link exists,
    /// the pair is not partitioned, and both endpoints are up.
    ///
    /// Local delivery (`from == to`) only requires the node to be up.
    pub fn can_reach(&self, from: NodeId, to: NodeId) -> bool {
        if self.down_nodes.contains(&from) || self.down_nodes.contains(&to) {
            return false;
        }
        if from == to {
            return true;
        }
        self.links.contains_key(&(from, to)) && !self.partitioned_pairs.contains(&(from, to))
    }

    /// Severs traffic between the two groups, in both directions.
    ///
    /// Links inside each group are unaffected. Idempotent.
    pub fn partition(&mut self, group_a: &[NodeId], group_b: &[NodeId]) {
        for &a in group_a {
            for &b in group_b {
                self.partitioned_pairs.insert((a, b));
                self.partitioned_pairs.insert((b, a));
            }
        }
    }

    /// Removes every partition, restoring the built link set.
    pub fn heal_all(&mut self) {
        self.partitioned_pairs.clear();
    }

    /// Restores traffic between the two groups only.
    pub fn heal(&mut self, group_a: &[NodeId], group_b: &[NodeId]) {
        for &a in group_a {
            for &b in group_b {
                self.partitioned_pairs.remove(&(a, b));
                self.partitioned_pairs.remove(&(b, a));
            }
        }
    }

    /// Marks a node as crashed: it neither sends nor receives until
    /// [`Topology::restart_node`].
    pub fn crash_node(&mut self, node: NodeId) {
        self.down_nodes.insert(node);
    }

    /// Brings a crashed node back up.
    pub fn restart_node(&mut self, node: NodeId) {
        self.down_nodes.remove(&node);
    }

    /// True when the node is currently crashed.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down_nodes.contains(&node)
    }

    /// True when the ordered pair is currently partitioned. Unlike
    /// [`Topology::can_reach`] this ignores crash state, so the caller
    /// can distinguish "link severed" from "endpoint down".
    pub fn is_partitioned(&self, from: NodeId, to: NodeId) -> bool {
        self.partitioned_pairs.contains(&(from, to))
    }

    /// Iterates over the out-neighbours of `from` (ignoring partitions),
    /// in ascending `NodeId` order — the link table is a `BTreeMap`, so
    /// anything scheduled off this order replays identically (R5).
    pub fn neighbours(&self, from: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.links
            .keys()
            .filter(move |(f, _)| *f == from)
            .map(|&(_, t)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscw_kernel::Layer;

    fn three_node_line() -> (Topology, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let m = b.add_node("m");
        let c = b.add_node("c");
        b.link_both(a, m, LinkSpec::lan());
        b.link_both(m, c, LinkSpec::lan());
        (b.build(), a, m, c)
    }

    #[test]
    fn links_are_directed_and_queryable() {
        let (t, a, m, c) = three_node_line();
        assert!(t.link(a, m).is_some());
        assert!(t.link(a, c).is_none());
        assert!(t.can_reach(a, m));
        assert!(!t.can_reach(a, c));
        assert!(
            t.can_reach(a, a),
            "local delivery always possible on an up node"
        );
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let (mut t, a, m, _c) = three_node_line();
        t.partition(&[a], &[m]);
        assert!(!t.can_reach(a, m));
        assert!(!t.can_reach(m, a));
        t.heal(&[a], &[m]);
        assert!(t.can_reach(a, m));
    }

    #[test]
    fn heal_all_clears_every_partition() {
        let (mut t, a, m, c) = three_node_line();
        t.partition(&[a], &[m, c]);
        assert!(!t.can_reach(a, m));
        t.heal_all();
        assert!(t.can_reach(a, m));
    }

    #[test]
    fn crashed_node_is_unreachable_both_ways() {
        let (mut t, a, m, _c) = three_node_line();
        t.crash_node(m);
        assert!(!t.can_reach(a, m));
        assert!(!t.can_reach(m, a));
        assert!(!t.can_reach(m, m));
        t.restart_node(m);
        assert!(t.can_reach(a, m));
    }

    #[test]
    fn full_mesh_connects_all_pairs() {
        let mut b = TopologyBuilder::new();
        let ids = b.add_nodes("s", 4);
        b.full_mesh(LinkSpec::lan());
        let t = b.build();
        for &i in &ids {
            for &j in &ids {
                if i != j {
                    assert!(t.can_reach(i, j));
                }
            }
        }
    }

    #[test]
    fn transmission_delay_rounds_up() {
        let spec = LinkSpec::lan().with_bandwidth(1_000_000); // 1 MB/s -> 1 µs/byte
        assert_eq!(spec.transmission_delay(0), 0);
        assert_eq!(spec.transmission_delay(1), 1);
        assert_eq!(spec.transmission_delay(1_000), 1_000);
        let none = LinkSpec::lan();
        assert_eq!(none.transmission_delay(1 << 30), 0);
    }

    #[test]
    fn zero_bandwidth_never_delivers() {
        let spec = LinkSpec::lan().with_bandwidth(0);
        assert_eq!(spec.transmission_delay(1), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        b.link(a, a, LinkSpec::lan());
    }

    #[test]
    fn neighbours_lists_out_edges() {
        let (t, a, m, c) = three_node_line();
        let mut n: Vec<_> = t.neighbours(m).collect();
        n.sort();
        assert_eq!(n, vec![a, c]);
    }

    #[test]
    fn ring_star_and_random_shapes_have_expected_edge_counts() {
        assert_eq!(shapes::ring(1), vec![]);
        assert_eq!(shapes::ring(2), vec![(0, 1)]);
        assert_eq!(shapes::ring(4).len(), 4);
        assert_eq!(shapes::star(5), vec![(0, 1), (0, 2), (0, 3), (0, 4)]);
        // Random: spanning tree has n-1 edges, plus up to `extra`.
        let r = shapes::random(16, 4, 9);
        assert!(r.len() >= 15 && r.len() <= 19, "{} edges", r.len());
    }

    #[test]
    fn random_shape_is_deterministic_per_seed_and_connected() {
        assert_eq!(shapes::random(32, 8, 1), shapes::random(32, 8, 1));
        assert_ne!(shapes::random(32, 8, 1), shapes::random(32, 8, 2));
        // Connectivity: union-find over the edges reaches every peer.
        let edges = shapes::random(32, 8, 3);
        let mut parent: Vec<usize> = (0..32).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for (a, b) in edges {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra] = rb;
        }
        let root = find(&mut parent, 0);
        assert!(
            (0..32).all(|i| find(&mut parent, i) == root),
            "random graph must be connected"
        );
    }

    #[test]
    fn island_shape_partitions_into_groups_joined_by_bridges() {
        let shape = shapes::islands(3, 4);
        assert_eq!(shape.groups.len(), 3);
        assert_eq!(shape.groups[1], vec![4, 5, 6, 7]);
        assert_eq!(shape.bridges, vec![(0, 4), (4, 8)]);
        // Each island is internally ringed: 4 edges per 4-node island.
        assert_eq!(shape.intra.len(), 12);
    }

    #[test]
    fn builder_families_wire_reachable_graphs() {
        let mut b = TopologyBuilder::new();
        let ring = b.add_ring("r", 5, LinkSpec::lan());
        let star = b.add_star("s", 4, LinkSpec::lan());
        let rand = b.add_random("x", 6, 2, 7, LinkSpec::lan());
        let t = b.build();
        assert!(t.can_reach(ring[0], ring[1]));
        assert!(t.can_reach(ring[4], ring[0]), "ring closes");
        assert!(t.can_reach(star[1], star[0]), "leaf reaches hub");
        assert!(t.link(star[1], star[2]).is_none(), "leaves not adjacent");
        // The random spanning tree guarantees node 0 links downward.
        assert!(t.neighbours(rand[0]).count() >= 1);
    }

    #[test]
    fn islands_partition_and_heal_at_scheduled_times() {
        use crate::payload::Payload;
        use crate::sim::Sim;

        let mut b = TopologyBuilder::new();
        let plan = b.add_islands("i", 2, 2, LinkSpec::lan(), LinkSpec::wan());
        let (left, right) = (plan.groups[0][0], plan.groups[1][0]);
        let mut sim = Sim::new(b.build(), 1);
        plan.schedule_partition(&mut sim, Timestamp::ZERO);
        plan.schedule_heal(&mut sim, Timestamp::from_millis(500));

        // While partitioned, a cross-island send is dropped...
        sim.run_until(Timestamp::from_millis(100));
        assert!(!sim.topology().can_reach(left, right));
        sim.send_from(left, right, Payload::new(1u32), 8);
        sim.run_until(Timestamp::from_millis(200));
        assert_eq!(
            sim.telemetry()
                .counter(Layer::Net, "net.dropped_partitioned"),
            1
        );
        // ...intra-island traffic still flows...
        let (a0, a1) = (plan.groups[0][0], plan.groups[0][1]);
        sim.send_from(a0, a1, Payload::new(2u32), 8);
        sim.run_until(Timestamp::from_millis(300));
        assert_eq!(sim.telemetry().counter(Layer::Net, "net.delivered"), 1);
        // ...and after the scheduled heal the bridge carries again.
        sim.run_until(Timestamp::from_millis(600));
        assert!(sim.topology().can_reach(left, right));
        sim.send_from(left, right, Payload::new(3u32), 8);
        sim.run_until_idle();
        assert_eq!(sim.telemetry().counter(Layer::Net, "net.delivered"), 2);
    }
}
