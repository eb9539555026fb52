//! Event-driven federation runtime.
//!
//! Earlier revisions of the federation were *hand-cranked*: a
//! coordinator looped over one gossip round across every link and one
//! drain of every delivery queue, so every site gossiped in lockstep,
//! offer TTLs only expired when somebody happened to query, and nothing
//! resembled the autonomous channels of RM-ODP's engineering viewpoint.
//! This module folds those three activities — anti-entropy gossip,
//! offer-TTL expiry and delivery pumping — into the kernel's
//! deterministic scheduler ([`cscw_kernel::EventQueue`]): each site
//! owns periodic timers with seeded, jittered phases
//! ([`cscw_kernel::Periodic`]), so a 128-site federation interleaves
//! naturally instead of thundering.
//!
//! Division of labour: the runtime executes *fabric-local* events
//! itself (TTL sweeps, scheduled link state changes) and surfaces the
//! events that need environment machinery — gossip exchanges ride each
//! destination's transport, deliveries land in application inboxes —
//! as [`Pulse`] values from [`FederationRuntime::poll`]. The
//! environment layer (`mocca`) drives `poll` in a loop, and that loop
//! (`run_for` / `run_until_converged`) is its only federation driver.
//!
//! Determinism contract: sites are installed in sorted domain order,
//! every phase derives from `(seed, site index)`, and the queue pops
//! in `(time, enqueue-sequence)` order — identical seeds replay
//! bit-for-bit.

use std::collections::BTreeMap;

use cscw_kernel::{EventQueue, Layer, Periodic, Telemetry, Timestamp};
use odp::LinkState;

use crate::fabric::FederationFabric;

/// Per-site anti-entropy gossip period (250 simulated ms).
pub const DEFAULT_GOSSIP_PERIOD_MICROS: u64 = 250_000;
/// Per-site delivery-pump period (50 simulated ms).
pub const DEFAULT_PUMP_PERIOD_MICROS: u64 = 50_000;
/// Fabric-wide offer-TTL sweep period (1 simulated second).
pub const DEFAULT_TTL_SWEEP_PERIOD_MICROS: u64 = 1_000_000;

/// A scheduled federation event. `GossipPulse` / `PumpInbound` need
/// environment machinery and surface as [`Pulse`]s; `TtlSweep` /
/// `LinkChange` are fabric-local and the runtime executes them itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FedEvent {
    /// A site's anti-entropy gossip timer fired.
    GossipPulse {
        /// The gossiping domain.
        site: String,
    },
    /// A site's delivery-pump timer fired.
    PumpInbound {
        /// The draining domain.
        site: String,
    },
    /// The fabric-wide offer-TTL sweep timer fired.
    TtlSweep,
    /// A scheduled link health transition (partition or heal).
    LinkChange {
        /// Link source domain.
        from: String,
        /// Link destination domain.
        to: String,
        /// The state the link transitions to.
        state: LinkState,
    },
}

/// An event the environment driver must act on: the runtime has no
/// access to transports or application inboxes, so it hands these up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pulse {
    /// Run one anti-entropy exchange from `site` over its up
    /// out-links.
    Gossip {
        /// The gossiping domain.
        site: String,
    },
    /// Drain `site`'s queued inbound remote deliveries.
    Pump {
        /// The draining domain.
        site: String,
    },
}

/// The scheduler driving a federation: per-site periodic gossip and
/// pump timers plus a fabric-wide TTL sweep, all on one deterministic
/// event queue.
#[derive(Debug)]
pub struct FederationRuntime {
    fabric: FederationFabric,
    queue: EventQueue<FedEvent>,
    seed: u64,
    gossip: BTreeMap<String, Periodic>,
    pump: BTreeMap<String, Periodic>,
    gossip_deferrals: BTreeMap<String, u32>,
    ttl_sweep: Periodic,
    installed: u64,
    telemetry: Telemetry,
}

impl FederationRuntime {
    /// A runtime over `fabric`'s current domains (installed in sorted
    /// domain order, so phase assignment is deterministic), every
    /// jittered phase derived from `seed`.
    pub fn new(fabric: FederationFabric, seed: u64) -> Self {
        let telemetry = fabric.telemetry();
        let ttl_sweep = Periodic::every(DEFAULT_TTL_SWEEP_PERIOD_MICROS);
        let mut rt = FederationRuntime {
            fabric: fabric.clone(),
            queue: EventQueue::new(),
            seed,
            gossip: BTreeMap::new(),
            pump: BTreeMap::new(),
            gossip_deferrals: BTreeMap::new(),
            ttl_sweep,
            installed: 0,
            telemetry,
        };
        rt.queue
            .schedule(rt.ttl_sweep.next_after(Timestamp::ZERO), FedEvent::TtlSweep);
        for domain in fabric.domains() {
            rt.install_site(&domain);
        }
        rt
    }

    /// Installs periodic gossip and pump timers for a site that joined
    /// the fabric after construction. Phases derive from `(seed,
    /// install index)`; installing sites in a deterministic order
    /// keeps runs reproducible. Reinstalling an existing site is a
    /// no-op.
    pub fn install_site(&mut self, domain: &str) {
        if self.gossip.contains_key(domain) {
            return;
        }
        let index = self.installed;
        self.installed += 1;
        let gossip = Periodic::jittered(DEFAULT_GOSSIP_PERIOD_MICROS, self.seed, index);
        // Decorrelate the pump phase from the gossip phase so the two
        // timers do not ride the same grid.
        let pump = Periodic::jittered(
            DEFAULT_PUMP_PERIOD_MICROS,
            self.seed ^ 0x5055_4D50, // "PUMP"
            index,
        );
        let now = self.queue.now();
        self.queue.schedule(
            gossip.first().max(now),
            FedEvent::GossipPulse {
                site: domain.to_owned(),
            },
        );
        self.queue.schedule(
            pump.first().max(now),
            FedEvent::PumpInbound {
                site: domain.to_owned(),
            },
        );
        self.gossip.insert(domain.to_owned(), gossip);
        self.pump.insert(domain.to_owned(), pump);
        self.telemetry
            .incr(Layer::Federation, "federation.runtime.site");
    }

    /// Schedules a link health transition at absolute time `at` —
    /// partitions and heals become first-class events instead of
    /// out-of-band pokes between rounds.
    pub fn schedule_link_change(&mut self, at: Timestamp, from: &str, to: &str, state: LinkState) {
        self.queue.schedule(
            at,
            FedEvent::LinkChange {
                from: from.to_owned(),
                to: to.to_owned(),
                state,
            },
        );
    }

    /// The runtime's current simulated time (time of the last event).
    pub fn now(&self) -> Timestamp {
        self.queue.now()
    }

    /// The fabric this runtime drives.
    pub fn fabric(&self) -> &FederationFabric {
        &self.fabric
    }

    /// Backpressure hook: swallow `site`'s next `pulses` gossip pulses
    /// instead of surfacing them from [`FederationRuntime::poll`]. The
    /// periodic timer keeps ticking (phases stay deterministic); the
    /// pulses are simply not handed to the environment, so a congested
    /// transport gets `pulses` gossip periods of quiet. Calls
    /// accumulate.
    pub fn defer_gossip(&mut self, site: &str, pulses: u32) {
        if pulses == 0 {
            return;
        }
        *self.gossip_deferrals.entry(site.to_owned()).or_insert(0) += pulses;
    }

    /// Advances through scheduled events up to `deadline`. Fabric-local
    /// events (TTL sweeps, link changes) execute internally; the first
    /// event needing the environment layer returns as a [`Pulse`] with
    /// its fire time. Returns `None` once no pulse is due by
    /// `deadline`, leaving the clock at `deadline`.
    pub fn poll(&mut self, deadline: Timestamp) -> Option<(Timestamp, Pulse)> {
        loop {
            match self.queue.peek_at() {
                Some(at) if at <= deadline => {}
                _ => {
                    self.queue.advance_to(deadline);
                    return None;
                }
            }
            let (at, event) = self.queue.pop()?;
            match event {
                FedEvent::GossipPulse { site } => {
                    if let Some(p) = self.gossip.get(&site) {
                        self.queue.schedule(
                            p.next_after(at),
                            FedEvent::GossipPulse { site: site.clone() },
                        );
                    }
                    if let Some(left) = self.gossip_deferrals.get_mut(&site) {
                        *left -= 1;
                        if *left == 0 {
                            self.gossip_deferrals.remove(&site);
                        }
                        self.telemetry
                            .incr(Layer::Federation, "federation.runtime.gossip.deferred");
                        continue;
                    }
                    self.telemetry
                        .incr(Layer::Federation, "federation.runtime.gossip.pulse");
                    return Some((at, Pulse::Gossip { site }));
                }
                FedEvent::PumpInbound { site } => {
                    if let Some(p) = self.pump.get(&site) {
                        self.queue.schedule(
                            p.next_after(at),
                            FedEvent::PumpInbound { site: site.clone() },
                        );
                    }
                    self.telemetry
                        .incr(Layer::Federation, "federation.runtime.pump.pulse");
                    return Some((at, Pulse::Pump { site }));
                }
                FedEvent::TtlSweep => {
                    self.queue
                        .schedule(self.ttl_sweep.next_after(at), FedEvent::TtlSweep);
                    self.fabric.expire_offer_cache(at);
                    self.telemetry
                        .incr(Layer::Federation, "federation.runtime.ttl.sweep");
                }
                FedEvent::LinkChange { from, to, state } => {
                    self.fabric.set_link_state(&from, &to, state);
                    self.telemetry
                        .incr(Layer::Federation, "federation.runtime.link.change");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FederationPort;
    use cscw_messaging::gossip::GossipFrame;

    fn three_site_fabric() -> FederationFabric {
        let fabric = FederationFabric::new();
        for d in ["site-a", "site-b", "site-c"] {
            fabric.join(d);
        }
        fabric.link_bidi("site-a", "site-b");
        fabric.link_bidi("site-b", "site-c");
        fabric
    }

    fn pulse_trace(seed: u64, until_micros: u64) -> Vec<(u64, Pulse)> {
        let mut rt = FederationRuntime::new(three_site_fabric(), seed);
        let deadline = Timestamp::from_micros(until_micros);
        let mut trace = Vec::new();
        while let Some((at, pulse)) = rt.poll(deadline) {
            trace.push((at.as_micros(), pulse));
        }
        trace
    }

    #[test]
    fn pulse_schedule_is_deterministic_per_seed() {
        let a = pulse_trace(1, 2_000_000);
        let b = pulse_trace(1, 2_000_000);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(
            a,
            pulse_trace(2, 2_000_000),
            "different seeds must differ in phase"
        );
        // Every site both gossips and pumps within the window.
        for site in ["site-a", "site-b", "site-c"] {
            let s = site.to_owned();
            assert!(a
                .iter()
                .any(|(_, p)| *p == Pulse::Gossip { site: s.clone() }));
            assert!(a.iter().any(|(_, p)| *p == Pulse::Pump { site: s.clone() }));
        }
    }

    #[test]
    fn jittered_phases_spread_sites_within_a_period() {
        let trace = pulse_trace(7, DEFAULT_GOSSIP_PERIOD_MICROS);
        let gossip_times: Vec<u64> = trace
            .iter()
            .filter(|(_, p)| matches!(p, Pulse::Gossip { .. }))
            .map(|(at, _)| *at)
            .collect();
        assert_eq!(gossip_times.len(), 3, "each site gossips once per period");
        let distinct: std::collections::BTreeSet<u64> = gossip_times.into_iter().collect();
        assert!(distinct.len() > 1, "sites must not fire in lockstep");
    }

    #[test]
    fn ttl_sweep_expires_cached_offers_without_any_query() {
        let fabric = FederationFabric::new();
        let mut a = fabric.join("site-a");
        let mut b = fabric.join("site-b");
        fabric.link_bidi("site-a", "site-b");
        b.advertise_app("com");
        a.resolve_app("com", Timestamp::ZERO)
            .expect("federated resolve");
        assert_eq!(fabric.offer_cache_len(), 1);

        let mut rt = FederationRuntime::new(fabric.clone(), 1);
        // Drain pulses past the 5s default TTL; no resolve_app call
        // happens anywhere in this window.
        while rt.poll(Timestamp::from_micros(6_000_000)).is_some() {}
        assert_eq!(
            fabric.offer_cache_len(),
            0,
            "sweep must expire the offer with no query"
        );
        assert_eq!(
            fabric
                .telemetry()
                .counter(Layer::Federation, "federation.ttl.expired"),
            1
        );
    }

    #[test]
    fn scheduled_link_changes_apply_at_their_time() {
        let fabric = three_site_fabric();
        let mut rt = FederationRuntime::new(fabric.clone(), 1);
        rt.schedule_link_change(
            Timestamp::from_micros(100_000),
            "site-a",
            "site-b",
            LinkState::Down,
        );
        rt.schedule_link_change(
            Timestamp::from_micros(300_000),
            "site-a",
            "site-b",
            LinkState::Up,
        );
        let link_state = |fabric: &FederationFabric| {
            fabric
                .links()
                .iter()
                .find(|(f, t, _)| f == "site-a" && t == "site-b")
                .map(|(_, _, s)| *s)
                .expect("link exists")
        };
        while rt.poll(Timestamp::from_micros(50_000)).is_some() {}
        assert_eq!(link_state(&fabric), LinkState::Up);
        while rt.poll(Timestamp::from_micros(200_000)).is_some() {}
        assert_eq!(link_state(&fabric), LinkState::Down);
        while rt.poll(Timestamp::from_micros(400_000)).is_some() {}
        assert_eq!(link_state(&fabric), LinkState::Up);
    }

    #[test]
    fn deferred_gossip_pulses_are_swallowed_then_resume() {
        let fabric = three_site_fabric();
        let mut rt = FederationRuntime::new(fabric.clone(), 5);
        rt.defer_gossip("site-a", 2);
        let deadline = Timestamp::from_micros(2_000_000);
        let mut site_a_gossips = Vec::new();
        while let Some((at, pulse)) = rt.poll(deadline) {
            if let Pulse::Gossip { site } = pulse {
                if site == "site-a" {
                    site_a_gossips.push(at.as_micros());
                }
            }
        }
        // ~8 gossip periods fit in 2s; the first two site-a pulses are
        // swallowed, so the first surfaced one fires in period 3+.
        assert!(!site_a_gossips.is_empty(), "gossip must resume");
        assert!(
            site_a_gossips[0] > 2 * DEFAULT_GOSSIP_PERIOD_MICROS,
            "first surfaced pulse ({}) must come after the two deferred periods",
            site_a_gossips[0]
        );
        assert_eq!(
            fabric
                .telemetry()
                .counter(Layer::Federation, "federation.runtime.gossip.deferred"),
            2
        );
    }

    #[test]
    fn gossip_pulses_drive_replica_convergence() {
        let fabric = three_site_fabric();
        let mut a = fabric.join("site-a");
        let mut c = fabric.join("site-c");
        a.publish_entry("org:cn=Tom", "person Tom");
        c.publish_entry("org:cn=Wolfgang", "person Wolfgang");

        let mut rt = FederationRuntime::new(fabric.clone(), 3);
        let deadline = Timestamp::from_micros(3_000_000);
        while let Some((_, pulse)) = rt.poll(deadline) {
            if let Pulse::Gossip { site } = pulse {
                // Stand-in for the environment driver: push this
                // site's delta over each up out-link.
                for to in rt.fabric().up_links_from(&site) {
                    let digest = rt.fabric().digest_wire(&to).expect("digest");
                    let delta = rt.fabric().delta_wire(&site, &digest, None).expect("delta");
                    let frame = GossipFrame::parse(&delta).expect("frame");
                    rt.fabric().ingest_frame(&to, &frame).expect("ingest");
                }
            }
        }
        let fp = fabric.replica_fingerprint("site-a");
        assert!(!fp.is_empty());
        assert_eq!(fp, fabric.replica_fingerprint("site-b"));
        assert_eq!(fp, fabric.replica_fingerprint("site-c"));
    }
}
