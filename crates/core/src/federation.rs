//! Federating N environments — the event-driven driver.
//!
//! `cscw-federation` provides the mechanisms (trader interworking,
//! anti-entropy replication, remote routing); this module provides
//! the *assembly* and its only driver: [`FederatedEnvironments`] owns
//! a set of [`CscwEnvironment`]s and one [`FederationFabric`], wires
//! each environment to the fabric through its
//! [`FederationPort`](cscw_federation::FederationPort), and runs the
//! whole federation from one deterministic event queue.
//! [`run_for`](FederatedEnvironments::run_for) /
//! [`run_until_converged`](FederatedEnvironments::run_until_converged)
//! act on every event kind themselves: a gossip timer pushes one
//! site's anti-entropy exchange over its up out-links, a pump timer
//! drains that site's queued remote deliveries, the TTL sweep expires
//! stale remote offers, and a scheduled link change partitions or
//! heals a link. No caller hand-cranks rounds.
//!
//! Events name sites by their fabric [`SiteId`], and every per-site
//! table here is indexed by it, so no scheduled event copies, compares
//! or looks up a site's name.
//!
//! Determinism contract: timers are installed in sorted domain order
//! when the schedule starts and in federate order after, every phase
//! derives from `(seed, install index)`, and the queue pops in `(time,
//! enqueue-sequence)` order — identical seeds replay bit-for-bit.
//!
//! Gossip frames ride the *messaging layer*: each exchange ships the
//! digest and delta as [`cscw_messaging::gossip::GossipFrame`]
//! notifications through the receiving environment's transport port,
//! so a platform fault (e.g. under a flaky [`ResilientPlatform`]
//! substrate) degrades gossip for that pulse instead of silently
//! bypassing the stack — anti-entropy catches up on the next pulse.
//!
//! [`ResilientPlatform`]: crate::platform::ResilientPlatform
//!
//! conform: allow-file(R4) — this module IS the federation driver: it
//! narrates gossip/pump pulses onto the fabric's Federation-layer
//! stream even though the assembly lives in the environment crate.

use std::collections::BTreeMap;

use cscw_federation::{FederatedTrader, FederationError, FederationFabric, SiteId};
use cscw_kernel::{percent_escape_into, EventQueue, Layer, Periodic, Telemetry, Timestamp};
use cscw_messaging::gossip::GossipFrame;
use cscw_messaging::OrAddress;
use odp::LinkState;

use crate::env::CscwEnvironment;
use crate::error::MoccaError;

/// Per-site anti-entropy gossip period (250 simulated ms).
pub const DEFAULT_GOSSIP_PERIOD_MICROS: u64 = 250_000;
/// Per-site delivery-pump period (50 simulated ms).
const PUMP_PERIOD_MICROS: u64 = 50_000;
/// Fabric-wide offer-TTL sweep period (1 simulated second).
const TTL_SWEEP_PERIOD_MICROS: u64 = 1_000_000;

/// O/R address of a federation domain's gossip mailbox. The domain
/// becomes the personal name with `;` and `=`, the address grammar's
/// separators, percent-escaped; `None` only for an empty domain.
fn domain_address(domain: &str) -> Option<OrAddress> {
    let mut name = String::with_capacity(domain.len());
    percent_escape_into(&mut name, domain, b";=");
    OrAddress::new("ZZ", "mocca", ["federation"], name).ok()
}

/// Delta-frame budget for a healthy link, in replica updates.
/// Consecutive transport refusals halve it (floor 1) until the link
/// recovers, so a congested receiver gets smaller catch-up frames.
const DELTA_CAP_BASE: usize = 64;

/// What an event-driven run ([`FederatedEnvironments::run_for`]) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Simulated microseconds the run advanced.
    pub micros: u64,
    /// Gossip pulses handled (one per site timer firing).
    pub gossip_pulses: usize,
    /// Pump pulses handled.
    pub pump_pulses: usize,
    /// Up links walked across all gossip pulses.
    pub links_walked: usize,
    /// Links whose frames a transport refused (retried next pulse).
    pub links_degraded: usize,
    /// Replica updates applied across all receivers.
    pub updates_applied: usize,
    /// Remote artifacts delivered into destination environments.
    pub deliveries: usize,
    /// Encoded gossip-frame bytes shipped over transports.
    pub bytes_on_wire: u64,
}

impl RunReport {
    /// Field-wise accumulation of a later slice into this report.
    pub fn absorb(&mut self, other: &RunReport) {
        self.micros += other.micros;
        self.gossip_pulses += other.gossip_pulses;
        self.pump_pulses += other.pump_pulses;
        self.links_walked += other.links_walked;
        self.links_degraded += other.links_degraded;
        self.updates_applied += other.updates_applied;
        self.deliveries += other.deliveries;
        self.bytes_on_wire += other.bytes_on_wire;
    }
}

/// Outcome of [`FederatedEnvironments::run_until_converged`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// Did every replica reach the same fingerprint (with no pending
    /// deliveries) within the budget?
    pub converged: bool,
    /// Simulated microseconds consumed.
    pub sim_micros: u64,
    /// Accumulated activity over the whole run.
    pub activity: RunReport,
}

/// Outcome of shipping one link's digest + delta pair.
enum LinkShip {
    /// The receiving transport refused the frames; nothing applied.
    Degraded,
    /// Frames shipped and the delta applied.
    Applied {
        /// Replica updates the receiver applied.
        updates: usize,
        /// Encoded bytes of both frames.
        bytes: u64,
        /// Simulated time the receiving platform spent on the frames.
        micros: u64,
    },
}

/// One scheduled federation event.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A site's anti-entropy gossip timer fired.
    Gossip(SiteId),
    /// A site's delivery-pump timer fired.
    Pump(SiteId),
    /// The fabric-wide offer-TTL sweep timer fired.
    TtlSweep,
    /// A scheduled link health transition (partition or heal).
    LinkChange(SiteId, SiteId, LinkState),
}

/// A site's periodic timers.
#[derive(Debug)]
struct Timers {
    gossip: Periodic,
    pump: Periodic,
    /// Gossip pulses still to be swallowed: backpressure from a
    /// transport that refused this site's frames.
    deferred: u32,
}

/// The federation's schedule: one deterministic event queue, the
/// fabric-wide TTL sweep and each site's jittered timers.
#[derive(Debug)]
pub struct FederationRuntime {
    queue: EventQueue<Event>,
    seed: u64,
    ttl_sweep: Periodic,
    /// Each site's timers, by [`SiteId`]; `None` until installed.
    timers: Vec<Option<Timers>>,
    installed: u64,
}

impl FederationRuntime {
    fn new(seed: u64) -> Self {
        let ttl_sweep = Periodic::every(TTL_SWEEP_PERIOD_MICROS);
        let mut queue = EventQueue::new();
        queue.schedule(ttl_sweep.next_after(Timestamp::ZERO), Event::TtlSweep);
        FederationRuntime {
            queue,
            seed,
            ttl_sweep,
            timers: Vec::new(),
            installed: 0,
        }
    }

    /// The schedule's current simulated time (time of the last event).
    pub fn now(&self) -> Timestamp {
        self.queue.now()
    }

    /// Installs `site`'s gossip and pump timers, phases derived from
    /// `(seed, install index)`; a site that has them keeps them.
    fn install(&mut self, site: SiteId, telemetry: &Telemetry) {
        let slot = site.index();
        if self.timers.len() <= slot {
            self.timers.resize_with(slot + 1, || None);
        }
        if self.timers[slot].is_some() {
            return;
        }
        let index = self.installed;
        self.installed += 1;
        let gossip = Periodic::jittered(DEFAULT_GOSSIP_PERIOD_MICROS, self.seed, index);
        // Decorrelate the pump phase from the gossip phase so the two
        // timers do not ride the same grid (the salt spells "PUMP").
        let pump = Periodic::jittered(PUMP_PERIOD_MICROS, self.seed ^ 0x5055_4D50, index);
        let now = self.queue.now();
        self.queue
            .schedule(gossip.first().max(now), Event::Gossip(site));
        self.queue
            .schedule(pump.first().max(now), Event::Pump(site));
        self.timers[slot] = Some(Timers {
            gossip,
            pump,
            deferred: 0,
        });
        telemetry.incr(Layer::Federation, "federation.runtime.site");
    }

    fn timers_mut(&mut self, site: SiteId) -> Option<&mut Timers> {
        self.timers.get_mut(site.index())?.as_mut()
    }

    /// Pops the next event due by `deadline` and re-arms the periodic
    /// timer that fired it. `None` once nothing is due, leaving the
    /// clock at `deadline`.
    fn next(&mut self, deadline: Timestamp) -> Option<(Timestamp, Event)> {
        if self.queue.peek_at().is_none_or(|at| at > deadline) {
            self.queue.advance_to(deadline);
            return None;
        }
        let (at, event) = self.queue.pop()?;
        let timers = |site: SiteId| self.timers.get(site.index())?.as_ref();
        let rearm = match event {
            Event::Gossip(site) => timers(site).map(|t| t.gossip.next_after(at)),
            Event::Pump(site) => timers(site).map(|t| t.pump.next_after(at)),
            Event::TtlSweep => Some(self.ttl_sweep.next_after(at)),
            Event::LinkChange(..) => None,
        };
        if let Some(next) = rearm {
            self.queue.schedule(next, event);
        }
        Some((at, event))
    }
}

/// N federated environments and the fabric that joins them.
#[derive(Debug, Default)]
pub struct FederatedEnvironments {
    fabric: FederationFabric,
    /// Each federated site's environment, by [`SiteId`].
    envs: Vec<Option<CscwEnvironment>>,
    /// Each federated site's gossip mailbox, by [`SiteId`], built once
    /// at [`federate`](Self::federate).
    mailboxes: Vec<Option<OrAddress>>,
    runtime: Option<FederationRuntime>,
    /// Consecutive transport refusals per directed link — the
    /// congestion-pressure signal that shrinks delta frames and defers
    /// gossip pulses. Cleared the moment a link ships successfully.
    pressure: BTreeMap<(SiteId, SiteId), u32>,
}

impl FederatedEnvironments {
    /// An empty federation with a default fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty federation with a configured trader (hop budget, TTL).
    pub fn with_trader(trader: FederatedTrader) -> Self {
        Self::with_fabric(FederationFabric::with_trader(trader))
    }

    /// An empty federation over a pre-built fabric. This is how a
    /// harness routes federation telemetry onto a shared stream
    /// ([`FederationFabric::with_telemetry`]) so one exchange's trace
    /// covers the environment and federation layers together.
    pub fn with_fabric(fabric: FederationFabric) -> Self {
        FederatedEnvironments {
            fabric,
            ..Self::default()
        }
    }

    /// The shared fabric (for inspection: telemetry, fingerprints).
    pub fn fabric(&self) -> &FederationFabric {
        &self.fabric
    }

    /// Joins `env` to the federation as `domain`: the environment gets
    /// a port onto the fabric and its already-registered applications
    /// are advertised. Federating the same domain twice replaces the
    /// previous environment.
    pub fn federate(&mut self, domain: impl Into<String>, mut env: CscwEnvironment) {
        let domain = domain.into();
        let port = self.fabric.join(&domain);
        let site = port.site();
        env.install_federation(Box::new(port));
        if let Some(rt) = self.runtime.as_mut() {
            rt.install(site, &self.fabric.telemetry());
        }
        let slot = site.index();
        if self.envs.len() <= slot {
            self.envs.resize_with(slot + 1, || None);
            self.mailboxes.resize_with(slot + 1, || None);
        }
        self.mailboxes[slot] = domain_address(&domain);
        self.envs[slot] = Some(env);
    }

    /// The federated domains, in name order.
    pub fn domains(&self) -> Vec<String> {
        let sites = self.fabric.sites().into_iter();
        sites
            .filter(|(_, site)| self.site_env(*site).is_some())
            .map(|(domain, _)| domain)
            .collect()
    }

    /// A federated environment by domain.
    pub fn env(&self, domain: &str) -> Option<&CscwEnvironment> {
        self.site_env(self.fabric.site(domain)?)
    }

    /// Mutable access to a federated environment.
    pub fn env_mut(&mut self, domain: &str) -> Option<&mut CscwEnvironment> {
        self.site_env_mut(self.fabric.site(domain)?)
    }

    fn site_env(&self, site: SiteId) -> Option<&CscwEnvironment> {
        self.envs.get(site.index())?.as_ref()
    }

    fn site_env_mut(&mut self, site: SiteId) -> Option<&mut CscwEnvironment> {
        self.envs.get_mut(site.index())?.as_mut()
    }

    /// Adds a directed trader link between domains; `false`, adding
    /// nothing, when either domain never joined.
    pub fn link(&self, from: &str, to: &str) -> bool {
        self.fabric.link(from, to)
    }

    /// Links two domains both ways.
    pub fn link_bidi(&self, a: &str, b: &str) {
        self.fabric.link_bidi(a, b);
    }

    /// Sets one directed link's health; `false` when no such link.
    pub fn set_link_state(&self, from: &str, to: &str, state: LinkState) -> bool {
        match (self.fabric.site(from), self.fabric.site(to)) {
            (Some(from), Some(to)) => self.fabric.set_link_state(from, to, state),
            _ => false,
        }
    }

    /// Drains the deliveries queued into one site's environment.
    fn pump_site(&mut self, site: SiteId) -> Result<usize, MoccaError> {
        let deliveries = self.fabric.take_inbound(site);
        let Some(env) = self.site_env_mut(site) else {
            return Ok(0);
        };
        let mut delivered = 0;
        let before = env.platform_mut().clock().now_micros();
        for delivery in deliveries {
            env.deliver_remote_artifact(&delivery)?;
            delivered += 1;
        }
        if delivered > 0 {
            let after = env.platform_mut().clock().now_micros();
            self.fabric.telemetry().record_micros(
                Layer::Federation,
                "federation.pump.pulse.micros",
                after.saturating_sub(before),
            );
        }
        Ok(delivered)
    }

    /// One link's anti-entropy exchange: writes `dst`'s digest frame,
    /// answers it with `src`'s delta frame, ships both through `dst`'s
    /// transport as gossip notifications, and applies the delta.
    fn gossip_link(&mut self, src: SiteId, dst: SiteId) -> Result<LinkShip, MoccaError> {
        let t = self.fabric.telemetry();
        let failures = self.pressure.get(&(src, dst)).copied().unwrap_or(0);
        let cap = (failures > 0).then(|| (DELTA_CAP_BASE >> failures.min(6)).max(1));
        let digest_wire = self.fabric.digest_wire(dst);
        let delta_wire = self.fabric.delta_wire(src, &digest_wire, cap)?;
        let started = self
            .site_env_mut(dst)
            .map(|env| env.platform_mut().clock().now_micros());
        // Lower both frames through the receiving environment's
        // messaging port; a refusal means this link gossips on the
        // next pulse instead.
        let shipped = (|| {
            let from = self.mailboxes.get(src.index())?.as_ref()?;
            let to = self.mailboxes.get(dst.index())?.as_ref()?;
            let env = self.envs.get_mut(dst.index())?.as_mut()?;
            let transport = env.platform_mut().transport();
            transport
                .notify(from, to, "federation-gossip", &digest_wire)
                .ok()?;
            transport
                .notify(from, to, "federation-gossip", &delta_wire)
                .ok()
        })();
        if shipped.is_none() {
            *self.pressure.entry((src, dst)).or_insert(0) += 1;
            t.incr(Layer::Federation, "federation.gossip.pressure");
            return Ok(LinkShip::Degraded);
        }
        if failures > 0 {
            self.pressure.remove(&(src, dst));
        }
        let finished = self
            .site_env_mut(dst)
            .map(|env| env.platform_mut().clock().now_micros());
        let micros = match (started, finished) {
            (Some(before), Some(after)) => after.saturating_sub(before),
            _ => 0,
        };
        t.record_micros(Layer::Federation, "federation.gossip.link.micros", micros);
        // The receiver applies the frame it parses from the *wire*
        // bytes, and the apply span parents on the context they carried.
        let received = GossipFrame::parse(&delta_wire).map_err(FederationError::from)?;
        let at = finished.unwrap_or_default();
        let span = match received.ctx {
            Some(parent) => {
                t.span_begin_with_parent(parent, Layer::Federation, "federation.gossip.apply", at)
            }
            None => t.span_begin(Layer::Federation, "federation.gossip.apply", at),
        };
        let report = self.fabric.ingest_frame(dst, &received);
        t.span_end(span, at);
        let report = report?;
        // An ingest that applied anything feeds the receiving
        // environment's standing queries what the replica reports
        // changed, borrowed — awareness deltas flow from the change
        // stream, not from re-scanning the replica.
        if !report.applied.is_empty() {
            let changed = report.changed.iter();
            if let Some(env) = self.site_env_mut(dst) {
                env.feed_queries(changed.map(|e| (e.key.as_str(), e.value.as_str())))?;
            }
        }
        Ok(LinkShip::Applied {
            updates: report.applied_count(),
            bytes: (digest_wire.len() + delta_wire.len()) as u64,
            micros,
        })
    }

    /// One site's gossip pulse at `at`: anti-entropy over every up
    /// out-link, traced as one `federation.gossip.pulse` root span whose
    /// context rides every frame the pulse ships.
    fn gossip_from(
        &mut self,
        site: SiteId,
        at: Timestamp,
        report: &mut RunReport,
    ) -> Result<(), MoccaError> {
        let t = self.fabric.telemetry();
        let now = at.as_micros();
        let span = t.span_begin(Layer::Federation, "federation.gossip.pulse", now);
        let mut pulse_micros = 0u64;
        let result = (|| {
            let mut degraded_here = false;
            let mut cursor = 0;
            while let Some((link, dst)) = self.fabric.next_up_link(site, cursor) {
                cursor = link + 1;
                if self.site_env(site).is_none() || self.site_env(dst).is_none() {
                    continue;
                }
                report.links_walked += 1;
                match self.gossip_link(site, dst)? {
                    LinkShip::Degraded => {
                        report.links_degraded += 1;
                        degraded_here = true;
                    }
                    LinkShip::Applied {
                        updates,
                        bytes,
                        micros,
                    } => {
                        report.updates_applied += updates;
                        report.bytes_on_wire += bytes;
                        pulse_micros += micros;
                    }
                }
            }
            // Backpressure upward: a pulse that hit a refusing
            // transport earns the site one gossip period of quiet
            // before its next exchange (the frames it ships then are
            // already shrunk by the per-link pressure cap).
            if degraded_here {
                if let Some(timers) = self.runtime.as_mut().and_then(|rt| rt.timers_mut(site)) {
                    timers.deferred += 1;
                }
            }
            Ok(())
        })();
        t.record_micros(
            Layer::Federation,
            "federation.gossip.pulse.micros",
            pulse_micros,
        );
        t.span_end(span, now.saturating_add(pulse_micros));
        result
    }

    /// Starts the event-driven schedule over the current fabric (no-op
    /// when one is already running — the existing schedule and its
    /// clock are kept). [`run_for`](Self::run_for) and
    /// [`run_until_converged`](Self::run_until_converged) call this
    /// implicitly; call it yourself first when you need to
    /// [`schedule_link_change`](Self::schedule_link_change) before
    /// running.
    pub fn start_runtime(&mut self, seed: u64) {
        if self.runtime.is_some() {
            return;
        }
        let mut rt = FederationRuntime::new(seed);
        let telemetry = self.fabric.telemetry();
        for (_, site) in self.fabric.sites() {
            rt.install(site, &telemetry);
        }
        self.runtime = Some(rt);
    }

    /// The event-driven schedule, once started.
    pub fn runtime(&self) -> Option<&FederationRuntime> {
        self.runtime.as_ref()
    }

    /// Schedules a link partition/heal as a first-class event. Returns
    /// `false` when the schedule has not been started or either domain
    /// never joined. A change that finds no such link when it fires
    /// does nothing.
    pub fn schedule_link_change(
        &mut self,
        at: Timestamp,
        from: &str,
        to: &str,
        state: LinkState,
    ) -> bool {
        let (Some(from), Some(to)) = (self.fabric.site(from), self.fabric.site(to)) else {
            return false;
        };
        let Some(rt) = self.runtime.as_mut() else {
            return false;
        };
        rt.queue.schedule(at, Event::LinkChange(from, to, state));
        true
    }

    /// Advances the federation `duration_micros` of simulated time,
    /// acting on every scheduled event in the window: gossip pulses
    /// push one site's exchanges, pump pulses drain one site's
    /// deliveries, TTL sweeps expire stale remote offers and scheduled
    /// link changes apply. Starts the schedule under `seed` if not yet
    /// running (a later call's `seed` is ignored — the running schedule
    /// wins).
    ///
    /// # Errors
    ///
    /// [`MoccaError::Federation`] on fabric-level failures; the first
    /// delivery error ([`MoccaError::UnknownApplication`] for stale
    /// advertisements, repository/transport errors), after which the
    /// rest of that pump pulse's deliveries are not delivered.
    /// Transport refusals degrade
    /// the link for that pulse instead of erroring.
    pub fn run_for(&mut self, duration_micros: u64, seed: u64) -> Result<RunReport, MoccaError> {
        self.start_runtime(seed);
        let mut report = RunReport {
            micros: duration_micros,
            ..RunReport::default()
        };
        let Some(deadline) = self.runtime.as_ref().map(|rt| rt.now() + duration_micros) else {
            return Ok(report);
        };
        let t = self.fabric.telemetry();
        while let Some((at, event)) = self.runtime.as_mut().and_then(|rt| rt.next(deadline)) {
            match event {
                Event::Gossip(site) => {
                    let timers = self.runtime.as_mut().and_then(|rt| rt.timers_mut(site));
                    if let Some(timers) = timers.filter(|timers| timers.deferred > 0) {
                        timers.deferred -= 1;
                        t.incr(Layer::Federation, "federation.runtime.gossip.deferred");
                        continue;
                    }
                    t.incr(Layer::Federation, "federation.runtime.gossip.pulse");
                    report.gossip_pulses += 1;
                    self.gossip_from(site, at, &mut report)?;
                }
                Event::Pump(site) => {
                    t.incr(Layer::Federation, "federation.runtime.pump.pulse");
                    report.pump_pulses += 1;
                    report.deliveries += self.pump_site(site)?;
                }
                Event::TtlSweep => {
                    self.fabric.expire_offer_cache(at);
                    t.incr(Layer::Federation, "federation.runtime.ttl.sweep");
                }
                Event::LinkChange(from, to, state) => {
                    if self.fabric.set_link_state(from, to, state) {
                        t.incr(Layer::Federation, "federation.runtime.link.change");
                    }
                }
            }
        }
        Ok(report)
    }

    /// Runs the event-driven federation until every replica holds the
    /// same fingerprint and no remote delivery is pending, or
    /// `max_micros` of simulated time is exhausted. Time advances in
    /// whole gossip periods, so the convergence instant is
    /// deterministic per seed.
    ///
    /// # Errors
    ///
    /// As [`run_for`](Self::run_for).
    pub fn run_until_converged(
        &mut self,
        seed: u64,
        max_micros: u64,
    ) -> Result<ConvergenceReport, MoccaError> {
        self.start_runtime(seed);
        let slice = DEFAULT_GOSSIP_PERIOD_MICROS;
        let mut report = ConvergenceReport::default();
        loop {
            if self.converged() && self.fabric.pending_inbound() == 0 {
                report.converged = true;
                return Ok(report);
            }
            if report.sim_micros >= max_micros {
                return Ok(report);
            }
            let step = slice.min(max_micros - report.sim_micros);
            let activity = self.run_for(step, seed)?;
            report.sim_micros += step;
            report.activity.absorb(&activity);
        }
    }

    /// Current congestion pressure on a directed link: consecutive
    /// transport refusals since the last successful ship (0 for a
    /// healthy or unknown link).
    pub fn link_pressure(&self, from: &str, to: &str) -> u32 {
        let (Some(from), Some(to)) = (self.fabric.site(from), self.fabric.site(to)) else {
            return 0;
        };
        self.pressure.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Every domain's replica fingerprint, in domain order.
    pub fn fingerprints(&self) -> BTreeMap<String, String> {
        let sites = self.fabric.sites().into_iter();
        sites
            .filter(|(_, site)| self.site_env(*site).is_some())
            .map(|(domain, site)| (domain, self.fabric.replica_fingerprint(site)))
            .collect()
    }

    /// Have all replicas converged to the same state? Renders one
    /// fingerprint at a time and stops at the first that differs from
    /// the first site's.
    pub fn converged(&self) -> bool {
        let envs = self.envs.iter().flatten();
        let mut prints = envs.map(CscwEnvironment::federation_fingerprint);
        let Some(first) = prints.next() else {
            return true;
        };
        prints.all(|print| print == first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{AppDescriptor, AppId, FormatMapping, NativeArtifact, Quadrant};
    use crate::platform::Platform;
    use cscw_directory::Dn;
    use cscw_kernel::Timestamp;

    fn env_with_app(app: &str, field: &str) -> CscwEnvironment {
        let mut env = CscwEnvironment::new();
        env.register_app(
            AppDescriptor {
                id: app.into(),
                name: app.to_owned(),
                quadrant: Quadrant::CORRESPONDENCE,
                native_format: format!("{app}-native"),
                kinds: vec!["document".into()],
            },
            FormatMapping::new([(field, "title")]),
        );
        env
    }

    fn three_site_fed() -> FederatedEnvironments {
        let mut fed = FederatedEnvironments::new();
        fed.federate("env-a", env_with_app("a1", "f"));
        fed.federate("env-b", env_with_app("b1", "f"));
        fed.federate("env-c", env_with_app("c1", "f"));
        fed.link_bidi("env-a", "env-b");
        fed.link_bidi("env-b", "env-c");
        for (domain, note) in [("env-a", "alpha"), ("env-c", "gamma")] {
            fed.env_mut(domain)
                .unwrap()
                .store_object(
                    crate::info::InfoObject::new(
                        crate::info::InfoObjectId::new(format!("doc-{note}")),
                        "note",
                        "cn=Tom".parse().unwrap(),
                        crate::info::InfoContent::Text(note.into()),
                    ),
                    None,
                    Timestamp::ZERO,
                )
                .unwrap();
        }
        fed
    }

    #[test]
    fn run_until_converged_needs_no_hand_cranked_rounds() {
        let mut fed = three_site_fed();
        assert!(!fed.converged());
        let report = fed.run_until_converged(1, 60_000_000).unwrap();
        assert!(report.converged, "fingerprints: {:?}", fed.fingerprints());
        assert!(fed.converged());
        assert!(report.sim_micros <= 8 * DEFAULT_GOSSIP_PERIOD_MICROS);
        assert!(report.activity.gossip_pulses > 0);
        assert!(report.activity.bytes_on_wire > 0, "frames must ship");
        assert!(report.sim_micros > 0 && report.sim_micros <= 60_000_000);
    }

    #[test]
    fn event_driven_runs_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut fed = three_site_fed();
            let report = fed.run_until_converged(seed, 60_000_000).unwrap();
            (report, fed.fingerprints())
        };
        let (r1a, f1a) = run(1);
        let (r1b, f1b) = run(1);
        assert_eq!(r1a, r1b, "same seed must replay the same run");
        assert_eq!(f1a, f1b);
        let (r2, f2) = run(2);
        assert_eq!(f1a, f2, "converged state is seed-independent");
        assert_ne!(
            r1a.activity.gossip_pulses, 0,
            "sanity: seed 2 run did work too: {r2:?}"
        );
    }

    #[test]
    fn federated_exchange_crosses_environments() {
        let mut fed = FederatedEnvironments::new();
        fed.federate("env-a", env_with_app("sharedx", "subject"));
        fed.federate("env-b", env_with_app("com", "betreff"));
        fed.link_bidi("env-a", "env-b");
        let sharer: Dn = "cn=Tom".parse().unwrap();
        let artifact = NativeArtifact {
            app: AppId::new("sharedx"),
            format: "sharedx-native".into(),
            fields: BTreeMap::from([("subject".to_owned(), "Minutes".to_owned())]),
        };
        let out = fed
            .env_mut("env-a")
            .unwrap()
            .exchange(&sharer, &artifact, &AppId::new("com"), Timestamp::ZERO)
            .expect("federated exchange");
        assert_eq!(out.format, "common");
        assert_eq!(fed.fabric().pending_inbound(), 1);
        // One gossip period of event-driven time delivers it on a
        // scheduled pump pulse.
        let report = fed.run_for(DEFAULT_GOSSIP_PERIOD_MICROS, 1).unwrap();
        assert_eq!(report.deliveries, 1);
        assert_eq!(fed.fabric().pending_inbound(), 0);
        // The destination environment raised and recorded the artifact.
        assert_eq!(fed.env("env-b").unwrap().repository().len(), 1);
        // Each side counts its half of the exchange's two conversions.
        let conversions = |env| fed.env(env).unwrap().hub().conversions_performed();
        assert_eq!((conversions("env-a"), conversions("env-b")), (1, 1));
    }

    /// Every gossip frame leaves its subject in the receiving mailbox,
    /// but equal subjects share one stored run: a ring's mailbox stays
    /// the same size however long it gossips, while `delivered` still
    /// reports every frame.
    #[test]
    fn gossip_mailboxes_stay_bounded_over_long_runs() {
        let sites = ["site-0", "site-1", "site-2", "site-3"];
        let mut fed = FederatedEnvironments::new();
        for site in sites {
            fed.federate(site, CscwEnvironment::new());
        }
        for (i, site) in sites.iter().enumerate() {
            fed.link_bidi(site, sites[(i + 1) % sites.len()]);
        }
        let site_0 = fed.fabric().site("site-0").unwrap();
        let mailbox = fed.mailboxes[site_0.index()].clone().unwrap();
        let mut gossip_for = |periods: u64| {
            fed.run_for(periods * DEFAULT_GOSSIP_PERIOD_MICROS, 1)
                .unwrap();
            let platform = fed.env_mut("site-0").unwrap().platform_mut();
            let frames = platform.transport().delivered(&mailbox).len();
            let local = platform
                .as_any_mut()
                .downcast_mut::<crate::platform::LocalPlatform>()
                .unwrap();
            (local.stored_runs(&mailbox), frames)
        };
        let (runs_10, frames_10) = gossip_for(10);
        let (runs_1110, frames_1110) = gossip_for(1_100);
        // Two inbound links, a digest and a delta frame each per period.
        assert_eq!((frames_10, frames_1110), (40, 4_440));
        assert_eq!(runs_1110, runs_10, "stored runs grew with the run");
    }

    /// A platform whose transport refuses its first `refusals` notify
    /// calls, then behaves — a stand-in for a congested receiver.
    struct CongestedPlatform {
        inner: crate::platform::LocalPlatform,
        refusals_left: u32,
    }

    impl crate::platform::Platform for CongestedPlatform {
        fn name(&self) -> &'static str {
            "congested"
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn clock(&self) -> &dyn cscw_kernel::Clock {
            self.inner.clock()
        }
        fn telemetry(&self) -> &cscw_kernel::Telemetry {
            self.inner.telemetry()
        }
        fn trader(&mut self) -> &mut dyn crate::platform::TraderPort {
            self.inner.trader()
        }
        fn directory(&mut self) -> &mut dyn crate::platform::DirectoryPort {
            self.inner.directory()
        }
        fn transport(&mut self) -> &mut dyn crate::platform::TransportPort {
            self
        }
    }

    impl crate::platform::TransportPort for CongestedPlatform {
        fn notify(
            &mut self,
            from: &OrAddress,
            to: &OrAddress,
            subject: &str,
            body: &str,
        ) -> Result<u64, cscw_messaging::MtsError> {
            if self.refusals_left > 0 {
                self.refusals_left -= 1;
                return Err(cscw_messaging::MtsError::Unavailable("congested".into()));
            }
            self.inner.transport().notify(from, to, subject, body)
        }
        fn delivered(&mut self, to: &OrAddress) -> Vec<String> {
            self.inner.transport().delivered(to)
        }
    }

    #[test]
    fn transport_refusals_build_pressure_defer_gossip_and_recover() {
        let mut fed = FederatedEnvironments::new();
        fed.federate("env-a", env_with_app("a1", "f"));
        // env-b's transport refuses the first two gossip frames.
        let mut env_b = CscwEnvironment::with_platform(Box::new(CongestedPlatform {
            inner: crate::platform::LocalPlatform::new(),
            refusals_left: 2,
        }));
        env_b.register_app(
            AppDescriptor {
                id: "b1".into(),
                name: "b1".to_owned(),
                quadrant: Quadrant::CORRESPONDENCE,
                native_format: "b1-native".into(),
                kinds: vec!["document".into()],
            },
            FormatMapping::new([("f", "title")]),
        );
        fed.federate("env-b", env_b);
        fed.link_bidi("env-a", "env-b");
        fed.env_mut("env-a")
            .unwrap()
            .store_object(
                crate::info::InfoObject::new(
                    crate::info::InfoObjectId::new("doc-alpha"),
                    "note",
                    "cn=Tom".parse().unwrap(),
                    crate::info::InfoContent::Text("alpha".into()),
                ),
                None,
                Timestamp::ZERO,
            )
            .unwrap();

        let report = fed.run_until_converged(1, 60_000_000).unwrap();
        assert!(report.converged, "fingerprints: {:?}", fed.fingerprints());
        assert!(
            report.activity.links_degraded >= 2,
            "both refusals must degrade a→b pulses: {report:?}"
        );
        // Pressure built during congestion must clear on recovery.
        assert_eq!(fed.link_pressure("env-a", "env-b"), 0);
        let t = fed.fabric().telemetry();
        assert_eq!(
            t.counter(Layer::Federation, "federation.gossip.pressure"),
            2
        );
        assert!(
            t.counter(Layer::Federation, "federation.runtime.gossip.deferred") >= 2,
            "each degraded pulse must earn a quiet period"
        );
    }

    /// Domain names holding a separator of some wire grammar: the
    /// frame header (`|`, `@`), the O/R mailbox address (`;`, `=`),
    /// the vector clock (`,`) and the escape character itself.
    #[test]
    fn awkward_domain_names_gossip_and_converge() {
        for name in ["env|b", "env;b", "env=b", "env@1.2", "env,a", "env%a"] {
            let mut fed = FederatedEnvironments::new();
            for (domain, app) in [(name, "a1"), ("env-x", "x1"), ("env-y", "y1")] {
                fed.federate(domain, env_with_app(app, "f"));
            }
            fed.link_bidi(name, "env-x");
            fed.link_bidi("env-x", "env-y");
            fed.link_bidi("env-y", name);
            for domain in [name, "env-y"] {
                fed.env_mut(domain)
                    .unwrap()
                    .store_object(
                        crate::info::InfoObject::new(
                            crate::info::InfoObjectId::new(format!("doc-{domain}")),
                            "note",
                            "cn=Tom".parse().unwrap(),
                            crate::info::InfoContent::Text(domain.into()),
                        ),
                        None,
                        Timestamp::ZERO,
                    )
                    .unwrap();
            }
            let report = fed
                .run_until_converged(1, 20_000_000)
                .unwrap_or_else(|e| panic!("{name:?}: {e}"));
            assert!(report.converged, "{name:?}: {:?}", fed.fingerprints());
            assert_eq!(report.activity.links_degraded, 0, "{name:?}");
            let fingerprint = fed.fingerprints().remove("env-x").unwrap();
            assert!(
                fingerprint.contains(&format!(" by {name}\n")),
                "{name:?}: {fingerprint}"
            );
        }
    }

    #[test]
    fn scheduled_heal_lets_a_partitioned_federation_converge() {
        let mut fed = three_site_fed();
        fed.start_runtime(1);
        // Partition env-b <-> env-c immediately; heal at t = 2s.
        fed.set_link_state("env-b", "env-c", LinkState::Down);
        fed.set_link_state("env-c", "env-b", LinkState::Down);
        for (from, to) in [("env-b", "env-c"), ("env-c", "env-b")] {
            assert!(fed.schedule_link_change(
                Timestamp::from_micros(2_000_000),
                from,
                to,
                LinkState::Up,
            ));
        }
        // Before the heal: a and b agree, c is isolated.
        let report = fed.run_for(1_500_000, 1).unwrap();
        assert!(report.gossip_pulses > 0);
        assert!(!fed.converged(), "partition must hold back env-c");
        // After the heal fires, convergence completes.
        let report = fed.run_until_converged(1, 60_000_000).unwrap();
        assert!(report.converged, "fingerprints: {:?}", fed.fingerprints());
    }

    /// The gossip and pump events a three-site schedule fires by
    /// `until_micros`, as `(time, kind, site index)`.
    fn event_trace(seed: u64, until_micros: u64) -> Vec<(u64, &'static str, usize)> {
        let mut fed = three_site_fed();
        fed.start_runtime(seed);
        let rt = fed.runtime.as_mut().unwrap();
        let mut trace = Vec::new();
        while let Some((at, event)) = rt.next(Timestamp::from_micros(until_micros)) {
            match event {
                Event::Gossip(site) => trace.push((at.as_micros(), "gossip", site.index())),
                Event::Pump(site) => trace.push((at.as_micros(), "pump", site.index())),
                Event::TtlSweep | Event::LinkChange(..) => {}
            }
        }
        trace
    }

    #[test]
    fn pulse_schedule_is_deterministic_per_seed() {
        let a = event_trace(1, 2_000_000);
        let b = event_trace(1, 2_000_000);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(
            a,
            event_trace(2, 2_000_000),
            "different seeds must differ in phase"
        );
        // Every site both gossips and pumps within the window.
        for site in 0..3 {
            assert!(a.iter().any(|&(_, kind, s)| (kind, s) == ("gossip", site)));
            assert!(a.iter().any(|&(_, kind, s)| (kind, s) == ("pump", site)));
        }
    }

    #[test]
    fn jittered_phases_spread_sites_within_a_period() {
        let trace = event_trace(7, DEFAULT_GOSSIP_PERIOD_MICROS);
        let gossip_times: Vec<u64> = trace
            .iter()
            .filter(|(_, kind, _)| *kind == "gossip")
            .map(|(at, _, _)| *at)
            .collect();
        assert_eq!(gossip_times.len(), 3, "each site gossips once per period");
        let distinct: std::collections::BTreeSet<u64> = gossip_times.into_iter().collect();
        assert!(distinct.len() > 1, "sites must not fire in lockstep");
    }

    #[test]
    fn ttl_sweep_expires_cached_offers_without_any_query() {
        let mut fed = FederatedEnvironments::new();
        fed.federate("site-a", CscwEnvironment::new());
        fed.federate("site-b", env_with_app("com", "f"));
        fed.link_bidi("site-a", "site-b");
        use cscw_federation::FederationPort;
        fed.fabric()
            .join("site-a")
            .resolve_app("com", Timestamp::ZERO)
            .expect("federated resolve");
        assert_eq!(fed.fabric().offer_cache_len(), 1);
        // Run past the 5s default TTL; no resolve_app call happens
        // anywhere in this window.
        fed.run_for(6_000_000, 1).unwrap();
        assert_eq!(
            fed.fabric().offer_cache_len(),
            0,
            "sweep must expire the offer with no query"
        );
        assert_eq!(
            fed.fabric()
                .telemetry()
                .counter(Layer::Federation, "federation.ttl.expired"),
            1
        );
    }

    #[test]
    fn scheduled_link_changes_apply_at_their_time() {
        let mut fed = three_site_fed();
        fed.start_runtime(1);
        for (at, state) in [(100_000, LinkState::Down), (300_000, LinkState::Up)] {
            let at = Timestamp::from_micros(at);
            assert!(fed.schedule_link_change(at, "env-a", "env-b", state));
        }
        let link_state = |fed: &FederatedEnvironments| {
            fed.fabric()
                .links()
                .iter()
                .find(|(f, t, _)| f == "env-a" && t == "env-b")
                .map(|(_, _, s)| *s)
                .expect("link exists")
        };
        fed.run_for(50_000, 1).unwrap();
        assert_eq!(link_state(&fed), LinkState::Up);
        fed.run_for(150_000, 1).unwrap();
        assert_eq!(link_state(&fed), LinkState::Down);
        fed.run_for(200_000, 1).unwrap();
        assert_eq!(link_state(&fed), LinkState::Up);
    }

    /// Only a change that finds its link counts: one naming a domain
    /// that never joined is refused up front, one between joined but
    /// unlinked domains fires and changes nothing.
    #[test]
    fn link_changes_that_change_no_link_are_not_counted() {
        let mut fed = three_site_fed();
        fed.start_runtime(1);
        let at = Timestamp::from_micros(100_000);
        assert!(!fed.schedule_link_change(at, "env-a", "ghost", LinkState::Down));
        assert!(fed.schedule_link_change(at, "env-a", "env-c", LinkState::Down));
        assert!(fed.schedule_link_change(at, "env-a", "env-b", LinkState::Down));
        fed.run_for(200_000, 1).unwrap();
        let t = fed.fabric().telemetry();
        assert_eq!(
            t.counter(Layer::Federation, "federation.runtime.link.change"),
            1
        );
        assert_eq!(t.counter(Layer::Federation, "federation.link.down"), 1);
    }

    #[test]
    fn deferred_gossip_pulses_are_swallowed_then_resume() {
        // Only site-a has an out-link, so a slice walks a link exactly
        // when site-a's gossip pulse surfaces in it.
        let mut fed = FederatedEnvironments::new();
        for site in ["site-a", "site-b", "site-c"] {
            fed.federate(site, CscwEnvironment::new());
        }
        fed.link("site-a", "site-b");
        fed.start_runtime(5);
        let site_a = fed.fabric().site("site-a").unwrap();
        let rt = fed.runtime.as_mut().unwrap();
        rt.timers_mut(site_a).unwrap().deferred = 2;
        let mut site_a_gossips = Vec::new();
        for slice in 1..=200 {
            if fed.run_for(10_000, 5).unwrap().links_walked > 0 {
                site_a_gossips.push(slice * 10_000);
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
            fed.fabric()
                .telemetry()
                .counter(Layer::Federation, "federation.runtime.gossip.deferred"),
            2
        );
    }

    #[test]
    fn gossip_pulses_drive_replica_convergence() {
        let mut fed = FederatedEnvironments::new();
        for site in ["site-a", "site-b", "site-c"] {
            fed.federate(site, CscwEnvironment::new());
        }
        fed.link_bidi("site-a", "site-b");
        fed.link_bidi("site-b", "site-c");
        use cscw_federation::FederationPort;
        let mut a = fed.fabric().join("site-a");
        let mut c = fed.fabric().join("site-c");
        a.publish_entry("org:cn=Tom", "person Tom");
        c.publish_entry("org:cn=Wolfgang", "person Wolfgang");
        fed.run_for(3_000_000, 3).unwrap();
        let prints = fed.fingerprints();
        let fp = &prints["site-a"];
        assert!(!fp.is_empty());
        assert_eq!(fp, &prints["site-b"]);
        assert_eq!(fp, &prints["site-c"]);
    }
}
