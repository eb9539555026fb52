//! The federation fabric: shared state linking N environments.
//!
//! The fabric is the engineering object *between* the environments: a
//! registry of domains (one per environment), the federated trader's
//! link graph and offer cache, each domain's replicated knowledge
//! store, and an outbox of remote exchanges awaiting delivery. Each
//! environment holds a [`DomainPort`] handle onto the shared fabric
//! and talks to it through the [`FederationPort`] trait — the
//! environment never sees the other environments, only its port
//! (organisation transparency across sites).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cscw_kernel::{Layer, SpanContext, Telemetry, Timestamp};
use cscw_messaging::gossip::{FrameKind, GossipFrame};
use odp::LinkState;
use parking_lot::Mutex;

use crate::error::FederationError;
use crate::replica::{
    decode_delta, decode_digest, encode_delta_into, encode_digest_into, IngestReport,
    ReplicatedStore,
};
use crate::trader::{FederatedTrader, Resolution, ResolutionSource};

/// Bytes of a frame header beyond its origin: `gossip/1|digest|`, the
/// `@<trace>.<span>` context and the closing `|`. Frame buffers are
/// sized from it so encoding a frame allocates once.
const HEADER_BYTES: usize = 51;

/// One remote exchange in flight: an artifact lowered to common-model
/// fields, addressed across domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteDelivery {
    /// The sending environment's domain.
    pub from_domain: String,
    /// The destination environment's domain.
    pub to_domain: String,
    /// The sharing principal (directory DN, rendered).
    pub sharer: String,
    /// The sending application.
    pub from_app: String,
    /// The destination application.
    pub to_app: String,
    /// The artifact in the common information model.
    pub fields: BTreeMap<String, String>,
    /// When the exchange was issued.
    pub at: Timestamp,
    /// The sending exchange's trace context, carried across the domain
    /// boundary so the destination's delivery spans join the same
    /// trace (None when the sender was not tracing).
    pub ctx: Option<SpanContext>,
}

/// The environment-facing surface of the fabric. `CscwEnvironment`
/// consults it when its local trader cannot locate an exchange
/// partner, advertises its registered applications into it, and
/// mirrors shareable knowledge through it.
pub trait FederationPort: std::fmt::Debug + Send {
    /// This environment's federation domain.
    fn domain(&self) -> String;

    /// Advertises a locally registered application to the federation.
    fn advertise_app(&mut self, app: &str);

    /// Resolves which domain hosts `app` (local, cached, or via a
    /// hop-limited federated walk).
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownApplication`] /
    /// [`FederationError::Partitioned`] as in
    /// [`FederatedTrader::resolve`].
    fn resolve_app(&mut self, app: &str, now: Timestamp) -> Result<Resolution, FederationError>;

    /// Queues a remote exchange for delivery into its destination
    /// domain.
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownDomain`] when the destination domain
    /// never joined the fabric.
    fn route_exchange(&mut self, delivery: RemoteDelivery) -> Result<(), FederationError>;

    /// Writes one shareable knowledge entry into this domain's replica
    /// (to be gossiped to the federation); returns whether the write
    /// changed the replica. Re-publishing the resolved value is no
    /// write at all.
    fn publish_entry(&mut self, key: &str, value: &str) -> bool;

    /// Canonical fingerprint of this domain's replicated knowledge.
    fn replica_fingerprint(&self) -> String;

    /// Resolved `(key, value)` pairs of this domain's replica in key
    /// order — the query layer primes standing knowledge subscriptions
    /// from it at subscribe time. Ports without a replica return the
    /// default: nothing.
    fn replica_snapshot(&self) -> Vec<(String, String)> {
        Vec::new()
    }
}

#[derive(Debug, Default)]
struct DomainState {
    apps: BTreeSet<String>,
    replica: ReplicatedStore,
    inbound: Vec<RemoteDelivery>,
}

#[derive(Debug)]
struct FabricInner {
    domains: BTreeMap<String, DomainState>,
    trader: FederatedTrader,
    telemetry: Telemetry,
}

/// The shared federation fabric. Cloning shares the underlying state;
/// [`join`](Self::join) hands out per-environment ports onto it.
#[derive(Debug, Clone)]
pub struct FederationFabric {
    inner: Arc<Mutex<FabricInner>>,
}

impl Default for FederationFabric {
    fn default() -> Self {
        Self::new()
    }
}

impl FederationFabric {
    /// An empty fabric with its own telemetry stream.
    pub fn new() -> Self {
        Self::with_trader(FederatedTrader::new())
    }

    /// A fabric with a configured trader (hop budget, TTL).
    pub fn with_trader(trader: FederatedTrader) -> Self {
        FederationFabric {
            inner: Arc::new(Mutex::new(FabricInner {
                domains: BTreeMap::new(),
                trader,
                telemetry: Telemetry::new(),
            })),
        }
    }

    /// Routes the fabric's telemetry onto an existing stream (e.g. a
    /// platform's), so one render shows the whole stack.
    pub fn with_telemetry(self, telemetry: Telemetry) -> Self {
        self.inner.lock().telemetry = telemetry;
        self
    }

    /// The fabric's telemetry stream.
    pub fn telemetry(&self) -> Telemetry {
        self.inner.lock().telemetry.clone()
    }

    /// Registers a domain and returns its environment-facing port.
    /// Joining an existing domain returns a fresh port onto the same
    /// state.
    pub fn join(&self, domain: impl Into<String>) -> DomainPort {
        let domain = domain.into();
        let mut inner = self.inner.lock();
        inner
            .domains
            .entry(domain.clone())
            .or_insert_with(|| DomainState {
                replica: ReplicatedStore::new(domain.clone()),
                ..Default::default()
            });
        inner.telemetry.incr(Layer::Federation, "federation.join");
        drop(inner);
        DomainPort {
            inner: self.inner.clone(),
            domain,
        }
    }

    /// The joined domains, in name order.
    pub fn domains(&self) -> Vec<String> {
        self.inner.lock().domains.keys().cloned().collect()
    }

    /// Adds a directed trader link.
    pub fn link(&self, from: &str, to: &str) {
        let mut inner = self.inner.lock();
        inner.trader.link(from, to);
        inner.telemetry.incr(Layer::Federation, "federation.link");
    }

    /// Adds links both ways — the common federation shape.
    pub fn link_bidi(&self, a: &str, b: &str) {
        self.link(a, b);
        self.link(b, a);
    }

    /// The destinations of `site`'s up out-links, in link insertion
    /// order — the peers one gossip pulse from `site` walks.
    pub fn up_links_from(&self, site: &str) -> Vec<String> {
        self.inner
            .lock()
            .trader
            .links()
            .iter()
            .filter(|l| l.from == site && l.state == LinkState::Up)
            .map(|l| l.to.clone())
            .collect()
    }

    /// The trader link graph as `(from, to, state)` triples, in
    /// insertion order, for inspection.
    pub fn links(&self) -> Vec<(String, String, LinkState)> {
        self.inner
            .lock()
            .trader
            .links()
            .iter()
            .map(|l| (l.from.clone(), l.to.clone(), l.state))
            .collect()
    }

    /// Sets one directed link's health; `false` when no such link.
    pub fn set_link_state(&self, from: &str, to: &str, state: LinkState) -> bool {
        let mut inner = self.inner.lock();
        let found = inner.trader.set_link_state(from, to, state);
        if found {
            let name = match state {
                LinkState::Up => "federation.link.up",
                LinkState::Down => "federation.link.down",
            };
            inner.telemetry.incr(Layer::Federation, name);
        }
        found
    }

    /// Takes (drains) the deliveries queued *into* `domain`.
    pub fn take_inbound(&self, domain: &str) -> Vec<RemoteDelivery> {
        let mut inner = self.inner.lock();
        let taken = inner
            .domains
            .get_mut(domain)
            .map(|s| std::mem::take(&mut s.inbound))
            .unwrap_or_default();
        if !taken.is_empty() {
            inner
                .telemetry
                .add(Layer::Federation, "federation.deliver", taken.len() as u64);
        }
        taken
    }

    /// Writes `domain`'s anti-entropy digest frame, header and body
    /// into one wire string.
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownDomain`].
    pub fn digest_wire(&self, domain: &str) -> Result<String, FederationError> {
        let inner = self.inner.lock();
        let state = inner
            .domains
            .get(domain)
            .ok_or_else(|| FederationError::UnknownDomain(domain.to_owned()))?;
        inner
            .telemetry
            .incr(Layer::Federation, "federation.gossip.digest");
        // Frames built while a gossip span is open carry its context
        // over the wire, so the receiver's apply joins the same trace.
        let ctx = inner.telemetry.current_context();
        let digest = state.replica.digest();
        // Per record: the origin, two separators and a short seq.
        let body: usize = digest.keys().map(|origin| origin.len() + 8).sum();
        let mut wire = String::with_capacity(HEADER_BYTES + domain.len() + body);
        GossipFrame::write_header(&mut wire, FrameKind::Digest, domain, ctx);
        encode_digest_into(&mut wire, digest);
        Ok(wire)
    }

    /// Answers the digest frame in `digest_wire` with `domain`'s delta
    /// frame, header and body written into one wire string. With a
    /// `cap`, the delta holds at most `cap` updates. Congested
    /// transports shrink their frames this way: `delta_since` emits
    /// each origin's updates in ascending sequence order, so a
    /// truncated delta is still a valid per-origin prefix — the
    /// receiver's digest simply advances less and the remainder goes
    /// out on a later round.
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownDomain`] / [`FederationError::Codec`].
    pub fn delta_wire(
        &self,
        domain: &str,
        digest_wire: &str,
        cap: Option<usize>,
    ) -> Result<String, FederationError> {
        let digest = GossipFrame::parse(digest_wire)?;
        if digest.kind != FrameKind::Digest {
            return Err(FederationError::Codec("expected a digest frame".into()));
        }
        let their = decode_digest(digest.body)?;
        let inner = self.inner.lock();
        let state = inner
            .domains
            .get(domain)
            .ok_or_else(|| FederationError::UnknownDomain(domain.to_owned()))?;
        let mut delta = state.replica.delta_since(&their);
        if let Some(cap) = cap {
            let excess = delta.len().saturating_sub(cap);
            if excess > 0 {
                delta.truncate(cap);
                inner.telemetry.add(
                    Layer::Federation,
                    "federation.gossip.truncated",
                    excess as u64,
                );
            }
        }
        inner.telemetry.add(
            Layer::Federation,
            "federation.gossip.delta",
            delta.len() as u64,
        );
        let ctx = inner.telemetry.current_context();
        // Per record: the four text fields, five separators and a seq.
        let body: usize = delta
            .iter()
            .map(|e| e.key.len() + e.value.len() + e.clock.as_str().len() + e.origin.len() + 26)
            .sum();
        let mut wire = String::with_capacity(HEADER_BYTES + domain.len() + body);
        GossipFrame::write_header(&mut wire, FrameKind::Delta, domain, ctx);
        encode_delta_into(&mut wire, delta);
        Ok(wire)
    }

    /// Applies a delta frame, parsed from the wire string that carried
    /// it, to `domain`'s replica; returns the [`IngestReport`] saying
    /// which updates applied, how many were buffered out-of-order, and
    /// how many were stale.
    ///
    /// # Errors
    ///
    /// [`FederationError::UnknownDomain`] / [`FederationError::Codec`].
    pub fn ingest_frame(
        &self,
        domain: &str,
        delta: &GossipFrame<'_>,
    ) -> Result<IngestReport, FederationError> {
        if delta.kind != FrameKind::Delta {
            return Err(FederationError::Codec("expected a delta frame".into()));
        }
        let updates = decode_delta(delta.body)?;
        let mut inner = self.inner.lock();
        let state = inner
            .domains
            .get_mut(domain)
            .ok_or_else(|| FederationError::UnknownDomain(domain.to_owned()))?;
        let report = state.replica.ingest(updates);
        inner.telemetry.add(
            Layer::Federation,
            "federation.gossip.applied",
            report.applied_count() as u64,
        );
        inner.telemetry.add(
            Layer::Federation,
            "federation.gossip.buffered",
            report.buffered as u64,
        );
        inner.telemetry.add(
            Layer::Federation,
            "federation.gossip.stale",
            report.stale as u64,
        );
        Ok(report)
    }

    /// Expires stale trader cache entries at `now`; returns how many
    /// were dropped.
    pub fn expire_offer_cache(&self, now: Timestamp) -> usize {
        let mut inner = self.inner.lock();
        let expired = inner.trader.expire_cache(now);
        if expired > 0 {
            inner
                .telemetry
                .add(Layer::Federation, "federation.ttl.expired", expired as u64);
        }
        expired
    }

    /// Remote offers currently cached by the federated trader (fresh
    /// or stale).
    pub fn offer_cache_len(&self) -> usize {
        self.inner.lock().trader.cache_len()
    }

    /// Total deliveries queued but not yet pumped, across all domains.
    pub fn pending_inbound(&self) -> usize {
        self.inner
            .lock()
            .domains
            .values()
            .map(|s| s.inbound.len())
            .sum()
    }

    /// A domain's replica fingerprint (empty string for unknown
    /// domains).
    pub fn replica_fingerprint(&self, domain: &str) -> String {
        self.inner
            .lock()
            .domains
            .get(domain)
            .map(|s| s.replica.fingerprint())
            .unwrap_or_default()
    }
}

/// One environment's handle onto the shared fabric.
#[derive(Debug, Clone)]
pub struct DomainPort {
    inner: Arc<Mutex<FabricInner>>,
    domain: String,
}

impl FederationPort for DomainPort {
    fn domain(&self) -> String {
        self.domain.clone()
    }

    fn advertise_app(&mut self, app: &str) {
        let mut inner = self.inner.lock();
        if let Some(state) = inner.domains.get_mut(&self.domain) {
            state.apps.insert(app.to_owned());
        }
        inner
            .telemetry
            .incr(Layer::Federation, "federation.advertise");
    }

    fn resolve_app(&mut self, app: &str, now: Timestamp) -> Result<Resolution, FederationError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let span =
            inner
                .telemetry
                .span_begin(Layer::Federation, "federation.resolve", now.as_micros());
        let domains = &inner.domains;
        let advertises = |domain: &str, app: &str| {
            domains
                .get(domain)
                .is_some_and(|state| state.apps.contains(app))
        };
        let outcome = inner.trader.resolve(&self.domain, app, advertises, now);
        let name = match &outcome {
            Ok(r) => match r.source {
                ResolutionSource::Local => "federation.resolve.local",
                ResolutionSource::Cache => "federation.resolve.cache",
                ResolutionSource::Federated => "federation.resolve.federated",
            },
            Err(FederationError::Partitioned(_)) => "federation.resolve.partitioned",
            Err(_) => "federation.resolve.miss",
        };
        inner.telemetry.incr(Layer::Federation, name);
        inner.telemetry.span_end(span, now.as_micros());
        outcome
    }

    fn route_exchange(&mut self, delivery: RemoteDelivery) -> Result<(), FederationError> {
        let mut inner = self.inner.lock();
        let at = delivery.at.as_micros();
        let span = inner
            .telemetry
            .span_begin(Layer::Federation, "federation.route", at);
        let to = delivery.to_domain.clone();
        let Some(state) = inner.domains.get_mut(&to) else {
            inner.telemetry.span_end(span, at);
            return Err(FederationError::UnknownDomain(to));
        };
        state.inbound.push(delivery);
        inner.telemetry.incr(Layer::Federation, "federation.route");
        inner.telemetry.span_end(span, at);
        Ok(())
    }

    fn publish_entry(&mut self, key: &str, value: &str) -> bool {
        let mut inner = self.inner.lock();
        // Re-publishing an identical value is a no-op: idempotent
        // publication keeps gossip deltas from growing on every call.
        // (A port's domain joined the fabric and never leaves it.)
        let Some(state) = inner
            .domains
            .get_mut(&self.domain)
            .filter(|state| state.replica.get(key) != Some(value))
        else {
            return false;
        };
        state.replica.put(key, value);
        inner
            .telemetry
            .incr(Layer::Federation, "federation.publish");
        true
    }

    fn replica_fingerprint(&self) -> String {
        self.inner
            .lock()
            .domains
            .get(&self.domain)
            .map(|s| s.replica.fingerprint())
            .unwrap_or_default()
    }

    fn replica_snapshot(&self) -> Vec<(String, String)> {
        self.inner
            .lock()
            .domains
            .get(&self.domain)
            .map(|s| {
                s.replica
                    .entries()
                    .map(|e| (e.key.clone(), e.value.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_advertise_resolve_and_route() {
        let fabric = FederationFabric::new();
        let mut a = fabric.join("env-a");
        let mut b = fabric.join("env-b");
        fabric.link_bidi("env-a", "env-b");
        b.advertise_app("com");
        let r = a.resolve_app("com", Timestamp::ZERO).unwrap();
        assert_eq!(r.domain, "env-b");
        a.route_exchange(RemoteDelivery {
            from_domain: "env-a".into(),
            to_domain: "env-b".into(),
            sharer: "cn=Tom".into(),
            from_app: "sharedx".into(),
            to_app: "com".into(),
            fields: BTreeMap::from([("title".to_owned(), "Minutes".to_owned())]),
            at: Timestamp::ZERO,
            ctx: None,
        })
        .unwrap();
        let inbound = fabric.take_inbound("env-b");
        assert_eq!(inbound.len(), 1);
        assert_eq!(inbound[0].to_app, "com");
        assert!(fabric.take_inbound("env-b").is_empty(), "drained");
        let t = fabric.telemetry();
        assert_eq!(t.counter(Layer::Federation, "federation.route"), 1);
        assert_eq!(
            t.counter(Layer::Federation, "federation.resolve.federated"),
            1
        );
    }

    #[test]
    fn routing_to_unknown_domain_fails() {
        let fabric = FederationFabric::new();
        let mut a = fabric.join("env-a");
        let err = a
            .route_exchange(RemoteDelivery {
                from_domain: "env-a".into(),
                to_domain: "ghost".into(),
                sharer: "cn=Tom".into(),
                from_app: "x".into(),
                to_app: "y".into(),
                fields: BTreeMap::new(),
                at: Timestamp::ZERO,
                ctx: None,
            })
            .unwrap_err();
        assert!(matches!(err, FederationError::UnknownDomain(_)));
    }

    /// One link's exchange as the environment crate's `gossip_link`
    /// runs it: `dst`'s digest wire, `src`'s delta answering it, and the
    /// delta applied from its wire.
    fn gossip(fabric: &FederationFabric, src: &str, dst: &str, cap: Option<usize>) -> usize {
        let digest = fabric.digest_wire(dst).unwrap();
        let delta = fabric.delta_wire(src, &digest, cap).unwrap();
        let frame = GossipFrame::parse(&delta).unwrap();
        fabric.ingest_frame(dst, &frame).unwrap().applied_count()
    }

    #[test]
    fn gossip_frames_converge_replicas() {
        let fabric = FederationFabric::new();
        let mut a = fabric.join("env-a");
        let mut b = fabric.join("env-b");
        assert!(a.publish_entry("org:cn=Tom", "person Tom"));
        assert!(b.publish_entry("org:cn=Wolfgang", "person Wolfgang"));
        assert!(!a.publish_entry("org:cn=Tom", "person Tom"), "idempotent");
        for _ in 0..2 {
            for (src, dst) in [("env-a", "env-b"), ("env-b", "env-a")] {
                gossip(&fabric, src, dst, None);
            }
        }
        let fa = a.replica_fingerprint();
        assert!(!fa.is_empty());
        assert_eq!(fa, b.replica_fingerprint());
        assert!(b
            .replica_snapshot()
            .contains(&("org:cn=Tom".to_owned(), "person Tom".to_owned())));
    }

    #[test]
    fn capped_delta_frames_still_converge_over_more_rounds() {
        let fabric = FederationFabric::new();
        let mut a = fabric.join("env-a");
        let b = fabric.join("env-b");
        for i in 0..7 {
            a.publish_entry(&format!("org:cn=Person{i}"), &format!("person {i}"));
        }
        // A cap of 2 needs ceil(7/2) = 4 rounds to drain the backlog.
        let applied_per_round: Vec<usize> = (0..4)
            .map(|_| gossip(&fabric, "env-a", "env-b", Some(2)))
            .collect();
        assert_eq!(applied_per_round, vec![2, 2, 2, 1]);
        assert_eq!(a.replica_fingerprint(), b.replica_fingerprint());
        assert_eq!(
            fabric
                .telemetry()
                .counter(Layer::Federation, "federation.gossip.truncated"),
            5 + 3 + 1,
            "each round counts the updates it held back"
        );
    }

    #[test]
    fn frames_survive_the_wire_codec() {
        let fabric = FederationFabric::new();
        let mut a = fabric.join("env-a");
        let b = fabric.join("env-b");
        a.publish_entry("k", "v|with\nhostile\x1echars");
        assert_eq!(gossip(&fabric, "env-a", "env-b", None), 1);
        assert_eq!(
            b.replica_snapshot(),
            [("k".to_owned(), "v|with\nhostile\x1echars".to_owned())]
        );
    }

    #[test]
    fn frames_of_the_wrong_kind_are_refused() {
        let fabric = FederationFabric::new();
        fabric.join("env-a");
        fabric.join("env-b");
        let digest = fabric.digest_wire("env-b").unwrap();
        let delta = fabric.delta_wire("env-a", &digest, None).unwrap();
        assert!(matches!(
            fabric.delta_wire("env-a", &delta, None),
            Err(FederationError::Codec(_))
        ));
        let frame = GossipFrame::parse(&digest).unwrap();
        assert!(matches!(
            fabric.ingest_frame("env-b", &frame),
            Err(FederationError::Codec(_))
        ));
    }
}
