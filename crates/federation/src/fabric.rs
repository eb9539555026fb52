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
//!
//! The federated environments run on one thread, so the fabric and its
//! ports share one `Rc<RefCell<_>>` and take no lock; each method
//! borrows the state for its own body and never hands a borrow out.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use cscw_kernel::{Layer, SpanContext, Telemetry, Timestamp};
use cscw_messaging::gossip::{FrameKind, GossipFrame};
use odp::LinkState;

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
pub trait FederationPort: std::fmt::Debug {
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

/// A site's dense id in its fabric: its position in join order. Ids
/// index the fabric's per-site state, so the calls a federation driver
/// makes per scheduled event take an id and never look a name up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub(crate) usize);

impl SiteId {
    /// The site's position in join order (0 for the first site).
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug)]
struct Site {
    name: String,
    apps: BTreeSet<String>,
    replica: ReplicatedStore,
    inbound: Vec<RemoteDelivery>,
}

#[derive(Debug)]
struct FabricInner {
    /// Per-site state, indexed by [`SiteId`].
    sites: Vec<Site>,
    /// The one name→id map, for the names that arrive from outside.
    ids: BTreeMap<String, SiteId>,
    trader: FederatedTrader,
    telemetry: Telemetry,
}

/// The shared federation fabric. Cloning shares the underlying state;
/// [`join`](Self::join) hands out per-environment ports onto it.
///
/// Methods taking a [`SiteId`] expect one this fabric issued: another
/// fabric's id names a different site here, or none, and then panics.
#[derive(Debug, Clone)]
pub struct FederationFabric {
    inner: Rc<RefCell<FabricInner>>,
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
            inner: Rc::new(RefCell::new(FabricInner {
                sites: Vec::new(),
                ids: BTreeMap::new(),
                trader,
                telemetry: Telemetry::new(),
            })),
        }
    }

    /// Routes the fabric's telemetry onto an existing stream (e.g. a
    /// platform's), so one render shows the whole stack.
    pub fn with_telemetry(self, telemetry: Telemetry) -> Self {
        self.inner.borrow_mut().telemetry = telemetry;
        self
    }

    /// The fabric's telemetry stream.
    pub fn telemetry(&self) -> Telemetry {
        self.inner.borrow().telemetry.clone()
    }

    /// Registers a domain under the next dense [`SiteId`] and returns
    /// its environment-facing port. Joining an existing domain returns
    /// a fresh port onto the same state, under the id it already has.
    pub fn join(&self, domain: impl Into<String>) -> DomainPort {
        let domain = domain.into();
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let site = *inner.ids.entry(domain).or_insert_with_key(|name| {
            inner.sites.push(Site {
                name: name.clone(),
                apps: BTreeSet::new(),
                replica: ReplicatedStore::new(name.clone()),
                inbound: Vec::new(),
            });
            SiteId(inner.sites.len() - 1)
        });
        inner.telemetry.incr(Layer::Federation, "federation.join");
        drop(guard);
        DomainPort {
            inner: self.inner.clone(),
            site,
        }
    }

    /// The id `domain` joined under, if it joined.
    pub fn site(&self, domain: &str) -> Option<SiteId> {
        self.inner.borrow().ids.get(domain).copied()
    }

    /// The joined domains and their ids, in name order.
    pub fn sites(&self) -> Vec<(String, SiteId)> {
        let inner = self.inner.borrow();
        inner.ids.iter().map(|(d, s)| (d.clone(), *s)).collect()
    }

    /// Adds a directed trader link; `false`, adding nothing, when
    /// either domain never joined.
    pub fn link(&self, from: &str, to: &str) -> bool {
        let mut inner = self.inner.borrow_mut();
        let (Some(&from), Some(&to)) = (inner.ids.get(from), inner.ids.get(to)) else {
            return false;
        };
        inner.trader.link(from, to);
        inner.telemetry.incr(Layer::Federation, "federation.link");
        true
    }

    /// Adds links both ways — the common federation shape.
    pub fn link_bidi(&self, a: &str, b: &str) {
        self.link(a, b);
        self.link(b, a);
    }

    /// `site`'s first up out-link at or after position `cursor` of the
    /// trader's link list: that position and the link's destination.
    /// A gossip pulse walks its peers in link insertion order by asking
    /// again one past each position it gets, so nothing is copied out.
    pub fn next_up_link(&self, site: SiteId, cursor: usize) -> Option<(usize, SiteId)> {
        let inner = self.inner.borrow();
        let links = inner.trader.links().iter().enumerate().skip(cursor);
        links
            .filter(|(_, l)| l.from == site && l.is_up())
            .map(|(at, l)| (at, l.to))
            .next()
    }

    /// The trader link graph as `(from, to, state)` triples, in
    /// insertion order, for inspection.
    pub fn links(&self) -> Vec<(String, String, LinkState)> {
        let inner = self.inner.borrow();
        let name = |site: SiteId| inner.sites[site.0].name.clone();
        let links = inner.trader.links().iter();
        links.map(|l| (name(l.from), name(l.to), l.state)).collect()
    }

    /// Sets one directed link's health; `false` when no such link.
    pub fn set_link_state(&self, from: SiteId, to: SiteId, state: LinkState) -> bool {
        let mut inner = self.inner.borrow_mut();
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

    /// Takes (drains) the deliveries queued *into* `site`.
    pub fn take_inbound(&self, site: SiteId) -> Vec<RemoteDelivery> {
        let mut inner = self.inner.borrow_mut();
        let taken = std::mem::take(&mut inner.sites[site.0].inbound);
        if !taken.is_empty() {
            inner
                .telemetry
                .add(Layer::Federation, "federation.deliver", taken.len() as u64);
        }
        taken
    }

    /// Writes `site`'s anti-entropy digest frame, header and body into
    /// one wire string.
    pub fn digest_wire(&self, site: SiteId) -> String {
        let inner = self.inner.borrow();
        let state = &inner.sites[site.0];
        inner
            .telemetry
            .incr(Layer::Federation, "federation.gossip.digest");
        // Frames built while a gossip span is open carry its context
        // over the wire, so the receiver's apply joins the same trace.
        let ctx = inner.telemetry.current_context();
        let digest = state.replica.digest();
        // Per record: the origin, two separators and a short seq.
        let body: usize = digest.keys().map(|origin| origin.len() + 8).sum();
        let mut wire = String::with_capacity(HEADER_BYTES + state.name.len() + body);
        GossipFrame::write_header(&mut wire, FrameKind::Digest, &state.name, ctx);
        encode_digest_into(&mut wire, digest);
        wire
    }

    /// Answers the digest frame in `digest_wire` with `site`'s delta
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
    /// [`FederationError::Codec`].
    pub fn delta_wire(
        &self,
        site: SiteId,
        digest_wire: &str,
        cap: Option<usize>,
    ) -> Result<String, FederationError> {
        let digest = GossipFrame::parse(digest_wire)?;
        if digest.kind != FrameKind::Digest {
            return Err(FederationError::Codec("expected a digest frame".into()));
        }
        let their = decode_digest(digest.body)?;
        let inner = self.inner.borrow();
        let state = &inner.sites[site.0];
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
        // Per record: the three text fields, the stamp's digits, five
        // separators and a seq of at most 20 digits.
        let body: usize = delta
            .iter()
            .map(|e| {
                let stamp_digits = e.stamp.checked_ilog10().map_or(1, |d| d as usize + 1);
                e.key.len() + e.value.len() + e.origin.len() + stamp_digits + 25
            })
            .sum();
        let mut wire = String::with_capacity(HEADER_BYTES + state.name.len() + body);
        GossipFrame::write_header(&mut wire, FrameKind::Delta, &state.name, ctx);
        encode_delta_into(&mut wire, delta);
        Ok(wire)
    }

    /// Applies a delta frame, parsed from the wire string that carried
    /// it, to `site`'s replica; returns the [`IngestReport`] saying
    /// which updates applied, how many were buffered out-of-order, and
    /// how many were stale.
    ///
    /// # Errors
    ///
    /// [`FederationError::Codec`].
    pub fn ingest_frame(
        &self,
        site: SiteId,
        delta: &GossipFrame<'_>,
    ) -> Result<IngestReport, FederationError> {
        if delta.kind != FrameKind::Delta {
            return Err(FederationError::Codec("expected a delta frame".into()));
        }
        let updates = decode_delta(delta.body)?;
        let mut inner = self.inner.borrow_mut();
        let report = inner.sites[site.0].replica.ingest(updates);
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
        let mut inner = self.inner.borrow_mut();
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
        self.inner.borrow().trader.cache_len()
    }

    /// Total deliveries queued but not yet pumped, across all domains.
    pub fn pending_inbound(&self) -> usize {
        let inner = self.inner.borrow();
        inner.sites.iter().map(|s| s.inbound.len()).sum()
    }

    /// A site's replica fingerprint.
    pub fn replica_fingerprint(&self, site: SiteId) -> String {
        self.inner.borrow().sites[site.0].replica.fingerprint()
    }
}

/// One environment's handle onto the shared fabric.
#[derive(Debug, Clone)]
pub struct DomainPort {
    inner: Rc<RefCell<FabricInner>>,
    site: SiteId,
}

impl DomainPort {
    /// The id this port's domain joined under.
    pub fn site(&self) -> SiteId {
        self.site
    }
}

impl FederationPort for DomainPort {
    fn domain(&self) -> String {
        self.inner.borrow().sites[self.site.0].name.clone()
    }

    fn advertise_app(&mut self, app: &str) {
        let mut inner = self.inner.borrow_mut();
        inner.sites[self.site.0].apps.insert(app.to_owned());
        inner
            .telemetry
            .incr(Layer::Federation, "federation.advertise");
    }

    fn resolve_app(&mut self, app: &str, now: Timestamp) -> Result<Resolution, FederationError> {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let span =
            inner
                .telemetry
                .span_begin(Layer::Federation, "federation.resolve", now.as_micros());
        let sites = &inner.sites;
        let advertises = |site: SiteId, app: &str| sites[site.0].apps.contains(app);
        let outcome = inner.trader.resolve(self.site, app, advertises, now);
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
        outcome.map(|r| Resolution {
            domain: sites[r.domain.0].name.clone(),
            source: r.source,
            degraded: r.degraded,
        })
    }

    fn route_exchange(&mut self, delivery: RemoteDelivery) -> Result<(), FederationError> {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let at = delivery.at.as_micros();
        let span = inner
            .telemetry
            .span_begin(Layer::Federation, "federation.route", at);
        let Some(&to) = inner.ids.get(&delivery.to_domain) else {
            inner.telemetry.span_end(span, at);
            return Err(FederationError::UnknownDomain(delivery.to_domain));
        };
        inner.sites[to.0].inbound.push(delivery);
        inner.telemetry.incr(Layer::Federation, "federation.route");
        inner.telemetry.span_end(span, at);
        Ok(())
    }

    fn publish_entry(&mut self, key: &str, value: &str) -> bool {
        let mut inner = self.inner.borrow_mut();
        // Re-publishing an identical value is a no-op: idempotent
        // publication keeps gossip deltas from growing on every call.
        let replica = &mut inner.sites[self.site.0].replica;
        if replica.get(key) == Some(value) {
            return false;
        }
        replica.put(key, value);
        inner
            .telemetry
            .incr(Layer::Federation, "federation.publish");
        true
    }

    fn replica_fingerprint(&self) -> String {
        self.inner.borrow().sites[self.site.0].replica.fingerprint()
    }

    fn replica_snapshot(&self) -> Vec<(String, String)> {
        let inner = self.inner.borrow();
        let entries = inner.sites[self.site.0].replica.entries();
        entries.map(|e| (e.key.clone(), e.value.clone())).collect()
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
        let inbound = fabric.take_inbound(b.site());
        assert_eq!(inbound.len(), 1);
        assert_eq!(inbound[0].to_app, "com");
        assert!(fabric.take_inbound(b.site()).is_empty(), "drained");
        let t = fabric.telemetry();
        assert_eq!(t.counter(Layer::Federation, "federation.route"), 1);
        assert_eq!(
            t.counter(Layer::Federation, "federation.resolve.federated"),
            1
        );
    }

    #[test]
    fn sites_get_dense_ids_in_join_order() {
        let fabric = FederationFabric::new();
        let b = fabric.join("env-b").site();
        let a = fabric.join("env-a").site();
        assert_eq!((b.index(), a.index()), (0, 1));
        assert_eq!(fabric.join("env-b").site(), b, "re-joining keeps the id");
        assert_eq!(fabric.site("env-a"), Some(a));
        assert_eq!(fabric.site("ghost"), None);
        assert_eq!(
            fabric.sites(),
            [("env-a".to_owned(), a), ("env-b".to_owned(), b)],
            "name order"
        );
        assert!(!fabric.link("env-a", "ghost"), "no link to a stranger");
        assert!(fabric.link("env-a", "env-b"));
        assert_eq!(fabric.next_up_link(a, 0), Some((0, b)));
        assert_eq!(fabric.next_up_link(a, 1), None);
        assert!(fabric.set_link_state(a, b, LinkState::Down));
        assert_eq!(fabric.next_up_link(a, 0), None, "down links are skipped");
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
    fn gossip(fabric: &FederationFabric, src: SiteId, dst: SiteId, cap: Option<usize>) -> usize {
        let digest = fabric.digest_wire(dst);
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
            for (src, dst) in [(a.site(), b.site()), (b.site(), a.site())] {
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
            .map(|_| gossip(&fabric, a.site(), b.site(), Some(2)))
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
        assert_eq!(gossip(&fabric, a.site(), b.site(), None), 1);
        assert_eq!(
            b.replica_snapshot(),
            [("k".to_owned(), "v|with\nhostile\x1echars".to_owned())]
        );
    }

    #[test]
    fn frames_of_the_wrong_kind_are_refused() {
        let fabric = FederationFabric::new();
        let a = fabric.join("env-a").site();
        let b = fabric.join("env-b").site();
        let digest = fabric.digest_wire(b);
        let delta = fabric.delta_wire(a, &digest, None).unwrap();
        assert!(matches!(
            fabric.delta_wire(a, &delta, None),
            Err(FederationError::Codec(_))
        ));
        let frame = GossipFrame::parse(&digest).unwrap();
        assert!(matches!(
            fabric.ingest_frame(b, &frame),
            Err(FederationError::Codec(_))
        ));
    }
}
