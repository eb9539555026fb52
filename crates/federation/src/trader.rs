//! Trader interworking across federation domains.
//!
//! Each environment's platform trader only knows its own offers. The
//! [`FederatedTrader`] links trading *domains* (one per environment):
//! a query that misses locally is forwarded across up links
//! breadth-first, bounded by a hop budget and a visited set
//! ([`odp::QueryScope`]), and hits are cached with a TTL so repeat
//! resolutions stop paying the federated walk until the cache entry
//! goes stale. Domains are the fabric's dense [`SiteId`]s.

use std::collections::{BTreeMap, VecDeque};

use cscw_kernel::Timestamp;
use odp::{LinkState, QueryScope, TraderLink};

use crate::error::FederationError;
use crate::fabric::SiteId;

/// Where a resolution's answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionSource {
    /// The querying domain itself advertises the application.
    Local,
    /// A fresh cache entry answered without a federated walk.
    Cache,
    /// A federated walk across links found it.
    Federated,
}

/// The answer to "which environment hosts this application?". The
/// trader names the domain by [`SiteId`]; the fabric's ports hand it
/// out by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution<D = String> {
    /// The hosting domain.
    pub domain: D,
    /// Where the answer came from.
    pub source: ResolutionSource,
    /// True when at least one link was down during the walk — the
    /// answer may be incomplete (local-only / partial coverage).
    pub degraded: bool,
}

#[derive(Debug, Clone)]
struct CacheSlot {
    site: SiteId,
    cached_at: Timestamp,
}

/// Links + offer cache for federated application resolution.
#[derive(Debug, Clone)]
pub struct FederatedTrader {
    links: Vec<TraderLink<SiteId>>,
    cache: BTreeMap<String, CacheSlot>,
    hop_limit: u8,
    ttl_micros: u64,
}

/// Default hop budget: enough for small federations, small enough that
/// a pathological link graph stays cheap.
pub const DEFAULT_HOP_LIMIT: u8 = 4;

/// Default remote-offer cache TTL (5 simulated seconds).
pub const DEFAULT_TTL_MICROS: u64 = 5_000_000;

impl Default for FederatedTrader {
    fn default() -> Self {
        Self::new()
    }
}

impl FederatedTrader {
    /// A trader with default hop budget and TTL.
    pub fn new() -> Self {
        FederatedTrader {
            links: Vec::new(),
            cache: BTreeMap::new(),
            hop_limit: DEFAULT_HOP_LIMIT,
            ttl_micros: DEFAULT_TTL_MICROS,
        }
    }

    /// Overrides the hop budget.
    pub fn with_hop_limit(mut self, hops: u8) -> Self {
        self.hop_limit = hops;
        self
    }

    /// Overrides the remote-offer TTL.
    pub fn with_ttl_micros(mut self, micros: u64) -> Self {
        self.ttl_micros = micros;
        self
    }

    /// The configured hop budget.
    pub fn hop_limit(&self) -> u8 {
        self.hop_limit
    }

    /// Adds a directed link.
    pub fn link(&mut self, from: SiteId, to: SiteId) {
        self.links.push(TraderLink::new(from, to));
    }

    /// Sets one directed link's health. Returns false when no such link
    /// exists.
    pub fn set_link_state(&mut self, from: SiteId, to: SiteId, state: LinkState) -> bool {
        let mut found = false;
        for link in &mut self.links {
            if link.from == from && link.to == to {
                link.state = state;
                found = true;
            }
        }
        found
    }

    /// The links, in insertion order.
    pub fn links(&self) -> &[TraderLink<SiteId>] {
        &self.links
    }

    /// Cached entries currently held (fresh or stale).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drops cache entries older than the TTL at `now`; returns how
    /// many were dropped.
    pub fn expire_cache(&mut self, now: Timestamp) -> usize {
        let ttl = self.ttl_micros;
        let before = self.cache.len();
        self.cache
            .retain(|_, slot| now.micros_since(slot.cached_at) < ttl);
        before - self.cache.len()
    }

    /// Resolves the domain advertising `app`, asking `advertises`
    /// (does this domain advertise this application?) from `from`
    /// across up links.
    ///
    /// # Errors
    ///
    /// * [`FederationError::UnknownApplication`] — nothing reachable
    ///   advertises it and every link crossed was up.
    /// * [`FederationError::Partitioned`] — nothing reachable advertises
    ///   it, but at least one down link pruned the walk: the answer is
    ///   only authoritative for the reachable fragment.
    pub fn resolve(
        &mut self,
        from: SiteId,
        app: &str,
        advertises: impl Fn(SiteId, &str) -> bool,
        now: Timestamp,
    ) -> Result<Resolution<SiteId>, FederationError> {
        // Local first: federation must never shadow the home domain.
        if advertises(from, app) {
            return Ok(Resolution {
                domain: from,
                source: ResolutionSource::Local,
                degraded: false,
            });
        }
        // Fresh cache hit?
        if let Some(slot) = self.cache.get(app) {
            if now.micros_since(slot.cached_at) < self.ttl_micros {
                return Ok(Resolution {
                    domain: slot.site,
                    source: ResolutionSource::Cache,
                    degraded: false,
                });
            }
            self.cache.remove(app);
        }
        // Federated walk: breadth-first over up links, hop-budgeted,
        // loop-suppressed.
        let mut scope = QueryScope::with_hop_limit(self.hop_limit);
        let mut degraded = false;
        let mut queue = VecDeque::new();
        if scope.enter(from).is_ok() {
            queue.push_back(from);
        }
        while let Some(here) = queue.pop_front() {
            if advertises(here, app) {
                self.cache.insert(
                    app.to_owned(),
                    CacheSlot {
                        site: here,
                        cached_at: now,
                    },
                );
                return Ok(Resolution {
                    domain: here,
                    source: ResolutionSource::Federated,
                    degraded,
                });
            }
            for link in self.links.iter().filter(|l| l.from == here) {
                if !link.is_up() {
                    degraded = true;
                    continue;
                }
                // Loop suppression: each domain is entered once. Once
                // the budget is exhausted it stops the expansion for
                // good, so a domain entered but not queued then is
                // never looked at again.
                if scope.enter(link.to).is_err() || !scope.descend() {
                    continue;
                }
                queue.push_back(link.to);
            }
        }
        if degraded {
            Err(FederationError::Partitioned(app.to_owned()))
        } else {
            Err(FederationError::UnknownApplication(app.to_owned()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const A: SiteId = SiteId(0);
    const B: SiteId = SiteId(1);
    const C: SiteId = SiteId(2);
    const D: SiteId = SiteId(3);

    /// Whether a domain advertises an application, over a fixed table.
    fn ads(pairs: &[(SiteId, &[&str])]) -> impl Fn(SiteId, &str) -> bool {
        let table: BTreeMap<SiteId, BTreeSet<String>> = pairs
            .iter()
            .map(|(d, apps)| (*d, apps.iter().map(|a| (*a).to_owned()).collect()))
            .collect();
        move |domain, app| table.get(&domain).is_some_and(|apps| apps.contains(app))
    }

    #[test]
    fn local_wins_without_a_walk() {
        let mut t = FederatedTrader::new();
        t.link(A, B);
        let advertised = ads(&[(A, &["editor"]), (B, &["editor"])]);
        let r = t
            .resolve(A, "editor", &advertised, Timestamp::ZERO)
            .unwrap();
        assert_eq!(r.domain, A);
        assert_eq!(r.source, ResolutionSource::Local);
    }

    #[test]
    fn federated_hit_is_cached_until_ttl() {
        let mut t = FederatedTrader::new().with_ttl_micros(100);
        t.link(A, B);
        let advertised = ads(&[(A, &[]), (B, &["com"])]);
        let r = t.resolve(A, "com", &advertised, Timestamp::ZERO).unwrap();
        assert_eq!((r.domain, r.source), (B, ResolutionSource::Federated));
        // Second query: cache, even if the link has gone down.
        t.set_link_state(A, B, LinkState::Down);
        let r = t
            .resolve(A, "com", &advertised, Timestamp::from_micros(50))
            .unwrap();
        assert_eq!((r.domain, r.source), (B, ResolutionSource::Cache));
        // Past the TTL the stale entry expires and the walk (now
        // partitioned) degrades.
        let err = t
            .resolve(A, "com", &advertised, Timestamp::from_micros(200))
            .unwrap_err();
        assert!(matches!(err, FederationError::Partitioned(_)));
        // The stale resolve above already evicted the entry.
        assert_eq!(t.expire_cache(Timestamp::from_micros(200)), 0);
        assert_eq!(t.cache_len(), 0);
    }

    #[test]
    fn cycles_terminate_via_visited_set() {
        let mut t = FederatedTrader::new();
        t.link(A, B);
        t.link(B, C);
        t.link(C, A); // A→B→C→A
        let advertised = ads(&[(A, &[]), (B, &[]), (C, &["com"])]);
        let r = t.resolve(A, "com", &advertised, Timestamp::ZERO).unwrap();
        assert_eq!(r.domain, C);
        // And an unmatched query on the same cycle still terminates.
        let err = t
            .resolve(A, "ghost", &advertised, Timestamp::ZERO)
            .unwrap_err();
        assert!(matches!(err, FederationError::UnknownApplication(_)));
    }

    #[test]
    fn hop_budget_bounds_chain_depth() {
        let mut t = FederatedTrader::new().with_hop_limit(2);
        t.link(A, B);
        t.link(B, C);
        t.link(C, D);
        let advertised = ads(&[(A, &[]), (B, &[]), (C, &[]), (D, &["far"])]);
        // d is 3 hops out; budget is 2.
        let err = t
            .resolve(A, "far", &advertised, Timestamp::ZERO)
            .unwrap_err();
        assert!(matches!(err, FederationError::UnknownApplication(_)));
        // c is 2 hops out: reachable.
        let advertised = ads(&[(A, &[]), (B, &[]), (C, &["near"]), (D, &[])]);
        let r = t.resolve(A, "near", &advertised, Timestamp::ZERO).unwrap();
        assert_eq!(r.domain, C);
    }

    #[test]
    fn down_links_degrade_to_local_only() {
        let mut t = FederatedTrader::new();
        t.link(A, B);
        t.set_link_state(A, B, LinkState::Down);
        let advertised = ads(&[(A, &["home"]), (B, &["com"])]);
        // Local still resolves.
        let r = t.resolve(A, "home", &advertised, Timestamp::ZERO).unwrap();
        assert_eq!(r.source, ResolutionSource::Local);
        // Remote is behind the partition: transient, flagged.
        let err = t
            .resolve(A, "com", &advertised, Timestamp::ZERO)
            .unwrap_err();
        assert!(matches!(err, FederationError::Partitioned(_)));
        // Heal: resolves federated again.
        assert!(t.set_link_state(A, B, LinkState::Up));
        let r = t.resolve(A, "com", &advertised, Timestamp::ZERO).unwrap();
        assert_eq!(r.source, ResolutionSource::Federated);
    }
}
