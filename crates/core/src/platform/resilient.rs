//! Failure-transparent decoration of a [`Platform`]'s ports.
//!
//! RM-ODP makes failure transparency an obligation of the engineering
//! infrastructure, not of applications (§6 maps MOCCA onto exactly that
//! infrastructure). [`ResilientPlatform`] discharges the obligation at
//! the port boundary: every fallible trader/directory/transport call on
//! the wrapped platform runs under a [`RetryPolicy`] (bounded
//! exponential backoff, jitter from the kernel's seeded RNG — so a
//! simulated run with a fixed seed replays exactly) and a per-port
//! [`CircuitBreaker`].
//!
//! When a breaker opens the platform *degrades* instead of failing
//! blindly:
//!
//! * trader imports fall back to the last-known offers for the service
//!   type, if any were ever seen;
//! * directory reads and searches are served from a stale-read cache,
//!   flagged by the `resilience.directory.stale_read` counter and a
//!   `resilience.stale_read` event;
//! * mutations and transport submissions are refused fast with the
//!   port's `Unavailable` error (a stale write would not be a write).
//!
//! Congestion is a first-class failure here: on a queue-bounded
//! simulated network ([`super::SimPlatform::with_link_spec`]) a shed
//! request produces the port's `Unavailable` error, which classifies
//! as *transient* — so sustained overload alone walks a breaker to
//! open, with zero injected faults.
//!
//! Everything the decorator does is visible in the platform's
//! [`Telemetry`] stream, tagged [`Layer::Env`] (the decorator lives
//! with the environment, above the ports it guards): per-port
//! `resilience.<port>.attempts` / `.retries` / `.rejected` /
//! `.degraded` counters plus `.breaker_open` / `.breaker_half_open` /
//! `.breaker_closed` transition counters.

use std::collections::BTreeMap;

use cscw_directory::{DirOp, DirResult, DirectoryError};
use cscw_kernel::{
    BreakerState, CircuitBreaker, Clock, Deadline, ErrorClass, Layer, LayerError, RetryPolicy,
    SeededRng, Telemetry, Timestamp,
};
use cscw_messaging::{MtsError, OrAddress};
use odp::{
    ImportRequest, InterfaceRef, InterfaceType, OdpError, OfferId, ServiceOffer, TradingPolicy,
    Value,
};

use super::{DirectoryPort, Platform, TraderPort, TransportPort};

/// Which port a policy decision concerns. Each port gets its own
/// breaker and its own telemetry counter names (counter names must be
/// `'static`, so they are enumerated here rather than formatted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Port {
    Trader,
    Directory,
    Transport,
}

impl Port {
    fn attempts(self) -> &'static str {
        match self {
            Port::Trader => "resilience.trader.attempts",
            Port::Directory => "resilience.directory.attempts",
            Port::Transport => "resilience.transport.attempts",
        }
    }

    fn call_span(self) -> &'static str {
        match self {
            Port::Trader => "resilience.trader.call",
            Port::Directory => "resilience.directory.call",
            Port::Transport => "resilience.transport.call",
        }
    }

    fn retries(self) -> &'static str {
        match self {
            Port::Trader => "resilience.trader.retries",
            Port::Directory => "resilience.directory.retries",
            Port::Transport => "resilience.transport.retries",
        }
    }

    fn rejected(self) -> &'static str {
        match self {
            Port::Trader => "resilience.trader.rejected",
            Port::Directory => "resilience.directory.rejected",
            Port::Transport => "resilience.transport.rejected",
        }
    }

    fn degraded(self) -> &'static str {
        match self {
            Port::Trader => "resilience.trader.degraded",
            Port::Directory => "resilience.directory.degraded",
            Port::Transport => "resilience.transport.degraded",
        }
    }

    fn transition(self, to: BreakerState) -> &'static str {
        match (self, to) {
            (Port::Trader, BreakerState::Open) => "resilience.trader.breaker_open",
            (Port::Trader, BreakerState::HalfOpen) => "resilience.trader.breaker_half_open",
            (Port::Trader, BreakerState::Closed) => "resilience.trader.breaker_closed",
            (Port::Directory, BreakerState::Open) => "resilience.directory.breaker_open",
            (Port::Directory, BreakerState::HalfOpen) => "resilience.directory.breaker_half_open",
            (Port::Directory, BreakerState::Closed) => "resilience.directory.breaker_closed",
            (Port::Transport, BreakerState::Open) => "resilience.transport.breaker_open",
            (Port::Transport, BreakerState::HalfOpen) => "resilience.transport.breaker_half_open",
            (Port::Transport, BreakerState::Closed) => "resilience.transport.breaker_closed",
        }
    }
}

/// The policy state shared by all three ports, split from the wrapped
/// platform so the retry driver can borrow both halves at once.
#[derive(Debug)]
struct Resilience {
    policy: RetryPolicy,
    call_budget_micros: Option<u64>,
    rng: SeededRng,
    trader_breaker: CircuitBreaker,
    directory_breaker: CircuitBreaker,
    transport_breaker: CircuitBreaker,
    telemetry: Telemetry,
}

impl Resilience {
    fn breaker(&mut self, port: Port) -> &mut CircuitBreaker {
        match port {
            Port::Trader => &mut self.trader_breaker,
            Port::Directory => &mut self.directory_breaker,
            Port::Transport => &mut self.transport_breaker,
        }
    }

    fn note_transitions(&mut self, port: Port, before: BreakerState, now_micros: u64) {
        let after = self.breaker(port).state();
        if before != after {
            // A breaker transition gets its own span so the trace that
            // tripped (or re-closed) the breaker shows it in its tree.
            let span = self
                .telemetry
                .span_begin(Layer::Env, "resilience.breaker", now_micros);
            self.telemetry.incr(Layer::Env, port.transition(after));
            self.telemetry.emit(
                now_micros,
                Layer::Env,
                "resilience.breaker",
                format_args!("{port:?} {} -> {}", before.as_str(), after.as_str()),
            );
            self.telemetry.span_end(span, now_micros);
        }
    }
}

/// How one policed call ended.
enum CallOutcome<T, E> {
    /// The wrapped port answered (possibly after retries).
    Ok(T),
    /// The breaker was open: the call never reached the port.
    Rejected,
    /// The port failed and the policy gave up.
    Failed(E),
}

/// Drives one port call under the retry policy and breaker.
///
/// Borrow note: `inner` and `ctl` are disjoint fields of
/// [`ResilientPlatform`], split at every call site so the closure may
/// take the platform while the driver mutates the policy state.
fn policed<T, E: LayerError>(
    inner: &mut dyn Platform,
    ctl: &mut Resilience,
    port: Port,
    op: &'static str,
    call: impl FnMut(&mut dyn Platform) -> Result<T, E>,
) -> CallOutcome<T, E> {
    // One span per policed port call: retries, backoffs and breaker
    // transitions all nest under it — and under whatever trace the
    // caller (e.g. an `exchange`) has open — so resilience activity is
    // attributable to the operation that triggered it.
    let start = inner.clock().now_micros();
    let span = ctl
        .telemetry
        .span_begin(Layer::Env, port.call_span(), start);
    let outcome = policed_attempts(inner, ctl, port, op, call);
    let end = inner.clock().now_micros();
    ctl.telemetry.span_end(span, end);
    outcome
}

/// The retry loop of [`policed`], separated so the wrapping span closes
/// on every exit path.
fn policed_attempts<T, E: LayerError>(
    inner: &mut dyn Platform,
    ctl: &mut Resilience,
    port: Port,
    op: &'static str,
    mut call: impl FnMut(&mut dyn Platform) -> Result<T, E>,
) -> CallOutcome<T, E> {
    let start = Timestamp::from_micros(inner.clock().now_micros());
    let deadline = match ctl.call_budget_micros {
        Some(budget) => Deadline::within(start, budget),
        None => Deadline::NEVER,
    };
    let before = ctl.breaker(port).state();
    if !ctl.breaker(port).admit(start) {
        ctl.telemetry.incr(Layer::Env, port.rejected());
        return CallOutcome::Rejected;
    }
    ctl.note_transitions(port, before, start.as_micros());

    let mut attempt: u32 = 0;
    loop {
        ctl.telemetry.incr(Layer::Env, port.attempts());
        let result = call(inner);
        let now = Timestamp::from_micros(inner.clock().now_micros());
        match result {
            Ok(value) => {
                let before = ctl.breaker(port).state();
                ctl.breaker(port).record_success();
                ctl.note_transitions(port, before, now.as_micros());
                return CallOutcome::Ok(value);
            }
            Err(e) => {
                let class = e.class();
                let before = ctl.breaker(port).state();
                if class.is_transient() {
                    // An infrastructure fault: count it against the
                    // breaker.
                    ctl.breaker(port).record_failure(now);
                } else {
                    // The port *answered*, with a fault of the request;
                    // connectivity-wise that is a success.
                    ctl.breaker(port).record_success();
                }
                ctl.note_transitions(port, before, now.as_micros());
                let retryable = ctl.policy.should_retry(attempt, class)
                    && ctl.breaker(port).state() == BreakerState::Closed;
                if !retryable {
                    return CallOutcome::Failed(e);
                }
                let backoff = ctl.policy.backoff_micros(attempt, &mut ctl.rng);
                if deadline.expired(now) || backoff > deadline.remaining_micros(now) {
                    return CallOutcome::Failed(e);
                }
                // The retry span covers the backoff wait; its end is
                // the wait's end in platform time even though the
                // simulated clock does not advance during it.
                let retry_span =
                    ctl.telemetry
                        .span_begin(Layer::Env, "resilience.retry", now.as_micros());
                ctl.telemetry.incr(Layer::Env, port.retries());
                ctl.telemetry
                    .record_micros(Layer::Env, "resilience.backoff", backoff);
                ctl.telemetry.emit(
                    now.as_micros(),
                    Layer::Env,
                    "resilience.retry",
                    format_args!("{op} attempt {} backoff {backoff}µs", attempt + 1),
                );
                ctl.telemetry
                    .span_end(retry_span, now.as_micros().saturating_add(backoff));
                attempt += 1;
            }
        }
    }
}

/// A [`Platform`] decorator that masks transient port faults.
///
/// Wrap any platform and hand the result to the environment:
///
/// ```
/// use mocca::{CscwEnvironment, LocalPlatform, ResilientPlatform};
///
/// let platform = ResilientPlatform::new(Box::new(LocalPlatform::new()));
/// let env = CscwEnvironment::with_platform(Box::new(platform));
/// assert_eq!(env.platform().name(), "resilient");
/// ```
pub struct ResilientPlatform {
    inner: Box<dyn Platform>,
    ctl: Resilience,
    /// Last successful offers per service type — the degraded answer
    /// when the trader breaker is open.
    offer_cache: BTreeMap<String, Vec<ServiceOffer>>,
    /// Last successful read/search results, keyed by the operation —
    /// the (stale) degraded answer when the directory breaker is open.
    read_cache: BTreeMap<String, DirResult>,
}

impl ResilientPlatform {
    /// Breaker threshold: consecutive transient failures before a port
    /// opens.
    const DEFAULT_FAILURE_THRESHOLD: u32 = 3;
    /// Breaker cooldown in platform time before a half-open probe.
    const DEFAULT_COOLDOWN_MICROS: u64 = 200_000;

    /// Wraps `inner` with the default policy (three attempts, 10 ms
    /// base backoff, breakers opening after three consecutive transient
    /// failures, 200 ms cooldown, jitter seed 0).
    pub fn new(inner: Box<dyn Platform>) -> Self {
        let telemetry = inner.telemetry().clone();
        ResilientPlatform {
            inner,
            ctl: Resilience {
                policy: RetryPolicy::default(),
                call_budget_micros: None,
                rng: SeededRng::seed_from(0),
                trader_breaker: Self::default_breaker(),
                directory_breaker: Self::default_breaker(),
                transport_breaker: Self::default_breaker(),
                telemetry,
            },
            offer_cache: BTreeMap::new(),
            read_cache: BTreeMap::new(),
        }
    }

    fn default_breaker() -> CircuitBreaker {
        CircuitBreaker::new(
            Self::DEFAULT_FAILURE_THRESHOLD,
            Self::DEFAULT_COOLDOWN_MICROS,
        )
    }

    /// Replaces the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.ctl.policy = policy;
        self
    }

    /// Re-seeds the jitter stream (keep this in step with the
    /// platform's own seed for a fully reproducible run).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.ctl.rng = SeededRng::seed_from(seed);
        self
    }

    /// Replaces all three breakers with `CircuitBreaker::new(threshold,
    /// cooldown_micros)`.
    pub fn with_breakers(mut self, threshold: u32, cooldown_micros: u64) -> Self {
        self.ctl.trader_breaker = CircuitBreaker::new(threshold, cooldown_micros);
        self.ctl.directory_breaker = CircuitBreaker::new(threshold, cooldown_micros);
        self.ctl.transport_breaker = CircuitBreaker::new(threshold, cooldown_micros);
        self
    }

    /// Caps the platform time one policed call (retries included) may
    /// consume before the policy gives up.
    pub fn with_call_budget_micros(mut self, budget: u64) -> Self {
        self.ctl.call_budget_micros = Some(budget);
        self
    }

    /// The wrapped platform, for fault injection in tests.
    pub fn inner_mut(&mut self) -> &mut dyn Platform {
        self.inner.as_mut()
    }

    /// Current `(trader, directory, transport)` breaker states, for
    /// observation by harnesses and health surfaces.
    pub fn breaker_states(&self) -> (BreakerState, BreakerState, BreakerState) {
        (
            self.ctl.trader_breaker.state(),
            self.ctl.directory_breaker.state(),
            self.ctl.transport_breaker.state(),
        )
    }

    fn now_micros(&self) -> u64 {
        self.inner.clock().now_micros()
    }
}

impl std::fmt::Debug for ResilientPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientPlatform")
            .field("inner", &self.inner.name())
            .field("policy", &self.ctl.policy)
            .field("trader_breaker", &self.ctl.trader_breaker.state())
            .field("directory_breaker", &self.ctl.directory_breaker.state())
            .field("transport_breaker", &self.ctl.transport_breaker.state())
            .finish()
    }
}

impl Platform for ResilientPlatform {
    fn name(&self) -> &'static str {
        "resilient"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn clock(&self) -> &dyn Clock {
        self.inner.clock()
    }

    fn telemetry(&self) -> &Telemetry {
        // The handle captured at construction: the same stream as the
        // wrapped platform's, but stable across `inner` swaps in tests.
        &self.ctl.telemetry
    }

    fn trader(&mut self) -> &mut dyn TraderPort {
        self
    }

    fn directory(&mut self) -> &mut dyn DirectoryPort {
        self
    }

    fn transport(&mut self) -> &mut dyn TransportPort {
        self
    }
}

impl TraderPort for ResilientPlatform {
    fn register_service_type(&mut self, iface: InterfaceType) {
        self.inner.trader().register_service_type(iface);
    }

    fn export(
        &mut self,
        service_type: &str,
        offering_type: &InterfaceType,
        interface: InterfaceRef,
        properties: Vec<(String, Value)>,
    ) -> Result<OfferId, OdpError> {
        match policed(
            self.inner.as_mut(),
            &mut self.ctl,
            Port::Trader,
            "trader.export",
            |p| {
                p.trader().export(
                    service_type,
                    offering_type,
                    interface.clone(),
                    properties.clone(),
                )
            },
        ) {
            CallOutcome::Ok(id) => Ok(id),
            // There is no safe degraded answer for an export: the offer
            // either reached the trader or it did not.
            CallOutcome::Rejected => Err(OdpError::Unavailable(
                "trader breaker open; export refused".into(),
            )),
            CallOutcome::Failed(e) => Err(e),
        }
    }

    fn import(&mut self, request: &ImportRequest) -> Result<Vec<ServiceOffer>, OdpError> {
        match policed(
            self.inner.as_mut(),
            &mut self.ctl,
            Port::Trader,
            "trader.import",
            |p| p.trader().import(request),
        ) {
            CallOutcome::Ok(offers) => {
                self.offer_cache
                    .insert(request.service_type.clone(), offers.clone());
                Ok(offers)
            }
            CallOutcome::Rejected => self.degraded_import(request, None),
            CallOutcome::Failed(e) if e.class() == ErrorClass::Transient => {
                self.degraded_import(request, Some(e))
            }
            CallOutcome::Failed(e) => Err(e),
        }
    }

    fn attach_policy(&mut self, policy: Box<dyn TradingPolicy>) {
        self.inner.trader().attach_policy(policy);
    }

    fn offer_count(&mut self) -> usize {
        self.inner.trader().offer_count()
    }
}

impl ResilientPlatform {
    /// Serves the last-known offers for the requested service type, or
    /// surfaces the failure when nothing was ever cached.
    fn degraded_import(
        &mut self,
        request: &ImportRequest,
        cause: Option<OdpError>,
    ) -> Result<Vec<ServiceOffer>, OdpError> {
        if let Some(offers) = self.offer_cache.get(&request.service_type) {
            self.ctl.telemetry.incr(Layer::Env, Port::Trader.degraded());
            self.ctl.telemetry.emit(
                self.now_micros(),
                Layer::Env,
                "resilience.stale_offers",
                format_args!(
                    "served {} cached offer(s) for {:?}",
                    offers.len(),
                    request.service_type
                ),
            );
            return Ok(offers.clone());
        }
        Err(cause.unwrap_or_else(|| {
            OdpError::Unavailable("trader breaker open; no cached offers".into())
        }))
    }

    /// Serves a stale read/search answer, or surfaces the failure.
    fn degraded_dir(
        &mut self,
        key: Option<String>,
        cause: Option<DirectoryError>,
    ) -> Result<DirResult, DirectoryError> {
        if let Some(result) = key.as_ref().and_then(|k| self.read_cache.get(k)) {
            self.ctl
                .telemetry
                .incr(Layer::Env, "resilience.directory.stale_read");
            self.ctl
                .telemetry
                .incr(Layer::Env, Port::Directory.degraded());
            self.ctl.telemetry.emit(
                self.now_micros(),
                Layer::Env,
                "resilience.stale_read",
                key.unwrap_or_default(),
            );
            return Ok(result.clone());
        }
        Err(cause.unwrap_or_else(|| {
            DirectoryError::Unavailable("directory breaker open; no cached answer".into())
        }))
    }
}

impl DirectoryPort for ResilientPlatform {
    fn apply(&mut self, op: DirOp) -> Result<DirResult, DirectoryError> {
        // Only queries may legally be answered from cache; a "stale
        // write" would silently drop the mutation.
        let cache_key = (!op.is_write()).then(|| format!("{op:?}"));
        match policed(
            self.inner.as_mut(),
            &mut self.ctl,
            Port::Directory,
            "directory.apply",
            |p| p.directory().apply(op.clone()),
        ) {
            CallOutcome::Ok(result) => {
                if let Some(key) = cache_key {
                    self.read_cache.insert(key, result.clone());
                }
                Ok(result)
            }
            CallOutcome::Rejected => self.degraded_dir(cache_key, None),
            CallOutcome::Failed(e) if e.class() == ErrorClass::Transient => {
                self.degraded_dir(cache_key, Some(e))
            }
            CallOutcome::Failed(e) => Err(e),
        }
    }
}

impl TransportPort for ResilientPlatform {
    fn notify(
        &mut self,
        from: &OrAddress,
        to: &OrAddress,
        subject: &str,
        body: &str,
    ) -> Result<u64, MtsError> {
        match policed(
            self.inner.as_mut(),
            &mut self.ctl,
            Port::Transport,
            "transport.notify",
            |p| p.transport().notify(from, to, subject, body),
        ) {
            CallOutcome::Ok(id) => Ok(id),
            // A notification cannot be served stale: refuse fast.
            CallOutcome::Rejected => Err(MtsError::Unavailable(
                "transport breaker open; submission refused".into(),
            )),
            CallOutcome::Failed(e) => Err(e),
        }
    }

    fn delivered(&mut self, to: &OrAddress) -> Vec<String> {
        self.inner.transport().delivered(to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::LocalPlatform;

    /// A platform whose ports fail with a transient error for the first
    /// `failures` calls, then delegate to a LocalPlatform.
    struct Flaky {
        inner: LocalPlatform,
        failures: u32,
        clock: cscw_kernel::ManualClock,
    }

    impl Flaky {
        fn new(failures: u32) -> Self {
            Flaky {
                inner: LocalPlatform::new(),
                failures,
                clock: cscw_kernel::ManualClock::new(),
            }
        }

        fn take_failure(&mut self) -> bool {
            // Each port call costs some platform time, like a real wire.
            self.clock.set_micros(self.clock.now_micros() + 1_000);
            if self.failures > 0 {
                self.failures -= 1;
                true
            } else {
                false
            }
        }
    }

    impl Platform for Flaky {
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn clock(&self) -> &dyn Clock {
            &self.clock
        }
        fn telemetry(&self) -> &Telemetry {
            self.inner.telemetry()
        }
        fn trader(&mut self) -> &mut dyn TraderPort {
            self
        }
        fn directory(&mut self) -> &mut dyn DirectoryPort {
            self
        }
        fn transport(&mut self) -> &mut dyn TransportPort {
            self
        }
    }

    impl TraderPort for Flaky {
        fn register_service_type(&mut self, iface: InterfaceType) {
            self.inner.trader().register_service_type(iface);
        }
        fn export(
            &mut self,
            service_type: &str,
            offering_type: &InterfaceType,
            interface: InterfaceRef,
            properties: Vec<(String, Value)>,
        ) -> Result<OfferId, OdpError> {
            if self.take_failure() {
                return Err(OdpError::Unavailable("flaky".into()));
            }
            self.inner
                .trader()
                .export(service_type, offering_type, interface, properties)
        }
        fn import(&mut self, request: &ImportRequest) -> Result<Vec<ServiceOffer>, OdpError> {
            if self.take_failure() {
                return Err(OdpError::Unavailable("flaky".into()));
            }
            self.inner.trader().import(request)
        }
        fn attach_policy(&mut self, policy: Box<dyn TradingPolicy>) {
            self.inner.trader().attach_policy(policy);
        }
        fn offer_count(&mut self) -> usize {
            self.inner.trader().offer_count()
        }
    }

    impl DirectoryPort for Flaky {
        fn apply(&mut self, op: DirOp) -> Result<DirResult, DirectoryError> {
            if self.take_failure() {
                return Err(DirectoryError::Unavailable("flaky".into()));
            }
            self.inner.directory().apply(op)
        }
    }

    impl TransportPort for Flaky {
        fn notify(
            &mut self,
            from: &OrAddress,
            to: &OrAddress,
            subject: &str,
            body: &str,
        ) -> Result<u64, MtsError> {
            if self.take_failure() {
                return Err(MtsError::Unavailable("flaky".into()));
            }
            self.inner.transport().notify(from, to, subject, body)
        }
        fn delivered(&mut self, to: &OrAddress) -> Vec<String> {
            self.inner.transport().delivered(to)
        }
    }

    fn offer_world(p: &mut ResilientPlatform) {
        let iface = InterfaceType::new("printer");
        p.trader().register_service_type(iface.clone());
        p.trader()
            .export(
                "printer",
                &iface,
                InterfaceRef {
                    object: "printer-1".into(),
                    node: simnet::NodeId::from_raw(0),
                    interface: "printer".into(),
                },
                vec![],
            )
            .unwrap();
    }

    #[test]
    fn retries_mask_transient_faults() {
        let mut p = ResilientPlatform::new(Box::new(Flaky::new(2)))
            .with_policy(RetryPolicy::new(3, 10, 100));
        offer_world(&mut p); // first two calls fail, retried through
        let offers = p.trader().import(&ImportRequest::any("printer")).unwrap();
        assert_eq!(offers.len(), 1);
        let t = p.telemetry().clone();
        assert!(t.counter(Layer::Env, "resilience.trader.retries") >= 2);
        assert!(
            t.counter(Layer::Env, "resilience.trader.attempts")
                > t.counter(Layer::Env, "resilience.trader.retries")
        );
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let mut p = ResilientPlatform::new(Box::new(LocalPlatform::new()));
        let err = p
            .trader()
            .import(&ImportRequest::any("nonexistent"))
            .unwrap_err();
        assert_eq!(err.class(), ErrorClass::Permanent);
        let t = p.telemetry().clone();
        assert_eq!(t.counter(Layer::Env, "resilience.trader.retries"), 0);
        assert_eq!(t.counter(Layer::Env, "resilience.trader.attempts"), 1);
    }

    #[test]
    fn exhausted_retries_open_the_breaker_and_serve_cached_offers() {
        // 1 attempt per call, breaker opens after 2 transient failures.
        // Warm the cache while the inner platform is healthy.
        let mut warm = ResilientPlatform::new(Box::new(Flaky::new(0)))
            .with_policy(RetryPolicy::none())
            .with_breakers(2, 1_000_000);
        offer_world(&mut warm);
        let req = ImportRequest::any("printer");
        let live = warm.trader().import(&req).unwrap();
        assert_eq!(live.len(), 1);

        // Now make the inner platform permanently flaky and trip the
        // breaker: two transient failures.
        warm.inner = Box::new(Flaky::new(u32::MAX));
        let first = warm.trader().import(&req);
        assert!(first.is_ok(), "degraded answer after transient failure");
        let second = warm.trader().import(&req);
        assert!(second.is_ok());
        let t = warm.telemetry().clone();
        assert!(t.counter(Layer::Env, "resilience.trader.breaker_open") >= 1);
        // Breaker now open: the next call never reaches the port.
        let attempts_before = t.counter(Layer::Env, "resilience.trader.attempts");
        let third = warm.trader().import(&req).unwrap();
        assert_eq!(third.len(), 1, "cached offers served while open");
        assert_eq!(
            t.counter(Layer::Env, "resilience.trader.attempts"),
            attempts_before,
            "open breaker short-circuits the port call"
        );
        assert!(t.counter(Layer::Env, "resilience.trader.degraded") >= 1);
    }

    #[test]
    fn directory_serves_stale_reads_flagged_as_such() {
        use cscw_directory::{Attribute, Entry};
        let mut p = ResilientPlatform::new(Box::new(Flaky::new(0)))
            .with_policy(RetryPolicy::none())
            .with_breakers(1, 1_000_000);
        let dn: cscw_directory::Dn = "c=UK".parse().unwrap();
        let entry = Entry::new(dn.clone())
            .with_class("country")
            .with_attr(Attribute::single("c", "UK"));
        p.directory().apply(DirOp::Add(entry)).unwrap();
        let fresh = p.directory().apply(DirOp::Read(dn.clone())).unwrap();
        assert!(matches!(fresh, DirResult::Entry(_)));

        // Break the inner platform; the read now degrades to the cache.
        p.inner = Box::new(Flaky::new(u32::MAX));
        let stale = p.directory().apply(DirOp::Read(dn.clone())).unwrap();
        assert_eq!(stale, fresh, "stale answer equals the last good one");
        let t = p.telemetry().clone();
        assert!(t.counter(Layer::Env, "resilience.directory.stale_read") >= 1);
        assert!(
            t.events().iter().any(|e| e.name == "resilience.stale_read"),
            "stale reads are flagged in the event stream"
        );

        // Mutations are never served stale.
        let err = p.directory().apply(DirOp::Remove(dn)).unwrap_err();
        assert!(matches!(err, DirectoryError::Unavailable(_)));
    }

    #[test]
    fn transport_refuses_fast_when_open_and_never_fakes_delivery() {
        let mut p = ResilientPlatform::new(Box::new(Flaky::new(u32::MAX)))
            .with_policy(RetryPolicy::none())
            .with_breakers(1, 1_000_000);
        let a: OrAddress = "C=UK;O=X;PN=A".parse().unwrap();
        let b: OrAddress = "C=UK;O=X;PN=B".parse().unwrap();
        let first = p.transport().notify(&a, &b, "s", "b").unwrap_err();
        assert!(matches!(first, MtsError::Unavailable(_)));
        let t = p.telemetry().clone();
        let attempts = t.counter(Layer::Env, "resilience.transport.attempts");
        let second = p.transport().notify(&a, &b, "s", "b").unwrap_err();
        assert!(matches!(second, MtsError::Unavailable(_)));
        assert_eq!(
            t.counter(Layer::Env, "resilience.transport.attempts"),
            attempts,
            "open breaker refuses without touching the port"
        );
        assert!(t.counter(Layer::Env, "resilience.transport.rejected") >= 1);
    }

    #[test]
    fn congestion_alone_opens_a_breaker_with_zero_injected_faults() {
        use crate::platform::SimPlatform;
        use simnet::{LinkSpec, NodeId, Payload};

        // A slow, queue-bounded mesh: 10 kB/s wires that hold at most
        // 4 queued messages. No fault is ever injected — the only
        // adversary is offered load.
        let spec = LinkSpec::fixed(1_000)
            .with_bandwidth(10_000)
            .with_queue_capacity_msgs(4);
        let sim_platform = SimPlatform::with_link_spec(7, Telemetry::new(), spec);
        let mut p = ResilientPlatform::new(Box::new(sim_platform))
            .with_policy(RetryPolicy::none())
            .with_breakers(3, 1_000_000);

        // Flood the trader-client → trader wire with junk so the
        // facade's next request is shed by the full queue.
        let flood = |p: &mut ResilientPlatform| {
            let sp = p
                .inner
                .as_any_mut()
                .downcast_mut::<SimPlatform>()
                .expect("inner is the sim platform");
            let sim = sp.sim_mut();
            let (client, trader) = (NodeId::from_raw(0), NodeId::from_raw(3));
            for _ in 0..8 {
                sim.send_from(client, trader, Payload::new(0u32), 600);
            }
        };

        for _ in 0..3 {
            flood(&mut p);
            let err = p
                .trader()
                .import(&odp::ImportRequest::any("printer"))
                .unwrap_err();
            assert!(matches!(err, OdpError::Unavailable(_)), "got {err:?}");
        }
        let (trader_breaker, _, _) = p.breaker_states();
        assert_eq!(
            trader_breaker,
            BreakerState::Open,
            "three congestion-shed requests must trip the trader breaker"
        );
        let t = p.telemetry().clone();
        assert_eq!(t.counter(Layer::Env, "resilience.trader.breaker_open"), 1);
        // The drops really came from queue overflow, not faults.
        let sp = p
            .inner
            .as_any_mut()
            .downcast_mut::<SimPlatform>()
            .expect("inner is the sim platform");
        assert!(
            sp.sim()
                .telemetry()
                .counter(Layer::Net, "net.dropped_queue_full")
                >= 3
        );
        assert_eq!(
            sp.sim()
                .telemetry()
                .counter(Layer::Net, "net.dropped_node_down"),
            0
        );
        assert_eq!(
            sp.sim()
                .telemetry()
                .counter(Layer::Net, "net.dropped_partitioned"),
            0
        );
    }

    #[test]
    fn jitter_is_reproducible_per_seed() {
        // Two identically-seeded decorators over identically-flaky
        // platforms record identical backoff samples.
        let run = |seed: u64| {
            let mut p = ResilientPlatform::new(Box::new(Flaky::new(2)))
                .with_policy(RetryPolicy::new(3, 1_000, 64_000))
                .with_seed(seed);
            offer_world(&mut p);
            p.telemetry()
                .histogram(Layer::Env, "resilience.backoff")
                .map(|h| (h.count, h.min_micros, h.max_micros, h.mean_micros))
        };
        assert_eq!(run(7), run(7));
        assert!(run(7).is_some());
    }
}
