//! The event-driven federation runtime at scale.
//!
//! The acceptance scenarios for folding gossip, TTL expiry and
//! delivery pumping into the scheduler: federations of up to 128
//! sites converge to bit-for-bit identical replica fingerprints under
//! seeds 1–3, and every exchange happens because a scheduled event
//! fired. Offer TTLs expire on swept time, not lazily on the next
//! query.

use cscw_bench::fed_scale::{self, Shape, ISLANDS_HEAL_AT_MICROS};
use open_cscw::groupware::{descriptor_for, mapping_for};
use open_cscw::kernel::{Layer, Timestamp};
use open_cscw::mocca::env::CscwEnvironment;
use open_cscw::mocca::federation::FederatedEnvironments;
use open_cscw::mocca::federation::DEFAULT_GOSSIP_PERIOD_MICROS;

/// Converges one `(shape, n)` cell per seed and returns the replica
/// fingerprint digests — callers assert they are identical.
fn fingerprints_for(shape: Shape, n: usize, seeds: &[u64]) -> Vec<String> {
    seeds
        .iter()
        .map(|&seed| {
            let r = fed_scale::run(shape, n, seed).expect("scale cell");
            assert!(
                r.converged,
                "{} n={n} seed={seed} must converge: {r:?}",
                shape.name()
            );
            assert!(r.bytes_on_wire > 0, "frames must ride the wire");
            r.fingerprint
        })
        .collect()
}

#[test]
fn star_128_sites_converges_bit_for_bit_under_seeds_1_to_3() {
    let prints = fingerprints_for(Shape::Star, 128, &[1, 2, 3]);
    assert!(
        prints.iter().all(|p| *p == prints[0]),
        "seeds must agree: {prints:?}"
    );
}

#[test]
fn healed_islands_128_sites_converge_bit_for_bit_under_seeds_1_to_3() {
    let mut prints = Vec::new();
    for seed in [1, 2, 3] {
        let r = fed_scale::run(Shape::Islands, 128, seed).expect("scale cell");
        assert!(r.converged, "seed {seed}: {r:?}");
        assert!(
            r.sim_micros > ISLANDS_HEAL_AT_MICROS,
            "convergence is impossible before the scheduled heal: {r:?}"
        );
        prints.push(r.fingerprint);
    }
    assert!(
        prints.iter().all(|p| *p == prints[0]),
        "seeds must agree: {prints:?}"
    );
}

#[test]
fn smoke_32_sites_converge_on_every_shape() {
    for shape in [Shape::Ring, Shape::Star, Shape::Random, Shape::Islands] {
        let r = fed_scale::run(shape, 32, 1).expect("scale cell");
        assert!(r.converged, "{}: {r:?}", shape.name());
        // Jittered per-site timers: one pulse per site per period, so
        // pulses scale with sites × rounds, never with sites².
        assert!(r.gossip_pulses >= 32, "{}: {r:?}", shape.name());
    }
}

#[test]
fn expired_remote_offer_disappears_without_any_query() {
    let mut env_b = CscwEnvironment::new();
    env_b.register_app(
        descriptor_for("com").expect("descriptor"),
        mapping_for("com").expect("mapping"),
    );
    let mut fed = FederatedEnvironments::new();
    fed.federate("env-a", CscwEnvironment::new());
    fed.federate("env-b", env_b);
    fed.link_bidi("env-a", "env-b");

    // Setup: one federated resolution caches the remote offer.
    let mut port = fed.fabric().join("env-a");
    use open_cscw::federation::FederationPort;
    port.resolve_app("com", Timestamp::ZERO).expect("resolve");
    assert_eq!(fed.fabric().offer_cache_len(), 1);

    // Six simulated seconds of scheduled time pass — past the 5 s
    // default TTL — with no resolve_app / exchange / expire call from
    // this harness. The runtime's TTL sweep must evict the offer.
    fed.run_for(6_000_000, 1).expect("run");
    assert_eq!(
        fed.fabric().offer_cache_len(),
        0,
        "expired offer must disappear on swept time, not on the next query"
    );
    assert_eq!(
        fed.fabric()
            .telemetry()
            .counter(Layer::Federation, "federation.ttl.expired"),
        1
    );
}

#[test]
fn runtime_reports_scheduled_activity() {
    let mut fed = FederatedEnvironments::new();
    for d in ["env-a", "env-b"] {
        fed.federate(d, CscwEnvironment::new());
    }
    fed.link_bidi("env-a", "env-b");
    fed.start_runtime(9);
    let report = fed.run_for(1_000_000, 9).expect("run");
    // Two sites × (1s / period) pulses each, phases jittered.
    let expected = 2 * (1_000_000 / DEFAULT_GOSSIP_PERIOD_MICROS) as usize;
    assert!(
        report.gossip_pulses >= expected.saturating_sub(2) && report.gossip_pulses <= expected + 2,
        "pulse count should track the period grid: {report:?}"
    );
    assert!(report.pump_pulses > 0);
}
