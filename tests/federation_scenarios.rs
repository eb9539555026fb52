//! Federation scenarios: N environments, one open CSCW system.
//!
//! The paper's open-systems claim, taken across environment boundaries:
//! two `CscwEnvironment`s that cannot exchange while isolated can, once
//! federated, locate each other's applications through linked traders,
//! route artifacts across sites in the common information model, and
//! converge their shared knowledge by anti-entropy gossip.
//!
//! Every scenario is a pure function of its seed: rerunning a seed
//! reproduces the same deliveries and bit-for-bit identical replica
//! fingerprints.

use std::collections::BTreeMap;

use open_cscw::directory::Dn;
use open_cscw::federation::{FederatedTrader, FederationError};
use open_cscw::groupware::{descriptor_for, mapping_for, sample_artifact};
use open_cscw::kernel::{Layer, LayerError, RetryPolicy, Timestamp};
use open_cscw::mocca::env::{AppId, CscwEnvironment};
use open_cscw::mocca::federation::{FederatedEnvironments, DEFAULT_GOSSIP_PERIOD_MICROS};
use open_cscw::mocca::{MoccaError, ResilientPlatform, SimPlatform};
use open_cscw::odp::LinkState;

/// Simulated-time budget for a two-site convergence (one minute).
const CONVERGENCE_BUDGET_MICROS: u64 = 60_000_000;

fn dn(s: &str) -> Dn {
    s.parse().unwrap()
}

/// One site on a seeded simulated platform, hosting some of the
/// Figure-3 population.
fn sim_site(seed: u64, apps: &[&str]) -> CscwEnvironment {
    let mut env = CscwEnvironment::with_platform(Box::new(SimPlatform::new(seed)));
    for app in apps {
        env.register_app(descriptor_for(app).unwrap(), mapping_for(app).unwrap());
    }
    env
}

/// The tentpole scenario as a pure function of `seed`: isolated
/// environments cannot exchange; federated ones can; gossip converges.
/// Returns the per-domain replica fingerprints for bit-for-bit
/// comparison across reruns.
fn run_scenario(seed: u64) -> BTreeMap<String, String> {
    let mut env_a = sim_site(seed, &["sharedx", "colab"]);
    let env_b = sim_site(seed.wrapping_add(1), &["com", "lens"]);

    // Isolated: env-a's trader has no offer for COM, and no federation
    // to fall through to.
    let tom = dn("cn=Tom");
    let artifact = sample_artifact("sharedx").unwrap();
    let err = env_a
        .exchange(&tom, &artifact, &AppId::new("com"), Timestamp::ZERO)
        .unwrap_err();
    assert!(
        matches!(err, MoccaError::UnknownApplication(_)),
        "isolated exchange must miss: {err}"
    );

    // Federate the same two environments.
    let mut fed = FederatedEnvironments::new();
    fed.federate("env-a", env_a);
    fed.federate("env-b", env_b);
    fed.link_bidi("env-a", "env-b");

    let out = fed
        .env_mut("env-a")
        .unwrap()
        .exchange(&tom, &artifact, &AppId::new("com"), Timestamp::ZERO)
        .expect("federated exchange succeeds");
    assert_eq!(out.format, "common");
    let run = fed.run_for(DEFAULT_GOSSIP_PERIOD_MICROS, seed).unwrap();
    assert_eq!(run.deliveries, 1, "one remote delivery");

    // The destination environment raised the artifact into COM's
    // native vocabulary and recorded it.
    let env_b = fed.env("env-b").unwrap();
    assert_eq!(env_b.repository().len(), 1);

    // Seed more knowledge on both sides, then gossip to convergence.
    for (domain, note) in [("env-a", "seeded-alpha"), ("env-b", "seeded-beta")] {
        fed.env_mut(domain)
            .unwrap()
            .store_object(
                open_cscw::mocca::info::InfoObject::new(
                    open_cscw::mocca::info::InfoObjectId::new(format!("doc-{note}")),
                    "note",
                    tom.clone(),
                    open_cscw::mocca::info::InfoContent::Text(format!("{note} (seed {seed})")),
                ),
                None,
                Timestamp::ZERO,
            )
            .unwrap();
    }
    assert!(!fed.converged(), "distinct knowledge before gossip");
    let run = fed
        .run_until_converged(seed, CONVERGENCE_BUDGET_MICROS)
        .unwrap();
    assert!(run.converged && fed.converged(), "replicas converge");

    let prints = fed.fingerprints();
    assert!(
        prints.values().all(|p| !p.is_empty()),
        "non-trivial replicas"
    );
    prints
}

#[test]
fn federation_scenario_seed_1() {
    run_scenario(1);
}

#[test]
fn federation_scenario_seed_2() {
    run_scenario(2);
}

#[test]
fn federation_scenario_seed_3() {
    run_scenario(3);
}

#[test]
fn scenario_is_bit_for_bit_deterministic() {
    for seed in 1..=3 {
        assert_eq!(
            run_scenario(seed),
            run_scenario(seed),
            "seed {seed} must reproduce identical fingerprints"
        );
    }
}

#[test]
fn trader_cycles_terminate_at_the_hop_limit() {
    // A → B → C → A, and nobody hosts the wanted app: the federated
    // walk must terminate (visited suppression + hop budget), not spin.
    let mut fed = FederatedEnvironments::with_trader(FederatedTrader::new().with_hop_limit(2));
    fed.federate("env-a", sim_site(1, &["sharedx"]));
    fed.federate("env-b", sim_site(2, &["colab"]));
    fed.federate("env-c", sim_site(3, &["lens"]));
    fed.link("env-a", "env-b");
    fed.link("env-b", "env-c");
    fed.link("env-c", "env-a");

    let tom = dn("cn=Tom");
    let artifact = sample_artifact("sharedx").unwrap();
    let err = fed
        .env_mut("env-a")
        .unwrap()
        .exchange(&tom, &artifact, &AppId::new("domino"), Timestamp::ZERO)
        .unwrap_err();
    assert!(
        matches!(
            err,
            MoccaError::Federation(FederationError::UnknownApplication(_))
        ),
        "cycle walk must end in a clean miss: {err}"
    );
    // But an app the cycle *can* reach within budget still resolves.
    fed.env_mut("env-a")
        .unwrap()
        .exchange(&tom, &artifact, &AppId::new("lens"), Timestamp::ZERO)
        .expect("two hops away, inside the budget");
}

#[test]
fn stale_cached_offers_expire() {
    let mut fed = FederatedEnvironments::with_trader(FederatedTrader::new().with_ttl_micros(1_000));
    fed.federate("env-a", sim_site(1, &["sharedx"]));
    fed.federate("env-b", sim_site(2, &["com"]));
    fed.link_bidi("env-a", "env-b");

    let tom = dn("cn=Tom");
    let artifact = sample_artifact("sharedx").unwrap();
    // First exchange pays the federated walk; the second, inside the
    // TTL, answers from the offer cache; the third, past the TTL,
    // walks again.
    for at in [0, 500, 5_000] {
        fed.env_mut("env-a")
            .unwrap()
            .exchange(
                &tom,
                &artifact,
                &AppId::new("com"),
                Timestamp::from_micros(at),
            )
            .unwrap();
    }
    let t = fed.fabric().telemetry();
    assert_eq!(
        t.counter(Layer::Federation, "federation.resolve.federated"),
        2
    );
    assert_eq!(t.counter(Layer::Federation, "federation.resolve.cache"), 1);
}

#[test]
fn partitioned_link_degrades_to_local_only() {
    let mut fed = FederatedEnvironments::new();
    fed.federate("env-a", sim_site(1, &["sharedx"]));
    fed.federate("env-b", sim_site(2, &["com"]));
    fed.link_bidi("env-a", "env-b");
    assert!(fed.set_link_state("env-a", "env-b", LinkState::Down));

    let tom = dn("cn=Tom");
    let artifact = sample_artifact("sharedx").unwrap();
    let err = fed
        .env_mut("env-a")
        .unwrap()
        .exchange(&tom, &artifact, &AppId::new("com"), Timestamp::ZERO)
        .unwrap_err();
    assert!(
        matches!(err, MoccaError::Federation(FederationError::Partitioned(_))),
        "a down link is a partition, not an unknown app: {err}"
    );
    assert!(err.class().is_transient(), "partitions are retryable");

    // Local services keep working while partitioned (local-only mode):
    // sharedx ↔ colab would be local; here, self-resolution still works
    // through the local registry.
    fed.env_mut("env-a").unwrap().register_app(
        descriptor_for("colab").unwrap(),
        mapping_for("colab").unwrap(),
    );
    fed.env_mut("env-a")
        .unwrap()
        .exchange(&tom, &artifact, &AppId::new("colab"), Timestamp::ZERO)
        .expect("local exchange unaffected by the partition");

    // Heal the link: the federation recovers without rebuilding.
    assert!(fed.set_link_state("env-a", "env-b", LinkState::Up));
    fed.env_mut("env-a")
        .unwrap()
        .exchange(&tom, &artifact, &AppId::new("com"), Timestamp::ZERO)
        .expect("healed link routes again");
}

#[test]
fn federation_composes_with_the_resilient_platform() {
    // Each site runs ResilientPlatform(SimPlatform): the federation
    // consumes the Platform ports only through the environment, so the
    // resilience layer slots in unchanged beneath a federated site.
    let mut fed = FederatedEnvironments::new();
    for (domain, seed, apps) in [
        ("env-a", 11_u64, ["sharedx"].as_slice()),
        ("env-b", 22, ["com"].as_slice()),
    ] {
        let platform = ResilientPlatform::new(Box::new(SimPlatform::new(seed)))
            .with_seed(seed)
            .with_policy(RetryPolicy::new(3, 500, 4_000));
        let mut env = CscwEnvironment::with_platform(Box::new(platform));
        for app in apps {
            env.register_app(descriptor_for(app).unwrap(), mapping_for(app).unwrap());
        }
        fed.federate(domain, env);
    }
    fed.link_bidi("env-a", "env-b");

    let tom = dn("cn=Tom");
    let artifact = sample_artifact("sharedx").unwrap();
    fed.env_mut("env-a")
        .unwrap()
        .exchange(&tom, &artifact, &AppId::new("com"), Timestamp::ZERO)
        .expect("exchange through resilient platforms");
    let run = fed.run_for(DEFAULT_GOSSIP_PERIOD_MICROS, 1).unwrap();
    assert_eq!(run.deliveries, 1);
    fed.env_mut("env-a").unwrap().publish_knowledge().ok();
    let run = fed
        .run_until_converged(1, CONVERGENCE_BUDGET_MICROS)
        .unwrap();
    assert!(run.converged && fed.converged());
    // The gossip frames really crossed the messaging layer: the
    // receiving sites saw federation-gossip notifications.
    let t = fed.fabric().telemetry();
    assert!(t.counter(Layer::Federation, "federation.gossip.digest") > 0);
}
