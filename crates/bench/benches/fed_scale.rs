//! Experiment FS — federation scaling under the event-driven runtime.
//!
//! Sweeps N ∈ {8, 32, 64, 128} sites over four link-graph families
//! (ring, star, seeded-random, partitioned-islands-that-heal), seeds
//! 1–3, converging each cell with `run_until_converged`. Also measures
//! the local-vs-remote exchange latency toll from experiment F3-fed. The
//! report's claims are checked before it is written: every cell
//! converged, with one fingerprint per shape and size across seeds.
//!
//! Writes the machine-readable sweep to `BENCH_fed_scale.json` at the
//! workspace root, printing each cell to stdout as it completes.
//! `--smoke` restricts the sweep to the 32-site column, seed 1 (the CI
//! `federation-scale` job).

use std::time::Instant;

use cscw_bench::fed_scale::{self, SHAPES, SITE_COUNTS};
use cscw_bench::population_env;
use cscw_bench::report::ToValue;
use cscw_directory::Dn;
use cscw_kernel::{LogHistogram, Timestamp};
use groupware::sample_artifact;
use mocca::env::AppId;
use mocca::federation::{FederatedEnvironments, DEFAULT_GOSSIP_PERIOD_MICROS};

const SEEDS: [u64; 3] = [1, 2, 3];
const LATENCY_ITERS: u64 = 200;

/// Per-iteration wall-clock latency distributions for a local exchange
/// and a remote one: resolve and route, then one gossip period of the
/// event-driven runtime, whose pump pulse delivers it.
fn exchange_latency() -> (LogHistogram, LogHistogram) {
    let tom: Dn = "cn=Tom".parse().expect("fixture dn");
    let artifact = sample_artifact("sharedx").expect("fixture artifact");

    let mut local_hist = LogHistogram::new();
    let mut local = population_env(&["sharedx", "com"]).expect("population apps");
    for _ in 0..LATENCY_ITERS {
        let start = Instant::now();
        local
            .exchange(&tom, &artifact, &AppId::new("com"), Timestamp::ZERO)
            .expect("local exchange");
        local_hist.record(start.elapsed().as_micros() as u64);
    }

    let mut remote_hist = LogHistogram::new();
    let mut fed = FederatedEnvironments::new();
    fed.federate(
        "env-a",
        population_env(&["sharedx"]).expect("population app"),
    );
    fed.federate("env-b", population_env(&["com"]).expect("population app"));
    fed.link_bidi("env-a", "env-b");
    for _ in 0..LATENCY_ITERS {
        let start = Instant::now();
        fed.env_mut("env-a")
            .expect("env-a")
            .exchange(&tom, &artifact, &AppId::new("com"), Timestamp::ZERO)
            .expect("remote exchange");
        fed.run_for(DEFAULT_GOSSIP_PERIOD_MICROS, 1)
            .expect("scheduled delivery");
        remote_hist.record(start.elapsed().as_micros() as u64);
    }
    (local_hist, remote_hist)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (counts, seeds): (&[usize], &[u64]) = if smoke {
        (&[32], &[1])
    } else {
        (&SITE_COUNTS, &SEEDS)
    };

    let mut cells = Vec::new();
    for &shape in &SHAPES {
        for &n in counts {
            for &seed in seeds {
                let r = fed_scale::run(shape, n, seed).expect("scale cell");
                println!("fed_scale: {}", r.to_value().to_json());
                cells.push(r);
            }
        }
    }
    let (local, remote) = exchange_latency();
    let (local_json, remote_json) = (local.to_value().to_json(), remote.to_value().to_json());
    println!("fed_scale: exchange latency local {local_json} remote {remote_json}");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fed_scale.json");
    let latency = (LATENCY_ITERS, &local, &remote);
    fed_scale::report(smoke, seeds, latency, &cells)
        .write(path)
        .expect("report holds its schema and claims");
    println!("fed_scale: wrote {path}");
}
