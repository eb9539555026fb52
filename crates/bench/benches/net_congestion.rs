//! Experiment NC — bounded-queue congestion under adversarial load.
//!
//! Sweeps the three `net_congestion` scenarios (flash crowd, gossip
//! storm vs interactive, WAN bridge) over seeds 1–3, running every
//! cell **twice** and insisting the fingerprints match — congestion,
//! sheds and quantiles must replay bit-for-bit per seed. The report's
//! claims are checked before it is written: the flash crowd's p99
//! dwarfs its p50 and opens a circuit breaker with zero injected
//! faults; the priority discipline shields interactive traffic from
//! the storm; the WAN bridge sheds cross-island overload while
//! intra-island latency stays flat.
//!
//! Writes the machine-readable sweep to `BENCH_net_congestion.json` at
//! the workspace root, printing each cell to stdout as it completes.
//! `--smoke` restricts the sweep to seed 1 (the CI `net-congestion`
//! job).

use std::fmt::Debug;

use cscw_bench::net_congestion::{self, SEEDS};
use cscw_bench::report::ToValue;

/// Runs `cell` twice per seed, insists the runs match bit-for-bit, and
/// prints each cell as the report holds it.
fn replayed<T: Debug + PartialEq + ToValue>(
    name: &str,
    seeds: &[u64],
    cell: fn(u64) -> T,
) -> Vec<T> {
    let replay = |&seed: &u64| {
        let r = cell(seed);
        assert_eq!(r, cell(seed), "{name} seed {seed} must replay bit-for-bit");
        println!("net_congestion: {name} {}", r.to_value().to_json());
        r
    };
    seeds.iter().map(replay).collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seeds: &[u64] = if smoke { &[1] } else { &SEEDS };
    let flash = replayed("flash_crowd", seeds, net_congestion::flash_crowd);
    let storm = replayed("gossip_storm", seeds, net_congestion::gossip_storm);
    let bridge = replayed("wan_bridge", seeds, net_congestion::wan_bridge);

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_net_congestion.json"
    );
    net_congestion::report(smoke, seeds, &flash, &storm, &bridge)
        .write(path)
        .expect("report holds its schema and claims");
    println!("net_congestion: wrote {path}");
}
