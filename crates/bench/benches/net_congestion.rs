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
//! The full sweep is cheap, so there is no smoke mode: CI regenerates
//! the whole report and requires it to match the committed file.

use std::fmt::Debug;

use cscw_bench::net_congestion::{self, SEEDS};
use cscw_bench::report::ToValue;

/// Runs `cell` twice per seed, insists the runs match bit-for-bit, and
/// prints each cell as the report holds it.
fn replayed<T: Debug + PartialEq + ToValue>(name: &str, cell: fn(u64) -> T) -> Vec<T> {
    let replay = |&seed: &u64| {
        let r = cell(seed);
        assert_eq!(r, cell(seed), "{name} seed {seed} must replay bit-for-bit");
        println!("net_congestion: {name} {}", r.to_value().to_json());
        r
    };
    SEEDS.iter().map(replay).collect()
}

fn main() {
    let flash = replayed("flash_crowd", net_congestion::flash_crowd);
    let storm = replayed("gossip_storm", net_congestion::gossip_storm);
    let bridge = replayed("wan_bridge", net_congestion::wan_bridge);

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_net_congestion.json"
    );
    net_congestion::report(&SEEDS, &flash, &storm, &bridge)
        .write(path)
        .expect("report holds its schema and claims");
    println!("net_congestion: wrote {path}");
}
