//! Experiment QS — standing-query cost vs population.
//!
//! Sweeps the `query_scale` cells (populations 200 / 2 000 / 20 000,
//! seeds 1–3), running every cell **twice** and insisting the
//! deterministic fields match bit-for-bit (wall-clock quantiles are
//! scrubbed first). The report's claims are checked before it is
//! written: the per-delta incremental evaluation count stays flat
//! (within 2×) across the 100× population sweep, while the re-scan
//! alternative grows linearly (≥ 50× within each seed).
//!
//! Writes the machine-readable sweep to `BENCH_query_scale.json` at
//! the workspace root, printing each cell to stdout as it completes.
//! `--smoke` restricts the sweep to seed 1 (the CI `query-scale` job).

use cscw_bench::query_scale::{self, POPULATIONS, SEEDS};
use cscw_bench::report::ToValue;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seeds: &[u64] = if smoke { &[1] } else { &SEEDS };

    let mut cells = Vec::new();
    for &seed in seeds {
        for &population in &POPULATIONS {
            let r = query_scale::run(population, seed).expect("cell");
            let again = query_scale::run(population, seed).expect("cell");
            assert_eq!(
                query_scale::scrub(r.clone()),
                query_scale::scrub(again),
                "population {population} seed {seed} must replay bit-for-bit"
            );
            println!("query_scale: {}", r.to_value().to_json());
            cells.push(r);
        }
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query_scale.json");
    query_scale::report(smoke, seeds, &cells)
        .write(path)
        .expect("report holds its schema and claims");
    println!("query_scale: wrote {path}");
}
