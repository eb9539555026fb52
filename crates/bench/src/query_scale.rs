//! Standing-query scaling — incremental evaluation vs re-scan.
//!
//! Builders and the measured experiment behind `BENCH_query_scale.json`
//! (experiment QS): a [`SubscriptionRegistry`] holding a three-query
//! panel (attribute filter, edge predicate, one-hop join) over DIT
//! populations of 200 / 2 000 / 20 000 person entries, driven by a
//! seeded 64-operation mutation stream. For every operation the cell
//! records two costs:
//!
//! * **incremental** — entries the registry actually evaluated to keep
//!   every result set current (the `query.eval.entry` counter). The
//!   headline claim: this stays flat (within 2×) as the population
//!   grows 100×, because interest indexes narrow each change to the
//!   entries it can affect.
//! * **re-scan** — entries a from-scratch
//!   [`SubscriptionRegistry::oracle_matches`] pass walks for the same
//!   freshness, which grows linearly with the population.
//!
//! Both are deterministic counts; per-phase wall-clock quantiles ride
//! along for color but sit outside the bit-for-bit guarantee (the
//! bench runner scrubs them before replay comparison). Every cell also
//! cross-checks correctness: after the stream, each incremental result
//! set must equal its oracle re-scan.

use std::time::Instant;

use cscw_directory::{Attribute, Dit, Entry};
use cscw_kernel::{Layer, Telemetry};
use cscw_query::{SubscriptionId, SubscriptionRegistry};

use crate::report::{cell, fnv1a, Claim, PhaseQuantiles, Report, Value};

/// DIT population sizes the experiment sweeps (100× end to end).
pub const POPULATIONS: [usize; 3] = [200, 2_000, 20_000];

/// Seeds every cell sweeps.
pub const SEEDS: [u64; 3] = [1, 2, 3];

/// Mutations replayed per cell.
pub const OPS: u64 = 64;

/// Projects the population's `workson` edges point at.
const PROJECTS: usize = 8;

/// The standing-query panel: one attribute filter, one edge literal,
/// one one-hop join.
pub const PANEL: [&str; 3] = [
    r#"class = person and sn = "Surname7""#,
    r#"class = person and occupies "cn=coordinator""#,
    r#"class = person and works-on (projectstate = active)"#,
];

/// SplitMix64 — the cell's deterministic operation stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn person_dn(i: u64) -> String {
    format!("c=UK,o=org{},cn=person{i}", i % 10)
}

fn project_dn(j: u64) -> String {
    format!("c=UK,cn=proj{j}")
}

/// [`crate::populated_dit`] over ten organisations plus `PROJECTS`
/// project entries, half of them `active`, with every other person
/// working on one. The DIT records changes from the end of the build
/// on, so its log holds only the measured stream.
///
/// # Errors
///
/// [`cscw_directory::DirectoryError`] if a fixture fails to insert.
pub fn build_population(population: usize) -> Result<Dit, cscw_directory::DirectoryError> {
    let mut dit = crate::populated_dit(population, 10)?;
    for j in 0..PROJECTS as u64 {
        let state = if j % 2 == 0 { "active" } else { "dormant" };
        dit.add(
            Entry::new(project_dn(j).parse()?)
                .with_class("cscwproject")
                .with_attr(Attribute::single("cn", format!("proj{j}")))
                .with_attr(Attribute::single("projectstate", state)),
        )?;
    }
    for i in (0..population as u64).step_by(2) {
        let project = project_dn(i % PROJECTS as u64);
        dit.modify(&person_dn(i).parse()?, |e| {
            e.put_attr(Attribute::single("workson", project.as_str()));
        })?;
    }
    dit.record_changes();
    Ok(dit)
}

cell! {
    /// One measured cell of the query-scaling sweep.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct QueryScaleResult {
        /// Person entries in the DIT.
        pub population: usize,
        /// Seed the mutation stream derived from.
        pub seed: u64,
        /// Standing queries registered.
        pub subscriptions: usize,
        /// Mutations replayed.
        pub ops: u64,
        /// Deltas the registry emitted over the stream.
        pub deltas_emitted: u64,
        /// Entries evaluated incrementally across the whole stream.
        pub incremental_evals: u64,
        /// [`Self::incremental_evals`] / [`Self::ops`] — the flat curve.
        pub incremental_evals_per_delta: u64,
        /// Entries a re-scan pass walked across the whole stream.
        pub rescan_entries: u64,
        /// [`Self::rescan_entries`] / [`Self::ops`] — the linear curve.
        pub rescan_entries_per_delta: u64,
        /// Wall-clock quantiles of the incremental apply per operation
        /// (outside the determinism guarantee; scrubbed before replay
        /// comparison).
        pub incremental_micros: PhaseQuantiles,
        /// Wall-clock quantiles of the oracle re-scan per operation (same
        /// caveat).
        pub rescan_micros: PhaseQuantiles,
        /// Hex FNV-1a digest over every deterministic field above plus the
        /// final result sets — equal across reruns of the same cell.
        pub fingerprint: String,
    }
}

/// The `BENCH_query_scale.json` document over `seeds`' cells.
pub fn report(smoke: bool, seeds: &[u64], cells: &[QueryScaleResult]) -> Report {
    let sections = [
        ("seeds", Value::list(seeds)),
        ("populations", Value::list(POPULATIONS)),
        ("ops_per_cell", Value::U64(OPS)),
        ("cells", Value::list(cells)),
    ];
    Report::new("query_scale", smoke, sections)
}

/// The report over one default cell per section: every query_scale
/// report must have exactly its key tree.
pub fn template() -> Report {
    report(false, &[0], &[QueryScaleResult::default()])
}

/// `(min, max)` of the integer `key` over `cells`, the minimum floored
/// at 1.
fn spread<'a>(cells: impl Iterator<Item = &'a Value>, key: &str) -> Result<(u64, u64), String> {
    let values: Vec<u64> = cells.map(|c| c.u64_at(key)).collect::<Result<_, _>>()?;
    let min = values.iter().copied().min().unwrap_or(0);
    Ok((min.max(1), values.iter().copied().max().unwrap_or(0)))
}

/// The query_scale headline claims.
pub const CLAIMS: &[Claim] = &[
    Claim {
        name: "incremental evals per delta stay within 2x across the whole file",
        check: |doc| {
            let (min, max) = spread(doc.list_at("cells")?.iter(), "incremental_evals_per_delta")?;
            let flat = max <= 2 * min;
            flat.then_some(())
                .ok_or(format!("{min}..{max} evals per delta"))
        },
    },
    Claim {
        name: "re-scan entries per delta grow at least 50x within each seed",
        check: |doc| {
            for seed in doc.list_at("seeds")? {
                let sweep = doc
                    .list_at("cells")?
                    .iter()
                    .filter(|c| c.at("seed") == Ok(seed));
                let (min, max) = spread(sweep, "rescan_entries_per_delta")?;
                if max < 50 * min {
                    return Err(format!(
                        "seed {}: {min}..{max} entries per delta",
                        seed.to_json()
                    ));
                }
            }
            Ok(())
        },
    },
];

/// Runs one `(population, seed)` cell: prime the panel, replay the
/// mutation stream, measure both cost curves, then cross-check every
/// incremental result set against its oracle.
///
/// # Errors
///
/// Population build errors and [`cscw_query::QueryError`] from the
/// fixed panel (which must always compile).
pub fn run(population: usize, seed: u64) -> Result<QueryScaleResult, Box<dyn std::error::Error>> {
    let mut dit = build_population(population)?;
    let telemetry = Telemetry::new();
    let mut reg = SubscriptionRegistry::with_telemetry(telemetry.clone());
    let subs: Vec<SubscriptionId> = PANEL
        .iter()
        .map(|src| {
            let id = reg.subscribe(src, 0)?;
            reg.prime(id, &dit, 0)?;
            Ok::<_, cscw_query::QueryError>(id)
        })
        .collect::<Result<_, _>>()?;
    // Priming walks the tree once per query; the measured stream
    // starts after it.
    let evals_at_start = telemetry.counter(Layer::Query, "query.eval.entry");

    let mut rng = Rng(seed);
    let mut deltas_emitted = 0u64;
    let mut rescan_entries = 0u64;
    for op in 0..OPS {
        let person: cscw_directory::Dn = person_dn(rng.below(population as u64)).parse()?;
        match rng.below(3) {
            0 => {
                let sn = format!("Surname{}", rng.below(50));
                dit.modify(&person, |e| {
                    e.replace_attr(Attribute::single("sn", sn.as_str()));
                })?;
            }
            1 => {
                let occupied = dit
                    .get(&person)
                    .is_some_and(|e| e.attr("occupiesrole").is_some());
                dit.modify(&person, |e| {
                    if occupied {
                        e.remove_attr(&"occupiesrole".into());
                    } else {
                        e.put_attr(Attribute::single("occupiesrole", "cn=coordinator"));
                    }
                })?;
            }
            _ => {
                let target = project_dn(rng.below(PROJECTS as u64));
                dit.modify(&person, |e| {
                    e.replace_attr(Attribute::single("workson", target.as_str()));
                })?;
            }
        }

        let t0 = Instant::now();
        let changes = dit.take_changes();
        deltas_emitted += reg.apply([], &changes, &dit, op).len() as u64;
        telemetry.record_micros(
            Layer::Query,
            "query.phase.incremental",
            t0.elapsed().as_micros() as u64,
        );

        // The alternative the incremental path replaces: re-scan one
        // subscription (round-robin) from scratch for the same
        // freshness.
        let probe = subs[op as usize % subs.len()];
        let t0 = Instant::now();
        let _ = reg.oracle_matches(probe, &dit, []);
        telemetry.record_micros(
            Layer::Query,
            "query.phase.rescan",
            t0.elapsed().as_micros() as u64,
        );
        rescan_entries += dit.len() as u64;
    }

    // Correctness: the incremental sets must equal their oracles.
    let mut digest = String::new();
    for (id, src) in subs.iter().zip(PANEL) {
        let incremental = reg.matches(*id).ok_or("subscription vanished")?;
        let oracle = reg
            .oracle_matches(*id, &dit, [])
            .ok_or("subscription vanished")?;
        assert_eq!(
            incremental, oracle,
            "population {population} seed {seed}: {src:?} diverged from re-scan"
        );
        digest.push_str(&format!("{}:{};", incremental.len(), {
            let joined: Vec<&str> = incremental.iter().map(String::as_str).collect();
            format!("{:016x}", fnv1a(&joined.join(",")))
        }));
    }

    let incremental_evals = telemetry.counter(Layer::Query, "query.eval.entry") - evals_at_start;
    let mut r = QueryScaleResult {
        population,
        seed,
        subscriptions: subs.len(),
        ops: OPS,
        deltas_emitted,
        incremental_evals,
        incremental_evals_per_delta: incremental_evals.div_ceil(OPS),
        rescan_entries,
        rescan_entries_per_delta: rescan_entries / OPS,
        incremental_micros: PhaseQuantiles::of(&telemetry, Layer::Query, "query.phase.incremental"),
        rescan_micros: PhaseQuantiles::of(&telemetry, Layer::Query, "query.phase.rescan"),
        fingerprint: String::new(),
    };
    r.fingerprint = format!(
        "{:016x}",
        fnv1a(&format!(
            "query_scale:{}:{}:{}:{}:{}:{}:{}",
            r.population,
            r.seed,
            r.ops,
            r.deltas_emitted,
            r.incremental_evals,
            r.rescan_entries,
            digest,
        ))
    );
    Ok(r)
}

/// A cell with its wall-clock quantiles zeroed — the deterministic
/// view compared across reruns.
pub fn scrub(mut r: QueryScaleResult) -> QueryScaleResult {
    r.incremental_micros = PhaseQuantiles::default();
    r.rescan_micros = PhaseQuantiles::default();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ToValue;

    #[test]
    fn smallest_cell_is_incremental_and_replays() {
        let a = run(200, 1).expect("cell");
        assert_eq!(a.ops, OPS);
        assert!(a.deltas_emitted > 0, "{a:?}");
        // The panel evaluates a handful of entries per op, not the tree.
        assert!(
            a.incremental_evals_per_delta * 10 <= a.rescan_entries_per_delta,
            "incremental {} must be far below re-scan {}",
            a.incremental_evals_per_delta,
            a.rescan_entries_per_delta
        );
        let b = run(200, 1).expect("cell");
        assert_eq!(scrub(a), scrub(b), "cell must replay bit-for-bit");
    }

    #[test]
    fn incremental_cost_is_flat_while_rescan_grows() {
        let small = run(200, 1).expect("cell");
        let large = run(2_000, 1).expect("cell");
        assert!(
            large.incremental_evals_per_delta <= 2 * small.incremental_evals_per_delta.max(1),
            "10x population must not double per-delta cost: {} -> {}",
            small.incremental_evals_per_delta,
            large.incremental_evals_per_delta
        );
        assert!(
            large.rescan_entries_per_delta >= 5 * small.rescan_entries_per_delta,
            "re-scan must track population: {} -> {}",
            small.rescan_entries_per_delta,
            large.rescan_entries_per_delta
        );
    }

    #[test]
    fn fresh_report_round_trips_and_fails_only_the_sweep_claim() {
        let r = run(200, 1).expect("cell");
        let report = report(true, &[1], std::slice::from_ref(&r));
        let doc = crate::report::parse(&report.to_json()).expect("parse");
        assert_eq!(doc, report.value());
        assert_eq!(doc.list_at("cells").expect("cells"), [r.to_value()]);
        // Key tree, flatness and seeds hold; one population cannot show
        // the re-scan growth the whole sweep claims.
        let err = crate::report::check(&doc).expect_err("one population is no sweep");
        assert!(err.contains("re-scan entries per delta grow"), "{err}");
    }
}
