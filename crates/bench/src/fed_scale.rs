//! N-site federation scaling — the event-driven runtime under load.
//!
//! Builders and the measured experiment behind `BENCH_fed_scale.json`:
//! N ∈ {8, 32, 64, 128} sites on four link-graph families (ring, star,
//! seeded-random, partitioned-islands-that-heal), each converged with
//! [`FederatedEnvironments::run_until_converged`], the event-driven
//! federation driver. Everything is deterministic per
//! `(shape, n, seed)`: the random graph's edges, every site's jittered
//! gossip phase, the islands' scheduled heal, and therefore the
//! convergence instant and the bytes shipped.

use std::collections::BTreeMap;
use std::time::Instant;

use cscw_directory::Dn;
use cscw_kernel::{Layer, LogHistogram, Timestamp};
use mocca::federation::{ConvergenceReport, FederatedEnvironments, DEFAULT_GOSSIP_PERIOD_MICROS};
use mocca::info::{InfoContent, InfoObject, InfoObjectId};
use mocca::{CscwEnvironment, MoccaError};
use odp::LinkState;
use simnet::shapes;

use crate::report::{cell, every_cell, fnv1a, Claim, PhaseQuantiles, Report, ToValue, Value};

/// When scheduled island bridges heal (2 simulated seconds).
pub const ISLANDS_HEAL_AT_MICROS: u64 = 2_000_000;

/// Simulated-time budget for a convergence run (2 simulated minutes —
/// a 128-site ring needs ~64 gossip periods of 250 ms).
pub const MAX_SIM_MICROS: u64 = 120_000_000;

/// A federation link-graph family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Bidirectional ring: diameter N/2, two links per site.
    Ring,
    /// Hub-and-spokes: diameter 2, the hub carries everything.
    Star,
    /// Random connected graph (spanning tree + extra chords), seeded.
    Random,
    /// Internally-ringed islands whose bridges start partitioned and
    /// heal at a scheduled instant ([`ISLANDS_HEAL_AT_MICROS`]).
    Islands,
}

/// Every shape the scaling experiment sweeps.
pub const SHAPES: [Shape; 4] = [Shape::Ring, Shape::Star, Shape::Random, Shape::Islands];

/// Site counts the scaling experiment sweeps.
pub const SITE_COUNTS: [usize; 4] = [8, 32, 64, 128];

impl Shape {
    /// Stable name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Ring => "ring",
            Shape::Star => "star",
            Shape::Random => "random",
            Shape::Islands => "islands",
        }
    }
}

fn domain(i: usize) -> String {
    format!("site-{i:03}")
}

fn island_count(n: usize) -> usize {
    (n / 16).max(2)
}

/// An N-site federation on `shape`, each site seeded with one distinct
/// knowledge object. Island bridges start `Down` with their heal
/// scheduled on the runtime (started under `seed`), so the whole
/// scenario — including the partition's repair — is event-driven.
///
/// # Errors
///
/// [`MoccaError`] if a fixture name fails to parse or a seeded object
/// cannot be stored.
pub fn build(shape: Shape, n: usize, seed: u64) -> Result<FederatedEnvironments, MoccaError> {
    let mut fed = FederatedEnvironments::new();
    for i in 0..n {
        fed.federate(domain(i), CscwEnvironment::new());
    }
    let edges = match shape {
        Shape::Ring => shapes::ring(n),
        Shape::Star => shapes::star(n),
        Shape::Random => shapes::random(n, n / 4, seed),
        Shape::Islands => {
            let isl = shapes::islands(island_count(n), n / island_count(n));
            // Intra-island rings come up immediately; bridges start
            // partitioned and heal at a scheduled runtime event.
            for (a, b) in &isl.intra {
                fed.link_bidi(&domain(*a), &domain(*b));
            }
            fed.start_runtime(seed);
            for (a, b) in &isl.bridges {
                let (da, db) = (domain(*a), domain(*b));
                fed.link_bidi(&da, &db);
                fed.set_link_state(&da, &db, LinkState::Down);
                fed.set_link_state(&db, &da, LinkState::Down);
                let heal = Timestamp::from_micros(ISLANDS_HEAL_AT_MICROS);
                fed.schedule_link_change(heal, &da, &db, LinkState::Up);
                fed.schedule_link_change(heal, &db, &da, LinkState::Up);
            }
            Vec::new()
        }
    };
    for (a, b) in edges {
        fed.link_bidi(&domain(a), &domain(b));
    }
    let author: Dn = "cn=Scale".parse()?;
    for i in 0..n {
        if let Some(env) = fed.env_mut(&domain(i)) {
            env.store_object(
                InfoObject::new(
                    InfoObjectId::new(format!("doc-{i:03}")),
                    "note",
                    author.clone(),
                    InfoContent::Text(format!("seeded at site {i}")),
                ),
                None,
                Timestamp::ZERO,
            )?;
        }
    }
    Ok(fed)
}

cell! {
    /// One measured cell of the scaling sweep.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ScaleResult {
        /// Link-graph family name.
        pub shape: &'static str,
        /// Number of federated sites.
        pub sites: usize,
        /// Seed the run derived all phases and graphs from.
        pub seed: u64,
        /// Whether every replica converged within [`MAX_SIM_MICROS`].
        pub converged: bool,
        /// Simulated microseconds to convergence.
        pub sim_micros: u64,
        /// Gossip periods elapsed (convergence rounds).
        pub rounds: u64,
        /// Gossip pulses handled.
        pub gossip_pulses: usize,
        /// Replica updates applied across all receivers.
        pub updates_applied: usize,
        /// Encoded gossip-frame bytes shipped over transports.
        pub bytes_on_wire: u64,
        /// Per-pulse gossip-round latency quantiles: micros of the
        /// receiving platforms' clock spent shipping and applying frames.
        /// The scale cells run on the in-process [`LocalPlatform`], whose
        /// clock is wall time, so like `wall_micros` these sit outside the
        /// bit-for-bit determinism guarantee.
        ///
        /// [`LocalPlatform`]: mocca::platform::LocalPlatform
        pub gossip_round_micros: PhaseQuantiles,
        /// Per-pulse pump (remote delivery) latency quantiles.
        pub pump_micros: PhaseQuantiles,
        /// Hex digest of the converged replica fingerprint (identical
        /// across seeds; the raw fingerprint is multi-line text).
        pub fingerprint: String,
        /// Wall-clock microseconds the cell took to build and converge
        /// (outside the determinism guarantee).
        pub wall_micros: u64,
    }
}

/// Builds and converges one `(shape, n, seed)` cell.
///
/// # Errors
///
/// As [`build`]; also any delivery error during the run.
pub fn run(shape: Shape, n: usize, seed: u64) -> Result<ScaleResult, MoccaError> {
    let start = Instant::now();
    let mut fed = build(shape, n, seed)?;
    let report: ConvergenceReport = fed.run_until_converged(seed, MAX_SIM_MICROS)?;
    let telemetry = fed.fabric().telemetry();
    let quantiles = |name| PhaseQuantiles::of(&telemetry, Layer::Federation, name);
    Ok(ScaleResult {
        shape: shape.name(),
        sites: n,
        seed,
        converged: report.converged,
        sim_micros: report.sim_micros,
        rounds: report.sim_micros / DEFAULT_GOSSIP_PERIOD_MICROS,
        gossip_pulses: report.activity.gossip_pulses,
        updates_applied: report.activity.updates_applied,
        bytes_on_wire: report.activity.bytes_on_wire,
        gossip_round_micros: quantiles("federation.gossip.pulse.micros"),
        pump_micros: quantiles("federation.pump.pulse.micros"),
        fingerprint: format!(
            "{:016x}",
            fnv1a(&fed.fingerprints().into_values().next().unwrap_or_default())
        ),
        wall_micros: start.elapsed().as_micros() as u64,
    })
}

/// The `BENCH_fed_scale.json` document over `seeds`' cells, with the
/// wall-clock `local` and `remote` exchange latency over `iterations`
/// exchanges each (experiment F3-fed's toll, next to the sweep).
pub fn report(
    smoke: bool,
    seeds: &[u64],
    (iterations, local, remote): (u64, &LogHistogram, &LogHistogram),
    cells: &[ScaleResult],
) -> Report {
    let latency = [
        ("iterations", iterations.to_value()),
        ("local", local.to_value()),
        ("remote", remote.to_value()),
    ];
    let sections = [
        (
            "gossip_period_micros",
            Value::U64(DEFAULT_GOSSIP_PERIOD_MICROS),
        ),
        ("seeds", Value::list(seeds)),
        ("exchange_latency", Value::object(latency)),
        ("cells", Value::list(cells)),
    ];
    Report::new("fed_scale", smoke, sections)
}

/// The report over one default cell per section: every fed_scale
/// report must have exactly its key tree.
pub fn template() -> Report {
    let empty = LogHistogram::new();
    report(false, &[0], (0, &empty, &empty), &[ScaleResult::default()])
}

/// The fed_scale headline claims.
pub const CLAIMS: &[Claim] = &[
    Claim {
        name: "every cell converged",
        check: |doc| {
            every_cell(doc, "cells", |c| {
                Ok(c.at("converged")? == &Value::Bool(true))
            })
        },
    },
    Claim {
        name: "one fingerprint per (shape, sites) across seeds",
        check: |doc| {
            let mut first = BTreeMap::new();
            every_cell(doc, "cells", |c| {
                let fingerprint = c.str_at("fingerprint")?;
                let key = (c.str_at("shape")?, c.u64_at("sites")?);
                Ok(*first.entry(key).or_insert(fingerprint) == fingerprint)
            })
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_cell_converges_and_replays_per_seed() {
        let a = run(Shape::Ring, 8, 1).expect("run");
        assert!(a.converged);
        assert!(a.bytes_on_wire > 0);
        let q = a.gossip_round_micros;
        assert!(q.p50 <= q.p90 && q.p90 <= q.p99 && q.p99 <= q.max);
        let b = run(Shape::Ring, 8, 1).expect("run");
        // Phase quantiles and wall time are wall-clock on the
        // LocalPlatform cells and sit outside the determinism
        // guarantee — scrub them.
        let scrub = |mut r: ScaleResult| {
            r.gossip_round_micros = PhaseQuantiles::default();
            r.pump_micros = PhaseQuantiles::default();
            r.wall_micros = 0;
            r
        };
        assert_eq!(
            scrub(a.clone()),
            scrub(b),
            "same cell must replay bit-for-bit"
        );
        let c = run(Shape::Ring, 8, 2).expect("run");
        assert_eq!(a.fingerprint, c.fingerprint, "state is seed-independent");
    }

    #[test]
    fn islands_heal_then_converge() {
        let r = run(Shape::Islands, 8, 1).expect("run");
        assert!(r.converged);
        assert!(
            r.sim_micros > ISLANDS_HEAL_AT_MICROS,
            "cannot converge before the bridges heal: {r:?}"
        );
    }

    #[test]
    fn fresh_report_round_trips_and_passes_its_checks() {
        let cell = run(Shape::Star, 8, 1).expect("run");
        let empty = LogHistogram::new();
        let report = report(true, &[1], (0, &empty, &empty), &[cell]);
        let doc = crate::report::parse(&report.to_json()).expect("parse");
        assert_eq!(doc, report.value());
        crate::report::check(&doc).expect("schema and claims");
        let cell = &doc.list_at("cells").expect("cells")[0];
        assert_eq!(cell.str_at("shape"), Ok("star"));
        assert_eq!(cell.at("converged"), Ok(&Value::Bool(true)));
        assert!(cell.u64_at("pump_micros.p50").is_ok());
    }
}
