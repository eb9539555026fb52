//! The paper's own evidence: the figure and requirement experiments of
//! EXPERIMENTS.md (F1, F2/F3, F3-fed, F4, R1–R6) as one deterministic
//! report, `BENCH_paper.json`.
//!
//! The paper publishes no numbers, so each experiment records the
//! counts and simulated times its "shape verdict" rests on, and each
//! verdict is a [`Claim`] over them. Every value replays exactly: the
//! file holds no wall-clock field, and regenerating it is
//! byte-identical.

pub mod figures;
pub mod requirements;

use crate::report::{every_cell, Claim, Report, ToValue, Value};
use figures::{InteropCell, LayerCell, QuadrantCell, RingCell};
use requirements::{
    ActivityCell, DeliveryCell, IsolationCell, LadderCell, MediaCell, PolicyCell, RuleCell,
    SearchCell,
};

/// A workload's result, or the fixture error that stopped it.
pub type Fallible<T> = Result<T, Box<dyn std::error::Error>>;

/// Seeds the cells use. Workloads that draw no randomness record 1.
pub const SEEDS: [u64; 4] = [1, 2, 3, 5];

/// Every experiment's cells, one field per report section.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cells {
    /// F1, in rising-latency order.
    pub quadrants: Vec<QuadrantCell>,
    /// F1: quadrants one environment covers.
    pub quadrants_covered: usize,
    /// F2/F3, per population size.
    pub interop: Vec<InteropCell>,
    /// F3-fed, per ring size.
    pub rings: Vec<RingCell>,
    /// F4, bottom altitude first.
    pub layers: Vec<LayerCell>,
    /// R1, per DIT size.
    pub search: Vec<SearchCell>,
    /// R2, in rising-latency order.
    pub delivery: Vec<DeliveryCell>,
    /// R2, per text size.
    pub media: Vec<MediaCell>,
    /// R3, per programme size.
    pub activities: Vec<ActivityCell>,
    /// R4, per rule count.
    pub rules: Vec<RuleCell>,
    /// R5, one step per engaged transparency.
    pub ladder: Vec<LadderCell>,
    /// R5, isolation on then off.
    pub isolation: Vec<IsolationCell>,
    /// R6, per offer-pool size.
    pub policy: Vec<PolicyCell>,
}

/// Runs every experiment.
///
/// # Errors
///
/// The first fixture error (a name that fails to parse, an insertion
/// or exchange a fixture expects to succeed).
pub fn run() -> Fallible<Cells> {
    use figures as f;
    use requirements as r;
    Ok(Cells {
        quadrants: f::quadrants(1)?,
        quadrants_covered: f::quadrants_covered()?,
        interop: sweep(&[2, 4, 8, 16, 32], |n, seed| Ok(f::interop(n, seed)))?,
        rings: sweep(&[2, 4, 8], f::ring)?,
        layers: f::layers(1)?,
        search: sweep(&[100, 1_000, 5_000], r::search)?,
        delivery: r::delivery()?,
        media: sweep(&[80, 800, 8_000], r::media)?,
        activities: sweep(&[10, 100, 1_000], r::activities)?,
        rules: sweep(&[1, 10, 100], |n, seed| Ok(r::rules(n, seed)))?,
        ladder: r::ladder(5)?,
        isolation: vec![r::isolation(true, 1)?, r::isolation(false, 1)?],
        policy: sweep(&[10, 100, 1_000], r::policy)?,
    })
}

/// One seed-1 cell per size, in order.
fn sweep<T>(sizes: &[usize], cell: impl Fn(usize, u64) -> Fallible<T>) -> Fallible<Vec<T>> {
    sizes.iter().map(|&n| cell(n, 1)).collect()
}

/// The `BENCH_paper.json` document over `cells`.
pub fn report(cells: &Cells) -> Report {
    let sections = [
        ("seeds", Value::list(SEEDS)),
        ("f1_quadrants", Value::list(&cells.quadrants)),
        ("f1_quadrants_covered", cells.quadrants_covered.to_value()),
        ("f23_interop", Value::list(&cells.interop)),
        ("f3_fed_rings", Value::list(&cells.rings)),
        ("f4_layers", Value::list(&cells.layers)),
        ("r1_search", Value::list(&cells.search)),
        ("r2_delivery", Value::list(&cells.delivery)),
        ("r2_media", Value::list(&cells.media)),
        ("r3_activities", Value::list(&cells.activities)),
        ("r4_rules", Value::list(&cells.rules)),
        ("r5_ladder", Value::list(&cells.ladder)),
        ("r5_isolation", Value::list(&cells.isolation)),
        ("r6_policy", Value::list(&cells.policy)),
    ];
    Report::new("paper", false, sections)
}

/// The report over one default cell per section: every paper report
/// must have exactly its key tree.
pub fn template() -> Report {
    fn one<T: Default>() -> Vec<T> {
        vec![T::default()]
    }
    report(&Cells {
        quadrants: one(),
        quadrants_covered: 0,
        interop: one(),
        rings: one(),
        layers: one(),
        search: one(),
        delivery: one(),
        media: one(),
        activities: one(),
        rules: one(),
        ladder: one(),
        isolation: one(),
        policy: one(),
    })
}

/// `Ok` when `key` strictly rises from each cell of `section` to the
/// next; otherwise names the first cell that does not.
fn rising(doc: &Value, section: &str, key: &str) -> Result<(), String> {
    let mut last = None;
    every_cell(doc, section, |c| {
        let v = c.u64_at(key)?;
        Ok(last.replace(v).is_none_or(|l| l < v))
    })
}

/// Cell `cell`'s integer `key`, widened so that claim arithmetic on
/// any report value neither overflows nor underflows into a panic.
fn u(cell: &Value, key: &str) -> Result<u128, String> {
    cell.u64_at(key).map(u128::from)
}

/// Whether cell `cell`'s `key` is `true`.
fn is_true(cell: &Value, key: &str) -> Result<bool, String> {
    Ok(cell.at(key)? == &Value::Bool(true))
}

/// The per-operation work counters of an F4 altitude.
const F4_WORK: [&str; 5] = [
    "messages",
    "binder_checks",
    "marshalled_bytes",
    "hub_conversions",
    "repository_records",
];

/// The paper's shape verdicts, one claim each.
pub const CLAIMS: &[Claim] = &[
    Claim {
        name: "F1: quadrant latencies are strictly ordered",
        check: |doc| rising(doc, "f1_quadrants", "latency_micros"),
    },
    Claim {
        name: "F1: one environment covers all four quadrants",
        check: |doc| match doc.u64_at("f1_quadrants_covered")? {
            4 => Ok(()),
            n => Err(format!("f1_quadrants_covered is {n}")),
        },
    },
    Claim {
        name: "F2/F3: closed adapters = N(N-1), hub mappings = N",
        check: |doc| {
            every_cell(doc, "f23_interop", |c| {
                let n = u(c, "apps")?;
                let pairs = u(c, "exchanges")?;
                Ok(pairs + n == n * n
                    && u(c, "closed_adapters")? == pairs
                    && u(c, "hub_mappings")? == n)
            })
        },
    },
    Claim {
        name: "F2/F3: hub success is 100% and half-wired closed success is 50%",
        check: |doc| {
            every_cell(doc, "f23_interop", |c| {
                let pairs = u(c, "exchanges")?;
                Ok(u(c, "hub_ok")? == pairs && 2 * u(c, "half_wired_ok")? == pairs)
            })
        },
    },
    Claim {
        name: "F2/F3: the hub converts twice per exchange, a direct adapter once",
        check: |doc| {
            every_cell(doc, "f23_interop", |c| {
                Ok(u(c, "hub_conversions")? == 2 * u(c, "hub_ok")?
                    && u(c, "adapter_conversions")? == u(c, "half_wired_ok")?)
            })
        },
    },
    Claim {
        name: "F3-fed: every ring cell converges",
        check: |doc| every_cell(doc, "f3_fed_rings", |c| is_true(c, "converged")),
    },
    Claim {
        name: "F4: per-operation work never shrinks going up the stack",
        check: |doc| {
            let mut below: Option<&Value> = None;
            every_cell(doc, "f4_layers", |c| {
                let Some(b) = below.replace(c) else {
                    return Ok(true);
                };
                F4_WORK
                    .iter()
                    .try_fold(true, |holds, k| Ok(holds && u(b, k)? <= u(c, k)?))
            })
        },
    },
    Claim {
        name: "R1: base = 1 and one-level = n/orgs",
        check: |doc| {
            every_cell(doc, "r1_search", |c| {
                Ok(u(c, "base")? == 1 && u(c, "one_level")? * u(c, "orgs")? == u(c, "entries")?)
            })
        },
    },
    Claim {
        name: "R2: sync < urgent < normal < non-urgent",
        check: |doc| rising(doc, "r2_delivery", "latency_micros"),
    },
    Claim {
        name: "R2: conversion cost is linear in size and fax outweighs paper on the wire",
        check: |doc| {
            let mut first = None;
            every_cell(doc, "r2_media", |c| {
                let cell = (u(c, "chars")?, u(c, "fax_cost")?, u(c, "paper_cost")?);
                let (chars0, fax0, paper0) = *first.get_or_insert(cell);
                let (chars, fax, paper) = cell;
                Ok(fax * chars0 == fax0 * chars
                    && paper * chars0 == paper0 * chars
                    && u(c, "fax_bytes")? > u(c, "paper_bytes")?)
            })
        },
    },
    Claim {
        name: "R3: the schedule covers every activity and a slip stays within its chain",
        check: |doc| {
            every_cell(doc, "r3_activities", |c| {
                let n = u(c, "activities")?;
                Ok(u(c, "schedule_len")? == n && u(c, "downstream_a0")? * u(c, "chains")? <= n)
            })
        },
    },
    Claim {
        name: "R4: a match fires 1 action and a miss fires 0",
        check: |doc| {
            every_cell(doc, "r4_rules", |c| {
                Ok(u(c, "fired_on_match")? == 1 && u(c, "fired_on_miss")? == 0)
            })
        },
    },
    Claim {
        name: "R5: msgs/op never falls as transparencies engage, and only `none` fails remotely",
        check: |doc| {
            let mut last = 0;
            every_cell(doc, "r5_ladder", |c| {
                let msgs = u(c, "msgs_per_op")?;
                let rises = std::mem::replace(&mut last, msgs) <= msgs;
                Ok(rises && is_true(c, "works_remotely")? == (u(c, "engaged")? > 0))
            })
        },
    },
    Claim {
        name: "R5: isolation on disturbs no one; off, every event disturbs every non-member",
        check: |doc| {
            every_cell(doc, "r5_isolation", |c| {
                let (events, disturbances) = (u(c, "events")?, u(c, "disturbances")?);
                let flood = match is_true(c, "isolation")? {
                    true => disturbances == 0,
                    false => disturbances + events == events * u(c, "subscribers")?,
                };
                Ok(flood && u(c, "deliveries")? == events + disturbances)
            })
        },
    },
    Claim {
        name: "R6: the policy hides exactly the UPC half",
        check: |doc| {
            every_cell(doc, "r6_policy", |c| {
                let without = u(c, "matches_without_policy")?;
                Ok(without == u(c, "offers")? && 2 * u(c, "matches_with_policy")? == without)
            })
        },
    },
    Claim {
        name: "R6: an anonymous importer sees 0 offers",
        check: |doc| every_cell(doc, "r6_policy", |c| Ok(u(c, "anonymous_matches")? == 0)),
    },
];
