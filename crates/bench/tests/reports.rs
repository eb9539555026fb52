//! The committed `BENCH_*.json` reports against their declared schema
//! and claims, and the report codec itself.
//!
//! Each claim test changes one field of a committed report and asserts
//! that the check names the claim (or key path) that breaks.

use cscw_bench::net_congestion::{self, SEEDS};
use cscw_bench::report::{check, parse, ToValue, Value};
use cscw_bench::{fed_scale, paper, query_scale, Report};

const FED_SCALE: &str = include_str!("../../../BENCH_fed_scale.json");
const NET_CONGESTION: &str = include_str!("../../../BENCH_net_congestion.json");
const QUERY_SCALE: &str = include_str!("../../../BENCH_query_scale.json");
const PAPER: &str = include_str!("../../../BENCH_paper.json");

fn fields(value: &mut Value) -> &mut Vec<(String, Value)> {
    match value {
        Value::Object(fields) => fields,
        other => panic!("not an object: {other:?}"),
    }
}

/// The value under `path` (keys, or list indices as decimal strings).
fn at<'a>(mut value: &'a mut Value, path: &[&str]) -> &'a mut Value {
    for step in path {
        value = match value {
            Value::List(items) => &mut items[step.parse::<usize>().expect("index")],
            Value::Object(fields) => fields
                .iter_mut()
                .find(|(k, _)| k == step)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {step}")),
            other => panic!("cannot step into {other:?}"),
        };
    }
    value
}

/// The check's verdict on `report` after `edit`.
fn verdict(report: &str, edit: impl FnOnce(&mut Value)) -> Result<(), String> {
    let mut doc = parse(report).expect("committed report parses");
    edit(&mut doc);
    check(&doc)
}

/// `report` with the value under `path` replaced fails naming `needle`.
fn set_fails(report: &str, path: &[&str], new: Value, needle: &str) {
    let err = verdict(report, |doc| *at(doc, path) = new).expect_err("edit must fail the check");
    assert!(err.contains(needle), "{needle:?} not named in: {err}");
}

#[test]
fn committed_reports_hold_their_schema_and_claims() {
    for report in [FED_SCALE, NET_CONGESTION, QUERY_SCALE, PAPER] {
        let doc = parse(report).expect("parse");
        check(&doc).expect("schema and claims");
    }
}

#[test]
fn key_tree_must_match_the_result_type_exactly() {
    let err = verdict(FED_SCALE, |doc| {
        fields(at(doc, &["cells", "3"])).retain(|(k, _)| k != "pump_micros");
    });
    assert_eq!(
        err,
        Err("fed_scale.cells[3]: `fingerprint` where `pump_micros` belongs".to_owned())
    );
    let err = verdict(NET_CONGESTION, |doc| {
        fields(at(doc, &["flash_crowd", "1", "overall_micros"])).retain(|(k, _)| k != "p99");
    });
    assert_eq!(
        err,
        Err("net_congestion.flash_crowd[1].overall_micros: `max` where `p99` belongs".to_owned())
    );
    let err = verdict(QUERY_SCALE, |doc| {
        fields(at(doc, &["cells", "0"])).push(("extra".to_owned(), Value::U64(1)));
    });
    assert_eq!(
        err,
        Err("query_scale.cells[0]: `extra` where no key belongs".to_owned())
    );
    let err = verdict(QUERY_SCALE, |doc| {
        fields(at(doc, &["cells", "2"])).swap(0, 1)
    });
    assert_eq!(
        err,
        Err("query_scale.cells[2]: `seed` where `population` belongs".to_owned())
    );
    set_fails(
        FED_SCALE,
        &["cells", "0", "converged"],
        Value::U64(1),
        "fed_scale.cells[0].converged: an integer where a boolean belongs",
    );
    set_fails(
        NET_CONGESTION,
        &["wan_bridge"],
        Value::List(Vec::new()),
        "net_congestion.wan_bridge: empty list",
    );
    set_fails(
        FED_SCALE,
        &["experiment"],
        "fed_scale_v2".to_value(),
        "unknown experiment `fed_scale_v2`",
    );
}

#[test]
fn every_cell_seed_must_be_listed() {
    set_fails(
        QUERY_SCALE,
        &["cells", "4", "seed"],
        Value::U64(9),
        "claim `every cell's seed is listed in `seeds`` fails: cells[4] (seed 9)",
    );
    set_fails(
        NET_CONGESTION,
        &["seeds"],
        Value::list([1u64, 2]),
        "every cell's seed is listed",
    );
}

#[test]
fn fed_scale_claims_are_checked() {
    set_fails(
        FED_SCALE,
        &["cells", "5", "converged"],
        Value::Bool(false),
        "claim `every cell converged` fails: cells[5] (seed 3)",
    );
    // ring-8 seed 2 must share ring-8 seed 1's fingerprint.
    set_fails(
        FED_SCALE,
        &["cells", "1", "fingerprint"],
        "0000000000000000".to_value(),
        "claim `one fingerprint per (shape, sites) across seeds` fails: cells[1] (seed 2)",
    );
}

#[test]
fn net_congestion_claims_are_checked() {
    let flash_p50 = parse(NET_CONGESTION)
        .map(|mut doc| at(&mut doc, &["flash_crowd", "0", "overall_micros", "p50"]).clone())
        .expect("parse");
    set_fails(
        NET_CONGESTION,
        &["flash_crowd", "0", "overall_micros", "p99"],
        flash_p50,
        "claim `flash crowd p99 is at least 10x its p50` fails: flash_crowd[0] (seed 1)",
    );
    set_fails(
        NET_CONGESTION,
        &["flash_crowd", "1", "shed"],
        Value::U64(0),
        "claim `flash crowd sheds` fails: flash_crowd[1] (seed 2)",
    );
    set_fails(
        NET_CONGESTION,
        &["flash_crowd", "2", "breaker_opened"],
        Value::Bool(false),
        "claim `congestion alone opens the breaker` fails: flash_crowd[2] (seed 3)",
    );
    set_fails(
        NET_CONGESTION,
        &["flash_crowd", "0", "injected_faults"],
        Value::U64(1),
        "claim `congestion alone opens the breaker` fails",
    );
    set_fails(
        NET_CONGESTION,
        &["gossip_storm", "1", "priority", "interactive_micros", "p99"],
        Value::U64(969_713),
        "claim `priority shields interactive p99 at least 4x` fails: gossip_storm[1] (seed 2)",
    );
    set_fails(
        NET_CONGESTION,
        &["wan_bridge", "0", "cross_shed"],
        Value::U64(0),
        "claim `WAN bridge sheds cross-island traffic` fails: wan_bridge[0] (seed 1)",
    );
    set_fails(
        NET_CONGESTION,
        &["wan_bridge", "2", "cross_micros", "p50"],
        Value::U64(5_000),
        "claim `WAN bridge cross p50 is over 5x intra p50` fails: wan_bridge[2] (seed 3)",
    );
}

#[test]
fn query_scale_claims_are_checked() {
    set_fails(
        QUERY_SCALE,
        &["cells", "4", "incremental_evals_per_delta"],
        Value::U64(7),
        "claim `incremental evals per delta stay within 2x across the whole file` fails: 2..7",
    );
    // Seeds 1 and 3 still span 219..20019 across the file; the claim
    // holds per seed, so seed 2's flat re-scan is caught.
    set_fails(
        QUERY_SCALE,
        &["cells", "5", "rescan_entries_per_delta"],
        Value::U64(219),
        "claim `re-scan entries per delta grow at least 50x within each seed` fails: seed 2",
    );
}

#[test]
fn paper_report_regenerates_byte_for_byte() {
    let cells = paper::run().expect("paper experiments");
    assert_eq!(paper::report(&cells).to_json(), PAPER);
}

/// Every simnet-driven number — queue disciplines, jitter, loss, sheds
/// and quantiles — regenerates exactly from the seeds.
#[test]
fn net_congestion_report_regenerates_byte_for_byte() {
    let flash = SEEDS.map(net_congestion::flash_crowd);
    let storm = SEEDS.map(net_congestion::gossip_storm);
    let bridge = SEEDS.map(net_congestion::wan_bridge);
    let report = net_congestion::report(&SEEDS, &flash, &storm, &bridge);
    assert_eq!(report.to_json(), NET_CONGESTION);
}

/// Every deterministic field of the committed fed_scale cells at 8 and
/// 32 sites (32 is CI's smoke column) under every seed regenerates
/// exactly in process, so a moved byte count or fingerprint fails here
/// even though the smoke run only re-checks the claims. Phases are drawn
/// from the seed, so each seed schedules differently. The wall-clock
/// fields (`gossip_round_micros`, `pump_micros`, `wall_micros`) are
/// left out.
#[test]
fn fed_scale_cells_reproduce_committed_deterministic_fields() {
    const DETERMINISTIC: [&str; 7] = [
        "converged",
        "sim_micros",
        "rounds",
        "gossip_pulses",
        "updates_applied",
        "bytes_on_wire",
        "fingerprint",
    ];
    let committed = parse(FED_SCALE).expect("parse");
    let cells = committed.list_at("cells").expect("cells");
    for shape in fed_scale::SHAPES {
        for sites in [8, 32] {
            for seed in [1, 2, 3] {
                let cell = format!("{}-{sites} seed {seed}", shape.name());
                let want = cells
                    .iter()
                    .find(|c| {
                        c.str_at("shape") == Ok(shape.name())
                            && c.u64_at("sites") == Ok(sites as u64)
                            && c.u64_at("seed") == Ok(seed)
                    })
                    .unwrap_or_else(|| panic!("{cell} is committed"));
                let fresh = fed_scale::run(shape, sites, seed).expect("run").to_value();
                for field in DETERMINISTIC {
                    assert_eq!(fresh.at(field), want.at(field), "{cell} → {field}");
                }
            }
        }
    }
}

/// Asserts that every deterministic field of the committed
/// `BENCH_query_scale.json` cells at `populations` under `seeds`
/// regenerates exactly in process, so a moved delta, evaluation count
/// or fingerprint fails even though the smoke run only re-checks the
/// claims. The wall-clock fields (`incremental_micros`,
/// `rescan_micros`) are left out.
fn assert_query_scale_cells_reproduce(populations: &[usize], seeds: &[u64]) {
    const DETERMINISTIC: [&str; 8] = [
        "subscriptions",
        "ops",
        "deltas_emitted",
        "incremental_evals",
        "incremental_evals_per_delta",
        "rescan_entries",
        "rescan_entries_per_delta",
        "fingerprint",
    ];
    let committed = parse(QUERY_SCALE).expect("parse");
    let cells = committed.list_at("cells").expect("cells");
    for &population in populations {
        for &seed in seeds {
            let cell = format!("population {population} seed {seed}");
            let want = cells
                .iter()
                .find(|c| {
                    c.u64_at("population") == Ok(population as u64) && c.u64_at("seed") == Ok(seed)
                })
                .unwrap_or_else(|| panic!("{cell} is committed"));
            let fresh = query_scale::run(population, seed).expect("run").to_value();
            for field in DETERMINISTIC {
                assert_eq!(fresh.at(field), want.at(field), "{cell} → {field}");
            }
        }
    }
}

/// The seed-1 cells at 200 and 2 000 people.
#[test]
fn query_scale_cells_reproduce_committed_deterministic_fields() {
    assert_query_scale_cells_reproduce(&[200, 2_000], &[1]);
}

/// The 20 000-person cells under seeds 1–3: the regime where standing
/// queries key their state by entry id rather than by name. Ignored by
/// default because the re-scan oracle dominates a debug run; CI runs
/// it in release with `-- --ignored`.
#[test]
#[ignore = "slow in debug; run in release with --ignored"]
fn query_scale_cells_reproduce_committed_deterministic_fields_at_20000() {
    assert_query_scale_cells_reproduce(&[20_000], &[1, 2, 3]);
}

#[test]
fn paper_claims_are_checked() {
    let fails = |path: &[&str], new: Value, claim: &str, cell: &str| {
        set_fails(PAPER, path, new, &format!("claim `{claim}` fails: {cell}"));
    };
    // The meeting's zero and the draw's latency swap places.
    fails(
        &["f1_quadrants", "1", "latency_micros"],
        Value::U64(0),
        "F1: quadrant latencies are strictly ordered",
        "f1_quadrants[1] (seed 1)",
    );
    fails(
        &["f1_quadrants_covered"],
        Value::U64(3),
        "F1: one environment covers all four quadrants",
        "f1_quadrants_covered is 3",
    );
    fails(
        &["f23_interop", "2", "closed_adapters"],
        Value::U64(55),
        "F2/F3: closed adapters = N(N-1), hub mappings = N",
        "f23_interop[2] (seed 1)",
    );
    fails(
        &["f23_interop", "1", "hub_mappings"],
        Value::U64(5),
        "F2/F3: closed adapters = N(N-1), hub mappings = N",
        "f23_interop[1] (seed 1)",
    );
    fails(
        &["f23_interop", "3", "hub_ok"],
        Value::U64(239),
        "F2/F3: hub success is 100% and half-wired closed success is 50%",
        "f23_interop[3] (seed 1)",
    );
    fails(
        &["f23_interop", "4", "half_wired_ok"],
        Value::U64(497),
        "F2/F3: hub success is 100% and half-wired closed success is 50%",
        "f23_interop[4] (seed 1)",
    );
    fails(
        &["f23_interop", "0", "hub_conversions"],
        Value::U64(2),
        "F2/F3: the hub converts twice per exchange, a direct adapter once",
        "f23_interop[0] (seed 1)",
    );
    fails(
        &["f3_fed_rings", "2", "converged"],
        Value::Bool(false),
        "F3-fed: every ring cell converges",
        "f3_fed_rings[2] (seed 1)",
    );
    fails(
        &["f4_layers", "2", "marshalled_bytes"],
        Value::U64(16),
        "F4: per-operation work never shrinks going up the stack",
        "f4_layers[2] (seed 1)",
    );
    fails(
        &["r1_search", "1", "base"],
        Value::U64(2),
        "R1: base = 1 and one-level = n/orgs",
        "r1_search[1] (seed 1)",
    );
    fails(
        &["r1_search", "2", "one_level"],
        Value::U64(5_011),
        "R1: base = 1 and one-level = n/orgs",
        "r1_search[2] (seed 1)",
    );
    // Non-urgent mail arrives before normal.
    fails(
        &["r2_delivery", "3", "latency_micros"],
        Value::U64(250_000),
        "R2: sync < urgent < normal < non-urgent",
        "r2_delivery[3] (seed 3)",
    );
    fails(
        &["r2_media", "2", "fax_cost"],
        Value::U64(64_001),
        "R2: conversion cost is linear in size and fax outweighs paper on the wire",
        "r2_media[2] (seed 1)",
    );
    fails(
        &["r3_activities", "1", "downstream_a0"],
        Value::U64(26),
        "R3: the schedule covers every activity and a slip stays within its chain",
        "r3_activities[1] (seed 1)",
    );
    fails(
        &["r4_rules", "2", "fired_on_match"],
        Value::U64(2),
        "R4: a match fires 1 action and a miss fires 0",
        "r4_rules[2] (seed 1)",
    );
    fails(
        &["r4_rules", "0", "fired_on_miss"],
        Value::U64(1),
        "R4: a match fires 1 action and a miss fires 0",
        "r4_rules[0] (seed 1)",
    );
    fails(
        &["r5_ladder", "5", "msgs_per_op"],
        Value::U64(2),
        "R5: msgs/op never falls as transparencies engage, and only `none` fails remotely",
        "r5_ladder[5] (seed 5)",
    );
    fails(
        &["r5_ladder", "0", "works_remotely"],
        Value::Bool(true),
        "R5: msgs/op never falls as transparencies engage, and only `none` fails remotely",
        "r5_ladder[0] (seed 5)",
    );
    fails(
        &["r5_isolation", "0", "disturbances"],
        Value::U64(1),
        "R5: isolation on disturbs no one; off, every event disturbs every non-member",
        "r5_isolation[0] (seed 1)",
    );
    fails(
        &["r5_isolation", "1", "disturbances"],
        Value::U64(899),
        "R5: isolation on disturbs no one; off, every event disturbs every non-member",
        "r5_isolation[1] (seed 1)",
    );
    fails(
        &["r6_policy", "1", "matches_with_policy"],
        Value::U64(100),
        "R6: the policy hides exactly the UPC half",
        "r6_policy[1] (seed 1)",
    );
    fails(
        &["r6_policy", "0", "anonymous_matches"],
        Value::U64(1),
        "R6: an anonymous importer sees 0 offers",
        "r6_policy[0] (seed 1)",
    );
}

#[test]
fn codec_round_trips_nested_values_and_escaped_strings() {
    let value = Value::object([
        ("plain", "star".to_value()),
        (
            "escaped",
            "quote \" backslash \\ newline \n tab \t cr \r bell \u{7}".to_value(),
        ),
        ("unicode", "é → 😀".to_value()),
        ("empty", "".to_value()),
        ("flags", Value::list([true, false])),
        ("max", Value::U64(u64::MAX)),
        ("zero", Value::U64(0)),
        ("nothing", Value::List(Vec::new())),
        ("no fields", Value::Object(Vec::new())),
        (
            "nested",
            Value::List(vec![Value::object([(
                "deeper",
                Value::object([("list", Value::list([1u64, 2, 3]))]),
            )])]),
        ),
    ]);
    assert_eq!(parse(&value.to_json()), Ok(value.clone()));
    let sections = [
        ("seeds", Value::list([1u64, 2])),
        ("cells", Value::List(vec![value.clone(), value])),
    ];
    let report = Report::new("probe", true, sections);
    assert_eq!(parse(&report.to_json()), Ok(report.value()));
    assert!(report.to_json().contains("\n  \"seeds\": [1, 2],\n"));
}

#[test]
fn malformed_input_is_a_positioned_error() {
    assert_eq!(
        parse("{\n  \"a\": tru\n}"),
        Err("line 2, column 8: expected a value".to_owned())
    );
    let deep = "[".repeat(1_000);
    for bad in [
        "",
        "{",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "{1:2}",
        "[1 2]",
        "[01]",
        "-1",
        "1.5",
        "18446744073709551616",
        "\"unterminated",
        "\"raw \u{1} control\"",
        "\"\\q\"",
        "\"\\u00e9\"",
        "\"\\u001F\"",
        "\"\\u+01f\"",
        "\"\\u12\"",
        "null",
        "{} {}",
        deep.as_str(),
    ] {
        let err = parse(bad).expect_err(bad);
        assert!(err.starts_with("line "), "{bad:?}: {err}");
    }
}
