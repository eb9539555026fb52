//! Offline check of a committed bench report — CI runs this after each
//! bench regenerates its report, and the same check runs when a bench
//! writes it. The file is parsed with `cscw_bench::report::parse`, its
//! `"experiment"` key picks the contract (`fed_scale`,
//! `net_congestion`, `query_scale` or `paper`), every section must have
//! exactly the key tree its result type's `to_value` writes, and then
//! every declared claim must hold (`cscw_bench::report::check`).
//!
//! Usage: `validate_metrics_json [path]` (default
//! `BENCH_fed_scale.json` in the current directory). Exits non-zero
//! with a diagnostic naming the first violation.

use std::process::ExitCode;

use cscw_bench::report;

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fed_scale.json".to_owned());
    let checked = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| report::parse(&text))
        .and_then(|doc| report::check(&doc));
    match checked {
        Ok(()) => {
            println!("validate_metrics_json: OK: {path} has its schema and holds its claims");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate_metrics_json: FAIL: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
