//! The paper's figure and requirement experiments (F1, F2/F3, F3-fed,
//! F4, R1–R6): runs every workload and writes `BENCH_paper.json` at
//! the workspace root once its schema and every shape-verdict claim
//! hold. Every value is a count or a simulated time, so a rerun writes
//! the same bytes.

use cscw_bench::paper;

fn main() {
    let cells = paper::run().expect("paper experiments");
    let report = paper::report(&cells);
    print!("{}", report.to_json());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    report
        .write(path)
        .expect("report holds its schema and claims");
    println!("paper: wrote {path}");
}
