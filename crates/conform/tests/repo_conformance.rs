//! The workspace's own conformance gate: `cargo test` runs the analyzer
//! over the shipping source, so a layering/panic/lock/telemetry/
//! determinism/span finding fails the test suite even before CI runs
//! the analyzer binary.

use std::path::PathBuf;

use cscw_conform::analyze;

/// Zero findings across every rule. This holds R1 at zero in the
/// groupware apps that once reached `simnet` directly (`bbs`,
/// `conference`, `lens_mail`, `procedure`), R2 at zero panic sites, and
/// R5/R6 at the zero they entered with.
#[test]
fn workspace_has_no_findings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let analysis = analyze(&root).expect("analysis succeeds");
    let listed: String = analysis
        .findings
        .iter()
        .map(|f| format!("\n  {} {}:{} {}", f.rule, f.file, f.line, f.message))
        .collect();
    assert!(
        analysis.findings.is_empty(),
        "conformance findings (fix them, or waive each at its site with \
         `conform: allow(Rn) — reason`):{listed}"
    );
}
