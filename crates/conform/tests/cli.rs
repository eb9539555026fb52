//! The `cscw-conform` binary: its verdict is zero findings, and it
//! accepts only `--root` and `--format`.

use std::path::PathBuf;
use std::process::{Command, Output};

use cscw_conform::analyze;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn conform(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cscw-conform"))
        .args(args)
        .output()
        .expect("cscw-conform runs")
}

fn root_arg(name: &str) -> String {
    fixture(name).to_string_lossy().into_owned()
}

#[test]
fn clean_fixture_exits_zero() {
    let out = conform(&["check", "--root", &root_arg("clean")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("conformance: PASS"));
}

#[test]
fn a_violation_fails_with_one_github_error_per_finding() {
    let findings = analyze(&fixture("layering")).expect("analysis").findings;
    assert!(!findings.is_empty());
    let out = conform(&[
        "check",
        "--root",
        &root_arg("layering"),
        "--format",
        "github",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let errors: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("::error "))
        .collect();
    assert_eq!(errors.len(), findings.len(), "{stdout}");
    for (line, f) in errors.iter().zip(&findings) {
        let at = format!("::error file={},line={},", f.file, f.line);
        assert!(line.starts_with(&at), "{line:?} is not {f}");
    }
}

#[test]
fn removed_baseline_options_are_usage_errors() {
    for args in [&["check", "--baseline", "x"][..], &["check", "-D"]] {
        let out = conform(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: cscw-conform check"), "{stderr}");
    }
}
