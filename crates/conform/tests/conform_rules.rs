//! Fixture-based integration tests: each rule has a clean fixture and a
//! violating fixture, plus lexer and call-graph edge cases.

use std::path::PathBuf;

use cscw_conform::analyze;
use cscw_conform::diag::Finding;
use cscw_conform::graph::CallGraph;
use cscw_conform::lexer::{lex, TokenKind};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn findings_for(name: &str) -> Vec<Finding> {
    analyze(&fixture(name))
        .unwrap_or_else(|e| panic!("analyzing fixture {name}: {e}"))
        .findings
}

#[test]
fn clean_fixture_has_no_findings() {
    let findings = findings_for("clean");
    assert!(findings.is_empty(), "expected clean, got: {findings:#?}");
}

#[test]
fn layering_fixture_flags_bypass_upward_and_peer() {
    let findings = findings_for("layering");
    let r1: Vec<_> = findings.iter().filter(|f| f.rule == "R1").collect();
    assert_eq!(r1.len(), 3, "{findings:#?}");
    assert!(r1
        .iter()
        .any(|f| f.file.contains("groupware") && f.message.contains("net-layer bypass")));
    assert!(r1
        .iter()
        .any(|f| f.file.contains("simnet") && f.message.contains("upward")));
    assert!(r1
        .iter()
        .any(|f| f.file.contains("messaging") && f.message.contains("peer")));
    // The directory crate's downward use of simnet is legal.
    assert!(!r1.iter().any(|f| f.file.contains("directory")));
}

#[test]
fn errors_fixture_flags_panics_and_unclassified_apis() {
    let findings = findings_for("errors");
    let r2: Vec<_> = findings.iter().filter(|f| f.rule == "R2").collect();
    assert_eq!(r2.len(), 4, "{findings:#?}");
    assert!(r2.iter().any(|f| f.message.contains("`.unwrap()`")));
    assert!(r2.iter().any(|f| f.message.contains("`.expect(")));
    assert!(r2.iter().any(|f| f.message.contains("`panic!`")));
    assert!(r2.iter().any(
        |f| f.message.contains("UnclassifiedError") && f.message.contains("does not implement")
    ));
    // The parser-style `expect('(')` helper must not be confused with
    // `Option::expect`.
    assert!(!r2.iter().any(|f| f.line >= 22 && f.line <= 33));
}

#[test]
fn locks_fixture_flags_lock_types_and_guards_across_ports() {
    let findings = findings_for("locks");
    let r3: Vec<_> = findings.iter().filter(|f| f.rule == "R3").collect();
    assert_eq!(r3.len(), 4, "{findings:#?}");
    let banned: Vec<_> = r3
        .iter()
        .filter(|f| f.message.contains("lock type"))
        .collect();
    assert_eq!(banned.len(), 2, "{r3:#?}");
    assert!(banned.iter().any(|f| f.message.contains("`parking_lot`")));
    assert!(banned.iter().any(|f| f.message.contains("`Mutex`")));
    let held: Vec<_> = r3
        .iter()
        .filter(|f| f.message.contains("held across Platform port call"))
        .collect();
    assert_eq!(held.len(), 2, "{r3:#?}");
    assert!(held.iter().any(|f| f.message.contains("`self.org`")));
    assert!(held.iter().any(|f| f.message.contains("`self.inner`")));
}

#[test]
fn telemetry_fixture_flags_foreign_layer_tags() {
    let findings = findings_for("telemetry");
    let r4: Vec<_> = findings.iter().filter(|f| f.rule == "R4").collect();
    assert_eq!(r4.len(), 8, "{findings:#?}");
    let tags: Vec<_> = r4
        .iter()
        .filter(|f| f.message.contains("expected `Layer::Odp`"))
        .collect();
    assert_eq!(tags.len(), 3, "{r4:#?}");
    assert!(tags.iter().any(|f| f.message.contains("Layer::App")));
    assert!(tags.iter().any(|f| f.message.contains("Layer::Net")));
    let names: Vec<_> = r4
        .iter()
        .filter(|f| f.message.contains("telemetry name"))
        .collect();
    assert_eq!(names.len(), 5, "{r4:#?}");
    assert!(names
        .iter()
        .any(|f| f.message.contains("\"importLatency\"") && f.message.contains("not a dotted")));
    assert!(names
        .iter()
        .any(|f| f.message.contains("\"net.sent\"") && f.message.contains("`Layer::Odp` prefix")));
    assert!(
        names
            .iter()
            .any(|f| f.message.contains("\"odp.invoke\"")
                && f.message.contains("`Layer::App` prefix"))
    );
}

#[test]
fn determinism_fixture_flags_sensitive_sites_only() {
    let findings = findings_for("determinism");
    let r5: Vec<_> = findings.iter().filter(|f| f.rule == "R5").collect();
    assert_eq!(r5.len(), 5, "{findings:#?}");
    // The helper's hash iteration is a violation only because lib.rs's
    // `fingerprint` calls it — cross-file, via the call graph.
    assert!(r5.iter().any(|f| f.file.contains("canon.rs")
        && f.message.contains("feeds a fingerprint via `fingerprint`")));
    assert!(r5
        .iter()
        .any(|f| f.message.contains("`EventQueue` ordering via `schedule`")));
    assert!(r5.iter().any(|f| f.file.contains("report.rs")
        && f.message
            .contains("feeds committed-bench output via `to_json`")));
    assert!(r5.iter().any(|f| f.message.contains("`Instant::now()`")));
    assert!(r5.iter().any(|f| f.message.contains("`thread_rng`")));
    // The unconnected debug dump iterates the same map legally.
    assert!(!r5.iter().any(|f| f.message.contains("debug_dump")));
    assert_eq!(findings.len(), 5, "only R5 fires: {findings:#?}");
}

#[test]
fn spans_fixture_flags_unbalanced_and_unthreaded() {
    let findings = findings_for("spans");
    let r6: Vec<_> = findings.iter().filter(|f| f.rule == "R6").collect();
    assert_eq!(r6.len(), 4, "{findings:#?}");
    assert!(r6
        .iter()
        .any(|f| f.message.contains("early `return` in `lookup`")));
    assert!(r6
        .iter()
        .any(|f| f.message.contains("opened in `probe`")
            && f.message.contains("no matching `span_end`")));
    assert!(r6
        .iter()
        .any(|f| f.message.contains("\"doLookup\"") && f.message.contains("not a dotted")));
    assert!(r6
        .iter()
        .any(|f| f.message.contains("no `SpanContext` is threaded")));
    // `balanced` closes the span on both paths and must stay silent.
    assert!(!r6.iter().any(|f| f.message.contains("balanced")));
    assert_eq!(findings.len(), 4, "only R6 fires: {findings:#?}");
}

#[test]
fn waiver_pragmas_suppress_findings() {
    let findings = findings_for("waivers");
    assert!(
        findings.is_empty(),
        "expected all waived, got: {findings:#?}"
    );
}

// --- Lexer edge cases the call-graph pass depends on ------------------

#[test]
fn raw_strings_and_nested_comments_do_not_grow_the_call_graph() {
    let src = r####"
pub fn outer(s0: &str) -> String {
    let s = r#"fn fake_in_raw() { phantom(); }"#;
    /* fn fake_in_comment() { /* nested block */ phantom(); } */
    helper(s)
}
fn helper(s: &str) -> String { s.to_owned() }
"####;
    let tokens = lex(src);
    let g = CallGraph::build(&[&tokens]);
    assert!(g.fn_named("fake_in_raw").is_none());
    assert!(g.fn_named("fake_in_comment").is_none());
    assert!(g.fn_named("phantom").is_none());
    let outer = g.fn_named("outer").expect("outer found");
    let helper = g.fn_named("helper").expect("helper found");
    assert_eq!(g.callees(outer), &[helper]);
}

#[test]
fn lifetimes_in_generic_args_lex_as_lifetimes_and_fns_still_resolve() {
    let src = "fn life<'a>(xs: &'a [Entry<'a>]) -> Option<&'a str> { first(xs) }\n\
               fn first<'b>(xs: &'b [Entry<'b>]) -> Option<&'b str> { None }\n";
    let tokens = lex(src);
    assert!(
        tokens.iter().any(|t| t.kind == TokenKind::Lifetime),
        "lifetimes must not lex as char literals"
    );
    assert!(!tokens.iter().any(|t| t.kind == TokenKind::CharLit));
    let g = CallGraph::build(&[&tokens]);
    let life = g.fn_named("life").expect("life found");
    let first = g.fn_named("first").expect("first found");
    assert_eq!(g.callees(life), &[first]);
}

#[test]
fn turbofish_call_sites_are_graph_edges_and_macros_are_not() {
    let src = "fn caller(input: &str) -> u64 {\n\
                   log!(\"not a call\");\n\
                   parse::<u64>(input)\n\
               }\n\
               fn parse<T>(s: &str) -> T { loop {} }\n\
               fn log(s: &str) {}\n";
    let tokens = lex(src);
    let g = CallGraph::build(&[&tokens]);
    let caller = g.fn_named("caller").expect("caller found");
    let parse = g.fn_named("parse").expect("parse found");
    let log = g.fn_named("log").expect("log found");
    assert!(g.callees(caller).contains(&parse), "turbofish edge");
    assert!(!g.callees(caller).contains(&log), "macro is not a call");
}

#[test]
fn trait_method_declarations_define_no_functions() {
    let src = "trait Port {\n\
                   fn declared_only(&self) -> u64;\n\
                   fn with_default(&self) -> u64 { backing() }\n\
               }\n\
               fn backing() -> u64 { 7 }\n";
    let tokens = lex(src);
    let g = CallGraph::build(&[&tokens]);
    assert!(g.fn_named("declared_only").is_none());
    let with_default = g.fn_named("with_default").expect("default body found");
    assert_eq!(g.callees(with_default), &[g.fn_named("backing").unwrap()]);
}
