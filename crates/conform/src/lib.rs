//! `cscw-conform` — a workspace conformance analyzer.
//!
//! Statically enforces the architecture the paper's Figure 4 promises
//! and that PR 1's port refactor established, over the workspace's own
//! shipping source:
//!
//! * **R1** — layer dependencies respect the partial order
//!   `kernel ≤ simnet ≤ {messaging, directory} ≤ odp ≤ core ≤ groupware`,
//!   with `simnet` encapsulated below the communication services.
//! * **R2** — no panics in library code; public fallible APIs return
//!   `cscw_kernel::LayerError`-classified error types.
//! * **R3** — no `Mutex`, `RwLock` or `parking_lot` in the
//!   single-threaded stack, and no `RefCell` borrow guard held across a
//!   `Platform` port call.
//! * **R4** — telemetry events carry the emitting crate's own layer tag.
//! * **R5** — determinism discipline: no wall-clock reads, unseeded
//!   randomness, or `HashMap`/`HashSet` iteration in code that feeds a
//!   fingerprint, wire codec, `EventQueue` ordering, or committed-bench
//!   output (judged over the phase-2 call graph).
//! * **R6** — span discipline: every `span_begin` balances with a
//!   `span_end` on all paths, spans crossing `Platform` ports thread a
//!   `SpanContext`, and span names obey the dotted grammar.
//!
//! Analysis runs in two phases: phase 1 lexes every file and builds the
//! workspace-wide symbol index + call graph ([`graph`]); phase 2 runs
//! the rules, the last two of which consult the graph.
//!
//! The analyzer is deliberately std-only (hand-rolled lexer, no `syn`,
//! no proc-macro machinery): it must run offline in the same container
//! as the code it checks, and it must depend on nothing it judges.
//!
//! A workspace conforms when [`analyze`] returns no findings. The one
//! escape hatch is a waiver at the site, with its reason:
//! `conform: allow(Rn) — reason` covers its own line and the one below,
//! and `conform: allow-file(Rn) — reason` covers the whole file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod workspace;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use diag::{sort_findings, Finding};
use graph::CallGraph;
use lexer::{lex, strip_test_code};
use rules::{
    check_determinism, check_errors, check_layering, check_locks, check_spans, check_telemetry,
    collect_classified_errors, collect_hash_names, FileContext,
};
use workspace::{discover, Waivers};

/// The result of analysing a workspace.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All unwaived findings, in stable report order.
    pub findings: Vec<Finding>,
    /// Number of files analysed.
    pub files: usize,
    /// Number of crates analysed.
    pub crates: usize,
    /// Error types accepted as `LayerError`-classified.
    pub classified_errors: BTreeSet<String>,
}

/// Analyses the workspace rooted at `root` and returns every finding.
///
/// # Errors
///
/// I/O failures reading the workspace.
pub fn analyze(root: &Path) -> std::io::Result<Analysis> {
    let crates = discover(root)?;
    let mut analysis = Analysis {
        crates: crates.len(),
        ..Analysis::default()
    };

    // Phase 1: read + lex every file once, discovering the set of
    // LayerError-classified error types and each crate's hash-typed
    // identifiers as we go; then raise the workspace-wide call graph
    // over all the token streams.
    struct PreparedFile<'a> {
        krate: &'a workspace::WorkspaceCrate,
        rel_path: String,
        tokens: Vec<lexer::Token>,
        waivers: Waivers,
    }
    let mut prepared: Vec<PreparedFile<'_>> = Vec::new();
    let mut hash_names: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for krate in &crates {
        for path in &krate.files {
            let source = fs::read_to_string(path)?;
            let rel_path = rel_path(root, path);
            let waivers = Waivers::parse(&source);
            let tokens = strip_test_code(lex(&source));
            collect_classified_errors(&tokens, &mut analysis.classified_errors);
            collect_hash_names(
                &tokens,
                hash_names.entry(krate.dir_name.clone()).or_default(),
            );
            prepared.push(PreparedFile {
                krate,
                rel_path,
                tokens,
                waivers,
            });
        }
    }
    analysis.files = prepared.len();
    let streams: Vec<&[lexer::Token]> = prepared.iter().map(|f| f.tokens.as_slice()).collect();
    let call_graph = CallGraph::build(&streams);

    // Phase 2: run the per-file rules; R5/R6 consult the call graph.
    let empty = BTreeSet::new();
    for (idx, file) in prepared.iter().enumerate() {
        let ctx = FileContext {
            krate: file.krate,
            rel_path: file.rel_path.clone(),
            tokens: &file.tokens,
            waivers: &file.waivers,
        };
        check_layering(&ctx, &mut analysis.findings);
        check_errors(&ctx, &analysis.classified_errors, &mut analysis.findings);
        check_locks(&ctx, &mut analysis.findings);
        check_telemetry(&ctx, &mut analysis.findings);
        let crate_hashes = hash_names.get(&file.krate.dir_name).unwrap_or(&empty);
        check_determinism(&ctx, idx, &call_graph, crate_hashes, &mut analysis.findings);
        check_spans(&ctx, idx, &call_graph, &mut analysis.findings);
    }

    sort_findings(&mut analysis.findings);
    Ok(analysis)
}

/// Root-relative path with forward slashes, for stable report keys.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}
