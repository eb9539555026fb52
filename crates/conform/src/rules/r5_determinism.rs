//! R5 — determinism discipline.
//!
//! The repo's verification story (seed-stable fault storms, bit-for-bit
//! federation convergence fingerprints, reproducible
//! `BENCH_fed_scale.json`) rests on every replayed run observing the
//! same values in the same order. Three things quietly break that:
//!
//! * **wall-clock reads** (`Instant::now`, `SystemTime::now`) — time
//!   must flow from the kernel `Clock` port, which replays;
//! * **unseeded randomness** (`thread_rng`, `from_entropy`) — entropy
//!   must come from the kernel's seeded rng;
//! * **iteration over `HashMap`/`HashSet`** — hash iteration order is
//!   arbitrary, so it may only happen where the order cannot escape.
//!
//! Wall-clock and unseeded-randomness reads are flagged anywhere in a
//! layer crate's shipping code. Hash iteration is flagged only in
//! *determinism-sensitive* functions — those connected, through the
//! phase-2 call graph, to a fingerprint, wire codec, `EventQueue`
//! ordering, or committed-bench output sink. A debug dump may walk a
//! `HashMap`; a digest may not.
//!
//! Designed-in sites (the kernel `Clock`'s epoch anchor) carry
//! `conform: allow(R5)` waivers with their rationale.

use std::collections::BTreeSet;

use super::{receiver_chain, FileContext};
use crate::diag::Finding;
use crate::graph::CallGraph;
use crate::lexer::Token;
use crate::workspace::CrateRole;

/// Methods whose results expose hash iteration order.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// Records, into `out`, every identifier in `toks` that is declared or
/// initialised as a `HashMap`/`HashSet` — `name: HashMap<..>` fields
/// and params, and `let name = HashMap::new()`-style bindings. Scoped
/// per crate: fields declared in one file iterate in another.
pub fn collect_hash_names(toks: &[Token], out: &mut BTreeSet<String>) {
    for i in 0..toks.len() {
        if !toks[i].kind.is_ident("HashMap") && !toks[i].kind.is_ident("HashSet") {
            continue;
        }
        // Walk back over a `std::collections::` path prefix, then any
        // `&`/`&mut` reference sigils (`map: &HashMap<..>` params).
        let mut j = i;
        while j >= 2 && toks[j - 1].kind.is_punct("::") && toks[j - 2].kind.ident().is_some() {
            j -= 2;
        }
        while j >= 1 && (toks[j - 1].kind.is_punct("&") || toks[j - 1].kind.is_ident("mut")) {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let before = &toks[j - 1].kind;
        // `name: HashMap<..>` or `name = HashMap::new()`.
        if (before.is_punct(":") || before.is_punct("=")) && j >= 2 {
            if let Some(name) = toks[j - 2].kind.ident() {
                out.insert(name.to_owned());
            }
        }
    }
}

/// Is this token the start of an `X::now()` wall-clock read?
fn wall_clock_read(toks: &[Token], i: usize) -> Option<&'static str> {
    let src = toks[i].kind.ident()?;
    let which = match src {
        "Instant" => "Instant::now()",
        "SystemTime" => "SystemTime::now()",
        _ => return None,
    };
    (toks.get(i + 1).is_some_and(|t| t.kind.is_punct("::"))
        && toks.get(i + 2).is_some_and(|t| t.kind.is_ident("now")))
    .then_some(which)
}

/// Checks one file's determinism discipline. `file_idx` is this file's
/// index in the order the call graph was built over; `hash_names` is
/// the owning crate's set of hash-typed identifiers.
pub fn check_determinism(
    ctx: &FileContext<'_>,
    file_idx: usize,
    graph: &CallGraph,
    hash_names: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    if !matches!(ctx.role(), CrateRole::Layer(_)) {
        return; // tools and the facade measure real time by design
    }
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        let line = toks[i].line;

        // Wall-clock and unseeded-randomness reads: flagged anywhere.
        if let Some(call) = wall_clock_read(toks, i) {
            if !ctx.waivers.covers("R5", line) {
                findings.push(Finding::new(
                    "R5",
                    ctx.rel_path.clone(),
                    line,
                    format!(
                        "wall-clock `{call}` in shipping code — time must flow from \
                         the kernel `Clock` port so replays stay deterministic"
                    ),
                ));
            }
            continue;
        }
        if toks[i].kind.is_ident("thread_rng") || toks[i].kind.is_ident("from_entropy") {
            if !ctx.waivers.covers("R5", line) {
                let what = toks[i].kind.ident().unwrap_or_default();
                findings.push(Finding::new(
                    "R5",
                    ctx.rel_path.clone(),
                    line,
                    format!(
                        "unseeded randomness `{what}` in shipping code — entropy must \
                         come from the kernel's seeded rng"
                    ),
                ));
            }
            continue;
        }

        // Hash iteration: flagged only in determinism-sensitive code.
        let site = hash_iteration_site(toks, i, hash_names);
        let Some(chain) = site else { continue };
        let Some(f) = graph.fn_at(file_idx, i) else {
            continue;
        };
        let Some(sens) = graph.sensitivity(f) else {
            continue;
        };
        if ctx.waivers.covers("R5", line) {
            continue;
        }
        let sink = &graph.fns[sens.sink];
        findings.push(Finding::new(
            "R5",
            ctx.rel_path.clone(),
            line,
            format!(
                "iteration over hash-ordered `{chain}` in `{caller}`, which feeds \
                 {what} via `{sink_name}` — hash iteration order is nondeterministic; \
                 use `BTreeMap`/`BTreeSet` or sort before iterating",
                caller = graph.fns[f].name,
                what = sens.kind.describe(),
                sink_name = sink.name,
            ),
        ));
    }
}

/// If token `i` begins a hash-iteration site, the receiver text.
///
/// Two shapes: a `.iter()`-family method whose receiver chain ends in a
/// hash-typed name, and a `for .. in` loop whose iterated expression is
/// such a chain.
fn hash_iteration_site(toks: &[Token], i: usize, hash_names: &BTreeSet<String>) -> Option<String> {
    // `recv.iter()` / `recv.keys()` / ...
    if toks[i].kind.is_punct(".") {
        let method = toks.get(i + 1).and_then(|t| t.kind.ident())?;
        if !ITER_METHODS.contains(&method) || !toks.get(i + 2)?.kind.is_punct("(") {
            return None;
        }
        let chain = receiver_chain(toks, i)?;
        let last = chain.rsplit(['.', ':']).next().unwrap_or(&chain);
        return hash_names.contains(last).then_some(chain);
    }
    // `for pat in [&][mut] chain {`
    if !toks[i].kind.is_ident("for") {
        return None;
    }
    let mut depth = 0i32;
    let mut j = i + 1;
    // Find the loop's `in` (skipping nested parens in the pattern).
    loop {
        let k = &toks.get(j)?.kind;
        if k.is_punct("(") || k.is_punct("[") {
            depth += 1;
        } else if k.is_punct(")") || k.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && k.is_ident("in") {
            break;
        } else if depth == 0 && (k.is_punct("{") || k.is_punct(";")) {
            return None; // not a `for` loop header after all
        }
        j += 1;
    }
    j += 1;
    while toks
        .get(j)
        .is_some_and(|t| t.kind.is_punct("&") || t.kind.is_ident("mut"))
    {
        j += 1;
    }
    // Read a simple `a.b::c` chain; it must run straight into `{`.
    let mut chain = String::new();
    let mut last = String::new();
    loop {
        let k = &toks.get(j)?.kind;
        if let Some(id) = k.ident() {
            chain.push_str(id);
            last = id.to_owned();
        } else if k.is_punct(".") {
            chain.push('.');
        } else if k.is_punct("::") {
            chain.push_str("::");
        } else if k.is_punct("{") {
            break;
        } else {
            return None; // method call, index, etc. — handled above
        }
        j += 1;
    }
    (!last.is_empty() && hash_names.contains(&last)).then_some(chain)
}
