//! The conformance rules.
//!
//! | Rule | Enforces | Paper anchor |
//! |------|----------|--------------|
//! | R1   | Figure-4 layer dependencies | §3/§6, Fig. 4 |
//! | R2   | panic-free libraries, `LayerError`-classified public APIs | layered failure model |
//! | R3   | lock acquisition order, no locks across `Platform` ports | engineering viewpoint |
//! | R4   | telemetry events carry the emitting crate's layer tag | telemetry layers |
//! | R5   | determinism discipline: no wall-clock, unseeded rng, or hash-order iteration feeding a fingerprint, wire codec, `EventQueue` ordering, or committed-bench output (call-graph-aware) | replication transparency |
//! | R6   | span discipline: `span_begin`/`span_end` balance on every path, `SpanContext` threaded across `Platform` ports, dotted span names | engineering-viewpoint bindings |

mod r1_layering;
mod r2_errors;
mod r3_locks;
mod r4_telemetry;
mod r5_determinism;
mod r6_spans;

pub use r1_layering::check_layering;
pub use r2_errors::{check_errors, collect_classified_errors};
pub use r3_locks::{check_locks, LockGraph};
pub use r4_telemetry::check_telemetry;
pub use r5_determinism::{check_determinism, collect_hash_names};
pub use r6_spans::check_spans;

use crate::lexer::Token;
use crate::workspace::{CrateRole, Waivers, WorkspaceCrate};

/// Everything a rule needs to know about one file.
pub struct FileContext<'a> {
    /// The owning crate.
    pub krate: &'a WorkspaceCrate,
    /// Repo-relative path with forward slashes (report key).
    pub rel_path: String,
    /// Test-stripped token stream.
    pub tokens: &'a [Token],
    /// Waiver pragmas parsed from the raw source.
    pub waivers: &'a Waivers,
}

impl FileContext<'_> {
    /// The crate's role.
    pub fn role(&self) -> CrateRole {
        self.krate.role
    }
}

/// Walks back from the token *before* `call_dot` (the `.` of a method
/// call) to recover the receiver chain as text, e.g. `self.org` for
/// `self.org.read()`. Stops at any token that cannot continue a simple
/// field/path chain. Returns `None` when there is no receiver (the dot
/// opened the expression).
pub fn receiver_chain(tokens: &[Token], call_dot: usize) -> Option<String> {
    receiver_span(tokens, call_dot).map(|(_, chain)| chain)
}

/// As [`receiver_chain`], with the index of the chain's first token.
pub fn receiver_span(tokens: &[Token], call_dot: usize) -> Option<(usize, String)> {
    let mut parts: Vec<String> = Vec::new();
    let mut i = call_dot; // index of the `.`
    loop {
        if i == 0 {
            break;
        }
        let prev = &tokens[i - 1];
        match &prev.kind {
            crate::lexer::TokenKind::Ident(id) => {
                parts.push(id.clone());
                i -= 1;
                // A chain continues through `.` or `::` to its left.
                if i == 0 {
                    break;
                }
                let link = &tokens[i - 1];
                if link.kind.is_punct(".") || link.kind.is_punct("::") {
                    parts.push(if link.kind.is_punct(".") { "." } else { "::" }.to_owned());
                    i -= 1;
                } else {
                    break;
                }
            }
            // `)` would mean the receiver is itself a call — treat the
            // chain as opaque rather than misattributing it.
            _ => break,
        }
    }
    if parts.is_empty() {
        return None;
    }
    parts.reverse();
    Some((i, parts.concat()))
}

/// Finds the index of the `)` matching the `(` at `open`.
pub fn matching_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].kind.is_punct("(") {
            depth += 1;
        } else if tokens[i].kind.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}
