//! R3 — lock discipline across the environment stack.
//!
//! The environment (`environment.rs`), the organisational trading
//! policy (`trading.rs`) and the kernel telemetry stream
//! (`telemetry.rs`) all guard shared state with locks, and the trading
//! policy's lock is an *alias* of the environment's organisational
//! model (one `Arc<RwLock<OrganisationalModel>>` shared across both
//! files). Two failure modes are checked statically:
//!
//! * **Order inversions** — the rule derives a lock-acquisition graph:
//!   an edge `A → B` is recorded wherever `B` is acquired while a
//!   let-bound guard of `A` is still live. Any cycle in the
//!   workspace-wide graph is reported at each participating edge.
//! * **Locks held across `Platform` ports** — a port call
//!   (`platform.trader()`, `.directory()`, `.transport()`, `.clock()`,
//!   `.telemetry()`) made while any lock guard is live is a finding: on
//!   a distributed platform a port call is network I/O, and the
//!   trader's policy hook re-enters the organisational lock
//!   (`OrgTradingPolicy::allows`), so holding it across the call is a
//!   latent deadlock.
//!
//! Guard liveness is syntactic: `let g = x.read();` and
//! `let g = &x.read();` (a borrow extends the temporary's life) hold to
//! the end of the block (or an explicit `drop(g)`). Any other lock call
//! is a statement-scoped temporary that releases at the `;`: a chained
//! `x.read().method()`, and a guard inside a larger initializer, as in
//! `let p = publish(&x.read())?;`.

use std::collections::{BTreeMap, BTreeSet};

use super::{matching_paren, receiver_chain, receiver_span, FileContext};
use crate::diag::Finding;
use crate::lexer::Token;

const LOCK_METHODS: [&str; 3] = ["read", "write", "lock"];
const PORT_METHODS: [&str; 5] = ["trader", "directory", "transport", "clock", "telemetry"];

/// Receiver-name aliases: distinct field names that guard the same
/// underlying lock. `OrgTradingPolicy.model` is a clone of the
/// environment's `CscwEnvironment.org` (`Arc<RwLock<OrganisationalModel>>`),
/// so both canonicalise to `org-model`.
const LOCK_ALIASES: [(&str, &str); 2] = [("org", "org-model"), ("model", "org-model")];

/// The workspace-wide lock-acquisition graph, accumulated over files.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// `from -> {(to, file, line)}`.
    edges: BTreeMap<String, BTreeSet<(String, String, u32)>>,
}

impl LockGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_edge(&mut self, from: &str, to: &str, file: &str, line: u32) {
        if from == to {
            return; // re-acquisition is caught as a port/readability
                    // concern elsewhere; self-edges are not an ordering
        }
        self.edges.entry(from.to_owned()).or_default().insert((
            to.to_owned(),
            file.to_owned(),
            line,
        ));
    }

    /// All canonical lock names with outgoing edges.
    pub fn lock_names(&self) -> Vec<&str> {
        self.edges.keys().map(String::as_str).collect()
    }

    /// Reports every edge that participates in a cycle.
    pub fn inversion_findings(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        for (from, tos) in &self.edges {
            for (to, file, line) in tos {
                if self.reaches(to, from) {
                    findings.push(Finding::new(
                        "R3",
                        file.clone(),
                        *line,
                        format!(
                            "lock order inversion: `{to}` acquired while holding `{from}`, \
                             but `{from}` is also acquired while `{to}` is held elsewhere"
                        ),
                    ));
                }
            }
        }
        findings
    }

    /// Is `to` reachable from `from` along edges?
    fn reaches(&self, from: &str, to: &str) -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from.to_owned()];
        while let Some(cur) = stack.pop() {
            if cur == to {
                return true;
            }
            if !seen.insert(cur.clone()) {
                continue;
            }
            if let Some(nexts) = self.edges.get(&cur) {
                stack.extend(nexts.iter().map(|(n, _, _)| n.clone()));
            }
        }
        false
    }
}

/// Canonicalises a lock receiver. Struct fields (`self.org`) get a
/// workspace-global identity keyed by the field name, so cross-file
/// ordering over shared state is visible; the alias table further maps
/// fields known to guard the same `Arc` (`org`/`model`) to one name.
/// Anything else (locals, parameters) is keyed per file so unrelated
/// helper locks never collide across files.
fn canonical_lock(receiver: &str, rel_path: &str) -> String {
    let base = receiver.rsplit(['.', ':']).next().unwrap_or(receiver);
    for (field, canon) in LOCK_ALIASES {
        if base == field {
            return canon.to_owned();
        }
    }
    if let Some(field_path) = receiver.strip_prefix("self.") {
        return field_path.to_owned();
    }
    format!("{rel_path}::{receiver}")
}

/// A live, let-bound lock guard.
#[derive(Debug, Clone)]
struct Guard {
    lock: String,
    var: String,
    brace_depth: i32,
}

/// Checks one file: records acquisition edges into `graph` and emits
/// lock-across-port findings directly.
pub fn check_locks(ctx: &FileContext<'_>, graph: &mut LockGraph, findings: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    let mut held: Vec<Guard> = Vec::new();
    let mut brace_depth = 0i32;
    let mut fn_depth: Option<i32> = None; // depth at which the current fn body opened
    let mut stmt_start = 0usize; // token index where the current statement began
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind.is_punct("{") {
            brace_depth += 1;
            // A fn body opens at the first `{` after a top-level `fn`.
            i += 1;
            stmt_start = i;
            continue;
        }
        if t.kind.is_punct("}") {
            brace_depth -= 1;
            // Dropping out of a block releases guards bound inside it.
            held.retain(|g| g.brace_depth <= brace_depth);
            if let Some(d) = fn_depth {
                if brace_depth < d {
                    fn_depth = None;
                    held.clear();
                }
            }
            i += 1;
            stmt_start = i;
            continue;
        }
        if t.kind.is_punct(";") {
            i += 1;
            stmt_start = i;
            continue;
        }
        if t.kind.is_ident("fn") {
            fn_depth = Some(brace_depth + 1);
            held.clear();
            i += 1;
            continue;
        }
        // drop(guard) releases.
        if t.kind.is_ident("drop")
            && toks
                .get(i + 1)
                .map(|x| x.kind.is_punct("("))
                .unwrap_or(false)
        {
            if let Some(var) = toks.get(i + 2).and_then(|x| x.kind.ident()) {
                held.retain(|g| g.var != var);
            }
        }
        // Method calls: `.name(`.
        if t.kind.is_punct(".") {
            if let Some(method) = toks.get(i + 1).and_then(|x| x.kind.ident()) {
                let has_args = toks
                    .get(i + 2)
                    .map(|x| x.kind.is_punct("("))
                    .unwrap_or(false);
                if has_args && LOCK_METHODS.contains(&method) {
                    let close = matching_paren(toks, i + 2);
                    if close == i + 3 {
                        // Zero-arg call: a genuine lock acquisition shape.
                        if let Some((start, receiver)) = receiver_span(toks, i) {
                            let lock = canonical_lock(&receiver, &ctx.rel_path);
                            let line = t.line;
                            for g in &held {
                                if g.lock != lock {
                                    graph.add_edge(&g.lock, &lock, &ctx.rel_path, line);
                                }
                            }
                            if let Some(var) = guard_binding(toks, stmt_start, start, close) {
                                held.push(Guard {
                                    lock,
                                    var,
                                    brace_depth,
                                });
                            }
                        }
                    }
                }
                if has_args && PORT_METHODS.contains(&method) {
                    if let Some(receiver) = receiver_chain(toks, i) {
                        if receiver.contains("platform") && !held.is_empty() {
                            let line = t.line;
                            if !ctx.waivers.covers("R3", line) {
                                let held_names: Vec<&str> =
                                    held.iter().map(|g| g.lock.as_str()).collect();
                                findings.push(Finding::new(
                                    "R3",
                                    ctx.rel_path.clone(),
                                    line,
                                    format!(
                                        "lock `{}` held across Platform port call \
                                         `{receiver}.{method}()`",
                                        held_names.join("`, `")
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

/// The variable that holds the guard of a lock call spanning tokens
/// `start..=close`: `name` when the statement at `stmt_start` is
/// `let [mut] name[: T] = [&[mut]] <call>;`, the call being the whole
/// initializer. `None` for any other shape, whose guard is a temporary.
fn guard_binding(toks: &[Token], stmt_start: usize, start: usize, close: usize) -> Option<String> {
    let mut i = stmt_start;
    if !toks.get(i)?.kind.is_ident("let") {
        return None;
    }
    i += 1;
    if toks.get(i)?.kind.is_ident("mut") {
        i += 1;
    }
    let name = toks.get(i)?.kind.ident()?.to_owned();
    if name == "_" || !toks.get(close + 1)?.kind.is_punct(";") {
        return None;
    }
    let mut init = i + toks[i..start].iter().position(|t| t.kind.is_punct("="))? + 1;
    if toks[init].kind.is_punct("&") {
        init += 1;
        if toks[init].kind.is_ident("mut") {
            init += 1;
        }
    }
    (init == start).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};
    use crate::workspace::{CrateRole, LayerTag, Waivers, WorkspaceCrate};

    fn ctx_for<'a>(
        krate: &'a WorkspaceCrate,
        tokens: &'a [Token],
        waivers: &'a Waivers,
        rel: &str,
    ) -> FileContext<'a> {
        FileContext {
            krate,
            rel_path: rel.to_owned(),
            tokens,
            waivers,
        }
    }

    fn run(src: &str, rel: &str, graph: &mut LockGraph) -> Vec<Finding> {
        let krate = WorkspaceCrate {
            dir_name: "core".into(),
            import_name: "mocca".into(),
            role: CrateRole::Layer(LayerTag::Env),
            files: vec![],
        };
        let toks = strip_test_code(lex(src));
        let waivers = Waivers::default();
        let mut findings = Vec::new();
        check_locks(&ctx_for(&krate, &toks, &waivers, rel), graph, &mut findings);
        findings
    }

    #[test]
    fn temporary_guards_do_not_hold() {
        let mut g = LockGraph::new();
        let f = run(
            "fn a(&self) { self.org.read().require(x)?; self.platform.trader().import(&r)?; }",
            "a.rs",
            &mut g,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn let_bound_guard_across_port_call_is_flagged() {
        let mut g = LockGraph::new();
        let f = run(
            "fn a(&self) { let org = self.org.read(); self.platform.trader().import(&r)?; }",
            "a.rs",
            &mut g,
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("org-model"));
    }

    #[test]
    fn a_guard_inside_an_initializer_is_a_temporary() {
        let mut g = LockGraph::new();
        let f = run(
            "fn a(&mut self) { let p = self.knowledge.publish(&self.org.read())?; \
             self.platform.directory().apply(op)?; }",
            "a.rs",
            &mut g,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn a_borrowed_guard_is_held() {
        let mut g = LockGraph::new();
        let f = run(
            "fn a(&self) { let org = &self.org.read(); \
             self.platform.directory().apply(op)?; }",
            "a.rs",
            &mut g,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("org-model"));
    }

    #[test]
    fn dropping_the_guard_releases_it() {
        let mut g = LockGraph::new();
        let f = run(
            "fn a(&self) { let org = self.org.read(); drop(org); \
             self.platform.trader().import(&r)?; }",
            "a.rs",
            &mut g,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn block_scoped_guards_release_at_block_end() {
        let mut g = LockGraph::new();
        let f = run(
            "fn a(&self) { { let org = self.org.read(); use_it(&org); } \
             self.platform.transport().notify(a, b, c, d)?; }",
            "a.rs",
            &mut g,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn inversions_are_detected_across_files() {
        let mut g = LockGraph::new();
        run(
            "fn a(&self) { let x = self.alpha.lock(); let y = self.beta.lock(); }",
            "one.rs",
            &mut g,
        );
        run(
            "fn b(&self) { let y = self.beta.lock(); let x = self.alpha.lock(); }",
            "one.rs",
            &mut g,
        );
        let inv = g.inversion_findings();
        assert_eq!(inv.len(), 2, "{inv:?}");
        assert!(inv[0].message.contains("inversion"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let mut g = LockGraph::new();
        run(
            "fn a(&self) { let x = self.alpha.lock(); let y = self.beta.lock(); }",
            "one.rs",
            &mut g,
        );
        run(
            "fn b(&self) { let x = self.alpha.lock(); let y = self.beta.lock(); }",
            "two.rs",
            &mut g,
        );
        assert!(g.inversion_findings().is_empty());
    }

    #[test]
    fn org_and_model_alias_to_one_lock() {
        let mut g = LockGraph::new();
        run(
            "fn a(&self) { let x = self.org.read(); let y = self.gamma.lock(); }",
            "env.rs",
            &mut g,
        );
        run(
            "fn b(&self) { let y = self.gamma.lock(); let x = self.model.read(); }",
            "pol.rs",
            &mut g,
        );
        assert_eq!(g.inversion_findings().len(), 2);
    }
}
