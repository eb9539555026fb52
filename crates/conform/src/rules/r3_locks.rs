//! R3 — a single-threaded stack holds no locks.
//!
//! The Figure-4 stack runs as one single-threaded discrete-event
//! simulation: no crate starts a thread, and state that several owners
//! share (the telemetry stream, the federation fabric, the
//! organisational model) sits in an `Rc<RefCell<_>>`. Two shapes are
//! findings:
//!
//! * **Lock types** — any `Mutex`, `RwLock` or `parking_lot` in
//!   shipping code. On one thread a lock models nothing and costs an
//!   atomic on every call; a conflicting `RefCell` borrow panics on the
//!   first run that reaches it instead of deadlocking.
//! * **Borrows held across `Platform` ports** — a port call
//!   (`platform.trader()`, `.directory()`, `.transport()`, `.clock()`,
//!   `.telemetry()`) made while a guard from `borrow()`,
//!   `borrow_mut()`, `read()` or `write()` (or an unwrapped
//!   `try_borrow()`/`try_borrow_mut()`) is live: on a distributed
//!   platform a port call is network I/O, and the trader's policy hook
//!   re-borrows the organisational model (`OrgTradingPolicy::allows`),
//!   so a write guard held across the call panics.
//!
//! Guard liveness is syntactic: `let g = x.read();` and
//! `let g = &x.read();` (a borrow extends the temporary's life) hold to
//! the end of the block (or an explicit `drop(g)`). Any other guard
//! call is a statement-scoped temporary that releases at the `;`: a
//! chained `x.read().method()`, and a guard inside a larger
//! initializer, as in `let p = publish(&x.read())?;`.

use super::{matching_paren, receiver_chain, receiver_span, FileContext};
use crate::diag::Finding;
use crate::lexer::Token;

const LOCK_NAMES: [&str; 3] = ["Mutex", "RwLock", "parking_lot"];
const GUARD_METHODS: [&str; 6] = [
    "borrow",
    "borrow_mut",
    "try_borrow",
    "try_borrow_mut",
    "read",
    "write",
];
const PORT_METHODS: [&str; 5] = ["trader", "directory", "transport", "clock", "telemetry"];

/// A live, let-bound guard.
#[derive(Debug, Clone)]
struct Guard {
    receiver: String,
    var: String,
    brace_depth: i32,
}

/// Checks one file: lock types, and guards held across port calls.
pub fn check_locks(ctx: &FileContext<'_>, findings: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    let mut flag = |line: u32, message: String| {
        if !ctx.waivers.covers("R3", line) {
            findings.push(Finding::new("R3", ctx.rel_path.clone(), line, message));
        }
    };
    let mut held: Vec<Guard> = Vec::new();
    let mut brace_depth = 0i32;
    let mut fn_depth: Option<i32> = None; // depth at which the current fn body opened
    let mut stmt_start = 0usize; // token index where the current statement began
    let mut banned_line = 0u32; // one lock-type finding per line
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind.is_punct("{") {
            brace_depth += 1;
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
        if let Some(name) = t.kind.ident().filter(|id| LOCK_NAMES.contains(id)) {
            if t.line != banned_line {
                banned_line = t.line;
                flag(
                    t.line,
                    format!(
                        "lock type `{name}` in a single-threaded stack: \
                         share through `Rc<RefCell<_>>` instead"
                    ),
                );
            }
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
                if has_args && GUARD_METHODS.contains(&method) {
                    let close = matching_paren(toks, i + 2);
                    // Only a zero-argument call is a guard shape.
                    if close == i + 3 {
                        if let Some((start, receiver)) = receiver_span(toks, i) {
                            if let Some(var) = guard_binding(toks, stmt_start, start, close) {
                                held.push(Guard {
                                    receiver,
                                    var,
                                    brace_depth,
                                });
                            }
                        }
                    }
                }
                if has_args && PORT_METHODS.contains(&method) && !held.is_empty() {
                    if let Some(receiver) = receiver_chain(toks, i) {
                        if receiver.contains("platform") {
                            let held: Vec<&str> =
                                held.iter().map(|g| g.receiver.as_str()).collect();
                            flag(
                                t.line,
                                format!(
                                    "guard of `{}` held across Platform port call \
                                     `{receiver}.{method}()`",
                                    held.join("`, `")
                                ),
                            );
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

/// The variable that holds the guard of a call spanning tokens
/// `start..=close`: `name` when the statement at `stmt_start` is
/// `let [mut] name[: T] = [&[mut]] <call>[.unwrap() | .expect(..)]*;`,
/// the call being the whole initializer — unwrapping a `try_borrow`
/// result still binds its guard. `None` for any other shape, whose
/// guard is a temporary.
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
    let mut end = close;
    while toks.get(end + 1)?.kind.is_punct(".") {
        let method = toks.get(end + 2)?.kind.ident()?;
        if !matches!(method, "unwrap" | "expect") || !toks.get(end + 3)?.kind.is_punct("(") {
            return None;
        }
        end = matching_paren(toks, end + 3);
    }
    if name == "_" || !toks.get(end + 1)?.kind.is_punct(";") {
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

    fn run(src: &str) -> Vec<Finding> {
        let krate = WorkspaceCrate {
            dir_name: "core".into(),
            import_name: "mocca".into(),
            role: CrateRole::Layer(LayerTag::Env),
            files: vec![],
        };
        let toks = strip_test_code(lex(src));
        let waivers = Waivers::default();
        let ctx = FileContext {
            krate: &krate,
            rel_path: "a.rs".to_owned(),
            tokens: &toks,
            waivers: &waivers,
        };
        let mut findings = Vec::new();
        check_locks(&ctx, &mut findings);
        findings
    }

    #[test]
    fn lock_types_are_flagged_once_per_line() {
        let f = run("use std::sync::{Arc, Mutex};\n\
             struct S { a: parking_lot::RwLock<u8>, b: Arc<std::sync::Mutex<u8>> }\n\
             struct T { c: std::cell::RefCell<u8>, d: std::sync::atomic::AtomicU64 }");
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!((f[0].line, f[1].line), (1, 2));
        assert!(f[0].message.contains("`Mutex`"), "{f:?}");
        assert!(f[1].message.contains("`parking_lot`"), "{f:?}");
    }

    #[test]
    fn temporary_guards_do_not_hold() {
        let f =
            run("fn a(&self) { self.org.read().require(x)?; self.platform.trader().import(&r)?; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn let_bound_guard_across_port_call_is_flagged() {
        for bind in [
            "let org = self.org.read();",
            "let mut org = self.org.write();",
            "let inner = self.inner.borrow();",
            "let mut inner = self.inner.borrow_mut();",
        ] {
            let f = run(&format!(
                "fn a(&self) {{ {bind} self.platform.trader().import(&r)?; }}"
            ));
            assert_eq!(f.len(), 1, "{bind}: {f:?}");
            assert!(f[0].message.contains("held across Platform port call"));
        }
    }

    #[test]
    fn a_guard_inside_an_initializer_is_a_temporary() {
        let f = run(
            "fn a(&mut self) { let p = self.knowledge.publish(&self.org.read())?; \
             self.platform.directory().apply(op)?; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn a_borrowed_guard_is_held() {
        let f = run("fn a(&self) { let org = &self.org.read(); \
             self.platform.directory().apply(op)?; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`self.org`"));
    }

    #[test]
    fn an_unwrapped_guard_is_held() {
        for bind in [
            "let org = self.org.try_borrow().unwrap();",
            r#"let org = self.org.try_borrow_mut().expect("borrowed");"#,
        ] {
            let f = run(&format!(
                "fn a(&self) {{ {bind} self.platform.directory().apply(op)?; }}"
            ));
            assert_eq!(f.len(), 1, "{bind}: {f:?}");
            assert!(f[0].message.contains("`self.org`"), "{bind}");
        }
    }

    #[test]
    fn an_unwrapped_guard_used_in_place_is_a_temporary() {
        let f = run(
            "fn a(&self) { let n = self.org.try_borrow().unwrap().len(); \
             self.platform.directory().apply(op)?; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dropping_the_guard_releases_it() {
        let f = run("fn a(&self) { let org = self.org.read(); drop(org); \
             self.platform.trader().import(&r)?; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn block_scoped_guards_release_at_block_end() {
        let f = run(
            "fn a(&self) { { let org = self.org.read(); use_it(&org); } \
             self.platform.transport().notify(a, b, c, d)?; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
