//! The workspace model: which crates exist, which Figure-4 layer each
//! one occupies, and which `.rs` files belong to each crate's shipping
//! (non-test) code.
//!
//! The layer table is the analyzer's ground truth for the paper's
//! Figure 4: applications over the CSCW environment over the ODP
//! functions over the communication services over the network, with the
//! kernel substrate available to every layer.

use std::fs;
use std::path::{Path, PathBuf};

/// The architectural layer a crate occupies, bottom (0) upward.
/// Mirrors `cscw_kernel::Layer` but is independent of it: the analyzer
/// depends on nothing it checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LayerTag {
    /// The engineering substrate (clocks, rng, telemetry, errors).
    Kernel,
    /// The network substrate.
    Net,
    /// The X.400-style message transfer service.
    Messaging,
    /// The X.500-style directory service.
    Directory,
    /// The ODP engineering layer (trader, binder, transparencies).
    Odp,
    /// The inter-environment federation layer (trader interworking,
    /// anti-entropy replication) between the ODP functions and the
    /// environment.
    Federation,
    /// The standing-query layer (incremental subscriptions over the
    /// directory and replicated knowledge) between the federation and
    /// the environment.
    Query,
    /// The CSCW environment (MOCCA).
    Env,
    /// Groupware applications.
    App,
}

impl LayerTag {
    /// Height in the stack; `Messaging` and `Directory` are peers.
    pub fn rank(self) -> u8 {
        match self {
            LayerTag::Kernel => 0,
            LayerTag::Net => 1,
            LayerTag::Messaging | LayerTag::Directory => 2,
            LayerTag::Odp => 3,
            LayerTag::Federation => 4,
            LayerTag::Query => 5,
            LayerTag::Env => 6,
            LayerTag::App => 7,
        }
    }

    /// The `cscw_kernel::Layer` variant name a crate of this layer must
    /// use in telemetry tags, or `None` when any tag is fine (kernel).
    pub fn telemetry_variant(self) -> Option<&'static str> {
        match self {
            LayerTag::Kernel => None,
            LayerTag::Net => Some("Net"),
            LayerTag::Messaging => Some("Messaging"),
            LayerTag::Directory => Some("Directory"),
            LayerTag::Odp => Some("Odp"),
            LayerTag::Federation => Some("Federation"),
            LayerTag::Query => Some("Query"),
            LayerTag::Env => Some("Env"),
            LayerTag::App => Some("App"),
        }
    }
}

/// What kind of crate this is, for rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateRole {
    /// A Figure-4 layer crate: all rules apply.
    Layer(LayerTag),
    /// The top-level facade (`open-cscw`): assembles the whole stack, so
    /// the layering rule does not constrain it; panic discipline does.
    Facade,
    /// Dev tooling (benches, this analyzer): panic discipline only.
    Tool,
}

/// One crate of the workspace.
#[derive(Debug, Clone)]
pub struct WorkspaceCrate {
    /// Directory name under `crates/` (or `"."` for the root package).
    pub dir_name: String,
    /// The name other crates use in `use`/paths (underscored).
    pub import_name: String,
    /// Role in the stack.
    pub role: CrateRole,
    /// Absolute paths of the crate's `src/**/*.rs` files.
    pub files: Vec<PathBuf>,
}

impl WorkspaceCrate {
    /// The crate's layer, when it has one.
    pub fn layer(&self) -> Option<LayerTag> {
        match self.role {
            CrateRole::Layer(l) => Some(l),
            _ => None,
        }
    }
}

/// Maps a crate directory name to (import name, role). Unknown
/// directories under `crates/` are treated as tools, so a new crate
/// fails open on layering until added here — the table *is* the
/// checkable Figure-4 specification.
fn classify(dir_name: &str) -> (String, CrateRole) {
    let (import, role) = match dir_name {
        "kernel" => ("cscw_kernel", CrateRole::Layer(LayerTag::Kernel)),
        "simnet" => ("simnet", CrateRole::Layer(LayerTag::Net)),
        "messaging" => ("cscw_messaging", CrateRole::Layer(LayerTag::Messaging)),
        "directory" => ("cscw_directory", CrateRole::Layer(LayerTag::Directory)),
        "odp" => ("odp", CrateRole::Layer(LayerTag::Odp)),
        "federation" => ("cscw_federation", CrateRole::Layer(LayerTag::Federation)),
        "query" => ("cscw_query", CrateRole::Layer(LayerTag::Query)),
        "core" => ("mocca", CrateRole::Layer(LayerTag::Env)),
        "groupware" => ("groupware", CrateRole::Layer(LayerTag::App)),
        "bench" => ("cscw_bench", CrateRole::Tool),
        "conform" => ("cscw_conform", CrateRole::Tool),
        "." => ("open_cscw", CrateRole::Facade),
        other => return (other.replace('-', "_"), CrateRole::Tool),
    };
    (import.to_owned(), role)
}

/// Discovers the workspace under `root`: the root package's `src/` plus
/// every `crates/*/src/`. `tests/`, `benches/` and `examples/` trees
/// are excluded — the rules govern shipping code.
pub fn discover(root: &Path) -> std::io::Result<Vec<WorkspaceCrate>> {
    let mut crates = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        crates.push(make_crate(".", &root_src)?);
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let src = dir.join("src");
            if !src.is_dir() {
                continue;
            }
            let name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_owned();
            crates.push(make_crate(&name, &src)?);
        }
    }
    Ok(crates)
}

fn make_crate(dir_name: &str, src: &Path) -> std::io::Result<WorkspaceCrate> {
    let (import_name, role) = classify(dir_name);
    let mut files = Vec::new();
    collect_rs(src, &mut files)?;
    files.sort();
    Ok(WorkspaceCrate {
        dir_name: dir_name.to_owned(),
        import_name,
        role,
        files,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Waivers parsed from a file's comments.
///
/// Two pragma forms, both inside ordinary comments:
///
/// * `conform: allow(R2) — reason` — waives findings of those rules on
///   the same line or the line directly below the comment.
/// * `conform: allow-file(R4) — reason` — waives the whole file for the
///   listed rules.
#[derive(Debug, Default, Clone)]
pub struct Waivers {
    line_rules: Vec<(u32, String)>,
    file_rules: Vec<String>,
}

impl Waivers {
    /// Scans raw source text for waiver pragmas.
    pub fn parse(source: &str) -> Self {
        let mut w = Waivers::default();
        for (idx, line) in source.lines().enumerate() {
            let line_no = (idx + 1) as u32;
            let mut rest = line;
            while let Some(pos) = rest.find("conform: allow") {
                let tail = &rest[pos + "conform: allow".len()..];
                let (file_scope, tail) = match tail.strip_prefix("-file") {
                    Some(t) => (true, t),
                    None => (false, tail),
                };
                if let Some(open) = tail.find('(') {
                    if let Some(close) = tail[open..].find(')') {
                        for rule in tail[open + 1..open + close].split(',') {
                            let rule = rule.trim().to_owned();
                            if rule.is_empty() {
                                continue;
                            }
                            if file_scope {
                                w.file_rules.push(rule);
                            } else {
                                w.line_rules.push((line_no, rule));
                            }
                        }
                    }
                }
                rest = &rest[pos + "conform: allow".len()..];
            }
        }
        w
    }

    /// Is a finding of `rule` at `line` waived?
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.file_rules.iter().any(|r| r == rule)
            || self
                .line_rules
                .iter()
                .any(|(l, r)| r == rule && (*l == line || l + 1 == line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_ranks_follow_figure_4() {
        assert!(LayerTag::Kernel.rank() < LayerTag::Net.rank());
        assert!(LayerTag::Net.rank() < LayerTag::Messaging.rank());
        assert_eq!(LayerTag::Messaging.rank(), LayerTag::Directory.rank());
        assert!(LayerTag::Directory.rank() < LayerTag::Odp.rank());
        assert!(LayerTag::Odp.rank() < LayerTag::Federation.rank());
        assert!(LayerTag::Federation.rank() < LayerTag::Query.rank());
        assert!(LayerTag::Query.rank() < LayerTag::Env.rank());
        assert!(LayerTag::Env.rank() < LayerTag::App.rank());
    }

    #[test]
    fn waivers_cover_same_and_next_line() {
        let src = "fn a() {} // conform: allow(R2) — invariant\nflagged_line();\nother();\n";
        let w = Waivers::parse(src);
        assert!(w.covers("R2", 1));
        assert!(w.covers("R2", 2));
        assert!(!w.covers("R2", 3));
        assert!(!w.covers("R1", 1));
    }

    #[test]
    fn file_waivers_cover_everything() {
        let w = Waivers::parse("//! conform: allow-file(R1,R4) — designated adapter\n");
        assert!(w.covers("R1", 99));
        assert!(w.covers("R4", 1));
        assert!(!w.covers("R2", 1));
    }
}
