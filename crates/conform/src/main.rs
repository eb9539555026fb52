//! CLI for the conformance analyzer.
//!
//! ```text
//! cargo run -p cscw-conform -- check [--root PATH] [--format human|json|github]
//! ```
//!
//! The gate is zero findings: real debt is fixed, or waived at its site
//! with a reason (`conform: allow(Rn) — reason`).
//!
//! `--format github` renders findings as GitHub Actions workflow
//! commands (`::error file=…,line=…::…`) so a failing `conform` job
//! annotates the offending lines right in the PR diff.
//!
//! Exit codes: `0` no findings, `1` any finding, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use cscw_conform::diag::findings_to_json;
use cscw_conform::{analyze, Analysis};

const USAGE: &str = "\
usage: cscw-conform check [options]

options:
  --root PATH        workspace root to analyse (default: .)
  --format FMT       human | json | github (default: human)
  -h, --help         show this help
";

#[derive(Clone, Copy)]
enum Format {
    Human,
    Json,
    Github,
}

struct Options {
    root: PathBuf,
    format: Format,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        format: Format::Human,
    };
    let mut saw_check = false;
    let mut i = 0usize;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "check" if !saw_check => saw_check = true,
            "--root" | "--format" => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{arg} needs a value"))?;
                if arg == "--root" {
                    opts.root = PathBuf::from(value);
                } else {
                    opts.format = match value.as_str() {
                        "human" => Format::Human,
                        "json" => Format::Json,
                        "github" => Format::Github,
                        other => return Err(format!("unknown format {other:?}")),
                    };
                }
                i += 1;
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if !saw_check {
        return Err("expected the `check` subcommand".to_owned());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let analysis = match analyze(&opts.root) {
        Ok(analysis) => analysis,
        Err(e) => {
            eprintln!("error: analysing {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };
    let pass = analysis.findings.is_empty();
    print!(
        "{}",
        match opts.format {
            Format::Human => render_human(&analysis, pass),
            Format::Json => render_json(&analysis, pass),
            Format::Github => render_github(&analysis, pass),
        }
    );
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn verdict(pass: bool) -> &'static str {
    if pass {
        "PASS"
    } else {
        "FAIL"
    }
}

fn render_human(a: &Analysis, pass: bool) -> String {
    let mut out = format!(
        "cscw-conform: {} crates, {} files, {} findings\n",
        a.crates,
        a.files,
        a.findings.len()
    );
    for f in &a.findings {
        out.push_str(&format!("  {f}\n"));
    }
    out.push_str(&format!("\nconformance: {}\n", verdict(pass)));
    out
}

/// GitHub Actions workflow commands: one `::error` per finding
/// (annotating the PR diff at file+line), then a human tail line for
/// the job log.
fn render_github(a: &Analysis, pass: bool) -> String {
    let mut out = String::new();
    for f in &a.findings {
        out.push_str(&format!(
            "::error file={},line={},title=cscw-conform {}::{}\n",
            gh_property(&f.file),
            f.line,
            f.rule,
            gh_message(&f.message)
        ));
    }
    out.push_str(&format!(
        "cscw-conform: {} findings, conformance {}\n",
        a.findings.len(),
        verdict(pass)
    ));
    out
}

/// Escapes a workflow-command message (`%`, CR, LF).
fn gh_message(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a workflow-command property (message escapes plus `:`, `,`).
fn gh_property(s: &str) -> String {
    gh_message(s).replace(':', "%3A").replace(',', "%2C")
}

fn render_json(a: &Analysis, pass: bool) -> String {
    format!(
        "{{\"pass\":{pass},\"crates\":{},\"files\":{},\"findings\":{}}}\n",
        a.crates,
        a.files,
        findings_to_json(&a.findings)
    )
}
