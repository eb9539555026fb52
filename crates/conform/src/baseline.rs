//! The committed violation baseline — a ratchet, not an allowlist.
//!
//! `conform-baseline.toml` records, per `(rule, file)`, how many
//! findings existed when the baseline was last written. A check fails
//! when any `(rule, file)` count *exceeds* its baselined count (new
//! debt), and reports stale entries when a count has dropped (debt paid
//! off — regenerate the baseline to lock the gain in; `--deny` makes
//! staleness a failure too, so CI keeps the ratchet tight).
//!
//! The format is a hand-parsed TOML subset (array-of-tables with three
//! scalar keys): the workspace is std-only, and the analyzer depends on
//! nothing it checks.

use std::collections::BTreeMap;

use crate::diag::Finding;

/// Parsed baseline: `(rule, file) -> count`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<(String, String), u32>,
}

/// The outcome of comparing findings against a baseline.
#[derive(Debug, Clone, Default)]
pub struct RatchetReport {
    /// Findings in excess of the baseline, per `(rule, file)`: the
    /// offending findings themselves (all of that bucket, for context).
    pub regressions: Vec<(String, String, u32, u32, Vec<Finding>)>,
    /// Buckets whose observed count is below the baseline:
    /// `(rule, file, baseline, observed)`.
    pub stale: Vec<(String, String, u32, u32)>,
}

impl RatchetReport {
    /// True when nothing exceeds the baseline.
    pub fn is_pass(&self) -> bool {
        self.regressions.is_empty()
    }
}

impl Baseline {
    /// An empty baseline (everything is a regression).
    pub fn empty() -> Self {
        Baseline::default()
    }

    /// Number of `(rule, file)` buckets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total baselined finding count.
    pub fn total(&self) -> u32 {
        self.entries.values().sum()
    }

    /// Total baselined finding count for one rule across all files.
    pub fn total_for_rule(&self, rule: &str) -> u32 {
        self.entries
            .iter()
            .filter(|((r, _), _)| r == rule)
            .map(|(_, &c)| c)
            .sum()
    }

    /// The baselined count for a bucket.
    pub fn count(&self, rule: &str, file: &str) -> u32 {
        self.entries
            .get(&(rule.to_owned(), file.to_owned()))
            .copied()
            .unwrap_or(0)
    }

    /// Parses the baseline file format.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        let mut current: Option<(Option<String>, Option<String>, Option<u32>)> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[entry]]" {
                if let Some(done) = current.take() {
                    Self::finish(done, &mut entries, idx)?;
                }
                current = Some((None, None, None));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("baseline line {}: expected key = value", idx + 1));
            };
            let Some(cur) = current.as_mut() else {
                return Err(format!(
                    "baseline line {}: key outside any [[entry]]",
                    idx + 1
                ));
            };
            let key = key.trim();
            let value = value.trim();
            match key {
                "rule" => cur.0 = Some(unquote(value, idx)?),
                "file" => cur.1 = Some(unquote(value, idx)?),
                "count" => {
                    cur.2 = Some(value.parse::<u32>().map_err(|_| {
                        format!("baseline line {}: count must be an integer", idx + 1)
                    })?)
                }
                other => {
                    return Err(format!("baseline line {}: unknown key {other:?}", idx + 1));
                }
            }
        }
        if let Some(done) = current.take() {
            Self::finish(done, &mut entries, text.lines().count())?;
        }
        Ok(Baseline { entries })
    }

    fn finish(
        entry: (Option<String>, Option<String>, Option<u32>),
        entries: &mut BTreeMap<(String, String), u32>,
        near_line: usize,
    ) -> Result<(), String> {
        match entry {
            (Some(rule), Some(file), Some(count)) => {
                entries.insert((rule, file), count);
                Ok(())
            }
            _ => Err(format!(
                "baseline entry ending near line {near_line} is missing rule, file or count"
            )),
        }
    }

    /// Builds a baseline that exactly covers `findings`.
    pub fn from_findings(findings: &[Finding]) -> Self {
        let mut entries: BTreeMap<(String, String), u32> = BTreeMap::new();
        for f in findings {
            *entries
                .entry((f.rule.to_owned(), f.file.clone()))
                .or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Serialises to the baseline file format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# cscw-conform violation baseline — a ratchet: counts may only go down.\n\
             # Regenerate with `cargo run -p cscw-conform -- check --write-baseline`\n\
             # after paying down debt; never hand-edit counts upward.\n",
        );
        for ((rule, file), count) in &self.entries {
            out.push_str(&format!(
                "\n[[entry]]\nrule = \"{rule}\"\nfile = \"{file}\"\ncount = {count}\n"
            ));
        }
        out
    }

    /// Compares observed findings against this baseline.
    pub fn ratchet(&self, findings: &[Finding]) -> RatchetReport {
        let mut observed: BTreeMap<(String, String), Vec<Finding>> = BTreeMap::new();
        for f in findings {
            observed
                .entry((f.rule.to_owned(), f.file.clone()))
                .or_default()
                .push(f.clone());
        }
        let mut report = RatchetReport::default();
        for ((rule, file), bucket) in &observed {
            let allowed = self.count(rule, file);
            let got = bucket.len() as u32;
            if got > allowed {
                report
                    .regressions
                    .push((rule.clone(), file.clone(), allowed, got, bucket.clone()));
            } else if got < allowed {
                report
                    .stale
                    .push((rule.clone(), file.clone(), allowed, got));
            }
        }
        for ((rule, file), &allowed) in &self.entries {
            if !observed.contains_key(&(rule.clone(), file.clone())) {
                report.stale.push((rule.clone(), file.clone(), allowed, 0));
            }
        }
        report
    }
}

fn unquote(value: &str, idx: usize) -> Result<String, String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_owned())
    } else {
        Err(format!(
            "baseline line {}: expected a quoted string, got {v:?}",
            idx + 1
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding::new(rule, file, line, "m")
    }

    #[test]
    fn round_trips() {
        let fs = vec![
            finding("R1", "a.rs", 1),
            finding("R1", "a.rs", 2),
            finding("R2", "b.rs", 3),
        ];
        let b = Baseline::from_findings(&fs);
        let parsed = Baseline::parse(&b.render()).unwrap();
        assert_eq!(b, parsed);
        assert_eq!(parsed.count("R1", "a.rs"), 2);
        assert_eq!(parsed.total(), 3);
        assert_eq!(parsed.total_for_rule("R1"), 2);
        assert_eq!(parsed.total_for_rule("R3"), 0);
    }

    #[test]
    fn ratchet_catches_regressions_and_staleness() {
        let base = Baseline::from_findings(&[finding("R1", "a.rs", 1), finding("R2", "b.rs", 1)]);
        // One more R1 in a.rs, R2 in b.rs paid off, new file c.rs dirty.
        let now = vec![
            finding("R1", "a.rs", 1),
            finding("R1", "a.rs", 9),
            finding("R1", "c.rs", 2),
        ];
        let rep = base.ratchet(&now);
        assert!(!rep.is_pass());
        assert_eq!(rep.regressions.len(), 2);
        assert_eq!(rep.stale.len(), 1);
        assert_eq!(rep.stale[0].1, "b.rs");
    }

    #[test]
    fn exact_match_passes() {
        let fs = vec![finding("R1", "a.rs", 5)];
        let rep = Baseline::from_findings(&fs).ratchet(&fs);
        assert!(rep.is_pass());
        assert!(rep.stale.is_empty());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Baseline::parse("rule = \"R1\"").is_err());
        assert!(Baseline::parse("[[entry]]\nrule = R1\n").is_err());
        assert!(Baseline::parse("[[entry]]\nrule = \"R1\"\nfile = \"a\"\n").is_err());
        assert!(Baseline::parse("[[entry]]\nrule = \"R1\"\nfile = \"a\"\ncount = x\n").is_err());
        assert!(Baseline::parse("# empty\n").unwrap().is_empty());
    }
}
