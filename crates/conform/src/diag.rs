//! Findings and report rendering (human-readable and JSON).

use std::fmt;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id: `R1`…`R6`.
    pub rule: &'static str,
    /// Repo-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

impl Finding {
    /// Builds a finding.
    pub fn new(
        rule: &'static str,
        file: impl Into<String>,
        line: u32,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            rule,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Sorts findings into the stable report order: rule, file, line.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.message).cmp(&(b.rule, &b.file, b.line, &b.message))
    });
}

/// Escapes a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a JSON array (stable field order).
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            f.rule,
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_clickable() {
        let f = Finding::new("R1", "crates/x/src/lib.rs", 7, "bad import");
        assert_eq!(f.to_string(), "crates/x/src/lib.rs:7: [R1] bad import");
    }

    #[test]
    fn json_escapes_and_orders() {
        let fs = vec![Finding::new("R2", "a.rs", 1, "say \"no\"\n")];
        let json = findings_to_json(&fs);
        assert!(json.contains("\\\"no\\\"\\n"));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn sort_is_rule_then_file_then_line() {
        let mut fs = vec![
            Finding::new("R2", "b.rs", 1, "x"),
            Finding::new("R1", "z.rs", 9, "x"),
            Finding::new("R1", "a.rs", 3, "x"),
        ];
        sort_findings(&mut fs);
        assert_eq!(fs[0].rule, "R1");
        assert_eq!(fs[0].file, "a.rs");
        assert_eq!(fs[2].rule, "R2");
    }
}
