//! Search filters.
//!
//! Filters follow the X.500 assertion model, written in the familiar
//! parenthesised prefix syntax: `(&(objectClass=person)(ou=Computing))`,
//! `(|(cn=Tom*)(cn=*Rodden))`, `(!(status=closed))`,
//! `(capabilityLevel>=3)`, `(telephoneNumber=*)`.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::attribute::{AttributeType, AttributeValue};
use crate::entry::Entry;
use crate::error::DirectoryError;

/// A search filter, evaluated against one entry at a time.
///
/// # Examples
///
/// ```
/// use cscw_directory::{Attribute, Entry, Filter};
///
/// let entry = Entry::new("cn=Tom Rodden".parse()?)
///     .with_class("person")
///     .with_attr(Attribute::single("cn", "Tom Rodden"));
/// let filter: Filter = "(&(objectClass=person)(cn=Tom*))".parse()?;
/// assert!(filter.matches(&entry));
/// # Ok::<(), cscw_directory::DirectoryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Filter {
    /// Matches every entry.
    True,
    /// The attribute is present with at least one value.
    Present(AttributeType),
    /// Some value of the attribute equals the given value exactly.
    Equals(AttributeType, AttributeValue),
    /// Some textual value matches the substring pattern.
    Substring(AttributeType, SubstringPattern),
    /// Some value is `>=` the given value (same-kind comparison).
    GreaterOrEqual(AttributeType, AttributeValue),
    /// Some value is `<=` the given value (same-kind comparison).
    LessOrEqual(AttributeType, AttributeValue),
    /// All sub-filters match.
    And(Vec<Filter>),
    /// At least one sub-filter matches.
    Or(Vec<Filter>),
    /// The sub-filter does not match.
    Not(Box<Filter>),
}

/// A parsed `initial*any*…*final` substring pattern.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubstringPattern {
    initial: Option<String>,
    any: Vec<String>,
    final_: Option<String>,
}

impl SubstringPattern {
    /// Parses a pattern containing at least one `*`.
    ///
    /// # Errors
    ///
    /// Returns [`DirectoryError::InvalidFilter`] when the pattern has no
    /// `*` (that would be an equality assertion).
    pub fn parse(pattern: &str) -> Result<Self, DirectoryError> {
        if !pattern.contains('*') {
            return Err(DirectoryError::InvalidFilter(format!(
                "substring pattern {pattern:?} has no wildcard"
            )));
        }
        let parts: Vec<&str> = pattern.split('*').collect();
        let n = parts.len();
        let initial = (!parts[0].is_empty()).then(|| parts[0].to_owned());
        let final_ = (!parts[n - 1].is_empty()).then(|| parts[n - 1].to_owned());
        let any = parts[1..n - 1]
            .iter()
            .filter(|p| !p.is_empty())
            .map(|&p| p.to_owned())
            .collect();
        Ok(SubstringPattern {
            initial,
            any,
            final_,
        })
    }

    /// True when `text` matches the pattern.
    pub fn matches(&self, text: &str) -> bool {
        let mut rest = text;
        if let Some(initial) = &self.initial {
            match rest.strip_prefix(initial.as_str()) {
                Some(r) => rest = r,
                None => return false,
            }
        }
        if let Some(final_) = &self.final_ {
            match rest.strip_suffix(final_.as_str()) {
                Some(r) => rest = r,
                None => return false,
            }
        }
        for any in &self.any {
            match rest.find(any.as_str()) {
                Some(pos) => rest = &rest[pos + any.len()..],
                None => return false,
            }
        }
        true
    }
}

impl fmt::Display for SubstringPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(i) = &self.initial {
            f.write_str(i)?;
        }
        f.write_str("*")?;
        for a in &self.any {
            f.write_str(a)?;
            f.write_str("*")?;
        }
        if let Some(fin) = &self.final_ {
            f.write_str(fin)?;
        }
        Ok(())
    }
}

impl Filter {
    /// Convenience equality filter.
    pub fn eq(ty: impl Into<AttributeType>, value: impl Into<AttributeValue>) -> Filter {
        Filter::Equals(ty.into(), value.into())
    }

    /// Convenience presence filter.
    pub fn present(ty: impl Into<AttributeType>) -> Filter {
        Filter::Present(ty.into())
    }

    /// Convenience conjunction.
    pub fn and(filters: impl IntoIterator<Item = Filter>) -> Filter {
        Filter::And(filters.into_iter().collect())
    }

    /// Convenience disjunction.
    pub fn or(filters: impl IntoIterator<Item = Filter>) -> Filter {
        Filter::Or(filters.into_iter().collect())
    }

    /// Convenience negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(filter: Filter) -> Filter {
        Filter::Not(Box::new(filter))
    }

    /// Evaluates the filter against an entry.
    pub fn matches(&self, entry: &Entry) -> bool {
        match self {
            Filter::True => true,
            Filter::Present(ty) => entry.attr(ty).is_some(),
            Filter::Equals(ty, value) => entry.attr(ty).map(|a| a.contains(value)).unwrap_or(false),
            Filter::Substring(ty, pattern) => entry
                .attr(ty)
                .map(|a| {
                    a.values()
                        .iter()
                        .filter_map(|v| v.as_text())
                        .any(|text| pattern.matches(text))
                })
                .unwrap_or(false),
            Filter::GreaterOrEqual(ty, value) => entry
                .attr(ty)
                .map(|a| {
                    a.values().iter().any(|v| {
                        v.partial_cmp_same_kind(value)
                            .map(|o| o != std::cmp::Ordering::Less)
                            .unwrap_or(false)
                    })
                })
                .unwrap_or(false),
            Filter::LessOrEqual(ty, value) => entry
                .attr(ty)
                .map(|a| {
                    a.values().iter().any(|v| {
                        v.partial_cmp_same_kind(value)
                            .map(|o| o != std::cmp::Ordering::Greater)
                            .unwrap_or(false)
                    })
                })
                .unwrap_or(false),
            Filter::And(fs) => fs.iter().all(|f| f.matches(entry)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(entry)),
            Filter::Not(f) => !f.matches(entry),
        }
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::True => f.write_str("(objectclass=*)"),
            Filter::Present(ty) => write!(f, "({ty}=*)"),
            Filter::Equals(ty, v) => write!(f, "({ty}={v})"),
            Filter::Substring(ty, p) => write!(f, "({ty}={p})"),
            Filter::GreaterOrEqual(ty, v) => write!(f, "({ty}>={v})"),
            Filter::LessOrEqual(ty, v) => write!(f, "({ty}<={v})"),
            Filter::And(fs) => {
                f.write_str("(&")?;
                for sub in fs {
                    write!(f, "{sub}")?;
                }
                f.write_str(")")
            }
            Filter::Or(fs) => {
                f.write_str("(|")?;
                for sub in fs {
                    write!(f, "{sub}")?;
                }
                f.write_str(")")
            }
            Filter::Not(sub) => write!(f, "(!{sub})"),
        }
    }
}

impl FromStr for Filter {
    type Err = DirectoryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parser = Parser {
            input: s.trim(),
            pos: 0,
        };
        let filter = parser.parse_filter()?;
        parser.skip_ws();
        if parser.pos != parser.input.len() {
            return Err(DirectoryError::InvalidFilter(format!(
                "trailing input after filter: {:?}",
                &parser.input[parser.pos..]
            )));
        }
        Ok(filter)
    }
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.peek().map(|c| c.is_whitespace()).unwrap_or(false) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn expect(&mut self, c: char) -> Result<(), DirectoryError> {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            Err(DirectoryError::InvalidFilter(format!(
                "expected {c:?} at byte {} of {:?}",
                self.pos, self.input
            )))
        }
    }

    fn parse_filter(&mut self) -> Result<Filter, DirectoryError> {
        self.skip_ws();
        self.expect('(')?;
        let filter = match self.peek() {
            Some('&') => {
                self.pos += 1;
                Filter::And(self.parse_list()?)
            }
            Some('|') => {
                self.pos += 1;
                Filter::Or(self.parse_list()?)
            }
            Some('!') => {
                self.pos += 1;
                Filter::Not(Box::new(self.parse_filter()?))
            }
            _ => self.parse_simple()?,
        };
        self.skip_ws();
        self.expect(')')?;
        Ok(filter)
    }

    fn parse_list(&mut self) -> Result<Vec<Filter>, DirectoryError> {
        let mut filters = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(')') {
                break;
            }
            filters.push(self.parse_filter()?);
        }
        if filters.is_empty() {
            return Err(DirectoryError::InvalidFilter("empty filter list".into()));
        }
        Ok(filters)
    }

    fn parse_simple(&mut self) -> Result<Filter, DirectoryError> {
        let rest = &self.input[self.pos..];
        let close = rest.find(')').ok_or_else(|| {
            DirectoryError::InvalidFilter(format!("unterminated assertion in {:?}", self.input))
        })?;
        let body = &rest[..close];
        self.pos += close;

        let (attr, op, value) = if let Some(i) = body.find(">=") {
            (&body[..i], Op::Ge, &body[i + 2..])
        } else if let Some(i) = body.find("<=") {
            (&body[..i], Op::Le, &body[i + 2..])
        } else if let Some(i) = body.find('=') {
            (&body[..i], Op::Eq, &body[i + 1..])
        } else {
            return Err(DirectoryError::InvalidFilter(format!(
                "no operator in {body:?}"
            )));
        };
        let attr = attr.trim();
        if attr.is_empty() {
            return Err(DirectoryError::InvalidFilter(format!(
                "empty attribute in {body:?}"
            )));
        }
        let ty = AttributeType::new(attr);
        let value = value.trim();
        Ok(match op {
            Op::Eq if value == "*" => Filter::Present(ty),
            Op::Eq if value.contains('*') => Filter::Substring(ty, SubstringPattern::parse(value)?),
            Op::Eq => Filter::Equals(ty, parse_value(value)),
            Op::Ge => Filter::GreaterOrEqual(ty, parse_value(value)),
            Op::Le => Filter::LessOrEqual(ty, parse_value(value)),
        })
    }
}

enum Op {
    Eq,
    Ge,
    Le,
}

/// Values that parse as integers become [`AttributeValue::Int`]; anything
/// else is text.
fn parse_value(s: &str) -> AttributeValue {
    match s.parse::<i64>() {
        Ok(i) => AttributeValue::Int(i),
        Err(_) => AttributeValue::Text(s.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;

    fn entry() -> Entry {
        Entry::new("c=UK,o=Lancaster,cn=Tom Rodden".parse().unwrap())
            .with_class("person")
            .with_attr(Attribute::single("cn", "Tom Rodden"))
            .with_attr(Attribute::single("ou", "Computing"))
            .with_attr(Attribute::single("capabilitylevel", 4i64))
    }

    #[test]
    fn equality_and_presence() {
        let e = entry();
        assert!(Filter::eq("cn", "Tom Rodden").matches(&e));
        assert!(
            !Filter::eq("cn", "tom rodden").matches(&e),
            "values case-sensitive"
        );
        assert!(Filter::present("ou").matches(&e));
        assert!(!Filter::present("telephone").matches(&e));
    }

    #[test]
    fn substring_patterns() {
        let p = SubstringPattern::parse("Tom*").unwrap();
        assert!(p.matches("Tom Rodden"));
        assert!(!p.matches("tom Rodden"));
        let p = SubstringPattern::parse("*Rodden").unwrap();
        assert!(p.matches("Tom Rodden"));
        let p = SubstringPattern::parse("T*Rod*n").unwrap();
        assert!(p.matches("Tom Rodden"));
        assert!(!p.matches("Tom Rodde"));
        let p = SubstringPattern::parse("*om*od*").unwrap();
        assert!(p.matches("Tom Rodden"));
        assert!(SubstringPattern::parse("noglob").is_err());
    }

    #[test]
    fn substring_ordering_of_any_parts_matters() {
        let p = SubstringPattern::parse("*b*a*").unwrap();
        assert!(p.matches("xbxax"));
        assert!(!p.matches("xaxbx"), "`any` parts must match in order");
    }

    #[test]
    fn comparisons_are_same_kind_only() {
        let e = entry();
        assert!(Filter::GreaterOrEqual("capabilitylevel".into(), 3i64.into()).matches(&e));
        assert!(Filter::GreaterOrEqual("capabilitylevel".into(), 4i64.into()).matches(&e));
        assert!(!Filter::GreaterOrEqual("capabilitylevel".into(), 5i64.into()).matches(&e));
        assert!(Filter::LessOrEqual("capabilitylevel".into(), 4i64.into()).matches(&e));
        // Int attribute never compares against text.
        assert!(!Filter::GreaterOrEqual("capabilitylevel".into(), "3".into()).matches(&e));
        // Text comparison is lexicographic.
        assert!(Filter::GreaterOrEqual("ou".into(), "Computing".into()).matches(&e));
    }

    #[test]
    fn boolean_combinators() {
        let e = entry();
        let f = Filter::and([Filter::eq("objectclass", "person"), Filter::present("ou")]);
        assert!(f.matches(&e));
        let f = Filter::or([Filter::eq("cn", "nobody"), Filter::eq("ou", "Computing")]);
        assert!(f.matches(&e));
        assert!(Filter::not(Filter::eq("cn", "nobody")).matches(&e));
        assert!(Filter::True.matches(&e));
    }

    #[test]
    fn parser_round_trips() {
        for s in [
            "(cn=Tom Rodden)",
            "(cn=Tom*)",
            "(cn=*)",
            "(capabilitylevel>=3)",
            "(capabilitylevel<=3)",
            "(&(objectclass=person)(ou=Computing))",
            "(|(cn=Tom*)(cn=*Rodden))",
            "(!(cn=nobody))",
            "(&(a=1)(|(b=2)(!(c=3))))",
        ] {
            let f: Filter = s.parse().unwrap();
            let printed = f.to_string();
            let reparsed: Filter = printed.parse().unwrap();
            assert_eq!(f, reparsed, "round trip failed for {s}");
        }
    }

    #[test]
    fn parser_matches_semantics() {
        let e = entry();
        let f: Filter = "(&(objectClass=person)(cn=Tom*)(capabilityLevel>=4))"
            .parse()
            .unwrap();
        assert!(f.matches(&e));
        let f: Filter = "(!(ou=Computing))".parse().unwrap();
        assert!(!f.matches(&e));
    }

    #[test]
    fn parser_rejects_garbage() {
        for s in [
            "",
            "(",
            "()",
            "(cn)",
            "(cn=Tom",
            "(&)",
            "(cn=a)(cn=b)",
            "(=v)",
        ] {
            assert!(s.parse::<Filter>().is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn numeric_looking_values_parse_as_int() {
        let f: Filter = "(capabilitylevel=4)".parse().unwrap();
        assert_eq!(
            f,
            Filter::Equals("capabilitylevel".into(), AttributeValue::Int(4))
        );
        let f: Filter = "(cn=4a)".parse().unwrap();
        assert_eq!(
            f,
            Filter::Equals("cn".into(), AttributeValue::Text("4a".into()))
        );
    }
}
