//! Per-environment vector clocks — the partial order under which
//! replicated knowledge versions are compared (time transparency across
//! environments: causality, not wall clocks).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::error::FederationError;
use crate::replica::{escape_into, unescape};

/// A vector clock over federation domains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    counts: BTreeMap<String, u64>,
}

/// How two clocks relate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockOrder {
    /// Identical.
    Equal,
    /// Self happened-before other.
    Before,
    /// Other happened-before self.
    After,
    /// Neither dominates — a genuine conflict.
    Concurrent,
}

impl VectorClock {
    /// The zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// The component for one domain.
    pub fn get(&self, domain: &str) -> u64 {
        self.counts.get(domain).copied().unwrap_or(0)
    }

    /// Advances one domain's component (a local event there).
    pub fn tick(&mut self, domain: &str) {
        match self.counts.get_mut(domain) {
            Some(n) => *n += 1,
            None => {
                self.counts.insert(domain.to_owned(), 1);
            }
        }
    }

    /// Component-wise maximum (learning another replica's history).
    pub fn merge(&mut self, other: &VectorClock) {
        for (domain, n) in &other.counts {
            match self.counts.get_mut(domain) {
                Some(slot) => *slot = (*slot).max(*n),
                None => {
                    self.counts.insert(domain.clone(), *n);
                }
            }
        }
    }

    /// Compares under the happened-before partial order.
    pub fn compare(&self, other: &VectorClock) -> ClockOrder {
        let (mut some_less, mut some_greater) = (false, false);
        let domains = self.counts.keys().chain(other.counts.keys());
        for d in domains {
            let (a, b) = (self.get(d), other.get(d));
            if a < b {
                some_less = true;
            }
            if a > b {
                some_greater = true;
            }
        }
        match (some_less, some_greater) {
            (false, false) => ClockOrder::Equal,
            (true, false) => ClockOrder::Before,
            (false, true) => ClockOrder::After,
            (true, true) => ClockOrder::Concurrent,
        }
    }

    /// True when `self` strictly dominates (`other` happened-before it).
    pub fn dominates(&self, other: &VectorClock) -> bool {
        self.compare(other) == ClockOrder::After
    }

    /// Sum of all components — a deterministic secondary measure for
    /// conflict tie-breaks (not an ordering by itself).
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Appends the canonical rendering to `out`: `domain:count`
    /// components, comma-separated, in domain order, zero components
    /// omitted. Domain names are escaped as in the replica codec, with
    /// `,` escaped too; `:` needs no escape because a component splits
    /// at its last one.
    pub fn encode_into(&self, out: &mut String) {
        let mut first = true;
        for (domain, n) in self.counts.iter().filter(|(_, n)| **n > 0) {
            if !first {
                out.push(',');
            }
            first = false;
            escape_into(out, domain, b",");
            // Writing to a String cannot fail.
            let _ = write!(out, ":{n}");
        }
    }

    /// Parses the [`encode_into`](Self::encode_into) form.
    ///
    /// # Errors
    ///
    /// [`FederationError::Codec`] on malformed components.
    pub fn decode(s: &str) -> Result<Self, FederationError> {
        let mut clock = VectorClock::new();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (domain, n) = part
                .rsplit_once(':')
                .ok_or_else(|| FederationError::Codec(format!("bad clock component: {part}")))?;
            let n: u64 = n
                .parse()
                .map_err(|_| FederationError::Codec(format!("bad clock count: {part}")))?;
            clock.counts.insert(unescape(domain)?.into_owned(), n);
        }
        Ok(clock)
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.encode_into(&mut out);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_merge_and_compare() {
        let mut a = VectorClock::new();
        let mut b = VectorClock::new();
        assert_eq!(a.compare(&b), ClockOrder::Equal);
        a.tick("env-a");
        assert_eq!(a.compare(&b), ClockOrder::After);
        assert_eq!(b.compare(&a), ClockOrder::Before);
        b.tick("env-b");
        assert_eq!(a.compare(&b), ClockOrder::Concurrent);
        b.merge(&a);
        assert!(b.dominates(&a));
        assert_eq!(b.total(), 2);
    }

    #[test]
    fn codec_round_trips() {
        let mut c = VectorClock::new();
        c.tick("env-a");
        c.tick("env-a");
        c.tick("env-b");
        let wire = c.to_string();
        assert_eq!(wire, "env-a:2,env-b:1");
        assert_eq!(VectorClock::decode(&wire).unwrap(), c);
        assert_eq!(VectorClock::decode("").unwrap(), VectorClock::new());
        assert!(VectorClock::decode("nonsense").is_err());
        assert!(VectorClock::decode("a:x").is_err());
        // Component names escape like replica fields, plus `,`.
        let mut odd = VectorClock::new();
        odd.tick("env,a%:b");
        let wire = odd.to_string();
        assert_eq!(wire, "env%2Ca%25:b:1");
        assert_eq!(VectorClock::decode(&wire).unwrap(), odd);
    }
}
