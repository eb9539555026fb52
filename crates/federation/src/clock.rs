//! Per-environment vector clocks — the partial order under which
//! replicated knowledge versions are compared (time transparency across
//! environments: causality, not wall clocks).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use cscw_kernel::{percent_escape_into, percent_unescape};

use crate::error::FederationError;
use crate::replica::unescape;

/// Bytes escaped in a component name: the replica codec's separators
/// plus `,`, which separates components.
const NAME_RESERVED: &[u8] = b"\x1e\x1f,";

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

    /// Component-wise maximum with a version's stamp, read straight
    /// from its canonical text: a domain this clock already counts
    /// costs no allocation.
    pub fn merge_stamp(&mut self, stamp: &ClockStamp) {
        for (domain, n) in stamp.components() {
            match self.counts.get_mut(&*domain) {
                Some(slot) => *slot = (*slot).max(n),
                None => {
                    self.counts.insert(domain.into_owned(), n);
                }
            }
        }
    }

    /// This clock as a version stamp.
    pub fn stamp(&self) -> ClockStamp {
        let mut text = String::new();
        self.encode_into(&mut text);
        ClockStamp {
            text,
            total: self.total(),
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
            percent_escape_into(out, domain, NAME_RESERVED);
            // Writing to a String cannot fail.
            let _ = write!(out, ":{n}");
        }
    }

    /// Parses the [`encode_into`](Self::encode_into) form, as
    /// [`ClockStamp::decode`] reads it.
    ///
    /// # Errors
    ///
    /// [`FederationError::Codec`] on malformed components.
    pub fn decode(s: &str) -> Result<Self, FederationError> {
        let mut clock = VectorClock::new();
        clock.merge_stamp(&ClockStamp::decode(s)?);
        Ok(clock)
    }
}

/// A version's clock as it is stored and shipped: the canonical
/// [`VectorClock`] text plus its cached [`total`](Self::total).
///
/// A replicated entry never compares or advances its clock; it only
/// ranks by the total, renders the text into frames and fingerprints,
/// and lends it to the replica's own clock on apply. So the stamp keeps
/// the text, one allocation, instead of a map of owned names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClockStamp {
    text: String,
    total: u64,
}

impl ClockStamp {
    /// Parses clock text into its canonical form: components sorted by
    /// name, a repeated name keeping its last count, zero components
    /// dropped. Text that is already canonical, as every encoder
    /// writes it, is copied as is.
    ///
    /// # Errors
    ///
    /// [`FederationError::Codec`] on malformed components.
    pub fn decode(text: &str) -> Result<Self, FederationError> {
        if text.is_empty() {
            return Ok(ClockStamp::default());
        }
        let mut total = 0u64;
        let mut canonical = true;
        let mut prev: Option<&str> = None;
        for part in text.split(',') {
            if part.is_empty() {
                canonical = false;
                continue;
            }
            let (name, count) = split_component(part)?;
            let n = parse_count(part, count)?;
            // Canonical: sorted strictly by name, no zero count, no
            // redundant count digits, and a name with nothing escaped
            // (so raw order is name order).
            canonical &= n > 0
                && !count.starts_with(['0', '+'])
                && !name
                    .bytes()
                    .any(|b| b == b'%' || NAME_RESERVED.contains(&b))
                && prev.is_none_or(|p| p < name);
            prev = Some(name);
            total = total.saturating_add(n);
        }
        if canonical {
            return Ok(ClockStamp {
                text: text.to_owned(),
                total,
            });
        }
        let mut counts: BTreeMap<Cow<'_, str>, u64> = BTreeMap::new();
        for part in text.split(',').filter(|p| !p.is_empty()) {
            let (name, count) = split_component(part)?;
            counts.insert(unescape(name)?, parse_count(part, count)?);
        }
        let mut stamp = ClockStamp::default();
        for (name, n) in counts.into_iter().filter(|(_, n)| *n > 0) {
            if !stamp.text.is_empty() {
                stamp.text.push(',');
            }
            percent_escape_into(&mut stamp.text, &name, NAME_RESERVED);
            // Writing to a String cannot fail.
            let _ = write!(stamp.text, ":{n}");
            stamp.total = stamp.total.saturating_add(n);
        }
        Ok(stamp)
    }

    /// The canonical text, as [`VectorClock::encode_into`] writes it.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Sum of all components — the ranking measure conflict
    /// resolution reads first.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The component for one domain.
    pub fn get(&self, domain: &str) -> u64 {
        self.components()
            .find(|(d, _)| d == domain)
            .map_or(0, |(_, n)| n)
    }

    /// The components in name order, names unescaped (borrowed unless
    /// they held an escape).
    fn components(&self) -> impl Iterator<Item = (Cow<'_, str>, u64)> {
        // The text is canonical by construction, so every component
        // splits, parses and unescapes.
        self.text.split(',').filter_map(|part| {
            let (name, count) = part.rsplit_once(':')?;
            Some((percent_unescape(name)?, count.parse().ok()?))
        })
    }
}

/// Splits one `name:count` component at its last `:`.
fn split_component(part: &str) -> Result<(&str, &str), FederationError> {
    part.rsplit_once(':')
        .ok_or_else(|| FederationError::Codec(format!("bad clock component: {part}")))
}

fn parse_count(part: &str, count: &str) -> Result<u64, FederationError> {
    count
        .parse()
        .map_err(|_| FederationError::Codec(format!("bad clock count: {part}")))
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
    use cscw_kernel::SeededRng;

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

    /// Seeded clock texts with shuffled, repeated, zero, zero-padded and
    /// escaped components decode to the canonical rendering of a map
    /// built the same way: sorted names, last count wins, zeros
    /// dropped.
    #[test]
    fn stamps_canonicalise_like_a_map() {
        const NAMES: [&str; 8] = [
            "env-a", "env-b", "site-07", "env,a", "e%:b", "env\x1fa", "", "z",
        ];
        for seed in 1..=500 {
            let mut rng = SeededRng::seed_from(seed);
            let mut reference = BTreeMap::new();
            let mut parts = Vec::new();
            for _ in 0..rng.below(12) {
                let name = NAMES[rng.below(NAMES.len() as u64) as usize];
                let n = if rng.chance(0.25) { 0 } else { rng.below(1000) };
                reference.insert(name.to_owned(), n);
                let mut part = String::new();
                percent_escape_into(&mut part, name, NAME_RESERVED);
                // Writing to a String cannot fail.
                let _ = if rng.chance(0.1) {
                    write!(part, ":{n:03}")
                } else {
                    write!(part, ":{n}")
                };
                parts.push(part);
            }
            let mut want = String::new();
            for (name, n) in reference.iter().filter(|(_, n)| **n > 0) {
                if !want.is_empty() {
                    want.push(',');
                }
                percent_escape_into(&mut want, name, NAME_RESERVED);
                let _ = write!(want, ":{n}");
            }
            // Half the seeds feed the canonical text itself, the form
            // every encoder writes.
            let text = if seed % 2 == 0 {
                want.clone()
            } else {
                parts.join(",")
            };
            let stamp = ClockStamp::decode(&text).unwrap();
            assert_eq!(stamp.as_str(), want, "seed {seed}: {text:?}");
            assert_eq!(
                stamp.total(),
                reference.values().sum::<u64>(),
                "seed {seed}"
            );
            for (name, n) in &reference {
                assert_eq!(stamp.get(name), *n, "seed {seed}: {name:?}");
            }
            let mut clock = VectorClock::new();
            clock.merge_stamp(&stamp);
            assert_eq!(clock.stamp(), stamp, "seed {seed}");
            assert_eq!(ClockStamp::decode(stamp.as_str()).unwrap(), stamp);
        }
    }

    #[test]
    fn malformed_stamps_are_refused() {
        for bad in [
            "a",
            "a:x",
            "a:-1",
            "a:1,b",
            "a%zz:1",
            "a:99999999999999999999",
        ] {
            assert!(ClockStamp::decode(bad).is_err(), "{bad:?}");
        }
        assert_eq!(ClockStamp::decode(",a:1,,").unwrap().as_str(), "a:1");
        assert_eq!(ClockStamp::decode("b:+2,a:1").unwrap().as_str(), "a:1,b:2");
    }
}
