//! Property tests for the directory data model: DN round-trips and
//! ordering, filter algebra laws, substring matching, and DIT structural
//! invariants.
//!
//! The `k`-th property in this file draws case `c` from
//! `SeededRng::seed_from((k << 32) | c)`; a failure names its case and
//! seed, and replays from that seed alone.

use cscw_directory::*;
use cscw_kernel::SeededRng;

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const ALPHA: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
const ALNUM: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
const RDN_CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 .-";

/// Attribute values safe inside an RDN (no ',' '=' '*', non-empty,
/// starting with a letter and ending alphanumeric, so parse→print
/// round-trips exactly and no value reads back as a number).
fn rdn_value(rng: &mut SeededRng) -> String {
    let mut value = rng.word(ALPHA, 1..=1);
    value.push_str(&rng.word(RDN_CHARS, 0..=14));
    value.push_str(&rng.word(ALNUM, 1..=1));
    value
}

fn rdn_attr(rng: &mut SeededRng) -> String {
    rng.word(LOWER, 1..=8)
}

fn arb_dn(rng: &mut SeededRng) -> Dn {
    Dn::from_rdns(
        (0..rng.below(5))
            .map(|_| {
                let attr = rdn_attr(rng);
                Rdn::new(attr.as_str(), rdn_value(rng)).expect("generated values are valid")
            })
            .collect(),
    )
}

/// RDNs from a tiny alphabet, so pairs collide often: attribute types
/// that prefix one another (`c`/`cn`) and values that extend `a` with
/// ` `, `.` or `-`, all of which sort below the `,` of the display form.
fn arb_close_rdn(rng: &mut SeededRng) -> Rdn {
    let attr = ["c", "cn"][rng.below(2) as usize];
    let value = ["a", "a b", "a.b", "a-b", "b"][rng.below(5) as usize];
    Rdn::new(attr, value).expect("generated values are valid")
}

/// Two DNs that share a generated prefix and then diverge (or not).
fn arb_dn_pair(rng: &mut SeededRng) -> (Dn, Dn) {
    let mut part = || -> Vec<Rdn> { (0..rng.below(3)).map(|_| arb_close_rdn(rng)).collect() };
    let (prefix, a, b) = (part(), part(), part());
    let join = |tail: Vec<Rdn>| Dn::from_rdns(prefix.iter().cloned().chain(tail).collect());
    (join(a), join(b))
}

fn hash_of(dn: &Dn) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    dn.hash(&mut h);
    h.finish()
}

fn arb_value(rng: &mut SeededRng) -> AttributeValue {
    match rng.below(2) {
        0 => AttributeValue::Text(rdn_value(rng)),
        _ => AttributeValue::Int(rng.next_u64() as i64),
    }
}

fn arb_leaf_filter(rng: &mut SeededRng) -> Filter {
    let kind = rng.below(5);
    if kind == 0 {
        return Filter::True;
    }
    let attr = rdn_attr(rng);
    let attr = attr.as_str();
    match kind {
        1 => Filter::present(attr),
        2 => Filter::Equals(attr.into(), arb_value(rng)),
        3 => Filter::GreaterOrEqual(attr.into(), arb_value(rng)),
        _ => Filter::LessOrEqual(attr.into(), arb_value(rng)),
    }
}

/// A filter nested at most `depth` levels: at each level a leaf or,
/// with even odds, an And, Or or Not over filters one level shallower.
fn arb_filter(rng: &mut SeededRng, depth: u32) -> Filter {
    if depth == 0 || rng.chance(0.5) {
        return arb_leaf_filter(rng);
    }
    let inner = |rng: &mut SeededRng| -> Vec<Filter> {
        (0..rng.range_inclusive(1, 3))
            .map(|_| arb_filter(rng, depth - 1))
            .collect()
    };
    match rng.below(3) {
        0 => Filter::And(inner(rng)),
        1 => Filter::Or(inner(rng)),
        _ => Filter::not(arb_filter(rng, depth - 1)),
    }
}

fn arb_entry(rng: &mut SeededRng) -> Entry {
    // Entries are non-root: redraw the root DN.
    let dn = loop {
        let dn = arb_dn(rng);
        if !dn.is_root() {
            break dn;
        }
    };
    let mut e = Entry::new(dn).with_class("person");
    for _ in 0..rng.below(6) {
        let attr = rdn_attr(rng);
        e.put_attr(Attribute::multi(attr.as_str(), [arb_value(rng)]));
    }
    e
}

/// DN order, equality and hashing agree with the RDN sequence, and a
/// clone shares its allocation.
#[test]
fn dn_order_matches_rdn_order() {
    for case in 0..512 {
        let seed = (1 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let (a, b) = arb_dn_pair(&mut rng);
        let at = format!("{at}: {a} vs {b}");
        assert_eq!(a.cmp(&b), a.rdns().cmp(b.rdns()), "{at}");
        assert_eq!(a == b, a.rdns() == b.rdns(), "{at}");
        if a == b {
            assert_eq!(hash_of(&a), hash_of(&b), "{at}");
        }
        assert_eq!(a.is_prefix_of(&b), b.rdns().starts_with(a.rdns()), "{at}");
        assert!(
            std::ptr::eq(a.rdns().as_ptr(), a.clone().rdns().as_ptr()),
            "{at}"
        );
    }
}

/// DN display → parse is the identity.
#[test]
fn dn_round_trip() {
    for case in 0..128 {
        let seed = (2 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let dn = arb_dn(&mut rng);
        let printed = dn.to_string();
        let reparsed: Dn = printed.parse().expect("printed DNs reparse");
        assert_eq!(dn, reparsed, "{at}");
    }
}

/// Parent/child are inverse operations.
#[test]
fn parent_child_inverse() {
    for case in 0..128 {
        let seed = (3 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let dn = arb_dn(&mut rng);
        let attr = rdn_attr(&mut rng);
        let value = rdn_value(&mut rng);
        let child = dn.child(Rdn::new(attr.as_str(), value).unwrap());
        assert_eq!(child.parent(), Some(dn.clone()), "{at}");
        assert!(dn.is_ancestor_of(&child), "{at}");
        assert!(!child.is_ancestor_of(&dn), "{at}");
    }
}

/// Filter display → parse preserves semantics on arbitrary entries.
#[test]
fn filter_print_parse_preserves_semantics() {
    for case in 0..128 {
        let seed = (4 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let f = arb_filter(&mut rng, 3);
        let e = arb_entry(&mut rng);
        let printed = f.to_string();
        // A text value that looked like a number would re-parse to an
        // Int and change semantics; the generator starts every text
        // value with a letter, so parse must succeed.
        let reparsed: Filter = printed
            .parse()
            .unwrap_or_else(|err| panic!("{at}: {err} for {printed}"));
        assert_eq!(
            f.matches(&e),
            reparsed.matches(&e),
            "{at}: filter {printed}"
        );
    }
}

/// De Morgan: !(a & b) == (!a | !b) on every entry.
#[test]
fn de_morgan() {
    for case in 0..128 {
        let seed = (5 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let a = arb_leaf_filter(&mut rng);
        let b = arb_leaf_filter(&mut rng);
        let e = arb_entry(&mut rng);
        let lhs = Filter::not(Filter::and([a.clone(), b.clone()]));
        let rhs = Filter::or([Filter::not(a), Filter::not(b)]);
        assert_eq!(lhs.matches(&e), rhs.matches(&e), "{at}");
    }
}

/// Double negation is the identity.
#[test]
fn double_negation() {
    for case in 0..128 {
        let seed = (6 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let f = arb_filter(&mut rng, 3);
        let e = arb_entry(&mut rng);
        let double = Filter::not(Filter::not(f.clone()));
        assert_eq!(f.matches(&e), double.matches(&e), "{at}");
    }
}

/// And is idempotent: (a & a) == a.
#[test]
fn and_idempotent() {
    for case in 0..128 {
        let seed = (7 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let f = arb_filter(&mut rng, 3);
        let e = arb_entry(&mut rng);
        let doubled = Filter::and([f.clone(), f.clone()]);
        assert_eq!(f.matches(&e), doubled.matches(&e), "{at}");
    }
}

/// A substring pattern built from a real string matches that string.
#[test]
fn substring_self_match() {
    for case in 0..128 {
        let seed = (8 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let s = rng.word(ALPHA, 2..=20);
        let cut = (rng.range_inclusive(1, 18) as usize).min(s.len() - 1);
        let pattern = format!("{}*{}", &s[..cut], &s[cut..]);
        let p = SubstringPattern::parse(&pattern).unwrap();
        assert!(p.matches(&s), "{at}: {pattern} should match {s}");
        // Prefix and suffix forms too.
        for form in [format!("{}*", &s[..cut]), format!("*{}", &s[cut..])] {
            let p = SubstringPattern::parse(&form).unwrap();
            assert!(p.matches(&s), "{at}: {form} should match {s}");
        }
    }
}

/// A fixed universe of 14 DNs arranged as a small tree.
fn universe() -> Vec<Dn> {
    let mut dns = Vec::new();
    for c in ["c=A", "c=B"] {
        dns.push(c.parse().unwrap());
        for o in 0..3 {
            let org: Dn = format!("{c},o=org{o}").parse().unwrap();
            dns.push(org.clone());
            dns.push(format!("{c},o=org{o},cn=p{o}").parse().unwrap());
        }
    }
    dns
}

fn entry_for(dn: &Dn) -> Entry {
    let mut e = Entry::new(dn.clone());
    match dn.depth() {
        1 => {
            e.add_class("country");
            e.put_attr(Attribute::single("c", dn.rdn().unwrap().value()));
        }
        2 => {
            e.add_class("organization");
            e.put_attr(Attribute::single("o", dn.rdn().unwrap().value()));
        }
        _ => {
            e.add_class("person");
            e.put_attr(Attribute::single("cn", dn.rdn().unwrap().value()));
            e.put_attr(Attribute::single("sn", "X"));
        }
    }
    e
}

/// DIT structural invariants under random add/remove sequences: after
/// any operation sequence every non-root entry's parent exists
/// (or is the root), and subtree search from the root sees exactly
/// the stored entries.
#[test]
fn dit_parent_invariant() {
    let universe = universe();
    for case in 0..96 {
        let seed = (9 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let mut dit = Dit::new();
        for step in 0..rng.range_inclusive(1, 59) {
            // Add or remove one DN of the universe.
            let (add, i) = (rng.chance(0.5), rng.below(universe.len() as u64));
            let dn = &universe[i as usize];
            let at = format!("{at}, step {step}: add {add} {dn}");
            if add {
                let _ = dit.add(entry_for(dn));
            } else {
                let _ = dit.remove(dn);
            }
            // Invariant 1: closure under parents.
            for e in dit.iter() {
                if let Some(parent) = e.dn().parent() {
                    assert!(
                        parent.is_root() || dit.get(&parent).is_some(),
                        "{at}: orphaned entry {}",
                        e.dn()
                    );
                }
            }
            // Invariant 2: root subtree search enumerates everything.
            let all = dit.search_all(Filter::True).unwrap();
            assert_eq!(all.len(), dit.len(), "{at}");
        }
    }
}
