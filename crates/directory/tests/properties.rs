//! Property tests for the directory data model: DN round-trips and
//! ordering, filter algebra laws, substring matching, and DIT structural
//! invariants.

use cscw_directory::*;
use proptest::prelude::*;

/// Attribute values safe inside an RDN (no ',' '=' '*', non-empty,
/// trimmed so parse→print round-trips exactly).
fn rdn_value() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9 .-]{0,14}[A-Za-z0-9]".prop_map(|s| s.trim().to_owned())
}

fn rdn_attr() -> impl Strategy<Value = String> {
    "[a-z]{1,8}"
}

fn arb_dn() -> impl Strategy<Value = Dn> {
    prop::collection::vec((rdn_attr(), rdn_value()), 0..5).prop_map(|parts| {
        Dn::from_rdns(
            parts
                .into_iter()
                .map(|(a, v)| Rdn::new(a.as_str(), v).expect("generated values are valid"))
                .collect(),
        )
    })
}

/// RDNs from a tiny alphabet, so pairs collide often: attribute types
/// that prefix one another (`c`/`cn`) and values that extend `a` with
/// ` `, `.` or `-`, all of which sort below the `,` of the display form.
fn arb_close_rdn() -> impl Strategy<Value = Rdn> {
    (
        prop_oneof![Just("c"), Just("cn")],
        prop_oneof![Just("a"), Just("a b"), Just("a.b"), Just("a-b"), Just("b")],
    )
        .prop_map(|(a, v)| Rdn::new(a, v).expect("generated values are valid"))
}

/// Two DNs that share a generated prefix and then diverge (or not).
fn arb_dn_pair() -> impl Strategy<Value = (Dn, Dn)> {
    let part = || prop::collection::vec(arb_close_rdn(), 0..3);
    (part(), part(), part()).prop_map(|(prefix, a, b)| {
        let join = |tail: Vec<Rdn>| Dn::from_rdns(prefix.iter().cloned().chain(tail).collect());
        (join(a), join(b))
    })
}

fn hash_of(dn: &Dn) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    dn.hash(&mut h);
    h.finish()
}

fn arb_value() -> impl Strategy<Value = AttributeValue> {
    prop_oneof![
        rdn_value().prop_map(AttributeValue::Text),
        any::<i64>().prop_map(AttributeValue::Int),
    ]
}

fn arb_leaf_filter() -> impl Strategy<Value = Filter> {
    prop_oneof![
        Just(Filter::True),
        rdn_attr().prop_map(|a| Filter::present(a.as_str())),
        (rdn_attr(), arb_value()).prop_map(|(a, v)| Filter::Equals(a.as_str().into(), v)),
        (rdn_attr(), arb_value()).prop_map(|(a, v)| Filter::GreaterOrEqual(a.as_str().into(), v)),
        (rdn_attr(), arb_value()).prop_map(|(a, v)| Filter::LessOrEqual(a.as_str().into(), v)),
    ]
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    arb_leaf_filter().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Filter::And),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Filter::Or),
            inner.prop_map(Filter::not),
        ]
    })
}

fn arb_entry() -> impl Strategy<Value = Entry> {
    (
        arb_dn().prop_filter("entries are non-root", |d| !d.is_root()),
        prop::collection::vec((rdn_attr(), arb_value()), 0..6),
    )
        .prop_map(|(dn, attrs)| {
            let mut e = Entry::new(dn).with_class("person");
            for (a, v) in attrs {
                e.put_attr(Attribute::multi(a.as_str(), [v]));
            }
            e
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// DN order, equality and hashing agree with the RDN sequence, and a
    /// clone shares its allocation.
    #[test]
    fn dn_order_matches_rdn_order((a, b) in arb_dn_pair()) {
        prop_assert_eq!(a.cmp(&b), a.rdns().cmp(b.rdns()), "{} vs {}", a, b);
        prop_assert_eq!(a == b, a.rdns() == b.rdns(), "{} vs {}", a, b);
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
        prop_assert_eq!(
            a.is_prefix_of(&b),
            b.rdns().starts_with(a.rdns()),
            "{} vs {}", a, b
        );
        prop_assert!(std::ptr::eq(a.rdns().as_ptr(), a.clone().rdns().as_ptr()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// DN display → parse is the identity.
    #[test]
    fn dn_round_trip(dn in arb_dn()) {
        let printed = dn.to_string();
        let reparsed: Dn = printed.parse().expect("printed DNs reparse");
        prop_assert_eq!(dn, reparsed);
    }

    /// Parent/child are inverse operations.
    #[test]
    fn parent_child_inverse(dn in arb_dn(), attr in rdn_attr(), value in rdn_value()) {
        let rdn = Rdn::new(attr.as_str(), value).unwrap();
        let child = dn.child(rdn);
        prop_assert_eq!(child.parent(), Some(dn.clone()));
        prop_assert!(dn.is_ancestor_of(&child));
        prop_assert!(!child.is_ancestor_of(&dn));
    }

    /// Filter display → parse preserves semantics on arbitrary entries.
    #[test]
    fn filter_print_parse_preserves_semantics(f in arb_filter(), e in arb_entry()) {
        let printed = f.to_string();
        let reparsed: Filter = match printed.parse() {
            Ok(f) => f,
            // Text values containing '*'-free but numeric-looking strings
            // can re-parse to Int and legitimately change semantics; our
            // generator avoids digits-only strings, so parse must succeed.
            Err(err) => return Err(TestCaseError::fail(format!("{err} for {printed}"))),
        };
        prop_assert_eq!(f.matches(&e), reparsed.matches(&e), "filter: {}", printed);
    }

    /// De Morgan: !(a & b) == (!a | !b) on every entry.
    #[test]
    fn de_morgan(a in arb_leaf_filter(), b in arb_leaf_filter(), e in arb_entry()) {
        let lhs = Filter::not(Filter::and([a.clone(), b.clone()]));
        let rhs = Filter::or([Filter::not(a), Filter::not(b)]);
        prop_assert_eq!(lhs.matches(&e), rhs.matches(&e));
    }

    /// Double negation is the identity.
    #[test]
    fn double_negation(f in arb_filter(), e in arb_entry()) {
        let double = Filter::not(Filter::not(f.clone()));
        prop_assert_eq!(f.matches(&e), double.matches(&e));
    }

    /// And is idempotent: (a & a) == a.
    #[test]
    fn and_idempotent(f in arb_filter(), e in arb_entry()) {
        let doubled = Filter::and([f.clone(), f.clone()]);
        prop_assert_eq!(f.matches(&e), doubled.matches(&e));
    }

    /// A substring pattern built from a real string matches that string.
    #[test]
    fn substring_self_match(s in "[a-zA-Z]{2,20}", cut in 1usize..19) {
        let cut = cut.min(s.len() - 1);
        let pattern = format!("{}*{}", &s[..cut], &s[cut..]);
        let p = SubstringPattern::parse(&pattern).unwrap();
        prop_assert!(p.matches(&s), "{pattern} should match {s}");
        // Prefix and suffix forms too.
        let prefix_form = format!("{}*", &s[..cut]);
        let suffix_form = format!("*{}", &s[cut..]);
        let prefix_ok = SubstringPattern::parse(&prefix_form).unwrap().matches(&s);
        let suffix_ok = SubstringPattern::parse(&suffix_form).unwrap().matches(&s);
        prop_assert!(prefix_ok);
        prop_assert!(suffix_ok);
    }
}

/// DIT structural invariants under random add/remove sequences.
#[derive(Debug, Clone)]
enum DitOp {
    Add(usize),
    Remove(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<DitOp>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..16).prop_map(DitOp::Add),
            (0usize..16).prop_map(DitOp::Remove)
        ],
        1..60,
    )
}

/// A fixed universe of 16 DNs arranged as a small tree.
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
    dns.truncate(16);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After any operation sequence: every non-root entry's parent exists
    /// (or is the root), and subtree search from the root sees exactly
    /// the stored entries.
    #[test]
    fn dit_parent_invariant(ops in arb_ops()) {
        let universe = universe();
        let mut dit = Dit::new();
        for op in ops {
            match op {
                DitOp::Add(i) => { let _ = dit.add(entry_for(&universe[i % universe.len()])); }
                DitOp::Remove(i) => { let _ = dit.remove(&universe[i % universe.len()]); }
            }
            // Invariant 1: closure under parents.
            for e in dit.iter() {
                if let Some(parent) = e.dn().parent() {
                    prop_assert!(
                        parent.is_root() || dit.get(&parent).is_some(),
                        "orphaned entry {}", e.dn()
                    );
                }
            }
            // Invariant 2: root subtree search enumerates everything.
            let all = dit.search_all(Filter::True).unwrap();
            prop_assert_eq!(all.len(), dit.len());
        }
    }
}
