//! Property tests for the MOCCA core invariants: access-control
//! monotonicity, activity-schedule validity, dependency acyclicity,
//! negotiation safety, tailoring resolution, and the telemetry
//! histogram's quantile math.
//!
//! The `k`-th property in this file draws case `c` from
//! `SeededRng::seed_from((k << 32) | c)`; a failure names its case and
//! seed, and replays from that seed alone.

use cscw_directory::Dn;
use cscw_kernel::{LogHistogram, SeededRng};
use mocca::activity::{Activity, ActivityId, DependencyKind, InterActivityModel};
use mocca::info::{AccessControl, AccessRight, InfoObjectId};
use mocca::org::{OrgRule, OrganisationalModel, Person, RelationKind, Role, RuleKind};
use mocca::tailor::{Constraint, Scope, TailorContext, TailorStore};

fn dn(s: &str) -> Dn {
    s.parse().expect("test DNs are valid")
}

/// Between `min` and `max` pairs `(below(a), below(b))`.
fn pairs(rng: &mut SeededRng, min: u64, max: u64, a: u64, b: u64) -> Vec<(usize, usize)> {
    (0..rng.range_inclusive(min, max))
        .map(|_| (rng.below(a) as usize, rng.below(b) as usize))
        .collect()
}

/// People p0..p3, roles r0..r3, with arbitrary occupancy.
fn org_with(occupancy: &[(usize, usize)]) -> OrganisationalModel {
    let mut m = OrganisationalModel::new();
    for i in 0..4 {
        m.add_person(Person::new(dn(&format!("cn=p{i}")), format!("p{i}")));
        m.add_role(Role::new(dn(&format!("cn=r{i}")), format!("r{i}")));
    }
    for &(p, r) in occupancy {
        m.relate(
            &dn(&format!("cn=p{}", p % 4)),
            RelationKind::Occupies,
            &dn(&format!("cn=r{}", r % 4)),
        )
        .unwrap();
    }
    m
}

/// Access monotonicity: removing a role occupancy never grants an
/// access that was previously denied.
#[test]
fn access_is_monotone_in_roles() {
    for case in 0..96 {
        let seed = (1 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let occupancy = pairs(&mut rng, 0, 7, 4, 4);
        let grants = pairs(&mut rng, 0, 7, 4, 3);
        let drop_index = rng.below(8) as usize;
        let rights = [AccessRight::Read, AccessRight::Write, AccessRight::Share];
        let object: InfoObjectId = "doc".into();
        let mut ac = AccessControl::new();
        for &(r, right) in &grants {
            ac.grant(&object, dn(&format!("cn=r{r}")), rights[right]);
        }
        let full = org_with(&occupancy);
        let reduced_occupancy: Vec<(usize, usize)> = occupancy
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop_index)
            .map(|(_, &x)| x)
            .collect();
        let reduced = org_with(&reduced_occupancy);
        for p in 0..4 {
            let person = dn(&format!("cn=p{p}"));
            for right in rights {
                let before = ac.check(&full, &person, right, &object);
                let after = ac.check(&reduced, &person, right, &object);
                let at = format!("{at}: p{p} gained {right:?}");
                assert!(!after || before, "{at} when a role occupancy was dropped");
            }
        }
    }
}

/// Whatever forbid/permit rules exist, a Forbid matching the action
/// always wins over any Permit.
#[test]
fn forbid_always_wins() {
    for case in 0..96 {
        let seed = (2 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let mut m = org_with(&pairs(&mut rng, 1, 7, 4, 4));
        for _ in 0..rng.range_inclusive(1, 4) {
            let role = dn(&format!("cn=r{}", rng.below(4)));
            m.add_rule(OrgRule::new(role, RuleKind::Permit, "act", "*"));
        }
        let forbid_role = dn(&format!("cn=r{}", rng.below(4)));
        m.add_rule(OrgRule::new(
            forbid_role.clone(),
            RuleKind::Forbid,
            "act",
            "*",
        ));
        for p in 0..4 {
            let person = dn(&format!("cn=p{p}"));
            if m.roles_of(&person).contains(&forbid_role) {
                let permitted = m.authorise(&person, "act", "x").is_permitted();
                assert!(!permitted, "{at}: p{p} permitted despite Forbid");
            }
        }
    }
}

/// However many Before edges we try to add, accepted edges never form
/// a cycle, and the schedule order is always a valid topological order
/// containing every activity exactly once.
#[test]
fn schedule_is_always_a_valid_topological_order() {
    for case in 0..64 {
        let seed = (3 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let n = rng.range_inclusive(2, 7) as usize;
        let attempts = pairs(&mut rng, 0, 39, 8, 8);
        let mut model = InterActivityModel::new();
        let ids: Vec<ActivityId> = (0..n)
            .map(|i| ActivityId::from(format!("a{i}").as_str()))
            .collect();
        for id in &ids {
            model
                .register(Activity::new(id.clone(), id.as_str()))
                .unwrap();
        }
        let mut accepted = Vec::new();
        for (f, t) in attempts {
            let (from, to) = (f % n, t % n);
            if model
                .add_dependency(&ids[from], DependencyKind::Before, &ids[to])
                .is_ok()
            {
                accepted.push((from, to));
            }
        }
        let order = model.schedule_order();
        assert_eq!(
            order.len(),
            n,
            "{at}: every activity scheduled exactly once"
        );
        let pos = |id: &ActivityId| order.iter().position(|x| x == id).unwrap();
        for (from, to) in accepted {
            let kept = pos(&ids[from]) < pos(&ids[to]);
            assert!(kept, "{at}: edge a{from} -> a{to} violated by schedule");
        }
    }
}

/// Negotiations never accept out of turn, never mutate after close, and
/// the accepted assignee is always the last proposal made.
#[test]
fn negotiation_safety() {
    use mocca::activity::{Negotiation, NegotiationState, NegotiationSubject};
    for case in 0..64 {
        let seed = (4 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let moves: Vec<u64> = (0..rng.below(12)).map(|_| rng.below(4)).collect();
        let tom = dn("cn=Tom");
        let wolfgang = dn("cn=Wolfgang");
        let mut n = Negotiation::propose(
            NegotiationSubject::Responsibility("a".into()),
            tom.clone(),
            wolfgang.clone(),
            dn("cn=Candidate0"),
        );
        let mut last_proposal = dn("cn=Candidate0");
        let mut counter_count = 0;
        for (i, m) in moves.iter().enumerate() {
            let closed = matches!(
                n.state(),
                NegotiationState::Accepted | NegotiationState::Rejected
            );
            let actor = match n.awaiting() {
                Some(who) => who.clone(),
                None => tom.clone(), // any move must fail now
            };
            match m {
                0 => {
                    let candidate = dn(&format!("cn=Candidate{i}"));
                    if n.counter(&actor, candidate.clone()).is_ok() {
                        assert!(!closed, "{at}: counter succeeded on closed negotiation");
                        last_proposal = candidate;
                        counter_count += 1;
                    }
                }
                1 => {
                    if let Ok(assignee) = n.accept(&actor) {
                        assert!(!closed, "{at}: accept succeeded on closed negotiation");
                        assert_eq!(assignee, &last_proposal, "{at}");
                    }
                }
                2 => {
                    if n.reject(&actor).is_ok() {
                        assert!(!closed, "{at}: reject succeeded on closed negotiation");
                    }
                }
                _ => {
                    // A third party can never move.
                    let outsider = dn("cn=Outsider");
                    assert!(n.counter(&outsider, dn("cn=X")).is_err(), "{at}");
                }
            }
        }
        // History is bounded by moves made plus the opening proposal.
        let bound = 2 + counter_count + moves.len();
        assert!(n.history().len() <= bound, "{at}: history too long");
    }
}

/// Tailoring always resolves to a value satisfying the constraint,
/// whatever the override pattern.
#[test]
fn tailoring_resolution_respects_constraints() {
    for case in 0..64 {
        let seed = (5 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let overrides: Vec<(u64, i64)> = (0..rng.below(12))
            .map(|_| (rng.below(4), rng.below(60) as i64 - 20))
            .collect();
        let user_groups = (0..rng.below(3)).map(|_| rng.word(b"abc", 1..=1)).collect();
        let mut store = TailorStore::new();
        store
            .declare("limit", Constraint::IntRange(0, 20), odp::Value::Int(5))
            .unwrap();
        for (scope_kind, value) in overrides {
            let scope = match scope_kind {
                0 => Scope::System,
                1 => Scope::Organisation("org".into()),
                2 => Scope::Group("a".into()),
                _ => Scope::User("tom".into()),
            };
            // Out-of-range sets must fail; in-range must succeed.
            let result = store.set("limit", scope, odp::Value::Int(value));
            assert_eq!(
                result.is_ok(),
                (0..=20).contains(&value),
                "{at}: set {value}"
            );
        }
        let ctx = TailorContext {
            user: "tom".into(),
            groups: user_groups,
            organisation: Some("org".into()),
        };
        match store.effective("limit", &ctx).unwrap() {
            odp::Value::Int(v) => assert!((0..=20).contains(&v), "{at}: effective value {v}"),
            other => panic!("{at}: non-int {other}"),
        }
    }
}

/// The log-bucketed histogram's quantiles track the exact ranked sample
/// from below, within the documented 1/16 relative error — for
/// arbitrary sample multisets, not just uniform ones.
#[test]
fn histogram_quantiles_track_exact_ranked_samples() {
    for case in 0..64 {
        let seed = (6 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let samples: Vec<u64> = (0..rng.range_inclusive(1, 299))
            .map(|_| rng.below(2_000_000))
            .collect();
        let q = [0.0, 0.5, 0.9, 0.99, 1.0][rng.below(5) as usize];
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
        let truth = sorted[rank];
        let got = h.quantile(q).expect("non-empty histogram");
        assert!(got <= truth, "{at}: quantile({q}) = {got} > exact {truth}");
        assert!(
            (truth - got) as f64 <= truth as f64 / 16.0 + 1.0,
            "{at}: quantile({q}) = {got} under-reports exact {truth} beyond 1/16"
        );
        // Extremes are exact, whatever the distribution.
        assert_eq!(h.quantile(0.0), sorted.first().copied(), "{at}");
        assert_eq!(h.quantile(1.0), sorted.last().copied(), "{at}");
    }
}

/// Quantiles are monotone in `q` and the summary is internally
/// consistent for arbitrary samples.
#[test]
fn histogram_summary_is_internally_consistent() {
    for case in 0..64 {
        let seed = (7 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let samples: Vec<u64> = (0..rng.range_inclusive(1, 199))
            .map(|_| rng.below(u64::MAX / 2))
            .collect();
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let s = h.summary().expect("non-empty histogram");
        assert_eq!(s.count, samples.len() as u64, "{at}");
        assert_eq!(s.min_micros, *samples.iter().min().unwrap(), "{at}");
        assert_eq!(s.max_micros, *samples.iter().max().unwrap(), "{at}");
        assert!(s.p50_micros <= s.p90_micros, "{at}");
        assert!(s.p90_micros <= s.p99_micros, "{at}");
        assert!(s.p99_micros <= s.max_micros, "{at}");
        assert!(s.min_micros <= s.p50_micros, "{at}");
        assert!(
            (s.min_micros..=s.max_micros).contains(&s.mean_micros),
            "{at}"
        );
    }
}
