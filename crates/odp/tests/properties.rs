//! Property tests for the ODP layer: trader matching soundness,
//! conformance laws, and constraint algebra.
//!
//! The `k`-th property in this file draws case `c` from
//! `SeededRng::seed_from((k << 32) | c)`; a failure names its case and
//! seed, and replays from that seed alone.

use cscw_kernel::SeededRng;
use odp::*;
use simnet::NodeId;

fn ident(rng: &mut SeededRng) -> String {
    rng.word(b"abcdefghijklmnopqrstuvwxyz", 1..=8)
}

fn arb_kind(rng: &mut SeededRng) -> ValueKind {
    [
        ValueKind::Unit,
        ValueKind::Bool,
        ValueKind::Int,
        ValueKind::Text,
        ValueKind::Name,
        ValueKind::List,
        ValueKind::Any,
    ][rng.below(7) as usize]
}

fn arb_sig(rng: &mut SeededRng) -> OperationSig {
    let name = ident(rng);
    let params: Vec<ValueKind> = (0..rng.below(4)).map(|_| arb_kind(rng)).collect();
    OperationSig::new(&name, params, arb_kind(rng))
}

fn arb_interface(rng: &mut SeededRng) -> InterfaceType {
    let mut iface = InterfaceType::new(&ident(rng));
    for _ in 0..rng.below(5) {
        let sig = arb_sig(rng);
        // One signature per operation name, as in a real interface.
        if iface.operation(sig.name()).is_none() {
            iface = iface.with_operation(sig);
        }
    }
    iface
}

/// Conformance is reflexive.
#[test]
fn conformance_reflexive() {
    for case in 0..128 {
        let seed = (1 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let iface = arb_interface(&mut rng);
        assert!(iface.conforms_to(&iface).is_ok(), "{at}");
    }
}

/// Adding an operation never breaks conformance to the original.
#[test]
fn extension_preserves_conformance() {
    for case in 0..128 {
        let seed = (2 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        // Redraw until the extra operation is new to the interface.
        let (iface, extra) = loop {
            let iface = arb_interface(&mut rng);
            let extra = arb_sig(&mut rng);
            if iface.operation(extra.name()).is_none() {
                break (iface, extra);
            }
        };

        let extended = iface.clone().with_operation(extra);
        assert!(extended.conforms_to(&iface).is_ok(), "{at}");
    }
}

/// Everything conforms to the empty interface.
#[test]
fn empty_interface_is_top() {
    let empty = InterfaceType::new("empty");
    for case in 0..128 {
        let seed = (3 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let iface = arb_interface(&mut rng);
        assert!(iface.conforms_to(&empty).is_ok(), "{at}");
    }
}

/// Builds a trader with `n` offers whose `cost` properties are 0..n.
fn trader_with_offers(n: usize) -> Trader {
    let iface = InterfaceType::new("svc").with_operation(OperationSig::new(
        "use",
        [ValueKind::Text],
        ValueKind::Unit,
    ));
    let mut t = Trader::new("t");
    t.register_service_type(iface.clone());
    for i in 0..n {
        let r = InterfaceRef {
            object: format!("o{i}").as_str().into(),
            node: NodeId::from_raw(i as u32),
            interface: "svc".into(),
        };
        t.export(
            "svc",
            &iface,
            r,
            [
                ("cost", Value::Int(i as i64)),
                ("even", Value::Bool(i % 2 == 0)),
            ],
        )
        .unwrap();
    }
    t
}

fn arb_leaf_constraint(rng: &mut SeededRng) -> Constraint {
    match rng.below(6) {
        0 => Constraint::True,
        1 => Constraint::Ge("cost".into(), rng.below(20) as i64),
        2 => Constraint::Le("cost".into(), rng.below(20) as i64),
        3 => Constraint::Eq("even".into(), Value::Bool(rng.chance(0.5))),
        4 => Constraint::Has("cost".into()),
        _ => Constraint::Has("missing".into()),
    }
}

/// A constraint nested at most `depth` levels: at each level a leaf
/// or, with even odds, an All, Any or Not over constraints one level
/// shallower.
fn arb_constraint(rng: &mut SeededRng, depth: u32) -> Constraint {
    if depth == 0 || rng.chance(0.5) {
        return arb_leaf_constraint(rng);
    }
    let inner = |rng: &mut SeededRng| -> Vec<Constraint> {
        (0..rng.range_inclusive(1, 2))
            .map(|_| arb_constraint(rng, depth - 1))
            .collect()
    };
    match rng.below(3) {
        0 => Constraint::All(inner(rng)),
        1 => Constraint::Any(inner(rng)),
        _ => Constraint::Not(Box::new(arb_constraint(rng, depth - 1))),
    }
}

/// Import soundness: every returned offer satisfies the constraint;
/// completeness: offers satisfying it are returned (no limit set).
#[test]
fn import_sound_and_complete() {
    for case in 0..96 {
        let seed = (4 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let n = rng.range_inclusive(1, 19) as usize;
        let c = arb_constraint(&mut rng, 3);
        let at = format!("{at}: {c:?}");
        let t = trader_with_offers(n);
        let all = t.import(&ImportRequest::any("svc")).unwrap();
        let matching = all.iter().filter(|o| c.matches(o)).count();
        let req = ImportRequest::any("svc").with_constraint(c.clone());
        match t.import(&req) {
            Ok(offers) => {
                for o in &offers {
                    assert!(c.matches(o), "{at}: unsound: returned non-matching offer");
                }
                assert_eq!(offers.len(), matching, "{at}: incomplete result set");
            }
            Err(OdpError::NoMatchingOffer { .. }) => {
                assert_eq!(matching, 0, "{at}: matches existed but import failed");
            }
            Err(e) => panic!("{at}: unexpected error {e}"),
        }
    }
}

/// Preference ordering really orders, and max_matches truncates.
#[test]
fn preference_and_truncation() {
    for case in 0..96 {
        let seed = (5 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let n = rng.range_inclusive(2, 19) as usize;
        let limit = rng.range_inclusive(1, 4) as usize;
        let t = trader_with_offers(n);
        let req = ImportRequest::any("svc")
            .with_preference(Preference::Min("cost".into()))
            .with_max_matches(limit);
        let offers = t.import(&req).unwrap();
        assert!(offers.len() <= limit, "{at}: {} offers", offers.len());
        let costs: Vec<i64> = offers
            .iter()
            .map(|o| o.property("cost").unwrap().as_int().unwrap())
            .collect();
        let mut sorted = costs.clone();
        sorted.sort_unstable();
        assert_eq!(&costs, &sorted, "{at}: Min preference must sort ascending");
        assert_eq!(costs[0], 0, "{at}: cheapest offer first");
    }
}

/// Constraint De Morgan over offers.
#[test]
fn constraint_de_morgan() {
    for case in 0..96 {
        let seed = (6 << 32) | case;
        let at = format!("case {case}, seed {seed:#x}");
        let mut rng = SeededRng::seed_from(seed);
        let n = rng.range_inclusive(1, 9) as usize;
        let a = arb_constraint(&mut rng, 3);
        let b = arb_constraint(&mut rng, 3);
        let t = trader_with_offers(n);
        let all = t.import(&ImportRequest::any("svc")).unwrap();
        let lhs = Constraint::Not(Box::new(Constraint::All(vec![a.clone(), b.clone()])));
        let rhs = Constraint::Any(vec![
            Constraint::Not(Box::new(a)),
            Constraint::Not(Box::new(b)),
        ]);
        for o in all {
            assert_eq!(lhs.matches(o), rhs.matches(o), "{at}: {lhs:?}");
        }
    }
}

/// Transparency masking is monotone: on identical worlds, if an
/// invocation succeeds under some selection, it also succeeds under the
/// full selection (engaging more transparencies never breaks a working
/// call).
mod transparency_monotonicity {
    use super::*;
    use simnet::{FaultAction, LinkSpec, Sim, TopologyBuilder};

    struct Reg {
        iface: InterfaceType,
        v: i64,
    }
    impl Reg {
        fn new() -> Self {
            Reg {
                iface: InterfaceType::new("reg").with_operation(OperationSig::new(
                    "bump",
                    [],
                    ValueKind::Int,
                )),
                v: 0,
            }
        }
    }
    impl ComputationalObject for Reg {
        fn interface(&self) -> &InterfaceType {
            &self.iface
        }
        fn invoke(&mut self, _op: &str, _args: &[Value]) -> Result<Value, OdpError> {
            self.v += 1;
            Ok(Value::Int(self.v))
        }
    }

    /// Builds a fresh 2-replica world with optional crash/restart faults.
    fn build(
        seed: u64,
        crash_primary: bool,
        restart_ms: Option<u64>,
    ) -> (Sim, InterfaceRef, simnet::NodeId, Vec<simnet::NodeId>) {
        let mut b = TopologyBuilder::new();
        let client = b.add_node("client");
        let hosts: Vec<simnet::NodeId> = (0..2).map(|i| b.add_node(format!("h{i}"))).collect();
        b.full_mesh(LinkSpec::lan());
        let mut sim = Sim::new(b.build(), seed);
        sim.register(client, InvokerNode::default());
        for &h in &hosts {
            let mut host = ObjectHost::new();
            host.install("r".into(), Reg::new());
            sim.register(h, host);
        }
        if crash_primary {
            sim.apply_fault(FaultAction::Crash(hosts[0]));
            if let Some(ms) = restart_ms {
                let at = sim.now() + ms * 1_000;
                sim.schedule_fault(at, FaultAction::Restart(hosts[0]));
            }
        }
        let iref = InterfaceRef {
            object: "r".into(),
            node: hosts[0],
            interface: "reg".into(),
        };
        (sim, iref, client, hosts)
    }

    fn try_with(
        selection: TransparencySelection,
        seed: u64,
        crash: bool,
        restart_ms: Option<u64>,
    ) -> bool {
        let (mut sim, iref, client, hosts) = build(seed, crash, restart_ms);
        let mut invoker = TransparentInvoker::new(client, selection);
        invoker
            .locator_mut()
            .register("r".into(), vec![hosts[0], hosts[1]]);
        invoker
            .invoke(&mut sim, &iref, "bump", vec![], OpMode::Read)
            .is_ok()
    }

    #[test]
    fn full_selection_dominates() {
        for case in 0..48 {
            let seed = (7 << 32) | case;
            let at = format!("case {case}, seed {seed:#x}");
            let mut rng = SeededRng::seed_from(seed);
            let mut coin = || rng.chance(0.5);
            let sel = TransparencySelection {
                access: coin(),
                location: coin(),
                migration: coin(),
                replication: coin(),
                failure: coin(),
            };
            let sim_seed = rng.next_u64();
            let crash = rng.chance(0.5);
            let restart = rng.chance(0.5).then(|| rng.range_inclusive(1, 4));
            if try_with(sel, sim_seed, crash, restart) {
                assert!(
                    try_with(TransparencySelection::full(), sim_seed, crash, restart),
                    "{at}: full selection failed where {sel:?} succeeded"
                );
            }
        }
    }
}
