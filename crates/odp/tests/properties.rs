//! Property tests for the ODP layer: trader matching soundness,
//! conformance laws, and constraint algebra.

use odp::*;
use proptest::prelude::*;
use simnet::NodeId;

fn ident() -> impl Strategy<Value = String> {
    "[a-z]{1,8}"
}

fn arb_kind() -> impl Strategy<Value = ValueKind> {
    prop_oneof![
        Just(ValueKind::Unit),
        Just(ValueKind::Bool),
        Just(ValueKind::Int),
        Just(ValueKind::Text),
        Just(ValueKind::Name),
        Just(ValueKind::List),
        Just(ValueKind::Any),
    ]
}

fn arb_sig() -> impl Strategy<Value = OperationSig> {
    (ident(), prop::collection::vec(arb_kind(), 0..4), arb_kind())
        .prop_map(|(name, params, result)| OperationSig::new(&name, params, result))
}

fn arb_interface() -> impl Strategy<Value = InterfaceType> {
    (ident(), prop::collection::vec(arb_sig(), 0..5)).prop_map(|(name, sigs)| {
        let mut seen = Vec::new();
        let mut iface = InterfaceType::new(&name);
        for s in sigs {
            // One signature per operation name, as in a real interface.
            if !seen.contains(&s.name().to_owned()) {
                seen.push(s.name().to_owned());
                iface = iface.with_operation(s);
            }
        }
        iface
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Conformance is reflexive.
    #[test]
    fn conformance_reflexive(iface in arb_interface()) {
        prop_assert!(iface.conforms_to(&iface).is_ok());
    }

    /// Adding an operation never breaks conformance to the original.
    #[test]
    fn extension_preserves_conformance(iface in arb_interface(), extra in arb_sig()) {
        prop_assume!(iface.operation(extra.name()).is_none());
        let extended = iface.clone().with_operation(extra);
        prop_assert!(extended.conforms_to(&iface).is_ok());
    }

    /// Everything conforms to the empty interface.
    #[test]
    fn empty_interface_is_top(iface in arb_interface()) {
        let empty = InterfaceType::new("empty");
        prop_assert!(iface.conforms_to(&empty).is_ok());
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

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    let leaf = prop_oneof![
        Just(Constraint::True),
        (0i64..20).prop_map(|b| Constraint::Ge("cost".into(), b)),
        (0i64..20).prop_map(|b| Constraint::Le("cost".into(), b)),
        any::<bool>().prop_map(|b| Constraint::Eq("even".into(), Value::Bool(b))),
        Just(Constraint::Has("cost".into())),
        Just(Constraint::Has("missing".into())),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Constraint::All),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Constraint::Any),
            inner.prop_map(|c| Constraint::Not(Box::new(c))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Import soundness: every returned offer satisfies the constraint;
    /// completeness: offers satisfying it are returned (no limit set).
    #[test]
    fn import_sound_and_complete(n in 1usize..20, c in arb_constraint()) {
        let t = trader_with_offers(n);
        let req = ImportRequest::any("svc").with_constraint(c.clone());
        match t.import(&req) {
            Ok(offers) => {
                for o in &offers {
                    prop_assert!(c.matches(o), "unsound: returned non-matching offer");
                }
                // Count matches independently.
                let expect = (0..n).filter(|_| true).count();
                let _ = expect; // soundness checked above; completeness below
                let all = t.import(&ImportRequest::any("svc")).unwrap();
                let matching = all.iter().filter(|o| c.matches(o)).count();
                prop_assert_eq!(offers.len(), matching, "incomplete result set");
            }
            Err(OdpError::NoMatchingOffer { .. }) => {
                let all = t.import(&ImportRequest::any("svc")).unwrap();
                prop_assert!(all.iter().all(|o| !c.matches(o)), "matches existed but import failed");
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }

    /// Preference ordering really orders, and max_matches truncates.
    #[test]
    fn preference_and_truncation(n in 2usize..20, limit in 1usize..5) {
        let t = trader_with_offers(n);
        let req = ImportRequest::any("svc")
            .with_preference(Preference::Min("cost".into()))
            .with_max_matches(limit);
        let offers = t.import(&req).unwrap();
        prop_assert!(offers.len() <= limit);
        let costs: Vec<i64> =
            offers.iter().map(|o| o.property("cost").unwrap().as_int().unwrap()).collect();
        let mut sorted = costs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&costs, &sorted, "Min preference must sort ascending");
        prop_assert_eq!(costs[0], 0, "cheapest offer first");
    }

    /// Constraint De Morgan over offers.
    #[test]
    fn constraint_de_morgan(n in 1usize..10, a in arb_constraint(), b in arb_constraint()) {
        let t = trader_with_offers(n);
        let all = t.import(&ImportRequest::any("svc")).unwrap();
        let lhs = Constraint::Not(Box::new(Constraint::All(vec![a.clone(), b.clone()])));
        let rhs = Constraint::Any(vec![
            Constraint::Not(Box::new(a)),
            Constraint::Not(Box::new(b)),
        ]);
        for o in all {
            prop_assert_eq!(lhs.matches(o), rhs.matches(o));
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

    fn arb_selection() -> impl Strategy<Value = TransparencySelection> {
        (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(access, location, migration, replication, failure)| {
                TransparencySelection {
                    access,
                    location,
                    migration,
                    replication,
                    failure,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn full_selection_dominates(
            sel in arb_selection(),
            seed in any::<u64>(),
            crash in any::<bool>(),
            restart in prop::option::of(1u64..5),
        ) {
            let partial_ok = try_with(sel, seed, crash, restart);
            if partial_ok {
                let full_ok = try_with(TransparencySelection::full(), seed, crash, restart);
                prop_assert!(full_ok, "full selection failed where {sel:?} succeeded");
            }
        }
    }
}
