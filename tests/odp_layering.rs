//! Integration: the Figure 4 layering — CSCW environment operations
//! lowering onto ODP machinery (trader + policy, selective
//! transparencies, viewpoints) — and the trader/organisation coupling
//! of §6.1.

use open_cscw::directory::Dn;
use open_cscw::kernel::Layer;
use open_cscw::mocca::org::{OrgRule, Person, RelationKind, Role, RuleKind};
use open_cscw::mocca::CscwEnvironment;
use open_cscw::odp::{
    ComputationalObject, ImportRequest, InterfaceRef, InterfaceType, InvokerNode, ObjectHost,
    OdpError, OperationSig, TransparencySelection, TransparentInvoker, Value, ValueKind,
};
use open_cscw::simnet::{FaultAction, LinkSpec, Sim, TopologyBuilder};

fn dn(s: &str) -> Dn {
    s.parse().unwrap()
}

/// A shared document-store computational object.
struct DocStore {
    docs: Vec<String>,
    iface: InterfaceType,
}

fn doc_store_type() -> InterfaceType {
    InterfaceType::new("document-store")
        .with_operation(OperationSig::new("put", [ValueKind::Text], ValueKind::Int))
        .with_operation(OperationSig::new("count", [], ValueKind::Int))
}

impl DocStore {
    fn new() -> Self {
        DocStore {
            docs: Vec::new(),
            iface: doc_store_type(),
        }
    }
}

impl ComputationalObject for DocStore {
    fn interface(&self) -> &InterfaceType {
        &self.iface
    }
    fn invoke(&mut self, op: &str, args: &[Value]) -> Result<Value, OdpError> {
        match op {
            "put" => {
                self.docs
                    .push(args[0].as_text().expect("checked").to_owned());
                Ok(Value::Int(self.docs.len() as i64))
            }
            "count" => Ok(Value::Int(self.docs.len() as i64)),
            _ => unreachable!("host checks"),
        }
    }
}

/// Environment whose trader carries the organisational policy, plus a
/// live ODP world serving the traded interface.
struct Layered {
    env: CscwEnvironment,
    sim: Sim,
    invoker: TransparentInvoker,
    iref: InterfaceRef,
}

fn layered() -> Layered {
    let mut env = CscwEnvironment::new();
    {
        let org = env.org();
        let mut org = org.write();
        org.add_person(Person::new(dn("cn=Tom"), "Tom"));
        org.add_person(Person::new(dn("cn=Wolfgang"), "Wolfgang"));
        org.add_role(Role::new(dn("cn=staff"), "staff"));
        org.relate(&dn("cn=Tom"), RelationKind::Occupies, &dn("cn=staff"))
            .unwrap();
        org.add_rule(OrgRule::new(
            dn("cn=staff"),
            RuleKind::Permit,
            "import",
            "service:document-store",
        ));
    }

    let mut b = TopologyBuilder::new();
    let client = b.add_node("client");
    let server = b.add_node("server");
    let backup = b.add_node("backup");
    b.full_mesh(LinkSpec::lan());
    let mut sim = Sim::new(b.build(), 91);
    let mut host = ObjectHost::new();
    host.install("store1".into(), DocStore::new());
    sim.register(server, host);
    let mut backup_host = ObjectHost::new();
    backup_host.install("store1".into(), DocStore::new());
    sim.register(backup, backup_host);
    sim.register(client, InvokerNode::default());

    let iref = InterfaceRef {
        object: "store1".into(),
        node: server,
        interface: "document-store".into(),
    };
    env.trader_mut().register_service_type(doc_store_type());
    env.trader_mut()
        .export(
            "document-store",
            &doc_store_type(),
            iref.clone(),
            vec![("site".to_owned(), Value::from("UK"))],
        )
        .unwrap();

    let mut invoker = TransparentInvoker::new(client, TransparencySelection::full());
    invoker
        .locator_mut()
        .register("store1".into(), vec![server, backup]);
    Layered {
        env,
        sim,
        invoker,
        iref,
    }
}

#[test]
fn import_then_invoke_through_every_layer() {
    let mut l = layered();
    // CSCW layer: Tom imports through the policy-carrying trader.
    let offers = l
        .env
        .trader_mut()
        .import(&ImportRequest::any("document-store").with_importer("cn=Tom"))
        .unwrap();
    assert_eq!(offers.len(), 1);
    let target = offers[0].interface().clone();
    // ODP layer: invoke with full transparency.
    let v = l
        .invoker
        .invoke(
            &mut l.sim,
            &target,
            "put",
            vec![Value::from("progress report")],
            open_cscw::odp::OpMode::Update,
        )
        .unwrap();
    assert_eq!(v, Value::Int(1));
}

#[test]
fn policy_refuses_unauthorised_importers_before_any_network_traffic() {
    let mut l = layered();
    let before = l.sim.telemetry().counter(Layer::Net, "net.sent");
    let err = l
        .env
        .trader_mut()
        .import(&ImportRequest::any("document-store").with_importer("cn=Wolfgang"))
        .unwrap_err();
    assert!(matches!(err, OdpError::NoMatchingOffer { .. }));
    assert_eq!(
        l.sim.telemetry().counter(Layer::Net, "net.sent"),
        before,
        "refused at the trader"
    );
}

#[test]
fn replication_transparency_keeps_the_import_usable_through_crash() {
    let mut l = layered();
    // Replicated update reaches both stores.
    l.invoker
        .invoke(
            &mut l.sim,
            &l.iref.clone(),
            "put",
            vec![Value::from("draft")],
            open_cscw::odp::OpMode::Update,
        )
        .unwrap();
    // Primary crashes; reads keep working via the backup replica.
    l.sim.apply_fault(FaultAction::Crash(l.iref.node));
    let count = l
        .invoker
        .invoke(
            &mut l.sim,
            &l.iref.clone(),
            "count",
            vec![],
            open_cscw::odp::OpMode::Read,
        )
        .unwrap();
    assert_eq!(count, Value::Int(1));
}

#[test]
fn without_transparency_the_same_failure_surfaces() {
    let mut l = layered();
    l.invoker.select(TransparencySelection {
        access: true,
        location: false,
        migration: false,
        replication: false,
        failure: false,
    });
    l.sim.apply_fault(FaultAction::Crash(l.iref.node));
    let err = l
        .invoker
        .invoke(
            &mut l.sim,
            &l.iref.clone(),
            "count",
            vec![],
            open_cscw::odp::OpMode::Read,
        )
        .unwrap_err();
    assert!(matches!(err, OdpError::Unavailable(_)));
}

#[test]
fn viewpoints_describe_the_layered_system_consistently() {
    use open_cscw::odp::{
        ComputationalObjectDecl, ComputationalSpec, EngineeringSpec, EnterprisePolicy,
        EnterpriseSpec, InformationSpec, Placement, PolicyKind, SystemSpec, TechnologySpec,
    };
    // The design trajectory of §6.1: start from the enterprise
    // viewpoint (the CSCW-natural one), then check consistency down to
    // engineering.
    let spec = SystemSpec {
        enterprise: EnterpriseSpec {
            communities: vec!["mocca-project".into()],
            roles: vec!["document-keeper".into()],
            policies: vec![EnterprisePolicy {
                role: "document-keeper".into(),
                kind: PolicyKind::Obligation,
                behaviour: "retain-all-versions".into(),
            }],
        },
        information: InformationSpec {
            invariants: vec!["every stored document has an owner".into()],
            statics: vec!["document set".into()],
            dynamics: vec!["put appends".into()],
        },
        computational: ComputationalSpec {
            objects: vec![ComputationalObjectDecl {
                name: "store1".into(),
                interfaces: vec!["document-store".into()],
                fulfils_role: Some("document-keeper".into()),
            }],
            interface_types: vec!["document-store".into()],
        },
        engineering: EngineeringSpec {
            nodes: vec!["server".into(), "backup".into()],
            placements: vec![Placement {
                object: "store1".into(),
                node: "server".into(),
            }],
            channels: vec![],
        },
        technology: TechnologySpec {
            choices: vec![("links".into(), "simnet-lan".into())],
        },
    };
    assert!(spec.check_consistency().is_ok());

    // Drop the placement: the viewpoints no longer describe one system.
    let mut broken = spec.clone();
    broken.engineering.placements.clear();
    assert!(broken.check_consistency().is_err());
}
