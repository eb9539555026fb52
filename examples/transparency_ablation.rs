//! §4/§6.1 as a runnable demo: transparency is *selective* and
//! *user-tailorable*. The same operations run with transparencies
//! engaged and ablated, at both layers — the five ODP distribution
//! transparencies and the four CSCW transparencies.
//!
//! Run with: `cargo run --example transparency_ablation`

use open_cscw::kernel::Layer;
use open_cscw::mocca::tailor::{Constraint, Scope, TailorContext};
use open_cscw::mocca::transparency::CscwTransparencySelection;
use open_cscw::mocca::CscwEnvironment;
use open_cscw::odp::{
    ComputationalObject, InterfaceRef, InterfaceType, InvokerNode, ObjectHost, OdpError, OpMode,
    OperationSig, TransparencySelection, TransparentInvoker, Value, ValueKind,
};
use open_cscw::simnet::{FaultAction, LinkSpec, Sim, TopologyBuilder};

struct Register {
    v: i64,
    iface: InterfaceType,
}
impl Register {
    fn new() -> Self {
        Register {
            v: 0,
            iface: InterfaceType::new("register")
                .with_operation(OperationSig::new("set", [ValueKind::Int], ValueKind::Unit))
                .with_operation(OperationSig::new("get", [], ValueKind::Int)),
        }
    }
}
impl ComputationalObject for Register {
    fn interface(&self) -> &InterfaceType {
        &self.iface
    }
    fn invoke(&mut self, op: &str, args: &[Value]) -> Result<Value, OdpError> {
        match op {
            "set" => {
                self.v = args[0].as_int().expect("checked");
                Ok(Value::Unit)
            }
            _ => Ok(Value::Int(self.v)),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- ODP layer: the distribution transparency ladder -------------------
    let mut b = TopologyBuilder::new();
    let client = b.add_node("client");
    let h0 = b.add_node("h0");
    let h1 = b.add_node("h1");
    b.full_mesh(LinkSpec::lan());
    let mut sim = Sim::new(b.build(), 42);
    for h in [h0, h1] {
        let mut host = ObjectHost::new();
        host.install("r".into(), Register::new());
        sim.register(h, host);
    }
    sim.register(client, InvokerNode::default());
    let iref = InterfaceRef {
        object: "r".into(),
        node: h0,
        interface: "register".into(),
    };

    println!("ODP selective transparency — the same `set(7)` under different selections:\n");
    let cases = [
        ("none", TransparencySelection::none()),
        ("full", TransparencySelection::full()),
    ];
    for (label, sel) in cases {
        let mut invoker = TransparentInvoker::new(client, sel);
        invoker.locator_mut().register("r".into(), vec![h0, h1]);
        let before = sim.telemetry().counter(Layer::Net, "net.sent");
        let outcome = invoker.invoke(&mut sim, &iref, "set", vec![Value::Int(7)], OpMode::Update);
        let msgs = sim.telemetry().counter(Layer::Net, "net.sent") - before;
        println!(
            "  selection={label:<5} engaged={} result={:<30} messages={msgs}",
            sel.engaged_count(),
            match outcome {
                Ok(_) => "ok".to_owned(),
                Err(e) => format!("{e}"),
            },
        );
    }
    println!(
        "  (none: remote call refused — 1992 heterogeneity; full: update reaches both replicas)\n"
    );

    // Crash the primary: only failure/replication transparency survives it.
    sim.apply_fault(FaultAction::Crash(h0));
    for (label, sel) in cases {
        let mut invoker = TransparentInvoker::new(client, sel);
        invoker.locator_mut().register("r".into(), vec![h0, h1]);
        let outcome = invoker.invoke(&mut sim, &iref, "get", vec![], OpMode::Read);
        println!(
            "  after primary crash, selection={label:<5}: {}",
            match outcome {
                Ok(v) => format!("read {v} from the surviving replica"),
                Err(e) => format!("{e}"),
            }
        );
    }

    // ---- CSCW layer: the user tailors the selection -------------------------
    println!("\nCSCW transparencies are a tailorable parameter, per §6.1:\n");
    let mut env = CscwEnvironment::new();
    env.tailoring_mut()
        .declare("activity-isolation", Constraint::AnyBool, Value::Bool(true))?;
    // The organisation default is isolation ON; one power user turns it
    // OFF for themselves (they want to see everything).
    env.tailoring_mut().set(
        "activity-isolation",
        Scope::User("cn=Tom".into()),
        Value::Bool(false),
    )?;
    for user in ["cn=Tom", "cn=Wolfgang"] {
        let ctx = TailorContext {
            user: user.into(),
            groups: vec![],
            organisation: None,
        };
        let isolation = env.tailoring().effective("activity-isolation", &ctx)?;
        println!("  {user}: activity isolation = {isolation}");
    }
    let mut selection = CscwTransparencySelection::full();
    selection.activity = false; // applying Tom's choice
    env.select_transparencies(selection);
    println!(
        "  environment now running with {}/4 CSCW transparencies engaged",
        env.transparencies().engaged_count()
    );
    Ok(())
}
