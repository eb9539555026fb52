//! Integration: time transparency end-to-end — a live conference, an
//! absent colleague who catches up by mail and contributes back into
//! the session, crossing Figure 1's time axis in both directions.

use open_cscw::directory::Dn;
use open_cscw::messaging::{MtaNode, OrAddress, UserAgent};
use open_cscw::mocca::comm::channel::{SessionHandle, SessionHub, SessionMember};
use open_cscw::mocca::transparency::TimeBridge;
use open_cscw::simnet::{LinkSpec, NodeId, Sim, TopologyBuilder};

fn dn(s: &str) -> Dn {
    s.parse().unwrap()
}

struct World {
    sim: Sim,
    hub: NodeId,
    tom: SessionHandle,
    wolfgang: SessionHandle,
    bridge: TimeBridge,
    bridge_agent: UserAgent,
    leandro: UserAgent,
}

fn world() -> World {
    let mut b = TopologyBuilder::new();
    let hub = b.add_node("session-hub");
    let tom_ws = b.add_node("tom-ws");
    let wolfgang_ws = b.add_node("wolfgang-ws");
    let bridge_node = b.add_node("bridge");
    let mta = b.add_node("mta");
    let leandro_ws = b.add_node("leandro-ws");
    b.full_mesh(LinkSpec::wan());
    let mut sim = Sim::new(b.build(), 81);

    sim.register(hub, SessionHub::new());
    sim.register(tom_ws, SessionMember::new());
    sim.register(wolfgang_ws, SessionMember::new());

    let leandro_addr: OrAddress = "C=ES;O=UPC;PN=Leandro Navarro".parse().unwrap();
    let bridge_addr: OrAddress = "C=UK;O=Lancaster;PN=Session Bridge".parse().unwrap();
    let mut mta_node = MtaNode::new("mta");
    mta_node.register_mailbox(leandro_addr.clone());
    mta_node.register_mailbox(bridge_addr.clone());
    sim.register(mta, mta_node);

    World {
        sim,
        hub,
        tom: SessionHandle {
            hub,
            member_node: tom_ws,
            who: dn("cn=Tom"),
        },
        wolfgang: SessionHandle {
            hub,
            member_node: wolfgang_ws,
            who: dn("cn=Wolfgang"),
        },
        bridge: TimeBridge::new(hub, bridge_node),
        bridge_agent: UserAgent::new(bridge_addr, bridge_node, mta),
        leandro: UserAgent::new(leandro_addr, leandro_ws, mta),
    }
}

#[test]
fn absent_member_catches_up_and_contributes_back() {
    let mut w = world();
    // A live design session Leandro cannot attend (he is in Barcelona,
    // and it is late in Lancaster).
    w.tom.join(&mut w.sim);
    w.wolfgang.join(&mut w.sim);
    w.tom.utter(
        &mut w.sim,
        "proposal: attach the knowledge base to the trader",
    );
    w.sim.run_until_idle(); // Wolfgang replies after hearing Tom
    w.wolfgang.utter(
        &mut w.sim,
        "agreed, and transparency must be user-selectable",
    );
    w.sim.run_until_idle();

    // Time transparency, direction 1: the session log reaches Leandro
    // as ordinary mail.
    let leandro_addr = w.leandro.address().clone();
    let sent = w
        .bridge
        .catch_up(&mut w.sim, &mut w.bridge_agent, &leandro_addr, 0)
        .unwrap();
    assert_eq!(sent, 2);
    let inbox = w.leandro.inbox(&w.sim).unwrap();
    assert_eq!(inbox.len(), 2);
    assert!(inbox[0].ipm.heading.subject.contains("cn=Tom"));
    assert!(inbox[1].ipm.heading.subject.contains("cn=Wolfgang"));

    // Next morning he replies by mail; direction 2: the bridge posts it
    // into the (still running) session.
    w.sim.run_until(w.sim.now() + 12 * 3_600_000_000);
    w.bridge.post_in(
        &mut w.sim,
        dn("cn=Leandro"),
        "also: policies must be able to refuse",
    );

    let hub = w.sim.node::<SessionHub>(w.hub).unwrap();
    assert_eq!(hub.log().len(), 3);
    assert_eq!(hub.log()[2].from, dn("cn=Leandro"));
    // And the live members heard his contribution in real time.
    for node in [w.tom.member_node, w.wolfgang.member_node] {
        let received = w.sim.node::<SessionMember>(node).unwrap().received();
        assert_eq!(received.len(), 3);
        assert!(received[2].content.contains("refuse"));
    }
}

#[test]
fn incremental_catch_up_only_sends_the_missed_tail() {
    let mut w = world();
    w.tom.join(&mut w.sim);
    w.tom.utter(&mut w.sim, "first point");
    w.sim.run_until_idle();

    let leandro_addr = w.leandro.address().clone();
    let first = w
        .bridge
        .catch_up(&mut w.sim, &mut w.bridge_agent, &leandro_addr, 0)
        .unwrap();
    assert_eq!(first, 1);

    w.tom.utter(&mut w.sim, "second point");
    w.tom.utter(&mut w.sim, "third point");
    w.sim.run_until_idle();
    let rest = w
        .bridge
        .catch_up(&mut w.sim, &mut w.bridge_agent, &leandro_addr, 1)
        .unwrap();
    assert_eq!(rest, 2, "only the unseen tail travels");
    assert_eq!(w.leandro.inbox(&w.sim).unwrap().len(), 3);
}

#[test]
fn session_order_is_preserved_through_the_mail_path() {
    let mut w = world();
    w.tom.join(&mut w.sim);
    for i in 0..6 {
        w.tom.utter(&mut w.sim, &format!("point {i}"));
    }
    w.sim.run_until_idle();
    let leandro_addr = w.leandro.address().clone();
    w.bridge
        .catch_up(&mut w.sim, &mut w.bridge_agent, &leandro_addr, 0)
        .unwrap();
    let inbox = w.leandro.inbox(&w.sim).unwrap();
    let order: Vec<String> = inbox.iter().map(|m| m.ipm.body_text()).collect();
    let expected: Vec<String> = (0..6).map(|i| format!("point {i}")).collect();
    assert_eq!(order, expected, "MTS FIFO preserved the session order");
}

/// Helper: first text body of a message.
trait BodyText {
    fn body_text(&self) -> String;
}
impl BodyText for open_cscw::messaging::Ipm {
    fn body_text(&self) -> String {
        self.body
            .iter()
            .find_map(|p| match p {
                open_cscw::messaging::BodyPart::Text(s) => Some(s.clone()),
                _ => None,
            })
            .unwrap_or_default()
    }
}
