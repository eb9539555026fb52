//! Desktop conferencing (Shared-X-like).
//!
//! The paper's example of *same time / different places* groupware:
//! "Synchronous systems are characterised by desktop conferencing
//! systems such as Shared X" (§2). A [`ConferenceServer`] owns a shared
//! window replicated to every participant ([`ConferenceClient`]), with
//! floor control: only the floor holder may draw, everyone sees every
//! accepted update (strict WYSIWIS).

use cscw_directory::Dn;
use cscw_kernel::Layer;
use cscw_messaging::net::{Message, Node, NodeCtx, NodeId, Payload, Sim};
use mocca::comm::channel::{SessionPdu, Utterance};

/// Commands participants send to the conference.
#[derive(Debug, Clone, PartialEq)]
pub enum ConferenceCmd {
    /// Ask for the floor.
    RequestFloor(Dn),
    /// Give the floor back.
    ReleaseFloor(Dn),
    /// Draw (append a line to the shared window); only honoured for the
    /// floor holder.
    Draw {
        /// Who is drawing.
        who: Dn,
        /// The drawn content.
        line: String,
    },
}

/// The shared-window server: a hosted network node owning the canonical
/// window content and the floor token. It relays accepted updates
/// through an internal [`PlainSessionHub`]-style member list.
#[derive(Debug, Default)]
pub struct ConferenceServer {
    members: Vec<(Dn, NodeId)>,
    window: Vec<String>,
    floor: Option<Dn>,
    rejected_draws: u64,
}

impl ConferenceServer {
    /// Creates an empty conference.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical shared-window content.
    pub fn window(&self) -> &[String] {
        &self.window
    }

    /// The current floor holder.
    pub fn floor(&self) -> Option<&Dn> {
        self.floor.as_ref()
    }

    /// Draw attempts refused for lack of the floor.
    pub fn rejected_draws(&self) -> u64 {
        self.rejected_draws
    }

    fn broadcast(&self, ctx: &mut NodeCtx<'_>, who: &Dn, line: &str, seq: u64) {
        for (_, node) in &self.members {
            ctx.send_sized(
                *node,
                Payload::new(SessionPdu::Broadcast(Utterance {
                    seq,
                    at: ctx.now(),
                    from: who.clone(),
                    content: line.to_owned(),
                })),
                32 + line.len() as u64,
            );
        }
    }
}

impl Node for ConferenceServer {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        // Members join/leave with the ordinary session protocol.
        if let Some(pdu) = msg.payload.downcast_ref::<SessionPdu>() {
            match pdu {
                SessionPdu::Join { who, member_node } => {
                    let (who, member_node) = (who.clone(), *member_node);
                    self.members.retain(|(dn, _)| dn != &who);
                    // Late-joiner synchronisation: replay the current
                    // window so strict WYSIWIS holds from the first
                    // frame the newcomer sees.
                    for (seq, line) in self.window.iter().enumerate() {
                        ctx.send_sized(
                            member_node,
                            Payload::new(SessionPdu::Broadcast(Utterance {
                                seq: seq as u64,
                                at: ctx.now(),
                                from: who.clone(),
                                content: line.clone(),
                            })),
                            32 + line.len() as u64,
                        );
                    }
                    self.members.push((who, member_node));
                }
                SessionPdu::Leave { who } => {
                    let who = who.clone();
                    self.members.retain(|(dn, _)| dn != &who);
                    if self.floor.as_ref() == Some(&who) {
                        self.floor = None;
                    }
                }
                _ => {}
            }
            return;
        }
        let Ok(cmd) = msg.payload.downcast::<ConferenceCmd>() else {
            return;
        };
        match cmd {
            ConferenceCmd::RequestFloor(who) => {
                if self.floor.is_none() {
                    self.floor = Some(who);
                    ctx.telemetry()
                        .incr(Layer::App, "app.conference.floor_grant");
                }
            }
            ConferenceCmd::ReleaseFloor(who) => {
                if self.floor.as_ref() == Some(&who) {
                    self.floor = None;
                }
            }
            ConferenceCmd::Draw { who, line } => {
                if self.floor.as_ref() == Some(&who) {
                    let seq = self.window.len() as u64;
                    self.window.push(line.clone());
                    ctx.telemetry().incr(Layer::App, "app.conference.draw");
                    self.broadcast(ctx, &who, &line, seq);
                } else {
                    self.rejected_draws += 1;
                    ctx.telemetry()
                        .incr(Layer::App, "app.conference.reject_draw");
                }
            }
        }
    }
}

/// A participant's replicated copy of the shared window.
#[derive(Debug, Default)]
pub struct ConferenceClient {
    window: Vec<String>,
}

impl ConferenceClient {
    /// Creates an empty replica.
    pub fn new() -> Self {
        Self::default()
    }

    /// This participant's view of the window.
    pub fn window(&self) -> &[String] {
        &self.window
    }
}

impl Node for ConferenceClient {
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, msg: Message) {
        if let Ok(SessionPdu::Broadcast(u)) = msg.payload.downcast::<SessionPdu>() {
            self.window.push(u.content);
        }
    }
}

/// A participant handle driving the conference from outside.
#[derive(Debug, Clone)]
pub struct Participant {
    /// Identity.
    pub who: Dn,
    /// The participant's workstation node.
    pub node: NodeId,
    /// The conference server node.
    pub server: NodeId,
}

impl Participant {
    /// Joins the conference.
    pub fn join(&self, sim: &mut Sim) {
        sim.send_from(
            self.node,
            self.server,
            Payload::new(SessionPdu::Join {
                who: self.who.clone(),
                member_node: self.node,
            }),
            64,
        );
        sim.run_until_idle();
    }

    /// Requests the floor.
    pub fn request_floor(&self, sim: &mut Sim) {
        sim.send_from(
            self.node,
            self.server,
            Payload::new(ConferenceCmd::RequestFloor(self.who.clone())),
            32,
        );
        sim.run_until_idle();
    }

    /// Releases the floor.
    pub fn release_floor(&self, sim: &mut Sim) {
        sim.send_from(
            self.node,
            self.server,
            Payload::new(ConferenceCmd::ReleaseFloor(self.who.clone())),
            32,
        );
        sim.run_until_idle();
    }

    /// Draws a line into the shared window.
    pub fn draw(&self, sim: &mut Sim, line: &str) {
        sim.send_from(
            self.node,
            self.server,
            Payload::new(ConferenceCmd::Draw {
                who: self.who.clone(),
                line: line.to_owned(),
            }),
            32 + line.len() as u64,
        );
        sim.run_until_idle();
    }

    /// Checks strict WYSIWIS between this client replica and the server
    /// window.
    pub fn window_matches_server(&self, sim: &Sim) -> bool {
        let server = sim
            .node::<ConferenceServer>(self.server)
            .map(ConferenceServer::window);
        let client = sim
            .node::<ConferenceClient>(self.node)
            .map(ConferenceClient::window);
        match (server, client) {
            (Some(s), Some(c)) => s == c,
            _ => false,
        }
    }
}

/// Convenience re-export: a plain session hub, for callers who want
/// unmoderated broadcasting next to the moderated conference.
pub use mocca::comm::channel::SessionHub as PlainSessionHub;

#[cfg(test)]
mod tests {
    use super::*;
    use cscw_messaging::net::{LinkSpec, TopologyBuilder};

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn world() -> (Sim, Participant, Participant) {
        let mut b = TopologyBuilder::new();
        let server = b.add_node("conf-server");
        let tom_ws = b.add_node("tom-ws");
        let wolfgang_ws = b.add_node("wolfgang-ws");
        b.full_mesh(LinkSpec::wan());
        let mut sim = Sim::new(b.build(), 31);
        sim.register(server, ConferenceServer::new());
        sim.register(tom_ws, ConferenceClient::new());
        sim.register(wolfgang_ws, ConferenceClient::new());
        let tom = Participant {
            who: dn("cn=Tom"),
            node: tom_ws,
            server,
        };
        let wolfgang = Participant {
            who: dn("cn=Wolfgang"),
            node: wolfgang_ws,
            server,
        };
        (sim, tom, wolfgang)
    }

    #[test]
    fn floor_holder_draws_everyone_sees() {
        let (mut sim, tom, wolfgang) = world();
        tom.join(&mut sim);
        wolfgang.join(&mut sim);
        tom.request_floor(&mut sim);
        tom.draw(&mut sim, "requirements box");
        tom.draw(&mut sim, "arrow to ODP");
        assert!(tom.window_matches_server(&sim));
        assert!(wolfgang.window_matches_server(&sim));
        let window = sim.node::<ConferenceServer>(tom.server).unwrap().window();
        assert_eq!(window, ["requirements box", "arrow to ODP"]);
    }

    #[test]
    fn draws_without_floor_are_rejected() {
        let (mut sim, tom, wolfgang) = world();
        tom.join(&mut sim);
        wolfgang.join(&mut sim);
        tom.request_floor(&mut sim);
        wolfgang.draw(&mut sim, "sneaky edit");
        let server = sim.node::<ConferenceServer>(tom.server).unwrap();
        assert!(server.window().is_empty());
        assert_eq!(server.rejected_draws(), 1);
        assert!(
            wolfgang.window_matches_server(&sim),
            "both still see the empty window"
        );
    }

    #[test]
    fn floor_is_exclusive_until_released() {
        let (mut sim, tom, wolfgang) = world();
        tom.join(&mut sim);
        wolfgang.join(&mut sim);
        tom.request_floor(&mut sim);
        wolfgang.request_floor(&mut sim);
        assert_eq!(
            sim.node::<ConferenceServer>(tom.server).unwrap().floor(),
            Some(&dn("cn=Tom"))
        );
        tom.release_floor(&mut sim);
        wolfgang.request_floor(&mut sim);
        assert_eq!(
            sim.node::<ConferenceServer>(tom.server).unwrap().floor(),
            Some(&dn("cn=Wolfgang"))
        );
    }

    #[test]
    fn leaving_floor_holder_frees_the_floor() {
        let (mut sim, tom, wolfgang) = world();
        tom.join(&mut sim);
        wolfgang.join(&mut sim);
        tom.request_floor(&mut sim);
        // Tom leaves abruptly.
        sim.send_from(
            tom.node,
            tom.server,
            Payload::new(SessionPdu::Leave {
                who: tom.who.clone(),
            }),
            32,
        );
        sim.run_until_idle();
        assert_eq!(
            sim.node::<ConferenceServer>(tom.server).unwrap().floor(),
            None
        );
        // Late joiner keeps WYSIWIS from here on.
        wolfgang.request_floor(&mut sim);
        wolfgang.draw(&mut sim, "continuing alone");
        assert!(wolfgang.window_matches_server(&sim));
    }

    #[test]
    fn late_joiner_catches_up_to_wysiwis() {
        let (mut sim, tom, wolfgang) = world();
        tom.join(&mut sim);
        tom.request_floor(&mut sim);
        tom.draw(&mut sim, "early line one");
        tom.draw(&mut sim, "early line two");
        // Wolfgang joins after the drawing started…
        wolfgang.join(&mut sim);
        assert!(
            wolfgang.window_matches_server(&sim),
            "join replays the existing window"
        );
        // …and stays in sync afterwards.
        tom.draw(&mut sim, "late line");
        assert!(wolfgang.window_matches_server(&sim));
        assert_eq!(
            sim.node::<ConferenceClient>(wolfgang.node)
                .unwrap()
                .window(),
            ["early line one", "early line two", "late line"]
        );
    }
}
