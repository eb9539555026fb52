//! The unified communication channel.
//!
//! §4 requires "the provision of many different forms of communication,
//! including both real-time and asynchronous communication". A
//! [`CommChannel`] gives applications one `send` API over two transports:
//!
//! * **synchronous** — a [`SessionHub`] conference bridge on a `simnet`
//!   node relays utterances to all joined members within the session
//!   epoch, keeping an ordered log (which *time transparency* replays to
//!   absent members);
//! * **asynchronous** — the X.400 substrate, via a
//!   [`cscw_messaging::UserAgent`].

use cscw_directory::Dn;
use cscw_kernel::{Layer, Timestamp};
use cscw_messaging::net::{Message, Node, NodeCtx, NodeId, Payload, Sim};
use cscw_messaging::{Ipm, OrAddress, SubmitOptions, UserAgent};
use serde::{Deserialize, Serialize};

/// How a send travelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Relayed live through a session hub.
    Immediate,
    /// Queued through the message transfer system.
    StoreAndForward,
}

/// One utterance in a session log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Utterance {
    /// Sequence number within the session.
    pub seq: u64,
    /// When the hub relayed it.
    pub at: Timestamp,
    /// Who said it.
    pub from: Dn,
    /// What they said.
    pub content: String,
}

/// Hub wire protocol.
#[derive(Debug)]
pub enum SessionPdu {
    /// Join the session: deliveries will reach `member_node`.
    Join {
        /// Who is joining.
        who: Dn,
        /// Where they receive broadcasts.
        member_node: NodeId,
    },
    /// Leave the session.
    Leave {
        /// Who is leaving.
        who: Dn,
    },
    /// Say something to everyone.
    Utter {
        /// Speaker.
        from: Dn,
        /// Content.
        content: String,
    },
    /// A relayed utterance (hub → members).
    Broadcast(Utterance),
}

/// A conference bridge on a `simnet` node: members join, utterances are
/// relayed to everyone (including the speaker, confirming the round
/// trip) and appended to an ordered log.
#[derive(Debug, Default)]
pub struct SessionHub {
    members: Vec<(Dn, NodeId)>,
    log: Vec<Utterance>,
    next_seq: u64,
}

impl SessionHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ordered session log.
    pub fn log(&self) -> &[Utterance] {
        &self.log
    }

    /// Current members.
    pub fn members(&self) -> impl Iterator<Item = &Dn> {
        self.members.iter().map(|(dn, _)| dn)
    }

    /// True when the person is currently joined.
    pub fn has_member(&self, who: &Dn) -> bool {
        self.members.iter().any(|(dn, _)| dn == who)
    }
}

impl Node for SessionHub {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        let Ok(pdu) = msg.payload.downcast::<SessionPdu>() else {
            return;
        };
        match pdu {
            SessionPdu::Join { who, member_node } => {
                self.members.retain(|(dn, _)| dn != &who);
                self.members.push((who, member_node));
                ctx.telemetry().incr(Layer::Env, "env.session.join");
            }
            SessionPdu::Leave { who } => {
                self.members.retain(|(dn, _)| dn != &who);
                ctx.telemetry().incr(Layer::Env, "env.session.leave");
            }
            SessionPdu::Utter { from, content } => {
                let utterance = Utterance {
                    seq: self.next_seq,
                    at: ctx.now(),
                    from,
                    content,
                };
                self.next_seq += 1;
                self.log.push(utterance.clone());
                ctx.telemetry().incr(Layer::Env, "env.session.utter");
                for (_, node) in &self.members {
                    ctx.send_sized(
                        *node,
                        Payload::new(SessionPdu::Broadcast(utterance.clone())),
                        32 + utterance.content.len() as u64,
                    );
                }
            }
            SessionPdu::Broadcast(_) => {}
        }
    }
}

/// A member-side collector of session broadcasts, for applications that
/// do not bring their own node behaviour.
#[derive(Debug, Default)]
pub struct SessionMember {
    received: Vec<Utterance>,
}

impl SessionMember {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything received so far, in hub order.
    pub fn received(&self) -> &[Utterance] {
        &self.received
    }
}

impl Node for SessionMember {
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, msg: Message) {
        if let Ok(SessionPdu::Broadcast(u)) = msg.payload.downcast::<SessionPdu>() {
            self.received.push(u);
        }
    }
}

/// A participant's handle on a synchronous session.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    /// The hub node.
    pub hub: NodeId,
    /// This member's node.
    pub member_node: NodeId,
    /// This member's identity.
    pub who: Dn,
}

impl SessionHandle {
    /// Joins the session (drives the sim until the join lands).
    pub fn join(&self, sim: &mut Sim) {
        sim.send_from(
            self.member_node,
            self.hub,
            Payload::new(SessionPdu::Join {
                who: self.who.clone(),
                member_node: self.member_node,
            }),
            64,
        );
        sim.run_until_idle();
    }

    /// Leaves the session.
    pub fn leave(&self, sim: &mut Sim) {
        sim.send_from(
            self.member_node,
            self.hub,
            Payload::new(SessionPdu::Leave {
                who: self.who.clone(),
            }),
            32,
        );
        sim.run_until_idle();
    }

    /// Says something to the whole session.
    pub fn utter(&self, sim: &mut Sim, content: &str) {
        sim.send_from(
            self.member_node,
            self.hub,
            Payload::new(SessionPdu::Utter {
                from: self.who.clone(),
                content: content.to_owned(),
            }),
            32 + content.len() as u64,
        );
    }
}

/// One send API over both transports.
#[derive(Debug)]
pub enum CommChannel {
    /// A live session.
    Synchronous(SessionHandle),
    /// Store-and-forward messaging to a fixed recipient list.
    Asynchronous {
        /// The sender's user agent.
        agent: UserAgent,
        /// Recipients.
        to: Vec<OrAddress>,
    },
}

impl CommChannel {
    /// Sends `content`; returns how it travelled. The caller drives the
    /// simulation (synchronous sends are relayed as soon as it runs;
    /// asynchronous sends take the MTS path).
    pub fn send(&mut self, sim: &mut Sim, subject: &str, content: &str) -> DeliveryMode {
        match self {
            CommChannel::Synchronous(handle) => {
                handle.utter(sim, content);
                DeliveryMode::Immediate
            }
            CommChannel::Asynchronous { agent, to } => {
                let from = agent.address().clone();
                for recipient in to.iter() {
                    let ipm = Ipm::text(from.clone(), recipient.clone(), subject, content);
                    agent.submit(sim, ipm, SubmitOptions::default());
                }
                DeliveryMode::StoreAndForward
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{LinkSpec, TopologyBuilder};

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn session_world() -> (Sim, NodeId, Vec<SessionHandle>) {
        let mut b = TopologyBuilder::new();
        let hub = b.add_node("hub");
        let m1 = b.add_node("m1");
        let m2 = b.add_node("m2");
        b.full_mesh(LinkSpec::lan());
        let mut sim = Sim::new(b.build(), 8);
        sim.register(hub, SessionHub::new());
        sim.register(m1, SessionMember::new());
        sim.register(m2, SessionMember::new());
        let h1 = SessionHandle {
            hub,
            member_node: m1,
            who: dn("cn=Tom"),
        };
        let h2 = SessionHandle {
            hub,
            member_node: m2,
            who: dn("cn=Wolfgang"),
        };
        (sim, hub, vec![h1, h2])
    }

    #[test]
    fn utterances_reach_all_members_in_order() {
        let (mut sim, hub, handles) = session_world();
        handles[0].join(&mut sim);
        handles[1].join(&mut sim);
        handles[0].utter(&mut sim, "hello");
        handles[1].utter(&mut sim, "hi there");
        sim.run_until_idle();

        let log = sim.node::<SessionHub>(hub).unwrap().log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].content, "hello");
        assert_eq!(log[1].content, "hi there");
        for node in [handles[0].member_node, handles[1].member_node] {
            let got = sim.node::<SessionMember>(node).unwrap().received();
            assert_eq!(got.len(), 2, "every member hears everything");
            assert!(got[0].seq < got[1].seq);
        }
    }

    #[test]
    fn leave_stops_delivery_but_log_continues() {
        let (mut sim, hub, handles) = session_world();
        handles[0].join(&mut sim);
        handles[1].join(&mut sim);
        handles[1].leave(&mut sim);
        handles[0].utter(&mut sim, "anyone there?");
        sim.run_until_idle();
        assert_eq!(
            sim.node::<SessionMember>(handles[1].member_node)
                .unwrap()
                .received()
                .len(),
            0
        );
        assert_eq!(sim.node::<SessionHub>(hub).unwrap().log().len(), 1);
        assert!(!sim
            .node::<SessionHub>(hub)
            .unwrap()
            .has_member(&dn("cn=Wolfgang")));
    }

    #[test]
    fn rejoin_replaces_member_node() {
        let (mut sim, hub, handles) = session_world();
        handles[0].join(&mut sim);
        handles[0].join(&mut sim); // idempotent re-join
        let members: Vec<_> = sim.node::<SessionHub>(hub).unwrap().members().collect();
        assert_eq!(members.len(), 1);
    }

    #[test]
    fn sync_channel_is_immediate_latency() {
        let (mut sim, _hub, handles) = session_world();
        handles[0].join(&mut sim);
        handles[1].join(&mut sim);
        let mut chan = CommChannel::Synchronous(handles[0].clone());
        let sent_at = sim.now();
        let mode = chan.send(&mut sim, "-", "quick question");
        assert_eq!(mode, DeliveryMode::Immediate);
        sim.run_until_idle();
        // Hub relays exactly one LAN hop (1 ms) after the send.
        let got = sim
            .node::<SessionMember>(handles[1].member_node)
            .unwrap()
            .received();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].at, sent_at + 1_000);
    }

    #[test]
    fn async_channel_goes_store_and_forward_to_all_recipients() {
        use cscw_messaging::{MtaNode, OrAddress, UserAgent};
        let mut b = TopologyBuilder::new();
        let mta = b.add_node("mta");
        let sender_ws = b.add_node("sender");
        b.full_mesh(LinkSpec::lan());
        let mut sim = Sim::new(b.build(), 9);
        let sender: OrAddress = "C=UK;O=L;PN=Sender".parse().unwrap();
        let r1: OrAddress = "C=UK;O=L;PN=R1".parse().unwrap();
        let r2: OrAddress = "C=UK;O=L;PN=R2".parse().unwrap();
        let mut mta_node = MtaNode::new("mta");
        for a in [&sender, &r1, &r2] {
            mta_node.register_mailbox(a.clone());
        }
        sim.register(mta, mta_node);

        let agent = UserAgent::new(sender, sender_ws, mta);
        let mut chan = CommChannel::Asynchronous {
            agent,
            to: vec![r1.clone(), r2.clone()],
        };
        let mode = chan.send(&mut sim, "minutes", "attached");
        assert_eq!(mode, DeliveryMode::StoreAndForward);
        sim.run_until_idle();

        let mta_node = sim.node::<MtaNode>(mta).unwrap();
        for r in [&r1, &r2] {
            let inbox = mta_node.mailbox(r).unwrap().inbox();
            assert_eq!(inbox.len(), 1, "{r} missed the channel send");
            assert_eq!(inbox[0].ipm.heading.subject, "minutes");
        }
        // Store-and-forward costs at least one MTA processing delay.
        assert!(sim.now() >= Timestamp::from_millis(100));
    }
}
