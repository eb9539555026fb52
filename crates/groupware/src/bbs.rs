//! Computer conferencing (COM-like).
//!
//! The paper's *different times / different places* quadrant: "the
//! majority of asynchronous systems are based around either message
//! systems or computer conferencing systems" citing Palme's COM (§2).
//!
//! A [`BbsServer`] hosts named conferences of threaded entries. Posts
//! arrive over the simulated network; subscribers are notified through
//! the X.400 substrate and read the conference later — nothing requires
//! simultaneous presence.

use std::sync::Arc;

use cscw_directory::Dn;
use cscw_kernel::{Layer, Timestamp};
use cscw_messaging::net::{Message, Node, NodeCtx, NodeId, Payload, Sim};
use cscw_messaging::{Envelope, Ipm, MtsPdu, OrAddress};

use crate::GroupwareError;

/// One entry in a conference.
#[derive(Debug, Clone, PartialEq)]
pub struct BbsEntry {
    /// Entry id, unique within the server.
    pub id: u64,
    /// The conference it belongs to.
    pub conference: String,
    /// Author.
    pub author: Dn,
    /// Subject line.
    pub subject: String,
    /// Body text.
    pub text: String,
    /// Threading: the entry this replies to.
    pub in_reply_to: Option<u64>,
    /// When the server accepted it, in platform time — the entry
    /// outlives any particular network run, so it carries the
    /// kernel's neutral instant type rather than a net-layer one.
    pub at: Timestamp,
}

/// Commands sent to the BBS over the network.
#[derive(Debug)]
pub enum BbsCmd {
    /// Create a conference (idempotent).
    CreateConference {
        /// Conference name.
        name: String,
    },
    /// Post an entry.
    Post {
        /// Target conference.
        conference: String,
        /// Author.
        author: Dn,
        /// Subject.
        subject: String,
        /// Body.
        text: String,
        /// Reply threading.
        in_reply_to: Option<u64>,
    },
    /// Subscribe a mailbox to notifications for a conference.
    Subscribe {
        /// Conference name.
        conference: String,
        /// Where to send notifications.
        mailbox: OrAddress,
    },
}

/// The conferencing server node.
#[derive(Debug)]
pub struct BbsServer {
    /// The server's own originator address for notifications.
    address: OrAddress,
    /// Its home MTA for outgoing notifications.
    mta: NodeId,
    conferences: Vec<String>,
    entries: Vec<BbsEntry>,
    subscriptions: Vec<(String, OrAddress)>,
    next_id: u64,
    next_msg_id: u64,
    rejected_posts: u64,
}

impl BbsServer {
    /// Creates a server that notifies through `mta` as `address`.
    pub fn new(address: OrAddress, mta: NodeId) -> Self {
        BbsServer {
            address,
            mta,
            conferences: Vec::new(),
            entries: Vec::new(),
            subscriptions: Vec::new(),
            next_id: 0,
            next_msg_id: 0,
            rejected_posts: 0,
        }
    }

    /// The entries of a conference, in arrival order.
    pub fn conference(&self, name: &str) -> Vec<&BbsEntry> {
        self.entries
            .iter()
            .filter(|e| e.conference == name)
            .collect()
    }

    /// All conference names.
    pub fn conferences(&self) -> &[String] {
        &self.conferences
    }

    /// The reply thread rooted at an entry (depth-first, children in
    /// arrival order).
    pub fn thread(&self, root: u64) -> Vec<&BbsEntry> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if let Some(entry) = self.entries.iter().find(|e| e.id == id) {
                out.push(entry);
                // Push children in reverse so the earliest pops first.
                let children: Vec<u64> = self
                    .entries
                    .iter()
                    .filter(|e| e.in_reply_to == Some(id))
                    .map(|e| e.id)
                    .collect();
                for child in children.into_iter().rev() {
                    stack.push(child);
                }
            }
        }
        out
    }

    /// Posts rejected (unknown conference / bad reply target).
    pub fn rejected_posts(&self) -> u64 {
        self.rejected_posts
    }

    fn notify(&mut self, ctx: &mut NodeCtx<'_>, entry: &BbsEntry) {
        let recipients: Vec<OrAddress> = self
            .subscriptions
            .iter()
            .filter(|(c, _)| c == &entry.conference)
            .map(|(_, a)| a.clone())
            .collect();
        if recipients.is_empty() {
            return;
        }
        let msg_id = (u64::from(ctx.id().as_raw()) << 40) | self.next_msg_id;
        self.next_msg_id += 1;
        let envelope = Envelope::new(msg_id, self.address.clone(), recipients.clone(), ctx.now());
        let ipm = Ipm::text(
            self.address.clone(),
            recipients[0].clone(),
            &format!("[{}] {}", entry.conference, entry.subject),
            &format!("{} wrote:\n{}", entry.author, entry.text),
        );
        let size = ipm.wire_size();
        ctx.telemetry().incr(Layer::App, "app.bbs.notify");
        ctx.send_sized(
            self.mta,
            Payload::new(MtsPdu::Transfer {
                envelope,
                ipm: Arc::new(ipm),
            }),
            size,
        );
    }
}

impl Node for BbsServer {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
        let Ok(cmd) = msg.payload.downcast::<BbsCmd>() else {
            return;
        };
        match cmd {
            BbsCmd::CreateConference { name } => {
                if !self.conferences.contains(&name) {
                    self.conferences.push(name);
                }
            }
            BbsCmd::Subscribe {
                conference,
                mailbox,
            } => {
                let key = (conference, mailbox);
                if !self.subscriptions.contains(&key) {
                    self.subscriptions.push(key);
                }
            }
            BbsCmd::Post {
                conference,
                author,
                subject,
                text,
                in_reply_to,
            } => {
                let conference_exists = self.conferences.contains(&conference);
                let parent_ok = match in_reply_to {
                    None => true,
                    Some(id) => self
                        .entries
                        .iter()
                        .any(|e| e.id == id && e.conference == conference),
                };
                if !conference_exists || !parent_ok {
                    self.rejected_posts += 1;
                    ctx.telemetry().incr(Layer::App, "app.bbs.reject");
                    return;
                }
                let entry = BbsEntry {
                    id: self.next_id,
                    conference,
                    author,
                    subject,
                    text,
                    in_reply_to,
                    at: ctx.now(),
                };
                self.next_id += 1;
                ctx.telemetry().incr(Layer::App, "app.bbs.post");
                self.notify(ctx, &entry);
                self.entries.push(entry);
            }
        }
    }
}

/// A user's handle on the BBS.
#[derive(Debug, Clone)]
pub struct BbsClient {
    /// The user's identity.
    pub who: Dn,
    /// The user's workstation node.
    pub node: NodeId,
    /// The server node.
    pub server: NodeId,
}

impl BbsClient {
    /// Creates a conference.
    pub fn create_conference(&self, sim: &mut Sim, name: &str) {
        sim.send_from(
            self.node,
            self.server,
            Payload::new(BbsCmd::CreateConference {
                name: name.to_owned(),
            }),
            64,
        );
        sim.run_until_idle();
    }

    /// Subscribes a mailbox to a conference's notifications.
    pub fn subscribe(&self, sim: &mut Sim, conference: &str, mailbox: OrAddress) {
        sim.send_from(
            self.node,
            self.server,
            Payload::new(BbsCmd::Subscribe {
                conference: conference.to_owned(),
                mailbox,
            }),
            64,
        );
        sim.run_until_idle();
    }

    /// Posts an entry (fire-and-forget: the author need not wait).
    pub fn post(
        &self,
        sim: &mut Sim,
        conference: &str,
        subject: &str,
        text: &str,
        in_reply_to: Option<u64>,
    ) {
        sim.send_from(
            self.node,
            self.server,
            Payload::new(BbsCmd::Post {
                conference: conference.to_owned(),
                author: self.who.clone(),
                subject: subject.to_owned(),
                text: text.to_owned(),
                in_reply_to,
            }),
            64 + text.len() as u64,
        );
    }

    /// Reads a conference (whenever the user next sits down).
    ///
    /// # Errors
    ///
    /// [`GroupwareError::NoSuchConference`] when absent.
    pub fn read<'a>(
        &self,
        sim: &'a Sim,
        conference: &str,
    ) -> Result<Vec<&'a BbsEntry>, GroupwareError> {
        let server = sim
            .node::<BbsServer>(self.server)
            .ok_or_else(|| GroupwareError::NoSuchConference(conference.to_owned()))?;
        if !server.conferences().iter().any(|c| c == conference) {
            return Err(GroupwareError::NoSuchConference(conference.to_owned()));
        }
        Ok(server.conference(conference))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscw_messaging::net::{LinkSpec, TopologyBuilder};
    use cscw_messaging::MtaNode;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    struct World {
        sim: Sim,
        server: NodeId,
        tom: BbsClient,
        wolfgang: BbsClient,
        wolfgang_mailbox: OrAddress,
        mta: NodeId,
    }

    fn world() -> World {
        let mut b = TopologyBuilder::new();
        let server = b.add_node("bbs");
        let mta = b.add_node("mta");
        let tom_ws = b.add_node("tom-ws");
        let wolfgang_ws = b.add_node("wolfgang-ws");
        b.full_mesh(LinkSpec::wan());
        let mut sim = Sim::new(b.build(), 41);

        let bbs_addr: OrAddress = "C=UK;O=Lancaster;PN=COM Server".parse().unwrap();
        let wolfgang_mailbox: OrAddress = "C=DE;O=GMD;PN=Wolfgang Prinz".parse().unwrap();
        let mut mta_node = MtaNode::new("mta");
        mta_node.register_mailbox(bbs_addr.clone());
        mta_node.register_mailbox(wolfgang_mailbox.clone());
        sim.register(mta, mta_node);
        sim.register(server, BbsServer::new(bbs_addr, mta));

        World {
            sim,
            server,
            tom: BbsClient {
                who: dn("cn=Tom"),
                node: tom_ws,
                server,
            },
            wolfgang: BbsClient {
                who: dn("cn=Wolfgang"),
                node: wolfgang_ws,
                server,
            },
            wolfgang_mailbox,
            mta,
        }
    }

    #[test]
    fn post_and_read_later() {
        let mut w = world();
        w.tom.create_conference(&mut w.sim, "odp-discussion");
        w.tom.post(
            &mut w.sim,
            "odp-discussion",
            "Will ODP help?",
            "We think yes.",
            None,
        );
        // Time passes; Wolfgang reads much later.
        w.sim.run_until(Timestamp::from_secs(3600));
        let entries = w.wolfgang.read(&w.sim, "odp-discussion").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].subject, "Will ODP help?");
        assert!(w.wolfgang.read(&w.sim, "ghost").is_err());
    }

    #[test]
    fn threads_nest_replies() {
        let mut w = world();
        w.tom.create_conference(&mut w.sim, "c");
        w.tom.post(&mut w.sim, "c", "root", "r", None);
        w.sim.run_until_idle();
        w.wolfgang
            .post(&mut w.sim, "c", "re: root", "reply1", Some(0));
        w.sim.run_until_idle();
        w.tom
            .post(&mut w.sim, "c", "re: re: root", "reply2", Some(1));
        w.wolfgang
            .post(&mut w.sim, "c", "re: root (2)", "reply3", Some(0));
        w.sim.run_until_idle();
        let server = w.sim.node::<BbsServer>(w.server).unwrap();
        let thread: Vec<u64> = server.thread(0).iter().map(|e| e.id).collect();
        assert_eq!(
            thread,
            vec![0, 1, 2, 3],
            "depth-first with children in order"
        );
    }

    #[test]
    fn bad_posts_are_rejected() {
        let mut w = world();
        w.tom.post(&mut w.sim, "nonexistent", "s", "t", None);
        w.sim.run_until_idle();
        w.tom.create_conference(&mut w.sim, "c");
        w.tom.post(&mut w.sim, "c", "s", "t", Some(999));
        w.sim.run_until_idle();
        assert_eq!(
            w.sim.node::<BbsServer>(w.server).unwrap().rejected_posts(),
            2
        );
    }

    #[test]
    fn subscribers_are_notified_by_mail() {
        let mut w = world();
        w.tom.create_conference(&mut w.sim, "c");
        w.wolfgang
            .subscribe(&mut w.sim, "c", w.wolfgang_mailbox.clone());
        w.tom.post(&mut w.sim, "c", "news", "content", None);
        w.sim.run_until_idle();
        let mta = w.sim.node::<MtaNode>(w.mta).unwrap();
        let inbox = mta.mailbox(&w.wolfgang_mailbox).unwrap().inbox();
        assert_eq!(inbox.len(), 1);
        assert!(inbox[0].ipm.heading.subject.contains("[c] news"));
        assert_eq!(w.sim.telemetry().counter(Layer::App, "app.bbs.notify"), 1);
    }
}
