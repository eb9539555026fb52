//! # simnet — deterministic discrete-event network simulation
//!
//! `simnet` is the testbed substrate for the Open CSCW reproduction: a
//! single-threaded, fully deterministic discrete-event simulator of a
//! message-passing network. Every other crate in the workspace (the
//! X.500-style directory, the X.400-style message system, the ODP
//! engineering layer and the MOCCA CSCW environment) runs its
//! distribution over this crate.
//!
//! ## Why a simulator?
//!
//! The paper this workspace reproduces (Navarro/Prinz/Rodden, ICDCS 1992)
//! assumed early-90s OSI networks and workstation LANs. Its claims are
//! architectural — about layering, openness and transparency — not about
//! absolute numbers, so a simulator that preserves *ordering, latency
//! structure and failure behaviour* is a faithful substitute (see
//! `DESIGN.md` §5).
//!
//! ## Model
//!
//! * [`Topology`]: nodes and directed links with latency, jitter,
//!   bandwidth and loss ([`LinkSpec`]); runtime partitions and crashes.
//! * [`Sim`]: the event loop. Node behaviour implements [`Node`]; handlers
//!   receive a [`NodeCtx`] to send messages and arm timers.
//! * Links are FIFO (see [`sim`] module docs for the full delivery model).
//! * Time is the kernel's [`Timestamp`](cscw_kernel::Timestamp): the
//!   event queue's `now` is the simulation's one clock, and [`Sim`] is
//!   itself a kernel [`Clock`](cscw_kernel::Clock). Spans (latency,
//!   jitter, timer delays) are plain `u64` microseconds.
//! * All randomness derives from one seed
//!   ([`SeededRng`](cscw_kernel::SeededRng)), so runs are reproducible
//!   bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use simnet::*;
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_message(&mut self, ctx: &mut NodeCtx<'_>, msg: Message) {
//!         let n = msg.payload.downcast::<u32>().expect("protocol");
//!         ctx.send(msg.from, Payload::new(n + 1));
//!     }
//! }
//!
//! struct Client(Option<u32>);
//! impl Node for Client {
//!     fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, msg: Message) {
//!         self.0 = msg.payload.downcast::<u32>().ok();
//!     }
//! }
//!
//! let mut b = TopologyBuilder::new();
//! let client = b.add_node("client");
//! let server = b.add_node("server");
//! b.link_both(client, server, LinkSpec::wan());
//! let mut sim = Sim::new(b.build(), 42);
//! sim.register(server, Echo);
//! sim.register(client, Client(None));
//! sim.send_from(client, server, Payload::new(1u32), 16);
//! sim.run_until_idle();
//! assert_eq!(sim.node::<Client>(client).unwrap().0, Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod id;
mod payload;
pub mod sim;
pub mod topology;

pub use id::{MessageId, NodeId, TimerId};
pub use payload::Payload;
pub use sim::{
    DropReason, FaultAction, Message, NetCounters, Node, NodeCtx, SendOutcome, Sim,
    DEFAULT_MESSAGE_SIZE,
};
pub use topology::{shapes, IslandPlan, LinkSpec, QueueDiscipline, Topology, TopologyBuilder};
