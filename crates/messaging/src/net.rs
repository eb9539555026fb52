//! The hosting surface the communication services re-export upward.
//!
//! Figure 4 encapsulates the net layer below the communication
//! services: applications and the environment reach the network
//! through the `Platform` ports, and when they need to *host* a node
//! of their own (a conferencing server, a BBS), they do it through
//! this module rather than naming the net layer directly. The
//! messaging layer legitimately sits on `simnet`, so it is the right
//! place to lend out the node machinery without eroding the layering.
//!
//! Hosted nodes keep time the way every layer does: `ctx.now()` is a
//! [`cscw_kernel::Timestamp`], and delays (`set_timer`, link latency)
//! are plain `u64` microseconds, so no value needs converting on its
//! way out of a node.

pub use simnet::{
    LinkSpec, Message, Node, NodeCtx, NodeId, Payload, QueueDiscipline, SendOutcome, Sim,
    TopologyBuilder,
};
