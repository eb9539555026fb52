//! Identifier newtypes used throughout the simulator.

use std::fmt;

/// Identifies a node (site/host) in the simulated network.
///
/// Node ids are dense indices handed out by
/// [`TopologyBuilder::add_node`](crate::TopologyBuilder::add_node) in
/// registration order, which makes them usable as `Vec` indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// Only meaningful for ids previously handed out by a topology builder;
    /// provided so higher layers can persist and restore ids.
    pub const fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Returns the raw dense index.
    pub const fn as_raw(self) -> u32 {
        self.0
    }

    /// Returns the id as a `usize`, for indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a single message send; unique within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub(crate) u64);

impl MessageId {
    /// Returns the raw sequence number.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Identifies a pending timer; unique within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Returns the raw sequence number.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_raw() {
        let n = NodeId::from_raw(7);
        assert_eq!(n.as_raw(), 7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.to_string(), "n7");
    }

    #[test]
    fn ids_order_by_sequence() {
        assert!(MessageId(1) < MessageId(2));
        assert!(TimerId(1) < TimerId(2));
        assert_eq!(MessageId(3).to_string(), "m3");
        assert_eq!(TimerId(4).to_string(), "timer4");
    }
}
