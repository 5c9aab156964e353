//! Error type for scheduler and hierarchy configuration.

use std::fmt;

/// Errors raised while building or operating a scheduler hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub enum HpfqError {
    /// A service share was not a finite number from [`crate::MIN_SHARE`]
    /// to 1, or was below its policy's minimum.
    InvalidShare(f64),
    /// The children of a node were assigned shares summing to more than 1.
    ShareOverflow {
        /// The node whose children overflow.
        node: usize,
        /// The resulting sum of child shares.
        sum: f64,
    },
    /// A node id did not refer to an existing node.
    UnknownNode(usize),
    /// A leaf operation was attempted on an internal node or vice versa.
    NotALeaf(usize),
    /// An internal-node operation was attempted on a leaf.
    NotInternal(usize),
    /// A rate was not a finite positive number.
    InvalidRate(f64),
    /// A packet failed admission validation (zero/oversized length or a
    /// non-finite timestamp). Carries the packet's claimed identity so the
    /// drop can be counted against its flow.
    InvalidPacket {
        /// Claimed packet id.
        id: u64,
        /// Claimed flow id.
        flow: u32,
        /// Which field was malformed.
        reason: &'static str,
    },
    /// An operation targeted a leaf that has been removed (or is draining
    /// toward removal) — e.g. an enqueue on a removed flow's leaf.
    NodeDetached(usize),
}

impl fmt::Display for HpfqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HpfqError::InvalidShare(s) => write!(f, "invalid service share {s}"),
            HpfqError::ShareOverflow { node, sum } => {
                write!(
                    f,
                    "children of node {node} have shares summing to {sum} > 1"
                )
            }
            HpfqError::UnknownNode(n) => write!(f, "unknown node id {n}"),
            HpfqError::NotALeaf(n) => write!(f, "node {n} is not a leaf"),
            HpfqError::NotInternal(n) => write!(f, "node {n} is not an internal node"),
            HpfqError::InvalidRate(r) => write!(f, "invalid rate {r}"),
            HpfqError::InvalidPacket { id, flow, reason } => {
                write!(f, "invalid packet id={id} flow={flow}: {reason}")
            }
            HpfqError::NodeDetached(n) => write!(f, "node {n} has been removed from the tree"),
        }
    }
}

impl std::error::Error for HpfqError {}
