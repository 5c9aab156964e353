//! The share tree describing an H-GPS hierarchy (paper §2.2): each node
//! carries a share `φ` of its parent; leaves hold the fluid packet queues.

use hpfq_core::{vtime, HpfqError};

/// Identifies a node of a [`FluidTree`]; the root is index 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FluidNodeId(pub usize);

impl FluidNodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct TreeNode {
    pub parent: Option<usize>,
    pub children: Vec<usize>,
    pub phi: f64,
    pub child_phi_sum: f64,
    pub is_leaf: bool,
}

/// The share hierarchy for an H-GPS fluid server. A depth-1 tree describes
/// a one-level GPS server.
#[derive(Debug, Clone)]
pub struct FluidTree {
    pub(crate) nodes: Vec<TreeNode>,
}

impl Default for FluidTree {
    fn default() -> Self {
        Self::new()
    }
}

impl FluidTree {
    /// Creates a tree containing only the root (the physical link).
    pub fn new() -> Self {
        FluidTree {
            nodes: vec![TreeNode {
                parent: None,
                children: Vec::new(),
                phi: 1.0,
                child_phi_sum: 0.0,
                is_leaf: false,
            }],
        }
    }

    /// The root node.
    pub fn root(&self) -> FluidNodeId {
        FluidNodeId(0)
    }

    fn add(
        &mut self,
        parent: FluidNodeId,
        phi: f64,
        is_leaf: bool,
    ) -> Result<FluidNodeId, HpfqError> {
        if !(phi.is_finite() && phi > 0.0 && phi <= 1.0) {
            return Err(HpfqError::InvalidShare(phi));
        }
        let p = self
            .nodes
            .get(parent.0)
            .ok_or(HpfqError::UnknownNode(parent.0))?;
        if p.is_leaf {
            return Err(HpfqError::NotInternal(parent.0));
        }
        let sum = p.child_phi_sum + phi;
        if vtime::strictly_after(sum, 1.0) {
            return Err(HpfqError::ShareOverflow {
                node: parent.0,
                sum,
            });
        }
        let idx = self.nodes.len();
        self.nodes[parent.0].children.push(idx);
        self.nodes[parent.0].child_phi_sum += phi;
        self.nodes.push(TreeNode {
            parent: Some(parent.0),
            children: Vec::new(),
            phi,
            child_phi_sum: 0.0,
            is_leaf,
        });
        Ok(FluidNodeId(idx))
    }

    /// Adds an internal node (link-sharing class) with share `phi` of its
    /// parent.
    pub fn add_internal(
        &mut self,
        parent: FluidNodeId,
        phi: f64,
    ) -> Result<FluidNodeId, HpfqError> {
        self.add(parent, phi, false)
    }

    /// Adds a leaf (a session) with share `phi` of its parent.
    pub fn add_leaf(&mut self, parent: FluidNodeId, phi: f64) -> Result<FluidNodeId, HpfqError> {
        self.add(parent, phi, true)
    }

    /// Number of nodes including the root.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `n` is a leaf.
    pub fn is_leaf(&self, n: FluidNodeId) -> bool {
        self.nodes[n.0].is_leaf
    }

    /// Share of `n` relative to its parent.
    pub fn phi(&self, n: FluidNodeId) -> f64 {
        self.nodes[n.0].phi
    }

    /// Parent of `n` (`None` for the root).
    pub fn parent(&self, n: FluidNodeId) -> Option<FluidNodeId> {
        self.nodes[n.0].parent.map(FluidNodeId)
    }

    /// Children of `n`, in insertion order.
    pub fn children(&self, n: FluidNodeId) -> Vec<FluidNodeId> {
        self.nodes[n.0]
            .children
            .iter()
            .copied()
            .map(FluidNodeId)
            .collect()
    }

    /// All leaves, in creation order.
    pub fn leaves(&self) -> Vec<FluidNodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_leaf)
            .map(FluidNodeId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut t = FluidTree::new();
        let a = t.add_internal(t.root(), 0.8).unwrap();
        let b = t.add_leaf(t.root(), 0.2).unwrap();
        let a1 = t.add_leaf(a, 0.9375).unwrap();
        let a2 = t.add_leaf(a, 0.0625).unwrap();
        assert_eq!(t.leaves(), vec![b, a1, a2]);
        assert_eq!(t.children(a), vec![a1, a2]);
        assert!(t.add_leaf(t.root(), 0.1).is_err()); // overflow
        assert!(t.add_leaf(b, 0.5).is_err()); // leaf parent
    }
}
