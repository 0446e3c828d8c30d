//! Identifiers used throughout the workspace.
//!
//! A [`NodeId`] is a *dense index* into a [`crate::Graph`]'s node table — it is a
//! simulation artefact and is never read by a distributed algorithm. An [`Ident`] is
//! the node's *identity* in the sense of the paper: a distinct, incorruptible constant
//! known to the node itself and readable by its neighbors. [`Weight`]s play the same
//! role for edges.

use std::fmt;

/// Dense index of a node inside a [`crate::Graph`] (0-based).
///
/// `NodeId` is an addressing convenience of the simulator; distributed algorithms must
/// only ever compare the associated [`Ident`]s and [`Weight`]s, which are the
/// incorruptible constants of the model.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the underlying dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

/// A node identity: a distinct, incorruptible constant in `{1, …, n^c}` (paper §II-A).
///
/// Identities are the only values distributed algorithms may use to break symmetry
/// (e.g. electing the minimum-identity node as root).
pub type Ident = u64;

/// An edge weight. The paper assumes all weights are pairwise distinct and representable
/// on `O(log n)` bits; [`crate::generators::randomize_weights`] draws distinct ones.
pub type Weight = u64;

/// Number of bits needed to store a value of `x` (at least 1).
///
/// Used for the space-accounting of registers and labels: a variable holding values up
/// to `x` costs `bits_for(x)` bits.
#[inline]
pub fn bits_for(x: u64) -> usize {
    if x == 0 {
        1
    } else {
        (64 - x.leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from(7usize);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "n7");
        assert_eq!(format!("{id:?}"), "n7");
    }

    #[test]
    fn node_id_ordering_follows_index() {
        assert!(NodeId(3) < NodeId(10));
        assert_eq!(NodeId(4), NodeId(4));
    }

    #[test]
    fn bits_for_small_values() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
    }

    #[test]
    fn bits_for_large_values() {
        assert_eq!(bits_for(u64::MAX), 64);
        assert_eq!(bits_for(1 << 33), 34);
    }

    #[test]
    fn bits_for_is_exact_at_every_power_of_two_boundary() {
        // The codec layer derives every fixed field width from `bits_for`, so the
        // boundary behavior (2^k − 1 fits in k bits, 2^k needs k + 1) is pinned here
        // for the whole width range — including the bits_for(0) = 1 convention the
        // escape-coded integer fields rely on.
        assert_eq!(bits_for(0), 1);
        for k in 1..64u32 {
            assert_eq!(bits_for((1u64 << k) - 1), k as usize, "2^{k} - 1");
            assert_eq!(bits_for(1u64 << k), k as usize + 1, "2^{k}");
        }
        assert_eq!(bits_for((1u64 << 63) | 1), 64);
    }
}
