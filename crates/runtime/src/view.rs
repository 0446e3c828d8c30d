//! The closed 1-hop neighborhood a node reads during an atomic step.
//!
//! In the state model a node sees its own register, the registers of its neighbors, and
//! the incorruptible constants of the model: its identity, its neighbors' identities and
//! the weights of its incident edges (paper §II-A). A [`View`] packages exactly this —
//! algorithms never get access to anything else, which keeps them honest about locality.
//!
//! A view is **zero-allocation**: it borrows a CSR slice of per-neighbor constants
//! ([`NeighborInfo`], precomputed once per executor since identities and weights never
//! change) and a register slice. [`View::neighbors`] is a lazy iterator over that
//! slice — building and consuming a view performs no heap allocation, which is what
//! makes guard evaluation cheap enough to run millions of times per second.
//!
//! Registers are **locally indexed**: the executor reads the closed neighborhood out
//! of its configuration store into a reused scratch slice ([`View::over_decoded`]:
//! `states[i]` is the register of `neighbors[i]`, the node's own register is last),
//! and the view borrows that slice. The read is a decode from the packed store and a
//! clone from the struct-backed reference store; algorithms see the same values
//! either way, so both stores evaluate identical guards — the property the
//! packed-vs-struct differential oracle pins.

use stst_graph::{Ident, NodeId, Weight};

use crate::codec::{CodecCtx, FieldReader};

/// The incorruptible constants a node knows about one neighbor: its dense index (for
/// the simulator), its identity and the weight of the connecting edge. Register
/// contents are *not* stored here — they change every step and are read through the
/// view's register slice instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeighborInfo {
    /// Dense index of the neighbor (simulation bookkeeping, not readable information).
    pub node: NodeId,
    /// The neighbor's identity.
    pub ident: Ident,
    /// Weight of the connecting edge.
    pub weight: Weight,
}

/// What a node sees of one neighbor: the neighbor's identity, the weight of the
/// connecting edge (both incorruptible constants) and the neighbor's register.
#[derive(Debug)]
pub struct NeighborView<'a, S> {
    /// Dense index of the neighbor (simulation bookkeeping, not readable information —
    /// algorithms should use [`NeighborView::ident`] to name nodes).
    pub node: NodeId,
    /// The neighbor's identity.
    pub ident: Ident,
    /// Weight of the connecting edge.
    pub weight: Weight,
    /// The neighbor's current register content (read-only).
    pub state: &'a S,
}

impl<S> Clone for NeighborView<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for NeighborView<'_, S> {}

/// The closed neighborhood view handed to [`crate::Algorithm::step`].
///
/// Construct one with [`View::over_decoded`]; read neighbors through the
/// allocation-free [`View::neighbors`] iterator.
#[derive(Clone, Copy, Debug)]
pub struct View<'a, S> {
    /// Dense index of the node taking the step (simulation bookkeeping).
    pub node: NodeId,
    /// The node's own identity.
    pub ident: Ident,
    /// Total number of nodes `n`. The paper allows nodes to know (a polynomial upper
    /// bound on) `n`, since identities live in `{1, …, n^c}`; algorithms use it only to
    /// bound counters.
    pub n: usize,
    /// The node's own register content.
    pub state: &'a S,
    /// Per-neighbor constants, one entry per incident edge, in a fixed (but arbitrary)
    /// port order.
    neighbors: &'a [NeighborInfo],
    /// The closed neighborhood's registers in port order, the node's own register
    /// last (neighbors are read through it lazily; locality is preserved because the
    /// iterator only dereferences the listed ports).
    states: &'a [S],
}

impl<'a, S> View<'a, S> {
    /// Builds the view of `node` over a **locally indexed scratch slice**: the executor
    /// reads the closed neighborhood once per guard evaluation into a reused buffer
    /// where `decoded[i]` is the register of `neighbors[i]` and
    /// `decoded[neighbors.len()]` is the node's own register. The view borrows that
    /// scratch, so building it allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `decoded` holds no register for the node itself (debug builds also
    /// check that it holds exactly one register per neighbor plus the node's own).
    pub fn over_decoded(
        node: NodeId,
        ident: Ident,
        n: usize,
        neighbors: &'a [NeighborInfo],
        decoded: &'a [S],
    ) -> Self {
        debug_assert_eq!(
            decoded.len(),
            neighbors.len() + 1,
            "one register per neighbor plus the node's own"
        );
        View {
            node,
            ident,
            n,
            state: &decoded[neighbors.len()],
            neighbors,
            states: decoded,
        }
    }

    /// Degree of the node in the communication graph.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Allocation-free iterator over the neighbors (identity, edge weight and current
    /// register of each).
    pub fn neighbors(&self) -> Neighbors<'a, S> {
        Neighbors {
            neighbors: self.neighbors,
            states: self.states,
            front: 0,
            back: self.neighbors.len(),
        }
    }

    /// The neighbor with identity `ident`, if adjacent.
    pub fn neighbor_with_ident(&self, ident: Ident) -> Option<NeighborView<'a, S>> {
        self.neighbors().find(|nb| nb.ident == ident)
    }

    /// `true` if some neighbor carries identity `ident`.
    pub fn has_neighbor(&self, ident: Ident) -> bool {
        self.neighbor_with_ident(ident).is_some()
    }

    /// The smallest identity in the closed neighborhood (the node and its neighbors).
    pub fn min_ident_in_closed_neighborhood(&self) -> Ident {
        self.neighbors
            .iter()
            .map(|nb| nb.ident)
            .chain(std::iter::once(self.ident))
            .min()
            .expect("the closed neighborhood contains the node itself")
    }
}

/// The **undecoded** closed neighborhood: what a guard screen reads.
///
/// Where [`View`] hands an algorithm decoded registers, a `RawView` hands it bit
/// cursors ([`FieldReader`]) straight into the packed store's heap — the same closed
/// 1-hop neighborhood (own slot plus one slot per port, same port order), but field
/// extraction is shift/mask with **no `decode_from` and no scratch fill**. Screens use
/// it to answer "definitely disabled?" (or even to produce the full next state) on the
/// fault-free fast path; any fired escape bit makes extraction return `None` and the
/// executor falls back to the full-decode [`View`] path, so the two tiers are
/// bit-identical by construction (pinned by `tests/packed_store_oracle.rs`).
#[derive(Clone, Copy, Debug)]
pub struct RawView<'a> {
    /// Dense index of the node under evaluation (simulation bookkeeping).
    pub node: NodeId,
    /// The node's own identity.
    pub ident: Ident,
    /// Total number of nodes `n` (same bound [`View::n`] exposes).
    pub n: usize,
    /// Per-neighbor constants in port order (same CSR slice the decoded view uses).
    neighbors: &'a [NeighborInfo],
    /// The packed heap and its slot stride.
    heap: &'a [u64],
    stride: u64,
    /// The instance's field widths (what screens pass to [`FieldReader`]).
    ctx: &'a CodecCtx,
}

impl<'a> RawView<'a> {
    /// Builds the raw view of `node` over the packed heap (`heap`/`stride` as returned
    /// by `ConfigStore::raw_parts`).
    pub fn new(
        node: NodeId,
        ident: Ident,
        n: usize,
        neighbors: &'a [NeighborInfo],
        heap: &'a [u64],
        stride: u32,
        ctx: &'a CodecCtx,
    ) -> Self {
        RawView {
            node,
            ident,
            n,
            neighbors,
            heap,
            stride: stride as u64,
            ctx,
        }
    }

    /// Degree of the node in the communication graph.
    #[inline]
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// The incorruptible constants of the neighbor at `port`.
    #[inline]
    pub fn neighbor(&self, port: usize) -> NeighborInfo {
        self.neighbors[port]
    }

    /// The instance field widths.
    #[inline]
    pub fn ctx(&self) -> &'a CodecCtx {
        self.ctx
    }

    /// A field cursor at the start of the node's own slot.
    #[inline]
    pub fn own_reader(&self) -> FieldReader<'a> {
        FieldReader::new(self.heap, self.node.0 as u64 * self.stride)
    }

    /// A field cursor at the start of the slot of the neighbor at `port`.
    #[inline]
    pub fn reader_of(&self, port: usize) -> FieldReader<'a> {
        FieldReader::new(self.heap, self.neighbors[port].node.0 as u64 * self.stride)
    }
}

/// Lazy, allocation-free iterator over a [`View`]'s neighbors.
#[derive(Clone, Debug)]
pub struct Neighbors<'a, S> {
    neighbors: &'a [NeighborInfo],
    states: &'a [S],
    front: usize,
    back: usize,
}

impl<'a, S> Neighbors<'a, S> {
    #[inline]
    fn at(&self, port: usize) -> NeighborView<'a, S> {
        let info = &self.neighbors[port];
        NeighborView {
            node: info.node,
            ident: info.ident,
            weight: info.weight,
            state: &self.states[port],
        }
    }
}

impl<'a, S> Iterator for Neighbors<'a, S> {
    type Item = NeighborView<'a, S>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.front >= self.back {
            return None;
        }
        let item = self.at(self.front);
        self.front += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.back - self.front;
        (remaining, Some(remaining))
    }
}

impl<S> ExactSizeIterator for Neighbors<'_, S> {}

impl<S> DoubleEndedIterator for Neighbors<'_, S> {
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        Some(self.at(self.back))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INFO: [NeighborInfo; 3] = [
        NeighborInfo {
            node: NodeId(1),
            ident: 9,
            weight: 30,
        },
        NeighborInfo {
            node: NodeId(2),
            ident: 2,
            weight: 10,
        },
        NeighborInfo {
            node: NodeId(3),
            ident: 7,
            weight: 20,
        },
    ];

    /// The view of node 0 (identity 5) over `decoded`: one register per `INFO` port,
    /// then the node's own.
    fn sample_view(decoded: &[u64]) -> View<'_, u64> {
        View::over_decoded(NodeId(0), 5, 4, &INFO, decoded)
    }

    #[test]
    fn lookup_helpers() {
        let decoded = [1u64, 2, 3, 0];
        let view = sample_view(&decoded);
        assert_eq!(view.degree(), 3);
        assert!(view.has_neighbor(2));
        assert!(!view.has_neighbor(5));
        assert_eq!(view.neighbor_with_ident(7).unwrap().weight, 20);
        assert_eq!(*view.neighbor_with_ident(7).unwrap().state, 3);
        assert_eq!(view.min_ident_in_closed_neighborhood(), 2);
        assert_eq!(*view.state, 0);
    }

    #[test]
    fn neighbor_iteration_reads_live_registers() {
        let decoded = [11u64, 22, 33, 5];
        let view = sample_view(&decoded);
        let read: Vec<(Ident, u64)> = view.neighbors().map(|nb| (nb.ident, *nb.state)).collect();
        assert_eq!(read, vec![(9, 11), (2, 22), (7, 33)]);
        assert_eq!(view.neighbors().len(), 3);
        let backwards: Vec<(Ident, u64)> = view
            .neighbors()
            .rev()
            .map(|nb| (nb.ident, *nb.state))
            .collect();
        assert_eq!(backwards, vec![(7, 33), (2, 22), (9, 11)]);
    }
}
