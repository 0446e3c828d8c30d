//! The guarded-rule transition function of a self-stabilizing algorithm.

use rand::rngs::StdRng;

use stst_graph::{Graph, Ident, NodeId};

use crate::register::Register;
use crate::view::{RawView, View};

/// Outcome of a decode-free guard screen ([`Algorithm::guard_screen`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Screen<S> {
    /// The guard is definitely disabled: the desired next state, computed from
    /// extracted fields alone, equals the current register bit-for-bit.
    Disabled,
    /// The guard resolved decode-free: the node is enabled and this is the next state
    /// [`Algorithm::step`] would produce (required to be bit-identical to it).
    Enabled(S),
    /// The screen cannot decide — some field escaped (fault garbage) or the algorithm
    /// offers no screen. The executor falls back to the full-decode path.
    Unknown,
}

/// A self-stabilizing algorithm in the state model.
///
/// An algorithm is a transition function `δ : S* → S` evaluated over the closed 1-hop
/// neighborhood of a node. A node is **enabled** (activatable) when [`Algorithm::step`]
/// returns `Some(new_state)` with `new_state` different from the current register
/// content; the scheduler decides which enabled nodes actually execute their step.
///
/// Returning `Some(state)` equal to the node's current state is treated as *disabled*
/// by the executor — guards should be written so that an enabled node always changes its
/// register, otherwise the algorithm can never become silent.
///
/// Algorithms are `Sync`: [`Algorithm::step`] is a pure function of the view, and the
/// parallel wave executor evaluates it concurrently from worker threads over the
/// immutable pre-round configuration. (Every transition function is a stateless rule
/// table in practice, so the bound is satisfied by construction.)
pub trait Algorithm: Sync {
    /// The register content maintained at each node.
    type State: Register;

    /// Human-readable algorithm name (used in traces and reports).
    fn name(&self) -> &str;

    /// An arbitrary state for `node`, used both to build *arbitrary initial
    /// configurations* (self-stabilization must cope with any of them) and to model
    /// transient faults that corrupt registers. Implementations should cover the whole
    /// reachable (and ideally some unreachable) state space.
    fn arbitrary_state(&self, graph: &Graph, node: NodeId, rng: &mut StdRng) -> Self::State;

    /// Evaluate the guarded rules of `view.node`. Returns the new register content if
    /// some rule is enabled, `None` otherwise.
    fn step(&self, view: &View<'_, Self::State>) -> Option<Self::State>;

    /// Decode-free guard screen over the **undecoded** closed neighborhood: the cheap
    /// first tier of guard evaluation on the packed store. Implementations mirror
    /// [`Algorithm::step`] on fields extracted by shift/mask ([`RawView`]) and must
    /// return [`Screen::Unknown`] the moment any escape bit fires — the executor then
    /// falls back to the full-decode path, which keeps the two tiers bit-identical
    /// (the differential oracles pin this). The default screens nothing, so
    /// algorithms without one are simply always full-decode.
    fn guard_screen(&self, _raw: &RawView<'_>) -> Screen<Self::State> {
        Screen::Unknown
    }

    /// The premise of the algorithm's self-stabilization theorem on `graph`: `true`
    /// only if **every silent configuration is legal** there. The executor evaluates it
    /// once per graph and reports it as [`crate::Quiescence::legal`] at every
    /// quiescence, so that verdict costs nothing per run.
    ///
    /// Contract:
    ///
    /// * **sound** (required): when it returns `true`, no configuration in which no
    ///   node is enabled violates [`Algorithm::is_legal`]. Returning `false` is always
    ///   sound; it certifies nothing;
    /// * **exact** (the self-stabilizing algorithms of the workspace): when it returns
    ///   `false`, no legal configuration exists on `graph` at all, so the certified
    ///   verdict equals the oracle at every quiescence
    ///   (`tests/certified_silence.rs`).
    ///
    /// It must be a function of the graph alone, never of the registers.
    fn silence_certifies(&self, graph: &Graph) -> bool;

    /// Global legality predicate for the configuration: the **oracle** the certified
    /// verdict of [`Algorithm::silence_certifies`] is checked against. Tests,
    /// experiments and debug builds call it (through [`crate::Executor::check_legal`]);
    /// the executor's production path and the distributed rules never do.
    fn is_legal(&self, graph: &Graph, states: &[Self::State]) -> bool;
}

/// Register contents that encode a parent pointer (the distributed spanning tree
/// representation of §II-B: each node stores the identity of its parent, the root
/// stores `⊥`).
pub trait ParentPointer {
    /// The identity of the parent, or `None` for `⊥`.
    fn parent_ident(&self) -> Option<Ident>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::View;
    use rand::Rng;

    /// A toy algorithm used to exercise the trait plumbing: every node copies the
    /// maximum value seen in its closed neighborhood ("max propagation").
    pub struct MaxPropagation;

    impl Algorithm for MaxPropagation {
        type State = u64;

        fn name(&self) -> &str {
            "max-propagation"
        }

        fn arbitrary_state(&self, _graph: &Graph, _node: NodeId, rng: &mut StdRng) -> u64 {
            rng.gen_range(0..100)
        }

        fn step(&self, view: &View<'_, u64>) -> Option<u64> {
            let max = view
                .neighbors()
                .map(|nb| *nb.state)
                .chain(std::iter::once(*view.state))
                .max()
                .expect("non-empty closed neighborhood");
            (max != *view.state).then_some(max)
        }

        fn silence_certifies(&self, _graph: &Graph) -> bool {
            false // a plumbing toy: it certifies nothing
        }

        fn is_legal(&self, _graph: &Graph, states: &[u64]) -> bool {
            states.windows(2).all(|w| w[0] == w[1])
        }
    }

    #[test]
    fn max_propagation_is_enabled_only_when_behind() {
        use crate::view::NeighborInfo;
        let algo = MaxPropagation;
        // Node 0 holds 3, node 1 holds 9; each view lists the neighbor's register
        // first and the node's own last.
        let fwd = [NeighborInfo {
            node: NodeId(1),
            ident: 2,
            weight: 1,
        }];
        let view = View::over_decoded(NodeId(0), 1, 2, &fwd, &[9u64, 3]);
        assert_eq!(algo.step(&view), Some(9));
        let back = [NeighborInfo {
            node: NodeId(0),
            ident: 1,
            weight: 1,
        }];
        let view_ahead = View::over_decoded(NodeId(1), 2, 2, &back, &[3u64, 9]);
        assert_eq!(algo.step(&view_ahead), None);
    }
}
