//! The topology event model: what the outside world does to the network.

use std::fmt;

use stst_graph::{Ident, Mutation, NodeId, Weight};

/// One live topology event, in the vocabulary of the system's environment. Events are
/// lowered to the graph layer's [`Mutation`]s by [`TopologyEvent::mutations`];
/// endpoints use the dense indices valid at the moment the event is applied (earlier
/// node events of the same trace shift the index space, exactly as the shadow graph of
/// the generators and the driver's sequential application see it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyEvent {
    /// A new link comes up.
    EdgeAdd {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// Weight of the new link.
        weight: Weight,
    },
    /// A link fails.
    EdgeRemove {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// A link's weight drifts (latency change, re-metering).
    WeightChange {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// The new weight.
        weight: Weight,
    },
    /// A node joins, attaching to the listed existing nodes.
    NodeJoin {
        /// Identity of the joiner (fresh, distinct).
        ident: Ident,
        /// `(existing node, link weight)` attachments, applied in order.
        attach: Vec<(NodeId, Weight)>,
    },
    /// A node leaves together with all of its incident links.
    NodeLeave {
        /// The leaver.
        v: NodeId,
    },
}

impl TopologyEvent {
    /// Lowers the event to graph mutations. `n` is the node count of the graph the
    /// event is applied to (a joiner gets the next dense index, `n`).
    pub fn mutations(&self, n: usize) -> Vec<Mutation> {
        match self {
            TopologyEvent::EdgeAdd { u, v, weight } => vec![Mutation::AddEdge {
                u: *u,
                v: *v,
                weight: *weight,
            }],
            TopologyEvent::EdgeRemove { u, v } => vec![Mutation::RemoveEdge { u: *u, v: *v }],
            TopologyEvent::WeightChange { u, v, weight } => vec![Mutation::SetWeight {
                u: *u,
                v: *v,
                weight: *weight,
            }],
            TopologyEvent::NodeJoin { ident, attach } => {
                let mut muts = vec![Mutation::AddNode { ident: *ident }];
                let joiner = NodeId(n);
                muts.extend(attach.iter().map(|&(to, weight)| Mutation::AddEdge {
                    u: joiner,
                    v: to,
                    weight,
                }));
                muts
            }
            TopologyEvent::NodeLeave { v } => vec![Mutation::RemoveNode { v: *v }],
        }
    }

    /// How the event changes the node count (+1 join, −1 leave, 0 otherwise) — used
    /// by the driver to thread the correct `n` through a batch.
    pub fn node_delta(&self) -> isize {
        match self {
            TopologyEvent::NodeJoin { .. } => 1,
            TopologyEvent::NodeLeave { .. } => -1,
            _ => 0,
        }
    }
}

/// Lowers a batch of events, applied in order to a graph of `n` nodes, to one
/// mutation list: each event sees the node count the earlier events of the batch left.
///
/// # Panics
///
/// Panics if the batch removes more nodes than the graph has.
pub fn batch_mutations(events: &[TopologyEvent], mut n: usize) -> Vec<Mutation> {
    let mut mutations = Vec::new();
    for event in events {
        mutations.extend(event.mutations(n));
        n = n
            .checked_add_signed(event.node_delta())
            .expect("node count stays positive");
    }
    mutations
}

impl fmt::Display for TopologyEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyEvent::EdgeAdd { u, v, weight } => write!(f, "+edge {u}-{v} (w={weight})"),
            TopologyEvent::EdgeRemove { u, v } => write!(f, "-edge {u}-{v}"),
            TopologyEvent::WeightChange { u, v, weight } => {
                write!(f, "reweight {u}-{v} -> {weight}")
            }
            TopologyEvent::NodeJoin { ident, attach } => {
                write!(f, "+node ident {ident} ({} links)", attach.len())
            }
            TopologyEvent::NodeLeave { v } => write!(f, "-node {v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowering_threads_the_joiner_index() {
        let ev = TopologyEvent::NodeJoin {
            ident: 42,
            attach: vec![(NodeId(3), 7), (NodeId(0), 8)],
        };
        let muts = ev.mutations(10);
        assert_eq!(muts.len(), 3);
        assert_eq!(muts[0], Mutation::AddNode { ident: 42 });
        assert_eq!(
            muts[1],
            Mutation::AddEdge {
                u: NodeId(10),
                v: NodeId(3),
                weight: 7
            }
        );
        assert_eq!(ev.node_delta(), 1);
        assert_eq!(TopologyEvent::NodeLeave { v: NodeId(2) }.node_delta(), -1);
    }

    #[test]
    fn display_is_compact() {
        let ev = TopologyEvent::EdgeAdd {
            u: NodeId(1),
            v: NodeId(2),
            weight: 9,
        };
        assert_eq!(format!("{ev}"), "+edge n1-n2 (w=9)");
    }
}
