//! Seeded, deterministic churn trace generators.
//!
//! Every generator maintains a **shadow** copy of the evolving network and applies to
//! it the same keep-connected policy the driver enforces (a severing event is not
//! committed), so the emitted trace is valid event for event when replayed against the
//! engine. [`partition_and_heal`] is the deliberate exception: it emits the severing
//! cut edges so the `Partitioned` reporting path is exercised, and heals only what was
//! actually removed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stst_graph::{Graph, Ident, NodeId, Weight};

use crate::event::TopologyEvent;

/// A churn trace: one batch of events per injection point (wave boundary). Batches
/// may be empty — a quiet wave.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnTrace {
    /// Event batches, in injection order.
    pub batches: Vec<Vec<TopologyEvent>>,
}

/// Uniform draw in `[0, 1)` from the integer generator (53 mantissa bits, like
/// `rand`'s float sampling).
fn uniform(rng: &mut StdRng) -> f64 {
    rng.gen_range(0..(1u64 << 53)) as f64 / (1u64 << 53) as f64
}

/// Knuth's Poisson sampler (fine for the small per-wave rates churn uses; clamped at
/// 64 to keep pathological draws bounded).
fn poisson(rng: &mut StdRng, lambda: f64) -> usize {
    let limit = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= uniform(rng);
        if p <= limit || k >= 64 {
            return k;
        }
        k += 1;
    }
}

/// Bookkeeping shared by the generators: the shadow network plus fresh weight and
/// identity counters (weights stay pairwise distinct — the MST layer's uniqueness
/// assumption survives churn).
struct Shadow {
    graph: Graph,
    next_weight: Weight,
    next_ident: Ident,
}

impl Shadow {
    fn new(graph: &Graph) -> Self {
        Shadow {
            next_weight: graph.edges().iter().map(|e| e.weight).max().unwrap_or(0) + 1,
            next_ident: graph.nodes().map(|v| graph.ident(v)).max().unwrap_or(0) + 1,
            graph: graph.clone(),
        }
    }

    fn fresh_weight(&mut self) -> Weight {
        let w = self.next_weight;
        self.next_weight += 1;
        w
    }

    /// A uniformly random edge add between non-adjacent nodes (bounded retries).
    fn edge_add(&mut self, rng: &mut StdRng) -> Option<TopologyEvent> {
        let n = self.graph.node_count();
        for _ in 0..16 {
            let u = NodeId(rng.gen_range(0..n));
            let v = NodeId(rng.gen_range(0..n));
            if u == v || self.graph.edge_between(u, v).is_some() {
                continue;
            }
            let weight = self.fresh_weight();
            self.graph.add_edge(u, v, weight);
            return Some(TopologyEvent::EdgeAdd { u, v, weight });
        }
        None
    }

    /// A uniformly random **non-severing** edge removal (bounded retries).
    fn edge_remove(&mut self, rng: &mut StdRng) -> Option<TopologyEvent> {
        let m = self.graph.edge_count();
        if m <= 1 {
            return None;
        }
        for _ in 0..16 {
            let e = self.graph.edge(stst_graph::EdgeId(rng.gen_range(0..m)));
            let (u, v) = (e.u, e.v);
            if !is_bridge(&self.graph, u, v) {
                self.graph.remove_edge(u, v);
                return Some(TopologyEvent::EdgeRemove { u, v });
            }
        }
        None
    }

    /// A weight drift on a uniformly random edge (fresh unique weight).
    fn weight_change(&mut self, rng: &mut StdRng) -> Option<TopologyEvent> {
        let m = self.graph.edge_count();
        if m == 0 {
            return None;
        }
        let e = self.graph.edge(stst_graph::EdgeId(rng.gen_range(0..m)));
        let (u, v) = (e.u, e.v);
        let weight = self.fresh_weight();
        self.graph.set_weight(u, v, weight);
        Some(TopologyEvent::WeightChange { u, v, weight })
    }

    /// A joining node with 1–3 links to random existing nodes.
    fn node_join(&mut self, rng: &mut StdRng) -> Option<TopologyEvent> {
        let n = self.graph.node_count();
        let links = 1 + rng.gen_range(0..3usize.min(n));
        let mut attach: Vec<(NodeId, Weight)> = Vec::with_capacity(links);
        while attach.len() < links {
            let to = NodeId(rng.gen_range(0..n));
            if attach.iter().any(|&(t, _)| t == to) {
                continue;
            }
            let w = self.fresh_weight();
            attach.push((to, w));
        }
        let ident = self.next_ident;
        self.next_ident += 1;
        let joiner = self.graph.add_node(ident);
        for &(to, w) in &attach {
            self.graph.add_edge(joiner, to, w);
        }
        Some(TopologyEvent::NodeJoin { ident, attach })
    }

    /// A uniformly random **non-severing** node departure (bounded retries; keeps at
    /// least 3 nodes so the network stays a meaningful instance).
    fn node_leave(&mut self, rng: &mut StdRng) -> Option<TopologyEvent> {
        let n = self.graph.node_count();
        if n <= 3 {
            return None;
        }
        for _ in 0..16 {
            let v = NodeId(rng.gen_range(0..n));
            if !is_cut_node(&self.graph, v) {
                self.graph.remove_node(v);
                return Some(TopologyEvent::NodeLeave { v });
            }
        }
        None
    }
}

/// Depth-first search from `from` that never crosses the edge `skip_edge` nor enters
/// `skip_node`. Returns whether it reached `target` (stopping there) and how many
/// nodes it reached.
fn search_without(
    graph: &Graph,
    from: NodeId,
    target: Option<NodeId>,
    skip_edge: Option<(NodeId, NodeId)>,
    skip_node: Option<NodeId>,
) -> (bool, usize) {
    let mut seen = vec![false; graph.node_count()];
    let mut stack = vec![from];
    seen[from.0] = true;
    if let Some(x) = skip_node {
        seen[x.0] = true;
    }
    let mut reached = 1;
    while let Some(x) = stack.pop() {
        for &(y, _) in graph.neighbors(x) {
            if seen[y.0] || skip_edge.is_some_and(|(a, b)| (x, y) == (a, b) || (x, y) == (b, a)) {
                continue;
            }
            if Some(y) == target {
                return (true, reached + 1);
            }
            seen[y.0] = true;
            reached += 1;
            stack.push(y);
        }
    }
    (false, reached)
}

/// `true` iff removing the edge `{u, v}` would disconnect the (connected) graph: no
/// path from `u` to `v` avoids it.
fn is_bridge(graph: &Graph, u: NodeId, v: NodeId) -> bool {
    !search_without(graph, u, Some(v), Some((u, v)), None).0
}

/// `true` iff removing node `v` would disconnect the (connected) graph: a search from
/// any other node that skips `v` misses some node.
fn is_cut_node(graph: &Graph, v: NodeId) -> bool {
    let from = NodeId(usize::from(v.0 == 0));
    search_without(graph, from, None, None, Some(v)).1 + 1 < graph.node_count()
}

/// Steady churn: at each of `waves` injection points, a Poisson(`rate`)-sized batch of
/// events. A `node_fraction` of the event mass is node churn (half joins, half
/// leaves); the rest splits evenly between edge adds, non-severing edge removals and
/// weight drifts. `node_fraction = 0.0` yields the pure single-edge-event workload of
/// experiment E10's headline comparison.
pub fn steady_poisson(
    graph: &Graph,
    waves: usize,
    rate: f64,
    node_fraction: f64,
    seed: u64,
) -> ChurnTrace {
    assert!((0.0..=1.0).contains(&node_fraction));
    let mut shadow = Shadow::new(graph);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc8_0a_11);
    let mut batches = Vec::with_capacity(waves);
    for _ in 0..waves {
        let k = poisson(&mut rng, rate);
        let mut batch = Vec::with_capacity(k);
        for _ in 0..k {
            let roll = uniform(&mut rng);
            let event = if roll < node_fraction / 2.0 {
                shadow.node_join(&mut rng)
            } else if roll < node_fraction {
                shadow.node_leave(&mut rng)
            } else {
                let edge_roll =
                    (roll - node_fraction) / (1.0 - node_fraction).max(f64::MIN_POSITIVE);
                if edge_roll < 1.0 / 3.0 {
                    shadow.edge_add(&mut rng)
                } else if edge_roll < 2.0 / 3.0 {
                    shadow.edge_remove(&mut rng)
                } else {
                    shadow.weight_change(&mut rng)
                }
            };
            batch.extend(event);
        }
        batches.push(batch);
    }
    ChurnTrace { batches }
}

/// Link flapping: the edge `{u, v}` goes down and comes back up `flaps` times (one
/// event per batch, removal first; an even `flaps` restores the link). The classic
/// unstable-backbone scenario.
///
/// # Panics
///
/// Panics if the edge does not exist or is a bridge (a flap would sever the network —
/// use [`partition_and_heal`] to exercise severing).
pub fn link_flapping(graph: &Graph, u: NodeId, v: NodeId, flaps: usize) -> ChurnTrace {
    let e = graph
        .edge_between(u, v)
        .expect("the flapping link must exist");
    let weight = graph.weight(e);
    assert!(
        !is_bridge(graph, u, v),
        "a flapping bridge would sever the network"
    );
    let batches = (0..flaps)
        .map(|i| {
            if i % 2 == 0 {
                vec![TopologyEvent::EdgeRemove { u, v }]
            } else {
                vec![TopologyEvent::EdgeAdd { u, v, weight }]
            }
        })
        .collect();
    ChurnTrace { batches }
}

/// Partition-and-heal: a random node split's cross edges fail one by one — including
/// the final severing ones, which the engine must *report* (`Partitioned`) rather than
/// commit — and then the actually-removed links heal in reverse order.
pub fn partition_and_heal(graph: &Graph, seed: u64) -> ChurnTrace {
    use rand::seq::SliceRandom;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a_27);
    let n = graph.node_count();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut side = vec![false; n];
    for &v in order.iter().take(n / 2) {
        side[v] = true;
    }
    let cross: Vec<(NodeId, NodeId, Weight)> = graph
        .edges()
        .iter()
        .filter(|e| side[e.u.0] != side[e.v.0])
        .map(|e| (e.u, e.v, e.weight))
        .collect();
    let mut shadow = graph.clone();
    let mut batches: Vec<Vec<TopologyEvent>> = Vec::new();
    let mut removed: Vec<(NodeId, NodeId, Weight)> = Vec::new();
    for &(u, v, w) in &cross {
        // Emit the removal unconditionally; track on the shadow whether the driver
        // will be able to commit it.
        batches.push(vec![TopologyEvent::EdgeRemove { u, v }]);
        if !is_bridge(&shadow, u, v) {
            shadow.remove_edge(u, v);
            removed.push((u, v, w));
        }
    }
    for &(u, v, weight) in removed.iter().rev() {
        batches.push(vec![TopologyEvent::EdgeAdd { u, v, weight }]);
    }
    ChurnTrace { batches }
}

/// Weight drift: one re-weighted random edge per wave, weights drifting upward
/// through fresh unique values.
pub fn weight_drift(graph: &Graph, waves: usize, seed: u64) -> ChurnTrace {
    let mut shadow = Shadow::new(graph);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1_1f7);
    let batches = (0..waves)
        .map(|_| shadow.weight_change(&mut rng).into_iter().collect())
        .collect();
    ChurnTrace { batches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stst_graph::generators;

    /// FNV-1a over the trace's debug rendering.
    fn trace_hash(trace: &ChurnTrace) -> u64 {
        format!("{trace:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn traces_keep_their_pinned_hashes() {
        // Recorded with the generators that tested connectivity on a cloned graph per
        // trial: the in-place shadow and the bridge searches must emit the same events.
        let steady = [
            (60usize, 3u64, 0.0f64, 0x07f8_f6f3_45e5_4a84u64),
            (60, 4, 0.3, 0x653d_214e_13a3_3be1),
            (200, 2015, 0.0, 0xaf5a_027b_e4cd_3df5),
            (120, 7, 0.5, 0x714e_6376_b49c_1ad7),
        ];
        for (n, seed, fraction, pinned) in steady {
            let g = generators::workload(n, 6.0 / n as f64, seed);
            let t = steady_poisson(&g, 60, 1.5, fraction, seed);
            assert_eq!(trace_hash(&t), pinned, "steady_poisson n={n} seed={seed}");
        }
        let others = [
            (
                40usize,
                5u64,
                0xb2ac_68f2_b2aa_504fu64,
                0x6523_51e0_c41f_9232u64,
            ),
            (80, 9, 0xb259_6f5f_54ea_927d, 0x3767_817d_dec8_03f0),
        ];
        for (n, seed, partition, drift) in others {
            let g = generators::workload(n, 0.15, seed);
            assert_eq!(trace_hash(&partition_and_heal(&g, seed)), partition);
            assert_eq!(trace_hash(&weight_drift(&g, 30, seed)), drift);
        }
    }

    #[test]
    fn traces_are_deterministic_in_seed() {
        let g = generators::workload(24, 0.25, 3);
        assert_eq!(
            steady_poisson(&g, 10, 1.5, 0.2, 7),
            steady_poisson(&g, 10, 1.5, 0.2, 7)
        );
        assert_ne!(
            steady_poisson(&g, 10, 1.5, 0.2, 7),
            steady_poisson(&g, 10, 1.5, 0.2, 8)
        );
        assert_eq!(weight_drift(&g, 5, 1), weight_drift(&g, 5, 1));
        assert_eq!(partition_and_heal(&g, 2), partition_and_heal(&g, 2));
    }

    #[test]
    fn steady_traces_replay_cleanly_on_a_shadow() {
        // Applying the trace to a fresh copy of the graph must never panic and must
        // keep the network connected (the generator's own policy).
        let g = generators::workload(20, 0.3, 5);
        let trace = steady_poisson(&g, 12, 2.0, 0.25, 11);
        let mut replay = g.clone();
        for batch in &trace.batches {
            for event in batch {
                let n = replay.node_count();
                for m in event.mutations(n) {
                    replay.apply_mutations(&[m]);
                }
                assert!(replay.is_connected());
            }
        }
        assert!(
            trace.batches.iter().any(|batch| !batch.is_empty()),
            "rate 2.0 over 12 waves yields events"
        );
    }

    #[test]
    fn flapping_alternates_and_restores() {
        let g = generators::workload(12, 0.4, 2);
        // Pick a non-bridge edge.
        let e = g
            .edge_ids()
            .find(|&e| {
                let ed = *g.edge(e);
                let mut trial = g.clone();
                trial.remove_edge(ed.u, ed.v);
                trial.is_connected()
            })
            .unwrap();
        let (u, v) = (g.edge(e).u, g.edge(e).v);
        let trace = link_flapping(&g, u, v, 6);
        assert_eq!(trace.batches.len(), 6);
        let mut replay = g.clone();
        for batch in &trace.batches {
            for event in batch {
                let n = replay.node_count();
                for m in event.mutations(n) {
                    replay.apply_mutations(&[m]);
                }
            }
        }
        // Even flap count: the link is back with its original weight.
        let back = replay.edge_between(u, v).expect("link restored");
        assert_eq!(replay.weight(back), g.weight(e));
    }

    #[test]
    fn partition_trace_contains_a_severing_removal() {
        let g = generators::workload(16, 0.2, 9);
        let trace = partition_and_heal(&g, 4);
        // Replaying with the driver's keep-connected policy must hit at least one
        // removal that would sever (and skip it), and end fully healed.
        let mut replay = g.clone();
        let mut skipped = 0;
        for batch in &trace.batches {
            for event in batch {
                let n = replay.node_count();
                let mut trial = replay.clone();
                for m in event.mutations(n) {
                    trial.apply_mutations(&[m]);
                }
                if trial.is_connected() {
                    replay = trial;
                } else {
                    skipped += 1;
                }
            }
        }
        assert!(skipped >= 1, "the cut must contain a severing removal");
        assert_eq!(replay.edge_count(), g.edge_count(), "healed completely");
        assert!(replay.is_connected());
    }
}
