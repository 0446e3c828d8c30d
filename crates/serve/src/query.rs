//! The label-only query engine over one pinned [`ServeSnapshot`].
//!
//! Every query is answered from the certificates alone — the tree is never walked on
//! the serving path. On packed stores the hot path is **decode-free**: an
//! escape-aware [`FieldReader`] streams the label fields straight out of the slot's
//! bit window (§V heavy-path segments for NCA/distance, §IV redundant fields for
//! distance-to-root, §VI/§VIII fragment fields for membership) without constructing a
//! single label struct or touching the allocator. The moment an escape bit fires —
//! or on struct-mode stores, which have no bit windows — the query falls back to the
//! full [`Codec`](stst_runtime::Codec) decode path, which is total for arbitrary
//! garbage. Both outcomes are tallied ([`QueryStats`]) so the benches can report the
//! screen-hit rate.
//!
//! Distance from NCA labels: a label's depth is `Σ segment depths + (len − 1)` (one
//! light edge per heavy-path change), so `dist(u, v) = depth(u) + depth(v) −
//! 2·depth(nca(u, v))` — and the NCA's depth falls out of the same single pass that
//! computes the two label depths, by case analysis on where the segment sequences
//! diverge (exactly the cases of [`nca_of_labels`]).

use stst_core::EngineTask;
use stst_graph::NodeId;
use stst_labeling::nca::{nca_of_labels, NcaLabel};
use stst_labeling::redundant::RedundantLabel;
use stst_obs::{Histogram, HISTOGRAM_BUCKETS};
use stst_runtime::FieldReader;

use crate::snapshot::ServeSnapshot;

/// Number of query kinds (the width of the per-kind counters).
pub const QUERY_KINDS: usize = 5;

/// One serving query. Node arguments are [`NodeId`]s of the pinned configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// Tree distance from `0` to the pinned root (§IV redundant labels).
    DistToRoot(NodeId),
    /// Tree distance between the two nodes (§V NCA labels).
    TreeDist(NodeId, NodeId),
    /// Depth of the nearest common ancestor of the two nodes (§V NCA labels).
    NcaDepth(NodeId, NodeId),
    /// Is `0` an ancestor of `1` (every node is its own ancestor)?
    Ancestor(NodeId, NodeId),
    /// Are the two nodes in the same fragment (§VI Borůvka fragments at the deepest
    /// common level for MST; §VIII good-node FR fragments for MDST)?
    SameFragment(NodeId, NodeId),
}

impl Query {
    /// Dense per-kind index, for the [`QueryStats`] counters.
    pub fn kind_index(&self) -> usize {
        match self {
            Query::DistToRoot(..) => 0,
            Query::TreeDist(..) => 1,
            Query::NcaDepth(..) => 2,
            Query::Ancestor(..) => 3,
            Query::SameFragment(..) => 4,
        }
    }

    /// Metric-name suffix of the query kind, by [`Query::kind_index`].
    pub fn kind_name(index: usize) -> &'static str {
        [
            "dist_to_root",
            "tree_dist",
            "nca_depth",
            "ancestor",
            "same_fragment",
        ][index]
    }
}

/// A query answer. Counting queries yield [`Answer::Count`], predicates
/// [`Answer::Flag`]; the differential oracle compares answers for bit-identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    Count(u64),
    Flag(bool),
}

/// Reader-local tallies, accumulated lock-free on the query path and flushed into
/// the shared `stst-obs` registry only at epoch boundaries (the serving layer's wave
/// boundaries) — never per query.
#[derive(Clone, Debug)]
pub struct QueryStats {
    /// Served queries by [`Query::kind_index`].
    pub served: [u64; QUERY_KINDS],
    /// Queries answered decode-free off the packed bit windows.
    pub screened: u64,
    /// Queries that fell back to the full decode path (escape fired, struct mode, or
    /// a pruned optional field).
    pub full_decodes: u64,
    /// Local `query_ns` histogram buckets, laid out by [`Histogram::bucket_index`].
    pub query_ns_buckets: [u64; HISTOGRAM_BUCKETS],
    /// Exact sum of the sampled query latencies, in nanoseconds.
    pub query_ns_sum: u64,
}

impl Default for QueryStats {
    fn default() -> Self {
        QueryStats {
            served: [0; QUERY_KINDS],
            screened: 0,
            full_decodes: 0,
            query_ns_buckets: [0; HISTOGRAM_BUCKETS],
            query_ns_sum: 0,
        }
    }
}

impl QueryStats {
    /// Total queries served across every kind.
    pub fn total(&self) -> u64 {
        self.served.iter().sum()
    }

    /// Records one latency sample into the local histogram.
    pub fn record_ns(&mut self, ns: u64) {
        self.query_ns_buckets[Histogram::bucket_index(ns)] += 1;
        self.query_ns_sum += ns;
    }
}

/// Answers `query` from the snapshot's labels, tallying into `stats`.
pub fn answer(snap: &ServeSnapshot, query: Query, stats: &mut QueryStats) -> Answer {
    stats.served[query.kind_index()] += 1;
    match query {
        Query::DistToRoot(v) => Answer::Count(dist_to_root(snap, v, stats)),
        Query::TreeDist(u, v) => Answer::Count(pair(snap, u, v, stats).distance()),
        Query::NcaDepth(u, v) => Answer::Count(pair(snap, u, v, stats).nca_depth),
        Query::Ancestor(u, v) => Answer::Flag(pair(snap, u, v, stats).nca_is_a),
        Query::SameFragment(u, v) => Answer::Flag(same_fragment(snap, u, v, stats)),
    }
}

/// Depths of a label pair and of their NCA, plus whether the NCA *is* one of the two
/// endpoints — everything the pair queries need, from one streaming pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PairDepths {
    depth_a: u64,
    depth_b: u64,
    nca_depth: u64,
    /// The NCA is the first endpoint (⇔ it is an ancestor of the second).
    nca_is_a: bool,
}

impl PairDepths {
    fn distance(&self) -> u64 {
        // Exact on certified labels; saturating so that garbage labels reached via
        // the total fallback path degrade to 0 instead of wrapping.
        (self.depth_a + self.depth_b).saturating_sub(2 * self.nca_depth)
    }
}

/// Streaming decode-free pair computation over the packed NCA store. `None` when the
/// store offers no bit window (struct mode), a label is absent or empty, or any
/// escape bit fires — the caller falls back to the full decode path.
fn stream_pair(snap: &ServeSnapshot, u: NodeId, v: NodeId) -> Option<PairDepths> {
    let ctx = snap.ctx();
    let mut fa = snap.nca.field_reader(u)?;
    let mut fb = snap.nca.field_reader(v)?;
    let la = fa.uint(ctx.len_bits)?;
    let lb = fb.uint(ctx.len_bits)?;
    if la == 0 || lb == 0 {
        return None; // degenerate labels never occur in certified configurations
    }
    // Longest common prefix of full (head, depth) segments, accumulating the depth
    // sum of the matched prefix as we go.
    let common = la.min(lb);
    let mut prefix_depth = 0u64;
    let mut matched = 0u64;
    let mut divergence: Option<(u64, u64, u64, u64)> = None;
    while matched < common {
        let ha = fa.uint(ctx.ident_bits)?;
        let da = fa.uint(ctx.count_bits)?;
        let hb = fb.uint(ctx.ident_bits)?;
        let db = fb.uint(ctx.count_bits)?;
        if ha == hb && da == db {
            prefix_depth += da;
            matched += 1;
        } else {
            divergence = Some((ha, da, hb, db));
            break;
        }
    }
    let mut sum_a = prefix_depth;
    let mut sum_b = prefix_depth;
    if let Some((ha, da, hb, db)) = divergence {
        sum_a += da;
        sum_b += db;
        for _ in matched + 1..la {
            fa.uint(ctx.ident_bits)?;
            sum_a += fa.uint(ctx.count_bits)?;
        }
        for _ in matched + 1..lb {
            fb.uint(ctx.ident_bits)?;
            sum_b += fb.uint(ctx.count_bits)?;
        }
        let nca_depth = if ha == hb {
            // Same heavy path, different exit depths: the NCA is the shallower
            // position — its label is the prefix plus one segment of depth min.
            prefix_depth + matched + da.min(db)
        } else {
            // Divergence into different heavy paths: the NCA is the shared exit
            // node, whose label is exactly the matched prefix. A zero-length prefix
            // would mean two different roots — impossible for one tree's certified
            // labels, so bail to the total fallback rather than underflow.
            if matched == 0 {
                return None;
            }
            prefix_depth + matched - 1
        };
        Some(PairDepths {
            depth_a: sum_a + la - 1,
            depth_b: sum_b + lb - 1,
            nca_depth,
            nca_is_a: ha == hb && matched + 1 == la && da < db,
        })
    } else {
        // One label is a full-segment prefix of the other: the shorter labels an
        // ancestor of the longer (or the labels are equal).
        for _ in common..la {
            fa.uint(ctx.ident_bits)?;
            sum_a += fa.uint(ctx.count_bits)?;
        }
        for _ in common..lb {
            fb.uint(ctx.ident_bits)?;
            sum_b += fb.uint(ctx.count_bits)?;
        }
        let depth_a = sum_a + la - 1;
        let depth_b = sum_b + lb - 1;
        Some(PairDepths {
            depth_a,
            depth_b,
            nca_depth: if la <= lb { depth_a } else { depth_b },
            nca_is_a: la <= lb,
        })
    }
}

/// Pair computation with the full-decode fallback (total for arbitrary labels).
fn pair(snap: &ServeSnapshot, u: NodeId, v: NodeId, stats: &mut QueryStats) -> PairDepths {
    if let Some(depths) = stream_pair(snap, u, v) {
        stats.screened += 1;
        return depths;
    }
    stats.full_decodes += 1;
    let ctx = snap.ctx();
    let a: NcaLabel = snap.nca.get(u, ctx);
    let b: NcaLabel = snap.nca.get(v, ctx);
    let nca = nca_of_labels(&a, &b);
    PairDepths {
        depth_a: a.depth(),
        depth_b: b.depth(),
        nca_depth: nca.depth(),
        nca_is_a: nca == a,
    }
}

/// Distance to the pinned root, preferring the §IV redundant label's distance field
/// (two field reads); a pruned distance falls back to the NCA label's depth, which
/// always exists in a silent configuration.
fn dist_to_root(snap: &ServeSnapshot, v: NodeId, stats: &mut QueryStats) -> u64 {
    let ctx = snap.ctx();
    let streamed = snap.redundant.field_reader(v).and_then(|mut f| {
        f.uint(ctx.ident_bits)?; // root identity: agreed network-wide at silence
        f.opt_uint(ctx.count_bits)?
    });
    if let Some(dist) = streamed {
        stats.screened += 1;
        return dist;
    }
    stats.full_decodes += 1;
    let label: RedundantLabel = snap.redundant.get(v, ctx);
    match label.dist {
        Some(dist) => dist,
        None => snap.nca.get(v, ctx).depth(),
    }
}

/// Fragment membership. MST: same Borůvka fragment at the deepest level both label
/// traces reach (§VI). MDST: both nodes good and pointing at the same FR fragment
/// head (§VIII) — bad nodes belong to no fragment.
fn same_fragment(snap: &ServeSnapshot, u: NodeId, v: NodeId, stats: &mut QueryStats) -> bool {
    match snap.task() {
        EngineTask::Mst => {
            if let Some(answer) = stream_mst_fragment(snap, u, v) {
                stats.screened += 1;
                return answer;
            }
            stats.full_decodes += 1;
            let ctx = snap.ctx();
            let store = snap
                .fragments
                .as_ref()
                .expect("MST snapshots carry fragment labels");
            let a = store.get(u, ctx);
            let b = store.get(v, ctx);
            let level = a.levels.len().min(b.levels.len());
            level > 0 && a.levels[level - 1].fragment == b.levels[level - 1].fragment
        }
        EngineTask::Mdst => {
            if let Some(answer) = stream_fr_fragment(snap, u, v) {
                stats.screened += 1;
                return answer;
            }
            stats.full_decodes += 1;
            let ctx = snap.ctx();
            let store = snap.fr.as_ref().expect("MDST snapshots carry FR labels");
            let a = store.get(u, ctx);
            let b = store.get(v, ctx);
            match (a.good, a.fragment, b.good, b.fragment) {
                (true, Some((ha, _)), true, Some((hb, _))) => ha == hb,
                _ => false,
            }
        }
    }
}

/// Decode-free MST fragment membership: walk both level traces to the deepest common
/// level, skipping the outgoing-edge tuples field by field.
fn stream_mst_fragment(snap: &ServeSnapshot, u: NodeId, v: NodeId) -> Option<bool> {
    let ctx = snap.ctx();
    let store = snap.fragments.as_ref()?;
    let mut fa = store.field_reader(u)?;
    let mut fb = store.field_reader(v)?;
    let la = fa.uint(ctx.len_bits)?;
    let lb = fb.uint(ctx.len_bits)?;
    let common = la.min(lb);
    if common == 0 {
        return Some(false);
    }
    let frag_at = |f: &mut FieldReader<'_>| -> Option<u64> {
        for level in 0..common {
            let fragment = f.uint(ctx.ident_bits)?;
            if level + 1 == common {
                return Some(fragment);
            }
            if f.bit() {
                f.uint(ctx.ident_bits)?;
                f.uint(ctx.ident_bits)?;
                f.uint(ctx.weight_bits)?;
            }
        }
        unreachable!("the loop returns at level common - 1")
    };
    Some(frag_at(&mut fa)? == frag_at(&mut fb)?)
}

/// Decode-free FR fragment membership: two counter skips, the good bit, and the
/// fragment head.
fn stream_fr_fragment(snap: &ServeSnapshot, u: NodeId, v: NodeId) -> Option<bool> {
    let ctx = snap.ctx();
    let store = snap.fr.as_ref()?;
    let head = |f: &mut FieldReader<'_>| -> Option<Option<u64>> {
        f.uint(ctx.count_bits)?; // tree_degree
        f.uint(ctx.count_bits)?; // subtree_max_degree
        let good = f.bit();
        let fragment = if f.bit() {
            let head = f.uint(ctx.ident_bits)?;
            f.uint(ctx.count_bits)?; // distance to head: membership ignores it
            Some(head)
        } else {
            None
        };
        Some(good.then_some(fragment).flatten())
    };
    let ha = head(&mut store.field_reader(u)?)?;
    let hb = head(&mut store.field_reader(v)?)?;
    Some(matches!((ha, hb), (Some(a), Some(b)) if a == b))
}
