//! What the composition engine wrote, and when: the bookkeeping that lets consumers
//! of the labels pay for what changed instead of for `n`.
//!
//! Every path that writes a label — incremental repair, a from-scratch install,
//! fault injection, restore — reports the nodes it wrote here. Two consumers read the
//! record:
//!
//! * **publication** ([`LabelWrites`], public): every write advances a clock and
//!   stamps the written node's page of [`PAGE_SLOTS`] slots, so a publisher that
//!   remembers the clock of its previous publication re-packs only the pages stamped
//!   since (`stst-serve`). Parent-pointer and identity changes are stamped the same
//!   way, as one stamp each.
//! * **register accounting** (`RegisterSizes`, crate-internal): per family, the
//!   encoded size of every label as of the last accounting and a histogram of those
//!   sizes; an accounting re-measures only the labels written since the last one, and
//!   the family's maximum is the histogram's top.

use std::sync::atomic::{AtomicU64, Ordering};

use stst_graph::NodeId;
use stst_runtime::store::PAGE_SLOTS;
use stst_runtime::{Codec, CodecCtx};

use crate::engine::LabelFamily;

/// Source of engine lineages: every engine (a fresh one, or one rebuilt by restore)
/// takes the next value, so equal lineages mean one and the same write history.
static LINEAGES: AtomicU64 = AtomicU64::new(1);

/// The engine's write record as publishers read it: a write clock, per family the
/// clock of the last write to each page of [`PAGE_SLOTS`] nodes, and the clocks of the
/// last parent-pointer and identity changes. A publisher that took the clock `c` at its
/// previous publication from an engine of the same [`LabelWrites::lineage`] knows
/// that every slot of a page stamped at most `c` still holds the label it packed.
#[derive(Clone, Debug)]
pub struct LabelWrites {
    lineage: u64,
    clock: u64,
    /// Per family (in [`LabelFamily`] order): the last write stamp of each page.
    pages: [Vec<u64>; 3],
    tree: u64,
    idents: u64,
}

impl LabelWrites {
    /// A fresh record for `n` nodes in a new lineage: nothing written yet.
    pub(crate) fn new(n: usize) -> Self {
        let pages = n.div_ceil(PAGE_SLOTS);
        LabelWrites {
            lineage: LINEAGES.fetch_add(1, Ordering::Relaxed),
            clock: 0,
            pages: [vec![0; pages], vec![0; pages], vec![0; pages]],
            tree: 0,
            idents: 0,
        }
    }

    /// The engine's lineage: equal for two records of the same engine, different for
    /// any two engines, restored ones included.
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// The write clock: the stamp of the newest write (0 before any).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Per page of [`PAGE_SLOTS`] nodes, the stamp of the last write to a `family`
    /// label in it (0 if none was written since the engine was created).
    pub fn page_stamps(&self, family: LabelFamily) -> &[u64] {
        &self.pages[family as usize]
    }

    /// The stamp of the last parent-pointer change.
    pub fn tree_stamp(&self) -> u64 {
        self.tree
    }

    /// The stamp of the last identity change (node churn).
    pub fn ident_stamp(&self) -> u64 {
        self.idents
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Stamps the pages of `nodes` in `family`.
    pub(crate) fn labels(&mut self, family: LabelFamily, nodes: &[NodeId]) {
        let stamp = self.tick();
        let pages = &mut self.pages[family as usize];
        for &v in nodes {
            pages[v.0 / PAGE_SLOTS] = stamp;
        }
    }

    /// Stamps every page of `family` over `n` nodes (a whole family was installed).
    pub(crate) fn family(&mut self, family: LabelFamily, n: usize) {
        let stamp = self.tick();
        let pages = &mut self.pages[family as usize];
        pages.clear();
        pages.resize(n.div_ceil(PAGE_SLOTS), stamp);
    }

    /// Stamps a parent-pointer change.
    pub(crate) fn tree(&mut self) {
        self.tree = self.tick();
    }

    /// Stamps an identity change (node churn). The families are installed again
    /// before any label is written, which stamps and resizes their pages.
    pub(crate) fn idents(&mut self) {
        self.idents = self.tick();
    }
}

/// One family's register sizes: the encoded size of every label at the last
/// accounting, a histogram of those sizes, and the nodes written since.
#[derive(Clone, Debug, Default)]
struct FamilySizes {
    bits: Vec<u32>,
    /// `hist[b]` labels of `b` bits, with no trailing zero: the maximum is its last
    /// index.
    hist: Vec<u32>,
    /// Nodes written since the last accounting (repeats allowed).
    written: Vec<NodeId>,
    /// The whole family was replaced since the last accounting.
    replaced: bool,
}

impl FamilySizes {
    fn count(&mut self, bits: u32, add: bool) {
        let b = bits as usize;
        if add {
            if b >= self.hist.len() {
                self.hist.resize(b + 1, 0);
            }
            self.hist[b] += 1;
        } else {
            self.hist[b] -= 1;
        }
    }

    /// The largest encoded size among `labels` under `ctx`. Re-measures the labels
    /// written since the last call, or all of them after a replacement, a change of
    /// node count or `rescan`.
    fn max_bits<S: Codec>(&mut self, labels: &[S], ctx: &CodecCtx, rescan: bool) -> usize {
        if rescan || self.replaced || self.bits.len() != labels.len() {
            self.bits.clear();
            self.bits
                .extend(labels.iter().map(|l| l.encoded_bits(ctx) as u32));
            self.hist.clear();
            for i in 0..self.bits.len() {
                self.count(self.bits[i], true);
            }
            self.written.clear();
            self.replaced = false;
        } else {
            for i in 0..self.written.len() {
                let v = self.written[i].0;
                let bits = labels[v].encoded_bits(ctx) as u32;
                if bits != self.bits[v] {
                    self.count(self.bits[v], false);
                    self.count(bits, true);
                    self.bits[v] = bits;
                }
            }
            self.written.clear();
            while self.hist.last() == Some(&0) {
                self.hist.pop();
            }
        }
        let max = self.hist.len().saturating_sub(1);
        debug_assert_eq!(
            max,
            labels
                .iter()
                .map(|l| l.encoded_bits(ctx))
                .max()
                .unwrap_or(0),
            "every label write since the last accounting was recorded"
        );
        max
    }
}

/// Per-family register sizes for the engine's register accounting (see the module
/// docs): an accounting costs the labels written since the previous one.
#[derive(Clone, Debug, Default)]
pub(crate) struct RegisterSizes {
    families: [FamilySizes; 3],
    /// The codec context of the last accounting: a different one re-measures all.
    ctx: Option<CodecCtx>,
}

impl RegisterSizes {
    /// Records that `nodes` of `family` were written. A list longer than the family
    /// collapses into a replacement: re-measuring every label then costs no more.
    pub(crate) fn labels(&mut self, family: LabelFamily, nodes: &[NodeId]) {
        let sizes = &mut self.families[family as usize];
        if sizes.replaced {
            return;
        }
        sizes.written.extend_from_slice(nodes);
        if sizes.written.len() > sizes.bits.len() {
            sizes.replaced = true;
            sizes.written.clear();
        }
    }

    /// Records that the whole of `family` was replaced.
    pub(crate) fn family(&mut self, family: LabelFamily) {
        let sizes = &mut self.families[family as usize];
        sizes.replaced = true;
        sizes.written.clear();
    }

    /// Starts an accounting under `ctx`; returns whether every size must be
    /// re-measured (the context changed since the previous accounting).
    pub(crate) fn begin(&mut self, ctx: &CodecCtx) -> bool {
        self.ctx.replace(*ctx) != Some(*ctx)
    }

    /// The largest encoded size among `family`'s `labels` (see [`FamilySizes`]).
    pub(crate) fn max_bits<S: Codec>(
        &mut self,
        family: LabelFamily,
        labels: &[S],
        ctx: &CodecCtx,
        rescan: bool,
    ) -> usize {
        self.families[family as usize].max_bits(labels, ctx, rescan)
    }
}
