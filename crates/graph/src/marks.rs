//! Epoch-stamped node marks: a visited set over `0..n` that clears in O(1), for
//! repairs that run many times on one network and touch few nodes each time.

use crate::NodeId;

/// A set of nodes over `0..n`. [`NodeMarks::clear`] starts a new epoch instead of
/// zeroing the array, so a repair pays for the nodes it marks, not for `n`.
#[derive(Clone, Debug, Default)]
pub struct NodeMarks {
    stamps: Vec<u32>,
    epoch: u32,
}

impl NodeMarks {
    /// An empty set over `0..n`.
    pub fn new(n: usize) -> Self {
        NodeMarks {
            stamps: vec![0; n],
            epoch: 1,
        }
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Adds `v`; returns `true` if it was not in the set.
    pub fn insert(&mut self, v: NodeId) -> bool {
        let fresh = self.stamps[v.0] != self.epoch;
        self.stamps[v.0] = self.epoch;
        fresh
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: NodeId) -> bool {
        self.stamps[v.0] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_empties_and_survives_epoch_wraparound() {
        let mut marks = NodeMarks::new(4);
        assert!(marks.insert(NodeId(1)));
        assert!(!marks.insert(NodeId(1)));
        assert!(marks.contains(NodeId(1)) && !marks.contains(NodeId(2)));
        marks.clear();
        assert!(!marks.contains(NodeId(1)));
        marks.epoch = u32::MAX;
        marks.insert(NodeId(3));
        marks.clear();
        assert!(!marks.contains(NodeId(3)) && !marks.contains(NodeId(0)));
        assert!(marks.insert(NodeId(0)));
    }
}
