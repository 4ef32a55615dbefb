//! First-class data partitions.
//!
//! A partition is an indexed set of *subregions* (index sets) of one region
//! (Section 1.1). Partitions in this crate are plain values: operators in
//! [`crate::ops`] build new partitions from old ones, mirroring DPL's
//! "dependent partitioning" model. Disjointness and completeness — the
//! `DISJ`/`COMP` predicates of the constraint language — are *checkable
//! properties* here, used both by tests and by the runtime to validate
//! solver output dynamically.

use crate::index_set::{Idx, IndexSet};
use crate::region::RegionId;

/// An indexed collection of subregions of `region`.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    pub region: RegionId,
    subregions: Vec<IndexSet>,
}

impl Partition {
    pub fn new(region: RegionId, subregions: Vec<IndexSet>) -> Self {
        Partition { region, subregions }
    }

    /// Number of subregions (the partition's "color space" size).
    pub fn num_subregions(&self) -> usize {
        self.subregions.len()
    }

    pub fn subregion(&self, i: usize) -> &IndexSet {
        &self.subregions[i]
    }

    pub fn subregions(&self) -> &[IndexSet] {
        &self.subregions
    }

    pub fn iter(&self) -> impl Iterator<Item = &IndexSet> {
        self.subregions.iter()
    }

    /// Total number of elements across subregions (elements in several
    /// subregions are counted once per subregion).
    pub fn total_elements(&self) -> u64 {
        self.subregions.iter().map(IndexSet::len).sum()
    }

    /// Union of all subregions.
    pub fn support(&self) -> IndexSet {
        let mut acc = IndexSet::new();
        for s in &self.subregions {
            acc = acc.union(s);
        }
        acc
    }

    /// `DISJ`: no element appears in two different subregions.
    pub fn is_disjoint(&self) -> bool {
        // Pairwise checks would be O(n²); instead verify that the sum of
        // subregion sizes equals the support size.
        self.total_elements() == self.support().len()
    }

    /// First-owner split: every element goes to the lowest-numbered
    /// subregion containing it, so the result is disjoint with the same
    /// support. An aliased iteration partition uses it to give each
    /// centered write exactly one owning task (Section 5.1).
    pub fn first_owner_split(&self) -> Vec<IndexSet> {
        let mut seen = IndexSet::new();
        self.subregions
            .iter()
            .map(|s| {
                let mine = s.difference(&seen);
                seen = seen.union(s);
                mine
            })
            .collect()
    }

    /// `COMP`: the subregions cover all of `[0, region_size)`.
    pub fn is_complete(&self, region_size: u64) -> bool {
        self.support() == IndexSet::from_range(0, region_size)
    }

    /// `PART`: every subregion is contained in `[0, region_size)`.
    pub fn is_partition_of(&self, region_size: u64) -> bool {
        self.subregions.iter().all(|s| s.max().is_none_or(|m| m < region_size))
    }

    /// The paper's subset constraint `self ⊆ other`: subregion-wise
    /// containment, requiring `other` to have at least as many subregions.
    pub fn subset_of(&self, other: &Partition) -> bool {
        self.subregions.len() <= other.subregions.len()
            && self.subregions.iter().zip(&other.subregions).all(|(a, b)| a.is_subset(b))
    }

    /// Finds the subregions containing index `i` (used by exchange logic and
    /// diagnostics; unique when the partition is disjoint).
    pub fn owners_of(&self, i: Idx) -> Vec<usize> {
        self.subregions.iter().enumerate().filter_map(|(k, s)| s.contains(i).then_some(k)).collect()
    }

    /// Largest subregion size (load-imbalance diagnostics).
    pub fn max_subregion_len(&self) -> u64 {
        self.subregions.iter().map(IndexSet::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r() -> RegionId {
        RegionId(0)
    }

    #[test]
    fn disjoint_and_complete_block_partition() {
        let p = Partition::new(r(), vec![IndexSet::from_range(0, 5), IndexSet::from_range(5, 10)]);
        assert!(p.is_disjoint());
        assert!(p.is_complete(10));
        assert!(p.is_partition_of(10));
        assert!(!p.is_complete(11));
        assert_eq!(p.total_elements(), 10);
    }

    #[test]
    fn overlapping_partition_is_not_disjoint() {
        let p = Partition::new(r(), vec![IndexSet::from_range(0, 6), IndexSet::from_range(4, 10)]);
        assert!(!p.is_disjoint());
        assert!(p.is_complete(10));
        // The first-owner split hands the overlap {4, 5} to subregion 0.
        let own = p.first_owner_split();
        assert_eq!(own, vec![IndexSet::from_range(0, 6), IndexSet::from_range(6, 10)]);
    }

    #[test]
    fn incomplete_partition() {
        let p = Partition::new(r(), vec![IndexSet::from_range(0, 3), IndexSet::from_range(7, 10)]);
        assert!(p.is_disjoint());
        assert!(!p.is_complete(10));
        assert_eq!(p.support().len(), 6);
    }

    #[test]
    fn partition_of_bounds() {
        let p = Partition::new(r(), vec![IndexSet::from_range(0, 12)]);
        assert!(!p.is_partition_of(10));
        assert!(p.is_partition_of(12));
        let empty = Partition::new(r(), vec![IndexSet::new(), IndexSet::new()]);
        assert!(empty.is_partition_of(0));
        assert!(empty.is_disjoint());
    }

    #[test]
    fn subset_is_subregion_wise() {
        let small =
            Partition::new(r(), vec![IndexSet::from_range(1, 3), IndexSet::from_range(6, 8)]);
        let big = Partition::new(
            r(),
            vec![
                IndexSet::from_range(0, 5),
                IndexSet::from_range(5, 10),
                IndexSet::from_range(0, 1),
            ],
        );
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small));
        // Same supports but crossed subregions: not a subset.
        let crossed =
            Partition::new(r(), vec![IndexSet::from_range(6, 8), IndexSet::from_range(1, 3)]);
        assert!(!crossed.subset_of(&big));
    }

    #[test]
    fn owners_of_reports_all_containing_subregions() {
        let p = Partition::new(r(), vec![IndexSet::from_range(0, 6), IndexSet::from_range(4, 10)]);
        assert_eq!(p.owners_of(5), vec![0, 1]);
        assert_eq!(p.owners_of(1), vec![0]);
        assert_eq!(p.owners_of(11), Vec::<usize>::new());
    }

    #[test]
    fn max_subregion_len_for_imbalance() {
        let p = Partition::new(r(), vec![IndexSet::from_range(0, 2), IndexSet::from_range(2, 9)]);
        assert_eq!(p.max_subregion_len(), 7);
        assert_eq!(Partition::new(r(), vec![]).max_subregion_len(), 0);
    }
}
