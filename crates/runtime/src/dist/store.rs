//! Rank-local sharded storage.
//!
//! Each rank holds only its shard of every f64 field — the elements of
//! `owned ∪ ghosts` from the [`ExchangePlan`] — laid out densely in
//! ascending global index order, with global→local translation through a
//! precomputed [`LocalMap`] (prefix-summed interval runs, with a
//! zero-search fast path when the footprint is one contiguous run).
//! Ptr/Range topology fields are replicated in full: they describe the
//! mesh/matrix structure, are never written during parallel phases, and
//! partitioning functions read them at arbitrary indices.
//!
//! Failing to translate an index *is* the distributed legality check: an
//! access that reaches an element outside `owned ∪ ghosts` has no local
//! slot, which the rank context reports as a violation instead of reading
//! garbage.
//!
//! All bulk movement (sharding, pack/unpack, gather) walks the *runs* of
//! the transfer sets with `copy_from_slice` instead of translating element
//! by element. That is sound because `IndexSet` runs are canonical
//! (sorted, disjoint, non-adjacent): any run of a subset lies entirely
//! inside a single run of its superset, so a run of a transfer set — a
//! subset of the field's local footprint — always maps to one contiguous
//! local slice.

use partir_core::exchange::{ExchangePlan, FieldSets};
use partir_dpl::func::IndexSource;
use partir_dpl::index_set::{Idx, IndexSet};
use partir_dpl::region::{FieldId, FieldKind, Store};

/// Precomputed global→local translation for one field's footprint:
/// the canonical runs of the footprint set plus the prefix-summed local
/// position of each run's first element.
pub(crate) struct LocalMap {
    /// `(start, end)` global runs, ascending and non-adjacent.
    runs: Vec<(Idx, Idx)>,
    /// `starts[k]`: local position of `runs[k].0`.
    starts: Vec<u64>,
    /// When the footprint is a single run `[s, e)`, translation is just
    /// `i - s` — the common case for block-owned interiors.
    dense: Option<(Idx, Idx)>,
}

impl LocalMap {
    pub(crate) fn new(set: &IndexSet) -> Self {
        let runs = set.runs().to_vec();
        let mut starts = Vec::with_capacity(runs.len());
        let mut acc = 0u64;
        for &(s, e) in &runs {
            starts.push(acc);
            acc += e - s;
        }
        let dense = match runs.as_slice() {
            [one] => Some(*one),
            _ => None,
        };
        LocalMap { runs, starts, dense }
    }

    /// Local position of global element `i`, `None` when not resident.
    #[inline]
    pub(crate) fn pos(&self, i: Idx) -> Option<u64> {
        if let Some((s, e)) = self.dense {
            return (i >= s && i < e).then(|| i - s);
        }
        let k = self.runs.partition_point(|&(s, _)| s <= i);
        if k == 0 {
            return None;
        }
        let (s, e) = self.runs[k - 1];
        (i < e).then(|| self.starts[k - 1] + (i - s))
    }

    /// Total resident elements.
    fn len(&self) -> u64 {
        match (self.runs.last(), self.starts.last()) {
            (Some(&(s, e)), Some(&p)) => p + (e - s),
            _ => 0,
        }
    }
}

/// One field's rank-local storage.
enum RankField {
    /// Sharded f64 payload: `data[local.pos(i)]` holds global element `i`.
    F64 {
        local: LocalMap,
        data: Vec<f64>,
    },
    /// Replicated topology.
    Ptr(Vec<Idx>),
    Range(Vec<(Idx, Idx)>),
}

/// The shard of the global [`Store`] resident on one rank.
pub struct RankStore {
    fields: Vec<RankField>,
}

impl RankStore {
    /// Shards `store` for `rank` per the exchange plan's local footprints,
    /// copying each footprint run with one `extend_from_slice`.
    pub fn shard(store: &Store, xplan: &ExchangePlan, rank: usize) -> Self {
        let schema = store.schema();
        let fields = (0..schema.num_fields())
            .map(|fi| {
                let f = FieldId(fi as u32);
                let decl = schema.field(f);
                match decl.kind {
                    FieldKind::F64 => {
                        let set = xplan.local(decl.region, rank);
                        let local = LocalMap::new(set);
                        let global = store.f64s(f);
                        let mut data = Vec::with_capacity(local.len() as usize);
                        for &(s, e) in set.runs() {
                            data.extend_from_slice(&global[s as usize..e as usize]);
                        }
                        RankField::F64 { local, data }
                    }
                    FieldKind::Ptr(_) => RankField::Ptr(store.ptrs(f).to_vec()),
                    FieldKind::Range(_) => RankField::Range(store.ranges(f).to_vec()),
                }
            })
            .collect();
        RankStore { fields }
    }

    /// Reads global element `i`; `None` when it is not locally resident
    /// (a distributed legality violation at the caller).
    #[inline]
    pub fn try_read_f64(&self, f: FieldId, i: Idx) -> Option<f64> {
        match &self.fields[f.0 as usize] {
            RankField::F64 { local, data } => local.pos(i).map(|p| data[p as usize]),
            _ => None,
        }
    }

    /// Writes global element `i`; `false` when it is not locally resident.
    #[inline]
    pub fn try_write_f64(&mut self, f: FieldId, i: Idx, v: f64) -> bool {
        match &mut self.fields[f.0 as usize] {
            RankField::F64 { local, data } => match local.pos(i) {
                Some(p) => {
                    data[p as usize] = v;
                    true
                }
                None => false,
            },
            _ => false,
        }
    }

    /// Packs the values of `sets` (plan order: ascending field, ascending
    /// element) into `out`, returning how many elements were packed — one
    /// contiguous copy per run. Every run must be locally resident: the
    /// exchange plan only asks a rank to pack what it holds.
    pub fn pack(&self, sets: &FieldSets, out: &mut Vec<f64>) -> usize {
        let before = out.len();
        for (f, set) in sets {
            let RankField::F64 { local, data } = &self.fields[f.0 as usize] else {
                panic!("exchange set over non-f64 field {f:?}");
            };
            for &(s, e) in set.runs() {
                let p = local.pos(s).expect("packed run is locally resident") as usize;
                out.extend_from_slice(&data[p..p + (e - s) as usize]);
            }
        }
        out.len() - before
    }

    /// Installs packed `values` into the elements of `sets` — one
    /// contiguous copy per run — consuming the prefix and returning the
    /// rest (messages concatenate several set lists).
    pub fn unpack<'v>(&mut self, sets: &FieldSets, mut values: &'v [f64]) -> &'v [f64] {
        for (f, set) in sets {
            let RankField::F64 { local, data } = &mut self.fields[f.0 as usize] else {
                panic!("exchange set over non-f64 field {f:?}");
            };
            for &(s, e) in set.runs() {
                let n = (e - s) as usize;
                let p = local.pos(s).expect("unpacked run is locally resident") as usize;
                data[p..p + n].copy_from_slice(&values[..n]);
                values = &values[n..];
            }
        }
        values
    }

    /// The rank's owned f64 shards, for the final gather into the caller's
    /// store: `(field, values over xplan.owned(region, rank))`.
    pub fn extract_owned(
        &self,
        xplan: &ExchangePlan,
        rank: usize,
        store_schema: &partir_dpl::region::Schema,
    ) -> Vec<(FieldId, Vec<f64>)> {
        (0..store_schema.num_fields())
            .filter_map(|fi| {
                let f = FieldId(fi as u32);
                let decl = store_schema.field(f);
                if !matches!(decl.kind, FieldKind::F64) {
                    return None;
                }
                let owned = xplan.owned(decl.region, rank);
                let RankField::F64 { local, data } = &self.fields[f.0 as usize] else {
                    unreachable!();
                };
                let mut vals = Vec::with_capacity(owned.len() as usize);
                for &(s, e) in owned.runs() {
                    let p = local.pos(s).expect("owned ⊆ local") as usize;
                    vals.extend_from_slice(&data[p..p + (e - s) as usize]);
                }
                Some((f, vals))
            })
            .collect()
    }

    /// Installs a gathered shard into the global store (main thread, after
    /// the SPMD scope ends) — one contiguous copy per owned run.
    pub fn install_owned(
        store: &mut Store,
        xplan: &ExchangePlan,
        rank: usize,
        shards: Vec<(FieldId, Vec<f64>)>,
    ) {
        for (f, vals) in shards {
            let region = store.schema().field(f).region;
            let owned = xplan.owned(region, rank).clone();
            let fs = store.f64s_mut(f);
            let mut p = 0usize;
            for &(s, e) in owned.runs() {
                let n = (e - s) as usize;
                fs[s as usize..e as usize].copy_from_slice(&vals[p..p + n]);
                p += n;
            }
        }
    }
}

impl IndexSource for RankStore {
    #[inline]
    fn ptr(&self, f: FieldId, i: Idx) -> Option<Idx> {
        match &self.fields[f.0 as usize] {
            RankField::Ptr(v) => v.get(i as usize).copied(),
            _ => panic!("field {f:?} is not Ptr"),
        }
    }

    #[inline]
    fn range(&self, f: FieldId, i: Idx) -> Option<(Idx, Idx)> {
        match &self.fields[f.0 as usize] {
            RankField::Range(v) => v.get(i as usize).copied(),
            _ => panic!("field {f:?} is not Range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_dpl::region::Schema;

    #[test]
    fn non_resident_access_is_detected() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 8);
        let f = schema.add_field(r, "x", FieldKind::F64);
        let mut store = Store::new(schema.clone());
        for i in 0..8 {
            store.f64s_mut(f)[i] = i as f64;
        }
        // A fake single-field plan: pretend rank 0 holds [0,4).
        // Build via RankField directly to keep the test self-contained.
        let mut rs = RankStore {
            fields: vec![RankField::F64 {
                local: LocalMap::new(&IndexSet::from_range(0, 4)),
                data: vec![0.0, 1.0, 2.0, 3.0],
            }],
        };
        assert_eq!(rs.try_read_f64(f, 2), Some(2.0));
        assert_eq!(rs.try_read_f64(f, 6), None);
        assert!(rs.try_write_f64(f, 3, 9.0));
        assert!(!rs.try_write_f64(f, 5, 9.0));
        assert_eq!(rs.try_read_f64(f, 3), Some(9.0));
    }

    #[test]
    fn local_map_translates_multi_run_footprints() {
        // Footprint {2,3} ∪ {10..13} ∪ {20}: positions 0,1,2,3,4,5.
        let set = IndexSet::from_indices([2, 3, 10, 11, 12, 20]);
        let m = LocalMap::new(&set);
        assert_eq!(m.len(), 6);
        assert_eq!(m.pos(2), Some(0));
        assert_eq!(m.pos(3), Some(1));
        assert_eq!(m.pos(10), Some(2));
        assert_eq!(m.pos(12), Some(4));
        assert_eq!(m.pos(20), Some(5));
        for miss in [0, 1, 4, 9, 13, 19, 21] {
            assert_eq!(m.pos(miss), None, "element {miss} is not resident");
        }
        // The dense fast path kicks in for one contiguous run.
        let dense = LocalMap::new(&IndexSet::from_range(5, 9));
        assert!(dense.dense.is_some());
        assert_eq!(dense.pos(7), Some(2));
        assert_eq!(dense.pos(9), None);
    }

    #[test]
    fn pack_and_unpack_copy_whole_runs() {
        let local = IndexSet::from_indices([0, 1, 2, 3, 8, 9]);
        let mut rs = RankStore {
            fields: vec![RankField::F64 {
                local: LocalMap::new(&local),
                data: vec![0.0, 1.0, 2.0, 3.0, 8.0, 9.0],
            }],
        };
        let f = FieldId(0);
        // A transfer set spanning parts of both runs of the footprint.
        let sets: FieldSets = vec![(f, IndexSet::from_indices([1, 2, 8, 9]))];
        let mut out = Vec::new();
        assert_eq!(rs.pack(&sets, &mut out), 4);
        assert_eq!(out, vec![1.0, 2.0, 8.0, 9.0]);

        let rest = rs.unpack(&sets, &[10.0, 20.0, 80.0, 90.0, 7.5]);
        assert_eq!(rest, &[7.5], "unpack consumes exactly the set elements");
        assert_eq!(rs.try_read_f64(f, 1), Some(10.0));
        assert_eq!(rs.try_read_f64(f, 2), Some(20.0));
        assert_eq!(rs.try_read_f64(f, 8), Some(80.0));
        assert_eq!(rs.try_read_f64(f, 9), Some(90.0));
        assert_eq!(rs.try_read_f64(f, 0), Some(0.0), "untouched elements survive");
    }
}
