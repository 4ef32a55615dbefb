//! Shared field storage for parallel task execution.
//!
//! Parallel tasks execute loop bodies concurrently against one [`Store`].
//! Safety rests on the partitioning invariants the solver established and
//! the executor enforces dynamically:
//!
//! * pointer/range fields are never written during parallel phases — tasks
//!   only read them;
//! * f64 *writes* are centered, and the executor guarantees each element is
//!   written by exactly one task (disjoint iteration partition, or the
//!   first-owner write-ownership sets of relaxed loops);
//! * f64 *reductions* applied directly (modes `Direct`/`Guarded`/the
//!   private part of `BufferedPrivate`) target elements owned by exactly
//!   one task (disjoint reduction partition / guard / private
//!   sub-partition); all other reductions go to task-local buffers;
//! * a field that is written in a loop is never read uncentered in the same
//!   loop (checked by the parallelizability analysis), so cross-task
//!   read/write overlap on the same element cannot occur.
//!
//! Under those invariants no two tasks access the same `f64` element with a
//! write involved, which is exactly Rust's no-data-race requirement.

use partir_dpl::func::IndexSource;
use partir_dpl::index_set::Idx;
use partir_dpl::region::{FieldData, FieldId, Store};

/// Raw views of every field of a store, shareable across worker threads.
pub struct SharedStore {
    fields: Vec<RawField>,
}

enum RawField {
    F64 { ptr: *mut f64, len: usize },
    Ptr { ptr: *const Idx, len: usize },
    Range { ptr: *const (Idx, Idx), len: usize },
}

// SAFETY: see the module docs — the executor guarantees conflicting
// accesses never target the same element concurrently.
unsafe impl Sync for SharedStore {}
unsafe impl Send for SharedStore {}

impl SharedStore {
    /// Captures raw views of every field. The borrow of `store` must outlive
    /// the parallel phase (the executor keeps `&mut Store` frozen while the
    /// crossbeam scope is alive).
    pub fn new(store: &mut Store) -> Self {
        let n = store.schema().num_fields();
        let mut fields = Vec::with_capacity(n);
        for i in 0..n {
            let fid = FieldId(i as u32);
            let raw = match store.field_data_mut(fid) {
                FieldData::F64(v) => RawField::F64 { ptr: v.as_mut_ptr(), len: v.len() },
                FieldData::Ptr(v) => RawField::Ptr { ptr: v.as_ptr(), len: v.len() },
                FieldData::Range(v) => RawField::Range { ptr: v.as_ptr(), len: v.len() },
            };
            fields.push(raw);
        }
        SharedStore { fields }
    }

    /// Reads an f64 element.
    ///
    /// # Safety
    /// No concurrent write to the same element (guaranteed by the executor's
    /// centered-write / reduction-ownership invariants).
    #[inline]
    pub unsafe fn read_f64(&self, f: FieldId, i: Idx) -> f64 {
        match &self.fields[f.0 as usize] {
            RawField::F64 { ptr, len } => {
                debug_assert!((i as usize) < *len, "f64 read out of bounds");
                unsafe { *ptr.add(i as usize) }
            }
            _ => panic!("field {f:?} is not F64"),
        }
    }

    /// Writes an f64 element.
    ///
    /// # Safety
    /// The caller must be the unique task accessing element `i` of field
    /// `f` during this parallel phase.
    #[inline]
    pub unsafe fn write_f64(&self, f: FieldId, i: Idx, v: f64) {
        match &self.fields[f.0 as usize] {
            RawField::F64 { ptr, len } => {
                debug_assert!((i as usize) < *len, "f64 write out of bounds");
                unsafe { *ptr.add(i as usize) = v }
            }
            _ => panic!("field {f:?} is not F64"),
        }
    }
}

impl IndexSource for SharedStore {
    #[inline]
    fn ptr(&self, f: FieldId, i: Idx) -> Option<Idx> {
        match &self.fields[f.0 as usize] {
            // SAFETY: in bounds by the check; pointer fields are never
            // written during parallel phases, so the read races with nothing.
            RawField::Ptr { ptr, len } => {
                ((i as usize) < *len).then(|| unsafe { *ptr.add(i as usize) })
            }
            _ => panic!("field {f:?} is not Ptr"),
        }
    }

    #[inline]
    fn range(&self, f: FieldId, i: Idx) -> Option<(Idx, Idx)> {
        match &self.fields[f.0 as usize] {
            // SAFETY: as for `ptr` — in bounds, and never written in parallel.
            RawField::Range { ptr, len } => {
                ((i as usize) < *len).then(|| unsafe { *ptr.add(i as usize) })
            }
            _ => panic!("field {f:?} is not Range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_dpl::region::{FieldKind, Schema};

    #[test]
    fn roundtrip_reads_writes() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 4);
        let fv = schema.add_field(r, "v", FieldKind::F64);
        let fp = schema.add_field(r, "p", FieldKind::Ptr(r));
        let fr = schema.add_field(r, "rg", FieldKind::Range(r));
        let mut store = Store::new(schema);
        store.ptrs_mut(fp)[2] = 3;
        store.ranges_mut(fr)[1] = (1, 4);
        {
            let shared = SharedStore::new(&mut store);
            unsafe {
                shared.write_f64(fv, 0, 7.5);
                assert_eq!(shared.read_f64(fv, 0), 7.5);
            }
            assert_eq!(shared.ptr(fp, 2), Some(3));
            assert_eq!(shared.range(fr, 1), Some((1, 4)));
        }
        assert_eq!(store.f64s(fv)[0], 7.5);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 1000);
        let fv = schema.add_field(r, "v", FieldKind::F64);
        let mut store = Store::new(schema);
        {
            let shared = SharedStore::new(&mut store);
            crossbeam::scope(|s| {
                for t in 0..4u64 {
                    let shared = &shared;
                    s.spawn(move |_| {
                        for i in (t * 250)..((t + 1) * 250) {
                            unsafe { shared.write_f64(fv, i, i as f64) };
                        }
                    });
                }
            })
            .unwrap();
        }
        for (i, v) in store.f64s(fv).iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }
}
