//! Random-program generator shared by the property-test suites: two-region
//! programs (pointer chains, affine neighbor maps, centered writes,
//! uncentered reductions, `ForEach` headers over a CSR-style range field
//! and over a lifted affine map) over randomly populated stores. Every
//! generated program is parallelizable — the properties assert what the
//! pipeline does with it, not whether it bails.
#![allow(dead_code)]

use partir::prelude::*;
use proptest::prelude::*;

/// Configuration of a random two-region program.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub n_a: u64,
    pub n_b: u64,
    pub colors: usize,
    pub read_ptr_chain: bool,
    pub read_affine: bool,
    pub reduce_via_ptr: bool,
    pub reduce_via_affine: bool,
    pub second_loop: bool,
    pub ptr_seed: u64,
    /// `for k in rows(i): A.sum[i] += B.val[k]` over a random range field.
    pub foreach_range: bool,
    /// `for k in step(i): B.acc[k] += A.val[i]` with the lifted
    /// `step(i) = i + 2 : A -> B`, which has no image past `B`'s end.
    pub foreach_lifted: bool,
}

pub fn arb_cfg() -> impl Strategy<Value = Cfg> {
    (
        20u64..120,
        10u64..60,
        1usize..7,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(
                n_a,
                n_b,
                colors,
                read_ptr_chain,
                read_affine,
                reduce_via_ptr,
                reduce_via_affine,
                second_loop,
                ptr_seed,
                foreach_range,
                foreach_lifted,
            )| Cfg {
                n_a,
                n_b,
                colors,
                read_ptr_chain,
                read_affine,
                reduce_via_ptr,
                reduce_via_affine,
                second_loop,
                ptr_seed,
                foreach_range,
                foreach_lifted,
            },
        )
}

pub struct Built {
    pub store: Store,
    pub fns: FnTable,
    pub program: Vec<Loop>,
}

pub fn build(cfg: &Cfg) -> Built {
    use rand::{Rng, SeedableRng};
    let mut schema = Schema::new();
    let b_r = schema.add_region("B", cfg.n_b);
    let a_r = schema.add_region("A", cfg.n_a);
    let ptr = schema.add_field(a_r, "ptr", FieldKind::Ptr(b_r));
    let aval = schema.add_field(a_r, "val", FieldKind::F64);
    let aout = schema.add_field(a_r, "out", FieldKind::F64);
    let bval = schema.add_field(b_r, "val", FieldKind::F64);
    let bacc = schema.add_field(b_r, "acc", FieldKind::F64);
    // Declared last, and only when used, so programs without the range
    // header keep their schema and store.
    let rows = cfg.foreach_range.then(|| {
        (
            schema.add_field(a_r, "rows", FieldKind::Range(b_r)),
            schema.add_field(a_r, "sum", FieldKind::F64),
        )
    });

    let mut fns = FnTable::new();
    let fptr = fns.add_ptr_field("A[.].ptr", a_r, b_r, ptr);
    let faff = fns.add(
        "wrapB",
        b_r,
        b_r,
        FnDef::Index(IndexFn::AffineMod { mul: 1, add: 3, modulus: cfg.n_b }),
    );
    let faff_ab = fns.add(
        "wrapAB",
        a_r,
        b_r,
        FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: cfg.n_b }),
    );

    let mut store = Store::new(schema);
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.ptr_seed);
    for v in store.ptrs_mut(ptr).iter_mut() {
        *v = rng.gen_range(0..cfg.n_b);
    }
    for v in store.f64s_mut(aval).iter_mut() {
        *v = rng.gen_range(0..32) as f64;
    }
    for v in store.f64s_mut(bval).iter_mut() {
        *v = rng.gen_range(0..32) as f64;
    }
    if let Some((rf, _)) = rows {
        for r in store.ranges_mut(rf).iter_mut() {
            let start = rng.gen_range(0..cfg.n_b);
            *r = (start, (start + rng.gen_range(0..4u64)).min(cfg.n_b));
        }
    }

    // Loop 1 over A: centered read, optional uncentered reads of B, a
    // centered write, and optional uncentered reductions into B.acc.
    let mut bld = LoopBuilder::new("loop_a", a_r);
    let i = bld.loop_var();
    let v0 = bld.val_read(a_r, aval, i);
    let mut expr = VExpr::var(v0);
    if cfg.read_ptr_chain {
        let bi = bld.idx_read(a_r, ptr, i, fptr);
        let bv = bld.val_read(b_r, bval, bi);
        // Chain one more hop through the affine neighbor.
        let bj = bld.idx_apply(faff, bi);
        let bv2 = bld.val_read(b_r, bval, bj);
        expr = VExpr::add(expr, VExpr::add(VExpr::var(bv), VExpr::var(bv2)));
    }
    if cfg.read_affine {
        let bj = bld.idx_apply(faff_ab, i);
        let bv = bld.val_read(b_r, bval, bj);
        expr = VExpr::add(expr, VExpr::var(bv));
    }
    bld.val_write(a_r, aout, i, expr.clone());
    if cfg.reduce_via_ptr {
        let bi = bld.idx_read(a_r, ptr, i, fptr);
        bld.val_reduce(b_r, bacc, bi, ReduceOp::Add, VExpr::var(v0));
    }
    if cfg.reduce_via_affine {
        let bj = bld.idx_apply(faff_ab, i);
        bld.val_reduce(b_r, bacc, bj, ReduceOp::Add, VExpr::var(v0));
    }
    if let Some((rf, asum)) = rows {
        let frows = fns.add_range_field("rows", a_r, b_r, rf);
        let k = bld.begin_for_each(frows, i);
        let bv = bld.val_read(b_r, bval, k);
        bld.val_reduce(a_r, asum, i, ReduceOp::Add, VExpr::var(bv));
        bld.end_for_each();
    }
    if cfg.foreach_lifted {
        let step = MultiFn::Lift(IndexFn::Affine { mul: 1, add: 2 });
        let fstep = fns.add("step", a_r, b_r, FnDef::Multi(step));
        let k = bld.begin_for_each(fstep, i);
        bld.val_reduce(b_r, bacc, k, ReduceOp::Add, VExpr::var(v0));
        bld.end_for_each();
    }
    let l1 = bld.finish();

    let mut program = vec![l1];
    if cfg.second_loop {
        // Loop 2 over B: centered update reading an affine neighbor.
        let mut bld = LoopBuilder::new("loop_b", b_r);
        let j = bld.loop_var();
        let nv = bld.idx_apply(faff, j);
        let x = bld.val_read(b_r, bval, nv);
        bld.val_reduce(b_r, bacc, j, ReduceOp::Add, VExpr::var(x));
        program.push(bld.finish());
    }
    Built { store, fns, program }
}

/// Asserts every F64 field of `got` equals `want` bit-for-bit.
pub fn assert_f64_fields_eq(want: &Store, got: &Store, label: &str) -> Result<(), TestCaseError> {
    let schema = want.schema();
    for f in 0..schema.num_fields() {
        let fid = partir::dpl::region::FieldId(f as u32);
        if let partir::dpl::region::FieldData::F64(sv) = want.field_data(fid) {
            let partir::dpl::region::FieldData::F64(pv) = got.field_data(fid) else {
                unreachable!()
            };
            prop_assert_eq!(sv, pv, "{}: field {:?} diverged", label, fid);
        }
    }
    Ok(())
}
