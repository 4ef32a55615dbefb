//! End-to-end executor tests: auto-parallelized execution must reproduce
//! sequential semantics exactly (test data is integer-valued so floating-
//! point reassociation cannot mask errors), with legality checking on.

use partir_core::eval::ExtBindings;
use partir_core::pipeline::{auto_parallelize, Hints, Options, PlannedReduce};
use partir_dpl::func::{FnDef, FnTable, IndexFn};
use partir_dpl::region::{FieldKind, RegionId, Schema, Store};
use partir_ir::ast::{Loop, LoopBuilder, ReduceOp, VExpr};
use partir_ir::interp::run_program_seq;
use partir_runtime::exec::{execute_program, ExecOptions};
use rand::{Rng, SeedableRng};

/// Runs both executions and compares every f64 field.
fn check_parallel_matches_seq(
    program: &[Loop],
    fns: &FnTable,
    store: &Store,
    n_colors: usize,
    hints: &Hints,
    exts: &ExtBindings,
) -> partir_runtime::exec::ExecReport {
    let schema = store.schema().clone();
    let plan = auto_parallelize(program, fns, &schema, hints, Options::default())
        .expect("auto-parallelization succeeds");
    let parts = plan.evaluate(store, fns, n_colors, exts);

    let mut seq_store = store.clone();
    run_program_seq(program, &mut seq_store, fns);

    let mut par_store = store.clone();
    let report = execute_program(
        program,
        &plan,
        &parts,
        &mut par_store,
        fns,
        &ExecOptions { n_threads: 4, check_legality: true, ..ExecOptions::default() },
    )
    .expect("parallel execution succeeds");

    for f in 0..schema.num_fields() {
        let fid = partir_dpl::region::FieldId(f as u32);
        if let partir_dpl::region::FieldData::F64(seq) = seq_store.field_data(fid) {
            let partir_dpl::region::FieldData::F64(par) = par_store.field_data(fid) else {
                panic!()
            };
            assert_eq!(seq, par, "field {fid:?} diverged");
        }
    }
    report
}

/// Figure 1a: particles/cells with pointer indirection and neighbor maps.
#[test]
fn figure1_particles_cells() {
    let mut schema = Schema::new();
    let n_cells = 64u64;
    let n_particles = 500u64;
    let cells = schema.add_region("Cells", n_cells);
    let particles = schema.add_region("Particles", n_particles);
    let cell_f = schema.add_field(particles, "cell", FieldKind::Ptr(cells));
    let pos = schema.add_field(particles, "pos", FieldKind::F64);
    let vel = schema.add_field(cells, "vel", FieldKind::F64);
    let acc = schema.add_field(cells, "acc", FieldKind::F64);
    let mut fns = FnTable::new();
    let fcell = fns.add_ptr_field("cell", particles, cells, cell_f);
    let h = fns.add(
        "h",
        cells,
        cells,
        FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: n_cells }),
    );

    let mut store = Store::new(schema);
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    for p in store.ptrs_mut(cell_f).iter_mut() {
        *p = rng.gen_range(0..n_cells);
    }
    for v in store.f64s_mut(vel).iter_mut() {
        *v = rng.gen_range(0..100) as f64;
    }
    for v in store.f64s_mut(acc).iter_mut() {
        *v = rng.gen_range(0..100) as f64;
    }

    let mut b = LoopBuilder::new("particles", particles);
    let p = b.loop_var();
    let c = b.idx_read(particles, cell_f, p, fcell);
    let v1 = b.val_read(cells, vel, c);
    let hc = b.idx_apply(h, c);
    let v2 = b.val_read(cells, vel, hc);
    b.val_reduce(particles, pos, p, ReduceOp::Add, VExpr::add(VExpr::var(v1), VExpr::var(v2)));
    let l1 = b.finish();

    let mut b = LoopBuilder::new("cells", cells);
    let cv = b.loop_var();
    let a1 = b.val_read(cells, acc, cv);
    let hc = b.idx_apply(h, cv);
    let a2 = b.val_read(cells, acc, hc);
    b.val_reduce(cells, vel, cv, ReduceOp::Add, VExpr::add(VExpr::var(a1), VExpr::var(a2)));
    let l2 = b.finish();

    let report =
        check_parallel_matches_seq(&[l1, l2], &fns, &store, 8, &Hints::new(), &ExtBindings::new());
    assert_eq!(report.tasks_run, 16);
    // All reductions are centered: no buffers, no guards.
    assert_eq!(report.buffer_bytes, 0);
    assert_eq!(report.guard_hits + report.guard_skips, 0);
}

/// Figure 11: two uncentered reductions — relaxation produces a guarded,
/// buffer-free execution over an aliased iteration partition.
#[test]
fn figure11_relaxed_guarded_execution() {
    let mut schema = Schema::new();
    let n = 200u64;
    let r = schema.add_region("R", n);
    let s_ = schema.add_region("S", n);
    let rx = schema.add_field(r, "x", FieldKind::F64);
    let sx = schema.add_field(s_, "x", FieldKind::F64);
    let mut fns = FnTable::new();
    let f = fns.add("f", r, s_, FnDef::Index(IndexFn::AffineMod { mul: 3, add: 0, modulus: n }));
    let g = fns.add("g", r, s_, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 7, modulus: n }));

    let mut store = Store::new(schema);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for v in store.f64s_mut(rx).iter_mut() {
        *v = rng.gen_range(0..50) as f64;
    }

    let mut b = LoopBuilder::new("fig11", r);
    let i = b.loop_var();
    let v = b.val_read(r, rx, i);
    let fi = b.idx_apply(f, i);
    b.val_reduce(s_, sx, fi, ReduceOp::Add, VExpr::var(v));
    let gi = b.idx_apply(g, i);
    b.val_reduce(s_, sx, gi, ReduceOp::Add, VExpr::var(v));
    let program = vec![b.finish()];

    let schema2 = store.schema().clone();
    let plan =
        auto_parallelize(&program, &fns, &schema2, &Hints::new(), Options::default()).unwrap();
    assert!(plan.loops[0].relaxed, "relaxation applies");
    let guarded = plan.loops[0]
        .accesses
        .iter()
        .filter(|a| matches!(a.reduce, Some(PlannedReduce::Guarded)))
        .count();
    assert_eq!(guarded, 2);

    let report =
        check_parallel_matches_seq(&program, &fns, &store, 6, &Hints::new(), &ExtBindings::new());
    assert_eq!(report.buffer_bytes, 0, "relaxation eliminates buffers");
    assert!(report.guard_hits > 0);
    assert!(report.guard_skips > 0, "aliased iteration produces skips");
}

/// Uncentered reduction through a data-dependent pointer field: the
/// Example 3 strategy (equal target + preimage iteration) applies; no
/// buffers needed.
#[test]
fn scatter_reduce_through_pointer() {
    let mut schema = Schema::new();
    let n = 300u64;
    let m = 40u64;
    let r = schema.add_region("R", n);
    let s_ = schema.add_region("S", m);
    let rx = schema.add_field(r, "x", FieldKind::F64);
    let tgt = schema.add_field(r, "tgt", FieldKind::Ptr(s_));
    let sx = schema.add_field(s_, "x", FieldKind::F64);
    let mut fns = FnTable::new();
    let ftgt = fns.add_ptr_field("tgt", r, s_, tgt);

    let mut store = Store::new(schema);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for p in store.ptrs_mut(tgt).iter_mut() {
        *p = rng.gen_range(0..m);
    }
    for v in store.f64s_mut(rx).iter_mut() {
        *v = rng.gen_range(0..10) as f64;
    }

    let mut b = LoopBuilder::new("scatter", r);
    let i = b.loop_var();
    let v = b.val_read(r, rx, i);
    let ti = b.idx_read(r, tgt, i, ftgt);
    b.val_reduce(s_, sx, ti, ReduceOp::Add, VExpr::var(v));
    let program = vec![b.finish()];

    let report =
        check_parallel_matches_seq(&program, &fns, &store, 5, &Hints::new(), &ExtBindings::new());
    assert_eq!(report.buffer_bytes, 0, "disjoint-preference eliminates buffers");
}

/// CSR SpMV (Figure 10): data-dependent inner loops via IMAGE.
#[test]
fn spmv_csr_executes() {
    let rows = 50u64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    // Build a random CSR matrix with 1..8 nonzeros per row.
    let mut row_bounds = Vec::new();
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for _ in 0..rows {
        let start = cols.len() as u64;
        let nnz = rng.gen_range(1..8);
        for _ in 0..nnz {
            cols.push(rng.gen_range(0..rows));
            vals.push(rng.gen_range(0..5) as f64);
        }
        row_bounds.push((start, cols.len() as u64));
    }
    let nnz_total = cols.len() as u64;

    let mut schema = Schema::new();
    let mat = schema.add_region("Mat", nnz_total);
    let x = schema.add_region("X", rows);
    let y = schema.add_region("Y", rows);
    let yv = schema.add_field(y, "val", FieldKind::F64);
    let range_f = schema.add_field(y, "range", FieldKind::Range(mat));
    let mval = schema.add_field(mat, "val", FieldKind::F64);
    let mind = schema.add_field(mat, "ind", FieldKind::Ptr(x));
    let xv = schema.add_field(x, "val", FieldKind::F64);
    let mut fns = FnTable::new();
    let ranges = fns.add_range_field("Ranges", y, mat, range_f);
    let ind = fns.add_ptr_field("ind", mat, x, mind);

    let mut store = Store::new(schema);
    store.ranges_mut(range_f).copy_from_slice(&row_bounds);
    store.ptrs_mut(mind).copy_from_slice(&cols);
    store.f64s_mut(mval).copy_from_slice(&vals);
    for v in store.f64s_mut(xv).iter_mut() {
        *v = rng.gen_range(0..7) as f64;
    }

    let mut b = LoopBuilder::new("spmv", y);
    let i = b.loop_var();
    let k = b.begin_for_each(ranges, i);
    let a = b.val_read(mat, mval, k);
    let col = b.idx_read(mat, mind, k, ind);
    let xval = b.val_read(x, xv, col);
    b.val_reduce(y, yv, i, ReduceOp::Add, VExpr::mul(VExpr::var(a), VExpr::var(xval)));
    b.end_for_each();
    let program = vec![b.finish()];

    check_parallel_matches_seq(&program, &fns, &store, 4, &Hints::new(), &ExtBindings::new());
}

/// External-constraint path (Figure 4 / Example 6): a user-provided
/// clustered partition is honored; execution stays correct and the
/// externally provided partitions appear in the plan.
#[test]
fn external_partition_hint_used_and_correct() {
    let mut schema = Schema::new();
    let n_cells = 40u64;
    let n_particles = 200u64;
    let cells = schema.add_region("Cells", n_cells);
    let particles = schema.add_region("Particles", n_particles);
    let cell_f = schema.add_field(particles, "cell", FieldKind::Ptr(cells));
    let pos = schema.add_field(particles, "pos", FieldKind::F64);
    let vel = schema.add_field(cells, "vel", FieldKind::F64);
    let mut fns = FnTable::new();
    let fcell = fns.add_ptr_field("cell", particles, cells, cell_f);

    // Particles clustered: particle i points to cell i/5, so a block
    // partition of particles maps onto a block partition of cells.
    let mut store = Store::new(schema);
    for (i, p) in store.ptrs_mut(cell_f).iter_mut().enumerate() {
        *p = (i as u64) / 5;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for v in store.f64s_mut(vel).iter_mut() {
        *v = rng.gen_range(0..20) as f64;
    }

    let mut b = LoopBuilder::new("gather", particles);
    let p = b.loop_var();
    let c = b.idx_read(particles, cell_f, p, fcell);
    let v = b.val_read(cells, vel, c);
    b.val_write(particles, pos, p, VExpr::var(v));
    let program = vec![b.finish()];

    let n_colors = 4usize;
    let mut hints = Hints::new();
    let p_particles = hints.external("pParticles", particles);
    let p_cells = hints.external("pCells", cells);
    hints.fact_subset(
        partir_core::lang::PExpr::image(
            partir_core::lang::PExpr::ext(p_particles),
            partir_core::lang::FnRef::Fn(fcell),
            cells,
        ),
        partir_core::lang::PExpr::ext(p_cells),
    );
    hints.fact_disj(partir_core::lang::PExpr::ext(p_particles));
    hints.fact_comp(partir_core::lang::PExpr::ext(p_particles), particles);

    let mut exts = ExtBindings::new();
    exts.push(partir_dpl::ops::equal(particles, n_particles, n_colors));
    exts.push(partir_dpl::ops::equal(cells, n_cells, n_colors));

    let schema2 = store.schema().clone();
    let plan = auto_parallelize(&program, &fns, &schema2, &hints, Options::default()).unwrap();
    // The externals appear in the plan's partition expressions.
    let uses_ext =
        plan.partition_exprs.iter().any(|e| matches!(e, partir_core::lang::PExpr::Ext(_)));
    assert!(uses_ext, "hint partitions used: {}", plan.render_dpl(&fns));

    check_parallel_matches_seq(&program, &fns, &store, n_colors, &hints, &exts);
}

/// Legality checking fires on a wrong plan: corrupt a partition and the
/// executor reports the violation instead of computing garbage.
#[test]
fn legality_violation_detected() {
    let mut schema = Schema::new();
    let r = schema.add_region("R", 10);
    let s_ = schema.add_region("S", 10);
    let rx = schema.add_field(r, "x", FieldKind::F64);
    let sx = schema.add_field(s_, "x", FieldKind::F64);
    let mut fns = FnTable::new();
    let g = fns.add("g", r, s_, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 3, modulus: 10 }));
    let mut store = Store::new(schema);
    let mut b = LoopBuilder::new("bad", r);
    let i = b.loop_var();
    let v = b.val_read(r, rx, i);
    let gi = b.idx_apply(g, i);
    b.val_reduce(s_, sx, gi, ReduceOp::Add, VExpr::var(v));
    let program = vec![b.finish()];
    let schema2 = store.schema().clone();
    let plan =
        auto_parallelize(&program, &fns, &schema2, &Hints::new(), Options::default()).unwrap();
    let mut parts = plan.evaluate(&store, &fns, 2, &ExtBindings::new());
    // Corrupt the reduction-access partition: shrink every subregion to
    // empty, so targets fall outside.
    let reduce_part = plan.loops[0].accesses[1].part;
    parts[reduce_part.0 as usize] = std::sync::Arc::new(partir_dpl::partition::Partition::new(
        RegionId(1),
        vec![partir_dpl::index_set::IndexSet::new(); 2],
    ));
    let err = execute_program(
        &program,
        &plan,
        &parts,
        &mut store,
        &fns,
        &ExecOptions { n_threads: 2, check_legality: true, ..ExecOptions::default() },
    )
    .unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("legality") || msg.contains("not disjoint") || msg.contains("rank"),
        "unexpected error: {msg}"
    );
    // The violation is structured, not just a message: it names the loop,
    // the task, and the region whose subregion was escaped.
    match err {
        partir_runtime::exec::ExecError::Legality(v) => {
            assert_eq!(v.loop_id, 0);
            assert!(v.task < 2, "task {} out of range", v.task);
            assert_eq!(v.region, RegionId(1), "violation targets the S region");
            assert!(v.index < 10, "violating element within region bounds");
        }
        other => panic!("expected a structured legality violation, got {other}"),
    }
}

/// Plan-shape errors fire before any loop runs: with the second loop's
/// iteration partition made incomplete, the run fails and the first loop
/// has not touched the store.
#[test]
fn shape_error_in_a_later_loop_leaves_the_store_untouched() {
    let mut schema = Schema::new();
    let r = schema.add_region("R", 12);
    let s_ = schema.add_region("S", 8);
    let rx = schema.add_field(r, "x", FieldKind::F64);
    let sx = schema.add_field(s_, "x", FieldKind::F64);
    let fns = FnTable::new();
    let mut store = Store::new(schema.clone());
    for (k, v) in store.f64s_mut(rx).iter_mut().enumerate() {
        *v = k as f64;
    }
    let mut b = LoopBuilder::new("double_r", r);
    let i = b.loop_var();
    let v = b.val_read(r, rx, i);
    b.val_write(r, rx, i, VExpr::mul(VExpr::Const(2.0), VExpr::var(v)));
    let mut b2 = LoopBuilder::new("bump_s", s_);
    let j = b2.loop_var();
    b2.val_write(s_, sx, j, VExpr::Const(1.0));
    let program = vec![b.finish(), b2.finish()];
    let plan =
        auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
    let mut parts = plan.evaluate(&store, &fns, 2, &ExtBindings::new());
    let pi = plan.loops[1].iter.0 as usize;
    assert_ne!(pi, plan.loops[0].iter.0 as usize, "the loops iterate different partitions");
    let missing = partir_dpl::index_set::IndexSet::from_range(0, 1);
    let subs = parts[pi].subregions().iter().map(|s| s.difference(&missing)).collect();
    parts[pi] = std::sync::Arc::new(partir_dpl::partition::Partition::new(s_, subs));

    let before = store.clone();
    let err = execute_program(&program, &plan, &parts, &mut store, &fns, &ExecOptions::default())
        .unwrap_err();
    assert_eq!(err.to_string(), "loop 1: iteration partition incomplete");
    assert_eq!(store.f64s(rx), before.f64s(rx), "loop 0 ran before the shape check");
    assert_eq!(store.f64s(sx), before.f64s(sx));
}
