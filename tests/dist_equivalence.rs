//! App equivalence on the rank-sharded SPMD backend: all five benchmark
//! applications produce bit-identical stores at 1/2/4/8 ranks (override
//! with `PARTIR_RANKS=…`) against the sequential interpreter, with
//! distributed legality checking on — every access is asserted to stay
//! inside each rank's `owned ∪ ghosts` footprint.

use partir::apps::circuit::{Circuit, CircuitParams};
use partir::apps::miniaero::{MiniAero, MiniAeroParams};
use partir::apps::pennant::{Pennant, PennantParams};
use partir::apps::spmv::{Spmv, SpmvParams};
use partir::apps::stencil::{Stencil, StencilParams};
use partir::prelude::*;

fn rank_counts() -> Vec<usize> {
    let env = partir::obs::config::ranks_env();
    if env.is_empty() {
        vec![1, 2, 4, 8]
    } else {
        env
    }
}

/// Runs `program` sequentially and on the rank backend at every rank
/// count, asserting every F64 field matches bit-for-bit.
fn assert_dist_matches_seq(name: &str, program: Vec<Loop>, fns: FnTable, store: Store) {
    let mut seq = store.clone();
    run_program_seq(&program, &mut seq, &fns);
    let schema = store.schema().clone();

    for ranks in rank_counts() {
        let plan = Partir::new(program.clone(), fns.clone(), schema.clone())
            .colors(ranks.max(4))
            .solve()
            .unwrap_or_else(|e| panic!("{name} auto-parallelizes: {e}"));
        let mut par = store.clone();
        // `LegalityMode::default()`: per-element checks in debug builds,
        // the once-per-plan containment proof in release.
        let outcome = Run::new()
            .backend(Backend::Ranks(ranks))
            .legality_mode(LegalityMode::default())
            .run(&plan, &mut par)
            .unwrap_or_else(|e| panic!("{name} on {ranks} ranks: {e}"));
        let rep = outcome.report.as_ranks().expect("rank backend report");
        if cfg!(debug_assertions) {
            assert!(rep.legality_checks > 0, "{name}: per-element legality checking was off");
        } else {
            assert_eq!(rep.legality_checks, 0, "{name}: release path ran per-element checks");
        }
        assert!(rep.plan_proved > 0, "{name}: plan-level legality proof established no facts");

        for f in 0..schema.num_fields() {
            let fid = partir::dpl::region::FieldId(f as u32);
            if let partir::dpl::region::FieldData::F64(sv) = seq.field_data(fid) {
                let partir::dpl::region::FieldData::F64(pv) = par.field_data(fid) else {
                    unreachable!()
                };
                assert_eq!(sv, pv, "{name}: field {fid:?} diverged at {ranks} ranks");
            }
        }
    }
}

#[test]
fn spmv_matches_on_all_rank_counts() {
    let a = Spmv::generate(&SpmvParams { rows: 2_000, halo: 2, ..SpmvParams::default() });
    assert_dist_matches_seq("SpMV", a.program, a.fns, a.store);
}

#[test]
fn stencil_matches_on_all_rank_counts() {
    let a = Stencil::generate(&StencilParams { nx: 64, ny: 48 });
    assert_dist_matches_seq("Stencil", a.program, a.fns, a.store);
}

#[test]
fn circuit_matches_on_all_rank_counts() {
    let a = Circuit::generate(&CircuitParams {
        clusters: 4,
        nodes_per_cluster: 200,
        wires_per_cluster: 800,
        cross_fraction: 0.2,
        cross_stride: None,
        seed: 7,
    });
    assert_dist_matches_seq("Circuit", a.program, a.fns, a.store);
}

#[test]
fn miniaero_matches_on_all_rank_counts() {
    let a = MiniAero::generate(&MiniAeroParams { nx: 6, ny: 6, nz: 6 });
    assert_dist_matches_seq("MiniAero", a.program, a.fns, a.store);
}

#[test]
fn pennant_matches_on_all_rank_counts() {
    let a = Pennant::generate(&PennantParams { pieces: 4, zw: 6, zy: 6 });
    assert_dist_matches_seq("PENNANT", a.program, a.fns, a.store);
}

/// `for j in next(i): y[i] += x[j]` with the single-valued
/// `next(i) = i + 1`: the header expands to `{i + 1}`, and to nothing at
/// the last element, where `next` has no image. Both backends must skip
/// that element exactly as the interpreter does, at every width.
#[test]
fn foreach_over_single_valued_fn_matches_on_both_backends() {
    let mut schema = Schema::new();
    let a = schema.add_region("A", 16);
    let x = schema.add_field(a, "x", FieldKind::F64);
    let y = schema.add_field(a, "y", FieldKind::F64);
    let mut fns = FnTable::new();
    let next = fns.add_affine("next", a, a, 1, 1);
    let mut b = LoopBuilder::new("next_sum", a);
    let i = b.loop_var();
    let j = b.begin_for_each(next, i);
    let v = b.val_read(a, x, j);
    b.val_reduce(a, y, i, ReduceOp::Add, VExpr::var(v));
    b.end_for_each();
    let program = vec![b.finish()];
    let mut store = Store::new(schema.clone());
    for (k, v) in store.f64s_mut(x).iter_mut().enumerate() {
        *v = k as f64 * 0.75 + 0.125;
    }
    let mut seq = store.clone();
    run_program_seq(&program, &mut seq, &fns);

    for width in rank_counts() {
        let plan = Partir::new(program.clone(), fns.clone(), schema.clone())
            .colors(width.max(4))
            .solve()
            .expect("the loop auto-parallelizes");
        for backend in [Backend::Threads(width), Backend::Ranks(width)] {
            let mut par = store.clone();
            Run::new()
                .backend(backend)
                .run(&plan, &mut par)
                .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
            assert_eq!(seq.f64s(y), par.f64s(y), "{backend:?} diverged from the interpreter");
        }
    }
}
