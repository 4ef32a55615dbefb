//! The legality ladder of the rank backend, end to end:
//!
//! * `LegalityMode::Plan` — the once-per-plan containment proof
//!   (`accessed ⊆ owned ∪ ghosts` over `IndexSet` intervals) runs, zero
//!   per-element checks happen, and execution stays bit-identical;
//! * `LegalityMode::Element` — the per-element path still counts checks
//!   (on top of the proof);
//! * a deliberately corrupted exchange plan — one ghost element silently
//!   dropped from a rank's footprint and fetch sets — is rejected by the
//!   plan prover as `dist.plan_illegal`, and caught at runtime by the
//!   residency check when the prover is skipped.
//!
//! This backs the CI legality gate: release `fig_dist` asserts
//! `legality_checks == 0` with `plan_proved > 0` on every point, and this
//! suite proves those counters mean what they claim.

use partir::apps::stencil::{Stencil, StencilParams};
use partir::core::eval::ExtBindings;
use partir::core::exchange::derive_exchange;
use partir::core::pipeline::{auto_parallelize, Hints, Options};
use partir::prelude::*;
use partir::runtime::dist::{execute_with_exchange_full, DistError, DistOptions, LegalityMode};

fn stencil() -> Stencil {
    Stencil::generate(&StencilParams { nx: 48, ny: 32 })
}

fn run_with_mode(mode: LegalityMode) -> partir::runtime::dist::DistReport {
    let a = stencil();
    let mut seq = a.store.clone();
    run_program_seq(&a.program, &mut seq, &a.fns);

    let plan = Partir::new(a.program, a.fns, a.store.schema().clone())
        .colors(4)
        .solve()
        .expect("stencil auto-parallelizes");
    let mut par = a.store.clone();
    let outcome = Run::new()
        .backend(Backend::Ranks(4))
        .legality_mode(mode)
        .run(&plan, &mut par)
        .expect("stencil runs on 4 ranks");

    for f in 0..a.store.schema().num_fields() {
        let fid = partir::dpl::region::FieldId(f as u32);
        if let partir::dpl::region::FieldData::F64(sv) = seq.field_data(fid) {
            let partir::dpl::region::FieldData::F64(pv) = par.field_data(fid) else {
                unreachable!()
            };
            assert_eq!(sv, pv, "field {fid:?} diverged under {mode:?}");
        }
    }
    *outcome.report.as_ranks().expect("rank backend report")
}

#[test]
fn plan_mode_proves_once_and_skips_per_element_checks() {
    let rep = run_with_mode(LegalityMode::Plan);
    assert_eq!(rep.legality_checks, 0, "plan mode must not pay per-element checks");
    assert!(rep.plan_proved > 0, "plan mode must establish containment facts");
}

#[test]
fn element_mode_still_counts_per_element_checks() {
    let rep = run_with_mode(LegalityMode::Element);
    assert!(rep.legality_checks > 0, "element mode counts every access check");
    assert!(rep.plan_proved > 0, "the proof runs in element mode too");
}

/// The negative half of the CI legality gate: a plan that lies about a
/// rank's footprint must not slip through either mode.
#[test]
fn corrupted_plan_is_rejected_by_prover_and_caught_by_residency_check() {
    let a = stencil();
    let schema = a.store.schema().clone();
    let plan =
        auto_parallelize(&a.program, &a.fns, &schema, &Hints::new(), Options::default()).unwrap();
    let parts = plan.evaluate(&a.store, &a.fns, 4, &ExtBindings::new());
    let mut xplan = derive_exchange(&plan, &parts, &schema, 4).unwrap();
    assert!(xplan.corrupt_footprint_for_test(&schema), "the stencil plan has ghosts");

    // Plan mode: the prover rejects the corrupted plan before any rank
    // spawns, with the stable `dist.plan_illegal` error code.
    let mut store = a.store.clone();
    let opts = DistOptions { n_ranks: 4, legality: LegalityMode::Plan, ..DistOptions::default() };
    let err =
        execute_with_exchange_full(&a.program, &plan, &parts, &xplan, &mut store, &a.fns, &opts)
            .expect_err("the prover must reject a corrupted footprint");
    assert!(matches!(err, DistError::PlanIllegal(_)), "got {err}");
    assert_eq!(partir::Error::from(err).error_code(), "dist.plan_illegal");

    // Prover off: the always-on residency check catches the read of the
    // never-shipped ghost element at runtime, as a structured violation.
    let mut store = a.store.clone();
    let opts = DistOptions { n_ranks: 4, legality: LegalityMode::Off, ..DistOptions::default() };
    let err =
        execute_with_exchange_full(&a.program, &plan, &parts, &xplan, &mut store, &a.fns, &opts)
            .expect_err("the residency check must catch the missing ghost");
    assert!(matches!(err, DistError::Legality(_)), "got {err}");
}
