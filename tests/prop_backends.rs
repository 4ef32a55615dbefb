//! Cross-backend equivalence, empirically: for randomly generated
//! parallelizable programs, one solved `Plan` produces bit-identical
//! stores on the sequential interpreter, the threaded executor, and the
//! rank-sharded SPMD backend — with dynamic legality checking on
//! everywhere. Both backends run the same solution, so any divergence is
//! an executor bug, not a solver one.

use partir::prelude::*;
use proptest::prelude::*;

mod common;
use common::{arb_cfg, assert_f64_fields_eq, build};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_backends_agree(cfg in arb_cfg(), n_ranks in 1usize..5) {
        let built = build(&cfg);
        // The rank backend needs at least one color per rank.
        let colors = cfg.colors.max(n_ranks);

        let mut seq = built.store.clone();
        run_program_seq(&built.program, &mut seq, &built.fns);

        let plan = Partir::new(
            built.program.clone(),
            built.fns.clone(),
            built.store.schema().clone(),
        )
        .colors(colors)
        .solve()
        .expect("generated programs are parallelizable");

        for backend in [Backend::Threads(3), Backend::Ranks(n_ranks)] {
            let mut par = built.store.clone();
            match Run::new().backend(backend).run(&plan, &mut par) {
                Ok(_) => {}
                Err(e) => return Err(TestCaseError::fail(format!("{backend:?} failed: {e}"))),
            }
            assert_f64_fields_eq(&seq, &par, &format!("{backend:?} (cfg {cfg:?})"))?;
        }
    }
}

/// A `Direct` reduction through a pointer and a private slice of a second
/// reduction into the same field used to reach one element in place from
/// two colors: the rank backend's write-back then dropped the owner's
/// contribution (and the threads backend raced on it). The plan now keeps
/// every in-place effect on a field to one partition.
#[test]
fn in_place_reductions_into_one_field_share_one_partition() {
    let cfg = common::Cfg {
        n_a: 70,
        n_b: 35,
        colors: 2,
        read_ptr_chain: false,
        read_affine: false,
        reduce_via_ptr: true,
        reduce_via_affine: true,
        second_loop: true,
        ptr_seed: 25,
        foreach_range: true,
        foreach_lifted: false,
    };
    let built = build(&cfg);
    let mut seq = built.store.clone();
    run_program_seq(&built.program, &mut seq, &built.fns);
    let plan = Partir::new(built.program.clone(), built.fns.clone(), built.store.schema().clone())
        .colors(cfg.colors)
        .solve()
        .expect("generated programs are parallelizable");
    for lp in &plan.parallel_plan().loops {
        let mut in_place: Vec<_> = lp
            .accesses
            .iter()
            .filter_map(|a| match a.reduce {
                Some(PlannedReduce::Direct) | Some(PlannedReduce::Guarded) => {
                    Some((a.field, a.part.0))
                }
                Some(PlannedReduce::BufferedPrivate { private }) => Some((a.field, private.0)),
                _ => None,
            })
            .collect();
        in_place.sort();
        in_place.dedup();
        assert!(
            in_place.windows(2).all(|w| w[0].0 != w[1].0),
            "loop {}: one field reduced in place through two partitions: {in_place:?}",
            lp.loop_index
        );
    }
    for backend in [Backend::Threads(2), Backend::Ranks(2)] {
        let mut par = built.store.clone();
        Run::new().backend(backend).run(&plan, &mut par).expect("runs");
        assert_f64_fields_eq(&seq, &par, &format!("{backend:?}")).unwrap();
    }
}
