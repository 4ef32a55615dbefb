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
