//! The `partir::Partir` builder — the front door for solving.
//!
//! Instead of threading `Hints`/`Options` through the core crate by hand,
//! callers describe a solve once and get a shareable [`Plan`]; everything
//! about executing it lives in [`Run`](crate::Run):
//!
//! ```text
//! let plan = Partir::new(program, fns, schema)
//!     .hints(h)
//!     .budget(b)
//!     .relax(RelaxPolicy::Auto)
//!     .colors(8)
//!     .cache(&cache)           // optional: fingerprint-keyed reuse
//!     .solve()?;               // solve once (or hit the cache)
//! Run::new().backend(Backend::Ranks(4)).run(&plan, &mut store)?;
//! ```
//!
//! Every setter here feeds the solve fingerprint, so two builders that
//! agree on them share one cached [`Plan`].

use crate::error::Error;
use crate::plan::Plan;
use partir_core::cache::{PlanCache, SolvedPlan};
use partir_core::eval::ExtBindings;
use partir_core::fingerprint::solve_fingerprint;
use partir_core::optimize::RelaxPolicy;
use partir_core::pipeline::{Hints, Options};
use partir_core::solve::SolveBudget;
use partir_dpl::func::FnTable;
use partir_dpl::region::Schema;
use partir_ir::ast::Loop;
use std::sync::Arc;

/// Colors solved at when [`Partir::colors`] is not called: the width of
/// [`Backend::default()`](crate::Backend), so a default plan fills a
/// default run one color per worker.
const DEFAULT_COLORS: usize = 4;

/// Builder for a partir solve. Construct with [`Partir::new`], configure
/// with the chained setters, then [`solve`](Partir::solve) for a shareable
/// [`Plan`].
#[derive(Debug)]
pub struct Partir {
    program: Vec<Loop>,
    fns: FnTable,
    schema: Schema,
    hints: Hints,
    options: Options,
    colors: usize,
    externals: ExtBindings,
    cache: Option<PlanCache>,
}

impl Partir {
    /// Starts a builder over a program, its partitioning functions, and
    /// its data schema.
    pub fn new(program: Vec<Loop>, fns: FnTable, schema: Schema) -> Self {
        Partir {
            program,
            fns,
            schema,
            hints: Hints::new(),
            options: Options::default(),
            colors: DEFAULT_COLORS,
            externals: ExtBindings::new(),
            cache: None,
        }
    }

    /// User hints: external partitions, invariants, private sub-partition
    /// candidates (Section 3.3 / 6.5).
    pub fn hints(mut self, hints: Hints) -> Self {
        self.hints = hints;
        self
    }

    /// Full pipeline options (ablation knobs). [`budget`](Self::budget)
    /// and [`relax`](Self::relax) are shortcuts into this.
    pub fn options(mut self, options: Options) -> Self {
        self.options = options;
        self
    }

    /// Resource budget for the constraint solver.
    pub fn budget(mut self, budget: SolveBudget) -> Self {
        self.options.solve_budget = budget;
        self
    }

    /// Relaxation policy for loops whose constraints over-approximate.
    pub fn relax(mut self, policy: RelaxPolicy) -> Self {
        self.options.relax = policy;
        self
    }

    /// Number of partition colors (tasks); defaults to 4. The rank backend
    /// requires `colors >= ranks`, so every rank owns a non-empty block of
    /// colors.
    pub fn colors(mut self, colors: usize) -> Self {
        self.colors = colors;
        self
    }

    /// Consult (and populate) a fingerprint-keyed [`PlanCache`] in
    /// [`solve`](Self::solve). On a hit the entire pipeline — inference,
    /// unification, solving, plan construction — is skipped and the
    /// returned [`Plan`] shares the cached artifact, including its memoized
    /// exchange plans, placements, and legality proofs. The handle is
    /// cloned; all users of one cache share its capacity and statistics.
    pub fn cache(mut self, cache: &PlanCache) -> Self {
        self.cache = Some(cache.clone());
        self
    }

    /// Bindings for the external partitions declared in the hints, in
    /// declaration order.
    pub fn externals(mut self, externals: ExtBindings) -> Self {
        self.externals = externals;
        self
    }

    /// Solves the partitioning constraints (inference → unification →
    /// solving → plan construction) into a shareable [`Plan`], consulting
    /// the configured [`PlanCache`] first.
    pub fn solve(self) -> Result<Plan, Error> {
        let colors = self.colors;
        if colors == 0 {
            return Err(Error::Session("color count must be at least 1".into()));
        }
        if self.externals.len() != self.hints.num_externals() {
            return Err(Error::Session(format!(
                "{} external bindings for {} declared externals",
                self.externals.len(),
                self.hints.num_externals()
            )));
        }
        let cache = self.cache;
        if let Some(cache) = &cache {
            let fp = solve_fingerprint(
                &self.program,
                &self.fns,
                &self.schema,
                &self.hints,
                &self.options,
                &self.externals,
                colors,
            );
            if let Some(solved) = cache.get(fp)? {
                return Ok(Plan::from_solved(solved, true));
            }
        }
        let solved = Arc::new(SolvedPlan::solve(
            self.program,
            self.fns,
            self.schema,
            &self.hints,
            self.options,
            self.externals,
            colors,
        )?);
        if let Some(cache) = &cache {
            // Degraded (budget-exhausted) plans are refused by the cache
            // itself, so a warm cache never pins a fallback solution.
            cache.insert(solved.clone())?;
        }
        Ok(Plan::from_solved(solved, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Backend, Run};
    use partir_core::placement::{PlacementConfig, PlacementPolicy};
    use partir_dpl::func::{FnDef, IndexFn};
    use partir_dpl::region::{FieldId, FieldKind, Store};
    use partir_ir::ast::{LoopBuilder, ReduceOp, VExpr};
    use partir_ir::interp::run_program_seq;
    use partir_obs::profile::DistProfile;
    use partir_obs::ObsConfig;
    use partir_runtime::dist::{CheckpointPolicy, DistFaultPlan, RankCrash};
    use partir_runtime::fault::FaultPlan;

    /// Figure 7's scatter: `for i in R: S[g(i)] += R[i]`.
    fn scatter() -> (Vec<Loop>, FnTable, Schema, Store) {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 96);
        let s = schema.add_region("S", 96);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let sx = schema.add_field(s, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let g =
            fns.add("g", r, s, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 3, modulus: 96 }));
        let mut b = LoopBuilder::new("scatter", r);
        let i = b.loop_var();
        let v = b.val_read(r, rx, i);
        let gi = b.idx_apply(g, i);
        b.val_reduce(s, sx, gi, ReduceOp::Add, VExpr::var(v));
        let mut store = Store::new(schema.clone());
        for i in 0..96 {
            store.f64s_mut(rx)[i] = (i as f64).cos() * 2.5;
            store.f64s_mut(sx)[i] = i as f64 * 0.125;
        }
        (vec![b.finish()], fns, schema, store)
    }

    /// The scatter solved at `colors`, its input store, and the sequential
    /// interpreter's result on that store.
    fn solved_scatter(colors: usize) -> (Plan, Store, Store) {
        let (program, fns, schema, seed) = scatter();
        let mut seq = seed.clone();
        run_program_seq(&program, &mut seq, &fns);
        let plan = Partir::new(program, fns, schema).colors(colors).solve().unwrap();
        (plan, seed, seq)
    }

    fn f64_bits(store: &Store) -> Vec<Vec<u64>> {
        (0..store.schema().num_fields())
            .map(|f| store.f64s(FieldId(f as u32)).iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// `run` must fail validation with `session.invalid` and leave the
    /// store bit-identical to its input.
    fn assert_rejected_untouched(run: Run, plan: &Plan, seed: &Store) {
        let mut store = seed.clone();
        let err = run.run(plan, &mut store).unwrap_err();
        assert_eq!(err.error_code(), "session.invalid", "{run:?}: {err}");
        assert_eq!(f64_bits(&store), f64_bits(seed), "{run:?} touched the store");
    }

    #[test]
    fn builder_runs_on_both_backends() {
        for backend in [Backend::Threads(3), Backend::Ranks(3)] {
            let (plan, mut store, seq) = solved_scatter(6);
            let outcome = Run::new().backend(backend).run(&plan, &mut store).expect("run succeeds");
            assert!(outcome.report.tasks_run() > 0);
            assert_eq!(f64_bits(&seq), f64_bits(&store), "{backend:?} differs");
        }
    }

    #[test]
    fn solve_exposes_the_plan() {
        let (program, fns, schema, _) = scatter();
        let plan = Partir::new(program, fns, schema).solve().unwrap();
        assert!(!plan.render_dpl().is_empty());
        assert!(plan.parallel_plan().num_partitions() > 0);
        assert_eq!(Backend::Threads(plan.colors()), Backend::default(), "one color per worker");
    }

    #[test]
    fn solve_yields_a_shareable_plan_that_runs_on_both_backends() {
        let (program, fns, schema, seed) = scatter();
        let mut seq = seed.clone();
        run_program_seq(&program, &mut seq, &fns);

        let plan = Partir::new(program, fns, schema.clone())
            .colors(6)
            .solve()
            .expect("scatter is parallelizable");
        assert!(!plan.cache_hit());
        assert!(!plan.degraded());

        // One solve, two backends, concurrent runs over clones.
        let handles: Vec<_> =
            [Run::new().backend(Backend::Threads(3)), Run::new().backend(Backend::Ranks(3))]
                .into_iter()
                .map(|run| {
                    let plan = plan.clone();
                    let mut store = seed.clone();
                    std::thread::spawn(move || {
                        let outcome = run.run(&plan, &mut store).expect("run succeeds");
                        assert!(outcome.report.tasks_run() > 0);
                        store
                    })
                })
                .collect();
        for h in handles {
            let store = h.join().expect("no panic");
            for fi in 0..schema.num_fields() {
                let f = FieldId(fi as u32);
                assert_eq!(seq.field_data(f), store.field_data(f));
            }
        }
    }

    #[test]
    fn plan_cache_hits_share_the_solved_artifact() {
        let (program, fns, schema, _) = scatter();
        let cache = PlanCache::default();
        let cold = Partir::new(program.clone(), fns.clone(), schema.clone())
            .colors(6)
            .cache(&cache)
            .solve()
            .unwrap();
        assert!(!cold.cache_hit());
        let warm = Partir::new(program, fns, schema).colors(6).cache(&cache).solve().unwrap();
        assert!(warm.cache_hit());
        assert!(Arc::ptr_eq(cold.solved(), warm.solved()), "hit shares the artifact");
        assert_eq!(cold.fingerprint(), warm.fingerprint());
        let stats = cache.stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn invalid_configurations_are_session_errors() {
        let (plan, seed, _) = solved_scatter(2);
        assert_rejected_untouched(Run::new().backend(Backend::Threads(0)), &plan, &seed);
        assert_rejected_untouched(Run::new().backend(Backend::Ranks(0)), &plan, &seed);
        // Two colors cannot cover four ranks.
        assert_rejected_untouched(Run::new().backend(Backend::Ranks(4)), &plan, &seed);
        assert_rejected_untouched(
            Run::new().backend(Backend::Ranks(2)).fault(FaultPlan::quiescent(7)),
            &plan,
            &seed,
        );
    }

    #[test]
    fn dist_fault_and_checkpoint_are_ranks_only() {
        let (plan, seed, _) = solved_scatter(4);
        let threads = Run::new().backend(Backend::Threads(2));
        assert_rejected_untouched(
            threads.clone().dist_fault(DistFaultPlan::quiescent(1)),
            &plan,
            &seed,
        );
        assert_rejected_untouched(threads.checkpoint(CheckpointPolicy::every(1)), &plan, &seed);
        let crash_out_of_range = Run::new().backend(Backend::Ranks(2)).dist_fault(DistFaultPlan {
            crash: Some(RankCrash { rank: 5, epoch: 0, silent: false }),
            ..DistFaultPlan::quiescent(1)
        });
        assert_rejected_untouched(crash_out_of_range, &plan, &seed);
    }

    #[test]
    fn rank_crash_recovers_bit_identically_through_the_builder() {
        let (plan, mut store, seq) = solved_scatter(6);
        let outcome = Run::new()
            .backend(Backend::Ranks(3))
            .dist_fault(DistFaultPlan {
                crash: Some(RankCrash { rank: 1, epoch: 0, silent: false }),
                ..DistFaultPlan::quiescent(9)
            })
            .checkpoint(CheckpointPolicy::every(1))
            .run(&plan, &mut store)
            .expect("survivors recover the run");
        let dist = outcome.report.as_ranks().expect("ranks report");
        assert_eq!(dist.recoveries, 1);
        assert!(dist.bytes_migrated > 0, "the lost rank's shard migrated");
        assert_eq!(f64_bits(&seq), f64_bits(&store));
    }

    #[test]
    fn timeline_and_volume_flow_through_the_ranks_backend() {
        let (plan, mut store, _) = solved_scatter(4);
        let outcome = Run::new()
            .backend(Backend::Ranks(4))
            .obs(ObsConfig { timeline: true, strict_volume: true, ..ObsConfig::disabled() })
            .run(&plan, &mut store)
            .expect("strict volume accounting holds");

        let trace = outcome.trace.as_ref().expect("timeline was collected");
        trace.validate().expect("well-formed timeline");
        let volume = outcome.volume.as_ref().expect("volume accounting present");
        assert!(volume.is_clean());
        let profile =
            outcome.trace.as_ref().map(DistProfile::from_trace).expect("profile from the timeline");
        assert!((profile.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_placement_runs_bit_identically_and_reports() {
        let (plan, mut store, seq) = solved_scatter(6);
        // A deliberately scrambled (but valid) owner mapping: results must
        // not depend on which rank owns which color.
        let outcome = Run::new()
            .backend(Backend::Ranks(3))
            .placement(PlacementPolicy::Explicit(vec![2, 0, 1, 1, 0, 2]))
            .run(&plan, &mut store)
            .expect("explicit placement runs");
        let rep = outcome.placement.expect("placement report present");
        assert_eq!(rep.policy, "explicit");
        assert_eq!(f64_bits(&seq), f64_bits(&store));
    }

    #[test]
    fn placement_misconfigurations_are_session_errors() {
        let (plan, seed, _) = solved_scatter(4);
        assert_rejected_untouched(
            Run::new().backend(Backend::Threads(2)).placement(PlacementPolicy::CostDriven),
            &plan,
            &seed,
        );
        assert_rejected_untouched(
            Run::new().backend(Backend::Ranks(2)).placement_config(PlacementConfig {
                imbalance: 0.5,
                ..PlacementConfig::cost_driven()
            }),
            &plan,
            &seed,
        );
    }

    #[test]
    fn bad_explicit_assignments_surface_as_exchange_errors() {
        let (plan, seed, _) = solved_scatter(6);
        // Too short: 4 entries for 6 colors; then an out-of-range rank 7 on
        // a 3-rank backend. Shape defects pass validation and surface from
        // exchange derivation.
        for assignment in [vec![0, 1, 2, 0], vec![0, 1, 2, 7, 1, 0]] {
            let mut store = seed.clone();
            let err = Run::new()
                .backend(Backend::Ranks(3))
                .placement(PlacementPolicy::Explicit(assignment))
                .run(&plan, &mut store)
                .unwrap_err();
            assert_eq!(err.error_code(), "exchange.bad_assignment");
        }
    }

    #[test]
    fn cost_driven_placement_stays_bit_identical_through_recovery() {
        let (plan, mut store, seq) = solved_scatter(6);
        let outcome = Run::new()
            .backend(Backend::Ranks(3))
            .placement(PlacementPolicy::CostDriven)
            .dist_fault(DistFaultPlan {
                crash: Some(RankCrash { rank: 2, epoch: 0, silent: false }),
                ..DistFaultPlan::quiescent(13)
            })
            .checkpoint(CheckpointPolicy::every(1))
            .run(&plan, &mut store)
            .expect("survivors recover under cost placement");
        assert_eq!(outcome.report.as_ranks().unwrap().recoveries, 1);
        let rep = outcome.placement.expect("placement report present");
        assert_eq!(rep.policy, "cost");
        assert!(rep.predicted_bytes <= rep.predicted_block_bytes, "never worse than block");
        assert_eq!(f64_bits(&seq), f64_bits(&store));
    }

    #[test]
    fn fault_plan_flows_through_the_threads_backend() {
        let (plan, mut store, seq) = solved_scatter(4);
        let outcome = Run::new()
            .backend(Backend::Threads(2))
            .fault(FaultPlan { seed: 11, task_failure_rate: 1.0, poison_after: None })
            .run(&plan, &mut store)
            .expect("recovery keeps the run alive");
        let exec = outcome.report.as_threads().expect("threads report");
        assert!(exec.faults_injected > 0);
        assert_eq!(seq.field_data(FieldId(1)), store.field_data(FieldId(1)));
    }
}
