//! Plan-cache soundness, empirically.
//!
//! Two families of guarantees:
//!
//! 1. **Key separation** — solves that differ in hints, external
//!    constraint *bindings*, options, or color count never share a
//!    fingerprint, so a shared [`PlanCache`] can never serve a plan
//!    solved under different inputs (property-tested over the random
//!    program generator).
//! 2. **Hit transparency** — a cache-hit [`Plan`] executes bit-identically
//!    to a cold solve: on the random generator across both backends, and
//!    on all five paper applications at 1/2/4/8 ranks.

use partir::prelude::*;
use proptest::prelude::*;

mod common;
use common::{arb_cfg, assert_f64_fields_eq, build, Cfg};

/// An equal block split of `[0, n)` into `colors` pieces, as an external
/// binding.
fn block_partition(region: RegionId, n: u64, colors: usize, shift: u64) -> Partition {
    let per = n / colors as u64;
    let sets = (0..colors as u64)
        .map(|c| {
            let lo = (c * per + shift).min(n);
            let hi = if c == colors as u64 - 1 { n } else { ((c + 1) * per + shift).min(n) };
            IndexSet::from_range(lo, hi)
        })
        .collect();
    Partition::new(region, sets)
}

/// Hints declaring one disjoint+complete external over region B.
fn external_hints(b_r: RegionId) -> Hints {
    let mut hints = Hints::new();
    let e = hints.external("pb", b_r);
    hints.fact_disj(PExpr::ext(e));
    hints.fact_comp(PExpr::ext(e), b_r);
    hints
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Distinct hints, external bindings, options, and color counts all
    /// produce distinct fingerprints; identical inputs agree.
    #[test]
    fn distinct_solve_inputs_never_collide(cfg in arb_cfg()) {
        let built = build(&cfg);
        let schema = built.store.schema().clone();
        let b_r = RegionId(0); // the generator adds "B" first
        let n_b = schema.region_size(b_r);
        let fp = |hints: &Hints, opts: &Options, exts: &ExtBindings, colors: usize| {
            solve_fingerprint(&built.program, &built.fns, &schema, hints, opts, exts, colors)
        };

        let base = fp(&Hints::new(), &Options::default(), &ExtBindings::new(), cfg.colors);
        let again = fp(&Hints::new(), &Options::default(), &ExtBindings::new(), cfg.colors);
        prop_assert_eq!(base, again);

        // Declaring an external (hints) perturbs the key.
        let hints = external_hints(b_r);
        let mut exts_a = ExtBindings::new();
        exts_a.push(block_partition(b_r, n_b, cfg.colors, 0));
        let hinted = fp(&hints, &Options::default(), &exts_a, cfg.colors);
        prop_assert_ne!(base, hinted);

        // Same hints, different *binding*: shift the block split by one.
        let mut exts_b = ExtBindings::new();
        exts_b.push(block_partition(b_r, n_b, cfg.colors, 1));
        let rebound = fp(&hints, &Options::default(), &exts_b, cfg.colors);
        prop_assert_ne!(hinted, rebound);

        // Options and color count perturb the key.
        let relaxed = Options { relax: RelaxPolicy::Off, ..Options::default() };
        let other_opts = fp(&hints, &relaxed, &exts_a, cfg.colors);
        prop_assert_ne!(hinted, other_opts);
        let more_colors = fp(&Hints::new(), &Options::default(), &ExtBindings::new(), cfg.colors + 1);
        prop_assert_ne!(base, more_colors);
    }

    /// A plan cached under one set of externals is never served for
    /// another, and warm plans execute bit-identically to cold ones on
    /// both backends.
    #[test]
    fn warm_plans_execute_bit_identically(cfg in arb_cfg(), n_ranks in 1usize..5) {
        let built = build(&cfg);
        let schema = built.store.schema().clone();
        let colors = cfg.colors.max(n_ranks);
        let cache = PlanCache::default();

        let solve = |use_cache: bool| {
            let mut b = Partir::new(built.program.clone(), built.fns.clone(), schema.clone())
                .colors(colors);
            if use_cache {
                b = b.cache(&cache);
            }
            b.solve().expect("generated programs are parallelizable")
        };
        let cold = solve(false);
        let primed = solve(true);
        prop_assert!(!primed.cache_hit(), "first cached solve is a miss");
        let warm = solve(true);
        prop_assert!(warm.cache_hit(), "identical re-solve hits");
        prop_assert_eq!(cold.fingerprint(), warm.fingerprint());

        // A request under different externals must not be served the
        // cached no-hints plan.
        let b_r = RegionId(0);
        let mut exts = ExtBindings::new();
        exts.push(block_partition(b_r, schema.region_size(b_r), colors, 0));
        let other = Partir::new(built.program.clone(), built.fns.clone(), schema.clone())
            .colors(colors)
            .hints(external_hints(b_r))
            .externals(exts)
            .cache(&cache)
            .solve()
            .expect("hinted generated programs are parallelizable");
        prop_assert!(!other.cache_hit(), "different externals must miss");

        let mut seq = built.store.clone();
        run_program_seq(&built.program, &mut seq, &built.fns);
        for backend in [Backend::Threads(3), Backend::Ranks(n_ranks)] {
            let run = Run::new().backend(backend);
            let mut from_cold = built.store.clone();
            let mut from_warm = built.store.clone();
            run.run(&cold, &mut from_cold)
                .map_err(|e| TestCaseError::fail(format!("cold {backend:?}: {e}")))?;
            run.run(&warm, &mut from_warm)
                .map_err(|e| TestCaseError::fail(format!("warm {backend:?}: {e}")))?;
            assert_f64_fields_eq(&seq, &from_cold, &format!("cold {backend:?}"))?;
            assert_f64_fields_eq(&from_cold, &from_warm, &format!("warm {backend:?}"))?;
        }
    }
}

/// Repeated runs of one shared warm plan keep hitting the interior memos
/// (partitions, exchange plans, placements) without drifting: ten runs on
/// a mutating store stay locked to the sequential reference.
#[test]
fn repeated_warm_runs_stay_bit_identical() {
    let cfg = Cfg {
        n_a: 96,
        n_b: 48,
        colors: 6,
        read_ptr_chain: true,
        read_affine: true,
        reduce_via_ptr: true,
        reduce_via_affine: true,
        second_loop: true,
        ptr_seed: 7,
        foreach_range: false,
        foreach_lifted: false,
    };
    let built = build(&cfg);
    let cache = PlanCache::default();
    let plan = Partir::new(built.program.clone(), built.fns.clone(), built.store.schema().clone())
        .colors(cfg.colors)
        .cache(&cache)
        .solve()
        .unwrap();
    let run = Run::new().backend(Backend::Ranks(3));

    let mut seq = built.store.clone();
    let mut par = built.store.clone();
    for step in 0..10 {
        run_program_seq(&built.program, &mut seq, &built.fns);
        run.run(&plan, &mut par).expect("warm run succeeds");
        let schema = seq.schema();
        for f in 0..schema.num_fields() {
            let fid = partir::dpl::region::FieldId(f as u32);
            if matches!(seq.field_data(fid), partir::dpl::region::FieldData::F64(_)) {
                assert_eq!(seq.field_data(fid), par.field_data(fid), "step {step} field {f}");
            }
        }
    }
}

/// All five paper applications, solved cold and through a warm cache,
/// execute bit-identically at 1/2/4/8 ranks and on the threaded backend.
#[test]
fn five_apps_cache_hits_are_bit_identical() {
    use partir::apps::circuit::{Circuit, CircuitParams};
    use partir::apps::miniaero::{MiniAero, MiniAeroParams};
    use partir::apps::pennant::{Pennant, PennantConfig, PennantParams};
    use partir::apps::spmv::{Spmv, SpmvParams};
    use partir::apps::stencil::{Stencil, StencilParams};

    const COLORS: usize = 8;

    struct App {
        name: &'static str,
        program: Vec<Loop>,
        fns: FnTable,
        store: Store,
        hints: Hints,
        exts: ExtBindings,
    }

    let mut apps = Vec::new();
    {
        let a = Spmv::generate(&SpmvParams { rows: 192, halo: 2, band_shift: 0 });
        apps.push(App {
            name: "spmv",
            program: a.program,
            fns: a.fns,
            store: a.store,
            hints: Hints::new(),
            exts: ExtBindings::new(),
        });
    }
    {
        let a = Stencil::generate(&StencilParams { nx: 12, ny: 12 });
        apps.push(App {
            name: "stencil",
            program: a.program,
            fns: a.fns,
            store: a.store,
            hints: Hints::new(),
            exts: ExtBindings::new(),
        });
    }
    {
        let a = MiniAero::generate(&MiniAeroParams { nx: 4, ny: 4, nz: 4 });
        apps.push(App {
            name: "miniaero",
            program: a.program,
            fns: a.fns,
            store: a.store,
            hints: Hints::new(),
            exts: ExtBindings::new(),
        });
    }
    {
        let a = Circuit::generate(&CircuitParams {
            clusters: COLORS,
            nodes_per_cluster: 100,
            wires_per_cluster: 200,
            ..CircuitParams::default()
        });
        let (hints, exts) = a.hint_setup(COLORS);
        apps.push(App {
            name: "circuit",
            program: a.program,
            fns: a.fns,
            store: a.store,
            hints,
            exts,
        });
    }
    {
        let a = Pennant::generate(&PennantParams { pieces: COLORS, zw: 2, zy: 2 });
        let (hints, exts) = a.hint_setup(PennantConfig::Hint2);
        apps.push(App {
            name: "pennant",
            program: a.program,
            fns: a.fns,
            store: a.store,
            hints,
            exts,
        });
    }

    for app in apps {
        let cache = PlanCache::default();
        let builder = |cache: Option<&PlanCache>| {
            let mut b =
                Partir::new(app.program.clone(), app.fns.clone(), app.store.schema().clone())
                    .colors(COLORS)
                    .hints(app.hints.clone())
                    .externals(app.exts.clone());
            if let Some(c) = cache {
                b = b.cache(c);
            }
            b
        };
        let cold = builder(None).solve().unwrap_or_else(|e| panic!("{}: {e}", app.name));
        let primed = builder(Some(&cache)).solve().unwrap();
        assert!(!primed.cache_hit(), "{}: first cached solve misses", app.name);
        let warm = builder(Some(&cache)).solve().unwrap();
        assert!(warm.cache_hit(), "{}: re-solve hits", app.name);
        assert_eq!(cold.fingerprint(), warm.fingerprint(), "{}", app.name);

        let mut backends = vec![Backend::Threads(4)];
        backends.extend([1, 2, 4, 8].map(Backend::Ranks));
        for backend in backends {
            let run = Run::new().backend(backend);
            let mut from_cold = app.store.clone();
            let mut from_warm = app.store.clone();
            run.run(&cold, &mut from_cold)
                .unwrap_or_else(|e| panic!("{} cold {backend:?}: {e}", app.name));
            run.run(&warm, &mut from_warm)
                .unwrap_or_else(|e| panic!("{} warm {backend:?}: {e}", app.name));
            let schema = app.store.schema();
            for f in 0..schema.num_fields() {
                let fid = partir::dpl::region::FieldId(f as u32);
                assert_eq!(
                    from_cold.field_data(fid),
                    from_warm.field_data(fid),
                    "{} {backend:?} field {f}: warm result must be bit-identical to cold",
                    app.name
                );
            }
        }
    }
}
