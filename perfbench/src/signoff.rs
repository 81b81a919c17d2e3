//! `signoff_200k`: whole-graph sign-off on a 200k-cell design — one
//! sequential single-corner `Sta::run` and one 8-corner MCMM sweep per
//! repetition.

use tc_interconnect::beol::BeolCorner;
use tc_interconnect::BeolStack;
use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_netlist::gen::{generate, generate_streamed, BenchProfile};
use tc_netlist::Netlist;
use tc_par::Pool;
use tc_signoff::corners::run_corner_set_on;
use tc_sta::mcmm::{merge_reports, run_scenarios_shared_on, Scenario};
use tc_sta::{Constraints, Sta, TimingGraph};

use crate::{
    design_fingerprint, median, merged_fingerprint, nproc, overhead_pct, report_fingerprint, timed,
    Deadline, Outcome, RunConfig, Scale, Tally,
};

/// The `tbl_scale` constraint: one 1500 ps clock.
const PERIOD_PS: f64 = 1_500.0;

/// The 8 `tbl_parallel_corners` scenarios.
fn scenarios(period_ps: f64) -> Vec<Scenario> {
    let cfg = LibConfig::default();
    let mk = |name: &str, pvt: PvtCorner, beol: BeolCorner| Scenario {
        name: name.to_string(),
        lib: Library::generate(&cfg, &pvt),
        beol,
        constraints: Constraints::single_clock(period_ps),
    };
    vec![
        mk("typ_typ", PvtCorner::typical(), BeolCorner::Typical),
        mk("slow_cold_RCw", PvtCorner::slow_cold(), BeolCorner::RcWorst),
        mk("slow_cold_Cw", PvtCorner::slow_cold(), BeolCorner::CWorst),
        mk("slow_hot_RCw", PvtCorner::slow_hot(), BeolCorner::RcWorst),
        mk("slow_hot_Cw", PvtCorner::slow_hot(), BeolCorner::CWorst),
        mk("fast_cold_Cb", PvtCorner::fast_cold(), BeolCorner::CBest),
        mk("fast_cold_RCb", PvtCorner::fast_cold(), BeolCorner::RcBest),
        mk("typ_CcW", PvtCorner::typical(), BeolCorner::CcWorst),
    ]
}

fn design(lib: &Library, scale: Scale, seed: u64) -> Netlist {
    match scale {
        Scale::Full => generate_streamed(lib, BenchProfile::scale_200k(), seed),
        Scale::Smoke => generate(lib, BenchProfile::tiny(), seed),
    }
    .expect("generator is total")
}

struct Setup {
    lib: Library,
    stack: BeolStack,
    nl: Netlist,
    scenarios: Vec<Scenario>,
    cons: Constraints,
    /// Wall time of the 8 corner-library generations, s.
    liberty_s: f64,
}

fn setup(cfg: &RunConfig) -> Setup {
    let (lib, stack) = crate::standard_env();
    let nl = design(&lib, cfg.scale, cfg.seed);
    let (liberty_s, scenarios) = timed(|| scenarios(PERIOD_PS));
    Setup {
        lib,
        stack,
        nl,
        scenarios,
        cons: Constraints::single_clock(PERIOD_PS),
        liberty_s,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let (t, env) = timed(|| setup(cfg));
    let mut out = Outcome::default();
    out.fingerprint("design", design_fingerprint(&env.nl));
    out.notes.push(format!(
        "design: {} cells, {} nets, {} corners at {PERIOD_PS} ps",
        env.nl.cell_count(),
        env.nl.net_count(),
        env.scenarios.len()
    ));
    if cfg.trace {
        traced(cfg, &env, &mut out);
    } else {
        untraced(cfg, env, t, &mut out);
    }
    out
}

/// Checks that `fp` equals the first fingerprint seen under `slot`.
fn same(tally: &mut Tally, slot: &mut Option<u64>, fp: u64, what: &str) {
    let first = *slot.get_or_insert(fp);
    tally.check(first == fp, || {
        format!("{what}: fingerprint {fp:016x} differs from first repetition {first:016x}")
    });
}

/// Repeats the body until the deadline. Between two repetitions the
/// whole set-up runs again, timed, and replaces `env` with an identical
/// copy, so the `setup_s` samples spread over the run the way the body
/// samples do. `first_setup_s` is the wall time of the set-up that built
/// `env`.
fn untraced(cfg: &RunConfig, mut env: Setup, first_setup_s: f64, out: &mut Outcome) {
    let pool = Pool::new(nproc());
    let tally = &mut out.tally;
    let mut setup_s = vec![first_setup_s];
    let design_fp = design_fingerprint(&env.nl);
    // One operation: a sequential `Sta::run` plus one 8-corner sweep.
    let mut op_s = Vec::new();
    let (mut report_fp, mut merged_fp) = (None, None);
    let deadline = Deadline::new(cfg.budget, 2);
    let mut reps = 0;
    while deadline.more(reps) {
        if reps > 0 {
            // Drop the previous copy first so repeated set-up does not
            // raise the memory high-water mark.
            drop(env);
            let t;
            (t, env) = timed(|| setup(cfg));
            setup_s.push(t);
            let fp = design_fingerprint(&env.nl);
            tally.check(fp == design_fp, || {
                format!("set-up {reps} built design {fp:016x}, the first built {design_fp:016x}")
            });
        }
        let Setup {
            lib,
            stack,
            nl,
            scenarios,
            cons,
            ..
        } = &env;
        let (t_sta, r) = timed(|| Sta::new(nl, lib, stack, cons).run());
        let sta_ok = tally.op("Sta::run", r).is_some_and(|r| {
            same(
                tally,
                &mut report_fp,
                report_fingerprint(&r),
                "Sta::run report",
            );
            true
        });
        let (t_sweep, m) = timed(|| run_corner_set_on(pool, nl, stack, scenarios));
        if let Some(m) = tally.op("run_corner_set_on", m) {
            if sta_ok {
                op_s.push(t_sta + t_sweep);
            }
            same(
                tally,
                &mut merged_fp,
                merged_fingerprint(&m),
                "merged report",
            );
        }
        reps += 1;
    }
    // The merged report must not depend on the pool width.
    let Setup {
        nl,
        stack,
        scenarios,
        ..
    } = &env;
    if let Some(m) = tally.op(
        "run_corner_set_on (1 worker)",
        run_corner_set_on(Pool::sequential(), nl, stack, scenarios),
    ) {
        same(
            tally,
            &mut merged_fp,
            merged_fingerprint(&m),
            "1-worker merged report",
        );
    }
    out.metric("setup_s", "s", median(&setup_s));
    out.ops(&op_s, op_s.iter().sum());
    out.notes
        .push(format!("repetitions: {reps}; set-ups: {}", setup_s.len()));
    out.fingerprint("report", report_fp.unwrap_or(0));
    out.fingerprint("merged", merged_fp.unwrap_or(0));
}

/// Per-layer timings: every library call is timed from here; counts
/// come from the existing tc-obs counters and the counting allocator.
fn traced(cfg: &RunConfig, env: &Setup, out: &mut Outcome) {
    let Setup {
        lib,
        stack,
        nl,
        scenarios,
        cons,
        liberty_s,
    } = env;
    let pool = Pool::new(nproc());
    let sta = || Sta::new(nl, lib, stack, cons);
    let mut s = Samples::default();
    let mut exact: Option<[u64; 3]> = None;
    let (mut report_fp, mut merged_fp) = (None, None);

    crate::trace_on();
    // Warm-up: registers every counter and span the loop reads.
    let _ = sta().run();
    let deadline = Deadline::new(cfg.budget, 2);
    let mut reps = 0;
    while deadline.more(reps) {
        let tally = &mut out.tally;
        let (t, lv) = timed(|| tc_netlist::level::levelize(nl, lib));
        if tally.op("levelize", lv).is_some() {
            s.levelize.push(t);
        }
        let (t, g) = timed(|| TimingGraph::build(nl, lib));
        if tally.op("TimingGraph::build", g).is_some() {
            s.build.push(t);
        }
        let (t, p) = timed(|| sta().propagate());
        if tally.op("Sta::propagate", p).is_some() {
            s.propagate.push(t);
        }

        let arcs0 = tc_obs::counter("sta.arcs_evaluated").get();
        let allocs0 = tc_obs::memory_stats().allocs;
        let (t_run, r) = timed(|| sta().run());
        let allocs = tc_obs::memory_stats().allocs - allocs0;
        let arcs = tc_obs::counter("sta.arcs_evaluated").get() - arcs0;
        if let Some(r) = tally.op("Sta::run", r) {
            s.run.push(t_run);
            same(
                tally,
                &mut report_fp,
                report_fingerprint(&r),
                "Sta::run report",
            );
        }

        let (t, m) = timed(|| run_corner_set_on(Pool::sequential(), nl, stack, scenarios));
        if let Some(m) = tally.op("run_corner_set_on (1 worker)", m) {
            s.sweep1.push(t);
            same(
                tally,
                &mut merged_fp,
                merged_fingerprint(&m),
                "1-worker merged report",
            );
        }

        let tasks0 = tc_obs::counter("par.tasks").get();
        let (t_shared, reports) = timed(|| run_scenarios_shared_on(pool, nl, stack, scenarios));
        let mut t_sweep = t_shared;
        if let Some(reports) = tally.op("run_scenarios_shared_on", reports) {
            let (t_merge, m) = timed(|| merge_reports(&reports));
            t_sweep += t_merge;
            s.merge.push(t_merge);
            s.sweep_n.push(t_sweep);
            same(
                tally,
                &mut merged_fp,
                merged_fingerprint(&m),
                "merged report",
            );
        }
        let (t, r) = timed(|| sta().with_parallel(pool).run());
        if let Some(r) = tally.op("Sta::run (parallel)", r) {
            s.par_run.push(t);
            same(
                tally,
                &mut report_fp,
                report_fingerprint(&r),
                "parallel report",
            );
        }
        let tasks = tc_obs::counter("par.tasks").get() - tasks0;

        let counts = [arcs, allocs, tasks];
        let first = *exact.get_or_insert(counts);
        tally.check(first == counts, || {
            format!("exact counts {counts:?} differ from first repetition {first:?}")
        });

        // The same sequential run plus sweep with tracing off, for the
        // tracing overhead.
        crate::trace_off();
        let (t, _) = timed(|| {
            let _ = sta().run();
            let _ = run_corner_set_on(pool, nl, stack, scenarios);
        });
        crate::trace_on();
        s.untraced.push(t);
        s.traced.push(t_run + t_sweep);
        reps += 1;
    }
    crate::trace_off();

    let [arcs, allocs, tasks] = exact.unwrap_or_default();
    let ms = |xs: &[f64]| median(xs) * 1e3;
    let propagate = ms(&s.propagate);
    out.metric("netlist.levelize_ms", "ms", ms(&s.levelize));
    out.metric("sta.graph_build_ms", "ms", ms(&s.build));
    out.metric("sta.propagate_ms", "ms", propagate - ms(&s.build));
    out.metric("sta.report_ms", "ms", ms(&s.run) - propagate);
    out.metric("sta.arcs_evaluated_per_run", "count", arcs as f64);
    out.metric("sta.allocs_per_run", "count", allocs as f64);
    out.metric(
        "signoff.corner_ms",
        "ms",
        ms(&s.sweep1) / scenarios.len() as f64,
    );
    out.metric("sta.merge_ms", "ms", ms(&s.merge));
    out.metric(
        "par.corner_speedup",
        "x",
        median(&s.sweep1) / median(&s.sweep_n),
    );
    out.metric("par.gba_speedup", "x", median(&s.run) / median(&s.par_run));
    out.metric("par.tasks", "count", tasks as f64);
    out.metric("liberty.generate_ms", "ms", liberty_s * 1e3);
    out.metric(
        "obs.overhead_pct",
        "%",
        overhead_pct(&s.untraced, &s.traced),
    );
    out.exact_count("sta.arcs_evaluated_per_run", arcs);
    out.exact_count("sta.allocs_per_run", allocs);
    out.exact_count("par.tasks", tasks);
    out.fingerprint("report", report_fp.unwrap_or(0));
    out.fingerprint("merged", merged_fp.unwrap_or(0));
    out.notes.push(format!("traced repetitions: {reps}"));

    // A second seed must give a different design.
    let other = design(lib, cfg.scale, cfg.seed.wrapping_add(1));
    let (a, b) = (design_fingerprint(nl), design_fingerprint(&other));
    out.tally.check(a != b, || {
        format!(
            "seeds {} and {} generate the same design",
            cfg.seed,
            cfg.seed + 1
        )
    });
}

#[derive(Default)]
struct Samples {
    levelize: Vec<f64>,
    build: Vec<f64>,
    propagate: Vec<f64>,
    run: Vec<f64>,
    sweep1: Vec<f64>,
    sweep_n: Vec<f64>,
    merge: Vec<f64>,
    par_run: Vec<f64>,
    untraced: Vec<f64>,
    traced: Vec<f64>,
}
