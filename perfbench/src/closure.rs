//! `closure_soc`: the Fig 1 closure loop (`ClosureFlow::run` with the
//! `fig01` configuration) on a population of seeded `soc_block`
//! designs. The first design of the population is also ingested through
//! structural Verilog during set-up.
//!
//! One design closes in one or two iterations depending on its seed,
//! so a single design's closure time swings by 3x and its final WNS
//! from 0 to over 200 ps from seed to seed. A run therefore closes a
//! population of [`population`] designs drawn from its seed and reports
//! population means, which is what keeps two runs with different seeds
//! comparable.

use std::io::BufReader;

use tc_closure::flow::{ClosureConfig, ClosureFlow};
use tc_interconnect::BeolStack;
use tc_liberty::Library;
use tc_netlist::gen::{generate, BenchProfile};
use tc_netlist::verilog::{parse_verilog_from, write_verilog};
use tc_netlist::Netlist;
use tc_par::Pool;
use tc_sta::{Constraints, Sta};

use crate::{
    design_fingerprint, mean, median, nproc, overhead_pct, sub_seed, timed, Deadline, Fnv, Outcome,
    RunConfig, Scale, Tally,
};

/// Probe period of the Fig 1 constraint, ps.
const PROBE_PS: f64 = 6_000.0;
/// The Fig 1 constraint sits this far beyond the design's capability, ps.
const OVERCONSTRAINT_PS: f64 = 500.0;
/// Fix passes whose spans the traced run reads.
const FIXES: [&str; 5] = ["vt_swap", "sizing", "buffering", "ndr", "useful_skew"];

/// Designs per run.
fn population(scale: Scale) -> usize {
    match scale {
        Scale::Full => 256,
        Scale::Smoke => 2,
    }
}

fn profile(scale: Scale) -> BenchProfile {
    match scale {
        Scale::Full => BenchProfile::soc_block(),
        Scale::Smoke => BenchProfile::tiny(),
    }
}

/// `fig01_closure_loop`'s configuration.
fn fig01_config() -> ClosureConfig {
    ClosureConfig {
        budget_per_pass: 15,
        k_paths: 8,
        ..Default::default()
    }
}

/// One population member, ready to close.
struct Design {
    nl: Netlist,
    cons: Constraints,
}

/// The population, plus the `parse_verilog_from` wall of the Verilog
/// ingest, s.
struct Setup {
    designs: Vec<Design>,
    parse_s: f64,
}

/// Generates the population and derives each design's Fig 1 constraint
/// from a probe analysis. The first design is also round-tripped through
/// Verilog (see [`ingest`]).
fn setup(lib: &Library, stack: &BeolStack, scale: Scale, seed: u64, tally: &mut Tally) -> Setup {
    let mut designs = Vec::new();
    let mut parse_s = f64::NAN;
    for i in 0..population(scale) as u64 {
        let Some(nl) = tally.op("generate", generate(lib, profile(scale), sub_seed(seed, i)))
        else {
            continue;
        };
        if i == 0 {
            parse_s = ingest(&nl, lib, tally);
        }
        let probe = Constraints::single_clock(PROBE_PS);
        let Some(r) = tally.op("Sta::run (probe)", Sta::new(&nl, lib, stack, &probe).run()) else {
            continue;
        };
        let period = PROBE_PS - r.wns().value() - OVERCONSTRAINT_PS;
        designs.push(Design {
            nl,
            cons: Constraints::single_clock(period),
        });
    }
    Setup { designs, parse_s }
}

/// Renders `nl` with `write_verilog` and reads it back. The parsed copy
/// must match the generated counts and validate; closure runs on the
/// generated copy, since Verilog carries no wire lengths. Returns the
/// `parse_verilog_from` wall, s.
fn ingest(nl: &Netlist, lib: &Library, tally: &mut Tally) -> f64 {
    let text = write_verilog(nl, lib);
    let (parse_s, parsed) = timed(|| parse_verilog_from(BufReader::new(text.as_bytes()), lib));
    if let Some(parsed) = tally.op("parse_verilog_from", parsed) {
        tally.check(
            parsed.cell_count() == nl.cell_count() && parsed.net_count() == nl.net_count(),
            || {
                format!(
                    "parsed Verilog has {} cells / {} nets, generated {} / {}",
                    parsed.cell_count(),
                    parsed.net_count(),
                    nl.cell_count(),
                    nl.net_count()
                )
            },
        );
        tally.op("Netlist::validate", parsed.validate(lib));
    }
    parse_s
}

/// Per-design results across repetitions.
#[derive(Default)]
struct Track {
    wall_s: Vec<f64>,
    /// Final WNS bits of the first repetition.
    final_wns: Option<u64>,
}

/// Closes every design once. Returns the pass wall time, s, and the
/// `(iterations, edits)` it took. Each closure's wall time also goes to
/// its design's track.
fn pass(
    lib: &Library,
    stack: &BeolStack,
    designs: &[Design],
    tracks: &mut [Track],
    tally: &mut Tally,
) -> (f64, u64, u64) {
    let (mut wall, mut iterations) = (0.0, 0);
    let edits0 = tc_obs::counter("closure.edits").get();
    for (d, track) in designs.iter().zip(tracks.iter_mut()) {
        let mut nl = d.nl.clone();
        let mut flow = ClosureFlow::new(lib, stack, fig01_config());
        let (t, out) = timed(|| flow.run(&mut nl, d.cons.clone()));
        wall += t;
        let Some(out) = tally.op("ClosureFlow::run", out) else {
            continue;
        };
        track.wall_s.push(t);
        iterations += out.iterations.len() as u64;
        let wns = out.final_report.wns().value();
        match track.final_wns {
            Some(first) => tally.check(first == wns.to_bits(), || {
                format!(
                    "closure final WNS {wns} differs from the first repetition {}",
                    f64::from_bits(first)
                )
            }),
            None => {
                // First closure of this design: a from-scratch analysis
                // of the closed design must agree with the loop's report.
                track.final_wns = Some(wns.to_bits());
                let signoff = Sta::new(&nl, lib, stack, &out.constraints).run();
                if let Some(signoff) = tally.op("Sta::run (signoff)", signoff) {
                    let got = signoff.wns().value();
                    tally.check(got.to_bits() == wns.to_bits(), || {
                        format!("signoff WNS {got} != closure final WNS {wns}")
                    });
                }
            }
        }
    }
    let edits = tc_obs::counter("closure.edits").get() - edits0;
    (wall, iterations, edits)
}

/// One fingerprint over every design of the population.
fn population_fingerprint(designs: &[Design]) -> u64 {
    let mut h = Fnv::default();
    for d in designs {
        h.word(design_fingerprint(&d.nl));
    }
    h.finish()
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (lib, stack) = crate::standard_env();
    let (t, env) = timed(|| setup(&lib, &stack, cfg.scale, cfg.seed, &mut out.tally));
    let (mut setup_s, mut parse_s) = (vec![t], vec![env.parse_s]);
    let mut designs = env.designs;
    let design_fp = population_fingerprint(&designs);
    out.fingerprint("design", design_fp);
    let cells: usize = designs.iter().map(|d| d.nl.cell_count()).sum();
    out.notes.push(format!(
        "population: {} designs, {cells} cells in total",
        designs.len()
    ));
    let mut tracks: Vec<Track> = designs.iter().map(|_| Track::default()).collect();
    let mut traced = cfg.trace.then(Traced::default);

    // Passes until the deadline; a traced run alternates traced and
    // untraced passes, at least two of each. Between two passes the whole
    // set-up runs again, timed, and rebuilds the same population, so the
    // set-up samples spread over the run the way the closure samples do.
    let deadline = Deadline::new(cfg.budget, if cfg.trace { 4 } else { 1 });
    let (mut passes, mut body_s) = (0, 0.0);
    while deadline.more(passes) {
        if passes > 0 {
            crate::trace_off();
            // Drop the previous copy first so repeated set-up does not
            // raise the memory high-water mark.
            drop(designs);
            let (t, env) = timed(|| setup(&lib, &stack, cfg.scale, cfg.seed, &mut out.tally));
            setup_s.push(t);
            parse_s.push(env.parse_s);
            designs = env.designs;
            let fp = population_fingerprint(&designs);
            out.tally.check(fp == design_fp, || {
                format!("set-up {passes} built population {fp:016x}, the first {design_fp:016x}")
            });
        }
        match &mut traced {
            Some(acc) => acc.pass(
                passes % 2 == 0,
                &lib,
                &stack,
                &designs,
                &mut tracks,
                &mut out,
            ),
            None => body_s += pass(&lib, &stack, &designs, &mut tracks, &mut out.tally).0,
        }
        passes += 1;
    }
    crate::trace_off();
    out.notes
        .push(format!("passes: {passes}; set-ups: {}", setup_s.len()));

    if let Some(acc) = traced {
        out.metric("netlist.verilog_parse_ms", "ms", median(&parse_s) * 1e3);
        acc.finish(cfg, &lib, &designs, &mut out);
    } else {
        let lat: Vec<f64> = tracks
            .iter()
            .flat_map(|t| t.wall_s.iter().copied())
            .collect();
        out.metric("setup_s", "s", median(&setup_s));
        out.ops(&lat, body_s);
    }
    let final_wns: Vec<f64> = tracks
        .iter()
        .filter_map(|t| t.final_wns.map(f64::from_bits))
        .collect();
    let closed = final_wns.iter().filter(|&&w| w >= 0.0).count();
    out.notes.push(format!(
        "designs closed (final WNS >= 0): {closed} of {}; mean final WNS {:.3} ps",
        designs.len(),
        mean(&final_wns)
    ));
    if cfg.trace {
        out.metric("closure.final_wns_ps", "ps", mean(&final_wns));
        out.metric("closure.designs_closed", "count", closed as f64);
        out.exact_count("closure.designs_closed", closed as u64);
    }
    let mut h = Fnv::default();
    for t in &tracks {
        h.word(t.final_wns.unwrap_or(0));
    }
    out.fingerprint("final_wns", h.finish());
    out
}

/// What a traced run accumulates over its passes.
#[derive(Default)]
struct Traced {
    /// `(iterations, edits)` of the first traced pass.
    exact: Option<(u64, u64)>,
    fix_ns: [u64; FIXES.len()],
    sta_ns: u64,
    closures: usize,
    traced_passes: usize,
    traced_wall: Vec<f64>,
    untraced_wall: Vec<f64>,
}

impl Traced {
    /// One pass, with tracing on or off. A traced pass reads the existing
    /// `closure.*` spans and counters.
    fn pass(
        &mut self,
        on: bool,
        lib: &Library,
        stack: &BeolStack,
        designs: &[Design],
        tracks: &mut [Track],
        out: &mut Outcome,
    ) {
        if !on {
            let (wall, ..) = pass(lib, stack, designs, tracks, &mut out.tally);
            self.untraced_wall.push(wall);
            return;
        }
        crate::trace_on();
        tc_obs::reset();
        let (wall, iterations, edits) = pass(lib, stack, designs, tracks, &mut out.tally);
        crate::trace_off();
        let snap = tc_obs::snapshot();
        let total = |name: &str| snap.spans_named(name).map(|s| s.total_ns).sum::<u64>();
        for (ns, fix) in self.fix_ns.iter_mut().zip(FIXES) {
            *ns += total(&format!("closure.fix.{fix}"));
        }
        self.sta_ns += total("closure.sta");
        self.closures += designs.len();
        self.traced_passes += 1;
        self.traced_wall.push(wall);
        let counts = (iterations, edits);
        let first = *self.exact.get_or_insert(counts);
        out.tally.check(first == counts, || {
            format!("closure (iterations, edits) {counts:?} differ from the first pass {first:?}")
        });
    }

    /// Reports the per-layer metrics, times the lint preflight on its
    /// own, and checks that another seed gives another population.
    fn finish(self, cfg: &RunConfig, lib: &Library, designs: &[Design], out: &mut Outcome) {
        let pool = Pool::new(nproc());
        let lint: Vec<f64> = designs
            .iter()
            .map(|d| {
                let mut ctx = tc_lint::LintContext::new(&d.nl, lib);
                ctx.constraints = Some(&d.cons);
                timed(|| tc_lint::run_lint(&pool, &ctx)).0
            })
            .collect();
        let per_closure_ms = |ns: u64| ns as f64 / 1e6 / self.closures.max(1) as f64;
        let (iterations, edits) = self.exact.unwrap_or_default();
        out.metric("lint.run_ms", "ms", median(&lint) * 1e3);
        out.metric("closure.iterations", "count", iterations as f64);
        out.metric("closure.edits", "count", edits as f64);
        for (ns, fix) in self.fix_ns.iter().zip(FIXES) {
            out.metric(&format!("closure.fix_ms.{fix}"), "ms", per_closure_ms(*ns));
        }
        out.metric("closure.sta_ms", "ms", per_closure_ms(self.sta_ns));
        out.metric(
            "obs.overhead_pct",
            "%",
            overhead_pct(&self.untraced_wall, &self.traced_wall),
        );
        out.exact_count("closure.iterations", iterations);
        out.exact_count("closure.edits", edits);
        out.notes
            .push(format!("traced passes: {}", self.traced_passes));

        // A second seed must give a different population.
        let other = generate(
            lib,
            profile(cfg.scale),
            sub_seed(cfg.seed.wrapping_add(1), 0),
        );
        let differ = match (designs.first(), out.tally.op("generate", other)) {
            (Some(a), Some(b)) => design_fingerprint(&a.nl) != design_fingerprint(&b),
            _ => false,
        };
        out.tally.check(differ, || {
            format!(
                "seeds {} and {} generate the same first design",
                cfg.seed,
                cfg.seed + 1
            )
        });
    }
}
