//! `eco_50k`: a seeded ECO stream on a 50k-cell design through the
//! persistent incremental `Timer` — apply → `Timer::update` →
//! `Timer::report`, with every 4th ECO rejected through
//! `Netlist::undo_to` + `Timer::rollback_to`.
//!
//! The stream runs in sessions of [`session_len`] ECOs. Each session
//! ends by rolling the design and the timer back to the pristine state,
//! so the design (and the timer's undo log) never drifts with run
//! length: a faster build runs more sessions of the same kind, not
//! ECOs on a bigger design.

use std::hint::black_box;
use std::time::Instant;

use tc_core::error::Result;
use tc_core::ids::{CellId, NetId};
use tc_core::rng::Rng;
use tc_interconnect::BeolStack;
use tc_liberty::{CellKind, Library};
use tc_netlist::gen::{generate, generate_streamed, BenchProfile};
use tc_netlist::Netlist;
use tc_sta::{Constraints, Sta, Timer, TimerCheckpoint};

use crate::{
    design_fingerprint, median, overhead_pct, quantile, report_fingerprint, sub_seed, timed,
    Deadline, Fnv, Outcome, RunConfig, Scale, Tally,
};

/// The `tbl_scale` constraint: one 1500 ps clock.
const PERIOD_PS: f64 = 1_500.0;
/// Every `REJECT_EVERY`-th applied ECO is rolled back.
const REJECT_EVERY: usize = 4;
/// Sessions the traced run replays twice for its exact counts.
const EXACT_SESSIONS: usize = 2;

/// ECOs per session.
fn session_len(scale: Scale) -> usize {
    match scale {
        Scale::Full => 256,
        Scale::Smoke => 16,
    }
}

/// The `tbl_incremental_sta` edit mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EcoKind {
    VtSwap,
    Sizing,
    Buffering,
    Ndr,
    Reroute,
}

/// Draws one ECO and applies it through the journaled mutators.
/// `Ok(None)` when the draw does not apply (no faster variant, net too
/// short to buffer, NDR already set).
fn apply_eco(rng: &mut Rng, nl: &mut Netlist, lib: &Library) -> Result<Option<EcoKind>> {
    Ok(match rng.below(5) {
        0 => {
            let cell = CellId::new(rng.below(nl.cell_count()));
            let master = nl.cell(cell).master;
            match lib.vt_faster(master) {
                Some(faster) if lib.cell(master).kind != CellKind::Flop => {
                    nl.swap_master(lib, cell, faster)?;
                    Some(EcoKind::VtSwap)
                }
                _ => None,
            }
        }
        1 => {
            let cell = CellId::new(rng.below(nl.cell_count()));
            match lib.upsize(nl.cell(cell).master) {
                Some(bigger) => {
                    nl.swap_master(lib, cell, bigger)?;
                    Some(EcoKind::Sizing)
                }
                None => None,
            }
        }
        2 => {
            let net = NetId::new(rng.below(nl.net_count()));
            let n = nl.net(net);
            let buf = lib.variant("BUF", tc_device::VtClass::Svt, 4.0);
            match buf {
                Some(buf)
                    if n.driver.is_some() && n.sinks.len() >= 2 && n.wire_length_um >= 60.0 =>
                {
                    let moved = n.sinks[..n.sinks.len() / 2].to_vec();
                    let half = n.wire_length_um / 2.0;
                    nl.insert_buffer(lib, net, &moved, buf)?;
                    nl.set_wire_length(net, half);
                    Some(EcoKind::Buffering)
                }
                _ => None,
            }
        }
        3 => {
            let net = NetId::new(rng.below(nl.net_count()));
            if nl.net(net).route_class == 0 {
                nl.set_route_class(net, 1 + rng.below(2) as u8);
                Some(EcoKind::Ndr)
            } else {
                None
            }
        }
        _ => {
            let net = NetId::new(rng.below(nl.net_count()));
            let cur = nl.net(net).wire_length_um;
            nl.set_wire_length(net, (cur * rng.uniform_in(0.6, 1.4)).max(1.0));
            Some(EcoKind::Reroute)
        }
    })
}

/// Timings of one completed ECO, s.
struct EcoSample {
    structural: bool,
    edit: f64,
    update: f64,
    report: f64,
    /// `(undo_to, rollback_to)` for a rejected ECO.
    reject: Option<(f64, f64)>,
}

impl EcoSample {
    /// Apply + update + report.
    fn latency(&self) -> f64 {
        self.edit + self.update + self.report
    }
}

/// The design under edit, its timer and the pristine checkpoint.
struct Session<'a> {
    lib: &'a Library,
    nl: Netlist,
    timer: Timer<'a>,
    pristine: (usize, TimerCheckpoint),
    pristine_fp: u64,
}

impl Session<'_> {
    /// Runs `n` ECOs and returns the session's body wall time, s
    /// (rejections and the closing rollback included). With `keep`, the
    /// edits stay applied instead of being rolled back at the end.
    fn run(
        &mut self,
        rng: &mut Rng,
        n: usize,
        keep: bool,
        tally: &mut Tally,
        samples: &mut Vec<EcoSample>,
    ) -> f64 {
        let t0 = Instant::now();
        let mut done = 0;
        while done < n {
            let cp = (self.nl.journal_len(), self.timer.checkpoint());
            let (edit, kind) = timed(|| apply_eco(rng, &mut self.nl, self.lib));
            let kind = match kind {
                Ok(Some(kind)) => kind,
                Ok(None) => continue,
                Err(e) => {
                    tally.op::<()>("ECO apply", Err(e));
                    done += 1;
                    continue;
                }
            };
            tally.attempted += 1;
            let (update, r) = timed(|| self.timer.update(&self.nl));
            if tally.op("Timer::update", r).is_none() {
                // The timer is unusable after a failed update.
                return t0.elapsed().as_secs_f64();
            }
            let (report, r) = timed(|| self.timer.report(&self.nl));
            black_box(r.wns());
            done += 1;
            let reject = (done % REJECT_EVERY == 0).then(|| {
                let (undo, r) = timed(|| self.nl.undo_to(cp.0));
                tally.op("Netlist::undo_to", r);
                let (rollback, r) = timed(|| self.timer.rollback_to(cp.1));
                tally.op("Timer::rollback_to", r);
                (undo, rollback)
            });
            samples.push(EcoSample {
                structural: kind == EcoKind::Buffering,
                edit,
                update,
                report,
                reject,
            });
        }
        if !keep {
            self.reset(tally);
        }
        t0.elapsed().as_secs_f64()
    }

    /// Rolls the design and the timer back to the pristine state.
    fn reset(&mut self, tally: &mut Tally) {
        let r = self.nl.undo_to(self.pristine.0);
        tally.op("Netlist::undo_to (session)", r);
        let r = self.timer.rollback_to(self.pristine.1);
        tally.op("Timer::rollback_to (session)", r);
    }

    /// The timer must be back at the pristine report after a reset.
    fn check_pristine(&self, tally: &mut Tally) {
        let fp = report_fingerprint(&self.timer.report(&self.nl));
        let want = self.pristine_fp;
        tally.check(fp == want, || {
            format!("report after session rollback {fp:016x} != pristine {want:016x}")
        });
    }
}

fn design(lib: &Library, scale: Scale, seed: u64) -> Netlist {
    match scale {
        Scale::Full => generate_streamed(lib, BenchProfile::scale_50k(), seed),
        Scale::Smoke => generate(lib, BenchProfile::tiny(), seed),
    }
    .expect("generator is total")
}

/// Sets up design `i` of the run: generation, `Timer::new` and the
/// pristine report. Returns the session and the `Timer::new` wall, s.
fn set_up<'a>(
    env: &'a (Library, BeolStack),
    cfg: &RunConfig,
    i: usize,
    tally: &mut Tally,
) -> Option<(Session<'a>, f64)> {
    let (lib, stack) = env;
    let nl = design(lib, cfg.scale, sub_seed(cfg.seed, 100 + i as u64));
    let cons = Constraints::single_clock(PERIOD_PS);
    let (t, timer) = timed(|| Timer::new(&nl, lib, stack, cons));
    let timer = tally.op("Timer::new", timer)?;
    let pristine_fp = report_fingerprint(&timer.report(&nl));
    let session = Session {
        lib,
        pristine: (nl.journal_len(), timer.checkpoint()),
        nl,
        timer,
        pristine_fp,
    };
    Some((session, t))
}

/// Designs per run: the stream's cost is set by how many edits are
/// structural, which depends on the design, so a run averages over
/// several.
fn designs(scale: Scale) -> usize {
    match scale {
        Scale::Full => 4,
        Scale::Smoke => 2,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let env = crate::standard_env();
    let (lib, stack) = &env;
    let cons = Constraints::single_clock(PERIOD_PS);
    let mut sessions = Vec::new();
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    for i in 0..designs(cfg.scale) {
        let (t, s) = timed(|| set_up(&env, cfg, i, &mut out.tally));
        let Some((session, build)) = s else {
            return out;
        };
        setup_s.push(t);
        build_s.push(build);
        sessions.push(session);
    }
    let mut h = Fnv::default();
    for s in &sessions {
        h.word(design_fingerprint(&s.nl));
    }
    out.fingerprint("design", h.finish());
    let cells: usize = sessions.iter().map(|s| s.nl.cell_count()).sum();
    out.notes.push(format!(
        "designs: {} ({cells} cells in total) at {PERIOD_PS} ps; {} ECOs per session",
        sessions.len(),
        session_len(cfg.scale)
    ));
    if cfg.trace {
        out.metric("sta.timer_build_ms", "ms", median(&build_s) * 1e3);
        traced(cfg, &mut sessions, &mut out);
        let other = design(lib, cfg.scale, sub_seed(cfg.seed.wrapping_add(1), 100));
        let (a, b) = (
            design_fingerprint(&sessions[0].nl),
            design_fingerprint(&other),
        );
        out.tally.check(a != b, || {
            format!(
                "seeds {} and {} generate the same design",
                cfg.seed,
                cfg.seed + 1
            )
        });
    } else {
        untraced(cfg, &env, &mut sessions, &mut setup_s, &mut out);
        out.metric("setup_s", "s", median(&setup_s));
    }
    // Final check: after one more session that keeps its edits, the
    // incremental answer equals a from-scratch analysis bit for bit.
    let mut h = Fnv::default();
    for (i, session) in sessions.iter_mut().enumerate() {
        let mut rng = Rng::seed_from(sub_seed(cfg.seed, 300 + i as u64));
        let n = session_len(cfg.scale);
        session.run(&mut rng, n, true, &mut out.tally, &mut Vec::new());
        let incremental = report_fingerprint(&session.timer.report(&session.nl));
        let full = Sta::new(&session.nl, lib, stack, &cons).run();
        if let Some(full) = out.tally.op("Sta::run", full) {
            let full = report_fingerprint(&full);
            out.tally.check(incremental == full, || {
                format!("design {i}: Timer::report {incremental:016x} != Sta::run {full:016x}")
            });
            h.word(full);
        }
    }
    out.fingerprint("final_report", h.finish());
    out
}

/// One ECO stream per design, each from its own seed.
fn streams(cfg: &RunConfig, n: usize, purpose: u64) -> Vec<Rng> {
    (0..n as u64)
        .map(|i| Rng::seed_from(sub_seed(cfg.seed, purpose + i)))
        .collect()
}

/// Runs whole rounds until the deadline. Between two rounds one design,
/// in turn, is set up again, timed, and replaces its pristine session
/// with an identical one, so the `setup_s` samples spread over the run
/// the way the ECO samples do.
fn untraced<'a>(
    cfg: &RunConfig,
    env: &'a (Library, BeolStack),
    sessions: &mut Vec<Session<'a>>,
    setup_s: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let mut rngs = streams(cfg, sessions.len(), 200);
    let n = session_len(cfg.scale);
    let mut samples = Vec::new();
    let mut body_s = 0.0;
    // Whole rounds: every design runs the same number of sessions.
    let deadline = Deadline::new(cfg.budget, 1);
    let mut rounds = 0;
    while deadline.more(rounds) {
        if rounds > 0 {
            let i = (rounds - 1) % sessions.len();
            // Drop the old session first so repeated set-up does not
            // raise the memory high-water mark.
            let want = sessions.remove(i).pristine_fp;
            let (t, s) = timed(|| set_up(env, cfg, i, &mut out.tally));
            let Some((session, _)) = s else {
                return;
            };
            setup_s.push(t);
            let fp = session.pristine_fp;
            out.tally.check(fp == want, || {
                format!("design {i} set up again reports {fp:016x}, first {want:016x}")
            });
            sessions.insert(i, session);
        }
        for (session, rng) in sessions.iter_mut().zip(&mut rngs) {
            body_s += session.run(rng, n, false, &mut out.tally, &mut samples);
            session.check_pristine(&mut out.tally);
        }
        rounds += 1;
    }
    let lat: Vec<f64> = samples.iter().map(EcoSample::latency).collect();
    out.ops(&lat, body_s);
    let structural = samples.iter().filter(|s| s.structural).count();
    out.notes.push(format!(
        "ECOs: {} ({structural} structural) in {rounds} rounds, {body_s:.3} s of body wall; set-ups: {}",
        samples.len(),
        setup_s.len()
    ));
}

fn traced(cfg: &RunConfig, sessions: &mut [Session<'_>], out: &mut Outcome) {
    let n = session_len(cfg.scale);
    let mut samples = Vec::new();
    crate::trace_on();

    // Exact counts: the first design's first sessions, replayed twice.
    let mut exact: Option<(u64, u64, u64)> = None;
    for _ in 0..2 {
        let mut rng = Rng::seed_from(sub_seed(cfg.seed, 200));
        tc_obs::reset();
        let mut ecos = 0;
        for _ in 0..EXACT_SESSIONS {
            let mut s = Vec::new();
            sessions[0].run(&mut rng, n, false, &mut out.tally, &mut s);
            ecos += s.len() as u64;
            samples.extend(s);
        }
        let snap = tc_obs::snapshot();
        let cone_p50 = snap
            .histograms
            .iter()
            .find(|h| h.name == "sta.dirty_cone_size")
            .map_or(0.0, |h| h.p50());
        let counts = (
            ecos,
            snap.counter("sta.arcs_recomputed"),
            cone_p50.to_bits(),
        );
        let first = *exact.get_or_insert(counts);
        out.tally.check(first == counts, || {
            format!("exact counts {counts:?} differ from the first replay {first:?}")
        });
    }
    let (ecos, arcs, cone_bits) = exact.expect("two replays ran");

    // Further rounds until the deadline, alternating tracing off and on
    // for the overhead figure.
    let mut rngs = streams(cfg, sessions.len(), 400);
    let (mut untraced_lat, mut traced_lat) = (Vec::new(), Vec::new());
    let deadline = Deadline::new(cfg.budget, 2);
    let mut rounds = 0;
    while deadline.more(rounds) {
        let on = rounds % 2 == 1;
        if on {
            crate::trace_on();
        } else {
            crate::trace_off();
        }
        for (session, rng) in sessions.iter_mut().zip(&mut rngs) {
            let mut s = Vec::new();
            session.run(rng, n, false, &mut out.tally, &mut s);
            session.check_pristine(&mut out.tally);
            let lat = s.iter().map(EcoSample::latency);
            if on {
                traced_lat.extend(lat);
                samples.extend(s);
            } else {
                untraced_lat.extend(lat);
            }
        }
        rounds += 1;
    }
    crate::trace_off();

    let us = |xs: &[f64], q: f64| quantile(xs, q) * 1e6;
    let pick =
        |f: fn(&EcoSample) -> Option<f64>| -> Vec<f64> { samples.iter().filter_map(f).collect() };
    let edit = pick(|s| Some(s.edit));
    let update = pick(|s| Some(s.update));
    let structural = pick(|s| s.structural.then_some(s.update));
    let report = pick(|s| Some(s.report));
    let undo = pick(|s| s.reject.map(|r| r.0));
    let rollback = pick(|s| s.reject.map(|r| r.1));
    out.metric("netlist.eco_edit_us", "us", us(&edit, 0.5));
    out.metric("netlist.undo_us", "us", us(&undo, 0.5));
    out.metric("sta.update_us.p50", "us", us(&update, 0.5));
    out.metric("sta.update_us.p99", "us", us(&update, 0.99));
    out.metric("sta.update_structural_us.p50", "us", us(&structural, 0.5));
    out.metric("sta.timer_report_us", "us", us(&report, 0.5));
    out.metric("sta.rollback_us", "us", us(&rollback, 0.5));
    out.metric(
        "sta.arcs_recomputed_per_eco",
        "count",
        arcs as f64 / ecos as f64,
    );
    out.metric("sta.cone_cells.p50", "count", f64::from_bits(cone_bits));
    out.metric(
        "obs.overhead_pct",
        "%",
        overhead_pct(&untraced_lat, &traced_lat),
    );
    out.exact_count("eco.ecos_replayed", ecos);
    out.exact_count("sta.arcs_recomputed", arcs);
    out.exact_count("sta.cone_cells.p50.bits", cone_bits);
    out.notes.push(format!(
        "traced ECOs: {} ({} structural); overhead rounds: {rounds}",
        samples.len(),
        structural.len()
    ));
}
