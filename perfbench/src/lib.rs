//! The repository benchmark: three closed-loop workloads (one client,
//! one request in flight) that time the library's public entry points
//! from outside, check every output, and report end-to-end metrics
//! (untraced run) or per-layer metrics (traced run).
//!
//! See `README.md` in this directory for the workload rationale and the
//! layer → end-to-end metric map.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use tc_core::error::Result;
use tc_interconnect::BeolStack;
use tc_liberty::{LibConfig, Library, PvtCorner};
use tc_netlist::Netlist;
use tc_sta::mcmm::MergedReport;
use tc_sta::TimingReport;

pub mod closure;
pub mod eco;
pub mod signoff;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["signoff_200k", "eco_50k", "closure_soc"];

/// The end-to-end metrics `(name, unit)` every untraced run reports,
/// whatever the workload: each workload defines its own operation
/// (see `README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics `(name, unit)` every traced run reports. A
/// workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("netlist.verilog_parse_ms", "ms"),
    ("netlist.levelize_ms", "ms"),
    ("netlist.eco_edit_us", "us"),
    ("netlist.undo_us", "us"),
    ("sta.graph_build_ms", "ms"),
    ("sta.propagate_ms", "ms"),
    ("sta.report_ms", "ms"),
    ("sta.arcs_evaluated_per_run", "count"),
    ("sta.allocs_per_run", "count"),
    ("sta.timer_build_ms", "ms"),
    ("sta.update_us.p50", "us"),
    ("sta.update_us.p99", "us"),
    ("sta.update_structural_us.p50", "us"),
    ("sta.timer_report_us", "us"),
    ("sta.rollback_us", "us"),
    ("sta.arcs_recomputed_per_eco", "count"),
    ("sta.cone_cells.p50", "count"),
    ("signoff.corner_ms", "ms"),
    ("sta.merge_ms", "ms"),
    ("par.corner_speedup", "x"),
    ("par.gba_speedup", "x"),
    ("par.tasks", "count"),
    ("liberty.generate_ms", "ms"),
    ("lint.run_ms", "ms"),
    ("closure.iterations", "count"),
    ("closure.edits", "count"),
    ("closure.fix_ms.vt_swap", "ms"),
    ("closure.fix_ms.sizing", "ms"),
    ("closure.fix_ms.buffering", "ms"),
    ("closure.fix_ms.ndr", "ms"),
    ("closure.fix_ms.useful_skew", "ms"),
    ("closure.sta_ms", "ms"),
    ("closure.final_wns_ps", "ps"),
    ("closure.designs_closed", "count"),
    ("obs.overhead_pct", "%"),
];

/// How big the inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark sizes (`scale_200k`, `scale_50k`, a `soc_block`
    /// population).
    Full,
    /// Tiny designs, so the smoke test exercises every check in seconds.
    Smoke,
}

/// One run's request.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured body length.
    pub budget: Duration,
    /// `false`: end-to-end metrics with tc-obs off. `true`: per-layer
    /// metrics with tc-obs counters and memory accounting on.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Everything one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed (an `Err` or a failed output check).
    pub tally: Tally,
    /// Work counts that must repeat exactly for a given seed (traced run).
    pub exact: Vec<(String, u64)>,
    /// Output fingerprints that must repeat exactly for a given seed.
    pub fingerprints: Vec<(String, u64)>,
    /// Free-form lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Records the operation metrics of an untraced run: median and
    /// 99th-percentile latency over `latencies_s` (one entry per
    /// completed operation, s) and completed operations per second of
    /// `body_s`, the body's wall time.
    pub fn ops(&mut self, latencies_s: &[f64], body_s: f64) {
        self.metric("op_p50_ms", "ms", quantile(latencies_s, 0.5) * 1e3);
        self.metric("op_p99_ms", "ms", quantile(latencies_s, 0.99) * 1e3);
        self.metric("ops_per_s", "1/s", latencies_s.len() as f64 / body_s);
        self.notes.push(format!(
            "operations timed: {} in {body_s:.3} s of body wall",
            latencies_s.len()
        ));
    }

    /// Puts the metrics in the order of `list` and makes the set exactly
    /// `list`'s. A missing end-to-end metric becomes `NaN`, which makes
    /// the run incorrect; a missing per-layer metric becomes 0, since
    /// the workload does not exercise that layer.
    fn complete(&mut self, trace: bool) {
        let (list, missing) = if trace {
            (&PER_LAYER[..], 0.0)
        } else {
            (&END_TO_END[..], f64::NAN)
        };
        for m in &self.metrics {
            assert!(
                list.contains(&(m.name.as_str(), m.unit)),
                "metric {} [{}] is not in the manifest",
                m.name,
                m.unit
            );
        }
        let (mut metrics, mut absent) = (Vec::new(), Vec::new());
        for &(name, unit) in list {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) => metrics.push(m.clone()),
                None => {
                    absent.push(name);
                    metrics.push(Metric {
                        name: name.to_string(),
                        unit,
                        value: missing,
                    });
                }
            }
        }
        self.metrics = metrics;
        if !absent.is_empty() {
            self.notes.push(format!(
                "not measured by this workload (reported as {missing}): {}",
                absent.join(", ")
            ));
        }
    }

    /// Records an exact work count.
    pub fn exact_count(&mut self, name: &str, value: u64) {
        self.exact.push((name.to_string(), value));
    }

    /// Records an output fingerprint.
    pub fn fingerprint(&mut self, name: &str, value: u64) {
        self.fingerprints.push((name.to_string(), value));
    }
}

/// Attempted/failed operation counts plus the first failure's message.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted (library calls and output checks).
    pub attempted: u64,
    /// Operations that returned `Err` or failed their check.
    pub failed: u64,
    /// Messages of the first few failures.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one library call; `None` on `Err`.
    pub fn op<T>(&mut self, what: &str, r: Result<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// Failed share of attempted operations.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs one workload by name.
///
/// # Errors
///
/// Returns the unknown name.
pub fn run_workload(name: &str, cfg: &RunConfig) -> std::result::Result<Outcome, String> {
    let start = Instant::now();
    let mut out = match name {
        "signoff_200k" => signoff::run(cfg),
        "eco_50k" => eco::run(cfg),
        "closure_soc" => closure::run(cfg),
        other => return Err(format!("unknown workload `{other}`")),
    };
    if !cfg.trace {
        out.metric("peak_rss_mb", "MB", peak_rss_mb());
    }
    out.complete(cfg.trace);
    out.notes
        .push(format!("run wall: {:.3} s", start.elapsed().as_secs_f64()));
    Ok(out)
}

/// The host's available parallelism: the width of every pool the
/// benchmark builds.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pins the process-wide pool width to [`nproc`]: `ClosureFlow` and the
/// lint preflight build their pools from `TC_PAR_THREADS`. Call before
/// any thread is spawned.
pub fn pin_threads() {
    std::env::set_var(tc_par::THREADS_ENV, nproc().to_string());
}

/// `VmHWM` in MB; `NaN` (an incorrect run) where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    tc_obs::vm_hwm_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

/// The typical-corner library and the 20 nm BEOL stack every workload
/// times against.
pub fn standard_env() -> (Library, BeolStack) {
    (
        Library::generate(&LibConfig::default(), &PvtCorner::typical()),
        BeolStack::n20(),
    )
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Median; `NaN` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean; `NaN` for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Percent by which `traced` exceeds `untraced`.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let base = median(untraced);
    100.0 * (median(traced) - base) / base
}

/// FNV-1a, for fingerprints that must repeat bit for bit.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one word in.
    pub fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Structure and parasitics of a design: masters, connectivity, wire
/// lengths and route classes.
pub fn design_fingerprint(nl: &Netlist) -> u64 {
    let mut h = Fnv::default();
    h.word(nl.cell_count() as u64);
    h.word(nl.net_count() as u64);
    for cell in nl.cells() {
        h.word(cell.master.index() as u64);
        h.word(cell.output.index() as u64);
        for net in cell.inputs {
            h.word(net.index() as u64);
        }
    }
    for net in nl.nets() {
        h.word(net.wire_length_um.to_bits());
        h.word(u64::from(net.route_class));
    }
    h.finish()
}

/// Every endpoint's setup and hold slack, bit for bit.
pub fn report_fingerprint(r: &TimingReport) -> u64 {
    let mut h = Fnv::default();
    for e in &r.endpoints {
        h.word(e.setup_slack.value().to_bits());
        h.word(e.hold_slack.value().to_bits());
    }
    h.word(r.wns().value().to_bits());
    h.word(r.tns().value().to_bits());
    h.finish()
}

/// Every merged endpoint's worst slacks and their attribution.
pub fn merged_fingerprint(m: &MergedReport) -> u64 {
    let mut h = Fnv::default();
    for e in &m.endpoints {
        h.word(e.setup.0.value().to_bits());
        h.bytes(e.setup.1.as_bytes());
        h.word(e.hold.0.value().to_bits());
        h.bytes(e.hold.1.as_bytes());
    }
    h.finish()
}

/// Derives an independent stream seed for one purpose of a run.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    let mut h = Fnv::default();
    h.word(seed);
    h.word(purpose);
    h.finish()
}

/// A body deadline that always allows `min_reps` repetitions.
pub struct Deadline {
    end: Instant,
    min_reps: usize,
}

impl Deadline {
    /// Starts the clock now.
    pub fn new(budget: Duration, min_reps: usize) -> Self {
        Deadline {
            end: Instant::now() + budget,
            min_reps,
        }
    }

    /// Whether another repetition should run after `done` of them.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_reps || Instant::now() < self.end
    }
}

/// Turns on the existing tc-obs counters, spans and allocation counting
/// for a traced run.
pub fn trace_on() {
    tc_obs::enable();
    tc_obs::enable_memory();
}

/// Turns tc-obs back off (the untraced, default state).
pub fn trace_off() {
    tc_obs::disable();
    tc_obs::disable_memory();
}
