#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # tcdiff — the regression gate for run artifacts and BENCH sidecars
//!
//! The workspace's harnesses commit `BENCH_*.json` sidecars and emit
//! [`tc_obs::RunArtifact`] documents, but a sidecar nobody diffs is
//! write-only telemetry: a perf or determinism regression ships
//! silently. This crate compares two such JSON documents field by
//! field and exits nonzero on regression, with two field classes:
//!
//! * **Exact fields** — everything that must be bit-stable across
//!   machines and worker counts: fingerprints, WNS/TNS and other
//!   picosecond results, workload dimensions, edit counts, booleans,
//!   strings. Any difference is a regression.
//! * **Timing fields** — wall-clock measurements (`*_ms`, `*_us`,
//!   `*_ns`, `wall*`, `speedup*`, `elapsed*`, `idle*`): compared under
//!   a configurable relative tolerance, and downgradeable to
//!   informational (`--timing-informational`) for shared CI runners
//!   whose wall clock proves nothing.
//! * **Memory fields** — allocator telemetry (`*_bytes`, `*_allocs`,
//!   `*_frees`): tolerance-gated like timing but under their own,
//!   wider knob (`--mem-tol`), because allocator behaviour — arena
//!   growth policy, thread count, even libc version — moves the counts
//!   between perfectly healthy runs. They are **never** compared
//!   bit-exactly, and `--timing-informational` downgrades them too.
//!
//! The unit suffix carries the distinction: `ms`/`us`/`ns` name *wall
//! clock* (host-dependent), while `ps` names *simulated time* — a
//! deterministic engine result that must match exactly.
//!
//! Fields that describe the machine rather than the run
//! (`host_threads`, the `knobs.*` block) are informational: shown in
//! the table, never gating.
//!
//! [`check_trace`] additionally validates a Chrome `trace_event`
//! export, read by tc-obs's one reader of that format: well-formed
//! events, per-thread monotonic timestamps, balanced B/E events, no
//! ring-overflow drops, and a minimum thread count.

use tc_obs::trace::TraceEventKind;
use tc_obs::{JsonValue, TraceSnapshot};

/// How a flattened field participates in the comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldClass {
    /// Must match bitwise (numbers compared exactly).
    Exact,
    /// Wall-clock measurement: tolerance-gated (or informational).
    Timing,
    /// Heap telemetry: tolerance-gated under [`DiffOptions::mem_tol`]
    /// (or informational) — never bit-exact.
    Memory,
    /// Machine description: never gates.
    Info,
}

/// One field's comparison outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowStatus {
    /// Values agree (exact fields) or are within tolerance (timing).
    Match,
    /// Timing field moved beyond tolerance but timing is informational.
    Drift,
    /// Exact mismatch, out-of-tolerance timing, or structural
    /// difference — the gate fails.
    Regression,
    /// Informational field; never gates.
    Info,
}

/// One row of the delta table.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Flattened field path, e.g. `grid[2].wall_ms`.
    pub path: String,
    /// Field class the path was assigned.
    pub class: FieldClass,
    /// Baseline value (rendered), or `—` if absent.
    pub baseline: String,
    /// Candidate value (rendered), or `—` if absent.
    pub candidate: String,
    /// Relative delta in percent for numeric pairs.
    pub delta_pct: Option<f64>,
    /// Outcome.
    pub status: RowStatus,
}

/// Options controlling [`diff`].
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Relative tolerance for timing fields (fraction, not percent).
    pub tol: f64,
    /// Relative tolerance for memory fields (fraction, not percent).
    /// Wider than `tol` by default: allocator counts are stable within
    /// a host but not across libc versions or thread schedules.
    pub mem_tol: f64,
    /// Downgrade out-of-tolerance timing *and memory* fields from
    /// regression to drift (for shared CI runners).
    pub timing_informational: bool,
    /// Gate memory fields even when timing is informational: an
    /// out-of-tolerance `*_bytes`/`*_allocs`/`*_frees` field is a
    /// regression regardless of `timing_informational`. Heap telemetry
    /// is host-stable in a way wall clock is not, so CI can hold the
    /// memory line while ignoring runner-speed noise.
    pub mem_strict: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tol: 0.25,
            mem_tol: 0.5,
            timing_informational: true,
            mem_strict: false,
        }
    }
}

/// The full comparison result.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Every compared field, in path order.
    pub rows: Vec<DiffRow>,
    /// Number of gating failures.
    pub regressions: usize,
    /// Number of informational timing drifts.
    pub drifts: usize,
}

impl DiffReport {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions == 0
    }

    /// Renders the per-metric delta table (only non-matching rows plus
    /// a summary unless `verbose`).
    pub fn render(&self, verbose: bool) -> String {
        let mut out = String::new();
        let shown: Vec<&DiffRow> = self
            .rows
            .iter()
            .filter(|r| verbose || r.status != RowStatus::Match)
            .collect();
        if !shown.is_empty() {
            let wp = shown.iter().map(|r| r.path.len()).max().unwrap_or(4).max(5);
            let wa = shown
                .iter()
                .map(|r| r.baseline.len())
                .max()
                .unwrap_or(8)
                .max(8);
            let wb = shown
                .iter()
                .map(|r| r.candidate.len())
                .max()
                .unwrap_or(9)
                .max(9);
            out.push_str(&format!(
                "{:<wp$}  {:<6}  {:>wa$}  {:>wb$}  {:>8}  status\n",
                "field", "class", "baseline", "candidate", "delta"
            ));
            for r in shown {
                let class = match r.class {
                    FieldClass::Exact => "exact",
                    FieldClass::Timing => "timing",
                    FieldClass::Memory => "memory",
                    FieldClass::Info => "info",
                };
                let delta = r
                    .delta_pct
                    .map_or_else(|| "—".to_string(), |d| format!("{d:+.1}%"));
                let status = match r.status {
                    RowStatus::Match => "ok",
                    RowStatus::Drift => "DRIFT (informational)",
                    RowStatus::Regression => "REGRESSION",
                    RowStatus::Info => "info",
                };
                out.push_str(&format!(
                    "{:<wp$}  {:<6}  {:>wa$}  {:>wb$}  {:>8}  {}\n",
                    r.path, class, r.baseline, r.candidate, delta, status
                ));
            }
        }
        out.push_str(&format!(
            "{} field(s) compared: {} regression(s), {} timing drift(s)\n",
            self.rows.len(),
            self.regressions,
            self.drifts
        ));
        out
    }
}

/// A scalar leaf of a flattened JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Flat {
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Flat {
    fn render(&self) -> String {
        match self {
            Flat::Num(x) => {
                if *x == x.trunc() && x.abs() < 9.0e15 {
                    format!("{}", *x as i64)
                } else {
                    format!("{x:.6}")
                }
            }
            Flat::Str(s) => s.clone(),
            Flat::Bool(b) => b.to_string(),
            Flat::Null => "null".to_string(),
        }
    }
}

/// Flattens a JSON tree into `(path, leaf)` pairs:
/// `{"a":{"b":[1]}}` → `[("a.b[0]", Num(1))]`.
pub fn flatten(v: &JsonValue) -> Vec<(String, Flat)> {
    let mut out = Vec::new();
    flatten_into(v, String::new(), &mut out);
    out
}

fn flatten_into(v: &JsonValue, path: String, out: &mut Vec<(String, Flat)>) {
    match v {
        JsonValue::Null => out.push((path, Flat::Null)),
        JsonValue::Bool(b) => out.push((path, Flat::Bool(*b))),
        JsonValue::Num(x) => out.push((path, Flat::Num(*x))),
        JsonValue::Str(s) => out.push((path, Flat::Str(s.clone()))),
        JsonValue::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten_into(item, format!("{path}[{i}]"), out);
            }
            if items.is_empty() {
                out.push((format!("{path}[]"), Flat::Null));
            }
        }
        JsonValue::Obj(pairs) => {
            for (k, item) in pairs {
                // An empty key would splice its children into the parent
                // level, and a key containing path syntax (`.`, `[`, `]`,
                // quotes) could collide with a genuinely nested path —
                // both let distinct documents flatten identically. Render
                // such keys as quoted segments instead.
                let seg = if k.is_empty() || k.contains(['.', '[', ']', '"', '\\']) {
                    format!("{k:?}")
                } else {
                    k.clone()
                };
                let child = if path.is_empty() {
                    seg
                } else {
                    format!("{path}.{seg}")
                };
                flatten_into(item, child, out);
            }
        }
    }
}

/// Wall-clock unit/word tokens that mark a field as timing.
const TIMING_TOKENS: [&str; 7] = ["ms", "us", "ns", "wall", "speedup", "elapsed", "idle"];

/// Allocator-telemetry tokens that mark a field as memory. Checked
/// before the timing vocabulary so `peak_heap_bytes` and friends never
/// fall through to exact comparison.
const MEMORY_TOKENS: [&str; 3] = ["bytes", "allocs", "frees"];

/// Classifies a flattened path. The *leaf* segment decides: its
/// `_`-separated tokens are matched against the memory vocabulary
/// first, then the wall-clock vocabulary. `host_threads` and everything
/// under `knobs.` is machine description (informational).
pub fn classify(path: &str) -> FieldClass {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    let leaf = leaf.split('[').next().unwrap_or(leaf);
    if leaf == "host_threads" || path.starts_with("knobs.") || path.contains(".knobs.") {
        return FieldClass::Info;
    }
    if leaf
        .split('_')
        .any(|tok| MEMORY_TOKENS.contains(&tok.to_ascii_lowercase().as_str()))
    {
        return FieldClass::Memory;
    }
    if leaf
        .split('_')
        .any(|tok| TIMING_TOKENS.contains(&tok.to_ascii_lowercase().as_str()))
    {
        return FieldClass::Timing;
    }
    FieldClass::Exact
}

/// Schema guard: if both documents declare `schema_version`, the
/// versions must match — comparing across schema revisions produces
/// nonsense deltas.
///
/// # Errors
///
/// Returns the two versions on mismatch.
pub fn check_schema(a: &JsonValue, b: &JsonValue) -> Result<(), (f64, f64)> {
    let version = |v: &JsonValue| match v {
        JsonValue::Obj(pairs) => pairs.iter().find_map(|(k, v)| match (k.as_str(), v) {
            ("schema_version", JsonValue::Num(x)) => Some(*x),
            _ => None,
        }),
        _ => None,
    };
    match (version(a), version(b)) {
        (Some(va), Some(vb)) if va != vb => Err((va, vb)),
        _ => Ok(()),
    }
}

/// Compares two parsed documents. `a` is the baseline, `b` the
/// candidate.
pub fn diff(a: &JsonValue, b: &JsonValue, opts: &DiffOptions) -> DiffReport {
    let fa = flatten(a);
    let fb = flatten(b);
    let mut report = DiffReport::default();
    let index_b: std::collections::BTreeMap<&str, &Flat> =
        fb.iter().map(|(p, v)| (p.as_str(), v)).collect();
    let mut seen = std::collections::BTreeSet::new();
    for (path, va) in &fa {
        seen.insert(path.as_str());
        let class = classify(path);
        let row = match index_b.get(path.as_str()) {
            None => DiffRow {
                path: path.clone(),
                class,
                baseline: va.render(),
                candidate: "—".to_string(),
                delta_pct: None,
                status: if class == FieldClass::Info {
                    RowStatus::Info
                } else {
                    RowStatus::Regression
                },
            },
            Some(vb) => compare(path, class, va, vb, opts),
        };
        tally(&mut report, row);
    }
    for (path, vb) in &fb {
        if seen.contains(path.as_str()) {
            continue;
        }
        let class = classify(path);
        tally(
            &mut report,
            DiffRow {
                path: path.clone(),
                class,
                baseline: "—".to_string(),
                candidate: vb.render(),
                delta_pct: None,
                status: if class == FieldClass::Info {
                    RowStatus::Info
                } else {
                    RowStatus::Regression
                },
            },
        );
    }
    report
}

fn tally(report: &mut DiffReport, row: DiffRow) {
    match row.status {
        RowStatus::Regression => report.regressions += 1,
        RowStatus::Drift => report.drifts += 1,
        _ => {}
    }
    report.rows.push(row);
}

fn compare(path: &str, class: FieldClass, va: &Flat, vb: &Flat, opts: &DiffOptions) -> DiffRow {
    let delta_pct = match (va, vb) {
        (Flat::Num(a), Flat::Num(b)) => {
            let denom = a.abs().max(b.abs());
            (denom > 0.0).then(|| 100.0 * (b - a) / denom)
        }
        _ => None,
    };
    let status = match class {
        FieldClass::Info => RowStatus::Info,
        FieldClass::Exact => {
            let equal = match (va, vb) {
                // Exact numbers compare by bit pattern of the parsed
                // f64 (so -0.0 vs 0.0 and NaN-as-null stay visible).
                (Flat::Num(a), Flat::Num(b)) => a.to_bits() == b.to_bits(),
                (a, b) => a == b,
            };
            if equal {
                RowStatus::Match
            } else {
                RowStatus::Regression
            }
        }
        FieldClass::Timing | FieldClass::Memory => {
            let tol = if class == FieldClass::Memory {
                opts.mem_tol
            } else {
                opts.tol
            };
            let within = match (va, vb) {
                (Flat::Num(a), Flat::Num(b)) => {
                    let denom = a.abs().max(b.abs());
                    denom == 0.0 || ((b - a).abs() / denom) <= tol
                }
                (a, b) => a == b,
            };
            if within {
                RowStatus::Match
            } else if class == FieldClass::Memory && opts.mem_strict {
                RowStatus::Regression
            } else if opts.timing_informational {
                RowStatus::Drift
            } else {
                RowStatus::Regression
            }
        }
    };
    DiffRow {
        path: path.to_string(),
        class,
        baseline: va.render(),
        candidate: vb.render(),
        delta_pct,
        status,
    }
}

/// Summary statistics of a validated Chrome trace.
#[derive(Clone, Debug)]
pub struct TraceCheck {
    /// Total events, `M` metadata records (one per named thread)
    /// included.
    pub events: usize,
    /// Distinct thread ids.
    pub threads: usize,
    /// Deepest B-nesting seen on any thread.
    pub max_depth: usize,
    /// `otherData.dropped_events`, if present.
    pub dropped: u64,
}

/// Validates a Chrome `trace_event` JSON document. The document is read
/// by [`TraceSnapshot::from_chrome_trace`], which already rejects
/// malformed events and per-thread timestamp regressions with a
/// positioned error; the parsed snapshot must then balance its B/E
/// events per thread and span at least `min_threads` threads. `M`
/// metadata records (`thread_name`) are accepted anywhere and affect
/// neither depth nor the timestamp order of their lane. Ring-overflow
/// traces (`dropped_events > 0`) are a **hard finding**: drops orphan
/// events and silently truncate any profile derived from the trace, so
/// a gating check must fail them, not forgive the imbalance they cause.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn check_trace(text: &str, min_threads: usize) -> Result<TraceCheck, String> {
    let snap = TraceSnapshot::from_chrome_trace(text)?;
    if snap.dropped > 0 {
        return Err(format!(
            "trace records {} dropped event(s) — ring overflow truncates span \
             accounting; re-record with a larger enable_trace capacity",
            snap.dropped
        ));
    }
    let mut max_depth = 0usize;
    // The snapshot holds each thread's events contiguously, in order.
    for lane in snap.events.chunk_by(|a, b| a.tid == b.tid) {
        let tid = lane[0].tid;
        let mut depth = 0usize;
        for e in lane {
            match e.kind {
                TraceEventKind::Begin => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                TraceEventKind::End => {
                    depth = depth
                        .checked_sub(1)
                        .ok_or_else(|| format!("tid {tid}: unmatched E `{}`", e.name))?;
                }
                TraceEventKind::Counter | TraceEventKind::Gauge => {}
            }
        }
        if depth != 0 {
            return Err(format!("tid {tid}: {depth} unbalanced B event(s)"));
        }
    }
    let threads = snap.thread_ids().len();
    if threads < min_threads {
        return Err(format!(
            "trace has {threads} thread(s), expected >= {min_threads}"
        ));
    }
    Ok(TraceCheck {
        events: snap.events.len() + snap.thread_names.len(),
        threads,
        max_depth,
        dropped: snap.dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> JsonValue {
        JsonValue::parse(s).expect("test doc parses")
    }

    #[test]
    fn ambiguous_keys_flatten_to_distinct_paths() {
        // An empty key must not splice its children into the parent
        // level: `profile` and `{"":{"profile":…}}` are different fields.
        let doc = parse(r#"{"profile":"tiny","":{"profile":"y"},"a.b":1,"a":{"b":2}}"#);
        let flat = flatten(&doc);
        let mut paths: Vec<&str> = flat.iter().map(|(p, _)| p.as_str()).collect();
        paths.sort_unstable();
        let n = paths.len();
        paths.dedup();
        assert_eq!(
            paths.len(),
            n,
            "flatten produced colliding paths: {paths:?}"
        );
        // Self-diff of any accepted document is clean.
        let report = diff(&doc, &doc, &DiffOptions::default());
        assert!(
            report.ok(),
            "self-diff not clean:\n{}",
            report.render(false)
        );
    }

    #[test]
    fn classification_separates_wall_clock_from_results() {
        assert_eq!(classify("total_full_ms"), FieldClass::Timing);
        assert_eq!(classify("grid[2].wall_ms"), FieldClass::Timing);
        assert_eq!(classify("grid[2].speedup_vs_1"), FieldClass::Timing);
        assert_eq!(classify("per_fix_kind[0].mean_full_us"), FieldClass::Timing);
        assert_eq!(classify("metrics.spans[0].total_ns"), FieldClass::Timing);
        assert_eq!(classify("iterations[0].elapsed_ms"), FieldClass::Timing);
        // Picoseconds are simulated time — engine results, exact.
        assert_eq!(classify("period_ps"), FieldClass::Exact);
        assert_eq!(classify("iterations[0].wns_after_ps"), FieldClass::Exact);
        assert_eq!(classify("merged_fingerprint"), FieldClass::Exact);
        assert_eq!(classify("arcs_recomputed"), FieldClass::Exact);
        assert_eq!(classify("host_threads"), FieldClass::Info);
        assert_eq!(classify("knobs.TC_PAR_THREADS"), FieldClass::Info);
        // Allocator telemetry is its own class — never exact.
        assert_eq!(classify("memory.peak_heap_bytes"), FieldClass::Memory);
        assert_eq!(classify("memory.total_allocs"), FieldClass::Memory);
        assert_eq!(classify("memory.total_frees"), FieldClass::Memory);
        assert_eq!(classify("memory.vm_hwm_bytes"), FieldClass::Memory);
        assert_eq!(classify("metrics.spans[0].net_bytes"), FieldClass::Memory);
        assert_eq!(classify("profiles[1].build.peak_bytes"), FieldClass::Memory);
    }

    #[test]
    fn memory_fields_gate_by_their_own_tolerance() {
        let a = parse(r#"{"memory":{"peak_heap_bytes":1000000,"total_allocs":500}}"#);
        let b = parse(r#"{"memory":{"peak_heap_bytes":1400000,"total_allocs":700}}"#);
        let strict = DiffOptions {
            tol: 0.25,
            mem_tol: 0.5,
            timing_informational: false,
            mem_strict: false,
        };
        // 40% growth sits inside mem_tol=0.5 even though tol=0.25
        // would fail it — memory uses its own knob.
        assert!(diff(&a, &b, &strict).ok());
        let c = parse(r#"{"memory":{"peak_heap_bytes":3000000,"total_allocs":500}}"#);
        let rep = diff(&a, &c, &strict);
        assert!(!rep.ok(), "3x peak fails the strict memory gate");
        let informational = DiffOptions {
            timing_informational: true,
            ..strict
        };
        let rep = diff(&a, &c, &informational);
        assert!(rep.ok(), "informational mode downgrades memory too");
        assert_eq!(rep.drifts, 1);
    }

    #[test]
    fn mem_strict_gates_memory_despite_informational_timing() {
        let a = parse(r#"{"peak_heap_bytes":1000000,"wall_ms":100.0}"#);
        let b = parse(r#"{"peak_heap_bytes":3000000,"wall_ms":300.0}"#);
        let opts = DiffOptions {
            mem_strict: true,
            ..DiffOptions::default()
        };
        let rep = diff(&a, &b, &opts);
        assert!(!rep.ok(), "3x heap fails --mem-strict");
        assert_eq!(rep.regressions, 1, "only the memory field gates");
        assert_eq!(rep.drifts, 1, "wall clock stays informational");
        // Inside mem-tol still passes.
        let c = parse(r#"{"peak_heap_bytes":1200000,"wall_ms":100.0}"#);
        assert!(diff(&a, &c, &opts).ok());
    }

    #[test]
    fn memory_fields_are_never_compared_exactly() {
        // A one-byte wiggle inside tolerance must pass even strict.
        let a = parse(r#"{"live_bytes":1048576}"#);
        let b = parse(r#"{"live_bytes":1048577}"#);
        let strict = DiffOptions {
            tol: 0.0,
            mem_tol: 0.01,
            timing_informational: false,
            mem_strict: false,
        };
        let rep = diff(&a, &b, &strict);
        assert!(rep.ok());
        assert_eq!(rep.rows[0].class, FieldClass::Memory);
    }

    #[test]
    fn self_compare_is_clean() {
        let doc = parse(r#"{"fingerprint":"abc","wall_ms":12.5,"cells":100}"#);
        let report = diff(&doc, &doc, &DiffOptions::default());
        assert!(report.ok());
        assert_eq!(report.regressions, 0);
        assert!(report.rows.iter().all(|r| r.status == RowStatus::Match));
    }

    #[test]
    fn fingerprint_perturbation_is_a_regression() {
        let a = parse(r#"{"merged_fingerprint":"9dd7ec5240","wall_ms":10.0}"#);
        let b = parse(r#"{"merged_fingerprint":"deadbeef00","wall_ms":10.0}"#);
        let report = diff(&a, &b, &DiffOptions::default());
        assert!(!report.ok());
        assert_eq!(report.regressions, 1);
    }

    #[test]
    fn timing_moves_gate_by_tolerance_and_mode() {
        let a = parse(r#"{"wall_ms":100.0}"#);
        let b = parse(r#"{"wall_ms":200.0}"#);
        let strict = DiffOptions {
            timing_informational: false,
            ..DiffOptions::default()
        };
        assert!(!diff(&a, &b, &strict).ok(), "2x slower fails strict gate");
        let informational = DiffOptions {
            timing_informational: true,
            ..DiffOptions::default()
        };
        let rep = diff(&a, &b, &informational);
        assert!(rep.ok(), "informational mode never gates on timing");
        assert_eq!(rep.drifts, 1);
        let c = parse(r#"{"wall_ms":110.0}"#);
        assert!(diff(&a, &c, &strict).ok(), "10% is inside 25% tolerance");
    }

    #[test]
    fn missing_and_extra_fields_are_regressions() {
        let a = parse(r#"{"cells":100,"nets":200}"#);
        let b = parse(r#"{"cells":100,"extra":1}"#);
        let report = diff(&a, &b, &DiffOptions::default());
        assert_eq!(report.regressions, 2, "one missing + one extra");
    }

    #[test]
    fn schema_versions_must_match() {
        let a = parse(r#"{"schema_version":1,"x":1}"#);
        let b = parse(r#"{"schema_version":2,"x":1}"#);
        assert_eq!(check_schema(&a, &b), Err((1.0, 2.0)));
        assert_eq!(check_schema(&a, &a), Ok(()));
        // Documents without a version (BENCH sidecars) are accepted.
        let c = parse(r#"{"x":1}"#);
        assert_eq!(check_schema(&a, &c), Ok(()));
    }

    #[test]
    fn trace_check_validates_balance_and_monotonicity() {
        let good = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0},
            {"name":"b","ph":"B","ts":2.0,"pid":1,"tid":0},
            {"name":"b","ph":"E","ts":3.0,"pid":1,"tid":0},
            {"name":"a","ph":"E","ts":4.0,"pid":1,"tid":0},
            {"name":"t","ph":"B","ts":1.5,"pid":1,"tid":1},
            {"name":"c","ph":"C","ts":2.0,"pid":1,"tid":1,"args":{"value":3}},
            {"name":"t","ph":"E","ts":2.5,"pid":1,"tid":1}
        ],"otherData":{"dropped_events":0}}"#;
        let check = check_trace(good, 2).expect("valid trace");
        assert_eq!(check.threads, 2);
        assert_eq!(check.max_depth, 2);
        assert_eq!(check.events, 7);

        let unbalanced = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0}
        ]}"#;
        assert!(check_trace(unbalanced, 1).is_err());

        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5.0,"pid":1,"tid":0},
            {"name":"a","ph":"E","ts":1.0,"pid":1,"tid":0}
        ]}"#;
        assert!(check_trace(backwards, 1).is_err());

        assert!(check_trace("not json", 1).is_err());
    }

    #[test]
    fn trace_check_hard_fails_on_dropped_events() {
        // Ring overflow truncates span accounting, so a non-zero drop
        // count is a finding in itself — even when the surviving events
        // happen to balance.
        let truncated = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0},
            {"name":"a","ph":"E","ts":2.0,"pid":1,"tid":0}
        ],"otherData":{"dropped_events":3}}"#;
        let err = check_trace(truncated, 1).expect_err("drops are a hard finding");
        assert!(err.contains("3 dropped event(s)"), "{err}");
        assert!(err.contains("enable_trace"), "{err}");
    }

    #[test]
    fn trace_check_accepts_thread_name_metadata() {
        // M records carry ts 0 and sit before events whose lanes they
        // name; they must not trip monotonicity or balance.
        let with_meta = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"main"}},
            {"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"tc-par-0"}},
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0},
            {"name":"a","ph":"E","ts":2.0,"pid":1,"tid":0},
            {"name":"b","ph":"B","ts":1.0,"pid":1,"tid":1},
            {"name":"b","ph":"E","ts":2.0,"pid":1,"tid":1}
        ],"otherData":{"dropped_events":0}}"#;
        let check = check_trace(with_meta, 2).expect("metadata accepted");
        assert_eq!(check.threads, 2, "threads counted from real events");
        assert_eq!(check.events, 6, "metadata records count as events");

        let nameless_meta = r#"{"traceEvents":[
            {"ph":"M","ts":0,"pid":1,"tid":0}
        ]}"#;
        assert!(check_trace(nameless_meta, 0).is_err());
    }
}
