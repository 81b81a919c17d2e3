//! The `tc_prof` CLI: span profiles and differential profiling gates
//! over flight-recorder output.
//!
//! ```text
//! tc_prof report <trace.json | PROF_*.json> [--json] [--top N]
//! tc_prof diff <baseline PROF.json> <candidate PROF.json>
//!         [--tol FRACTION] [--min-share FRACTION] [--counts-informational]
//! tc_prof fold <trace.json>
//! ```
//!
//! Exit codes (the tcdiff contract): `0` — clean; `1` — finding
//! (dropped trace events under `report`, a regression under `diff`);
//! `2` — usage, I/O, parse, or schema error.

use std::process::ExitCode;

use tc_obs::TraceSnapshot;
use tc_prof::{diff, DiffOptions, Profile, PROF_KIND};

fn usage() -> &'static str {
    "usage: tc_prof report <trace.json | PROF_*.json> [--json] [--top N] [--workload LABEL]\n\
     \x20      tc_prof diff <baseline.json> <candidate.json> [--tol FRACTION]\n\
     \x20              [--min-share FRACTION] [--counts-informational]\n\
     \x20      tc_prof fold <trace.json>\n\
     \n\
     report — reduce a Chrome trace sidecar (or re-render an existing\n\
     PROF_*.json) to a span profile: per-span count/total/self/child,\n\
     p50/p90/p99, net heap, lane utilization, critical chain. Dropped\n\
     trace events are a hard finding (exit 1): ring overflow truncates\n\
     self-time. --json emits the schema-versioned PROF document.\n\
     diff — compare two PROF documents span-by-span: structure and\n\
     counts exactly, self time under --tol (default 50%) for spans\n\
     holding at least --min-share of wall (default 2%). Exit 1 on any\n\
     regression.\n\
     fold — re-fold a Chrome trace to flamegraph.pl input."
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("tc_prof: {msg}");
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// A PROF document starts with the profile kind marker; anything else
/// is treated as a Chrome trace.
fn load_profile(path: &str, text: &str) -> Result<Profile, String> {
    if text.contains(PROF_KIND) {
        Profile::parse(text).map_err(|e| format!("{path}: {e}"))
    } else {
        Profile::from_chrome_trace(text).map_err(|e| format!("{path}: {e}"))
    }
}

fn cmd_report(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return fail(usage());
    };
    let mut json = false;
    let mut top = 20usize;
    let mut workload: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--top" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    return fail("--top needs an integer");
                };
                top = n;
                i += 2;
            }
            "--workload" => {
                let Some(label) = args.get(i + 1) else {
                    return fail("--workload needs a label");
                };
                workload = Some(label.clone());
                i += 2;
            }
            other => return fail(&format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    let text = match read(path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let mut profile = match load_profile(path, &text) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    if let Some(label) = workload {
        profile = profile.workload(label);
    }
    if json {
        println!("{}", profile.render_json());
    } else {
        print!("{}", profile.render_text(top));
    }
    if profile.dropped_events > 0 {
        eprintln!(
            "tc_prof: {path}: {} dropped trace event(s) — profile is truncated",
            profile.dropped_events
        );
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut opts = DiffOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tol" => {
                let Some(t) = args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) else {
                    return fail("--tol needs a fraction, e.g. --tol 0.5");
                };
                if t.is_nan() || t < 0.0 {
                    return fail("--tol must be >= 0");
                }
                opts.tol = t;
                i += 2;
            }
            "--min-share" => {
                let Some(t) = args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) else {
                    return fail("--min-share needs a fraction, e.g. --min-share 0.02");
                };
                if t.is_nan() || t < 0.0 {
                    return fail("--min-share must be >= 0");
                }
                opts.min_share = t;
                i += 2;
            }
            "--counts-informational" => {
                opts.counts_informational = true;
                i += 1;
            }
            other if other.starts_with("--") => {
                return fail(&format!("unknown flag `{other}`\n{}", usage()))
            }
            path => {
                paths.push(path.to_string());
                i += 1;
            }
        }
    }
    if paths.len() != 2 {
        return fail(usage());
    }
    let (ta, tb) = match (read(&paths[0]), read(&paths[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let base = match Profile::parse(&ta) {
        Ok(p) => p,
        Err(e) => return fail(&format!("{}: {e}", paths[0])),
    };
    let cand = match Profile::parse(&tb) {
        Ok(p) => p,
        Err(e) => return fail(&format!("{}: {e}", paths[1])),
    };
    let report = diff(&base, &cand, &opts);
    for note in &report.notes {
        println!("note: {note}");
    }
    for r in &report.regressions {
        println!("REGRESSION: {r}");
    }
    if report.is_clean() {
        println!("PASS: {} vs {}", paths[0], paths[1]);
        ExitCode::SUCCESS
    } else {
        println!("FAIL: {} vs {}", paths[0], paths[1]);
        ExitCode::from(1)
    }
}

fn cmd_fold(args: &[String]) -> ExitCode {
    let [path] = args else {
        return fail(usage());
    };
    let text = match read(path) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    match TraceSnapshot::from_chrome_trace(&text) {
        Ok(snap) => {
            print!("{}", snap.to_folded());
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("{path}: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        println!("{}", usage());
        return ExitCode::from(if args.is_empty() { 2 } else { 0 });
    }
    match args[0].as_str() {
        "report" => cmd_report(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        "fold" => cmd_fold(&args[1..]),
        other => fail(&format!("unknown command `{other}`\n{}", usage())),
    }
}
