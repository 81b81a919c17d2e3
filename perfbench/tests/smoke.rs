//! Smoke test: runs the built `perfbench` binary on every workload at
//! tiny sizes (`--smoke`), untraced and traced, so the output checks,
//! the `correct` verdict, the exit code and the final JSON line stay
//! compiled and exercised. The traced run is repeated with the same seed
//! (every exact count and fingerprint must repeat) and with another seed
//! (the design fingerprint must change). Every run must report exactly
//! the metrics `BENCHMARK.json` lists for its mode, by name and unit, in
//! its order.

use std::process::{Command, Output};

use tc_obs::JsonValue;
use tc_perfbench::WORKLOADS;

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

/// One finished run: its JSON verdict plus the `exact` and `fingerprint`
/// lines of the human-readable part.
struct Run {
    metrics: Vec<(String, String)>,
    exact: Vec<String>,
    fingerprints: Vec<String>,
}

fn field<'a>(obj: &'a JsonValue, key: &str) -> &'a JsonValue {
    let JsonValue::Obj(fields) = obj else {
        panic!("not a JSON object: {}", obj.render())
    };
    &fields
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no `{key}` in {}", obj.render()))
        .1
}

fn number(v: &JsonValue) -> f64 {
    match v {
        JsonValue::Num(x) => *x,
        other => panic!("not a number: {}", other.render()),
    }
}

/// Checks a result line: correct, nothing failed, every metric finite.
/// Returns the `(name, unit)` of every metric.
fn verdict(workload: &str, line: &str) -> Vec<(String, String)> {
    let doc = JsonValue::parse(line).unwrap_or_else(|e| panic!("{workload}: {e}: {line}"));
    let JsonValue::Obj(top) = &doc else {
        panic!("{workload}: result is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(matches!(field(&doc, "correct"), JsonValue::Bool(true)));
    assert!(number(field(&doc, "attempted")) >= 1.0);
    assert_eq!(number(field(&doc, "failed")), 0.0, "{workload}: {line}");
    let JsonValue::Obj(metrics) = field(&doc, "metrics") else {
        panic!("{workload}: metrics is not an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = number(field(m, "value"));
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            let JsonValue::Str(unit) = field(m, "unit") else {
                panic!("{workload}: {name} has no unit")
            };
            (name.clone(), unit.clone())
        })
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let seed = seed.to_string();
    let trace = if trace { "1" } else { "0" };
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "0.05",
        "--trace",
        trace,
        "--smoke",
    ];
    let out = perfbench(&args);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) exited with {}:\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("some output");
    let lines_starting = |prefix: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| l.starts_with(prefix))
            .map(str::to_string)
            .collect()
    };
    Run {
        metrics: verdict(workload, last),
        exact: lines_starting("exact "),
        fingerprints: lines_starting("fingerprint "),
    }
}

fn design_fingerprint(run: &Run) -> &str {
    run.fingerprints
        .iter()
        .find(|l| l.starts_with("fingerprint design = "))
        .expect("design fingerprint printed")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(doc: &JsonValue, list: &str) -> Vec<(String, String)> {
    let JsonValue::Arr(items) = field(doc, list) else {
        panic!("BENCHMARK.json `{list}` is not a list")
    };
    items
        .iter()
        .map(|item| {
            let get = |key: &str| match field(item, key) {
                JsonValue::Str(s) => s.clone(),
                other => panic!("`{list}` entry `{key}` is {}", other.render()),
            };
            (get("name"), get("unit"))
        })
        .collect()
}

#[test]
fn workloads_pass_their_checks_and_repeat_exactly() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");

    for w in WORKLOADS {
        let untraced = run(w, 7, false);
        let traced = run(w, 7, true);
        assert_eq!(untraced.metrics, end_to_end, "{w}: untraced metrics");
        assert_eq!(traced.metrics, per_layer, "{w}: traced metrics");
        assert_eq!(
            design_fingerprint(&untraced),
            design_fingerprint(&traced),
            "{w}: the seed alone must fix the design"
        );

        let again = run(w, 7, true);
        assert!(!traced.exact.is_empty(), "{w}: no exact counts");
        assert_eq!(traced.exact, again.exact, "{w}: exact counts must repeat");
        assert_eq!(
            traced.fingerprints, again.fingerprints,
            "{w}: output fingerprints must repeat"
        );

        let other = run(w, 8, true);
        assert_ne!(
            design_fingerprint(&traced),
            design_fingerprint(&other),
            "{w}: another seed must give another design"
        );
    }
}

#[test]
fn all_runs_every_workload_and_prints_one_result_each() {
    let out = perfbench(&[
        "--workload",
        "all",
        "--seed",
        "3",
        "--seconds",
        "0.05",
        "--trace",
        "0",
        "--smoke",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "exited with {}:\n{stdout}",
        out.status
    );
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), WORKLOADS.len(), "{stdout}");
    for (w, line) in WORKLOADS.iter().zip(results) {
        verdict(w, line);
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "eco_50k", "--seconds", "1", "--trace", "0"][..],
        &[
            "--workload",
            "eco_50k",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed {stdout}");
    }
}
