//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <signoff_200k|eco_50k|closure_soc|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The human-readable lines come first; the last line of standard
//! output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is non-zero when an operation
//! failed or an output check did not hold.

use std::process::{Command, ExitCode};
use std::time::Duration;

use tc_obs::JsonValue;
use tc_perfbench::{nproc, pin_threads, run_workload, RunConfig, Scale, WORKLOADS};

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            scale = Scale::Smoke;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a duration"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
            trace: trace.unwrap_or(false),
            scale,
        },
    })
}

/// Runs every workload in its own child process (peak RSS and the
/// process-global tc-obs state stay per workload) and waits for each.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot locate own executable: {e}")),
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                args.push(a.clone());
            }
        }
        args.extend(["--workload".to_string(), w.to_string()]);
        match Command::new(&exe).args(&args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let cfg = args.cfg;
    pin_threads();
    println!(
        "perfbench {} seed={} seconds={} trace={} scale={:?} nproc={} pool_width={}",
        args.workload,
        cfg.seed,
        cfg.budget.as_secs_f64(),
        u8::from(cfg.trace),
        cfg.scale,
        nproc(),
        tc_par::Pool::from_env().workers(),
    );
    let out = match run_workload(&args.workload, &cfg) {
        Ok(out) => out,
        Err(msg) => return usage(&msg),
    };
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let t = &out.tally;
    println!(
        "fail_share = {} ({} of {} operations failed)",
        t.fail_share(),
        t.failed,
        t.attempted
    );
    for (name, v) in &out.exact {
        println!("exact {name} = {v}");
    }
    for (name, v) in &out.fingerprints {
        println!("fingerprint {name} = {v:016x}");
    }
    for f in &t.failures {
        println!("FAILED: {f}");
    }
    let finite = out.metrics.iter().all(|m| m.value.is_finite());
    let correct = t.failed == 0 && t.attempted > 0 && finite;
    let metrics = JsonValue::Obj(
        out.metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    JsonValue::obj([
                        ("value", JsonValue::from(m.value)),
                        ("unit", JsonValue::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    );
    let line = JsonValue::obj([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::from(t.attempted.max(1))),
        ("failed", JsonValue::from(t.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
