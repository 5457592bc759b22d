//! The repo benchmark (see `README.md` beside `Cargo.toml`).
//!
//! Driver form, one workload per process:
//!
//! ```text
//! adele_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints the metrics by name and unit, the correctness checks, and — as
//! the last line of stdout — one JSON object `{correct, attempted,
//! failed, metrics}`. `--trace 0` measures the end-to-end metrics with
//! spans off; `--trace 1` repeats the workload with the benchmark's own
//! spans around every call into a layer, runs the layer probes, prints
//! the per-layer metrics and writes `benchmark/out/trace_<workload>.json`.
//!
//! Convenience forms (each workload still runs in its own process):
//! `all`, `layers`, `check smoke`, `check repeat`.

#![forbid(unsafe_code)]

mod metrics;
mod probes;
mod run;
mod span;
mod stats;
mod workloads;

use metrics::{Manifest, Metrics};
use run::Run;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workloads::{WorkloadDef, WORKLOADS};

/// Where the benchmark writes: traces, the untraced pass's digests and
/// per-process scratch directories. Relative to the checkout root, which
/// `run.sh` makes the working directory.
fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// The host's available parallelism.
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc`
/// is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Options of the driver form.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let need = |name: &str| flag(args, name).ok_or(format!("missing {name} <value>"));
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: need("--workload")?.to_string(),
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed takes a non-negative integer".to_string())?,
        seconds,
        trace,
        smoke: args.iter().any(|a| a == "--smoke"),
    })
}

/// Clears every knob that could change what the stack does, so a run
/// depends on its arguments only.
fn hermetic_env(threads: usize) {
    let stale: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k == "ADELE_QUICK" || k == "NOC_CHAOS" || k.starts_with("PROPTEST_"))
        .collect();
    for key in stale {
        std::env::remove_var(key);
    }
    std::env::set_var("NOC_THREADS", threads.to_string());
}

/// What the untraced pass leaves for the traced pass of the same
/// workload, seed and budget to compare against.
fn e2e_note_path(workload: &str) -> PathBuf {
    out_dir().join(format!("e2e_{workload}.txt"))
}

fn run_workload(args: &Args) -> Result<bool, String> {
    let def = WorkloadDef::find(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        )
    })?;
    let threads = def.threads.min(host_threads());
    hermetic_env(threads);
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;

    // The traced pass spends half its budget on the workload and the
    // other half on the layer probes.
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let mut run = Run::new(def.name, args.seed, threads, budget, args.trace);
    run.smoke = args.smoke;
    println!(
        "# {} seed={} seconds={} trace={} threads={threads} nproc={}{}",
        def.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_threads(),
        if args.smoke { " SMOKE" } else { "" },
    );
    println!("# why: {}", def.why);
    if let Err(e) = def.execute(&mut run) {
        eprintln!("{}: stopped: {e}", def.name);
    }

    let note = format!("{} {} {}", args.seed, args.seconds, u8::from(args.smoke));
    let metrics = if args.trace {
        let mut m = run.per_layer();
        if run.failed == 0 {
            // A probe failure is already booked on `run`.
            let _ = probes::run_probes(&mut run, &mut m);
        }
        compare_with_untraced(&mut run, &mut m, &note);
        let coverage = run.spans.top_level_coverage(0, run.spans.now_ns());
        m.set("bench.span_coverage", coverage);
        run.check(
            "spans_cover_the_traced_pass",
            coverage >= 0.95,
            format!("top-level spans cover {:.1} %", coverage * 100.0),
        );
        let path = out_dir().join(format!("trace_{}.json", def.name));
        std::fs::write(&path, run.spans.to_chrome_trace())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} ({} spans)",
            path.display(),
            run.spans.spans().len()
        );
        for (name, self_ns, calls) in run.spans.self_time_by_name().iter().take(12) {
            println!(
                "  self {:>10.3} ms  {calls:>6} x  {name}",
                *self_ns as f64 / 1e6
            );
        }
        m
    } else {
        let m = run.end_to_end();
        let p50 = m.get("op_ms").unwrap_or(0.0);
        let text = format!("{note}\n{:016x}\n{p50:?}\n", run.result_digest());
        std::fs::write(e2e_note_path(def.name), text).map_err(|e| e.to_string())?;
        m
    };

    for (def, value) in metrics.iter() {
        println!("{:<40} {:>18.6} {}", def.name, value, def.unit);
    }
    if !args.trace {
        // Outside the result line, whose untraced form carries the
        // end-to-end set only: what the workload measured of single
        // layers (fig7_apps' fidelity, spec_sweep's dump and resume).
        for (name, value) in &run.layer {
            let unit = metrics::PER_LAYER
                .iter()
                .find(|def| def.name == *name)
                .map_or("", |def| def.unit);
            println!("{name:<40} {value:>18.6} {unit}");
        }
    }
    println!(
        "{:<40} {:>18} of {} attempted_ops",
        "failed_ops",
        run.failed,
        run.attempted()
    );
    println!(
        "samples: {} ops ({} distinct), {} set-ups; result_digest {:016x}",
        run.ops.len(),
        run.per_op().len(),
        run.setups_s.len(),
        run.result_digest()
    );
    for check in &run.checks {
        println!(
            "check {:<28} {}  {}",
            check.name,
            if check.passed { "ok  " } else { "FAIL" },
            check.detail
        );
    }
    let correct = run.failed == 0 && !run.ops.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted(),
        run.failed,
        metrics.to_json()
    );
    Ok(correct)
}

/// Traced against untraced: the result digest must match and the ratio
/// of the two medians is the tracing overhead. Only when the untraced
/// pass of the same workload, seed and budget ran in this checkout.
fn compare_with_untraced(run: &mut Run, m: &mut Metrics, note: &str) {
    let Ok(text) = std::fs::read_to_string(e2e_note_path(run.workload)) else {
        return;
    };
    let mut lines = text.lines();
    if lines.next() != Some(note) {
        return;
    }
    let digest = lines.next().unwrap_or_default();
    let ours = format!("{:016x}", run.result_digest());
    run.check(
        "traced_digest_equals_untraced",
        digest == ours,
        format!("{ours} vs {digest}"),
    );
    let untraced_p50: f64 = lines.next().and_then(|l| l.parse().ok()).unwrap_or(0.0);
    let traced = run.end_to_end().get("op_ms").unwrap_or(0.0);
    if untraced_p50 > 0.0 {
        m.set("bench.trace_overhead_ratio", traced / untraced_p50);
    }
}

// ---------------------------------------------------------------------
// Convenience forms: every workload, each in its own process.
// ---------------------------------------------------------------------

/// One child run's parsed result line.
#[derive(Debug, Clone)]
struct ChildResult {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let value: serde::Value = serde_json::from_str(line).map_err(|e| format!("{e:?}"))?;
    let err = |e: serde::DeError| e.0;
    let serde::Value::Object(rows) =
        serde::field::<serde::Value>(&value, "metrics").map_err(err)?
    else {
        return Err("metrics is not an object".into());
    };
    Ok(ChildResult {
        correct: serde::field(&value, "correct").map_err(err)?,
        failed: serde::field(&value, "failed").map_err(err)?,
        metrics: rows
            .iter()
            .map(|(name, row)| {
                Ok((
                    name.clone(),
                    serde::field(row, "value").map_err(err)?,
                    serde::field(row, "unit").map_err(err)?,
                ))
            })
            .collect::<Result<_, String>>()?,
    })
}

/// Runs one workload in a child process, echoing its report.
fn spawn(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if smoke {
        command.arg("--smoke");
    }
    let output = command
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("{workload}: cannot run child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let result =
        parse_result_line(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() && result.correct {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    Ok(result)
}

/// The manifest plus `--seed` (default 7) and `--seconds` (default the
/// manifest's `run_seconds`) of a convenience form.
fn plan(args: &[String]) -> Result<(Manifest, u64, f64), String> {
    let manifest = Manifest::load(std::path::Path::new("."))?;
    let seed = match flag(args, "--seed") {
        Some(s) => s
            .parse()
            .map_err(|_| "--seed takes an integer".to_string())?,
        None => 7,
    };
    let seconds = match flag(args, "--seconds") {
        Some(s) => s
            .parse()
            .map_err(|_| "--seconds takes a number".to_string())?,
        None => manifest.run_seconds as f64,
    };
    Ok((manifest, seed, seconds))
}

/// Where the numbers came from: tree, host shape, seed and budget.
fn provenance(seed: u64, seconds: f64) -> String {
    let git = Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "\"git\": \"{git}\", \"nproc\": {}, \"seed\": {seed}, \"seconds\": {seconds:?}",
        host_threads()
    )
}

/// Writes a report of the convenience forms to `benchmark/out/<name>`.
fn write_report(name: &str, body: &str) -> Result<(), String> {
    let path = out_dir().join(name);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, body))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("report: {}", path.display());
    Ok(())
}

/// `all` / `layers`: one pass over every workload; the metrics also land
/// in `benchmark/out/all.json` / `layers.json` with their provenance.
fn pass(args: &[String], trace: bool) -> Result<bool, String> {
    let (manifest, seed, seconds) = plan(args)?;
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in &manifest.workloads {
        let result = spawn(workload, seed, seconds, trace, false)?;
        let metrics: Vec<String> = result
            .metrics
            .iter()
            .map(|(name, value, _)| format!("\"{name}\": {value:?}"))
            .collect();
        rows.push(format!("    \"{workload}\": {{{}}}", metrics.join(", ")));
        println!(
            "== {workload}: {} (failed_ops = {})\n",
            if result.correct {
                "correct"
            } else {
                "INCORRECT"
            },
            result.failed
        );
        ok &= result.correct;
    }
    write_report(
        if trace { "layers.json" } else { "all.json" },
        &format!(
            "{{\n  {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            provenance(seed, seconds),
            rows.join(",\n")
        ),
    )?;
    Ok(ok)
}

/// `check smoke`: every workload at 1/50 size, correctness checks only.
fn check_smoke(args: &[String]) -> Result<bool, String> {
    let (manifest, seed, _) = plan(args)?;
    let mut ok = true;
    for workload in &manifest.workloads {
        let result = spawn(workload, seed, 0.2, false, true)?;
        ok &= result.correct;
    }
    println!("check smoke: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

/// One metric's value in a child's result.
fn metric_of(result: &ChildResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or(0.0, |(_, v, _)| *v)
}

/// Seeds per workload in one set of `check repeat`.
const REPEAT_SEEDS: u64 = 10;

/// `check repeat`: the driver's acceptance rule. Two sets of ten runs
/// per workload, each run on another seed; for every end-to-end metric,
/// in each set, the inter-quartile range as a share of the median must
/// stay within a third of the metric's bound, and the second set's
/// median may not be worse than the first's by more than the bound. The
/// sets alternate run by run (A B A B ...), so minute-scale drift of the
/// host lands on both; a single pair of runs differs by up to 10 % on
/// this sandbox and proves nothing.
fn check_repeat(args: &[String]) -> Result<bool, String> {
    let (manifest, seed, seconds) = plan(args)?;
    // sets[set][workload] = that workload's results, one per seed.
    let mut sets = vec![vec![Vec::new(); manifest.workloads.len()]; 2];
    for i in 0..REPEAT_SEEDS {
        for set in &mut sets {
            for (w, workload) in manifest.workloads.iter().enumerate() {
                set[w].push(spawn(workload, seed + i, seconds, false, false)?);
            }
        }
    }
    let mut ok = sets.iter().flatten().flatten().all(|r| r.correct);
    let mut table = Vec::new();
    let mut rows = Vec::new();
    for (w, workload) in manifest.workloads.iter().enumerate() {
        for row in &manifest.end_to_end {
            let values = |set: &[Vec<ChildResult>]| -> Vec<f64> {
                set[w].iter().map(|r| metric_of(r, &row.name)).collect()
            };
            let (first, second) = (values(&sets[0]), values(&sets[1]));
            let (a, b) = (stats::median(&first), stats::median(&second));
            let spread = stats::iqr_share(&first).max(stats::iqr_share(&second));
            let worse = if row.better == "higher" { a - b } else { b - a } / a.abs().max(1e-12);
            let verdict = if spread > row.bound / 3.0 {
                "  UNSTEADY"
            } else if worse > row.bound {
                "  OUT OF BOUND"
            } else {
                ""
            };
            ok &= verdict.is_empty();
            rows.push(format!(
                "    {{\"workload\": \"{workload}\", \"metric\": \"{}\", \"unit\": \"{}\", \
                 \"median_first\": {a:?}, \"median_second\": {b:?}, \"iqr_share\": {spread:?}, \
                 \"bound\": {:?}}}",
                row.name, row.unit, row.bound
            ));
            table.push(format!(
                "{workload:<16} {:<22} {a:>13.5} {b:>13.5} {:<4} worse {:>6.2}% of {:>2.0}%  spread {:>5.2}% of {:>5.2}%{verdict}",
                row.name,
                row.unit,
                worse * 100.0,
                row.bound * 100.0,
                spread * 100.0,
                row.bound / 3.0 * 100.0,
            ));
        }
    }
    println!("{}", table.join("\n"));
    write_report(
        "repeat.json",
        &format!(
            "{{\n  {},\n  \"seeds_per_set\": {REPEAT_SEEDS},\n  \"rows\": [\n{}\n  ]\n}}\n",
            provenance(seed, seconds),
            rows.join(",\n")
        ),
    )?;
    println!("check repeat: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => pass(&args, false),
        Some("layers") => pass(&args, true),
        Some("check") => match args.get(1).map(String::as_str) {
            Some("smoke") => check_smoke(&args),
            Some("repeat") => check_repeat(&args),
            _ => Err("usage: check smoke|repeat [--seed N] [--seconds S]".into()),
        },
        _ => parse_args(&args).and_then(|args| run_workload(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("adele_perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse_in_any_order() {
        let args =
            parse_args(&argv("--trace 1 --seed 9 --workload fig4_pm --seconds 2.5")).unwrap();
        assert_eq!(
            args,
            Args {
                workload: "fig4_pm".into(),
                seed: 9,
                seconds: 2.5,
                trace: true,
                smoke: false
            }
        );
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn result_line_round_trips() {
        let mut metrics = Metrics::new(metrics::END_TO_END);
        metrics.set("setup_s", 0.125);
        let line = format!(
            "{{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {}}}",
            metrics.to_json()
        );
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!(parsed.failed, 0);
        assert_eq!(parsed.metrics.len(), metrics::END_TO_END.len());
        assert_eq!(parsed.metrics[0], ("setup_s".into(), 0.125, "s".into()));
    }
}
