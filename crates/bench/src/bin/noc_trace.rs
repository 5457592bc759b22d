//! The flight-recorder command line: record, verify, self-check and
//! export golden scenario traces. (The recorder's hot-path overhead is a
//! benchmark metric: `noc_obs.armed_tracer_ratio` /
//! `bench.trace_overhead_ratio` from `benchmark/run.sh layers`.)
//!
//! * `noc_trace record <spec.json> [-o FILE] [--period N]` — run the spec
//!   with the tracer attached and write the JSONL journal (stdout by
//!   default).
//! * `noc_trace verify <golden.jsonl>` — re-run the spec embedded in the
//!   golden journal and compare record for record on the deterministic
//!   fields. Exits 1 with `trace record N: ...` on the first divergence,
//!   a damaged header or a replay that fails.
//! * `noc_trace selfcheck [DIR]` — for every spec in the suite directory
//!   (default `specs/`), record a fresh trace and verify it against
//!   itself. `ADELE_QUICK=1` shrinks windows exactly like `run_specs`.
//! * `noc_trace export <journal.jsonl> --prometheus|--perfetto [-o FILE]`
//!   — render a recorded journal for an external consumer: the Prometheus
//!   text exposition format (histograms, summary gauges, run info), or a
//!   Chrome trace-event JSON that Perfetto / `chrome://tracing` loads
//!   directly (phase spans per window, counter tracks, event instants).
//!   Prometheus output is validated line by line before it is written.
//!
//! A usage error exits 2; a file that cannot be read, parsed or written,
//! a spec whose run fails (a deadlock), or a trace that does not verify,
//! exits 1 naming it.

use adele_bench::{quick_mode, quick_shrink, Args};
use noc_exp::{atomic_write, load_dir, load_spec, record_trace, trace_period, verify_trace};
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: noc_trace record <spec.json> [-o FILE] [--period N]\n       \
         noc_trace verify <golden.jsonl>\n       \
         noc_trace selfcheck [DIR]\n       \
         noc_trace export <journal.jsonl> --prometheus|--perfetto [-o FILE]"
    );
    std::process::exit(2);
}

/// The input file every command but `selfcheck` takes last; its absence
/// is the usage error `missing`.
fn input_file(mut args: Args, missing: &str) -> String {
    let Some(path) = args.positional() else {
        args.die(missing);
    };
    args.finish();
    path
}

/// A command's outcome: `Err` is the failure, named, for stderr.
type Outcome = Result<(), String>;

fn cmd_record(mut args: Args) -> Outcome {
    let period: Option<u64> = args.value("--period");
    if period == Some(0) {
        args.die("bad value 0 for --period (at least 1 cycle)");
    }
    let out: Option<String> = args.value("-o");
    let path = &input_file(args, "record needs a spec file");
    let scenario = load_spec(Path::new(path)).map_err(|e| format!("noc_trace: {e}"))?;
    let period = period.unwrap_or_else(|| trace_period(&scenario));
    let journal = record_trace(&scenario, period).map_err(|e| format!("noc_trace: {path}: {e}"))?;
    match out {
        Some(out) => {
            atomic_write(Path::new(&out), &journal)
                .map_err(|e| format!("noc_trace: cannot write {out}: {e}"))?;
            eprintln!(
                "recorded {} ({} records, period {period})",
                out,
                journal.lines().count()
            );
        }
        None => print!("{journal}"),
    }
    Ok(())
}

/// The text of the file at `path`.
fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("noc_trace: cannot read {path}: {e}"))
}

fn cmd_verify(args: Args) -> Outcome {
    let path = &input_file(args, "verify needs a golden journal");
    let report = verify_trace(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: OK — {} records match for {:?}",
        report.records, report.name,
    );
    Ok(())
}

fn cmd_export(mut args: Args) -> Outcome {
    let prometheus = args.flag("--prometheus");
    if prometheus == args.flag("--perfetto") {
        args.die("export needs exactly one of --prometheus / --perfetto");
    }
    let out: Option<String> = args.value("-o");
    let path = &input_file(args, "export needs a journal file");
    let records = noc_obs::parse_journal(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    let (rendered, what) = if prometheus {
        let text = noc_obs::export::prometheus(&records);
        // The validator is the same one CI runs: every exposition line
        // must parse as `name{labels} value` with a finite value.
        noc_obs::export::validate_prometheus(&text)
            .map_err(|e| format!("noc_trace: generated Prometheus text is malformed: {e}"))?;
        (text, "prometheus text")
    } else {
        (
            noc_obs::export::perfetto(&records),
            "perfetto trace-event JSON",
        )
    };
    match out {
        Some(out) => {
            atomic_write(Path::new(&out), &rendered)
                .map_err(|e| format!("noc_trace: cannot write {out}: {e}"))?;
            eprintln!(
                "exported {out} ({what}, {} lines from {} records)",
                rendered.lines().count(),
                records.len()
            );
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

fn cmd_selfcheck(mut args: Args) -> Outcome {
    let dir = args.positional().unwrap_or_else(|| "specs".to_string());
    args.finish();
    let suite = load_dir(Path::new(&dir)).map_err(|e| format!("noc_trace: {e}"))?;
    let mut failed = 0;
    for (stem, scenario) in suite {
        let mut scenario = scenario;
        if quick_mode() {
            quick_shrink(&mut scenario);
        }
        let checked = record_trace(&scenario, trace_period(&scenario))
            .map_err(|e| e.to_string())
            .and_then(|journal| verify_trace(&journal).map_err(|e| e.to_string()));
        match checked {
            Ok(report) => println!("{stem}: OK ({} records)", report.records),
            Err(e) => {
                eprintln!("{stem}: FAIL — {e}");
                failed += 1;
            }
        }
    }
    match failed {
        0 => Ok(()),
        n => Err(format!("noc_trace: {n} spec(s) failed selfcheck")),
    }
}

fn main() {
    let mut args = Args::from_env("noc_trace");
    let outcome = match args.positional().as_deref() {
        Some("record") => cmd_record(args),
        Some("verify") => cmd_verify(args),
        Some("selfcheck") => cmd_selfcheck(args),
        Some("export") => cmd_export(args),
        _ => usage(),
    };
    if let Err(why) = outcome {
        eprintln!("{why}");
        std::process::exit(1);
    }
}
