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
//!   fields. Exits 1 with `trace record N: ...` on the first divergence.
//! * `noc_trace selfcheck [DIR]` — for every spec in the suite directory
//!   (default `specs/`), record a fresh trace and verify it against
//!   itself. `ADELE_QUICK=1` shrinks windows exactly like `run_specs`.
//! * `noc_trace export <journal.jsonl> --prometheus|--perfetto [-o FILE]`
//!   — render a recorded journal for an external consumer: the Prometheus
//!   text exposition format (histograms, summary gauges, run info), or a
//!   Chrome trace-event JSON that Perfetto / `chrome://tracing` loads
//!   directly (phase spans per window, counter tracks, event instants).
//!   Prometheus output is validated line by line before it is written.

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

fn cmd_record(mut args: Args) {
    let period: Option<u64> = args.value("--period");
    if period == Some(0) {
        args.die("bad value 0 for --period (at least 1 cycle)");
    }
    let out: Option<String> = args.value("-o");
    let path = &input_file(args, "record needs a spec file");
    let scenario = match load_spec(Path::new(path)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("noc_trace: {e}");
            std::process::exit(1);
        }
    };
    let period = period.unwrap_or_else(|| trace_period(&scenario));
    let journal = record_trace(&scenario, period);
    match out {
        Some(out) => {
            if let Err(e) = atomic_write(Path::new(&out), &journal) {
                eprintln!("noc_trace: cannot write {out}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "recorded {} ({} records, period {period})",
                out,
                journal.lines().count()
            );
        }
        None => print!("{journal}"),
    }
}

fn cmd_verify(args: Args) {
    let path = &input_file(args, "verify needs a golden journal");
    let golden = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("noc_trace: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match verify_trace(&golden) {
        Ok(report) => println!(
            "{path}: OK — {} records match for {:?}",
            report.records, report.name,
        ),
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_export(mut args: Args) {
    let prometheus = args.flag("--prometheus");
    if prometheus == args.flag("--perfetto") {
        args.die("export needs exactly one of --prometheus / --perfetto");
    }
    let out: Option<String> = args.value("-o");
    let path = &input_file(args, "export needs a journal file");
    let journal = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("noc_trace: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let records = match noc_obs::parse_journal(&journal) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };
    let (rendered, what) = if prometheus {
        let text = noc_obs::export::prometheus(&records);
        // The validator is the same one CI runs: every exposition line
        // must parse as `name{labels} value` with a finite value.
        if let Err(e) = noc_obs::export::validate_prometheus(&text) {
            eprintln!("noc_trace: generated Prometheus text is malformed: {e}");
            std::process::exit(1);
        }
        (text, "prometheus text")
    } else {
        (
            noc_obs::export::perfetto(&records),
            "perfetto trace-event JSON",
        )
    };
    match out {
        Some(out) => {
            if let Err(e) = atomic_write(Path::new(&out), &rendered) {
                eprintln!("noc_trace: cannot write {out}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "exported {out} ({what}, {} lines from {} records)",
                rendered.lines().count(),
                records.len()
            );
        }
        None => print!("{rendered}"),
    }
}

fn cmd_selfcheck(mut args: Args) {
    let dir = args.positional().unwrap_or_else(|| "specs".to_string());
    args.finish();
    let suite = match load_dir(Path::new(&dir)) {
        Ok(suite) => suite,
        Err(e) => {
            eprintln!("noc_trace: {e}");
            std::process::exit(1);
        }
    };
    let mut failed = false;
    for (stem, scenario) in suite {
        let mut scenario = scenario;
        if quick_mode() {
            quick_shrink(&mut scenario);
        }
        let journal = record_trace(&scenario, trace_period(&scenario));
        match verify_trace(&journal) {
            Ok(report) => println!("{stem}: OK ({} records)", report.records),
            Err(e) => {
                eprintln!("{stem}: FAIL — {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let mut args = Args::from_env("noc_trace");
    match args.positional().as_deref() {
        Some("record") => cmd_record(args),
        Some("verify") => cmd_verify(args),
        Some("selfcheck") => cmd_selfcheck(args),
        Some("export") => cmd_export(args),
        _ => usage(),
    }
}
