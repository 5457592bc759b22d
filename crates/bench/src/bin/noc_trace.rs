//! The flight-recorder command line: record, verify, self-check and
//! export golden scenario traces. (The recorder's hot-path overhead is a
//! benchmark metric: `noc_obs.armed_tracer_ratio` /
//! `bench.trace_overhead_ratio` from `benchmark/run.sh layers`.)
//!
//! * `noc_trace record <spec.json> [-o FILE] [--period N] [--shards N]` —
//!   run the spec with the tracer attached and write the JSONL journal
//!   (stdout by default).
//! * `noc_trace verify <golden.jsonl> [--shards N]` — re-run the spec
//!   embedded in the golden journal and compare record for record on the
//!   deterministic fields. `--shards` reruns at a different shard count;
//!   the deterministic fields must still match bit for bit. Exits 1 with
//!   `trace record N: ...` on the first divergence.
//! * `noc_trace selfcheck [DIR] [--shards 1,8]` — for every spec in the
//!   suite directory (default `specs/`), record a fresh trace at each
//!   shard count and verify it against itself. `ADELE_QUICK=1` shrinks
//!   windows exactly like `run_specs`.
//! * `noc_trace export <journal.jsonl> --prometheus|--perfetto [-o FILE]`
//!   — render a recorded journal for an external consumer: the Prometheus
//!   text exposition format (histograms, summary gauges, run info), or a
//!   Chrome trace-event JSON that Perfetto / `chrome://tracing` loads
//!   directly (phase spans per window, counter tracks, event instants).
//!   Prometheus output is validated line by line before it is written.

use adele_bench::{quick_mode, quick_shrink};
use noc_exp::{atomic_write, load_dir, load_spec, record_trace, trace_period, verify_trace};
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: noc_trace record <spec.json> [-o FILE] [--period N] [--shards N]\n       \
         noc_trace verify <golden.jsonl> [--shards N]\n       \
         noc_trace selfcheck [DIR] [--shards 1,8]\n       \
         noc_trace export <journal.jsonl> --prometheus|--perfetto [-o FILE]"
    );
    std::process::exit(2);
}

/// The value following `flag`, parsed, or `None` when the flag is absent.
/// A present flag with a missing/bad value is a usage error.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let at = args.iter().position(|a| a == flag)?;
    match args.get(at + 1).and_then(|s| s.parse().ok()) {
        Some(v) => Some(v),
        None => {
            eprintln!("noc_trace: {flag} needs a value");
            usage();
        }
    }
}

/// First positional (non-flag, non-flag-value) argument.
fn positional(args: &[String]) -> Option<&str> {
    let mut skip = false;
    for arg in args {
        if skip {
            skip = false;
            continue;
        }
        if arg.starts_with("--") || arg == "-o" {
            skip = true;
            continue;
        }
        return Some(arg);
    }
    None
}

fn cmd_record(args: &[String]) {
    let Some(path) = positional(args) else {
        eprintln!("noc_trace: record needs a spec file");
        usage();
    };
    let mut scenario = match load_spec(Path::new(path)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("noc_trace: {e}");
            std::process::exit(1);
        }
    };
    if let Some(shards) = flag_value::<usize>(args, "--shards") {
        scenario.shards = shards;
    }
    let period = flag_value::<u64>(args, "--period").unwrap_or_else(|| trace_period(&scenario));
    let journal = record_trace(&scenario, period);
    match flag_value::<String>(args, "-o") {
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

fn cmd_verify(args: &[String]) {
    let Some(path) = positional(args) else {
        eprintln!("noc_trace: verify needs a golden journal");
        usage();
    };
    let golden = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("noc_trace: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let shards = flag_value::<usize>(args, "--shards");
    match verify_trace(&golden, shards) {
        Ok(report) => println!(
            "{path}: OK — {} records match for {:?} (replayed at {} shard{})",
            report.records,
            report.name,
            report.shards,
            if report.shards == 1 { "" } else { "s" },
        ),
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_export(args: &[String]) {
    let Some(path) = positional(args) else {
        eprintln!("noc_trace: export needs a journal file");
        usage();
    };
    let prometheus = args.iter().any(|a| a == "--prometheus");
    let perfetto = args.iter().any(|a| a == "--perfetto");
    if prometheus == perfetto {
        eprintln!("noc_trace: export needs exactly one of --prometheus / --perfetto");
        usage();
    }
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
    match flag_value::<String>(args, "-o") {
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

/// Parses `--shards 1,8` into a list (default `[1]`).
fn shard_list(args: &[String]) -> Vec<usize> {
    let Some(list) = flag_value::<String>(args, "--shards") else {
        return vec![1];
    };
    list.split(',')
        .map(|s| match s.trim().parse::<usize>() {
            Ok(k) => k,
            Err(_) => {
                eprintln!("noc_trace: bad shard count {s:?} in --shards {list}");
                std::process::exit(2);
            }
        })
        .collect()
}

fn cmd_selfcheck(args: &[String]) {
    let dir = positional(args).unwrap_or("specs");
    let shard_counts = shard_list(args);
    let suite = match load_dir(Path::new(dir)) {
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
        for &shards in &shard_counts {
            scenario.shards = shards;
            let journal = record_trace(&scenario, trace_period(&scenario));
            match verify_trace(&journal, None) {
                Ok(report) => println!("{stem} k={shards}: OK ({} records)", report.records),
                Err(e) => {
                    eprintln!("{stem} k={shards}: FAIL — {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("selfcheck") => cmd_selfcheck(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        _ => usage(),
    }
}
