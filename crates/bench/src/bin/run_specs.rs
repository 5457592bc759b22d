//! Executes a directory of scenario spec files on the parallel runner.
//!
//! Every `*.json` in the directory is parsed (and cross-validated) as a
//! [`noc_exp::Scenario`], the whole suite runs on the `noc_exp` worker
//! pool — bit-identical to running each file sequentially — and a results
//! table plus `results/specs.json` come out.
//!
//! Usage: `run_specs [DIR] [--trace FILE] [--hud [--quiet]] [--resume]
//! [--retries N] [--deadline-ms N]` runs the suite in `DIR` (default
//! `specs/`). `--trace FILE` streams per-point `progress` records (trace
//! schema) into a JSONL journal while the pool runs. `--hud` renders the
//! same progress stream as a live terminal panel on stderr (throughput,
//! ETA, per-point latency percentiles, worklist occupancy); `--quiet`
//! degrades it to one plain line per completed point for CI logs.
//!
//! The suite runs on the **supervised** pool: every point is isolated (a
//! panic or a structured `SimError` fails that point, never the batch),
//! `--retries N` grants extra attempts for environmental faults, and
//! `--deadline-ms N` bounds each attempt's wall clock. Completed points
//! are appended (one flushed line each) to `results/specs.ledger.jsonl`;
//! `--resume` restores ledger-complete points instead of re-running them,
//! so a `kill -9` mid-sweep costs only the in-flight points — and the
//! merged `results/specs.json` is byte-identical to an uninterrupted run.
//! Without `--resume` the ledger starts fresh. Fault injection for chaos
//! runs comes from the `NOC_CHAOS` environment grammar (see
//! `noc_exp::chaos`). Any failed point — or a `--trace` journal that
//! could not be written in full — makes the exit code nonzero, after
//! every other point has completed. An unknown flag or a bad value exits
//! 2 before any file is touched.
//!
//! The checked-in `specs/*.json` files are their own source: they are
//! edited by hand, and `tests/scenario_persistence.rs` checks that the
//! suite parses, validates and keeps one spec per scenario family.
//!
//! `ADELE_QUICK=1` shrinks every scenario's windows for smoke runs (event
//! cycles are left untouched; the checked-in suite schedules its events
//! early enough to land inside the shrunken windows too).

use adele_bench::{bench_meta, f1, f2, quick_mode, quick_shrink, table, Args};
use noc_exp::{
    atomic_write, load_dir, progress_record, results_to_json_with_meta, run_batch_supervised,
    spec_hash, BatchEvent, ChaosSpec, Ledger, Scenario, Supervision,
};
use noc_obs::Hud;
use serde::Serialize;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

fn main() {
    if let Err(why) = run() {
        eprintln!("run_specs: {why}");
        std::process::exit(1);
    }
}

/// The command line's run; `Err` is why the exit code must be nonzero.
fn run() -> Result<(), String> {
    let mut args = Args::from_env("run_specs");
    let retries: Option<u32> = args.value("--retries");
    let deadline_ms: Option<u64> = args.value("--deadline-ms");
    let trace_path: Option<String> = args.value("--trace");
    let hud_on = args.flag("--hud");
    let quiet = args.flag("--quiet");
    let resume = args.flag("--resume");
    let dir = args.positional().unwrap_or_else(|| "specs".to_string());
    args.finish();

    let suite = load_dir(Path::new(&dir)).map_err(|e| e.to_string())?;

    let scenarios: Vec<Scenario> = suite
        .iter()
        .map(|(_, scenario)| {
            let mut scenario = scenario.clone();
            if quick_mode() {
                quick_shrink(&mut scenario);
            }
            scenario
        })
        .collect();
    // With `--trace`, stream per-point progress records (trace schema)
    // into a journal while the pool runs; without it the closure is a
    // no-op and the batch behaves exactly as before.
    // The journal latches its first failed write: reported once after
    // the batch, and the exit code says so.
    let progress = trace_path
        .as_ref()
        .map(|path| {
            let writer = noc_sim::TraceWriter::to_file(Path::new(path));
            writer.map_err(|e| format!("cannot open {path}: {e}"))
        })
        .transpose()?
        .map(Mutex::new);
    // The supervision policy: isolation always; retries/deadline from
    // the flags; fault injection from the NOC_CHAOS environment.
    let mut supervision = Supervision::new();
    if let Some(retries) = retries {
        supervision = supervision.with_retries(retries);
    }
    if let Some(ms) = deadline_ms {
        supervision = supervision.with_deadline(Duration::from_millis(ms));
    }
    let chaos = ChaosSpec::from_env();
    if let Some(chaos) = &chaos {
        eprintln!(
            "chaos armed: seed={} panic={} deadlock={} delay={}x{}ms torn={}",
            chaos.seed,
            chaos.panic_prob,
            chaos.deadlock_prob,
            chaos.delay_prob,
            chaos.delay_ms,
            chaos.torn_files,
        );
        supervision = supervision.with_chaos(chaos.clone());
    }

    // The completion ledger: every finished point is flushed to it, and
    // --resume restores completed points instead of re-running them.
    let ledger_path = adele_bench::results_dir().join("specs.ledger.jsonl");
    if !resume {
        let _ = std::fs::remove_file(&ledger_path);
    }
    let ledger = Ledger::open(&ledger_path)
        .map_err(|e| format!("cannot open ledger {}: {e}", ledger_path.display()))?;
    if resume {
        eprintln!(
            "resuming: {} completed point(s) in {}{}",
            ledger.len(),
            ledger_path.display(),
            if ledger.torn_lines() > 0 {
                " (torn tail dropped)"
            } else {
                ""
            },
        );
    }
    let recorder =
        Ledger::open(&ledger_path).map_err(|e| format!("cannot reopen ledger for appends: {e}"))?;
    let recorder = Mutex::new(recorder);

    // The HUD eats the same progress stream the journal gets; it owns no
    // I/O, so the closure prints whatever redraw block (or quiet line) it
    // returns. stderr keeps the results table on stdout machine-clean.
    let hud = hud_on.then(|| Mutex::new(Hud::new(scenarios.len(), quiet)));
    let hashes: Vec<u64> = scenarios.iter().map(spec_hash).collect();
    let outcomes = run_batch_supervised(
        &scenarios,
        noc_exp::default_threads(),
        &supervision,
        resume.then_some(&ledger),
        |event| {
            if let BatchEvent::Finished {
                index,
                outcome: noc_exp::PointOutcome::Ok(result),
                ..
            } = event
            {
                let mut recorder = recorder.lock().expect("ledger lock");
                if let Err(e) = recorder.record(hashes[*index], result) {
                    eprintln!("run_specs: ledger append failed: {e}");
                }
            }
            let record = progress_record(event);
            if let Some(journal) = &progress {
                journal
                    .lock()
                    .expect("progress journal lock")
                    .write(&record);
            }
            if let Some(hud) = &hud {
                if let Some(text) = hud.lock().expect("hud lock").on_record(&record) {
                    eprintln!("{text}");
                }
            }
        },
    );
    let mut journal_failed = false;
    if let Some(journal) = progress {
        let writer = journal.into_inner().expect("progress journal lock");
        let path = trace_path.as_deref().unwrap_or_default();
        match writer.finish() {
            Ok(records) => eprintln!("progress journal: {records} records in {path}"),
            Err(e) => {
                eprintln!("run_specs: progress journal {path} is incomplete: {e}");
                journal_failed = true;
            }
        }
    }
    // Chaos's torn-file fault: wound the ledger's tail the way a hard
    // kill mid-append would, proving the next --resume shrugs it off.
    if chaos.as_ref().is_some_and(|c| c.torn_files) {
        use std::io::Write;
        if let Ok(mut file) = std::fs::OpenOptions::new().append(true).open(&ledger_path) {
            let _ = file.write_all(b"{\"hash\":\"torn-by-chaos\",\"name\":\"cut");
            eprintln!("chaos: tore the ledger tail");
        }
    }

    let results: Vec<&noc_exp::ScenarioResult> =
        outcomes.iter().filter_map(|o| o.result()).collect();
    let rendered = table(
        &[
            "spec", "policy", "workload", "inj", "dlv", "lat", "nJ/flit", "done",
        ],
        &results
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.summary.policy.clone(),
                    r.summary.workload.clone(),
                    r.summary.injected_packets.to_string(),
                    r.summary.delivered_packets.to_string(),
                    f1(r.summary.avg_latency),
                    f2(r.summary.energy_per_flit_nj),
                    r.summary.completed.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print!("{rendered}");
    let failures: Vec<(usize, &noc_exp::PointFailure)> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.failure().map(|f| (i, f)))
        .collect();
    for (index, failure) in &failures {
        eprintln!(
            "run_specs: point {index} ({}) failed after {} attempt(s): {}",
            scenarios[*index].name, failure.attempts, failure.error,
        );
    }
    // Stamp the dump with the provenance block: which tree produced the
    // numbers, on what machine shape, over which streams.
    let streams: Vec<&str> = {
        let mut s: Vec<&str> = scenarios
            .iter()
            .map(|sc| sc.workload.stream.as_str())
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let meta = bench_meta(&streams).to_value();
    let dir = adele_bench::results_dir();
    // Only a fully successful suite owns results/specs.json: a partial
    // dump would be mistaken for a complete one. The completed points
    // are all in the ledger either way, so a later --resume finishes the
    // job and writes the (byte-identical) merged dump.
    if !failures.is_empty() {
        return Err(format!(
            "{} of {} point(s) failed; every other point completed (see ledger)",
            failures.len(),
            outcomes.len(),
        ));
    }
    let owned: Vec<noc_exp::ScenarioResult> = results.iter().map(|&r| r.clone()).collect();
    let json = results_to_json_with_meta(&owned, Some(meta));
    atomic_write(&dir.join("specs.json"), &json)
        .map_err(|e| format!("cannot write results: {e}"))?;
    if results.iter().any(|r| r.summary.delivered_packets == 0) {
        return Err("a spec delivered no packets".to_string());
    }
    if journal_failed {
        return Err("the progress journal is incomplete".to_string());
    }
    Ok(())
}
