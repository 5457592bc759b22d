//! Executes a directory of scenario spec files on the parallel runner.
//!
//! Every `*.json` in the directory is parsed (and cross-validated) as a
//! [`noc_exp::Scenario`], the whole suite runs on the `noc_exp` worker
//! pool — bit-identical to running each file sequentially — and a results
//! table plus `results/specs.json` come out.
//!
//! Usage:
//!
//! * `run_specs [DIR] [--trace FILE] [--hud [--quiet]] [--resume]
//!   [--retries N] [--deadline-ms N]` —
//!   run the suite in `DIR` (default `specs/`). `--trace FILE` streams
//!   per-point `progress` records (trace schema) into a JSONL journal
//!   while the pool runs. `--hud` renders the same progress stream as a
//!   live terminal panel on stderr (throughput, ETA, per-point latency
//!   percentiles, worklist occupancy); `--quiet` degrades it to one plain
//!   line per completed point for CI logs.
//!
//!   The suite runs on the **supervised** pool: every point is isolated
//!   (a panic or a structured `SimError` fails that point, never the
//!   batch), `--retries N` grants extra attempts for environmental
//!   faults, and `--deadline-ms N` bounds each attempt's wall clock.
//!   Completed points are appended (one flushed line each) to
//!   `results/specs.ledger.jsonl`; `--resume` restores ledger-complete
//!   points instead of re-running them, so a `kill -9` mid-sweep costs
//!   only the in-flight points — and the merged `results/specs.json` is
//!   byte-identical to an uninterrupted run. Without `--resume` the
//!   ledger starts fresh. Fault injection for chaos runs comes from the
//!   `NOC_CHAOS` environment grammar (see `noc_exp::chaos`). Any failed
//!   point — or a `--trace` journal that could not be written in full —
//!   makes the exit code nonzero, after every other point has completed.
//!   An unknown flag or a bad value exits 2 before any file is touched.
//! * `run_specs --emit [DIR]` — (re)write the canonical checked-in suite
//!   (baseline, baseline-v2, elevator-fail, hotspot-shift,
//!   measured-energy) into `DIR`, plus the golden traces
//!   `tests/golden/trace_small.jsonl` (schema v1) and
//!   `tests/golden/trace_small_v2.jsonl` (schema v2, histogram records
//!   and percentile summary) that `noc_trace verify` replays.
//!
//! `ADELE_QUICK=1` shrinks every scenario's windows for smoke runs (event
//! cycles are left untouched; the canonical suite schedules its events
//! early enough to land inside the shrunken windows too).

use adele_bench::{bench_meta, f1, f2, quick_mode, quick_shrink, table, Args};
use noc_exp::{
    atomic_write, load_dir, progress_record, record_trace_at, results_to_json_with_meta,
    run_batch_supervised, spec_hash, trace_period, BatchEvent, ChaosSpec, Event, Ledger, Scenario,
    SelectorSpec, Supervision, WorkloadKind, WorkloadSpec,
};
use noc_obs::Hud;
use noc_topology::placement::Placement;
use noc_topology::{Coord, ElevatorId};
use serde::Serialize;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

/// The canonical checked-in suite: one spec per scenario family the
/// engine supports (steady baseline, the same baseline on the batched
/// `v2` workload stream, mid-run fault, moving hotspot, telemetry-driven
/// selection).
fn canonical_suite() -> Vec<(&'static str, Scenario)> {
    let phases = |s: Scenario| s.with_phases(1_000, 4_000, 20_000);
    vec![
        (
            "baseline",
            phases(Scenario::from_placement("baseline", Placement::Ps1))
                .with_workload(WorkloadKind::Uniform { rate: 0.003 })
                .with_selector(SelectorSpec::adele())
                .with_seed(101),
        ),
        (
            "baseline_v2",
            phases(Scenario::from_placement("baseline_v2", Placement::Ps1))
                .with_workload(WorkloadSpec::v2(WorkloadKind::Uniform { rate: 0.003 }))
                .with_selector(SelectorSpec::adele())
                .with_seed(101),
        ),
        (
            "elevator_fail",
            phases(Scenario::from_placement("elevator_fail", Placement::Ps1))
                .with_workload(WorkloadKind::Uniform { rate: 0.003 })
                .with_selector(SelectorSpec::adele())
                .with_event(Event::ElevatorFail {
                    cycle: 1_200,
                    elevator: ElevatorId(0),
                })
                .with_event(Event::ElevatorRecover {
                    cycle: 2_400,
                    elevator: ElevatorId(0),
                })
                .with_seed(102),
        ),
        (
            "hotspot_shift",
            phases(Scenario::from_placement("hotspot_shift", Placement::Ps1))
                .with_workload(WorkloadKind::Hotspot {
                    rate: 0.002,
                    hotspots: vec![Coord::new(0, 0, 0)],
                    fraction: 0.3,
                })
                .with_selector(SelectorSpec::adele())
                .with_event(Event::HotspotShift {
                    cycle: 1_500,
                    hotspots: vec![Coord::new(3, 3, 3)],
                    fraction: 0.3,
                })
                .with_seed(103),
        ),
        (
            "measured_energy",
            phases(Scenario::from_placement("measured_energy", Placement::Ps1))
                .with_workload(WorkloadKind::Uniform { rate: 0.002 })
                .with_selector(SelectorSpec::adele_measured_energy())
                .with_seed(104),
        ),
    ]
}

/// The scenario behind `tests/golden/trace_small.jsonl`: deliberately
/// small (seconds to replay, a few hundred journal lines) but exercising
/// the batched `v2` stream, mid-run fail/recover events and a short
/// window period — so the golden trace covers every record type the
/// schema defines.
fn golden_trace_scenario() -> Scenario {
    Scenario::from_placement("golden_trace_small", Placement::Ps1)
        .with_phases(300, 1_200, 8_000)
        .with_workload(WorkloadSpec::v2(WorkloadKind::Uniform { rate: 0.003 }))
        .with_selector(SelectorSpec::adele())
        .with_event(Event::ElevatorFail {
            cycle: 500,
            elevator: ElevatorId(0),
        })
        .with_event(Event::ElevatorRecover {
            cycle: 1_000,
            elevator: ElevatorId(0),
        })
        .with_trace(200)
        .with_seed(7)
}

fn emit(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create spec dir");
    for (name, scenario) in canonical_suite() {
        let path = dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(&scenario).expect("scenarios encode");
        atomic_write(&path, &(json + "\n")).expect("write spec");
        println!("wrote {}", path.display());
    }
    // The checked-in golden traces `noc_trace verify` and CI replay
    // against: the same scenario recorded at schema v1 (exercising the
    // reader's version negotiation) and at the current v2 (histogram
    // records, percentile summary). Re-emitting is only needed when the
    // engine's deterministic behaviour changes intentionally — exactly
    // like the spec files.
    let scenario = golden_trace_scenario();
    let golden = adele_bench::results_dir()
        .parent()
        .map(|root| root.join("tests/golden"))
        .expect("results dir has a parent");
    std::fs::create_dir_all(&golden).expect("create golden dir");
    for (file, schema) in [("trace_small.jsonl", 1), ("trace_small_v2.jsonl", 2)] {
        let journal = record_trace_at(&scenario, trace_period(&scenario), schema);
        let path = golden.join(file);
        atomic_write(&path, &journal).expect("write golden trace");
        println!("wrote {}", path.display());
    }
}

fn main() {
    if let Err(why) = run() {
        eprintln!("run_specs: {why}");
        std::process::exit(1);
    }
}

/// The command line's run; `Err` is why the exit code must be nonzero.
fn run() -> Result<(), String> {
    let mut args = Args::from_env("run_specs");
    if args.flag("--emit") {
        let dir = args.positional().unwrap_or_else(|| "specs".to_string());
        args.finish();
        emit(Path::new(&dir));
        return Ok(());
    }
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
    // The journal latches its first failed write (as `noc_sim::Tracer`
    // does): reported once after the batch, and the exit code says so.
    let progress = trace_path
        .as_ref()
        .map(|path| {
            let writer = noc_sim::TraceWriter::to_file(Path::new(path));
            let writer = writer.map_err(|e| format!("cannot open {path}: {e}"))?;
            Ok::<_, String>(Mutex::new((writer, None::<std::io::Error>)))
        })
        .transpose()?;
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
                let (writer, error) = &mut *journal.lock().expect("progress journal lock");
                if error.is_none() {
                    *error = writer.write(&record).err();
                }
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
        let (writer, error) = journal.into_inner().expect("progress journal lock");
        let path = trace_path.as_deref().unwrap_or_default();
        match error.map_or_else(|| writer.finish(), Err) {
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
