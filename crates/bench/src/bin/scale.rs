//! Scaling study beyond the paper: cycles/second and peak RSS on
//! 8×8×4 → 16×16×8 → 32×32×8 meshes at low and moderate injection, on
//! either workload stream.
//!
//! The paper stops at PM (8×8×4); this binary measures where the cycle
//! loop stops scaling. Each mesh gets a regular elevator grid (columns
//! every 4 routers), Elevator-First selection and uniform traffic, and is
//! driven for a fixed cycle budget after a warm-up; the wall-clock
//! cycles/second and the process peak RSS are reported per point.
//!
//! Usage: `scale [--stream v1|v2|both] [--hud [--quiet]] [--resume]`
//! (`ADELE_QUICK=1` shrinks the cycle budget; the default measures
//! **both** streams so the batched-injection speedup is recorded next to
//! the bit-stable baseline; the per-phase split of a cycle is the repo
//! benchmark's `noc_sim.*_ns_per_cycle` rows). `--hud` renders a live
//! progress panel on stderr between points (throughput, ETA, the last
//! point's latency percentiles); `--quiet` degrades it to one line per
//! point. Results land in `results/scale.json` under a `points` key,
//! stamped with the `meta` provenance block (git tree, host shape,
//! streams).
//!
//! Every completed point is appended to `results/scale.ledger.jsonl`
//! (a `noc_exp::Ledger` — the crash-safety contract of the `run_specs`
//! spec ledger — keyed by the point's grid coordinates + cycle budget). `--resume` restores ledger-complete points instead of
//! re-measuring them, so a killed study finishes from where it died;
//! without `--resume` the ledger is started fresh.

use adele::online::ElevatorFirstSelector;
use adele_bench::{bench_meta, dump_json, f1, pillar_grid, quick_mode, table, Args};
use noc_exp::{Ledger, StreamVersion, WorkloadKind, WorkloadSpec};
use noc_obs::{Hud, Record};
use noc_sim::{SimConfig, SimError, Simulator};
use noc_topology::{ElevatorSet, Mesh3d};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One measured point of the study.
#[derive(Clone, Serialize, Deserialize)]
struct ScalePoint {
    mesh: String,
    nodes: usize,
    pillars: usize,
    rate: f64,
    stream: String,
    cycles: u64,
    wall_seconds: f64,
    cycles_per_second: f64,
    injected_packets: u64,
    peak_rss_kb: Option<u64>,
    /// Mean end-to-end packet latency over the measured window.
    avg_latency: f64,
    /// Median end-to-end latency, bucket-resolved (see `RunSummary`).
    latency_p50: u64,
    /// 99th-percentile end-to-end latency, bucket-resolved.
    latency_p99: u64,
}

/// The ledger key of one grid point: FNV-1a over its grid coordinates and
/// cycle budget (timings are results, not content).
fn point_key(mesh: &Mesh3d, rate: f64, stream: StreamVersion, cycles: u64) -> u64 {
    noc_exp::fnv1a(
        format!(
            "scale|{}x{}x{}|{rate}|{stream}|{cycles}",
            mesh.x(),
            mesh.y(),
            mesh.layers(),
        )
        .as_bytes(),
    )
}

/// The meshes of the study: the paper's PM scale and two steps beyond.
fn meshes() -> Vec<(Mesh3d, ElevatorSet)> {
    [(8, 8, 4), (16, 16, 8), (32, 32, 8)]
        .into_iter()
        .map(|(x, y, z)| {
            let mesh = Mesh3d::new(x, y, z).expect("study dimensions are valid");
            // The same pillar density at every scale, so cycles/second
            // differences come from the mesh size, not elevator scarcity.
            let elevators = ElevatorSet::new(&mesh, pillar_grid(x, y)).expect("grid fits the mesh");
            (mesh, elevators)
        })
        .collect()
}

/// Peak resident set size of this process in kB (Linux; `None` elsewhere).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Resets the kernel's peak-RSS watermark so each study point reports its
/// own footprint instead of the max over every point run so far. Returns
/// `false` where unsupported (the report is then a lifetime watermark).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn measure(
    mesh: Mesh3d,
    elevators: &ElevatorSet,
    rate: f64,
    stream: StreamVersion,
    cycles: u64,
) -> Result<ScalePoint, SimError> {
    let warmup = cycles / 10;
    let config = SimConfig::new(mesh, elevators.clone()).with_seed(42);
    let kind = WorkloadKind::Uniform { rate };
    let traffic = WorkloadSpec { stream, kind }.build(&mesh, 42);
    let selector = ElevatorFirstSelector::new(&mesh, elevators);
    reset_peak_rss();
    let mut sim = Simulator::from_scheduled(config, traffic, Box::new(selector));
    sim.advance(warmup)?;
    let start = Instant::now();
    let summary = sim.measure_window(cycles)?;
    let wall = start.elapsed().as_secs_f64();
    Ok(ScalePoint {
        mesh: format!("{}x{}x{}", mesh.x(), mesh.y(), mesh.layers()),
        nodes: mesh.node_count(),
        pillars: elevators.len(),
        rate,
        stream: stream.to_string(),
        cycles,
        wall_seconds: wall,
        cycles_per_second: cycles as f64 / wall,
        injected_packets: summary.injected_packets,
        peak_rss_kb: peak_rss_kb(),
        avg_latency: summary.avg_latency,
        latency_p50: summary.latency_p50,
        latency_p99: summary.latency_p99,
    })
}

fn main() {
    let mut args = Args::from_env("scale");
    let resume = args.flag("--resume");
    // `--stream v1|v2|both` (default both).
    let streams = match args.value::<String>("--stream").as_deref() {
        None | Some("both") => vec![StreamVersion::V1, StreamVersion::V2],
        Some(one) => match one.parse() {
            Ok(stream) => vec![stream],
            Err(e) => args.die(&format!("--stream: {e}")),
        },
    };
    let hud_on = args.flag("--hud");
    let quiet = args.flag("--quiet");
    args.finish();
    let cycles: u64 = if quick_mode() { 2_000 } else { 20_000 };
    // Low load (well under pillar saturation at every scale) is where
    // idle-router skipping and batched injection matter; the higher rate
    // saturates the pillar grid, so it measures busy-network switching
    // throughput instead.
    let rates = [0.0005, 0.002];
    if !reset_peak_rss() {
        eprintln!("note: peak-RSS reset unsupported; rss columns are process-lifetime peaks");
    }

    // The study is a sequential sweep, so the HUD is fed synthesized
    // `progress` beats (the same wire format `run_specs` streams from its
    // worker pool) — one `started`/`done` pair per point.
    let grid = meshes().len() * rates.len() * streams.len();
    let mut hud = hud_on.then(|| Hud::new(grid, quiet));
    let beat = |hud: &mut Option<Hud>, index: usize, label: &str, status: &str, detail| {
        let record = Record::Progress {
            index,
            total: grid,
            label: label.to_string(),
            status: status.to_string(),
            detail,
        };
        if let Some(text) = hud.as_mut().and_then(|h| h.on_record(&record)) {
            eprintln!("{text}");
        }
    };

    let ledger_path = adele_bench::results_dir().join("scale.ledger.jsonl");
    if !resume {
        // A fresh study owns the ledger: start it over.
        let _ = std::fs::remove_file(&ledger_path);
    }
    let mut ledger = match Ledger::<ScalePoint>::open(&ledger_path) {
        Ok(ledger) => Some(ledger),
        Err(e) => {
            eprintln!("note: point ledger unavailable ({e}); study will not be resumable");
            None
        }
    };
    let restored = ledger.as_ref().map_or(0, Ledger::len);
    if resume && restored > 0 {
        eprintln!(
            "resuming: {restored} point(s) restored from {}",
            ledger_path.display()
        );
    }

    let mut points = Vec::new();
    let mut index = 0;
    for (mesh, elevators) in meshes() {
        for rate in rates {
            for &stream in &streams {
                let label = format!(
                    "{}x{}x{} r{rate:.4} {stream}",
                    mesh.x(),
                    mesh.y(),
                    mesh.layers(),
                );
                let key = point_key(&mesh, rate, stream, cycles);
                if let Some(point) = ledger.as_ref().and_then(|l| l.lookup(key)) {
                    beat(&mut hud, index, &label, "cached", serde::Value::Null);
                    index += 1;
                    points.push(point.clone());
                    continue;
                }
                beat(&mut hud, index, &label, "started", serde::Value::Null);
                let point = measure(mesh, &elevators, rate, stream, cycles).unwrap_or_else(|e| {
                    eprintln!("error: {label}: {e}");
                    std::process::exit(3);
                });
                if let Some(ledger) = ledger.as_mut() {
                    if let Err(e) = ledger.record(key, &point) {
                        eprintln!("scale: ledger append failed: {e}");
                    }
                }
                let detail = vec![
                    (
                        "run_ns".to_string(),
                        serde::Value::UInt((point.wall_seconds * 1e9) as u64),
                    ),
                    (
                        "avg_latency".to_string(),
                        serde::Value::Float(point.avg_latency),
                    ),
                    (
                        "latency_p50".to_string(),
                        serde::Value::UInt(point.latency_p50),
                    ),
                    (
                        "latency_p99".to_string(),
                        serde::Value::UInt(point.latency_p99),
                    ),
                ];
                beat(
                    &mut hud,
                    index,
                    &label,
                    "done",
                    serde::Value::Object(detail),
                );
                index += 1;
                println!(
                    "{:>9}  rate {:.4}  {}  {:>12.0} cycles/s  peak RSS {}",
                    point.mesh,
                    rate,
                    point.stream,
                    point.cycles_per_second,
                    point
                        .peak_rss_kb
                        .map_or("n/a".to_string(), |kb| format!("{} MB", kb / 1024)),
                );
                points.push(point);
            }
        }
    }

    let rendered = table(
        &[
            "mesh", "nodes", "pillars", "rate", "stream", "cycles", "kcyc/s", "inj", "rss_mb",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.mesh.clone(),
                    p.nodes.to_string(),
                    p.pillars.to_string(),
                    format!("{:.4}", p.rate),
                    p.stream.clone(),
                    p.cycles.to_string(),
                    f1(p.cycles_per_second / 1e3),
                    p.injected_packets.to_string(),
                    p.peak_rss_kb
                        .map_or("n/a".into(), |kb| (kb / 1024).to_string()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print!("\n{rendered}");
    // Stamp the dump with the provenance block next to the points — which
    // tree produced the numbers, on what machine shape, over which grid.
    let stream_names: Vec<String> = streams.iter().map(ToString::to_string).collect();
    let stream_refs: Vec<&str> = stream_names.iter().map(String::as_str).collect();
    let doc = serde::Value::Object(vec![
        ("meta".to_string(), bench_meta(&stream_refs).to_value()),
        ("points".to_string(), points.to_value()),
    ]);
    if let Err(e) = dump_json("scale", &doc) {
        eprintln!("error: {e}");
        std::process::exit(3);
    }
}
