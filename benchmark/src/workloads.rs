//! The six workloads. Each one is a closed loop with one client (two
//! pool workers on `spec_sweep`): the next op starts when the previous
//! one returns, for `--seconds` of host time, so the numbers are work
//! per host-second at a fixed input size — not latency under a rate.
//!
//! Window lengths, rates, the AMOSA schedule and op counts below *are*
//! the workload definitions; nothing here reads `ADELE_QUICK`.

use crate::probes::ProbeFabric;
use crate::run::Run;
use adele::offline::{OfflineOptimizer, SelectionStrategy, SubsetAssignment};
use amosa::AmosaParams;
use noc_exp::{
    atomic_write, load_dir, results_to_json, run_batch_supervised, spec_hash, BatchEvent, Ledger,
    PointOutcome, Scenario, ScenarioResult, SelectorSpec, Supervision, WorkloadKind, WorkloadSpec,
};
use noc_sim::{harness::run_once, RunSummary, SimConfig};
use noc_topology::placement::Placement;
use noc_topology::{ElevatorSet, Mesh3d};
use noc_traffic::apps::{AppKind, AppTraffic};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One workload as the manifest lists it.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Most threads the workload may use; the benchmark pins
    /// `NOC_THREADS` to `min(this, nproc)`.
    pub threads: usize,
    run: fn(&mut Run) -> Result<(), String>,
}

/// The workloads, in manifest order.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "fig7_apps",
        why: "paper headline: PS1-3 x 6 app models x 3 policies via run_once; polled AppTraffic, all selectors, tiny-mesh stepping; only source of fidelity",
        threads: 1,
        run: fig7_apps,
    },
    WorkloadDef {
        name: "fig4_pm",
        why: "8x8x4 v1 polled uniform, 6 rates x 3 policies via Scenario::run; polling dominates low rates, top rates saturate and hit the drain cap",
        threads: 1,
        run: fig4_pm,
    },
    WorkloadDef {
        name: "mesh16_idle",
        why: "16x16x8 v2 at 5e-5, ElevatorFirst: near-idle stepping, where idle fast-forward must show and traffic and switching do almost nothing",
        threads: 1,
        run: mesh16_idle,
    },
    WorkloadDef {
        name: "mesh16_loaded",
        why: "same fabric at 5e-4 with AdEle: highest flat-backlog rate, switching and selector feedback dominate, idle-skipping must change nothing",
        threads: 1,
        run: mesh16_loaded,
    },
    WorkloadDef {
        name: "mesh32_sharded",
        why: "32x32x8 in 8 shards stepped inline: partitioning, boundary exchange and per-window partial folds, so a win for k=1 that costs k=8 shows",
        threads: 1,
        run: mesh32_sharded,
    },
    WorkloadDef {
        name: "spec_sweep",
        why: "checked-in specs x many seeds through the supervised pool with a ledger, then resume: shortest points, so per-point fixed costs peak",
        threads: 2,
        run: spec_sweep,
    },
];

impl WorkloadDef {
    /// Looks a workload up by name.
    #[must_use]
    pub fn find(name: &str) -> Option<&'static WorkloadDef> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Runs the workload into `run`.
    ///
    /// # Errors
    ///
    /// Returns a message when an op fails in a way that stops the loop
    /// (an `Err(SimError)` from a window, an unreadable spec suite).
    pub fn execute(&self, run: &mut Run) -> Result<(), String> {
        (self.run)(run)
    }
}

// ---------------------------------------------------------------------
// Window workloads: one long-lived simulator, op = one measure_window.
// ---------------------------------------------------------------------

/// A scaling-study fabric stepped window by window.
#[derive(Debug, Clone)]
pub struct Fabric {
    /// Mesh dimensions.
    pub dims: (usize, usize, usize),
    /// Offered load, packets/node/cycle, v2 uniform.
    pub rate: f64,
    /// Selection policy.
    pub selector: SelectorSpec,
    /// Mesh shards.
    pub shards: usize,
    /// Warm-up cycles (part of set-up).
    pub warmup: u64,
    /// Cycles per op.
    pub window: u64,
    /// The first ops of every run, whatever `--seconds` says; the result
    /// digest and the exact counts cover exactly these.
    pub prefix_ops: u64,
    /// Cycles one layer probe steps this fabric.
    pub probe_cycles: u64,
}

impl Fabric {
    /// One pillar per 4x4 tile at `(4i+2, 4j+2)`: the same pillar density
    /// at every mesh size (the `scale` study's geometry).
    fn pillars(&self) -> Vec<(u8, u8)> {
        let (x, y, _) = self.dims;
        (0..x as u8 / 4)
            .flat_map(|i| (0..y as u8 / 4).map(move |j| (4 * i + 2, 4 * j + 2)))
            .collect()
    }

    /// The scenario behind the fabric (phases unused: windows are driven
    /// by hand).
    pub fn scenario(&self, name: &str, seed: u64) -> Scenario {
        let (x, y, z) = self.dims;
        let mesh = Mesh3d::new(x, y, z).expect("workload dimensions are valid");
        let elevators = ElevatorSet::new(&mesh, self.pillars()).expect("pillar grid fits the mesh");
        Scenario::new(name, mesh, elevators)
            .with_workload(WorkloadSpec::v2(WorkloadKind::Uniform { rate: self.rate }))
            .with_selector(self.selector.clone())
            .with_shards(self.shards)
            .with_seed(seed)
    }
}

const MESH16_IDLE: Fabric = Fabric {
    dims: (16, 16, 8),
    rate: 5e-5,
    selector: SelectorSpec::ElevatorFirst,
    shards: 1,
    warmup: 20_000,
    window: 2_000,
    prefix_ops: 100,
    probe_cycles: 20_000,
};

const MESH16_LOADED: Fabric = Fabric {
    dims: (16, 16, 8),
    rate: 5e-4,
    selector: SelectorSpec::Adele {
        rr_only: false,
        measured_energy: false,
        assignment: None,
    },
    shards: 1,
    // AdEle's cost tables need ~35 k cycles at this load before the
    // backlog settles (it peaks near 2 300 live packets on the way).
    warmup: 40_000,
    window: 500,
    prefix_ops: 40,
    probe_cycles: 2_000,
};

const MESH32_SHARDED: Fabric = Fabric {
    dims: (32, 32, 8),
    rate: 3e-4,
    selector: SelectorSpec::ElevatorFirst,
    shards: 8,
    warmup: 5_000,
    window: 1_000,
    prefix_ops: 10,
    probe_cycles: 500,
};

fn mesh16_idle(run: &mut Run) -> Result<(), String> {
    windows(run, &MESH16_IDLE).map(drop)
}

fn mesh16_loaded(run: &mut Run) -> Result<(), String> {
    windows(run, &MESH16_LOADED).map(drop)
}

fn mesh32_sharded(run: &mut Run) -> Result<(), String> {
    let first = windows(run, &MESH32_SHARDED)?;
    // Untimed, outside set-up: the sharded engine's first windows must
    // equal a sequential (k = 1) run of the same spec, field for field.
    let sequential = Fabric {
        shards: 1,
        ..MESH32_SHARDED
    };
    let mut sim = sequential
        .scenario(run.workload, run.seed)
        .build_simulator();
    let (warmup, window) = (run.scaled(sequential.warmup), run.scaled(sequential.window));
    let outcome = run.spans.scope("bench.check_shard_equivalence", None, || {
        sim.advance(warmup)?;
        first.iter().map(|_| sim.measure_window(window)).collect()
    });
    match outcome {
        Ok::<Vec<RunSummary>, noc_sim::SimError>(reference) => run.check(
            "sharded_equals_sequential",
            reference == first,
            format!("first {} windows at k=8 vs k=1", first.len()),
        ),
        Err(e) => run.check("sharded_equals_sequential", false, e.to_string()),
    }
    Ok(())
}

/// Drives `fabric`: repeated set-ups (build + warm-up), then windows
/// until the time budget is spent. Returns the first two windows'
/// summaries for cross-engine checks.
fn windows(run: &mut Run, fabric: &Fabric) -> Result<Vec<RunSummary>, String> {
    let scenario = fabric.scenario(run.workload, run.seed);
    run.probe_fabric = Some(ProbeFabric::new(
        &scenario,
        fabric.rate,
        fabric.probe_cycles,
    ));
    let (warmup, window) = (run.scaled(fabric.warmup), run.scaled(fabric.window));
    let prefix_ops = run.scaled(fabric.prefix_ops) as usize;
    let mut sim = None;
    while run.wants_more_setups() {
        drop(sim.take());
        let built = run.setup(|run| {
            let mut sim = run.spans.scope("noc_exp.build_simulator", None, || {
                scenario.build_simulator()
            });
            let warmed = run
                .spans
                .scope("noc_sim.advance_warmup", None, || sim.advance(warmup));
            warmed.map(|()| sim)
        });
        sim = Some(built.map_err(|e| run.fail_op(format!("warm-up: {e}")))?);
    }
    let mut sim = sim.expect("at least one set-up ran");

    let nodes = scenario.mesh.node_count() as f64;
    let mut first = Vec::new();
    let mut live = Vec::new();
    run.start_timed();
    while run.wants_more_ops(prefix_ops) {
        let op = run.ops.len() as u64;
        let begun = Instant::now();
        let measured = run.spans.scope("noc_sim.measure_window", Some(op), || {
            sim.measure_window(window)
        });
        let elapsed = begun.elapsed();
        let summary = measured.map_err(|e| run.fail_op(format!("window {op}: {e}")))?;
        live.push(sim.packet_table().live() as f64);
        run.record_op(0, elapsed, [&summary]);
        if run.ops.len() == prefix_ops {
            run.prefix.live_packets_end = live.last().copied().unwrap_or(0.0);
            run.prefix.backlog_growth = backlog_growth(&live);
        }
        if first.len() < 2 {
            first.push(summary);
        }
    }
    run.stop_timed();

    // Offered load: what the generator handed the simulator against
    // rate x nodes x cycles. 1 %, widened to five standard deviations of
    // the Poisson count so a short run cannot fail by chance.
    let cycles = run.ops.len() as f64 * window as f64;
    let expected = fabric.rate * nodes * cycles;
    let injected = run.timed.injected_packets as f64;
    let tolerance = (0.01 * expected).max(5.0 * expected.sqrt());
    run.check(
        "offered_load",
        (injected - expected).abs() <= tolerance,
        format!("injected {injected} vs expected {expected:.0} (+-{tolerance:.0})"),
    );
    // A property of the full-size warm-up: a smoke run's fiftieth of it
    // ends inside the start-up transient by design.
    if !run.smoke {
        let growth = backlog_growth(&live);
        run.check(
            "steady_state",
            growth <= 2.0,
            format!("live packets last quarter / first quarter = {growth:.3}"),
        );
    }
    Ok(first)
}

/// Mean live packets over the last quarter of `live` (sampled at window
/// ends) over the mean of the first quarter, each +1 so a near-empty
/// fabric reads 1 rather than 0/0.
#[must_use]
pub fn backlog_growth(live: &[f64]) -> f64 {
    let quarter = (live.len() / 4).max(1).min(live.len());
    if quarter == 0 {
        return 1.0;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    (mean(&live[live.len() - quarter..]) + 1.0) / (mean(&live[..quarter]) + 1.0)
}

// ---------------------------------------------------------------------
// Point workloads: a fixed list of independent runs, op = one point.
// ---------------------------------------------------------------------

/// One point of a sweep: a label and the call that runs it.
struct Point {
    label: String,
    run: Box<dyn Fn() -> Result<RunSummary, noc_sim::SimError>>,
}

/// The three policies every figure compares, AdEle on `assignment`.
fn main_policies(assignment: &SubsetAssignment) -> [(&'static str, SelectorSpec); 3] {
    [
        ("ElevFirst", SelectorSpec::ElevatorFirst),
        ("CDA", SelectorSpec::Cda),
        (
            "AdEle",
            SelectorSpec::Adele {
                rr_only: false,
                measured_energy: false,
                assignment: Some(assignment.clone()),
            },
        ),
    ]
}

/// The figures' full AMOSA schedule. The search seed is fixed: the
/// offline stage is a design-time artefact of the placement, and `--seed`
/// varies the traffic that runs on it.
fn amosa_schedule() -> AmosaParams {
    AmosaParams {
        hard_limit: 60,
        soft_limit: 120,
        t_max: 100.0,
        t_min: 1e-3,
        alpha: 0.88,
        iterations_per_temperature: 60,
        initial_solutions: 120,
        seed: 0xADE1E,
    }
}

/// Runs the offline stage for one placement and returns the balanced
/// pick (the figures' choice).
fn offline_assignment(run: &mut Run, mesh: Mesh3d, elevators: &ElevatorSet) -> SubsetAssignment {
    let (seconds, result) = run.timed("adele.offline_optimize", || {
        OfflineOptimizer::new(mesh, elevators.clone())
            .with_params(amosa_schedule())
            .optimize()
    });
    run.offline_s.push(seconds);
    run.amosa_evaluations += result.evaluations;
    result
        .select(SelectionStrategy::balanced())
        .assignment
        .clone()
}

/// Runs whole passes over `points` until the time budget is spent, so
/// every run times the same mix of points. Returns the first pass's
/// summaries.
fn sweep(run: &mut Run, points: &[Point]) -> Result<Vec<RunSummary>, String> {
    let mut first: Vec<RunSummary> = Vec::with_capacity(points.len());
    let mut repeats_agree = true;
    run.start_timed();
    while run.wants_more_ops(points.len()) {
        for (id, point) in points.iter().enumerate() {
            let begun = Instant::now();
            let outcome = run
                .spans
                .scope("noc_sim.run_point", Some(id as u64), &point.run);
            let elapsed = begun.elapsed();
            let summary =
                outcome.map_err(|e| run.fail_op(format!("point {} ({}): {e}", id, point.label)))?;
            run.record_op(id, elapsed, [&summary]);
            match first.get(id) {
                // A point run again must reproduce itself exactly.
                Some(earlier) => repeats_agree &= *earlier == summary,
                None => first.push(summary),
            }
        }
    }
    run.stop_timed();
    if run.ops.len() > points.len() {
        run.check(
            "repeat_is_deterministic",
            repeats_agree,
            format!("{} repeated points", run.ops.len() - points.len()),
        );
    }
    Ok(first)
}

/// The paper's printed claims (abstract and Section V): AdEle vs CDA
/// latency gain averaged over PS1-PS3, and the per-placement energy
/// overhead it is bought with.
const PAPER_LATENCY_GAIN_PCT: f64 = 10.9;
const PAPER_ENERGY_OVERHEAD_PCT: [f64; 3] = [6.9, 6.2, 4.8];

fn fig7_apps(run: &mut Run) -> Result<(), String> {
    const PLACEMENTS: [Placement; 3] = [Placement::Ps1, Placement::Ps2, Placement::Ps3];
    // 85 % of each placement's near-saturation rate, scaled per app by
    // its intensity (the fig7 binary's base rates).
    const BASE_RATES: [f64; 3] = [0.85 * 0.005, 0.85 * 0.0065, 0.85 * 0.009];
    // The fig7 binary's seeds at the default --seed 7, shifted with it.
    let shift = run.seed.wrapping_sub(7);
    let (sim_seed, traffic_seed, selector_seed) = (
        61u64.wrapping_add(shift),
        4321u64.wrapping_add(shift),
        77u64.wrapping_add(shift),
    );

    let phases = (run.scaled(5_000), run.scaled(20_000), run.scaled(60_000));
    let mut points = Vec::new();
    while run.wants_more_setups() {
        points.clear();
        run.setup(|run| {
            for (placement, base_rate) in PLACEMENTS.into_iter().zip(BASE_RATES) {
                let (mesh, elevators) = run
                    .spans
                    .scope("noc_topology.instantiate", None, || placement.instantiate());
                let assignment = offline_assignment(run, mesh, &elevators);
                let config = SimConfig::new(mesh, elevators.clone())
                    .with_phases(phases.0, phases.1, phases.2)
                    .with_seed(sim_seed);
                for app in AppKind::ALL {
                    for (policy, selector) in main_policies(&assignment) {
                        let (config, elevators) = (config.clone(), elevators.clone());
                        points.push(Point {
                            label: format!("{}/{}/{policy}", placement.name(), app.name()),
                            run: Box::new(move || {
                                run_once(
                                    &config,
                                    Box::new(AppTraffic::new(app, &mesh, base_rate, traffic_seed)),
                                    selector.build(&mesh, &elevators, selector_seed),
                                )
                            }),
                        });
                    }
                }
                if placement == Placement::Ps1 {
                    // The layer probes re-drive PS1 under its first app.
                    let scenario = Scenario::new(run.workload, mesh, elevators)
                        .with_workload(WorkloadSpec::v1(WorkloadKind::Uniform { rate: base_rate }))
                        .with_selector(main_policies(&assignment)[2].1.clone())
                        .with_seed(run.seed);
                    let mut fabric = ProbeFabric::new(&scenario, base_rate, 20_000);
                    fabric.app = Some(AppKind::ALL[0]);
                    run.probe_fabric = Some(fabric);
                }
            }
        });
    }

    let first = sweep(run, &points)?;

    // Fidelity against the paper's printed numbers. The app models are
    // synthetic stand-ins for the paper's Gem5 traces, so this measures
    // the reproduction, not the paper.
    let apps = AppKind::ALL.len();
    let mut gains = [0.0; 3];
    let mut energy_gap = 0.0;
    for (p, gain) in gains.iter_mut().enumerate() {
        let cell = |app: usize, policy: usize| &first[(p * apps + app) * 3 + policy];
        *gain = (0..apps)
            .map(|a| 1.0 - cell(a, 2).avg_latency / cell(a, 1).avg_latency.max(1e-12))
            .sum::<f64>()
            / apps as f64
            * 100.0;
        let mean_energy = |policy: usize| {
            (0..apps)
                .map(|a| cell(a, policy).energy_per_flit_nj)
                .sum::<f64>()
        };
        let overhead = (mean_energy(2) / mean_energy(1).max(1e-12) - 1.0) * 100.0;
        energy_gap += (overhead - PAPER_ENERGY_OVERHEAD_PCT[p]).max(0.0);
    }
    let mean_gain = gains.iter().sum::<f64>() / 3.0;
    run.layer = vec![
        (
            "fidelity.latency_gap_pp",
            (mean_gain - PAPER_LATENCY_GAIN_PCT).abs(),
        ),
        ("fidelity.energy_gap_pp", energy_gap),
        ("fidelity.gain_ps1_pct", gains[0]),
        ("fidelity.gain_ps2_pct", gains[1]),
        ("fidelity.gain_ps3_pct", gains[2]),
    ];
    Ok(())
}

fn fig4_pm(run: &mut Run) -> Result<(), String> {
    // The Fig. 4 PM/uniform x-axis: six rates up to 0.006, the top ones
    // deliberately past saturation.
    const RATES: [f64; 6] = [0.001, 0.002, 0.003, 0.004, 0.005, 0.006];
    let phases = (run.scaled(1_000), run.scaled(4_000), run.scaled(12_000));
    let mut points = Vec::new();
    while run.wants_more_setups() {
        points.clear();
        run.setup(|run| {
            let (mesh, elevators) = run.spans.scope("noc_topology.instantiate", None, || {
                Placement::Pm.instantiate()
            });
            let assignment = offline_assignment(run, mesh, &elevators);
            for rate in RATES {
                for (policy, selector) in main_policies(&assignment) {
                    let scenario =
                        Scenario::new(format!("pm/{rate}/{policy}"), mesh, elevators.clone())
                            .with_workload(WorkloadSpec::v1(WorkloadKind::Uniform { rate }))
                            .with_selector(selector)
                            .with_phases(phases.0, phases.1, phases.2)
                            .with_seed(run.seed);
                    points.push(Point {
                        label: scenario.name.clone(),
                        run: Box::new(move || scenario.run().map(|r| r.summary)),
                    });
                }
            }
            // The layer probes re-drive the mid-grid AdEle point.
            let scenario = Scenario::new(run.workload, mesh, elevators)
                .with_workload(WorkloadSpec::v1(WorkloadKind::Uniform { rate: RATES[2] }))
                .with_selector(main_policies(&assignment)[2].1.clone())
                .with_seed(run.seed);
            run.probe_fabric = Some(ProbeFabric::new(&scenario, RATES[2], 10_000));
        });
    }
    sweep(run, &points).map(drop)
}

// ---------------------------------------------------------------------
// spec_sweep: the supervised pool, the ledger and resume.
// ---------------------------------------------------------------------

/// Seeds per spec in one supervised batch.
const SEEDS_PER_BATCH: u64 = 20;

/// One batch of the sweep: every spec of `suite` under `seeds` fresh
/// seeds, so every point is a distinct spec (and a distinct ledger key),
/// with each point's ledger hash.
fn expand(
    suite: &[(String, Scenario)],
    seed: u64,
    batch: u64,
    seeds: u64,
) -> (Vec<Scenario>, Vec<u64>) {
    let scenarios: Vec<Scenario> = (0..seeds)
        .flat_map(|s| {
            let seed = seed.wrapping_mul(1_000_003).wrapping_add(batch * seeds + s);
            suite
                .iter()
                .map(move |(_, scenario)| scenario.clone().with_seed(seed))
        })
        .collect();
    let hashes = scenarios.iter().map(spec_hash).collect();
    (scenarios, hashes)
}

fn spec_sweep(run: &mut Run) -> Result<(), String> {
    let threads = run.threads;
    let seeds_per_batch = run.scaled(SEEDS_PER_BATCH);
    let dir = run.scratch_dir();
    let ledger_path = dir.join("sweep.ledger.jsonl");
    // Set-up is what a sweep does before its first point: load and
    // validate the suite, expand and hash the first batch, open the
    // (still empty) ledger.
    let mut prepared = None;
    while run.wants_more_setups() {
        drop(prepared.take());
        let ready = run.setup(|run| {
            let suite = run
                .spans
                .scope("noc_exp.load_dir", None, || load_dir(Path::new("specs")))?;
            run.spans.scope("noc_exp.spec_hash", None, || {
                expand(&suite, run.seed, 0, seeds_per_batch)
            });
            let ledger = run
                .spans
                .scope("noc_exp.ledger_open", None, || Ledger::open(&ledger_path))
                .map_err(|e| format!("ledger: {e}"))?;
            Ok((suite, ledger))
        });
        prepared = Some(ready.map_err(|e: String| run.fail_op(e))?);
    }
    let (suite, ledger) = prepared.expect("at least one set-up ran");
    let WorkloadKind::Uniform { rate } = suite[0].1.workload.kind else {
        return Err(run.fail_op("specs/: the first spec is expected to be uniform".into()));
    };
    run.probe_fabric = Some(ProbeFabric::new(&suite[0].1, rate, 20_000));

    // An op is one batch, a small sweep from start to finish: expand and
    // hash its points, run them on the pool with every result appended to
    // the ledger as it lands, dump the batch. So the op's time carries
    // every fixed cost of the experiment layer, not just the simulations.
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut results: Vec<ScenarioResult> = Vec::new();
    let recorder = Mutex::new(ledger);
    run.start_timed();
    while run.wants_more_ops(1) {
        let batch = run.ops.len() as u64;
        let begun = Instant::now();
        let top = run.spans.enter("noc_exp.batch", Some(batch));
        let (fresh, hashes) = run.spans.scope("noc_exp.spec_hash", None, || {
            expand(&suite, run.seed, batch, seeds_per_batch)
        });
        let timeline = Timeline::new(&run.spans);
        let span = run.spans.enter("noc_exp.run_batch_supervised", None);
        let done = run_batch_supervised(&fresh, threads, &Supervision::new(), None, |event| {
            timeline.on_event(event);
            if let BatchEvent::Finished {
                index,
                outcome: PointOutcome::Ok(result),
                ..
            } = event
            {
                let appended = recorder
                    .lock()
                    .expect("ledger lock")
                    .record(hashes[*index], result);
                if let Err(e) = appended {
                    eprintln!("spec_sweep: ledger append failed: {e}");
                }
            }
        });
        for (index, lane, start_ns, end_ns) in timeline.finished() {
            let op = Some((scenarios.len() + index) as u64);
            run.spans
                .record("noc_exp.supervised_point", op, lane, start_ns, end_ns);
        }
        run.spans.exit(span);
        let mut landed = Vec::with_capacity(done.len());
        for (index, outcome) in done.into_iter().enumerate() {
            match outcome {
                PointOutcome::Ok(result) => landed.push(result),
                PointOutcome::Failed(failure) => {
                    run.fail_op(format!(
                        "batch {batch} point {index} ({}): {}",
                        fresh[index].name, failure.error
                    ));
                }
            }
        }
        run.spans
            .scope("noc_exp.results_dump", None, || {
                atomic_write(&dir.join("batch.json"), &results_to_json(&landed))
            })
            .map_err(|e| run.fail_op(format!("batch dump: {e}")))?;
        run.spans.exit(top);
        // Every batch runs the same specs under fresh seeds: repeats of
        // one op.
        run.record_op(0, begun.elapsed(), landed.iter().map(|r| &r.summary));
        scenarios.extend(fresh);
        results.extend(landed);
    }
    run.stop_timed();
    drop(recorder);

    // Untimed for the end-to-end metrics; these are the noc_exp layer's
    // numbers over the real sweep.
    if run.failed == 0 {
        run.layer = dump_and_resume(run, &ledger_path, &scenarios, &results)?;
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(())
}

/// What follows a finished sweep whose every point sits in the ledger at
/// `ledger_path`: dump `results` (`results_to_json` + `atomic_write`),
/// reopen the ledger and run the same `scenarios` again with `resume`.
/// Every point must come back cached and the resumed dump must be
/// byte-identical to the fresh one. Returns the layer numbers of the
/// pass, each call timed by itself.
///
/// # Errors
///
/// Returns a message (and books a failed op) if a file cannot be written
/// or read back.
pub fn dump_and_resume(
    run: &mut Run,
    ledger_path: &Path,
    scenarios: &[Scenario],
    results: &[ScenarioResult],
) -> Result<Vec<(&'static str, f64)>, String> {
    let (json_s, fresh_dump) = run.timed("noc_exp.results_to_json", || results_to_json(results));
    run.spans
        .scope("noc_exp.atomic_write", None, || {
            atomic_write(&ledger_path.with_extension("dump.json"), &fresh_dump)
        })
        .map_err(|e| run.fail_op(format!("results dump: {e}")))?;
    let (open_s, reopened) = run.timed("noc_exp.ledger_open", || Ledger::open(ledger_path));
    let ledger = reopened.map_err(|e| run.fail_op(format!("ledger reopen: {e}")))?;

    let cached = AtomicU64::new(0);
    let threads = run.threads;
    let (resume_s, resumed) = run.timed("noc_exp.resume_batch", || {
        run_batch_supervised(
            scenarios,
            threads,
            &Supervision::new(),
            Some(&ledger),
            |event| {
                if matches!(event, BatchEvent::Cached { .. }) {
                    cached.fetch_add(1, Ordering::Relaxed);
                }
            },
        )
    });
    let cached = cached.into_inner();
    let resumed: Vec<ScenarioResult> = resumed.iter().filter_map(|o| o.result().cloned()).collect();
    run.check(
        "resume_is_byte_identical",
        results_to_json(&resumed) == fresh_dump && cached as usize == scenarios.len(),
        format!(
            "{} bytes, {cached} of {} points restored from the ledger",
            fresh_dump.len(),
            scenarios.len()
        ),
    );
    Ok(vec![
        ("noc_exp.results_json_ms", json_s * 1e3),
        ("noc_exp.results_json_bytes", fresh_dump.len() as f64),
        ("noc_exp.ledger_open_ms", open_s * 1e3),
        ("noc_exp.resume_ms", resume_s * 1e3),
        ("noc_exp.points_cached", cached as f64),
    ])
}

/// Collects per-point start/finish instants from the supervised pool's
/// observer (called on the worker threads) so the batch can be replayed
/// into the span recorder afterwards.
struct Timeline {
    origin_ns: u64,
    begun: Instant,
    /// index -> (lane, start_ns, end_ns)
    points: Mutex<HashMap<usize, (u32, u64, u64)>>,
    lanes: Mutex<Vec<std::thread::ThreadId>>,
}

impl Timeline {
    fn new(spans: &crate::span::Spans) -> Self {
        Self {
            origin_ns: spans.now_ns(),
            begun: Instant::now(),
            points: Mutex::new(HashMap::new()),
            lanes: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin_ns + u64::try_from(self.begun.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// This worker's lane (1-based; 0 is the main thread).
    fn lane(&self) -> u32 {
        let me = std::thread::current().id();
        let mut lanes = self.lanes.lock().expect("lane lock");
        let at = lanes.iter().position(|&t| t == me).unwrap_or_else(|| {
            lanes.push(me);
            lanes.len() - 1
        });
        at as u32 + 1
    }

    fn on_event(&self, event: &BatchEvent) {
        let now = self.now_ns();
        let mut points = self.points.lock().expect("timeline lock");
        match event {
            BatchEvent::Started {
                index, attempt: 1, ..
            } => {
                points.insert(*index, (self.lane(), now, now));
            }
            BatchEvent::Finished { index, .. } => {
                if let Some(point) = points.get_mut(index) {
                    point.2 = now;
                }
            }
            _ => {}
        }
    }

    /// `(index, lane, start_ns, end_ns)` of every point, by index.
    fn finished(&self) -> Vec<(usize, u32, u64, u64)> {
        let points = self.points.lock().expect("timeline lock");
        let mut out: Vec<_> = points.iter().map(|(&i, p)| (i, p.0, p.1, p.2)).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_growth_compares_quarters() {
        assert_eq!(backlog_growth(&[]), 1.0);
        assert_eq!(backlog_growth(&[3.0]), 1.0);
        // Flat backlog reads 1; a backlog that triples reads ~3.
        assert_eq!(backlog_growth(&[9.0; 8]), 1.0);
        let growing: Vec<f64> = (0..8).map(|i| 10.0 + 10.0 * f64::from(i)).collect();
        assert!((backlog_growth(&growing) - 76.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn workload_names_are_unique_and_whys_fit_the_manifest() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(WorkloadDef::find(w.name).is_some());
        }
        assert!(WorkloadDef::find("nope").is_none());
    }

    #[test]
    fn pillar_grid_has_one_column_per_tile() {
        assert_eq!(MESH16_IDLE.pillars().len(), 16);
        assert_eq!(MESH32_SHARDED.pillars().len(), 64);
        assert_eq!(MESH16_IDLE.pillars()[0], (2, 2));
    }
}
