//! The layer probes of the traced pass. Each one re-drives the
//! workload's own inputs — same mesh, elevators, rate, selector, seed
//! and a fixed cycle count — through one layer's public entry point in
//! isolation, inside a span, and reports host time for that layer.
//!
//! Every probe runs on every workload, over that workload's fabric, so
//! one code path yields the whole per-layer set; ratios compare two
//! variants of the same call on the same inputs.

use crate::metrics::Metrics;
use crate::run::Run;
use crate::stats::median;
use crate::workloads::dump_and_resume;
use adele::online::{
    CdaSelector, ElevatorFirstSelector, ElevatorSelector, SelectionContext, ZeroProbe,
};
use noc_energy::{EnergyModel, HeatmapReport, LinkEnergyReport};
use noc_exp::{
    par_map, run_batch_supervised, spec_hash, BatchEvent, Ledger, PointOutcome, Scenario,
    ScenarioResult, SelectorSpec, Supervision,
};
use noc_obs::{export, parse_journal, SharedBuffer, TraceWriter};
use noc_sim::{SimError, Simulator, Tracer};
use noc_topology::route::{route_step, ElevatorCoord};
use noc_topology::{Coord, ElevatorSet, Mesh3d};
use noc_traffic::apps::{AppKind, AppTraffic};
use noc_traffic::{
    BatchedSynthetic, CyclePolled, ScheduledSource, SyntheticTraffic, TrafficSource,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `select` calls per selector probe.
const SELECT_CALLS: usize = 20_000;
/// Points in the noc_exp probe batch.
const EXP_POINTS: u64 = 4;

/// What the probes re-drive for one workload.
#[derive(Debug, Clone)]
pub struct ProbeFabric {
    /// Mesh, elevators, workload shape, selector, shards and seed.
    pub scenario: Scenario,
    /// Offered load, packets/node/cycle.
    pub rate: f64,
    /// Cycles one stepping probe runs.
    pub cycles: u64,
    /// Drive the traffic probe with this application model instead of
    /// the scenario's synthetic pattern (fig7_apps).
    pub app: Option<AppKind>,
}

impl ProbeFabric {
    /// Probes over `scenario`'s fabric at `rate`, stepping `cycles` per
    /// probe.
    #[must_use]
    pub fn new(scenario: &Scenario, rate: f64, cycles: u64) -> Self {
        Self {
            scenario: scenario.clone(),
            rate,
            cycles,
            app: None,
        }
    }
}

/// Seconds `f` takes.
fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let begun = Instant::now();
    let out = f();
    (begun.elapsed().as_secs_f64(), out)
}

/// Median seconds of `reps` calls to `f`.
fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (s, out) = time(&mut f);
            black_box(out);
            s
        })
        .collect();
    median(&samples)
}

/// A tiny deterministic generator for probe inputs (SplitMix64).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn coord(&mut self, mesh: &Mesh3d) -> Coord {
        let r = self.next();
        Coord::new(
            (r % mesh.x() as u64) as u8,
            ((r >> 16) % mesh.y() as u64) as u8,
            ((r >> 32) % mesh.layers() as u64) as u8,
        )
    }

    /// Source/destination pairs on different layers.
    fn inter_layer_pairs(&mut self, mesh: &Mesh3d, n: usize) -> Vec<(Coord, Coord)> {
        let mut pairs = Vec::with_capacity(n);
        while pairs.len() < n {
            let (src, dst) = (self.coord(mesh), self.coord(mesh));
            if src.z != dst.z {
                pairs.push((src, dst));
            }
        }
        pairs
    }
}

/// Runs every layer probe over `run`'s fabric into `m`.
///
/// # Errors
///
/// Returns a message (and books a failed op) if a probe's simulation
/// fails.
pub fn run_probes(run: &mut Run, m: &mut Metrics) -> Result<(), String> {
    let Some(fabric) = run.probe_fabric.clone() else {
        return Err(run.fail_op("workload set no probe fabric".into()));
    };
    let top = run.spans.enter("bench.layer_probes", None);
    let outcome = (|| {
        topology(run, m, &fabric);
        traffic(run, m, &fabric);
        selectors(run, m, &fabric);
        stepping(run, m, &fabric)?;
        shards(run, m, &fabric)?;
        observability(run, m, &fabric)?;
        experiments(run, m, &fabric)
    })();
    run.spans.exit(top);
    outcome.map_err(|e: SimError| run.fail_op(format!("layer probe: {e}")))
}

fn topology(run: &mut Run, m: &mut Metrics, fabric: &ProbeFabric) {
    let span = run.spans.enter("noc_topology.probe", None);
    let mesh = fabric.scenario.mesh;
    let columns: Vec<(u8, u8)> = fabric.scenario.elevators.iter().map(|(_, c)| c).collect();
    let instantiate = median_time(20, || {
        let mesh = Mesh3d::new(mesh.x(), mesh.y(), mesh.layers()).expect("valid dims");
        let set = ElevatorSet::new(&mesh, columns.iter().copied()).expect("valid columns");
        (mesh, set)
    });
    m.set("noc_topology.instantiate_us", instantiate * 1e6);

    let elevators = &fabric.scenario.elevators;
    let hops: Vec<(Coord, Coord, Option<ElevatorCoord>)> = Mix(fabric.scenario.seed)
        .inter_layer_pairs(&mesh, SELECT_CALLS)
        .into_iter()
        .map(|(src, dst)| {
            let via = ElevatorCoord::from_set(elevators, elevators.nearest(src));
            (src, dst, Some(via))
        })
        .collect();
    let (s, _) = time(|| {
        for &(cur, dst, via) in &hops {
            black_box(route_step(black_box(cur), dst, via));
        }
    });
    m.set("noc_topology.route_step_ns", s * 1e9 / hops.len() as f64);
    run.spans.exit(span);
}

fn traffic(run: &mut Run, m: &mut Metrics, fabric: &ProbeFabric) {
    let span = run.spans.enter("noc_traffic.probe", None);
    let mesh = fabric.scenario.mesh;
    let (rate, seed, cycles) = (fabric.rate, fabric.scenario.seed, fabric.cycles);
    let polled_source = || -> Box<dyn TrafficSource> {
        match fabric.app {
            Some(app) => Box::new(AppTraffic::new(app, &mesh, rate, seed)),
            None => Box::new(SyntheticTraffic::uniform(&mesh, rate, seed)),
        }
    };
    let mut polled = polled_source();
    let offered = polled.mean_rate().unwrap_or(rate);
    let (polled_s, polled_count) = run.timed("noc_traffic.polled", || {
        let mut injected = 0u64;
        for cycle in 0..cycles {
            for node in mesh.node_ids() {
                injected += u64::from(polled.maybe_inject(node, cycle).is_some());
            }
        }
        injected
    });

    let mut scheduled: Box<dyn ScheduledSource> = match fabric.app {
        // The app models are polled by nature; v2 rides the calendar
        // through the adapter.
        Some(_) => Box::new(CyclePolled::new(polled_source(), mesh.node_count())),
        None => Box::new(BatchedSynthetic::uniform(&mesh, rate, seed)),
    };
    let (scheduled_s, scheduled_count) = run.timed("noc_traffic.scheduled", || {
        let horizon = scheduled.horizon().max(1);
        let (mut injected, mut up_to) = (0u64, 0u64);
        while up_to < cycles {
            up_to = (up_to + horizon).min(cycles);
            injected += scheduled.next_injections(up_to - 1).len() as u64;
        }
        injected
    });

    m.set(
        "noc_traffic.polled_ns_per_cycle",
        polled_s * 1e9 / cycles as f64,
    );
    m.set(
        "noc_traffic.scheduled_ns_per_cycle",
        scheduled_s * 1e9 / cycles as f64,
    );
    // The stream the workload itself runs on supplies the counts.
    let on_v2 = fabric.scenario.workload.stream == noc_exp::StreamVersion::V2;
    let injected = if on_v2 { scheduled_count } else { polled_count };
    let expected = offered * mesh.node_count() as f64 * cycles as f64;
    m.set("noc_traffic.injections", injected as f64);
    m.set(
        "noc_traffic.offered_rate_error_pct",
        (injected as f64 - expected).abs() / expected.max(1e-12) * 100.0,
    );
    run.spans.exit(span);
}

fn selectors(run: &mut Run, m: &mut Metrics, fabric: &ProbeFabric) {
    let span = run.spans.enter("adele.select_probe", None);
    let scenario = &fabric.scenario;
    let (mesh, elevators) = (scenario.mesh, &scenario.elevators);
    let probe = ZeroProbe::new(mesh);
    let pairs = Mix(scenario.seed ^ 0x5e1ec7).inter_layer_pairs(&mesh, SELECT_CALLS);
    let contexts: Vec<SelectionContext<'_>> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(src, dst))| SelectionContext {
            src_id: mesh.node_id(src).expect("in mesh"),
            src,
            dst_id: mesh.node_id(dst).expect("in mesh"),
            dst,
            elevators,
            probe: &probe,
            cycle: i as u64,
        })
        .collect();
    // AdEle on the workload's own assignment where it has one.
    let adele_spec = match &scenario.selector {
        spec @ SelectorSpec::Adele { .. } => spec.clone(),
        _ => SelectorSpec::adele(),
    };
    let policies: [(&str, Box<dyn ElevatorSelector>); 3] = [
        (
            "adele.select_ns.elevfirst",
            Box::new(ElevatorFirstSelector::new(&mesh, elevators)),
        ),
        ("adele.select_ns.cda", Box::new(CdaSelector::new())),
        (
            "adele.select_ns.adele",
            adele_spec.build(&mesh, elevators, scenario.seed),
        ),
    ];
    for (name, mut selector) in policies {
        let (s, _) = run.timed(name, || {
            for ctx in &contexts {
                black_box(selector.select(black_box(ctx)));
            }
        });
        m.set(name, s * 1e9 / contexts.len() as f64);
    }
    run.spans.exit(span);
}

/// Build time, the phase split, armed-vs-bare stepping, per-window fixed
/// cost and the energy roll-ups, all on one warmed simulator.
fn stepping(run: &mut Run, m: &mut Metrics, fabric: &ProbeFabric) -> Result<(), SimError> {
    let span = run.spans.enter("noc_sim.step_probe", None);
    let outcome = (|| {
        let scenario = &fabric.scenario;
        let cycles = fabric.cycles;
        let inner = run.spans.enter("noc_sim.build", None);
        let build = median_time(5, || scenario.build_simulator());
        run.spans.exit(inner);
        m.set("noc_sim.build_ms", build * 1e3);

        let mut sim = scenario.build_simulator();
        sim.advance(cycles)?;

        let inner = run.spans.enter("noc_sim.advance_phase_timed", None);
        let timed = sim.advance_phase_timed(cycles);
        run.spans.exit(inner);
        let (phase, total) = timed?;
        let per_cycle = |d: std::time::Duration| d.as_secs_f64() * 1e9 / cycles as f64;
        m.set("noc_sim.inject_ns_per_cycle", per_cycle(phase.inject));
        m.set("noc_sim.compute_ns_per_cycle", per_cycle(phase.compute));
        m.set("noc_sim.exchange_ns_per_cycle", per_cycle(phase.exchange));
        m.set("noc_sim.commit_ns_per_cycle", per_cycle(phase.commit));
        let parallel = (phase.compute + phase.exchange).as_secs_f64();
        m.set(
            "noc_sim.serial_share",
            1.0 - parallel / total.as_secs_f64().max(1e-12),
        );

        // measure_window (statistics armed) against advance (bare), three
        // alternating pairs on the same simulator.
        let inner = run.spans.enter("noc_sim.armed_vs_bare", None);
        let (mut bare, mut armed) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let (s, stepped) = time(|| sim.advance(cycles));
            stepped?;
            bare.push(s);
            let (s, window) = time(|| sim.measure_window(cycles));
            window?;
            armed.push(s);
        }
        run.spans.exit(inner);
        m.set(
            "noc_sim.armed_step_ratio",
            median(&armed) / median(&bare).max(1e-12),
        );

        // The same cycles as n short windows against one long one: the
        // difference per extra window is what a window costs by itself.
        let inner = run.spans.enter("noc_sim.window_fixed", None);
        let short = 100.min(cycles);
        let n = (cycles / short).max(2);
        let (many, stepped) = time(|| (0..n).try_for_each(|_| sim.measure_window(short).map(drop)));
        stepped?;
        let (one, window) = time(|| sim.measure_window(short * n));
        window?;
        run.spans.exit(inner);
        m.set(
            "noc_sim.window_fixed_us",
            (many - one) / (n - 1) as f64 * 1e6,
        );

        let inner = run.spans.enter("noc_energy.probe", None);
        let (map, ledger) = (sim.link_map(), sim.link_ledger());
        let rollup = median_time(20, || {
            (ledger.pillar_ledgers(map), ledger.pillar_tsv_flits(map))
        });
        let model = EnergyModel::default_45nm();
        let report = median_time(5, || {
            (
                LinkEnergyReport::from_ledger(map, ledger, &model),
                HeatmapReport::from_ledger(map, ledger, &model),
            )
        });
        run.spans.exit(inner);
        m.set("noc_energy.rollup_us", rollup * 1e6);
        m.set("noc_energy.report_ms", report * 1e3);
        Ok(())
    })();
    run.spans.exit(span);
    outcome
}

/// Sequential against 8 shards stepped inline (one worker) and pooled
/// (the workload's worker count).
fn shards(run: &mut Run, m: &mut Metrics, fabric: &ProbeFabric) -> Result<(), SimError> {
    let span = run.spans.enter("noc_sim.shard_probe", None);
    let cycles = fabric.cycles;
    let pool_workers = crate::host_threads().min(2);
    // Seconds per cycle at `shards` x `workers`.
    let step = |shards: usize, workers: usize, cycles: u64| -> Result<f64, SimError> {
        // Read when the simulator is built; no other thread is alive.
        std::env::set_var("NOC_THREADS", workers.to_string());
        let mut sim = fabric
            .scenario
            .clone()
            .with_shards(shards)
            .build_simulator();
        sim.advance(cycles / 2)?;
        let (s, stepped) = time(|| sim.advance(cycles));
        stepped.map(|()| s / cycles as f64)
    };
    let outcome = (|| {
        let sequential = step(1, 1, cycles)?;
        let inline = step(8, 1, cycles)?;
        // Pool dispatch costs tens of microseconds a cycle on a small
        // mesh; capping the cycles keeps the probe short there.
        let pooled = step(8, pool_workers, cycles.min(2_000))?;
        m.set("noc_sim.shard_inline_ratio", inline / sequential.max(1e-12));
        m.set("noc_sim.pool_speedup", sequential / pooled.max(1e-12));
        Ok(())
    })();
    std::env::set_var("NOC_THREADS", run.threads.to_string());
    run.spans.exit(span);
    outcome
}

/// Tracer-armed and histogram-armed stepping against bare, then the
/// journal's exit ramps.
fn observability(run: &mut Run, m: &mut Metrics, fabric: &ProbeFabric) -> Result<(), SimError> {
    let span = run.spans.enter("noc_obs.probe", None);
    let outcome = (|| {
        let scenario = &fabric.scenario;
        let cycles = fabric.cycles;
        let buffer = SharedBuffer::new();
        let mut bare = scenario.build_simulator();
        let mut traced = scenario.build_simulator();
        traced.attach_tracer(Tracer::new(
            TraceWriter::new(Box::new(buffer.clone())),
            1_000,
        ));
        let (mut bare_s, mut traced_s) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let (s, window) = time(|| bare.measure_window(cycles));
            window?;
            bare_s.push(s);
            let (s, window) = time(|| traced.measure_window(cycles));
            window?;
            traced_s.push(s);
        }
        m.set(
            "noc_obs.armed_tracer_ratio",
            median(&traced_s) / median(&bare_s).max(1e-12),
        );
        if let Some(tracer) = traced.detach_tracer() {
            // An in-memory sink cannot fail to flush.
            let _ = tracer.finish();
        }

        // Histograms are a SimConfig switch the scenario layer does not
        // expose: same config, polled uniform traffic, on against off.
        let mesh = scenario.mesh;
        let with = |histograms: bool| -> Result<f64, SimError> {
            let mut sim = Simulator::new(
                scenario.sim_config().with_histograms(histograms),
                Box::new(SyntheticTraffic::uniform(&mesh, fabric.rate, scenario.seed)),
                scenario
                    .selector
                    .build(&mesh, &scenario.elevators, scenario.seed),
            );
            sim.advance(cycles / 2)?;
            let (s, window) = time(|| sim.measure_window(cycles));
            window.map(|_| s)
        };
        let (off, on) = (with(false)?, with(true)?);
        m.set("noc_obs.hist_ratio", on / off.max(1e-12));

        let journal = buffer.contents();
        m.set("noc_obs.journal_bytes", journal.len() as f64);
        let (parse_s, parsed) = run.timed("noc_obs.parse_journal", || parse_journal(&journal));
        m.set("noc_obs.journal_parse_ms", parse_s * 1e3);
        match parsed {
            Ok(records) => {
                let (prometheus_s, text) =
                    run.timed("noc_obs.export", || export::prometheus(&records));
                black_box(text);
                let (perfetto_s, text) = time(|| export::perfetto(&records));
                black_box(text);
                m.set("noc_obs.prometheus_ms", prometheus_s * 1e3);
                m.set("noc_obs.perfetto_ms", perfetto_s * 1e3);
            }
            Err(e) => run.check("probe_journal_parses", false, e.to_string()),
        }
        Ok(())
    })();
    run.spans.exit(span);
    outcome
}

/// The experiment layer's per-point fixed costs, on short points cut
/// from the workload's own scenario.
fn experiments(run: &mut Run, m: &mut Metrics, fabric: &ProbeFabric) -> Result<(), SimError> {
    let span = run.spans.enter("noc_exp.probe", None);
    let outcome = (|| {
        let cycles = fabric.cycles;
        let points: Vec<Scenario> = (0..EXP_POINTS)
            .map(|i| {
                let mut point = fabric
                    .scenario
                    .clone()
                    .with_phases(cycles / 4, cycles / 2, cycles)
                    .with_seed(fabric.scenario.seed.wrapping_add(i));
                point.name = format!("{}#{i}", fabric.scenario.name);
                point
            })
            .collect();

        let json = serde_json::to_string_pretty(&points[0]).expect("specs serialise");
        let parse = median_time(20, || serde_json::from_str::<Scenario>(&json));
        m.set("noc_exp.spec_parse_us", parse * 1e6);
        m.set(
            "noc_exp.spec_hash_us",
            median_time(20, || spec_hash(&points[0])) * 1e6,
        );

        let (bare_s, bare) = run.timed("noc_exp.scenario_run", || {
            points
                .iter()
                .map(Scenario::run)
                .collect::<Result<Vec<ScenarioResult>, SimError>>()
        });
        let results = bare?;

        let supervision = Supervision::new().with_retries(1);
        let retried = AtomicU64::new(0);
        let count_retries = |event: &BatchEvent| {
            if matches!(event, BatchEvent::Started { attempt, .. } if *attempt > 1) {
                retried.fetch_add(1, Ordering::Relaxed);
            }
        };
        let (supervised_s, outcomes) = run.timed("noc_exp.run_batch_supervised", || {
            run_batch_supervised(&points, 1, &supervision, None, count_retries)
        });
        m.set("noc_exp.supervise_ratio", supervised_s / bare_s.max(1e-12));
        let agree = outcomes
            .iter()
            .map(PointOutcome::result)
            .eq(results.iter().map(Some));
        run.check(
            "supervised_equals_bare",
            agree,
            format!("{} probe points", points.len()),
        );

        let (parallel_s, _) = run.timed("noc_exp.par_map", || {
            par_map(&points, 2, |_, point| point.run().is_ok())
        });
        m.set("noc_exp.par_map_speedup", bare_s / parallel_s.max(1e-12));

        // Ledger append, then the dump, reopen and fully cached resume
        // that follow a sweep — unless the workload is a sweep and has
        // measured those over its own points (spec_sweep).
        let dir = run.scratch_dir();
        let path = dir.join("probe.ledger.jsonl");
        let inner = run.spans.enter("noc_exp.ledger_append", None);
        let appended = (|| -> std::io::Result<f64> {
            let mut ledger = Ledger::open(&path)?;
            let mut appends = Vec::new();
            for (point, result) in points.iter().zip(&results) {
                let hash = spec_hash(point);
                let (s, appended) = time(|| ledger.record(hash, result));
                appended?;
                appends.push(s);
            }
            Ok(median(&appends))
        })();
        run.spans.exit(inner);
        match appended {
            Ok(append_s) => {
                m.set("noc_exp.ledger_append_us", append_s * 1e6);
                if m.get("noc_exp.resume_ms").is_none() {
                    // A failure is already booked on `run`.
                    for (name, value) in
                        dump_and_resume(run, &path, &points, &results).unwrap_or_default()
                    {
                        m.set(name, value);
                    }
                }
            }
            Err(e) => run.check("probe_ledger_io", false, e.to_string()),
        }
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            run.check("probe_ledger_io", false, e.to_string());
        }
        m.set(
            "noc_exp.points_retried",
            retried.load(Ordering::Relaxed) as f64,
        );
        Ok(())
    })();
    run.spans.exit(span);
    outcome
}
