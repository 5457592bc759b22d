//! The `v1` ↔ `v2` workload-stream contract.
//!
//! `v2` (event-driven batched injection) is a *different RNG stream* from
//! `v1` (per-node-per-cycle polling), so the two can never be compared
//! bit for bit. What this suite pins instead:
//!
//! * **Statistical equivalence** — per-node injected-packet counts and
//!   inter-arrival gap moments of a `v2` source match its `v1` twin
//!   within explicit binomial/geometric bounds (stated inline at each
//!   assertion: counts within 6 standard deviations of the two-stream
//!   difference distribution, gap moments within 5–15 %).
//! * **Determinism** — a `v2` run is bit-identical across repeats and
//!   across worker counts of the `noc_exp` pool.
//! * **Directives under batching** — mid-run `ScaleRate`/`SetHotspots`
//!   delivered to a `v2` source shift the measured rates/destinations as
//!   expected and preserve determinism (the calendar flush + resample
//!   path).

use noc_exp::{
    run_batch_supervised, Event, Scenario, StreamVersion, Supervision, WorkloadKind, WorkloadSpec,
};
use noc_sim::{SimConfig, Simulator};
use noc_topology::{Coord, ElevatorSet, Mesh3d};
use noc_traffic::apps::AppKind;
use noc_traffic::injection::{InjectionProcess, OnOffParams};
use noc_traffic::pattern::Uniform;
use noc_traffic::{
    BatchedSynthetic, CyclePolled, ScheduledInjection, ScheduledSource, SyntheticParts,
    SyntheticTraffic, TrafficSource,
};
use proptest::prelude::*;

fn mesh() -> Mesh3d {
    Mesh3d::new(4, 4, 4).unwrap()
}

/// Collects `(cycle, node, flits)` injection events from a polled source.
fn polled_events(source: &mut dyn TrafficSource, mesh: &Mesh3d, cycles: u64) -> Vec<(u64, u16)> {
    let mut events = Vec::new();
    for cycle in 0..cycles {
        for node in mesh.node_ids() {
            if source.maybe_inject(node, cycle).is_some() {
                events.push((cycle, node.0));
            }
        }
    }
    events
}

/// Collects injection events from a scheduled source in 64-cycle batches.
fn scheduled_events(source: &mut dyn ScheduledSource, cycles: u64) -> Vec<(u64, u16)> {
    let mut events = Vec::new();
    let mut at = 0;
    while at < cycles {
        let up_to = (at + 63).min(cycles - 1);
        for inj in source.next_injections(up_to) {
            events.push((inj.cycle, inj.node.0));
        }
        at = up_to + 1;
    }
    events
}

fn per_node_counts(events: &[(u64, u16)], nodes: usize) -> Vec<u64> {
    let mut counts = vec![0u64; nodes];
    for &(_, node) in events {
        counts[node as usize] += 1;
    }
    counts
}

/// Inter-arrival gaps per node, pooled across nodes.
fn gaps(events: &[(u64, u16)], nodes: usize) -> Vec<f64> {
    let mut last = vec![None::<u64>; nodes];
    let mut out = Vec::new();
    for &(cycle, node) in events {
        if let Some(prev) = last[node as usize] {
            out.push((cycle - prev) as f64);
        }
        last[node as usize] = Some(cycle);
    }
    out
}

fn mean_var(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    (mean, var)
}

/// Per-node counts of two independent realisations of Bernoulli(C, p)
/// must agree within 6 standard deviations of their difference
/// (σ_diff = √(2·C·p·(1−p))); the network-wide total within 6σ of its own
/// difference distribution. These are the deviation bounds the `v2`
/// stream is accepted under.
fn assert_count_equivalence(rate: f64, cycles: u64, v1: &[u64], v2: &[u64], what: &str) {
    let sd_node = (2.0 * cycles as f64 * rate * (1.0 - rate)).sqrt();
    let bound_node = 6.0 * sd_node + 3.0; // +3 absolute slack for tiny rates
    for (node, (a, b)) in v1.iter().zip(v2).enumerate() {
        let diff = (*a as f64 - *b as f64).abs();
        assert!(
            diff <= bound_node,
            "{what}: node {node} counts {a} (v1) vs {b} (v2) differ by {diff} > 6σ+3 = {bound_node}"
        );
    }
    let (ta, tb) = (v1.iter().sum::<u64>() as f64, v2.iter().sum::<u64>() as f64);
    let sd_total = (v1.len() as f64).sqrt() * sd_node;
    assert!(
        (ta - tb).abs() <= 6.0 * sd_total + 3.0,
        "{what}: totals {ta} (v1) vs {tb} (v2) differ beyond 6σ = {}",
        6.0 * sd_total
    );
}

#[test]
fn uniform_per_node_counts_and_gaps_match_within_bounds() {
    let mesh = mesh();
    let (rate, cycles) = (0.02, 30_000);
    let v1 = polled_events(
        &mut SyntheticTraffic::uniform(&mesh, rate, 11),
        &mesh,
        cycles,
    );
    let v2 = scheduled_events(&mut BatchedSynthetic::uniform(&mesh, rate, 11), cycles);
    assert_count_equivalence(
        rate,
        cycles,
        &per_node_counts(&v1, 64),
        &per_node_counts(&v2, 64),
        "uniform",
    );

    // Inter-arrival distribution: geometric with mean 1/p and variance
    // (1-p)/p²; the two streams' pooled moments must agree with theory
    // within 5 % (mean) / 15 % (variance) and with each other within 7 %.
    let expect_mean = 1.0 / rate;
    let expect_var = (1.0 - rate) / (rate * rate);
    let (m1, var1) = mean_var(&gaps(&v1, 64));
    let (m2, var2) = mean_var(&gaps(&v2, 64));
    for (what, mean, var) in [("v1", m1, var1), ("v2", m2, var2)] {
        assert!(
            (mean - expect_mean).abs() < 0.05 * expect_mean,
            "{what} gap mean {mean} vs {expect_mean}"
        );
        assert!(
            (var - expect_var).abs() < 0.15 * expect_var,
            "{what} gap variance {var} vs {expect_var}"
        );
    }
    assert!((m1 - m2).abs() < 0.07 * expect_mean, "means {m1} vs {m2}");
}

#[test]
fn low_rate_counts_match_within_bounds() {
    // The sweep regime the scheduler exists for: rates where most nodes
    // are idle most cycles.
    let mesh = mesh();
    let (rate, cycles) = (0.0008, 200_000);
    let v1 = polled_events(
        &mut SyntheticTraffic::uniform(&mesh, rate, 5),
        &mesh,
        cycles,
    );
    let v2 = scheduled_events(&mut BatchedSynthetic::uniform(&mesh, rate, 5), cycles);
    assert_count_equivalence(
        rate,
        cycles,
        &per_node_counts(&v1, 64),
        &per_node_counts(&v2, 64),
        "low-rate uniform",
    );
}

#[test]
fn bursty_phase_aware_sampling_preserves_load_and_support() {
    let mesh = mesh();
    let (rate, cycles) = (0.03, 60_000);
    let params = OnOffParams::new(0.02, 0.005, 0.1);
    let parts = || {
        let uniform = Box::new(Uniform::new(mesh.node_count()));
        SyntheticParts::new(&mesh, uniform, InjectionProcess::on_off(rate, params))
    };
    let v1 = polled_events(&mut SyntheticTraffic::from_parts(parts(), 7), &mesh, cycles);
    let v2 = scheduled_events(&mut BatchedSynthetic::from_parts(parts(), 7), cycles);
    // The on/off modulation inflates count variance beyond plain binomial
    // (long correlated phases), so the per-node bound widens: the
    // modulation factor is bounded by on_scale, giving σ ≤ √(2·C·p·s_on).
    let scale = params.on_scale();
    let sd = (2.0 * cycles as f64 * rate * scale).sqrt() * 2.0;
    let (c1, c2) = (per_node_counts(&v1, 64), per_node_counts(&v2, 64));
    for (node, (a, b)) in c1.iter().zip(&c2).enumerate() {
        let diff = (*a as f64 - *b as f64).abs();
        assert!(
            diff <= 6.0 * sd,
            "bursty node {node}: {a} vs {b} differ by {diff} > {}",
            6.0 * sd
        );
    }
    let (t1, t2) = (c1.iter().sum::<u64>() as f64, c2.iter().sum::<u64>() as f64);
    assert!(
        (t1 - t2).abs() < 0.05 * t1,
        "bursty totals {t1} vs {t2} differ beyond 5 %"
    );
}

#[test]
fn shuffle_shares_support_with_v1() {
    let mesh = mesh();
    // Shuffle: exactly the fixed points stay silent on both streams.
    let v1 = polled_events(
        &mut SyntheticTraffic::from_parts(SyntheticParts::shuffle(&mesh, 0.05), 3),
        &mesh,
        20_000,
    );
    let v2 = scheduled_events(
        &mut BatchedSynthetic::from_parts(SyntheticParts::shuffle(&mesh, 0.05), 3),
        20_000,
    );
    let silent = |events: &[(u64, u16)]| {
        let counts = per_node_counts(events, 64);
        (0..64u16)
            .filter(|&n| counts[n as usize] == 0)
            .collect::<Vec<_>>()
    };
    assert_eq!(silent(&v1), silent(&v2), "same shuffle fixed points");
    assert_count_equivalence(
        0.05,
        20_000,
        &per_node_counts(&v1, 64),
        &per_node_counts(&v2, 64),
        "shuffle (fixed points hold at count 0)",
    );
}

fn v2_scenario(seed: u64) -> Scenario {
    let mesh = Mesh3d::new(4, 4, 2).unwrap();
    let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
    Scenario::new("v2", mesh, elevators)
        .with_phases(200, 800, 4_000)
        .with_workload(WorkloadSpec::v2(WorkloadKind::Uniform { rate: 0.004 }))
        .with_seed(seed)
}

#[test]
fn v2_runs_are_bit_identical_across_repeats_and_worker_counts() {
    let a = v2_scenario(7).run().unwrap();
    let b = v2_scenario(7).run().unwrap();
    assert_eq!(a, b, "same seed, same v2 stream, same summary");
    assert!(a.summary.delivered_packets > 0);
    assert!(a.summary.completed);

    // Worker counts shard scenario batches, never perturb results.
    let batch: Vec<Scenario> = (0..6).map(|i| v2_scenario(100 + i)).collect();
    let run_on = |workers| run_batch_supervised(&batch, workers, &Supervision::new(), None, |_| {});
    let one = run_on(1);
    assert!(one.iter().all(|outcome| outcome.is_ok()));
    for workers in [2, 4, 8] {
        assert_eq!(
            run_on(workers),
            one,
            "{workers}-worker v2 batch must match the single-worker run"
        );
    }
}

/// Measured windows on a `v2` stream repeat bit-identically, whatever the
/// spec's ignored `shards` field says: the batched calendar hands its
/// injections to the one router range without perturbing the stream.
#[test]
fn v2_windows_are_bit_identical_at_every_shard_count() {
    let run = |shards: usize| {
        let mut scenario = v2_scenario(11);
        scenario.shards = shards;
        let mut sim = scenario.build_simulator();
        sim.advance(200).unwrap();
        sim.measure_window(800).unwrap()
    };
    let window = run(1);
    assert!(window.delivered_packets > 0, "sanity: traffic flowed");
    assert_eq!(window, run(8), "the window must repeat bit-identically");
}

#[test]
fn v2_offered_load_matches_v1_in_a_full_simulation() {
    let base = v2_scenario(21);
    let v1 = base
        .clone()
        .with_stream(StreamVersion::V1)
        .run()
        .unwrap()
        .summary
        .injected_packets as f64;
    let v2 = base.run().unwrap().summary.injected_packets as f64;
    // 1000 injection cycles × 32 nodes × rate 0.004 ≈ 128 packets; 6σ of
    // the two-stream difference is √(2·n·p(1-p))·6 ≈ 96. Allow exactly
    // that.
    let sd = (2.0f64 * 1_000.0 * 32.0 * 0.004 * 0.996).sqrt();
    assert!(
        (v1 - v2).abs() <= 6.0 * sd,
        "injected {v1} (v1) vs {v2} (v2) differ beyond 6σ = {}",
        6.0 * sd
    );
}

#[test]
fn every_workload_kind_delivers_on_v2() {
    let kinds = [
        WorkloadKind::Uniform { rate: 0.004 },
        WorkloadKind::Shuffle { rate: 0.004 },
        WorkloadKind::Hotspot {
            rate: 0.004,
            hotspots: vec![Coord::new(1, 1, 1)],
            fraction: 0.4,
        },
        WorkloadKind::App {
            app: AppKind::Fft,
            rate: 0.004,
        },
    ];
    for kind in kinds {
        let scenario = v2_scenario(3).with_workload(WorkloadSpec::v2(kind.clone()));
        let a = scenario.run().unwrap();
        assert!(
            a.summary.delivered_packets > 0,
            "{kind:?} must deliver on v2"
        );
        assert_eq!(
            a,
            scenario.run().unwrap(),
            "{kind:?} must stay deterministic"
        );
    }
}

/// A `v2` simulator driven directly (no scenario layer), for directive
/// tests that need windowed measurements.
fn v2_simulator(rate: f64, seed: u64) -> Simulator {
    let mesh = Mesh3d::new(4, 4, 2).unwrap();
    let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
    let config = SimConfig::new(mesh, elevators.clone())
        .with_phases(200, 800, 4_000)
        .with_seed(seed);
    let input = Box::new(BatchedSynthetic::uniform(&mesh, rate, seed));
    let selector = adele::online::ElevatorFirstSelector::new(&mesh, &elevators);
    Simulator::from_scheduled(config, input, Box::new(selector))
}

proptest! {
    /// Mid-run `ScaleRate` on a batched source: the calendar flush +
    /// resample keeps determinism, and the measured rate shifts by the
    /// commanded factor (within 6σ binomial bounds per window).
    #[test]
    fn scale_rate_mid_run_shifts_v2_load(
        factor_idx in 0usize..4,
        seed in 0u64..30,
    ) {
        let factor = [0.0, 0.5, 2.0, 3.0][factor_idx];
        let rate = 0.004;
        let window = 1_500u64;
        let run = || {
            let mut sim = v2_simulator(rate, seed);
            sim.advance(100).unwrap();
            let before = sim.measure_window(window).unwrap();
            sim.schedule(Event::InjectionBurst { cycle: sim.cycle(), factor });
            let after = sim.measure_window(window).unwrap();
            (before, after)
        };
        let (before, after) = run();
        let (before2, after2) = run();
        prop_assert_eq!(&before, &before2, "pre-event window must reproduce");
        prop_assert_eq!(&after, &after2, "post-event window must reproduce");

        let expected = |r: f64| window as f64 * 32.0 * r;
        let sd = |r: f64| (window as f64 * 32.0 * r * (1.0 - r)).sqrt();
        prop_assert!(
            (before.injected_packets as f64 - expected(rate)).abs() <= 6.0 * sd(rate) + 3.0,
            "baseline window off: {} vs {}", before.injected_packets, expected(rate)
        );
        let scaled = rate * factor;
        prop_assert!(
            (after.injected_packets as f64 - expected(scaled)).abs() <= 6.0 * sd(scaled) + 3.0,
            "scaled window off: {} vs {} (factor {})",
            after.injected_packets, expected(scaled), factor
        );
    }

    /// Mid-run `SetHotspots` on a batched source: destinations re-aim at
    /// the hotspot, injection timing stays on-rate, determinism holds.
    #[test]
    fn set_hotspots_mid_run_redirects_v2_destinations(seed in 0u64..30) {
        // An off-pillar hotspot, so the flit count measures re-aimed
        // destinations rather than elevator transit noise.
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let hot = Coord::new(2, 1, 1);
        let hot_id = mesh.node_id(hot).unwrap();
        let run = || {
            let mut sim = v2_simulator(0.006, seed);
            sim.advance(100).unwrap();
            let before = sim.measure_window(1_200).unwrap();
            sim.schedule(Event::HotspotShift {
                cycle: sim.cycle(),
                hotspots: vec![hot],
                fraction: 0.9,
            });
            let after = sim.measure_window(1_200).unwrap();
            (before, after)
        };
        let (before, after) = run();
        let (before2, after2) = run();
        prop_assert_eq!(&before, &before2);
        prop_assert_eq!(&after, &after2);
        prop_assert!(
            after.router_flits[hot_id.index()] > before.router_flits[hot_id.index()],
            "hotspot router must see more flits after the shift ({} vs {})",
            after.router_flits[hot_id.index()],
            before.router_flits[hot_id.index()]
        );
        // The shift changes destinations, not the offered load: the two
        // windows differ only by binomial noise (6σ of the two-window
        // difference, σ_diff = √(2·n·p·(1−p))).
        let (b, a) = (before.injected_packets as f64, after.injected_packets as f64);
        let sd_diff = (2.0 * 1_200.0 * 32.0 * 0.006 * 0.994f64).sqrt();
        prop_assert!((b - a).abs() <= 6.0 * sd_diff, "load moved: {b} vs {a}");
    }

    /// Scenario-layer events (the exp_engine harness) on a v2 workload:
    /// a scheduled burst raises the injected count, deterministically.
    #[test]
    fn burst_events_on_v2_scenarios_stay_deterministic(
        cycle in 0u64..600,
        seed in 0u64..20,
    ) {
        let base = v2_scenario(seed);
        let burst = base
            .clone()
            .with_event(Event::InjectionBurst { cycle, factor: 3.0 });
        let a = burst.run().unwrap();
        prop_assert_eq!(&a, &burst.run().unwrap(), "event runs must reproduce");
        let plain = base.run().unwrap();
        prop_assert!(
            a.summary.injected_packets > plain.summary.injected_packets,
            "a 3x burst must raise injections ({} vs {})",
            a.summary.injected_packets,
            plain.summary.injected_packets
        );
    }
}

/// The calendar prefetches up to 64 cycles ahead; injections already
/// handed to the simulator's calendar but not yet due must be flushed by
/// a directive, not delivered stale (the scheduler's core correctness
/// property under events).
#[test]
fn directive_silences_prefetched_cycles() {
    let mut sim = v2_simulator(0.05, 3);
    sim.advance(10).unwrap(); // calendar has prefetched well past cycle 10
    sim.schedule(Event::InjectionBurst {
        cycle: sim.cycle(),
        factor: 0.0,
    });
    let window = sim.measure_window(500).unwrap();
    assert_eq!(
        window.injected_packets, 0,
        "a zero-factor directive must silence prefetched injections too"
    );
}

#[test]
fn polled_adapter_keeps_apps_stream_invariant() {
    // An app has no batched generator: on v2 it goes through the
    // CyclePolled adapter, which replays the polled call sequence
    // exactly, so v1 and v2 are the same stream.
    let kind = WorkloadKind::App {
        app: AppKind::Fft,
        rate: 0.004,
    };
    let v1 = v2_scenario(9)
        .with_workload(WorkloadSpec::v1(kind.clone()))
        .run()
        .unwrap();
    let v2 = v2_scenario(9)
        .with_workload(WorkloadSpec::v2(kind))
        .run()
        .unwrap();
    assert_eq!(
        v1.summary, v2.summary,
        "the polled adapter replays the v1 stream verbatim"
    );
}

/// Why app workloads are stream-invariant:
/// [`Simulator::new`] wraps a polled source in [`CyclePolled`] itself, so
/// handing the simulator the source polled or pre-wrapped as a scheduled
/// one is the same run.
#[test]
fn a_polled_source_runs_identically_polled_and_cycle_polled() {
    use noc_traffic::apps::AppTraffic;
    let mesh = Mesh3d::new(4, 4, 2).unwrap();
    let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
    let config = SimConfig::new(mesh, elevators.clone()).with_phases(200, 800, 4_000);
    let selector = || Box::new(adele::online::ElevatorFirstSelector::new(&mesh, &elevators));
    let app = || Box::new(AppTraffic::new(AppKind::ALL[0], &mesh, 0.004, 21));
    let polled = Simulator::new(config.clone(), app(), selector())
        .run()
        .unwrap();
    let wrapped = Box::new(CyclePolled::new(app(), mesh.node_count()));
    let scheduled = Simulator::from_scheduled(config.clone(), wrapped, selector())
        .run()
        .unwrap();
    assert!(polled.delivered_packets > 0, "sanity: the app injected");
    assert_eq!(polled, scheduled);
}

#[test]
fn scheduled_injection_structs_expose_their_fields() {
    // Regression guard for the public batch item shape.
    let mesh = mesh();
    let mut source = BatchedSynthetic::uniform(&mesh, 1.0, 1);
    let batch: Vec<ScheduledInjection> = source.next_injections(0).to_vec();
    assert_eq!(batch.len(), 64);
    assert!(batch.iter().all(|inj| inj.cycle == 0));
    assert!(batch.iter().all(|inj| inj.request.flits >= 10));
}
