//! Fast smoke test of the sweep harness on a tiny 4×4×2 mesh: zero-load
//! latency is finite and positive, an overload sweep terminates (the
//! drain cap bounds every run), and the saturation criterion fires on the
//! overloaded point but not on the light one.

use adele::online::ElevatorFirstSelector;
use noc_sim::harness::{run_once, saturation_rate};
use noc_sim::{RunSummary, SimConfig};
use noc_topology::{ElevatorSet, Mesh3d};
use noc_traffic::SyntheticTraffic;

/// Tiny topology + short windows: the whole file runs in well under a
/// second even in debug builds.
fn tiny_config() -> SimConfig {
    let mesh = Mesh3d::new(4, 4, 2).unwrap();
    let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
    SimConfig::new(mesh, elevators).with_phases(100, 400, 2_000)
}

/// One run per rate, fresh traffic and selector each.
fn sweep(config: &SimConfig, rates: &[f64]) -> Vec<RunSummary> {
    rates
        .iter()
        .map(|&rate| {
            run_once(
                config,
                Box::new(SyntheticTraffic::uniform(&config.mesh, rate, 5)),
                Box::new(ElevatorFirstSelector::new(&config.mesh, &config.elevators)),
            )
            .unwrap()
        })
        .collect()
}

#[test]
fn zero_load_latency_is_finite_and_saturation_detection_terminates() {
    let config = tiny_config();
    // The latency at a token injection rate, as `fig4` probes it.
    let zero = sweep(&config, &[1e-4])[0].avg_latency;
    assert!(
        zero.is_finite(),
        "zero-load latency must be finite, got {zero}"
    );
    assert!(zero > 0.0, "zero-load latency must be positive, got {zero}");
    // Zero-load latency is a handful of cycles on a 4×4×2 mesh; far below
    // the drain cap means the token packets really drained.
    assert!(zero < 200.0, "zero-load latency {zero} is implausibly high");

    // The second rate (0.5 packets/node/cycle) is far past saturation for
    // two elevator columns; the drain cap guarantees the sweep returns.
    let rates = [0.001, 0.5];
    let points = sweep(&config, &rates);
    assert_eq!(points.len(), 2);
    assert!(points[0].completed, "the light point must drain completely");

    let sat = saturation_rate(&rates, &points, zero);
    assert_eq!(
        sat,
        Some(0.5),
        "saturation must be detected exactly at the overloaded point \
         (latencies: {:.1} / {:.1}, zero-load {zero:.1})",
        points[0].avg_latency,
        points[1].avg_latency,
    );
}

#[test]
fn sweep_is_deterministic_for_fixed_seeds() {
    let config = tiny_config();
    assert_eq!(
        sweep(&config, &[0.002, 0.01]),
        sweep(&config, &[0.002, 0.01])
    );
}
