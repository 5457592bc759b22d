//! Experiment helpers: single runs, zero-load latency and saturation
//! detection — the building blocks every figure harness uses (the
//! injection sweep itself fans out on `noc_exp::runner::injection_sweep`).
//! Workloads are boxed [`ScheduledSource`]s, as `WorkloadSpec::build`
//! returns them; [`run_once`] is the shorthand for a polled source.
//!
//! Every entry point propagates [`SimError`]: a deadlocked run surfaces
//! as a structured value the caller can record (sweep supervisors) or
//! print-and-exit on (figure binaries) — never a panic that takes a
//! worker pool down.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::sim::Simulator;
use crate::stats::RunSummary;
use adele::online::ElevatorSelector;
use noc_traffic::{ScheduledSource, TrafficSource};

/// A factory producing a fresh workload for a given injection rate.
pub type InputFactory<'a> = dyn Fn(f64) -> Box<dyn ScheduledSource> + 'a;
/// A factory producing a fresh selector for each run.
pub type SelectorFactory<'a> = dyn Fn() -> Box<dyn ElevatorSelector> + 'a;

/// One point of an injection sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Offered packet injection rate (packets/node/cycle).
    pub rate: f64,
    /// Run result at that rate.
    pub summary: RunSummary,
}

/// Runs one simulation over a polled workload (see [`Simulator::new`]).
///
/// Takes the configuration by reference — like every other harness entry
/// point — and clones it internally; one `SimConfig` can drive a whole
/// family of runs.
///
/// # Errors
///
/// Propagates [`SimError`] from the run (deadlock watchdog).
pub fn run_once(
    config: &SimConfig,
    traffic: Box<dyn TrafficSource>,
    selector: Box<dyn ElevatorSelector>,
) -> Result<RunSummary, SimError> {
    Simulator::new(config.clone(), traffic, selector).run()
}

/// Runs one simulation (see [`Simulator::from_scheduled`]).
///
/// # Errors
///
/// Propagates [`SimError`] from the run (deadlock watchdog).
pub fn run_once_input(
    config: &SimConfig,
    input: Box<dyn ScheduledSource>,
    selector: Box<dyn ElevatorSelector>,
) -> Result<RunSummary, SimError> {
    Simulator::from_scheduled(config.clone(), input, selector).run()
}

/// Measures the zero-load latency: the average latency at a token
/// injection rate (1e-4), the baseline of the paper's saturation
/// definition.
///
/// # Errors
///
/// Propagates [`SimError`] from the run (deadlock watchdog).
pub fn zero_load_latency(
    config: &SimConfig,
    new_input: &InputFactory<'_>,
    new_selector: &SelectorFactory<'_>,
) -> Result<f64, SimError> {
    Ok(run_once_input(config, new_input(1e-4), new_selector())?.avg_latency)
}

/// The paper's saturation criterion: the first swept rate whose latency
/// exceeds `10 × zero_load` (or whose run failed to drain). `None` if the
/// sweep never saturates.
///
/// Note the asymmetry with [`SimError`]: a rate that *saturates* (the
/// drain cap expires with packets still in flight) is a legitimate sweep
/// outcome reported through `completed = false`, not an error.
#[must_use]
pub fn saturation_rate(points: &[SweepPoint], zero_load: f64) -> Option<f64> {
    points
        .iter()
        .find(|p| !p.summary.completed || p.summary.avg_latency > 10.0 * zero_load)
        .map(|p| p.rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adele::online::ElevatorFirstSelector;
    use noc_topology::{ElevatorSet, Mesh3d};
    use noc_traffic::{CyclePolled, SyntheticTraffic};

    fn fixture() -> SimConfig {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(1, 1)]).unwrap();
        SimConfig::new(mesh, elevators).with_phases(200, 600, 3000)
    }

    /// One [`SweepPoint`] per rate, fresh traffic and selector each.
    fn sweep(config: &SimConfig, rates: &[f64], seed: u64) -> Vec<SweepPoint> {
        rates
            .iter()
            .map(|&rate| SweepPoint {
                rate,
                summary: run_once(
                    config,
                    Box::new(SyntheticTraffic::uniform(&config.mesh, rate, seed)),
                    Box::new(ElevatorFirstSelector::new(&config.mesh, &config.elevators)),
                )
                .unwrap(),
            })
            .collect()
    }

    #[test]
    fn sweep_produces_monotone_ish_latency() {
        let points = sweep(&fixture(), &[0.0005, 0.004], 3);
        assert_eq!(points.len(), 2);
        assert!(points[1].summary.avg_latency >= points[0].summary.avg_latency * 0.8);
    }

    #[test]
    fn saturation_detects_overload() {
        let config = fixture();
        let mesh = config.mesh;
        let elevators = config.elevators.clone();
        let zero = zero_load_latency(
            &config,
            &|rate| {
                let polled = SyntheticTraffic::uniform(&mesh, rate, 9);
                Box::new(CyclePolled::new(Box::new(polled), mesh.node_count()))
            },
            &|| Box::new(ElevatorFirstSelector::new(&mesh, &elevators)),
        )
        .unwrap();
        assert!(zero > 0.0);
        // One elevator for 32 nodes saturates quickly under uniform load.
        let sat = saturation_rate(&sweep(&config, &[0.0005, 0.05], 9), zero);
        assert_eq!(sat, Some(0.05));
    }
}
