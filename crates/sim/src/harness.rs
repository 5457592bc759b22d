//! Experiment helpers: the single polled run ([`run_once`]) and the
//! paper's saturation criterion ([`saturation_rate`]). Batches of runs
//! live a layer up, as `noc_exp::Scenario`s in one
//! `noc_exp::run_batch_supervised` batch — spec files and the `repro`
//! binary's figures alike.
//!
//! [`run_once`] propagates [`SimError`]: a deadlocked run surfaces as a
//! structured value the caller can record or print-and-exit on — never a
//! panic that takes a worker pool down.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::sim::Simulator;
use crate::stats::RunSummary;
use adele::online::ElevatorSelector;
use noc_traffic::TrafficSource;

/// Runs one simulation over a polled workload (see [`Simulator::new`]).
///
/// Takes the configuration by reference and clones it internally; one
/// `SimConfig` can drive a whole family of runs.
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

/// The paper's saturation criterion: the first of the swept `rates` whose
/// run (`summaries[i]` is the run at `rates[i]`) has an average latency
/// above `10 × zero_load` — the latency at a token injection rate — or
/// failed to drain. `None` if the sweep never saturates.
///
/// Note the asymmetry with [`SimError`]: a rate that *saturates* (the
/// drain cap expires with packets still in flight) is a legitimate sweep
/// outcome reported through `completed = false`, not an error.
#[must_use]
pub fn saturation_rate(rates: &[f64], summaries: &[RunSummary], zero_load: f64) -> Option<f64> {
    rates
        .iter()
        .zip(summaries)
        .find(|(_, s)| !s.completed || s.avg_latency > 10.0 * zero_load)
        .map(|(&rate, _)| rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adele::online::ElevatorFirstSelector;
    use noc_topology::{ElevatorSet, Mesh3d};
    use noc_traffic::SyntheticTraffic;

    fn fixture() -> SimConfig {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(1, 1)]).unwrap();
        SimConfig::new(mesh, elevators).with_phases(200, 600, 3000)
    }

    /// One run per rate, fresh traffic and selector each.
    fn sweep(config: &SimConfig, rates: &[f64], seed: u64) -> Vec<RunSummary> {
        rates
            .iter()
            .map(|&rate| {
                run_once(
                    config,
                    Box::new(SyntheticTraffic::uniform(&config.mesh, rate, seed)),
                    Box::new(ElevatorFirstSelector::new(&config.mesh, &config.elevators)),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn sweep_produces_monotone_ish_latency() {
        let points = sweep(&fixture(), &[0.0005, 0.004], 3);
        assert_eq!(points.len(), 2);
        assert!(points[1].avg_latency >= points[0].avg_latency * 0.8);
    }

    #[test]
    fn saturation_detects_overload() {
        let config = fixture();
        let zero = sweep(&config, &[1e-4], 9)[0].avg_latency;
        assert!(zero > 0.0);
        // One elevator for 32 nodes saturates quickly under uniform load.
        let rates = [0.0005, 0.05];
        let sat = saturation_rate(&rates, &sweep(&config, &rates, 9), zero);
        assert_eq!(sat, Some(0.05));
    }
}
