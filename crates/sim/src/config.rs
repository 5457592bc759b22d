use noc_energy::EnergyModel;
use noc_topology::{ElevatorSet, Mesh3d};

/// Simulation configuration (paper Table I defaults).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The 3D mesh.
    pub mesh: Mesh3d,
    /// Elevator columns.
    pub elevators: ElevatorSet,
    /// Input-FIFO depth in flits (Table I: 4).
    pub buffer_depth: u8,
    /// Cycles simulated before measurement starts.
    pub warmup: u64,
    /// Cycles in the measurement window.
    pub measure: u64,
    /// Maximum extra cycles to let measured packets drain.
    pub drain_max: u64,
    /// Provenance only: the simulator reads this nowhere. Every random
    /// stream is seeded by the traffic source or the selector, so two
    /// configurations that differ only here run identically.
    pub seed: u64,
    /// Energy model.
    pub energy: EnergyModel,
    /// Cycles without progress (while flits are in flight) before the
    /// simulator declares a deadlock and the run fails with
    /// [`crate::SimError::Deadlock`] — a structured value carrying
    /// exact-cycle diagnostics, not a panic. With the default threshold a
    /// deadlock indicates a routing bug (Elevator-First is provably
    /// deadlock-free); adversarially tiny values (`0` is legal) turn
    /// ordinary credit bubbles into deterministic induced failures, which
    /// is what the chaos harness uses to test supervisors.
    pub watchdog: u64,
    /// Record latency/hop histograms on the delivery path (`true` by
    /// default). The histograms are plain counter arrays recorded as each
    /// delivery is booked, so they never affect architectural state or
    /// any other statistic; disabling them removes the one per-delivery
    /// `Option` check (and zeroes the summary's percentile fields) for
    /// harnesses that want the absolute minimum hot path.
    pub histograms: bool,
}

impl SimConfig {
    /// Paper-default configuration for a given topology.
    #[must_use]
    pub fn new(mesh: Mesh3d, elevators: ElevatorSet) -> Self {
        Self {
            mesh,
            elevators,
            buffer_depth: 4,
            warmup: 5_000,
            measure: 20_000,
            drain_max: 50_000,
            seed: 1,
            energy: EnergyModel::default_45nm(),
            watchdog: 20_000,
            histograms: true,
        }
    }

    /// Sets warm-up, measurement, and drain windows (cycles).
    #[must_use]
    pub fn with_phases(mut self, warmup: u64, measure: u64, drain_max: u64) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self.drain_max = drain_max;
        self
    }

    /// Records `seed` on the configuration — provenance only, see
    /// [`SimConfig::seed`]; it changes no result.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the deadlock-watchdog threshold (cycles without progress
    /// while flits are in flight before the run fails with
    /// [`crate::SimError::Deadlock`]). `0` is legal and adversarial: the
    /// first stalled cycle fails the run.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: u64) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Enables or disables the delivery-path latency/hop histograms.
    #[must_use]
    pub fn with_histograms(mut self, histograms: bool) -> Self {
        self.histograms = histograms;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the buffer depth is zero or the measurement window empty.
    pub fn validate(&self) {
        assert!(self.buffer_depth >= 1, "buffer depth must be >= 1");
        assert!(self.measure >= 1, "measurement window must be non-empty");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mesh = Mesh3d::new(2, 2, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0)]).unwrap();
        let c = SimConfig::new(mesh, elevators)
            .with_phases(1, 2, 3)
            .with_seed(9)
            .with_watchdog(7)
            .with_histograms(false);
        assert_eq!((c.warmup, c.measure, c.drain_max), (1, 2, 3));
        assert_eq!(c.seed, 9);
        assert_eq!(c.watchdog, 7);
        assert!(!c.histograms);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "buffer depth")]
    fn validate_rejects_zero_depth() {
        let mesh = Mesh3d::new(2, 2, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0)]).unwrap();
        let mut config = SimConfig::new(mesh, elevators);
        config.buffer_depth = 0;
        config.validate();
    }
}
