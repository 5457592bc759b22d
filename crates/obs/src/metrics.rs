//! The hot-path metrics registry: monotonic counters plus windowed phase
//! timers, all plain data.
//!
//! The registry is written by the *watched* cycle only; the unwatched
//! one never touches it, which is what keeps the disabled-tracing
//! overhead at zero. Everything here is cumulative — window records are
//! produced by [`MetricsRegistry::close_window`], which returns the delta
//! since the previous close and never resets the running totals (so the
//! registry is also a whole-run summary).

use serde::Value;
use std::time::Duration;

/// Wall-clock time spent in each phase of a simulation cycle.
///
/// * `inject` — command dispatch + traffic generation + injection,
/// * `compute` — phase 1: routing/arbitration, NI injection and worklist
///   re-arming in one pass,
/// * `exchange` — commits of the staged flit arrivals, credit returns
///   and NI credit returns,
/// * `commit` — global effect replay + bookkeeping (`finish_cycle` and
///   `post_step`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Injection phase (traffic generation + command dispatch).
    pub inject: Duration,
    /// Compute phase (phase 1).
    pub compute: Duration,
    /// Exchange phase (the commit of staged traffic).
    pub exchange: Duration,
    /// Serial commit phase (effect replay + statistics).
    pub commit: Duration,
}

impl PhaseTimes {
    /// Sum of all four phases.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.inject + self.compute + self.exchange + self.commit
    }

    /// Element-wise `self - earlier` (saturating, for monotonic inputs).
    #[must_use]
    pub fn since(&self, earlier: &PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            inject: self.inject.saturating_sub(earlier.inject),
            compute: self.compute.saturating_sub(earlier.compute),
            exchange: self.exchange.saturating_sub(earlier.exchange),
            commit: self.commit.saturating_sub(earlier.commit),
        }
    }

    /// Adds `other` into `self`.
    pub fn accumulate(&mut self, other: &PhaseTimes) {
        self.inject += other.inject;
        self.compute += other.compute;
        self.exchange += other.exchange;
        self.commit += other.commit;
    }

    /// The `timing` object of a `window` record: nanoseconds per phase.
    /// Timing is host-dependent, so replay comparison checks these keys
    /// for *presence only*.
    #[must_use]
    pub fn timing_value(&self) -> Value {
        let ns = |d: Duration| Value::UInt(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        Value::Object(vec![
            ("inject_ns".to_string(), ns(self.inject)),
            ("compute_ns".to_string(), ns(self.compute)),
            ("exchange_ns".to_string(), ns(self.exchange)),
            ("commit_ns".to_string(), ns(self.commit)),
        ])
    }
}

/// The windowed delta returned by [`MetricsRegistry::close_window`].
#[derive(Debug, Clone, Default)]
pub struct WindowDelta {
    /// Cycles covered by this window.
    pub cycles: u64,
    /// Phase wall times accumulated over the window.
    pub phase: PhaseTimes,
    /// Cycles in which the fabric moved or injected a flit.
    pub busy: u64,
}

impl WindowDelta {
    /// The `aux` object of a `window` record: environmental gauges,
    /// compared for key presence only on replay. The schema-2 keys stay
    /// for journal compatibility: the fabric is one router range, so
    /// nothing crosses a boundary (`boundary_*` are 0), `shard_busy` has
    /// the one entry [`Self::busy`], and `pooled` is `false`.
    #[must_use]
    pub fn aux_value(&self) -> Value {
        Value::Object(vec![
            ("cycles".to_string(), Value::UInt(self.cycles)),
            ("boundary_flits".to_string(), Value::UInt(0)),
            ("boundary_credits".to_string(), Value::UInt(0)),
            (
                "shard_busy".to_string(),
                Value::Array(vec![Value::UInt(self.busy)]),
            ),
            ("pooled".to_string(), Value::Bool(false)),
        ])
    }
}

/// Cumulative hot-path metrics for one traced simulator.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    cycles: u64,
    phase: PhaseTimes,
    busy: u64,
    windows: u64,
    // Marks at the last window close (cumulative values snapshot).
    mark_cycles: u64,
    mark_phase: PhaseTimes,
    mark_busy: u64,
}

impl MetricsRegistry {
    /// A fresh registry with all counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Books one watched cycle: its phase wall times and whether the
    /// fabric moved or injected a flit.
    pub fn on_cycle(&mut self, phase: &PhaseTimes, busy: bool) {
        self.cycles += 1;
        self.phase.accumulate(phase);
        self.busy += u64::from(busy);
    }

    /// Cycles booked so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Window records emitted so far.
    #[must_use]
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Cumulative phase wall times.
    #[must_use]
    pub fn phase(&self) -> &PhaseTimes {
        &self.phase
    }

    /// Closes the current window: returns the delta since the last close
    /// and advances the marks. Cumulative totals are untouched.
    pub fn close_window(&mut self) -> WindowDelta {
        let delta = WindowDelta {
            cycles: self.cycles - self.mark_cycles,
            phase: self.phase.since(&self.mark_phase),
            busy: self.busy - self.mark_busy,
        };
        self.mark_cycles = self.cycles;
        self.mark_phase = self.phase;
        self.mark_busy = self.busy;
        self.windows += 1;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_deltas_are_exact_and_totals_survive() {
        let mut m = MetricsRegistry::new();
        let phase = PhaseTimes {
            inject: Duration::from_nanos(1),
            compute: Duration::from_nanos(10),
            exchange: Duration::from_nanos(5),
            commit: Duration::from_nanos(7),
        };
        for i in 0..4 {
            m.on_cycle(&phase, i != 2);
        }
        let w1 = m.close_window();
        assert_eq!(w1.cycles, 4);
        assert_eq!(w1.busy, 3);
        assert_eq!(w1.phase.compute, Duration::from_nanos(40));

        m.on_cycle(&phase, true);
        let w2 = m.close_window();
        assert_eq!(w2.cycles, 1);
        assert_eq!(w2.busy, 1);

        assert_eq!(m.cycles(), 5);
        assert_eq!(m.windows(), 2);
        assert_eq!(m.busy, 4);
        assert_eq!(m.phase().total(), Duration::from_nanos(5 * 23));
    }

    #[test]
    fn timing_and_aux_values_carry_the_schema_keys() {
        let delta = WindowDelta {
            cycles: 8,
            phase: PhaseTimes::default(),
            busy: 3,
        };
        let Value::Object(aux) = delta.aux_value() else {
            panic!("aux must be an object")
        };
        let keys: Vec<&str> = aux.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "cycles",
                "boundary_flits",
                "boundary_credits",
                "shard_busy",
                "pooled"
            ]
        );
        let Value::Object(timing) = PhaseTimes::default().timing_value() else {
            panic!("timing must be an object")
        };
        let keys: Vec<&str> = timing.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["inject_ns", "compute_ns", "exchange_ns", "commit_ns"]
        );
    }
}
