//! The hot-path window accumulator: per-phase wall times and a busy
//! count for the open trace window, all plain data.
//!
//! A [`WindowDelta`] is written by the *watched* cycle only; the
//! unwatched one never touches it, which is what keeps the
//! disabled-tracing overhead at zero. Each watched cycle is booked
//! straight into the open window, and closing the window hands it over
//! whole (`std::mem::take`), so the next one starts at zero. Nothing is
//! kept across windows.

use serde::Value;
use std::time::Duration;

/// Wall-clock time spent in each phase of a simulation cycle.
///
/// Each phase is one method of the simulator's fabric, `noc_sim::Network`,
/// or of the simulator around it:
///
/// * `inject` — due events + traffic generation + enqueueing at the NIs,
/// * `compute` — `Network::phase1`: routing/arbitration, NI injection and
///   worklist re-arming in one pass,
/// * `exchange` — `Network::exchange`: lands the staged flit arrivals and
///   credit returns (the NI's included) and resolves the relays,
/// * `commit` — global effect replay + bookkeeping
///   (`Network::finish_cycle` and `Simulator::post_step`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Injection phase (events + traffic generation).
    pub inject: Duration,
    /// Compute phase (`Network::phase1`).
    pub compute: Duration,
    /// Exchange phase (`Network::exchange`).
    pub exchange: Duration,
    /// Serial commit phase (effect replay + statistics).
    pub commit: Duration,
}

impl PhaseTimes {
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

/// The open trace window: what the watched cycles booked since the last
/// `window` record.
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
    /// Books one watched cycle: its phase wall times and whether the
    /// fabric moved or injected a flit.
    pub fn book(&mut self, phase: &PhaseTimes, busy: bool) {
        self.cycles += 1;
        self.phase.accumulate(phase);
        self.busy += u64::from(busy);
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_books_each_cycle_and_take_reopens_it() {
        let mut window = WindowDelta::default();
        let phase = PhaseTimes {
            inject: Duration::from_nanos(1),
            compute: Duration::from_nanos(10),
            exchange: Duration::from_nanos(5),
            commit: Duration::from_nanos(7),
        };
        for i in 0..4 {
            window.book(&phase, i != 2);
        }
        let w1 = std::mem::take(&mut window);
        assert_eq!(w1.cycles, 4);
        assert_eq!(w1.busy, 3);
        assert_eq!(w1.phase.inject, Duration::from_nanos(4));
        assert_eq!(w1.phase.compute, Duration::from_nanos(40));
        assert_eq!(w1.phase.exchange, Duration::from_nanos(20));
        assert_eq!(w1.phase.commit, Duration::from_nanos(28));

        window.book(&phase, true);
        let w2 = std::mem::take(&mut window);
        assert_eq!(w2.cycles, 1);
        assert_eq!(w2.busy, 1);
        assert_eq!(w2.phase, phase);
        assert_eq!(window.cycles, 0, "the next window opens empty");
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
