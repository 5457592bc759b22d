//! Structured simulation failures.
//!
//! The engine's promise is that *failure is a value*: a wedged fabric
//! surfaces as a [`SimError`] carrying the exact-cycle diagnostics a
//! post-mortem needs (what cycle, when progress
//! last happened, how much state was in flight, and the state digest
//! that lets two hosts compare the wedged state bit for bit) — never as a panic that takes a whole sweep pool down
//! with it. Supervisors (`noc_exp`'s runner) record these per point and
//! keep going; harness binaries print them and exit nonzero.
//!
//! The diagnostics are deterministic: because runs are functions of
//! `(config, seed)`, an induced deadlock
//! fires at the same cycle with the same digest everywhere — which is
//! what makes these errors *testable* values rather than log lines.

use serde::{Serialize, Value};

/// A structured, recoverable simulation failure.
///
/// Constructed only on the failure path — the per-cycle hot loop pays
/// nothing for the taxonomy beyond the progress comparison the watchdog
/// always made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The deadlock watchdog fired: flits were in flight but no flit
    /// moved and no packet was delivered for more than `watchdog`
    /// consecutive cycles. Elevator-First routing is deadlock-free, so
    /// with a sane watchdog this indicates a simulator or routing bug;
    /// with an adversarially tiny watchdog it flags ordinary credit
    /// bubbles (which is how the chaos harness induces it on demand).
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Last cycle that made progress (or drained the fabric empty).
        last_progress: u64,
        /// The watchdog threshold that was exceeded.
        watchdog: u64,
        /// Live packets in the packet table when the watchdog fired.
        in_flight: u64,
        /// Flits sitting in router FIFOs.
        buffered: u64,
        /// Pending injections in the calendar (0 on the polled stream).
        calendar_depth: u64,
        /// The FNV-1a digest of the wedged architectural state
        /// (`Network::state_digest`).
        state_digest: u64,
    },
}

impl SimError {
    /// The error's stable machine-readable kind (`"deadlock"`) — the
    /// discriminant trace records and ledgers key on.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Deadlock { .. } => "deadlock",
        }
    }

    /// The cycle at which the failure surfaced.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match self {
            SimError::Deadlock { cycle, .. } => *cycle,
        }
    }

    /// The state digest of the failed run — bit-identical for the same
    /// `(config, seed)` on every host.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        match self {
            SimError::Deadlock { state_digest, .. } => *state_digest,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock {
                cycle,
                last_progress,
                watchdog,
                in_flight,
                buffered,
                calendar_depth,
                state_digest,
            } => write!(
                f,
                "deadlock at cycle {cycle}: no progress since cycle {last_progress} \
                 (watchdog {watchdog}), {in_flight} packets in flight, {buffered} flits \
                 buffered, calendar depth {calendar_depth}, state digest {state_digest:016x}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl Serialize for SimError {
    /// A flat object keyed by `kind` — the shape `fail`-status progress
    /// records and completion ledgers embed (no trace-schema bump: the
    /// value rides existing free-form `detail` fields).
    fn to_value(&self) -> Value {
        let digest_hex = |d: &u64| Value::String(format!("{d:016x}"));
        match self {
            SimError::Deadlock {
                cycle,
                last_progress,
                watchdog,
                in_flight,
                buffered,
                calendar_depth,
                state_digest,
            } => Value::Object(vec![
                ("kind".into(), Value::String("deadlock".into())),
                ("cycle".into(), Value::UInt(*cycle)),
                ("last_progress".into(), Value::UInt(*last_progress)),
                ("watchdog".into(), Value::UInt(*watchdog)),
                ("in_flight".into(), Value::UInt(*in_flight)),
                ("buffered".into(), Value::UInt(*buffered)),
                ("calendar_depth".into(), Value::UInt(*calendar_depth)),
                ("state_digest".into(), digest_hex(state_digest)),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimError {
        SimError::Deadlock {
            cycle: 120,
            last_progress: 100,
            watchdog: 19,
            in_flight: 4,
            buffered: 9,
            calendar_depth: 2,
            state_digest: 0xABCD,
        }
    }

    #[test]
    fn display_names_every_diagnostic() {
        let text = sample().to_string();
        for needle in [
            "cycle 120",
            "since cycle 100",
            "watchdog 19",
            "4 packets",
            "9 flits",
            "calendar depth 2",
            "000000000000abcd",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text:?}");
        }
    }

    #[test]
    fn serialises_with_stable_kind() {
        let Value::Object(fields) = sample().to_value() else {
            panic!("SimError must serialise to an object");
        };
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing key {key}"))
        };
        assert_eq!(get("kind"), Value::String("deadlock".into()));
        assert_eq!(get("cycle"), Value::UInt(120));
        assert_eq!(
            get("state_digest"),
            Value::String("000000000000abcd".into())
        );
        assert_eq!(sample().kind(), "deadlock");
        assert_eq!(sample().cycle(), 120);
        assert_eq!(sample().state_digest(), 0xABCD);
    }
}
