//! Deterministic fault injection for the supervised sweep pool.
//!
//! A [`ChaosSpec`] is a seeded schedule of the faults a long sweep can
//! meet in the wild — worker panics, wedged fabrics, slow points, torn
//! result files — rolled per `(point index, attempt)` from a splitmix64
//! stream, so a chaos run is exactly reproducible: same seed, same
//! faults, same survivors. The supervisor consults it at each injection
//! site; production runs simply carry no spec (the hooks are
//! `Option`-gated and cost one branch).
//!
//! Enable it from the environment for CI chaos legs:
//!
//! ```text
//! NOC_CHAOS="seed=7,panic=0.3,deadlock=0.2,delay=0.5,delay_ms=3,torn=1"
//! ```
//!
//! Panics default to striking only the *first* attempt of a point
//! (`panic_attempts=1`), modelling the transient faults retries exist
//! for; raise it to make a point permanently cursed and prove the
//! bounded-retry path.

use crate::scenario::Scenario;
use crate::Event;
use std::time::Duration;

/// A seeded fault-injection schedule (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Master seed for every roll.
    pub seed: u64,
    /// Probability a worker panics mid-point.
    pub panic_prob: f64,
    /// Attempts (1-based) that panics may strike; later retries run
    /// clean, modelling transient faults. `u32::MAX` curses every
    /// attempt.
    pub panic_attempts: u32,
    /// Probability a point's fabric is rigged to wedge (a deterministic
    /// [`noc_sim::SimError::Deadlock`], never retried).
    pub deadlock_prob: f64,
    /// Probability a point is delayed before running (deadline fodder).
    pub delay_prob: f64,
    /// Length of an injected delay, milliseconds.
    pub delay_ms: u64,
    /// Whether the harness should also exercise torn-file recovery
    /// (consumed by `run_specs`, not the supervisor).
    pub torn_files: bool,
}

impl ChaosSpec {
    /// A quiet spec (no faults) with `seed`; switch faults on with the
    /// builder methods.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            panic_prob: 0.0,
            panic_attempts: 1,
            deadlock_prob: 0.0,
            delay_prob: 0.0,
            delay_ms: 0,
            torn_files: false,
        }
    }

    /// Sets the worker-panic probability (first-attempt only unless
    /// [`Self::with_panic_attempts`] raises the strike window).
    #[must_use]
    pub fn with_panics(mut self, prob: f64) -> Self {
        self.panic_prob = prob;
        self
    }

    /// Sets how many leading attempts panics may strike.
    #[must_use]
    pub fn with_panic_attempts(mut self, attempts: u32) -> Self {
        self.panic_attempts = attempts;
        self
    }

    /// Sets the rigged-deadlock probability.
    #[must_use]
    pub fn with_deadlocks(mut self, prob: f64) -> Self {
        self.deadlock_prob = prob;
        self
    }

    /// Sets the point-delay probability and length.
    #[must_use]
    pub fn with_delays(mut self, prob: f64, delay: Duration) -> Self {
        self.delay_prob = prob;
        self.delay_ms = u64::try_from(delay.as_millis()).unwrap_or(u64::MAX);
        self
    }

    /// Parses `NOC_CHAOS` (`key=value` pairs, comma-separated: `seed`,
    /// `panic`, `panic_attempts`, `deadlock`, `delay`, `delay_ms`,
    /// `torn`). Unset or empty means no chaos. Malformed pairs are
    /// warned about on stderr and skipped — a typo weakens the chaos
    /// run, it never aborts it.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("NOC_CHAOS").ok()?;
        if raw.trim().is_empty() {
            return None;
        }
        Some(Self::parse(&raw))
    }

    /// [`Self::from_env`]'s parser, exposed for tests.
    #[must_use]
    pub fn parse(raw: &str) -> Self {
        let mut spec = Self::new(0);
        for pair in raw.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            let ok = match key.trim() {
                "seed" => value.parse().map(|v| spec.seed = v).is_ok(),
                "panic" => value.parse().map(|v| spec.panic_prob = v).is_ok(),
                "panic_attempts" => value.parse().map(|v| spec.panic_attempts = v).is_ok(),
                "deadlock" => value.parse().map(|v| spec.deadlock_prob = v).is_ok(),
                "delay" => value.parse().map(|v| spec.delay_prob = v).is_ok(),
                "delay_ms" => value.parse().map(|v| spec.delay_ms = v).is_ok(),
                "torn" => value
                    .parse::<u8>()
                    .map(|v| spec.torn_files = v != 0)
                    .is_ok(),
                _ => false,
            };
            if !ok {
                eprintln!("warning: ignoring NOC_CHAOS pair {pair:?}");
            }
        }
        spec
    }

    /// A uniform roll in `[0, 1)` for `(index, attempt, site)` —
    /// splitmix64 over the seed and coordinates, so every injection site
    /// draws an independent, reproducible stream.
    fn roll(&self, index: usize, attempt: u32, site: u64) -> f64 {
        let mut x = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((index as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(u64::from(attempt).wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add(site);
        // splitmix64 finaliser.
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Should the worker running `(index, attempt)` panic?
    #[must_use]
    pub fn panics(&self, index: usize, attempt: u32) -> bool {
        attempt <= self.panic_attempts && self.roll(index, attempt, 1) < self.panic_prob
    }

    /// Should point `index` run with a wedged fabric? (Per point, not per
    /// attempt: a rigged deadlock is deterministic, so retrying it would
    /// be spinning — the supervisor records it instead.)
    #[must_use]
    pub fn deadlocks(&self, index: usize) -> bool {
        self.roll(index, 0, 2) < self.deadlock_prob
    }

    /// The injected delay for `(index, attempt)`, if any.
    #[must_use]
    pub fn delay(&self, index: usize, attempt: u32) -> Option<Duration> {
        (self.delay_ms > 0 && self.roll(index, attempt, 3) < self.delay_prob)
            .then(|| Duration::from_millis(self.delay_ms))
    }

    /// Rigs `scenario` to deadlock deterministically: a heavy injection
    /// burst fills the fabric, then the fabric freezes solid for far
    /// longer than the (tightened) watchdog, which converts the wedge
    /// into a [`noc_sim::SimError::Deadlock`] at an exact, reproducible
    /// cycle. The *original* scenario's hash is what the ledger keys on —
    /// rigging is a runtime fault model, not a different experiment.
    #[must_use]
    pub fn rig_deadlock(&self, scenario: &Scenario) -> Scenario {
        scenario
            .clone()
            .with_event(Event::InjectionBurst {
                cycle: 0,
                factor: 25.0,
            })
            .with_event(Event::FabricFreeze {
                cycle: 40,
                cycles: 10_000,
            })
            .with_watchdog(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_site_independent() {
        let spec = ChaosSpec::new(7).with_panics(0.5).with_deadlocks(0.5);
        for index in 0..64 {
            for attempt in 1..4 {
                assert_eq!(
                    spec.panics(index, attempt),
                    spec.panics(index, attempt),
                    "same coordinates, same verdict"
                );
            }
            assert_eq!(spec.deadlocks(index), spec.deadlocks(index));
        }
        // The streams are not degenerate: both outcomes occur.
        let hits = (0..64).filter(|&i| spec.panics(i, 1)).count();
        assert!(hits > 8 && hits < 56, "{hits} panics out of 64 at p=0.5");
    }

    #[test]
    fn panic_window_respects_attempt_bound() {
        let spec = ChaosSpec::new(3).with_panics(1.0);
        assert!(spec.panics(0, 1), "first attempt is in the strike window");
        assert!(!spec.panics(0, 2), "retries run clean by default");
        let cursed = ChaosSpec::new(3)
            .with_panics(1.0)
            .with_panic_attempts(u32::MAX);
        assert!(cursed.panics(0, 17), "cursed points never recover");
    }

    #[test]
    fn env_grammar_parses_and_tolerates_typos() {
        let spec =
            ChaosSpec::parse("seed=9, panic=0.25, deadlock=0.5, delay=1.0, delay_ms=2, torn=1");
        assert_eq!(spec.seed, 9);
        assert!((spec.panic_prob - 0.25).abs() < 1e-12);
        assert!((spec.deadlock_prob - 0.5).abs() < 1e-12);
        assert_eq!(spec.delay_ms, 2);
        assert!(spec.torn_files);
        assert_eq!(spec.delay(0, 1), Some(Duration::from_millis(2)));

        let sloppy = ChaosSpec::parse("seed=4,panic=lots,unknown=1");
        assert_eq!(sloppy.seed, 4, "good pairs survive bad neighbours");
        assert!((sloppy.panic_prob - 0.0).abs() < 1e-12, "bad pair skipped");
    }
}
