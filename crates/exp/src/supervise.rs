//! The supervising sweep pool: per-point failure isolation, deadlines,
//! bounded retries, and resume-from-ledger.
//!
//! [`run_batch_supervised`] is the one way a scenario batch runs, short
//! vetted suite or *long*, *hostile* sweep alike: every point runs under
//! `catch_unwind`, optionally on a deadline thread, and finishes as a
//! [`PointOutcome`] — either the result or a structured [`PointFailure`]
//! naming what went wrong and how hard the pool tried. One dead point never takes a neighbour (or the pool) with
//! it: a batch with failures still completes every other point, in input
//! order, bit-identical to an unsupervised run.
//!
//! Retries are for *environmental* faults only — panics and missed
//! deadlines, the things a flaky host inflicts. Deterministic failures
//! (a [`SimError`] from the engine) are recorded on the first strike: re-running deterministic code
//! on the same input is spinning, not supervision.

use crate::chaos::ChaosSpec;
use crate::ledger::{spec_hash, Ledger};
use crate::runner::par_map;
use crate::scenario::{Scenario, ScenarioResult};
use noc_sim::SimError;
use serde::{Serialize, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The supervisor's policy knobs. The default supervises with no
/// retries and no deadline — pure isolation.
#[derive(Debug, Clone, Default)]
pub struct Supervision {
    /// Extra attempts after a *retryable* failure (panic, missed
    /// deadline). `0` records the first strike.
    pub retries: u32,
    /// Wall-clock deadline per attempt. Points that exceed it fail with
    /// [`PointError::DeadlineExceeded`]; the attempt's thread is
    /// disowned (a simulation always terminates — bounded cycles — so it
    /// drains in the background rather than wedging the pool).
    pub deadline: Option<Duration>,
    /// Fault injection for chaos runs; `None` in production.
    pub chaos: Option<ChaosSpec>,
}

impl Supervision {
    /// Pure isolation: no retries, deadline or chaos.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allows `retries` extra attempts for retryable failures.
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the per-attempt wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Arms fault injection.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosSpec) -> Self {
        self.chaos = Some(chaos);
        self
    }
}

/// Why a point failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PointError {
    /// The engine surfaced a structured error (deadlock watchdog, drain
    /// stall) — deterministic, not retried.
    Sim(SimError),
    /// The worker panicked; `message` is the panic payload (environmental
    /// — retried if the policy allows).
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The attempt outlived the wall-clock deadline (environmental —
    /// retried if the policy allows).
    DeadlineExceeded {
        /// The deadline that was missed, milliseconds.
        limit_ms: u64,
    },
}

impl PointError {
    /// A short machine-readable tag ("deadlock", "panic", "deadline") for
    /// records and tables.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            PointError::Sim(e) => e.kind(),
            PointError::Panicked { .. } => "panic",
            PointError::DeadlineExceeded { .. } => "deadline",
        }
    }

    /// `true` for environmental faults worth another attempt.
    #[must_use]
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            PointError::Panicked { .. } | PointError::DeadlineExceeded { .. }
        )
    }
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointError::Sim(e) => write!(f, "{e}"),
            PointError::Panicked { message } => write!(f, "worker panicked: {message}"),
            PointError::DeadlineExceeded { limit_ms } => {
                write!(f, "point exceeded its {limit_ms} ms deadline")
            }
        }
    }
}

impl std::error::Error for PointError {}

impl Serialize for PointError {
    fn to_value(&self) -> Value {
        let mut fields = vec![("kind".to_string(), Value::String(self.kind().to_string()))];
        match self {
            PointError::Sim(e) => {
                fields.push(("sim".to_string(), e.to_value()));
            }
            PointError::Panicked { message } => {
                fields.push(("message".to_string(), Value::String(message.clone())));
            }
            PointError::DeadlineExceeded { limit_ms } => {
                fields.push(("limit_ms".to_string(), Value::UInt(*limit_ms)));
            }
        }
        Value::Object(fields)
    }
}

/// A failed point: what went wrong, how many attempts were made, and the
/// wall clock spent across them.
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// The last (decisive) error.
    pub error: PointError,
    /// Attempts made.
    pub attempts: u32,
    /// Wall clock across all attempts.
    pub elapsed: Duration,
}

impl Serialize for PointFailure {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("error".to_string(), self.error.to_value()),
            (
                "attempts".to_string(),
                Value::UInt(u64::from(self.attempts)),
            ),
            (
                "elapsed_ms".to_string(),
                Value::UInt(u64::try_from(self.elapsed.as_millis()).unwrap_or(u64::MAX)),
            ),
        ])
    }
}

/// How one point ended under supervision.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point completed; the result is bit-identical to an
    /// unsupervised `scenario.run()`.
    Ok(ScenarioResult),
    /// The point failed after the policy's attempts were spent.
    Failed(PointFailure),
}

impl PointOutcome {
    /// `true` if the point completed.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, PointOutcome::Ok(_))
    }

    /// The result, if the point completed.
    #[must_use]
    pub fn result(&self) -> Option<&ScenarioResult> {
        match self {
            PointOutcome::Ok(r) => Some(r),
            PointOutcome::Failed(_) => None,
        }
    }

    /// The failure, if the point died.
    #[must_use]
    pub fn failure(&self) -> Option<&PointFailure> {
        match self {
            PointOutcome::Ok(_) => None,
            PointOutcome::Failed(f) => Some(f),
        }
    }

    /// The outcome as a `Result`: the result if the point completed, its
    /// failure if it died.
    ///
    /// # Errors
    ///
    /// Returns the [`PointFailure`] of a point that died.
    pub fn into_result(self) -> Result<ScenarioResult, PointFailure> {
        match self {
            PointOutcome::Ok(r) => Ok(r),
            PointOutcome::Failed(f) => Err(f),
        }
    }
}

/// A supervision event, streamed to the observer in completion order.
// `Finished` inlines the full result on purpose: one event per point,
// always handed to the observer by reference, never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum BatchEvent {
    /// A worker picked the point up (once per attempt).
    Started {
        /// Point index in the batch.
        index: usize,
        /// Batch size.
        total: usize,
        /// Scenario name.
        name: String,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The point was restored from the resume ledger without running.
    Cached {
        /// Point index in the batch.
        index: usize,
        /// Batch size.
        total: usize,
        /// Scenario name.
        name: String,
    },
    /// The point finished (either way).
    Finished {
        /// Point index in the batch.
        index: usize,
        /// Batch size.
        total: usize,
        /// Scenario name.
        name: String,
        /// How it ended.
        outcome: PointOutcome,
        /// Wall clock from first pickup to the decisive outcome.
        elapsed: Duration,
    },
}

/// Lowers a [`BatchEvent`] onto the existing trace schema's `progress`
/// record — statuses `started`, `cached`, `done` and `failed`, with the
/// same `detail` keys the HUD and trace consumers already read. No
/// schema bump: failure is a status, not a new record type.
#[must_use]
pub fn progress_record(event: &BatchEvent) -> noc_obs::Record {
    let ns = |d: Duration| Value::UInt(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    match event {
        BatchEvent::Started {
            index,
            total,
            name,
            attempt,
        } => noc_obs::Record::Progress {
            index: *index,
            total: *total,
            label: name.clone(),
            status: "started".to_string(),
            detail: Value::Object(vec![(
                "attempt".to_string(),
                Value::UInt(u64::from(*attempt)),
            )]),
        },
        BatchEvent::Cached { index, total, name } => noc_obs::Record::Progress {
            index: *index,
            total: *total,
            label: name.clone(),
            status: "cached".to_string(),
            detail: Value::Object(Vec::new()),
        },
        BatchEvent::Finished {
            index,
            total,
            name,
            outcome,
            elapsed,
        } => {
            let (status, detail) = match outcome {
                PointOutcome::Ok(result) => (
                    "done",
                    Value::Object(vec![
                        ("run_ns".to_string(), ns(*elapsed)),
                        (
                            "delivered_packets".to_string(),
                            Value::UInt(result.summary.delivered_packets),
                        ),
                        (
                            "avg_latency".to_string(),
                            Value::Float(result.summary.avg_latency),
                        ),
                        (
                            "latency_p50".to_string(),
                            Value::UInt(result.summary.latency_p50),
                        ),
                        (
                            "latency_p99".to_string(),
                            Value::UInt(result.summary.latency_p99),
                        ),
                    ]),
                ),
                PointOutcome::Failed(failure) => ("failed", failure.to_value()),
            };
            noc_obs::Record::Progress {
                index: *index,
                total: *total,
                label: name.clone(),
                status: status.to_string(),
                detail,
            }
        }
    }
}

/// Runs `scenarios` on `threads` supervised workers. Every point ends as
/// a [`PointOutcome`], in input order; the pool itself never dies.
///
/// * A panic inside a point is caught and becomes
///   [`PointError::Panicked`] — neighbours keep running.
/// * With `resume`, points whose [`spec_hash`] the ledger already holds
///   are restored from it ([`BatchEvent::Cached`]) instead of re-run;
///   the restored results are bit-identical to the recorded ones.
/// * `observer` receives [`BatchEvent`]s in completion order (it must be
///   `Sync`); recording completions into a ledger is the observer's job,
///   which keeps the pool free of I/O policy.
///
/// Successful outcomes are bit-identical to `scenario.run()` — the
/// supervisor wraps execution, it never perturbs it.
pub fn run_batch_supervised<F>(
    scenarios: &[Scenario],
    threads: usize,
    supervision: &Supervision,
    resume: Option<&Ledger>,
    observer: F,
) -> Vec<PointOutcome>
where
    F: Fn(&BatchEvent) + Sync,
{
    let total = scenarios.len();
    par_map(scenarios, threads, |index, scenario| {
        if let Some(ledger) = resume {
            if let Some(cached) = ledger.lookup(spec_hash(scenario)) {
                observer(&BatchEvent::Cached {
                    index,
                    total,
                    name: scenario.name.clone(),
                });
                return PointOutcome::Ok(cached.clone());
            }
        }
        let begun = Instant::now();
        let outcome = supervise_point(scenario, index, total, supervision, &observer);
        observer(&BatchEvent::Finished {
            index,
            total,
            name: scenario.name.clone(),
            outcome: outcome.clone(),
            elapsed: begun.elapsed(),
        });
        outcome
    })
}

fn supervise_point<F>(
    scenario: &Scenario,
    index: usize,
    total: usize,
    supervision: &Supervision,
    observer: &F,
) -> PointOutcome
where
    F: Fn(&BatchEvent) + Sync,
{
    let begun = Instant::now();
    let max_attempts = supervision.retries.saturating_add(1);
    let mut attempts = 0;
    loop {
        attempts += 1;
        observer(&BatchEvent::Started {
            index,
            total,
            name: scenario.name.clone(),
            attempt: attempts,
        });
        match run_attempt(scenario, index, attempts, supervision) {
            Ok(result) => return PointOutcome::Ok(result),
            Err(error) => {
                if !error.retryable() || attempts >= max_attempts {
                    return PointOutcome::Failed(PointFailure {
                        error,
                        attempts,
                        elapsed: begun.elapsed(),
                    });
                }
            }
        }
    }
}

/// One attempt: chaos delay, then the (possibly rigged) run under
/// `catch_unwind`, on a deadline thread if the policy sets one.
fn run_attempt(
    scenario: &Scenario,
    index: usize,
    attempt: u32,
    supervision: &Supervision,
) -> Result<ScenarioResult, PointError> {
    let chaos = supervision.chaos.clone();
    match supervision.deadline {
        None => attempt_body(scenario, index, attempt, chaos.as_ref()),
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            let scenario = scenario.clone();
            std::thread::spawn(move || {
                let _ = tx.send(attempt_body(&scenario, index, attempt, chaos.as_ref()));
            });
            rx.recv_timeout(limit).unwrap_or_else(|_| {
                Err(PointError::DeadlineExceeded {
                    limit_ms: u64::try_from(limit.as_millis()).unwrap_or(u64::MAX),
                })
            })
        }
    }
}

fn attempt_body(
    scenario: &Scenario,
    index: usize,
    attempt: u32,
    chaos: Option<&ChaosSpec>,
) -> Result<ScenarioResult, PointError> {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if let Some(c) = chaos {
            // The delay sits inside the deadline-covered region, so a
            // chaos-slowed point genuinely races its deadline.
            if let Some(delay) = c.delay(index, attempt) {
                std::thread::sleep(delay);
            }
            if c.panics(index, attempt) {
                panic!("chaos: injected worker panic (point {index}, attempt {attempt})");
            }
            if c.deadlocks(index) {
                // The rigged run keeps the original result *name*; the
                // ledger keys on the original spec's hash either way.
                return c.rig_deadlock(scenario).run().map_err(PointError::Sim);
            }
        }
        scenario.run().map_err(PointError::Sim)
    }));
    caught.unwrap_or_else(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Err(PointError::Panicked { message })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WorkloadKind;
    use noc_topology::{ElevatorSet, Mesh3d};
    use std::sync::Mutex;

    fn tiny(name: &str, seed: u64) -> Scenario {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
        Scenario::new(name, mesh, elevators)
            .with_phases(100, 400, 2_000)
            .with_workload(WorkloadKind::Uniform { rate: 0.004 })
            .with_seed(seed)
    }

    fn batch(n: u64) -> Vec<Scenario> {
        (0..n).map(|i| tiny(&format!("s{i}"), 40 + i)).collect()
    }

    #[test]
    fn supervised_ok_is_bit_identical_to_unsupervised() {
        let scenarios = batch(4);
        let plain: Vec<_> = scenarios.iter().map(|s| s.run().unwrap()).collect();
        let supervised = run_batch_supervised(&scenarios, 2, &Supervision::new(), None, |_| {});
        assert_eq!(supervised.len(), 4);
        for (outcome, expected) in supervised.iter().zip(&plain) {
            assert_eq!(outcome.result(), Some(expected));
        }
    }

    #[test]
    fn a_panicking_point_does_not_take_the_pool() {
        let scenarios = batch(5);
        // Chaos seeded so that probing finds at least one panicking index
        // with the others untouched: curse exactly index 2 via an
        // attempt-window trick — probability 1 but only attempt 1 — and
        // give the supervisor zero retries.
        let chaos = ChaosSpec::new(0).with_panics(1.0);
        // With p=1.0 every point panics on attempt 1; allow one retry so
        // every point recovers (the window closes after attempt 1).
        let outcomes = run_batch_supervised(
            &scenarios,
            3,
            &Supervision::new().with_retries(1).with_chaos(chaos.clone()),
            None,
            |_| {},
        );
        let plain: Vec<_> = scenarios.iter().map(|s| s.run().unwrap()).collect();
        for (outcome, expected) in outcomes.iter().zip(&plain) {
            assert_eq!(
                outcome.result(),
                Some(expected),
                "retried points match unsupervised results bit for bit"
            );
        }

        // Zero retries: every point fails structured, none aborts the pool.
        let outcomes = run_batch_supervised(
            &scenarios,
            3,
            &Supervision::new().with_chaos(chaos),
            None,
            |_| {},
        );
        assert_eq!(outcomes.len(), 5);
        for outcome in &outcomes {
            let failure = outcome.failure().expect("every point was cursed");
            assert_eq!(failure.error.kind(), "panic");
            assert_eq!(failure.attempts, 1);
        }
    }

    #[test]
    fn deterministic_failures_are_not_retried() {
        let scenarios = batch(3);
        let chaos = ChaosSpec::new(0).with_deadlocks(1.0);
        let events = Mutex::new(Vec::new());
        let outcomes = run_batch_supervised(
            &scenarios,
            2,
            &Supervision::new().with_retries(3).with_chaos(chaos),
            None,
            |e| {
                if let BatchEvent::Started { index, attempt, .. } = e {
                    events.lock().unwrap().push((*index, *attempt));
                }
            },
        );
        for outcome in &outcomes {
            let failure = outcome.failure().expect("rigged to deadlock");
            assert_eq!(failure.error.kind(), "deadlock");
            assert_eq!(failure.attempts, 1, "deterministic: one strike");
            assert!(matches!(
                failure.error,
                PointError::Sim(SimError::Deadlock { .. })
            ));
        }
        let starts = events.into_inner().unwrap();
        assert_eq!(starts.len(), 3, "no retry attempts were started");
    }

    #[test]
    fn deadlines_convert_slow_points_into_failures() {
        let scenarios = batch(2);
        let chaos = ChaosSpec::new(1)
            .with_delays(1.0, Duration::from_millis(300))
            .with_panic_attempts(0);
        let outcomes = run_batch_supervised(
            &scenarios,
            2,
            &Supervision::new()
                .with_deadline(Duration::from_millis(40))
                .with_chaos(chaos),
            None,
            |_| {},
        );
        for outcome in &outcomes {
            let failure = outcome
                .failure()
                .expect("every point delayed past deadline");
            assert_eq!(failure.error.kind(), "deadline");
        }
    }

    #[test]
    fn resume_restores_cached_points_without_running() {
        let dir = std::env::temp_dir().join(format!("noc_sup_resume_{}", std::process::id()));
        let path = dir.join("ledger.jsonl");
        let scenarios = batch(4);
        let full = run_batch_supervised(&scenarios, 2, &Supervision::new(), None, |_| {});
        {
            let mut ledger = Ledger::open(&path).unwrap();
            // Pretend the first two completed before a crash.
            for (scenario, outcome) in scenarios.iter().zip(&full).take(2) {
                ledger
                    .record(spec_hash(scenario), outcome.result().unwrap())
                    .unwrap();
            }
        }
        let ledger = Ledger::open(&path).unwrap();
        let ran = Mutex::new(Vec::new());
        let resumed = run_batch_supervised(
            &scenarios,
            2,
            &Supervision::new(),
            Some(&ledger),
            |e| match e {
                BatchEvent::Started { index, .. } => ran.lock().unwrap().push(*index),
                BatchEvent::Cached { .. } => {}
                BatchEvent::Finished { .. } => {}
            },
        );
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, vec![2, 3], "only ledger-incomplete points re-ran");
        assert_eq!(resumed, full, "merged outcomes bit-identical to one pass");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn progress_records_stay_on_the_existing_schema() {
        let event = BatchEvent::Finished {
            index: 3,
            total: 5,
            name: "p3".to_string(),
            outcome: PointOutcome::Failed(PointFailure {
                error: PointError::Panicked {
                    message: "boom".to_string(),
                },
                attempts: 2,
                elapsed: Duration::from_millis(12),
            }),
            elapsed: Duration::from_millis(12),
        };
        let noc_obs::Record::Progress { status, detail, .. } = progress_record(&event) else {
            panic!("supervision lowers onto progress records");
        };
        assert_eq!(status, "failed");
        let text = serde_json::to_string(&detail).unwrap();
        assert!(text.contains("\"kind\":\"panic\""), "{text}");
        assert!(text.contains("\"attempts\":2"), "{text}");
    }
}
