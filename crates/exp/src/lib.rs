//! `noc_exp` — the scenario engine of the AdEle evaluation stack.
//!
//! Sits between the cycle-level simulator ([`noc_sim`]) and the figure
//! harnesses (`adele_bench`), replacing one-off experiment wiring with
//! three composable pieces:
//!
//! * [`scenario`] — declarative experiments: a [`Scenario`] names the
//!   topology, a [`WorkloadSpec`] (a [`WorkloadKind`] — uniform / shuffle
//!   / hotspot / application model — on a versioned
//!   injection [`StreamVersion`]), a [`SelectorSpec`], the
//!   warm-up–measure–drain windows and the master seed, all as plain data.
//! * [`Event`] — timed mid-run events, `noc_sim`'s own type re-exported:
//!   a scenario hands its events to the simulator as they are, and the
//!   simulator schedules and applies them. Elevators fail and recover
//!   **mid-run** ([`Event::ElevatorFail`]), injection rates burst,
//!   hotspots move — the adaptivity stressors the paper's static sweeps
//!   cannot express.
//! * [`runner`] — a scoped-thread worker pool sharding independent sweep
//!   points and scenario batches across cores. Results come back in input
//!   order and **bit-identical** to a sequential run; parallelism buys
//!   wall-clock time, never changes numbers.
//! * [`specs`] — suite loading: a directory of scenario JSON files
//!   becomes a validated, filename-ordered batch ready for the pool (the
//!   checked-in `specs/` suite and the `run_specs` binary build on this).
//! * [`supervise`] — the supervised pool for long or hostile sweeps:
//!   per-point `catch_unwind` isolation, wall-clock deadlines, bounded
//!   retries for environmental faults, every point ending as a
//!   structured [`PointOutcome`] — one dead point never takes the batch.
//! * [`ledger`] — crash-safe bookkeeping: atomic results writes
//!   ([`atomic_write`]) and an append-only completion [`Ledger`] keyed
//!   by canonical-spec hash, making killed sweeps resumable with
//!   byte-identical merged output.
//! * [`chaos`] — deterministic fault injection ([`ChaosSpec`], the
//!   `NOC_CHAOS` env grammar): seeded worker panics, rigged deadlocks,
//!   delays and torn files for proving all of the above under fire.
//!
//! # Example
//!
//! ```
//! use noc_exp::{Event, Scenario, SelectorSpec, WorkloadKind};
//! use noc_topology::ElevatorId;
//! use noc_topology::placement::Placement;
//!
//! // An AdEle run on PS1 that loses elevator e1 mid-measurement.
//! let scenario = Scenario::from_placement("fail-e1", Placement::Ps1)
//!     .with_workload(WorkloadKind::Uniform { rate: 0.003 })
//!     .with_selector(SelectorSpec::adele())
//!     .with_phases(500, 2_000, 10_000)
//!     .with_event(Event::ElevatorFail { cycle: 1_500, elevator: ElevatorId(1) })
//!     .with_seed(42);
//! let result = scenario.run().expect("vetted spec, sane watchdog");
//! assert!(result.summary.delivered_packets > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod ledger;
pub mod runner;
pub mod scenario;
pub mod specs;
pub mod supervise;
pub mod trace;

pub use chaos::ChaosSpec;
pub use ledger::{atomic_write, canonical_spec_json, fnv1a, spec_hash, Ledger};
pub use noc_sim::Event;
pub use noc_traffic::StreamVersion;
pub use runner::{default_threads, par_map};
pub use scenario::{
    results_to_json, results_to_json_with_meta, Scenario, ScenarioResult, SelectorSpec, TraceSpec,
    WorkloadKind, WorkloadSpec,
};
pub use specs::{load_dir, load_spec};
pub use supervise::{
    progress_record, run_batch_supervised, BatchEvent, PointError, PointFailure, PointOutcome,
    Supervision,
};
pub use trace::{record_trace, trace_period, verify_trace, VerifyReport, DEFAULT_TRACE_PERIOD};
