//! The flight recorder of the simulation stack.
//!
//! Three pieces, deliberately free of any simulator types so every layer
//! (`noc_sim`, `noc_exp`, the bench binaries) can speak the same format:
//!
//! * [`metrics`] — the window accumulator sampled on the step hot path:
//!   a [`WindowDelta`] books each watched cycle's phase wall times and
//!   busy flag into the open window and is handed over whole when the
//!   window closes. It is plain data: booking never allocates, and a
//!   simulator without a tracer attached never touches one at all.
//! * [`hist`] — mergeable fixed-bucket log2 histograms ([`Hist`]): plain
//!   counter arrays folded add-and-zero, so latency/congestion
//!   distributions (and the percentiles derived from them) are
//!   bit-identical at any worker count.
//! * [`trace`] — the append-only JSONL trace journal: a versioned
//!   [`Record`] schema (`header`, `phase`, `event`, `window`, `hist`,
//!   `summary`, `progress`), a [`TraceWriter`] that latches its first
//!   write error, and [`parse_journal`], which reads a journal back and
//!   fails with a *named record index* instead of panicking on truncated
//!   or corrupted input.
//! * [`compare_journals`] — the golden-trace replay oracle: record-for-
//!   record comparison of the serialised records under one table of
//!   environmental fields. Every field outside that table (digests,
//!   counts, latency sums, histograms) must be equal; the timing and
//!   other environmental fields in it are checked for presence only, so a
//!   golden trace recorded on one host verifies on any other.
//! * [`export`] — journal exit ramps: Prometheus text format and Chrome
//!   trace-event / Perfetto JSON, both pure functions of a parsed record
//!   list.
//! * [`hud`] — the live terminal sweep HUD fed by `progress` records
//!   (with a `--quiet` plain-line fallback for CI logs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod hud;
pub mod metrics;
pub mod trace;

pub use hist::{hist_record_entries, FabricHists, Hist, PacketHists, HIST_BUCKETS};
pub use hud::Hud;
pub use metrics::{PhaseTimes, WindowDelta};
pub use trace::{
    compare_journals, parse_journal, Record, SharedBuffer, TraceError, TraceWriter,
    TRACE_SCHEMA_VERSION,
};
