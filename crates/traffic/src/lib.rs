//! Traffic generation for PC-3DNoC simulation.
//!
//! Provides the workloads the AdEle paper evaluates on:
//!
//! * [`pattern`] — synthetic destination patterns (uniform, bit-shuffle,
//!   transpose, bit-complement, hotspot).
//! * [`injection`] — temporal injection processes (Bernoulli, bursty
//!   on/off), the integer-threshold [`injection::Coin`]s the polled
//!   kernel compiles them to, and the paper's 10–30-flit packet-size
//!   distribution.
//! * [`apps`] — synthetic SPLASH-2/PARSEC application models standing in
//!   for the paper's Gem5-extracted traces (canneal, fft, fluidanimate,
//!   lu, radix, water).
//! * [`matrix`] — long-run traffic frequency matrices `f_ij`, consumed by
//!   AdEle's offline objectives (Eq. 1 of the paper).
//! * [`scheduled`] — event-driven batched injection: sources that
//!   skip-sample each node's next injection cycle (geometric for
//!   Bernoulli, phase-aware for bursty) so idle nodes cost nothing
//!   between injections, plus the [`CyclePolled`] adapter through which
//!   every polled source reaches the simulator, one
//!   [`TrafficSource::poll_cycle`] per cycle.
//!
//! A synthetic workload is described once, as [`SyntheticParts`] (uniform,
//! shuffle, hotspot), and drawn by either generator:
//! [`SyntheticTraffic::from_parts`] (polled, the bit-stable `v1` stream)
//! or [`BatchedSynthetic::from_parts`] (skip-sampled, `v2`). An
//! application model is polled only. [`TrafficDirective`]s steer a live
//! workload mid-run (injection bursts, hotspot shifts) through the
//! simulator's event hooks.
//!
//! # Example
//!
//! ```
//! use noc_topology::Mesh3d;
//! use noc_traffic::{SyntheticTraffic, TrafficSource};
//!
//! let mesh = Mesh3d::new(4, 4, 4)?;
//! let mut traffic = SyntheticTraffic::uniform(&mesh, 0.01, 7);
//! let mut injected = 0;
//! for cycle in 0..1000 {
//!     for node in mesh.node_ids() {
//!         if traffic.maybe_inject(node, cycle).is_some() {
//!             injected += 1;
//!         }
//!     }
//! }
//! assert!(injected > 0);
//! # Ok::<(), noc_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod injection;
pub mod matrix;
pub mod pattern;
pub mod scheduled;

mod source;

pub use matrix::TrafficMatrix;
pub use scheduled::{
    derive_stream_seed, BatchedSynthetic, CyclePolled, ScheduledInjection, ScheduledSource,
    StreamVersion,
};
pub use source::{
    InjectionRequest, SyntheticParts, SyntheticTraffic, TrafficDirective, TrafficSource,
};
