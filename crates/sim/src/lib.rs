//! Cycle-level wormhole simulator for partially connected 3D NoCs.
//!
//! This crate is the workspace's stand-in for Access Noxim, the simulator
//! the AdEle paper evaluates on. It models, per cycle:
//!
//! * input-buffered 7-port routers (Local, E, W, N, S, Up, Down) with the
//!   paper's 4-flit FIFOs and the two Elevator-First virtual networks,
//! * wormhole switching with per-output-VC packet ownership,
//! * credit-based flow control on every link (including the NI),
//! * Elevator-First routing with a pluggable
//!   [`adele::online::ElevatorSelector`],
//! * Noxim-style energy accounting ([`EnergyModel`], owned by the
//!   [`noc_energy`] crate and instrumented here per link and per VC) and
//!   latency / load / elevator-usage statistics ([`RunSummary`]).
//!
//! Two layers do it. [`Network`] is the one fabric type: the mesh, its
//! links and every router's switching state (flit arena, worklist,
//! credits, relays, the [`LinkLedger`]). [`Simulator`] owns it with the
//! packet table, the statistics and the workload, and runs one cycle body
//! that calls one method per timed phase of [`PhaseTimes`]: traffic
//! generation (*inject*), the network's `phase1` (*compute*) and
//! `exchange` (*exchange*), then its `finish_cycle` and the simulator's
//! bookkeeping (*commit*).
//!
//! # Example
//!
//! ```
//! use noc_sim::{SimConfig, Simulator};
//! use noc_topology::placement::Placement;
//! use noc_traffic::SyntheticTraffic;
//! use adele::online::ElevatorFirstSelector;
//!
//! let (mesh, elevators) = Placement::Ps1.instantiate();
//! let config = SimConfig::new(mesh, elevators.clone())
//!     .with_phases(500, 1000, 4000)
//!     .with_seed(7);
//! let traffic = SyntheticTraffic::uniform(&mesh, 0.002, 7);
//! let selector = ElevatorFirstSelector::new(&mesh, &elevators);
//! let summary = Simulator::new(config, Box::new(traffic), Box::new(selector))
//!     .run()
//!     .expect("sane watchdog, deadlock-free routing");
//! assert!(summary.delivered_packets > 0);
//! assert!(summary.avg_latency > 0.0);
//! ```
//!
//! [`Simulator::new`] is the convenience for a polled
//! [`noc_traffic::TrafficSource`]; the simulator itself runs one workload
//! type, a boxed [`noc_traffic::ScheduledSource`]
//! ([`Simulator::from_scheduled`]), and a polled source is wrapped in
//! [`noc_traffic::CyclePolled`] in front of it.
//!
//! Simulation failure is a structured value, not a panic: a fired
//! deadlock watchdog surfaces as a [`SimError`] carrying exact-cycle
//! diagnostics, so sweep supervisors can record a dead point and keep the
//! rest of the batch running.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod config;
mod error;
mod flit;
mod network;
mod obs;
mod scheduler;
mod sim;
mod stats;
mod table;

pub mod harness;
pub mod hooks;

pub use config::SimConfig;
pub use error::SimError;
// Energy modelling lives in `noc_energy`; re-exported for compatibility
// (the model/ledger types predate the telemetry crate).
pub use flit::{Flit, FlitKind, Packet, PacketId};
pub use hooks::Event;
pub use network::Network;
pub use noc_energy::{EnergyLedger, EnergyModel, LinkLedger, LinkMap};
// The flight-recorder layer: the journal schema and writer come from
// `noc_obs`; `Tracer` couples them to a `Simulator`.
pub use noc_obs::{PhaseTimes, Record, TraceWriter};
pub use obs::Tracer;
pub use sim::Simulator;
pub use stats::{RunSummary, StatsCollector};
pub use table::PacketTable;
