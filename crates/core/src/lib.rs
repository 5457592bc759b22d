//! **AdEle** — adaptive congestion- and energy-aware elevator selection for
//! partially connected 3D NoCs.
//!
//! This crate implements the primary contribution of the DAC 2021 paper
//! (Taheri, Kim & Nikdast): a two-stage elevator-selection scheme.
//!
//! 1. **Offline** ([`offline`]): a multi-objective simulated-annealing
//!    search (via the [`amosa`] crate) assigns every router a subset of
//!    elevators, minimising *elevator-utilisation variance* (paper
//!    Eq. 1–3) and *average inter-layer distance* (Eq. 4–5).
//! 2. **Online** ([`online`]): at packet injection, each router picks one
//!    elevator from its subset with an enhanced round-robin policy that
//!    skips congested elevators with a probability derived from a locally
//!    measured blocking cost (Eq. 6–9), falling back to the minimal-path
//!    elevator when traffic is light.
//!
//! The baselines the paper compares against live here too:
//! [`online::ElevatorFirstSelector`] (nearest elevator, Dubois et al.) and
//! [`online::CdaSelector`] (congestion-aware dynamic assignment with
//! idealised global information, Fu et al.).
//!
//! # Example: offline optimisation, then an online selector
//!
//! ```
//! use adele::offline::{OfflineOptimizer, SelectionStrategy};
//! use adele::online::{AdeleSelector, ElevatorSelector};
//! use adele::AdeleConfig;
//! use amosa::AmosaParams;
//! use noc_topology::placement::Placement;
//!
//! let (mesh, elevators) = Placement::Ps1.instantiate();
//! let optimizer = OfflineOptimizer::new(mesh, elevators.clone())
//!     .with_params(AmosaParams::fast(1));
//! let result = optimizer.optimize();
//! let chosen = &result.select(SelectionStrategy::LatencyLeaning).assignment;
//! let config = AdeleConfig::paper_default();
//! let selector = AdeleSelector::from_assignment(&mesh, &elevators, chosen, config, 99)?;
//! assert_eq!(selector.name(), "AdEle");
//! # Ok::<(), adele::AdeleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod offline;
pub mod online;

mod config;
mod error;

pub use config::AdeleConfig;
pub use error::AdeleError;

// Re-export for downstream convenience: the online trait is the interface
// the simulator consumes.
pub use online::{ElevatorSelector, NetworkProbe, SelectionContext, SourceFeedback};
