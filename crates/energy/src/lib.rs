//! `noc_energy` — per-link/per-VC energy telemetry for PC-3DNoCs.
//!
//! Sits between [`noc_topology`] and the cycle simulator (`noc_sim`) and
//! owns energy modelling end to end, in the style of Joseph et al.'s
//! link-energy simulation environment:
//!
//! * [`EnergyModel`] / [`EnergyLedger`] — the Noxim-style event-count
//!   model and the aggregate window counters (moved here from `noc_sim`,
//!   which re-exports them).
//! * [`LinkId`] / [`VcId`] / [`LinkMap`] — stable dense identifiers for
//!   every directed link, derived canonically from the topology.
//! * [`LinkLedger`] — flat per-lane/per-VC counters (sized once; the
//!   simulator adds its per-lane event counts in bulk) with
//!   hierarchical roll-ups: link → router → pillar → layer → network,
//!   each level summing **exactly** to the aggregate ledger.
//! * [`LinkEnergyReport`] / [`HeatmapReport`] — per-link CSV and
//!   layer/pillar heatmap JSON exporters for `results/`.
//!
//! # Example
//!
//! ```
//! use noc_energy::{EnergyModel, LinkLedger, LinkMap};
//! use noc_topology::{Direction, ElevatorSet, Mesh3d, NodeId};
//!
//! let mesh = Mesh3d::new(3, 3, 2)?;
//! let elevators = ElevatorSet::new(&mesh, [(1, 1)])?;
//! let map = LinkMap::new(&mesh, &elevators);
//! let mut ledger = LinkLedger::new(&map, 2);
//!
//! // One flit east out of the origin router, on VC 0.
//! let east = map.out_link(NodeId(0), Direction::East).unwrap();
//! ledger.add_link_flits(east, 0, 1);
//! assert_eq!(ledger.aggregate(&map).horizontal_hops, 1);
//! let routers = ledger.router_ledgers(&map);
//! assert_eq!(routers[0].horizontal_hops, 1);
//! # Ok::<(), noc_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ledger;
mod link;
mod model;
mod report;

pub use ledger::LinkLedger;
pub use link::{LinkId, LinkInfo, LinkMap, VcId};
pub use model::{EnergyLedger, EnergyModel};
pub use report::{HeatmapReport, LinkEnergyReport, LinkEnergyRow};
