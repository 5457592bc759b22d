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
//! * [`LinkLedger`] — the simulator's one flit-event counter store: a
//!   write count per router input FIFO and VC, booked once per event, and
//!   the FIFO's occupancy at the window's open and last settle, from
//!   which its reads and every energy counter are derived with
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
//! // One flit east out of the origin router, on VC 0: written into the
//! // West input FIFO of the router it reaches.
//! let east = map.out_link(NodeId(0), Direction::East).unwrap();
//! let next = map.link(east).dst;
//! ledger.on_write(ledger.fifo(next.index(), Direction::West.index(), 0));
//! assert_eq!(ledger.aggregate().horizontal_hops, 1);
//! assert_eq!(ledger.link_flits(&map, east, 0), 1);
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
