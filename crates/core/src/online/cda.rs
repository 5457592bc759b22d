use crate::online::{ElevatorSelector, SelectionContext};
use noc_topology::{Coord, ElevatorId, ElevatorMask};

/// Weight of the path-congestion term relative to the detour term. The
/// CDA paper is congestion-first; 1.0 reproduces that emphasis.
const CONGESTION_WEIGHT: f64 = 1.0;

/// Weight of the normalised route-length (detour) term. A small
/// tie-breaking weight keeps CDA from wandering to distant elevators when
/// the network is idle.
const DISTANCE_WEIGHT: f64 = 0.25;

/// EWMA coefficient for the *utilization* estimate each selection
/// refreshes from the instantaneous occupancy probe. CDA's metric is
/// buffer utilization — a windowed rate kept in per-router tables — so
/// `1.0` (use the raw instantaneous occupancy, the most optimistic reading
/// of the paper's "instantaneously received" assumption) is an upper bound
/// on fidelity; smaller values model the epoch-averaged counters of the
/// CDA paper.
const SMOOTHING: f64 = 0.1;

/// The CDA baseline (Fu et al. \[12\]): congestion-aware dynamic elevator
/// assignment using **global** buffer-utilisation information.
///
/// For each candidate elevator, CDA scores the mean buffer occupancy of
/// every router on the XY path **from the source to the elevator** (plus
/// the pillar itself), blended with the normalised source-to-elevator
/// distance, and picks the minimum. As both the CDA and AdEle papers
/// describe, the metric considers only the path *to the elevator* — CDA is
/// blind to where the destination sits in the target layer, which is the
/// structural weakness AdEle's minimal-path awareness exploits (it shows
/// up as CDA's longer routes in the latency and energy figures).
///
/// Following the AdEle paper's evaluation, the global information is
/// optimistically assumed to be instantaneous and free — the probe reads
/// the simulator's true buffer state with zero staleness; the hardware
/// cost appears only in the Table III area comparison.
#[derive(Debug, Clone)]
pub struct CdaSelector {
    /// Smoothed per-router utilization estimates (lazy-grown to N).
    utilization: Vec<f64>,
}

impl CdaSelector {
    /// Creates the selector.
    #[must_use]
    pub fn new() -> Self {
        Self {
            utilization: Vec::new(),
        }
    }

    /// Smoothed utilization of `node`, refreshing the table entry from the
    /// instantaneous probe value.
    fn sample(&mut self, node: noc_topology::NodeId, instantaneous: f64) -> f64 {
        if self.utilization.len() <= node.index() {
            self.utilization.resize(node.index() + 1, 0.0);
        }
        let entry = &mut self.utilization[node.index()];
        *entry = SMOOTHING * instantaneous + (1.0 - SMOOTHING) * *entry;
        *entry
    }
}

/// `from`, then each coordinate after it up to and including `to`, in
/// whichever direction `to` lies.
fn span(from: u8, to: u8) -> impl Iterator<Item = u8> {
    (0..=from.abs_diff(to)).map(move |i| if to >= from { from + i } else { from - i })
}

impl Default for CdaSelector {
    fn default() -> Self {
        Self::new()
    }
}

impl ElevatorSelector for CdaSelector {
    fn select(&mut self, ctx: &SelectionContext<'_>) -> ElevatorId {
        let capacity = f64::from(ctx.probe.buffer_capacity_per_router().max(1));
        // Normalise the source→elevator distances by the worst candidate so
        // the two terms share a [0, 1]-ish scale.
        let max_len = ctx
            .elevators
            .ids()
            .map(|e| ctx.elevators.xy_distance(ctx.src, e))
            .max()
            .unwrap_or(1)
            .max(1) as f64;

        // Failed elevators drop out of the candidate set; if every pillar
        // is down there is nothing better to offer, so consider them all.
        let failed = ctx.probe.failed_elevators();
        let failed = if ctx.elevators.ids().all(|e| failed.contains(e)) {
            ElevatorMask::EMPTY
        } else {
            failed
        };

        let mut best: Option<(f64, u32, ElevatorId)> = None;
        for id in ctx.elevators.ids() {
            if failed.contains(id) {
                continue;
            }
            let (pillar_x, pillar_y) = ctx.elevators.column(id);
            // Occupancy along source → elevator (source layer), including
            // the pillar router on the source layer. CDA's metric stops at
            // the elevator: the destination plays no role. The walk is the
            // XY route — along the source's row, then along the pillar's
            // column — and its order matters: each visit also refreshes
            // that router's smoothed estimate, the source router's once
            // per candidate pillar.
            let (src, z) = (ctx.src, ctx.src.z);
            let along_row = span(src.x, pillar_x).map(|x| Coord::new(x, src.y, z));
            let along_column = span(src.y, pillar_y)
                .skip(1)
                .map(|y| Coord::new(pillar_x, y, z));
            let mut occupancy = 0.0;
            for coord in along_row.chain(along_column) {
                let node = ctx.probe.node_at(coord);
                let instantaneous = f64::from(ctx.probe.buffer_occupancy(node));
                occupancy += self.sample(node, instantaneous);
            }
            // The walk visits both endpoints: `d_se + 1` routers.
            let d_se = ctx.elevators.xy_distance(ctx.src, id);
            let mean_occupancy = occupancy / (f64::from(d_se + 1) * capacity);
            let score =
                CONGESTION_WEIGHT * mean_occupancy + DISTANCE_WEIGHT * (d_se as f64 / max_len);
            // Ties: closer elevator, then lower id — deterministic.
            let key = (score, d_se, id);
            if best.is_none_or(|(s, l, i)| key.0 < s || (key.0 == s && (key.1, key.2) < (l, i))) {
                best = Some(key);
            }
        }
        best.expect("elevator set is never empty").2
    }

    fn name(&self) -> &'static str {
        "CDA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::testing::FaultProbe;
    use crate::online::{NetworkProbe, SelectionContext};
    use noc_topology::{Coord, ElevatorSet, Mesh3d, NodeId};

    /// A probe with configurable per-node occupancy.
    struct MapProbe {
        mesh: Mesh3d,
        occupancy: Vec<u32>,
    }

    impl NetworkProbe for MapProbe {
        fn buffer_occupancy(&self, node: NodeId) -> u32 {
            self.occupancy[node.index()]
        }
        fn buffer_capacity_per_router(&self) -> u32 {
            56
        }
        fn node_at(&self, coord: Coord) -> NodeId {
            self.mesh.node_id(coord).expect("in mesh")
        }
    }

    fn fixture() -> (Mesh3d, ElevatorSet) {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 0)]).unwrap();
        (mesh, elevators)
    }

    #[test]
    fn idle_network_picks_nearest_to_source_ignoring_destination() {
        let (mesh, elevators) = fixture();
        let probe = MapProbe {
            mesh,
            occupancy: vec![0; 32],
        };
        let mut cda = CdaSelector::new();
        let src = Coord::new(1, 0, 0);
        let dst = Coord::new(3, 0, 1);
        let ctx = SelectionContext {
            src_id: probe.node_at(src),
            src,
            dst_id: probe.node_at(dst),
            dst,
            elevators: &elevators,
            probe: &probe,
            cycle: 0,
        };
        // e1 at (3,0) sits on the minimal src→dst path, but CDA's metric
        // stops at the elevator: it picks e0 at (0,0), which is closer to
        // the source (d_se 1 vs 2). This destination-blindness is the
        // behaviour AdEle improves on.
        assert_eq!(cda.select(&ctx), noc_topology::ElevatorId(0));
    }

    #[test]
    fn heavy_congestion_diverts_to_clear_elevator() {
        let (mesh, elevators) = fixture();
        let mut occupancy = vec![0u32; 32];
        // Saturate the whole row y=0 towards e1 at (3,0) on layer 0.
        for x in 2..4 {
            let id = mesh.node_id(Coord::new(x, 0, 0)).unwrap();
            occupancy[id.index()] = 56;
        }
        let probe = MapProbe { mesh, occupancy };
        let mut cda = CdaSelector::new();
        let src = Coord::new(1, 0, 0);
        let dst = Coord::new(3, 0, 1);
        let ctx = SelectionContext {
            src_id: probe.node_at(src),
            src,
            dst_id: probe.node_at(dst),
            dst,
            elevators: &elevators,
            probe: &probe,
            cycle: 0,
        };
        // Despite the longer route, the clear e0 wins.
        assert_eq!(cda.select(&ctx), noc_topology::ElevatorId(0));
        assert_eq!(cda.name(), "CDA");
    }

    #[test]
    fn occupancy_walk_visits_the_xy_route_in_order() {
        use noc_topology::route;
        use std::cell::RefCell;

        /// Records every router whose occupancy is read.
        struct Recorder {
            mesh: Mesh3d,
            visited: RefCell<Vec<Coord>>,
        }
        impl NetworkProbe for Recorder {
            fn buffer_occupancy(&self, node: NodeId) -> u32 {
                self.visited.borrow_mut().push(self.mesh.coord(node));
                0
            }
            fn buffer_capacity_per_router(&self) -> u32 {
                56
            }
            fn node_at(&self, coord: Coord) -> NodeId {
                self.mesh.node_id(coord).expect("in mesh")
            }
        }

        let mesh = Mesh3d::new(5, 4, 2).unwrap();
        // Pillars east/west/north/south of the source, and one under it.
        let elevators = ElevatorSet::new(&mesh, [(4, 3), (0, 0), (2, 1), (0, 3), (4, 0)]).unwrap();
        let probe = Recorder {
            mesh,
            visited: RefCell::default(),
        };
        let src = Coord::new(2, 1, 1);
        let dst = Coord::new(0, 0, 0);
        let ctx = SelectionContext {
            src_id: probe.node_at(src),
            src,
            dst_id: probe.node_at(dst),
            dst,
            elevators: &elevators,
            probe: &probe,
            cycle: 0,
        };
        let _ = CdaSelector::new().select(&ctx);
        let expected: Vec<Coord> = elevators
            .iter()
            .flat_map(|(_, (x, y))| route::route_coords(src, Coord::new(x, y, src.z), None))
            .collect();
        assert_eq!(*probe.visited.borrow(), expected);
    }

    #[test]
    fn failed_elevator_is_excluded_until_recovery() {
        let (mesh, elevators) = fixture();
        let probe = FaultProbe::new(mesh);
        let mut cda = CdaSelector::new();
        let src = Coord::new(1, 0, 0);
        let dst = Coord::new(3, 0, 1);
        let ctx = SelectionContext {
            src_id: probe.node_at(src),
            src,
            dst_id: probe.node_at(dst),
            dst,
            elevators: &elevators,
            probe: &probe,
            cycle: 0,
        };
        let e0 = noc_topology::ElevatorId(0);
        let e1 = noc_topology::ElevatorId(1);
        assert_eq!(cda.select(&ctx), e0);

        probe.set(e0, true);
        assert_eq!(cda.select(&ctx), e1, "dead pillar leaves the candidate set");

        // Every elevator down: fall back to the full set (best effort).
        probe.set(e1, true);
        assert_eq!(cda.select(&ctx), e0);

        probe.set(e0, false);
        probe.set(e1, false);
        assert_eq!(cda.select(&ctx), e0, "recovery restores the original pick");
    }
}
