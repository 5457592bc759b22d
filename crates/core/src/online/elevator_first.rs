use crate::online::{ElevatorSelector, SelectionContext};
use noc_topology::{ElevatorId, ElevatorSet, Mesh3d, NodeId};

/// The Elevator-First baseline (Dubois et al. \[10\]): every packet takes the
/// elevator **closest to its source router**, ignoring congestion and the
/// position of the destination.
///
/// The choice is static per source router, so it is precomputed. Under the
/// fault-tolerance extension a failed elevator is replaced, per packet, by
/// the nearest surviving one (the natural reading of "nearest" once a
/// pillar is down).
#[derive(Debug, Clone)]
pub struct ElevatorFirstSelector {
    nearest: Vec<ElevatorId>,
}

impl ElevatorFirstSelector {
    /// Precomputes the nearest elevator of every router.
    #[must_use]
    pub fn new(mesh: &Mesh3d, elevators: &ElevatorSet) -> Self {
        Self {
            nearest: mesh.coords().map(|c| elevators.nearest(c)).collect(),
        }
    }

    /// The static choice for `node` (ignoring failures).
    #[must_use]
    pub fn choice(&self, node: NodeId) -> ElevatorId {
        self.nearest[node.index()]
    }
}

impl ElevatorSelector for ElevatorFirstSelector {
    fn select(&mut self, ctx: &SelectionContext<'_>) -> ElevatorId {
        let pick = self.nearest[ctx.src_id.index()];
        let failed = ctx.probe.failed_elevators();
        if !failed.contains(pick) {
            return pick;
        }
        // Nearest surviving elevator; if everything failed, keep the static
        // choice (there is no better option to offer).
        ctx.elevators
            .nearest_among(
                ctx.src,
                ctx.elevators.ids().filter(|&e| !failed.contains(e)),
            )
            .unwrap_or(pick)
    }

    fn name(&self) -> &'static str {
        "ElevFirst"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::testing::FaultProbe;
    use crate::online::ZeroProbe;
    use noc_topology::Coord;

    #[test]
    fn always_picks_nearest_regardless_of_destination() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
        let mut sel = ElevatorFirstSelector::new(&mesh, &elevators);
        let probe = ZeroProbe::new(mesh);

        let src = Coord::new(0, 1, 0);
        let src_id = mesh.node_id(src).unwrap();
        for dst in [Coord::new(3, 3, 1), Coord::new(0, 0, 2)] {
            let ctx = SelectionContext {
                src_id,
                src,
                dst_id: mesh.node_id(dst).unwrap(),
                dst,
                elevators: &elevators,
                probe: &probe,
                cycle: 0,
            };
            // Nearest to (0,1) is e0 at (0,0) even when the destination sits
            // on top of e1 — the inefficiency Fig. 2(a) illustrates.
            assert_eq!(sel.select(&ctx), ElevatorId(0));
        }
        assert_eq!(sel.name(), "ElevFirst");
    }

    #[test]
    fn failed_elevator_falls_over_to_nearest_survivor() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
        let mut sel = ElevatorFirstSelector::new(&mesh, &elevators);
        let probe = FaultProbe::new(mesh);
        let src = Coord::new(0, 1, 0);
        let dst = Coord::new(2, 2, 1);
        let ctx = SelectionContext {
            src_id: mesh.node_id(src).unwrap(),
            src,
            dst_id: mesh.node_id(dst).unwrap(),
            dst,
            elevators: &elevators,
            probe: &probe,
            cycle: 0,
        };
        assert_eq!(sel.select(&ctx), ElevatorId(0));

        probe.set(ElevatorId(0), true);
        assert_eq!(
            sel.select(&ctx),
            ElevatorId(1),
            "must avoid the dead pillar"
        );
        // The static precomputation is untouched.
        assert_eq!(sel.choice(ctx.src_id), ElevatorId(0));

        // Everything failed: keep the static choice rather than panic.
        probe.set(ElevatorId(1), true);
        assert_eq!(sel.select(&ctx), ElevatorId(0));

        probe.set(ElevatorId(0), false);
        assert_eq!(
            sel.select(&ctx),
            ElevatorId(0),
            "repair restores the choice"
        );
    }
}
