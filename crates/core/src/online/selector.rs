use noc_topology::{Coord, ElevatorId, ElevatorMask, ElevatorSet, NodeId};

/// Simulation time in cycles.
pub type Cycle = u64;

/// Read-only view of network state offered to selectors: congestion and
/// pillar health.
///
/// AdEle deliberately ignores the congestion half (local information
/// only); the CDA baseline reads global buffer occupancy through it —
/// modelling the paper's optimistic assumption that CDA's global
/// information is available instantaneously and for free. Every policy
/// reads pillar health here: the fabric owns it, and a selector never
/// keeps its own copy.
pub trait NetworkProbe {
    /// Occupied input-buffer flits at router `node`, summed over ports and
    /// virtual channels.
    fn buffer_occupancy(&self, node: NodeId) -> u32;

    /// Total input-buffer capacity (flits) of one router, for
    /// normalisation.
    fn buffer_capacity_per_router(&self) -> u32;

    /// Maps a coordinate to its dense id (probes are always backed by a
    /// concrete mesh).
    fn node_at(&self, coord: Coord) -> NodeId;

    /// The elevators currently failed (the fault-tolerance extension: a
    /// pillar dies or recovers mid-run). Selectors stop choosing a failed
    /// pillar while any other survives.
    ///
    /// Default: none failed.
    fn failed_elevators(&self) -> ElevatorMask {
        ElevatorMask::EMPTY
    }
}

/// A [`NetworkProbe`] reporting zero congestion everywhere. Useful for
/// tests and for exercising selectors outside a simulator.
#[derive(Debug, Clone, Copy)]
pub struct ZeroProbe {
    mesh: noc_topology::Mesh3d,
}

impl ZeroProbe {
    /// Builds a zero probe over `mesh`.
    #[must_use]
    pub fn new(mesh: noc_topology::Mesh3d) -> Self {
        Self { mesh }
    }
}

impl NetworkProbe for ZeroProbe {
    fn buffer_occupancy(&self, _node: NodeId) -> u32 {
        0
    }

    fn buffer_capacity_per_router(&self) -> u32 {
        // 7 ports × 2 VCs × 4 flits, the workspace default.
        56
    }

    fn node_at(&self, coord: Coord) -> NodeId {
        self.mesh.node_id(coord).expect("coordinate within mesh")
    }
}

/// Everything a selector may inspect when choosing an elevator for one
/// packet.
#[derive(Clone, Copy)]
pub struct SelectionContext<'a> {
    /// Source router id.
    pub src_id: NodeId,
    /// Source router coordinate.
    pub src: Coord,
    /// Destination router id.
    pub dst_id: NodeId,
    /// Destination router coordinate.
    pub dst: Coord,
    /// The network's elevator set.
    pub elevators: &'a ElevatorSet,
    /// Congestion view (see [`NetworkProbe`]).
    pub probe: &'a dyn NetworkProbe,
    /// Current simulation cycle.
    pub cycle: Cycle,
}

impl std::fmt::Debug for SelectionContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectionContext")
            .field("src", &self.src)
            .field("dst", &self.dst)
            .field("cycle", &self.cycle)
            .finish()
    }
}

/// Source-router departure feedback for one delivered packet: the inputs
/// of AdEle's Eq. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceFeedback {
    /// The packet's source router.
    pub src: NodeId,
    /// The elevator the packet was assigned.
    pub elevator: ElevatorId,
    /// Cycle the head flit left the source router.
    pub head_departure: Cycle,
    /// Cycle the tail flit left the source router.
    pub tail_departure: Cycle,
    /// Packet length `l_p` in flits.
    pub packet_flits: u16,
}

impl SourceFeedback {
    /// Eq. 6: the normalised blocking latency
    /// `T_ek = (t_tail − t_head − l_p) / l_p`, clamped at zero.
    ///
    /// Without any blocking the tail leaves `l_p − 1` cycles after the
    /// head, making the raw expression `−1/l_p`; the clamp keeps the cost
    /// non-negative so the low-traffic threshold comparison is meaningful.
    #[must_use]
    pub fn blocking_cost(&self) -> f64 {
        let lp = f64::from(self.packet_flits.max(1));
        let spread = self.tail_departure.saturating_sub(self.head_departure) as f64;
        ((spread - lp) / lp).max(0.0)
    }
}

/// An elevator-selection policy.
///
/// One selector object serves the whole network: per-router state (AdEle's
/// cost tables, round-robin pointers) lives inside the implementation,
/// indexed by [`SelectionContext::src_id`].
pub trait ElevatorSelector: Send {
    /// Chooses the elevator for one inter-layer packet.
    fn select(&mut self, ctx: &SelectionContext<'_>) -> ElevatorId;

    /// Receives source-departure feedback for a previously selected packet.
    ///
    /// Default: ignored (stateless policies).
    fn on_source_departure(&mut self, feedback: &SourceFeedback) {
        let _ = feedback;
    }

    /// Receives measured per-pillar energy telemetry: `energy[e]` is the
    /// measured energy (nJ) per TSV-crossing flit of elevator `e` over the
    /// current window (0 where the pillar carried nothing yet). Pushed by
    /// the simulator from the per-link ledger every
    /// [`Self::pillar_energy_period`] measured cycles.
    ///
    /// Default: ignored — the paper's policies use hop-count proxies.
    fn on_pillar_energy(&mut self, energy: &[f64]) {
        let _ = energy;
    }

    /// Cycles between pushes of [`Self::on_pillar_energy`], read once when
    /// the simulator is built; `0` asks for none. Each push costs a pillar
    /// roll-up, so only a policy that consumes the signal asks for it.
    ///
    /// Default: `0`.
    fn pillar_energy_period(&self) -> u64 {
        0
    }

    /// Policy name as printed in experiment tables ("ElevFirst", "CDA",
    /// "AdEle", "AdEle-RR").
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_cost_is_zero_without_stalls() {
        let fb = SourceFeedback {
            src: NodeId(0),
            elevator: ElevatorId(0),
            head_departure: 100,
            tail_departure: 119, // 20 flits leave back-to-back
            packet_flits: 20,
        };
        assert_eq!(fb.blocking_cost(), 0.0);
    }

    #[test]
    fn blocking_cost_scales_with_stall_cycles() {
        let fb = SourceFeedback {
            src: NodeId(0),
            elevator: ElevatorId(0),
            head_departure: 100,
            tail_departure: 100 + 20 + 9, // 10 stall cycles on a 20-flit packet
            packet_flits: 20,
        };
        assert!((fb.blocking_cost() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn blocking_cost_handles_degenerate_inputs() {
        let fb = SourceFeedback {
            src: NodeId(0),
            elevator: ElevatorId(0),
            head_departure: 100,
            tail_departure: 90, // out-of-order timestamps saturate to 0
            packet_flits: 0,
        };
        assert_eq!(fb.blocking_cost(), 0.0);
    }

    #[test]
    fn zero_probe_reports_no_congestion() {
        let mesh = noc_topology::Mesh3d::new(2, 2, 2).unwrap();
        let probe = ZeroProbe::new(mesh);
        assert_eq!(probe.buffer_occupancy(NodeId(0)), 0);
        assert!(probe.buffer_capacity_per_router() > 0);
        assert_eq!(probe.node_at(Coord::new(1, 1, 1)).index(), 7);
    }
}
