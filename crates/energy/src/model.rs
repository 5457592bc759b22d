//! Noxim-style event-count energy model.
//!
//! Every flit movement is decomposed into buffer read/write, crossbar
//! traversal and link traversal events; the ledger counts events during
//! the measurement window and converts to nanojoules on demand.
//!
//! The per-event constants are calibrated so that an 8×8×4 network at
//! moderate load lands in the paper's ~90–100 nJ/flit range (Table II).
//! Absolute physics is not the point — the experiments (Fig. 6, Fig. 7d)
//! compare policies *relative to Elevator-First*, which depends only on
//! hop counts and path mix, both of which this model captures. TSV hops
//! are markedly cheaper than horizontal links, reflecting the short
//! vertical distances of die stacking \[2\].

/// Per-event energies in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Writing one flit into an input FIFO.
    pub buffer_write_nj: f64,
    /// Reading one flit out of an input FIFO.
    pub buffer_read_nj: f64,
    /// One flit through the crossbar.
    pub crossbar_nj: f64,
    /// One flit over a horizontal (intra-layer) link.
    pub link_horizontal_nj: f64,
    /// One flit over a TSV (vertical) link.
    pub link_vertical_nj: f64,
    /// One flit through the NI on ejection (sink) or injection (source).
    pub ni_nj: f64,
    /// Static/leakage energy per router per cycle.
    pub static_router_nj_per_cycle: f64,
}

impl EnergyModel {
    /// Default 45 nm calibration (see module docs).
    #[must_use]
    pub fn default_45nm() -> Self {
        Self {
            buffer_write_nj: 2.4,
            buffer_read_nj: 2.0,
            crossbar_nj: 3.0,
            link_horizontal_nj: 5.0,
            link_vertical_nj: 1.2,
            ni_nj: 1.0,
            static_router_nj_per_cycle: 0.002,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::default_45nm()
    }
}

/// Event counters accumulated over the measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyLedger {
    /// Input-FIFO writes (including NI injections into the local port).
    pub buffer_writes: u64,
    /// Input-FIFO reads.
    pub buffer_reads: u64,
    /// Crossbar traversals.
    pub crossbar_traversals: u64,
    /// Horizontal link traversals.
    pub horizontal_hops: u64,
    /// Vertical (TSV) link traversals.
    pub vertical_hops: u64,
    /// NI events (ejections + injections).
    pub ni_events: u64,
    /// Router-cycles elapsed (routers × measured cycles).
    pub router_cycles: u64,
}

impl EnergyLedger {
    /// Total energy in nanojoules under `model`.
    #[must_use]
    pub fn total_nj(&self, model: &EnergyModel) -> f64 {
        self.buffer_writes as f64 * model.buffer_write_nj
            + self.buffer_reads as f64 * model.buffer_read_nj
            + self.crossbar_traversals as f64 * model.crossbar_nj
            + self.horizontal_hops as f64 * model.link_horizontal_nj
            + self.vertical_hops as f64 * model.link_vertical_nj
            + self.ni_events as f64 * model.ni_nj
            + self.router_cycles as f64 * model.static_router_nj_per_cycle
    }

    /// Energy per flit (nJ) given the number of flits delivered in the same
    /// window. Returns 0 when nothing was delivered.
    #[must_use]
    pub fn per_flit_nj(&self, model: &EnergyModel, delivered_flits: u64) -> f64 {
        if delivered_flits == 0 {
            return 0.0;
        }
        self.total_nj(model) / delivered_flits as f64
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &EnergyLedger) {
        self.buffer_writes += other.buffer_writes;
        self.buffer_reads += other.buffer_reads;
        self.crossbar_traversals += other.crossbar_traversals;
        self.horizontal_hops += other.horizontal_hops;
        self.vertical_hops += other.vertical_hops;
        self.ni_events += other.ni_events;
        self.router_cycles += other.router_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_linear_in_counts() {
        let model = EnergyModel::default_45nm();
        let ledger = EnergyLedger {
            buffer_writes: 10,
            buffer_reads: 10,
            crossbar_traversals: 10,
            horizontal_hops: 10,
            vertical_hops: 0,
            ni_events: 0,
            router_cycles: 0,
        };
        let expected = 10.0 * (2.4 + 2.0 + 3.0 + 5.0);
        assert!((ledger.total_nj(&model) - expected).abs() < 1e-9);
    }

    #[test]
    fn tsv_hops_are_cheaper_than_horizontal() {
        let model = EnergyModel::default_45nm();
        assert!(model.link_vertical_nj < model.link_horizontal_nj);
    }

    #[test]
    fn per_flit_handles_zero_delivery() {
        let model = EnergyModel::default_45nm();
        let ledger = EnergyLedger::default();
        assert_eq!(ledger.per_flit_nj(&model, 0), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = EnergyLedger {
            buffer_writes: 1,
            ..Default::default()
        };
        let b = EnergyLedger {
            buffer_writes: 2,
            vertical_hops: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.buffer_writes, 3);
        assert_eq!(a.vertical_hops, 3);
    }
}
