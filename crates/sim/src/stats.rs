//! Latency, throughput, load and elevator-usage statistics.

use crate::config::SimConfig;
use crate::flit::Packet;
use noc_energy::{EnergyLedger, EnergyModel, LinkLedger, LinkMap};
use noc_obs::PacketHists;
use noc_topology::ElevatorId;
use serde::{Deserialize, Serialize};

/// Collects statistics during a run. Only events inside the measurement
/// window count (the collector is armed/disarmed by the simulator).
#[derive(Debug, Clone)]
pub struct StatsCollector {
    armed: bool,
    /// Flits that entered each router (link arrivals + injections).
    pub(crate) router_flits: Vec<u64>,
    /// Packets assigned to each elevator at selection time.
    pub(crate) elevator_packets: Vec<u64>,
    pub(crate) injected_packets: u64,
    pub(crate) injected_flits: u64,
    pub(crate) delivered_flits: u64,
    /// Measured packets delivered, with total latency accumulators.
    pub(crate) delivered_packets: u64,
    pub(crate) total_latency: u64,
    /// Network-only latency (source-router head departure → delivery).
    pub(crate) total_network_latency: u64,
    pub(crate) measured_cycles: u64,
    /// Delivery histograms of the measured packets, recorded as each one's
    /// tail ejection is replayed. `None` when disabled.
    pub(crate) hists: Option<Box<PacketHists>>,
}

impl StatsCollector {
    /// Creates a collector for `nodes` routers and `elevators` elevators.
    #[must_use]
    pub fn new(nodes: usize, elevators: usize) -> Self {
        Self {
            armed: false,
            router_flits: vec![0; nodes],
            elevator_packets: vec![0; elevators],
            injected_packets: 0,
            injected_flits: 0,
            delivered_flits: 0,
            delivered_packets: 0,
            total_latency: 0,
            total_network_latency: 0,
            measured_cycles: 0,
            hists: Some(Box::new(PacketHists::new())),
        }
    }

    /// A fresh collector for `config`'s fabric, with the delivery
    /// histograms on or off as it asks.
    pub(crate) fn for_config(config: &SimConfig) -> Self {
        let mut stats = Self::new(config.mesh.node_count(), config.elevators.len());
        if !config.histograms {
            stats.hists = None;
        }
        stats
    }

    /// The delivery histograms; `None` when disabled.
    #[must_use]
    pub fn packet_hists(&self) -> Option<&PacketHists> {
        self.hists.as_deref()
    }

    /// Flits ejected into their destination NI while armed.
    #[must_use]
    pub fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    /// Starts/stops counting.
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// `true` while inside the measurement window.
    #[must_use]
    pub fn armed(&self) -> bool {
        self.armed
    }

    pub(crate) fn on_cycle(&mut self) {
        if self.armed {
            self.measured_cycles += 1;
        }
    }

    pub(crate) fn on_packet_created(&mut self, flits: u16, elevator: Option<ElevatorId>) {
        if self.armed {
            self.injected_packets += 1;
            self.injected_flits += u64::from(flits);
            if let Some(e) = elevator {
                self.elevator_packets[e.index()] += 1;
            }
        }
    }

    pub(crate) fn on_flit_delivered(&mut self) {
        if self.armed {
            self.delivered_flits += 1;
        }
    }

    /// Books a packet whose tail ejected at `now`; `hops` is its route
    /// length, asked for only when the histograms record it.
    pub(crate) fn on_packet_delivered(
        &mut self,
        packet: &Packet,
        now: u64,
        hops: impl FnOnce() -> u64,
    ) {
        if !packet.measured {
            return;
        }
        let latency = now.saturating_sub(packet.created);
        let net_start = packet.head_out_src.unwrap_or(packet.created);
        let network_latency = now.saturating_sub(net_start);
        self.delivered_packets += 1;
        self.total_latency += latency;
        self.total_network_latency += network_latency;
        if let Some(hists) = &mut self.hists {
            hists.latency.record(latency);
            hists.network_latency.record(network_latency);
            hists.hops.record(hops());
        }
    }
}

/// Final summary of one simulation run.
///
/// Round-trips through JSON: the experiment layer's completion ledger
/// restores summaries from disk on resume, and the vendored JSON float
/// encoding is exact for round-trips, so a restored summary is
/// bit-identical to the one that was recorded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Policy name ("ElevFirst", "CDA", "AdEle", "AdEle-RR").
    pub policy: String,
    /// Workload name ("uniform", "shuffle", app name…).
    pub workload: String,
    /// Offered packet injection rate per node per cycle (if known).
    pub offered_rate: Option<f64>,
    /// Average end-to-end packet latency in cycles (creation → tail
    /// ejection) over measured, delivered packets.
    pub avg_latency: f64,
    /// Average network latency (source-router head departure → delivery).
    pub avg_network_latency: f64,
    /// Measured packets delivered.
    pub delivered_packets: u64,
    /// Measured packets injected.
    pub injected_packets: u64,
    /// Delivered flits per node per measured cycle (throughput).
    pub throughput_flits: f64,
    /// Energy per delivered flit, nanojoules.
    pub energy_per_flit_nj: f64,
    /// Flits through each router during the window (Fig. 2b / Fig. 5).
    pub router_flits: Vec<u64>,
    /// Packets assigned to each elevator (load balance view).
    pub elevator_packets: Vec<u64>,
    /// Total measured energy (nJ) attributed to each elevator pillar's
    /// routers (per-link telemetry roll-up, summed over layers).
    pub pillar_energy_nj: Vec<f64>,
    /// TSV traversals per pillar during the window.
    pub pillar_tsv_flits: Vec<u64>,
    /// Cycles in the measurement window.
    pub measured_cycles: u64,
    /// `true` if every measured packet drained before the cap; `false`
    /// indicates the network was saturated.
    pub completed: bool,
    /// Median end-to-end latency (cycles), resolved to its log2 bucket's
    /// upper bound (see `noc_obs::Hist::percentile`). All-integer and
    /// derived from the folded histograms, so bit-identical on every host.
    /// `0` when histograms are disabled.
    pub latency_p50: u64,
    /// 90th-percentile end-to-end latency (cycles, bucket-resolved).
    pub latency_p90: u64,
    /// 99th-percentile end-to-end latency (cycles, bucket-resolved).
    pub latency_p99: u64,
    /// Exact maximum end-to-end latency over measured packets (cycles).
    pub latency_max: u64,
}

impl RunSummary {
    #[allow(clippy::too_many_arguments)] // internal constructor mirroring the summary fields
    pub(crate) fn from_parts(
        policy: &str,
        workload: &str,
        offered_rate: Option<f64>,
        stats: &StatsCollector,
        ledger: &EnergyLedger,
        telemetry: &LinkLedger,
        link_map: &LinkMap,
        model: &EnergyModel,
        nodes: usize,
        completed: bool,
    ) -> Self {
        let delivered = stats.delivered_packets.max(1) as f64;
        let latency = stats.hists.as_deref().map(|h| &h.latency);
        let pct = |p| latency.map_or(0, |h| h.percentile(p));
        Self {
            policy: policy.to_string(),
            workload: workload.to_string(),
            offered_rate,
            avg_latency: stats.total_latency as f64 / delivered,
            avg_network_latency: stats.total_network_latency as f64 / delivered,
            delivered_packets: stats.delivered_packets,
            injected_packets: stats.injected_packets,
            throughput_flits: if stats.measured_cycles == 0 {
                0.0
            } else {
                stats.delivered_flits as f64 / (stats.measured_cycles as f64 * nodes as f64)
            },
            energy_per_flit_nj: ledger.per_flit_nj(model, stats.delivered_flits),
            router_flits: stats.router_flits.clone(),
            elevator_packets: stats.elevator_packets.clone(),
            pillar_energy_nj: telemetry
                .pillar_ledgers(link_map)
                .iter()
                .map(|l| l.total_nj(model))
                .collect(),
            pillar_tsv_flits: telemetry.pillar_tsv_flits(link_map),
            measured_cycles: stats.measured_cycles,
            completed,
            latency_p50: pct(50),
            latency_p90: pct(90),
            latency_p99: pct(99),
            latency_max: latency.map_or(0, noc_obs::Hist::max),
        }
    }

    /// Mean load over routers *with* an elevator divided by the mean load
    /// over routers *without*, the normalisation of the paper's Fig. 5.
    ///
    /// `is_elevator[i]` flags elevator routers.
    ///
    /// # Panics
    ///
    /// Panics if `is_elevator` length mismatches the router count.
    #[must_use]
    pub fn normalized_elevator_loads(&self, is_elevator: &[bool]) -> Vec<f64> {
        assert_eq!(is_elevator.len(), self.router_flits.len());
        let (mut base_sum, mut base_n) = (0.0, 0u64);
        for (i, &flag) in is_elevator.iter().enumerate() {
            if !flag {
                base_sum += self.router_flits[i] as f64;
                base_n += 1;
            }
        }
        let base = if base_n == 0 {
            1.0
        } else {
            base_sum / base_n as f64
        };
        let base = if base == 0.0 { 1.0 } else { base };
        is_elevator
            .iter()
            .enumerate()
            .filter(|&(_, &flag)| flag)
            .map(|(i, _)| self.router_flits[i] as f64 / base)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::route::VirtualNet;
    use noc_topology::NodeId;

    #[test]
    fn collector_ignores_events_while_disarmed() {
        let mut c = StatsCollector::new(4, 2);
        c.on_packet_created(10, Some(ElevatorId(0)));
        c.on_flit_delivered();
        c.on_cycle();
        assert_eq!(c.injected_packets, 0);
        assert_eq!(c.delivered_flits, 0);
        assert_eq!(c.measured_cycles, 0);

        c.set_armed(true);
        c.on_packet_created(10, Some(ElevatorId(0)));
        c.on_cycle();
        assert_eq!(c.injected_packets, 1);
        assert_eq!(c.elevator_packets[0], 1);
        assert_eq!(c.measured_cycles, 1);
    }

    #[test]
    fn packet_delivery_counts_only_measured_packets() {
        let mut c = StatsCollector::new(2, 1);
        c.set_armed(true);
        let make = |measured: bool| Packet {
            src: NodeId(0),
            dst: NodeId(1),
            flits: 10,
            vnet: VirtualNet::Ascend,
            elevator: None,
            created: 100,
            head_out_src: Some(105),
            tail_out_src: None,
            delivered: None,
            flits_delivered: 0,
            measured,
        };
        c.on_packet_delivered(&make(false), 150, || unreachable!("unmeasured"));
        assert_eq!(c.delivered_packets, 0);
        c.on_packet_delivered(&make(true), 150, || 3);
        assert_eq!(c.delivered_packets, 1);
        assert_eq!(c.total_latency, 50);
        assert_eq!(c.total_network_latency, 45);
        let hists = c.packet_hists().unwrap();
        assert_eq!(hists.latency.max(), 50);
        assert_eq!(hists.hops.max(), 3);
    }

    #[test]
    fn normalized_loads_divide_by_elevatorless_mean() {
        let summary = RunSummary {
            policy: "x".into(),
            workload: "y".into(),
            offered_rate: None,
            avg_latency: 0.0,
            avg_network_latency: 0.0,
            delivered_packets: 0,
            injected_packets: 0,
            throughput_flits: 0.0,
            energy_per_flit_nj: 0.0,
            router_flits: vec![100, 10, 20, 300],
            elevator_packets: vec![],
            pillar_energy_nj: vec![],
            pillar_tsv_flits: vec![],
            measured_cycles: 0,
            completed: true,
            latency_p50: 0,
            latency_p90: 0,
            latency_p99: 0,
            latency_max: 0,
        };
        let loads = summary.normalized_elevator_loads(&[true, false, false, true]);
        // Base = (10 + 20) / 2 = 15.
        assert_eq!(loads.len(), 2);
        assert!((loads[0] - 100.0 / 15.0).abs() < 1e-12);
        assert!((loads[1] - 20.0).abs() < 1e-12);
    }
}
