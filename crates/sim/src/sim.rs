//! The simulation driver: traffic → selection → network → statistics.
//! Traffic is one type, a boxed [`ScheduledSource`]; the simulator never
//! learns which stream version or generator stands behind it.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::flit::Packet;
use crate::hooks::{resolve_hotspots, Event, EventSchedule};
use crate::network::Network;
use crate::obs::{event_record, Tracer};
use crate::scheduler::InjectionScheduler;
use crate::stats::{RunSummary, StatsCollector};
use crate::table::PacketTable;
use adele::online::{ElevatorSelector, SelectionContext, SourceFeedback};
use noc_energy::{LinkLedger, LinkMap};
use noc_obs::{PhaseTimes, Record};
use noc_topology::route::{ElevatorCoord, VirtualNet};
use noc_topology::NodeId;
use noc_traffic::{
    CyclePolled, InjectionRequest, ScheduledSource, TrafficDirective, TrafficSource,
};
use serde::{Serialize, Value};
use std::time::{Duration, Instant};

/// What a watched cycle saw (all zero when nobody watches): the wall time
/// of each phase and whether the fabric moved or injected a flit.
#[derive(Default)]
struct CycleSample {
    phase: PhaseTimes,
    busy: bool,
}

/// A configured simulation run.
///
/// Owns the network, the workload and the elevator-selection policy;
/// [`Simulator::run`] executes warm-up → measurement → drain and returns a
/// [`RunSummary`].
pub struct Simulator {
    config: SimConfig,
    net: Network,
    packets: PacketTable,
    traffic: InjectionScheduler,
    selector: Box<dyn ElevatorSelector>,
    stats: StatsCollector,
    feedbacks: Vec<SourceFeedback>,
    /// Measured cycles between pillar-energy pushes to the selector, read
    /// once from [`ElevatorSelector::pillar_energy_period`]; `0` pushes
    /// nothing.
    energy_period: u64,
    schedule: EventSchedule,
    /// This cycle's staged injections, reused across cycles.
    pending: Vec<(NodeId, InjectionRequest)>,
    /// The attached flight recorder. `None` (the default) runs the cycle
    /// body unwatched — no clock, no open window; `Some` runs the same body
    /// watched and books every cycle here.
    tracer: Option<Box<Tracer>>,
    cycle: u64,
    last_progress: u64,
    /// First cycle at which an [`Event::FabricFreeze`] wedge thaws;
    /// `0` (the default) means not frozen — the hot path pays one
    /// always-false comparison.
    frozen_until: u64,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cycle", &self.cycle)
            .field("packets_in_flight", &self.packets.live())
            .field("policy", &self.selector.name())
            .field("workload", &self.traffic.name())
            .finish()
    }
}

impl Simulator {
    /// Assembles a simulator over a polled workload: [`Self::from_scheduled`]
    /// with `traffic` behind [`CyclePolled`] over the mesh's nodes.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`SimConfig::validate`]).
    #[must_use]
    pub fn new(
        config: SimConfig,
        traffic: Box<dyn TrafficSource>,
        selector: Box<dyn ElevatorSelector>,
    ) -> Self {
        let polled = CyclePolled::new(traffic, config.mesh.node_count());
        Self::from_scheduled(config, Box::new(polled), selector)
    }

    /// Assembles a simulator. A [`ScheduledSource`] is the one workload
    /// type the simulator runs: every injection reaches admission through
    /// the one injection calendar, and what differs between workloads
    /// (batched `v2`, polled `v1` behind [`CyclePolled`]) is composed in
    /// front of it — spec layers do that in `WorkloadSpec::build`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`SimConfig::validate`]).
    #[must_use]
    pub fn from_scheduled(
        config: SimConfig,
        traffic: Box<dyn ScheduledSource>,
        selector: Box<dyn ElevatorSelector>,
    ) -> Self {
        config.validate();
        let net = Network::new(config.mesh, config.elevators.clone(), config.buffer_depth);
        let stats = StatsCollector::for_config(&config);
        Self {
            config,
            net,
            packets: PacketTable::new(),
            traffic: InjectionScheduler::new(traffic),
            energy_period: selector.pillar_energy_period(),
            selector,
            stats,
            feedbacks: Vec::new(),
            schedule: EventSchedule::default(),
            pending: Vec::new(),
            tracer: None,
            cycle: 0,
            last_progress: 0,
            frozen_until: 0,
        }
    }

    /// Attaches a flight recorder: every subsequent step runs watched
    /// (the same cycle body, bit-identical, plus a clock) and the journal
    /// receives `phase`/`event`/`window`/`summary` records until the
    /// tracer is detached or the simulator is dropped.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(Box::new(tracer));
    }

    /// Detaches the flight recorder, returning it so the caller can
    /// [`Tracer::finish`] the journal.
    pub fn detach_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take().map(|t| *t)
    }

    /// The attached flight recorder, if any.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// Queues `event` to fire at the start of its cycle (before traffic
    /// generation, so selection that cycle already sees the change). An
    /// event stamped at or before the current cycle fires at the start of
    /// the next [`Self::step`].
    pub fn schedule(&mut self, event: Event) {
        self.schedule.push(event);
    }

    /// Applies a due event. Pillar health lives in the network alone;
    /// selectors read it through their probe.
    fn apply(&mut self, event: &Event) {
        match event {
            Event::ElevatorFail { elevator, .. } => self.net.set_elevator_failed(*elevator, true),
            Event::ElevatorRecover { elevator, .. } => {
                self.net.set_elevator_failed(*elevator, false);
            }
            Event::InjectionBurst { factor, .. } => {
                let directive = TrafficDirective::ScaleRate { factor: *factor };
                self.traffic.apply(&directive, self.cycle);
            }
            Event::HotspotShift {
                hotspots, fraction, ..
            } => {
                let directive = TrafficDirective::SetHotspots {
                    hotspots: resolve_hotspots(&self.config.mesh, hotspots),
                    fraction: *fraction,
                };
                self.traffic.apply(&directive, self.cycle);
            }
            Event::FabricFreeze { cycles, .. } => {
                self.frozen_until = self.frozen_until.max(self.cycle.saturating_add(*cycles));
            }
        }
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Immutable access to the network (probing, tests).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The digest of the committed fabric state
    /// ([`Network::state_digest`]) — what the lockstep suites compare per
    /// cycle.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        self.net.state_digest(&self.packets)
    }

    /// The statistics collector of the current measurement window.
    #[must_use]
    pub fn stats(&self) -> &StatsCollector {
        &self.stats
    }

    /// The flit-event counters of the current measurement window — the
    /// one store every energy figure derives from, the aggregate included
    /// ([`LinkLedger::aggregate`]). Complete whenever no window is armed,
    /// i.e. whenever [`Self::run`] or [`Self::measure_window`] hand
    /// control back.
    #[must_use]
    pub fn link_ledger(&self) -> &LinkLedger {
        self.net.link_ledger()
    }

    /// The canonical link enumeration of the simulated fabric.
    #[must_use]
    pub fn link_map(&self) -> &LinkMap {
        self.net.link_map()
    }

    /// The recycling packet table (slot-reuse diagnostics, tests).
    #[must_use]
    pub fn packet_table(&self) -> &PacketTable {
        &self.packets
    }

    /// Creates this cycle's packets and queues them at their NIs: drains
    /// the cycle's injections from the calendar, then admits them.
    ///
    /// Injections arrive sorted by node on both streams, so admission
    /// order — and with it selection and statistics order — is the node
    /// scan's. Polling a whole `v1` cycle before admitting any of it
    /// reorders nothing: nobody but the workload touches its RNG.
    fn generate_traffic(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        self.traffic.drain_due(self.cycle, &mut pending);
        for &(node, req) in &pending {
            self.admit_packet(node, req);
        }
        self.pending = pending;
    }

    /// Admits one injection request: drops degenerate packets, runs
    /// elevator selection for inter-layer traffic, records statistics and
    /// queues the packet at its source NI.
    fn admit_packet(&mut self, node: NodeId, req: InjectionRequest) {
        if req.dst == node || req.flits == 0 {
            return; // self-addressed or empty packets are dropped
        }
        let src = self.config.mesh.coord(node);
        let dst = self.config.mesh.coord(req.dst);
        let elevator = if src.z != dst.z {
            let ctx = SelectionContext {
                src_id: node,
                src,
                dst_id: req.dst,
                dst,
                elevators: self.net.elevators(),
                probe: &self.net,
                cycle: self.cycle,
            };
            let choice = self.selector.select(&ctx);
            Some(ElevatorCoord::from_set(self.net.elevators(), choice))
        } else {
            None
        };
        self.stats.on_packet_created(elevator.map(|e| e.id));
        let id = self.packets.insert(Packet {
            src: node,
            dst: req.dst,
            flits: req.flits,
            vnet: VirtualNet::for_layers(src.z, dst.z),
            elevator,
            created: self.cycle,
            head_out_src: None,
            tail_out_src: None,
            delivered: None,
            measured: self.stats.armed(),
        });
        self.net.enqueue_packet(&mut self.packets, node, id);
    }

    /// Advances one cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the watchdog fires (flits in
    /// flight but no progress for more than `config.watchdog` cycles) —
    /// with the default threshold this indicates a simulator or routing
    /// bug (Elevator-First routing is deadlock-free). The error carries
    /// exact-cycle diagnostics and the state digest of the wedged fabric;
    /// the simulator itself stays inspectable (the cycle counter is not
    /// advanced past the failure).
    pub fn step(&mut self) -> Result<(), SimError> {
        if self.tracer.is_some() {
            self.step_watched().map(drop)
        } else {
            self.run_cycle::<false>().map(drop)
        }
    }

    /// The one cycle body, one call per timed phase of [`PhaseTimes`]:
    /// due events and injection (*inject*) → `Network::phase1`
    /// (*compute*) → `Network::exchange` (*exchange*) →
    /// `Network::finish_cycle` and [`Self::post_step`] (*commit*).
    /// `WATCHED` is a compile-time choice: the unwatched instantiation
    /// reads no clock, journals nothing and returns zeros; the watched one
    /// journals each fired event to the attached tracer (if any) and laps
    /// a wall clock at every phase boundary. Simulation state evolves
    /// bit-identically either way.
    ///
    /// A cycle inside an [`Event::FabricFreeze`] wedge leaves before
    /// the network: events fire and traffic queues at the NIs, but no
    /// flit moves, no NI injects, and the cycle books as zero progress, so
    /// a freeze outlasting the watchdog (while flits are buffered)
    /// deterministically surfaces [`SimError::Deadlock`].
    #[inline]
    fn run_cycle<const WATCHED: bool>(&mut self) -> Result<CycleSample, SimError> {
        let mut sample = CycleSample::default();
        let mut clock = WATCHED.then(Instant::now);
        let mut lap = || match clock.as_mut() {
            Some(last) => {
                let now = Instant::now();
                now - std::mem::replace(last, now)
            }
            None => Duration::ZERO,
        };
        while let Some(event) = self.schedule.next_due(self.cycle) {
            if WATCHED {
                if let Some(tracer) = self.tracer.as_mut() {
                    tracer.write(&event_record(self.cycle, &event));
                }
            }
            self.apply(&event);
        }
        self.generate_traffic();
        sample.phase.inject = lap();
        // Decided after the events fire, so a freeze wedges the cycle it
        // fires on: `cycles: n` at cycle `t` holds `t..t + n`.
        if self.cycle < self.frozen_until {
            return self.post_step(false).map(|()| sample);
        }
        let armed = self.stats.armed();
        self.net.phase1(&self.packets, self.cycle, armed);
        sample.phase.compute = lap();
        self.net.exchange(&self.packets, armed);
        sample.phase.exchange = lap();
        let progress = self.net.finish_cycle(
            &mut self.packets,
            self.cycle,
            &mut self.stats,
            &mut self.feedbacks,
        );
        // A frozen cycle never gets this far, so it books as idle.
        sample.busy = progress;
        self.post_step(progress)?;
        sample.phase.commit = lap();
        Ok(sample)
    }

    /// A watched cycle: the body with the clock running. With a tracer
    /// attached, the sample is booked into its open window and a window
    /// closes every `period` completed cycles; a failed cycle books
    /// nothing and closes no window, so the journal keeps everything
    /// recorded up to the failure.
    fn step_watched(&mut self) -> Result<CycleSample, SimError> {
        let sample = self.run_cycle::<true>()?;
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.window.book(&sample.phase, sample.busy);
            // The body advanced the cycle, so `self.cycle` now counts
            // completed cycles.
            if self.cycle.is_multiple_of(tracer.period()) {
                self.emit_window();
            }
        }
        Ok(sample)
    }

    /// Closes the open window and appends the `window` record: the
    /// deterministic gauges under `det`, the environmental ones under
    /// `aux`, wall times under `timing`.
    fn emit_window(&mut self) {
        let mut tracer = self.tracer.take().expect("windows close under a tracer");
        let delta = std::mem::take(&mut tracer.window);
        let calendar = self.traffic.calendar_depth();
        // `delivered_flits` reads the counter store: the relays book what
        // they owe first (a sink relay's ejections included).
        self.net.book_relays();
        let det = Value::Object(vec![
            (
                "digest".to_string(),
                Value::String(format!("{:016x}", self.state_digest())),
            ),
            (
                "created_packets".to_string(),
                Value::UInt(self.packets.total_created()),
            ),
            (
                "live_packets".to_string(),
                Value::UInt(self.packets.live() as u64),
            ),
            (
                "outstanding".to_string(),
                Value::UInt(self.packets.measured_outstanding() as u64),
            ),
            (
                "queued_packets".to_string(),
                Value::UInt(self.net.queued_packets()),
            ),
            (
                "buffered_flits".to_string(),
                Value::UInt(self.net.buffered_flits()),
            ),
            (
                "worklist".to_string(),
                Value::UInt(self.net.worklist_occupancy()),
            ),
            ("calendar".to_string(), Value::UInt(calendar)),
            (
                "injected_packets".to_string(),
                Value::UInt(self.stats.injected_packets),
            ),
            (
                "delivered_packets".to_string(),
                Value::UInt(self.stats.delivered_packets),
            ),
            (
                "delivered_flits".to_string(),
                Value::UInt(self.net.link_ledger().ejections()),
            ),
            (
                "latency_sum".to_string(),
                Value::UInt(self.stats.total_latency),
            ),
            ("armed".to_string(), Value::Bool(self.stats.armed())),
        ]);
        tracer.write(&Record::Window {
            cycle: self.cycle,
            det,
            aux: delta.aux_value(),
            timing: delta.phase.timing_value(),
        });
        // A `hist` record per window, carrying cumulative snapshots of
        // the delivery and fabric histograms.
        if let Some(packets) = self.stats.packet_hists() {
            let fabric = tracer.fabric_mut();
            self.net.sample_fabric(fabric);
            fabric.calendar_depth.record(calendar);
            let entries = noc_obs::hist_record_entries(packets, tracer.fabric_hists());
            tracer.write(&Record::Hist {
                cycle: self.cycle,
                hists: entries,
            });
        }
        self.tracer = Some(tracer);
    }

    /// Appends a `phase` record if a tracer is attached.
    fn trace_phase(&mut self, phase: &str) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.write(&Record::Phase {
                cycle: self.cycle,
                phase: phase.to_string(),
            });
        }
    }

    /// Snapshots the wedged fabric into a [`SimError::Deadlock`] — the
    /// cold path of the watchdog, reached at most once per run.
    #[cold]
    fn deadlock_error(&self) -> SimError {
        SimError::Deadlock {
            cycle: self.cycle,
            last_progress: self.last_progress,
            watchdog: self.config.watchdog,
            in_flight: self.packets.live() as u64,
            buffered: self.net.buffered_flits(),
            calendar_depth: self.traffic.calendar_depth(),
            state_digest: self.state_digest(),
        }
    }

    /// The post-network tail of a cycle: feedback forwarding, the
    /// periodic energy push, the deadlock watchdog, and the cycle count.
    fn post_step(&mut self, progress: bool) -> Result<(), SimError> {
        for fb in self.feedbacks.drain(..) {
            self.selector.on_source_departure(&fb);
        }

        // Periodically surface measured per-pillar energy to a policy that
        // asked for it.
        let period = self.energy_period;
        if period > 0 && self.stats.armed() && self.cycle.is_multiple_of(period) {
            // The signal reads the counter store: the relays book what
            // they owe first, so the push sees the complete window.
            self.net.book_relays();
            let signal = (self.net.link_ledger())
                .pillar_energy_per_tsv_flit(self.net.link_map(), &self.config.energy);
            self.selector.on_pillar_energy(&signal);
        }

        if progress || self.net.buffered_flits() == 0 {
            self.last_progress = self.cycle;
        } else if self.cycle - self.last_progress > self.config.watchdog {
            // Failure is a value, not a panic: the error is built only on
            // this cold path, so the non-failing hot loop still pays
            // nothing beyond the comparison the watchdog always made. The
            // cycle counter stays at the failed cycle so callers can
            // correlate the diagnostics with traces.
            return Err(self.deadlock_error());
        }
        self.cycle += 1;
        Ok(())
    }

    /// Advances `cycles` watched cycles and sums their samples — the probe
    /// behind the benchmark's `noc_sim.*_ns_per_cycle` phase split.
    /// Returns the accumulated phase times and the total wall time.
    /// Semantically identical to [`Self::advance`] on a traced simulator,
    /// journal included.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Deadlock`] from the watchdog; the phase
    /// times accumulated up to the failed cycle are discarded.
    #[doc(hidden)]
    pub fn advance_phase_timed(&mut self, cycles: u64) -> Result<(PhaseTimes, Duration), SimError> {
        let start = Instant::now();
        let mut phase = PhaseTimes::default();
        for _ in 0..cycles {
            phase.accumulate(&self.step_watched()?.phase);
        }
        Ok((phase, start.elapsed()))
    }

    /// Advances `cycles` cycles without touching measurement state
    /// (warm-up, inter-window gaps in phased experiments).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Deadlock`] from the watchdog at the cycle
    /// it fires; earlier cycles have fully committed.
    pub fn advance(&mut self, cycles: u64) -> Result<(), SimError> {
        for _ in 0..cycles {
            self.step()?;
        }
        Ok(())
    }

    /// Runs one measurement window of `cycles` cycles and summarises it in
    /// isolation: statistics and energy counters start fresh, and packets
    /// still in flight from earlier windows are excluded from this
    /// window's latency figures.
    ///
    /// This is the phased-experiment API: scenario engines call it
    /// repeatedly around scheduled events to compare, e.g., latency before
    /// and after an elevator failure within a single run. `completed` in
    /// the returned summary is `true` if every packet created in this
    /// window was also delivered within it.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Deadlock`] from the watchdog. The window's
    /// partial statistics are discarded (the simulator stays inspectable
    /// for diagnostics, but a wedged window has no meaningful summary).
    pub fn measure_window(&mut self, cycles: u64) -> Result<RunSummary, SimError> {
        // Orphan unfinished packets from earlier windows so their eventual
        // delivery does not leak into this window's figures.
        self.packets.orphan_unfinished();
        self.stats = StatsCollector::for_config(&self.config);
        self.net.reset_ledger();
        self.stats.set_armed(true);
        let window = self.advance(cycles);
        self.disarm();
        window?;
        Ok(self.summarise(self.packets.measured_outstanding() == 0))
    }

    /// Closes the measurement window: the relays book what they owe and
    /// the reads settle, so the counter store is complete, and frozen, for
    /// any reader until the next window arms.
    fn disarm(&mut self) {
        self.stats.set_armed(false);
        self.net.close_ledger();
    }

    /// Summarises the window from the statistics and the counter store.
    fn summarise(&self, completed: bool) -> RunSummary {
        RunSummary::from_parts(
            self.selector.name(),
            self.traffic.name(),
            self.traffic.mean_rate(),
            &self.stats,
            self.net.link_ledger(),
            self.net.link_map(),
            &self.config.energy,
            completed,
        )
    }

    /// Executes warm-up → measurement → drain and summarises.
    ///
    /// With a tracer attached, the journal additionally receives a
    /// `phase` record at each phase boundary and a `summary` record at
    /// the end (the journal of a failed run keeps everything recorded up
    /// to the failed cycle, with no summary).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Deadlock`] from the watchdog in any phase.
    /// Note that drain-cap exhaustion is *not* an error: a saturated
    /// fabric that cannot drain in `drain_max` cycles is a legitimate
    /// measurement outcome, reported as `completed = false` in the
    /// summary (saturation sweeps depend on this signal).
    pub fn run(mut self) -> Result<RunSummary, SimError> {
        self.trace_phase("warmup");
        self.advance(self.config.warmup)?;
        self.trace_phase("measure");
        self.stats.set_armed(true);
        let measured = self.advance(self.config.measure);
        self.disarm();
        measured?;
        self.trace_phase("drain");

        // Drain with traffic still flowing (background congestion stays
        // realistic); stop once every measured packet has been delivered.
        // The completion check is an O(1) counter now, so it runs every
        // cycle; the cap keeps the historical 64-cycle check quantum (the
        // old core only noticed completion at block boundaries), so run
        // outcomes stay bit-identical.
        let cap = self.config.drain_max.div_ceil(64) * 64;
        let mut drained = 0;
        let mut completed = self.packets.measured_outstanding() == 0;
        while !completed && drained < cap {
            self.step()?;
            drained += 1;
            completed = self.packets.measured_outstanding() == 0;
        }

        self.trace_phase("done");
        let summary = self.summarise(completed);
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.write(&Record::Summary {
                summary: summary.to_value(),
            });
        }
        Ok(summary)
    }
}

/// Test-only instrumentation (the `audit` feature; integration tests).
#[cfg(feature = "audit")]
impl Simulator {
    /// Steps the per-flit engine from now on: no router becomes a relay.
    #[doc(hidden)]
    pub fn disable_relays(&mut self) {
        self.net.disable_relays();
    }

    /// The flits each input FIFO popped while armed since the last reset,
    /// indexed [`LinkLedger::fifo`]: the reads the ledger derives, counted
    /// per pop instead (every settle already checks the two agree).
    #[doc(hidden)]
    #[must_use]
    pub fn pop_tally(&self) -> &[u64] {
        self.net.pop_tally()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adele::online::{ElevatorFirstSelector, NetworkProbe};
    use noc_topology::{ElevatorId, ElevatorSet, Mesh3d};
    use noc_traffic::SyntheticTraffic;

    fn quick_config() -> SimConfig {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
        SimConfig::new(mesh, elevators).with_phases(200, 800, 4000)
    }

    fn run_uniform(rate: f64, seed: u64) -> RunSummary {
        let config = quick_config().with_seed(seed);
        let traffic = SyntheticTraffic::uniform(&config.mesh, rate, seed);
        let selector = ElevatorFirstSelector::new(&config.mesh, &config.elevators);
        Simulator::new(config, Box::new(traffic), Box::new(selector))
            .run()
            .unwrap()
    }

    #[test]
    fn light_load_delivers_everything() {
        let summary = run_uniform(0.002, 3);
        assert!(summary.completed, "light load must drain");
        assert!(summary.delivered_packets >= summary.injected_packets * 9 / 10);
        assert!(summary.avg_latency > 0.0);
        assert!(summary.energy_per_flit_nj > 0.0);
        assert_eq!(summary.policy, "ElevFirst");
        assert_eq!(summary.workload, "uniform");
    }

    #[test]
    fn latency_grows_with_load() {
        let low = run_uniform(0.001, 5);
        let high = run_uniform(0.008, 5);
        assert!(
            high.avg_latency > low.avg_latency,
            "latency must grow with load: {} vs {}",
            high.avg_latency,
            low.avg_latency
        );
    }

    #[test]
    fn same_seed_reproduces_summary() {
        let a = run_uniform(0.004, 11);
        let b = run_uniform(0.004, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let summary = run_uniform(0.0, 1);
        assert_eq!(summary.injected_packets, 0);
        assert_eq!(summary.delivered_packets, 0);
        assert!(summary.completed);
    }

    fn quick_simulator(seed: u64) -> Simulator {
        let config = quick_config().with_seed(seed);
        let traffic = SyntheticTraffic::uniform(&config.mesh, 0.004, seed);
        let selector = ElevatorFirstSelector::new(&config.mesh, &config.elevators);
        Simulator::new(config, Box::new(traffic), Box::new(selector))
    }

    #[test]
    fn scheduled_elevator_failure_diverts_selection() {
        let healthy = quick_simulator(7).run().unwrap();
        assert!(
            healthy.elevator_packets.iter().all(|&n| n > 0),
            "sanity: both pillars used when healthy ({:?})",
            healthy.elevator_packets
        );

        let mut sim = quick_simulator(7);
        sim.schedule(Event::ElevatorFail {
            cycle: 0,
            elevator: ElevatorId(0),
        });
        assert!(sim.network().failed_elevators().is_empty());
        let failed = sim.run().unwrap();
        assert_eq!(
            failed.elevator_packets[0], 0,
            "no packet may pick the pillar that died before measurement"
        );
        assert!(failed.elevator_packets[1] > 0);
        assert!(failed.completed, "survivor must carry the full load");
    }

    #[test]
    fn scheduled_recovery_restores_the_pillar() {
        let mut sim = quick_simulator(9);
        let elevator = ElevatorId(1);
        sim.schedule(Event::ElevatorFail { cycle: 0, elevator });
        sim.schedule(Event::ElevatorRecover { cycle: 5, elevator });
        sim.advance(1).unwrap();
        assert!(sim.network().failed_elevators().contains(elevator));
        sim.advance(9).unwrap();
        assert!(sim.network().failed_elevators().is_empty());
        let summary = sim.run().unwrap();
        assert!(
            summary.elevator_packets[1] > 0,
            "repaired pillar re-enters selection"
        );
    }

    #[test]
    fn injection_burst_command_scales_offered_load() {
        let mut sim = quick_simulator(3);
        sim.schedule(Event::InjectionBurst {
            cycle: 0,
            factor: 0.0,
        });
        let summary = sim.run().unwrap();
        assert_eq!(
            summary.injected_packets, 0,
            "a zero-factor burst silences the workload"
        );
    }

    #[test]
    fn measure_window_isolates_phases() {
        let mut sim = quick_simulator(5);
        sim.advance(200).unwrap();
        let w1 = sim.measure_window(800).unwrap();
        let w2 = sim.measure_window(800).unwrap();
        for w in [&w1, &w2] {
            assert!(w.delivered_packets > 0);
            assert!(w.avg_latency > 0.0);
            assert_eq!(w.measured_cycles, 800);
        }
        // Each window counts only its own injections: the totals are in the
        // same ballpark (same offered load), not cumulative.
        let ratio = w1.injected_packets as f64 / w2.injected_packets.max(1) as f64;
        assert!((0.5..2.0).contains(&ratio), "windows must not accumulate");
    }

    /// A simulator rigged to deadlock: a mid-run fabric freeze longer
    /// than the (deliberately tiny) watchdog, scheduled while traffic is
    /// flowing so flits are in flight when the fabric wedges.
    fn rigged_simulator(watchdog: u64) -> Simulator {
        let config = quick_config().with_seed(13).with_watchdog(watchdog);
        let traffic = SyntheticTraffic::uniform(&config.mesh, 0.01, 13);
        let selector = ElevatorFirstSelector::new(&config.mesh, &config.elevators);
        let mut sim = Simulator::new(config, Box::new(traffic), Box::new(selector));
        sim.schedule(Event::FabricFreeze {
            cycle: 300,
            cycles: 400,
        });
        sim
    }

    #[test]
    fn frozen_fabric_surfaces_deadlock_as_a_value() {
        let err = rigged_simulator(25)
            .run()
            .expect_err("a 400-cycle freeze must outlast a 25-cycle watchdog");
        let SimError::Deadlock {
            cycle,
            last_progress,
            watchdog,
            buffered,
            in_flight,
            ..
        } = err;
        assert_eq!(watchdog, 25);
        assert!(
            cycle - last_progress > 25,
            "the no-progress span must exceed the watchdog"
        );
        assert!(buffered > 0, "the watchdog only arms with flits in flight");
        assert!(in_flight > 0);
    }

    #[test]
    fn induced_deadlock_is_deterministic() {
        let run = || {
            rigged_simulator(25)
                .run()
                .expect_err("deterministic deadlock")
        };
        assert_eq!(run(), run(), "same (config, seed) → same diagnostics");
    }

    #[test]
    fn short_freeze_is_a_recoverable_stall() {
        // A freeze shorter than the watchdog is a transient hang: the
        // fabric thaws, the run completes, only latency shows the scar.
        let config = quick_config().with_seed(13);
        let traffic = SyntheticTraffic::uniform(&config.mesh, 0.004, 13);
        let selector = ElevatorFirstSelector::new(&config.mesh, &config.elevators);
        let mut sim = Simulator::new(config, Box::new(traffic), Box::new(selector));
        sim.schedule(Event::FabricFreeze {
            cycle: 300,
            cycles: 50,
        });
        let frozen = sim.run().expect("sub-watchdog freeze must recover");
        let clean = run_uniform(0.004, 13);
        assert!(frozen.completed, "the thawed fabric must drain");
        assert!(
            frozen.avg_latency > clean.avg_latency,
            "a 50-cycle stall must show up in latency ({} vs {})",
            frozen.avg_latency,
            clean.avg_latency
        );
    }

    #[test]
    fn freeze_wedges_exactly_its_span() {
        for n in [1, 3] {
            let config = quick_config();
            let traffic = SyntheticTraffic::uniform(&config.mesh, 0.01, 13);
            let selector = ElevatorFirstSelector::new(&config.mesh, &config.elevators);
            let mut sim = Simulator::new(config, Box::new(traffic), Box::new(selector));
            sim.advance(200).unwrap();
            // Silence the workload so the source queues, which the digest
            // covers, only move when the fabric does.
            let t = sim.cycle();
            sim.schedule(Event::InjectionBurst {
                cycle: t,
                factor: 0.0,
            });
            sim.schedule(Event::FabricFreeze {
                cycle: t,
                cycles: n,
            });
            assert!(sim.network().buffered_flits() > 0, "flits in flight");
            let wedged = sim.state_digest();
            for cycle in t..t + n {
                sim.step().unwrap();
                assert_eq!(
                    sim.state_digest(),
                    wedged,
                    "cycle {cycle} of a {n}-cycle freeze fired at {t} must not move"
                );
            }
            sim.step().unwrap();
            assert_ne!(
                sim.state_digest(),
                wedged,
                "cycle {} thaws a {n}-cycle freeze fired at {t}",
                t + n
            );
        }
    }
}

#[cfg(test)]
mod relay_oracle;
