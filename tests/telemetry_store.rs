//! The counter-store invariant. While a window is armed the network books
//! every flit event once, into the one `LinkLedger` (writes per FIFO lane,
//! ejections per router, measured cycles; a lane's reads are derived from
//! its writes and its occupancy at the window's open and last settle),
//! and every energy figure — link, router, NI, pillar, aggregate — is
//! derived from it when read. Relays book lazily: a window's close books
//! what they owe and settles the reads, so the store is complete whenever
//! no window is armed, and a window's open drops what they owed the last
//! one. The mid-window energy push and a tracer's `window` record book
//! and settle too. These tests pin that booking at window edges and
//! mid-window neither loses nor duplicates an event, so a refactor that
//! does fails loudly.

use adele::online::ElevatorFirstSelector;
use noc_energy::{EnergyLedger, LinkLedger};
use noc_exp::{Scenario, SelectorSpec, WorkloadKind};
use noc_sim::{RunSummary, SimConfig, Simulator, TraceWriter, Tracer};
use noc_topology::placement::Placement;
use noc_topology::{Direction, ElevatorSet, Mesh3d, NodeId};
use noc_traffic::injection::PacketSizeRange;
use noc_traffic::{BatchedSynthetic, SyntheticParts, SyntheticTraffic};

fn measured_energy_scenario() -> Scenario {
    Scenario::from_placement("telemetry-store", Placement::Ps1)
        .with_phases(300, 1_200, 8_000)
        .with_workload(WorkloadKind::Uniform { rate: 0.003 })
        .with_selector(SelectorSpec::adele_measured_energy())
        .with_seed(17)
}

/// A PS1 simulator after 300 warm-up cycles.
fn ps1_simulator(selector: &SelectorSpec) -> Simulator {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let config = SimConfig::new(mesh, elevators.clone()).with_seed(29);
    let traffic = SyntheticTraffic::uniform(&mesh, 0.004, 29);
    let selector = selector.build(&mesh, &elevators, 29);
    let mut sim = Simulator::new(config, Box::new(traffic), selector);
    sim.advance(300).unwrap();
    sim
}

/// Steps `split` through `windows` back-to-back windows of `len` cycles
/// and `long` through one window spanning them all, and checks that the
/// windows' ledgers add up, counter for counter, to the long one's.
fn assert_windows_add_up(mut split: Simulator, mut long: Simulator, windows: u64, len: u64) {
    let whole = long.measure_window(windows * len).unwrap();
    assert!(whole.delivered_packets > 0, "sanity: traffic flowed");
    let mut sum = EnergyLedger::default();
    let mut ejections = 0;
    let mut router_flits = vec![0; whole.router_flits.len()];
    for _ in 0..windows {
        let window = split.measure_window(len).unwrap();
        sum.merge(&split.link_ledger().aggregate());
        ejections += split.link_ledger().ejections();
        for (total, flits) in router_flits.iter_mut().zip(window.router_flits) {
            *total += flits;
        }
    }
    assert_eq!(split.state_digest(), long.state_digest());
    assert_eq!(
        sum,
        long.link_ledger().aggregate(),
        "a window edge moved an event"
    );
    assert_eq!(ejections, long.link_ledger().ejections());
    assert_eq!(router_flits, whole.router_flits);
}

/// Windows partition the flit events: arming never changes the fabric,
/// so the ledgers of two back-to-back windows add up, counter for
/// counter, to the ledger of one window spanning both. A relay streaming
/// across the boundary owes each window its own share: the first close
/// books it, the second open starts from zero.
#[test]
fn window_ledgers_add_up_to_one_long_window() {
    let split = ps1_simulator(&SelectorSpec::adele());
    let long = ps1_simulator(&SelectorSpec::adele());
    assert_windows_add_up(split, long, 2, 700);
}

/// The same at the ends of worms: on a lightly loaded fabric of long
/// packets a worm streams from a relay its NI feeds (booking `Local`
/// writes) to one its NI drains (booking ejections), and forty short
/// windows put their edges on such relays again and again. A close that
/// left either unbooked would drop it from every window's sum.
#[test]
fn window_ledgers_add_up_across_end_relays() {
    let light_load = || {
        let mesh = Mesh3d::new(8, 8, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(2, 2), (5, 5)]).unwrap();
        let config = SimConfig::new(mesh, elevators.clone()).with_seed(5);
        let mut parts = SyntheticParts::uniform(&mesh, 0.001);
        parts.sizes = PacketSizeRange::new(20, 30);
        let traffic = BatchedSynthetic::from_parts(parts, 5);
        let selector = ElevatorFirstSelector::new(&mesh, &elevators);
        let mut sim = Simulator::from_scheduled(config, Box::new(traffic), Box::new(selector));
        sim.advance(500).unwrap();
        sim
    };
    assert_windows_add_up(light_load(), light_load(), 40, 25);
}

/// The full scenario path (warm-up + window + drain + summary), on the
/// telemetry-consuming measured-energy selector, whose pushes book the
/// relays mid-window, repeats bit-identically whatever the spec's
/// ignored `shards` field says.
#[test]
fn measured_energy_results_are_shard_independent() {
    let first = measured_energy_scenario().run().unwrap();
    assert!(
        first.summary.delivered_packets > 0,
        "sanity: traffic flowed"
    );
    let mut repeat = measured_energy_scenario();
    repeat.shards = 8;
    assert_eq!(repeat.run().unwrap(), first);
}

/// Two back-to-back measurement windows of a PS1 run; each yields its
/// summary — which carries `router_flits` — and its complete ledger. A
/// `trace_period` above 0 attaches a tracer whose `window` record books
/// the relays every `trace_period` cycles.
fn two_windows(selector: &SelectorSpec, trace_period: u64) -> Vec<(RunSummary, LinkLedger)> {
    let mut sim = ps1_simulator(selector);
    if trace_period > 0 {
        let writer = TraceWriter::new(Box::new(std::io::sink()));
        sim.attach_tracer(Tracer::new(writer, trace_period));
    }
    (0..2)
        .map(|_| {
            let summary = sim.measure_window(700).unwrap();
            (summary, sim.link_ledger().clone())
        })
        .collect()
}

/// Mid-window bookings leave the store equal lane for lane, not just in
/// the pillar roll-ups a `RunSummary` carries: every FIFO × VC counter,
/// every ejection count and the measured cycles. A period-100 tracer
/// books the relays in the middle of every armed window and must leave
/// every counter where the window's close alone puts it; the
/// measured-energy selector, whose period-256 pushes feed what they read
/// back into routing, must repeat bit-identically.
#[test]
fn booked_ledgers_are_equal_lane_for_lane() {
    let unbooked = two_windows(&SelectorSpec::adele(), 0);
    assert!(
        unbooked[0].0.delivered_packets > 0,
        "sanity: traffic flowed"
    );
    assert_eq!(
        two_windows(&SelectorSpec::adele(), 100),
        unbooked,
        "mid-window bookings moved a counter"
    );
    let measured = SelectorSpec::adele_measured_energy();
    assert_eq!(two_windows(&measured, 0), two_windows(&measured, 0));
}

/// A PS1 simulator on `selector`, stepped without relays unless `relays`,
/// with a period-100 tracer attached if `traced`, after 300 warm-up
/// cycles.
fn audited(selector: &SelectorSpec, relays: bool, traced: bool) -> Simulator {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let config = SimConfig::new(mesh, elevators.clone())
        .with_phases(300, 1_200, 8_000)
        .with_seed(31);
    let traffic = SyntheticTraffic::uniform(&mesh, 0.004, 31);
    let selector = selector.build(&mesh, &elevators, 31);
    let mut sim = Simulator::new(config, Box::new(traffic), selector);
    if !relays {
        sim.disable_relays();
    }
    if traced {
        let writer = TraceWriter::new(Box::new(std::io::sink()));
        sim.attach_tracer(Tracer::new(writer, 100));
    }
    sim.advance(300).unwrap();
    sim
}

/// Every lane's derived reads equal the flits the lane popped while
/// armed, tallied pop by pop (the `audit` feature); returns the reads.
fn reads_equal_the_pop_tally(sim: &Simulator) -> u64 {
    let (ledger, tally) = (sim.link_ledger(), sim.pop_tally());
    let mut total = 0;
    for node in 0..sim.link_map().node_count() {
        for port in Direction::ALL {
            for vc in 0..ledger.vcs() {
                let reads = ledger.buffer_reads(NodeId(node as u16), port, vc);
                let pops = tally[ledger.fifo(node, port.index(), vc)];
                assert_eq!(reads, pops, "router {node} lane ({port}, {vc})");
                total += reads;
            }
        }
    }
    total
}

/// `Simulator::run` arms its window without resetting the ledger: the
/// first measured cycle opens it. Every settle of an audited build checks
/// the derived reads against the pop tally lane for lane (the close, and
/// the traced drain's settles after it), so a mismatch panics inside the
/// run; relays on and off must also agree on the summary.
#[test]
fn a_run_derives_the_reads_it_pops() {
    let run = |relays| audited(&SelectorSpec::adele(), relays, true).run().unwrap();
    let summary = run(true);
    assert!(summary.delivered_packets > 0, "sanity: traffic flowed");
    assert_eq!(run(false), summary);
}

/// Two windows with an unarmed gap between them: each window's reads are
/// its own pops, and the gap moves neither.
#[test]
fn windows_around_an_unarmed_gap_derive_their_own_reads() {
    let mut ledgers = Vec::new();
    for relays in [true, false] {
        let mut sim = audited(&SelectorSpec::adele(), relays, false);
        sim.measure_window(500).unwrap();
        let first = sim.link_ledger().clone();
        assert!(reads_equal_the_pop_tally(&sim) > 0, "sanity: flits moved");
        sim.advance(200).unwrap();
        assert_eq!(sim.link_ledger(), &first, "the gap moved the ledger");
        reads_equal_the_pop_tally(&sim);
        sim.measure_window(500).unwrap();
        reads_equal_the_pop_tally(&sim);
        ledgers.push((first, sim.link_ledger().clone()));
    }
    assert_eq!(ledgers[0], ledgers[1], "relays moved a counter");
}

/// Settles in the middle of a window — a period-100 tracer's `window`
/// records and the measured-energy selector's period-256 pushes — leave
/// the close's reads equal to the pops; settles after the close (the
/// tracer stepping on unarmed) change nothing.
#[test]
fn settles_mid_window_and_after_the_close_keep_reads_exact() {
    let mut ledgers = Vec::new();
    for relays in [true, false] {
        let mut sim = audited(&SelectorSpec::adele_measured_energy(), relays, true);
        sim.measure_window(700).unwrap();
        let closed = sim.link_ledger().clone();
        assert!(reads_equal_the_pop_tally(&sim) > 0, "sanity: flits moved");
        sim.advance(300).unwrap();
        assert_eq!(
            sim.link_ledger(),
            &closed,
            "a settle after the close moved it"
        );
        reads_equal_the_pop_tally(&sim);
        ledgers.push(closed);
    }
    assert_eq!(ledgers[0], ledgers[1], "relays moved a counter");
}
