//! The relay oracle: one simulator that promotes relays and one that
//! steps the per-flit engine only, driven in lockstep by the same
//! workload. Every cycle their committed fabric state and progress must
//! agree and both must pass the conservation and relay audits; whenever
//! the relays book what they owe, so must their summaries and counter
//! stores, lane for lane; and their journals must agree record for
//! record.

use super::Simulator;
use crate::{Event, SimConfig, TraceWriter, Tracer};
use adele::online::{CdaSelector, ElevatorFirstSelector, ElevatorSelector};
use noc_obs::{compare_journals, parse_journal, SharedBuffer};
use noc_topology::{Coord, ElevatorId, ElevatorSet, Mesh3d, NodeId};
use noc_traffic::injection::{InjectionProcess, OnOffParams, PacketSizeRange};
use noc_traffic::pattern::Hotspot;
use noc_traffic::scheduled::{ScheduledInjection, ScheduledSource};
use noc_traffic::{BatchedSynthetic, InjectionRequest, SyntheticParts, TrafficDirective};
use proptest::prelude::*;

/// A named case's injections, sorted by `(cycle, node)`, replayed as is.
#[derive(Debug, Clone, Default)]
struct Script {
    injections: Vec<ScheduledInjection>,
    next: usize,
}

impl Script {
    /// Six packets of `flits` flits from `src` to `dst`, one every 40
    /// cycles from cycle `from` on, merged into the script.
    fn worms(mut self, mesh: &Mesh3d, (src, dst): (Coord, Coord), flits: u16, from: u64) -> Self {
        let (node, dst) = (mesh.node_id(src).unwrap(), mesh.node_id(dst).unwrap());
        for k in 0..6 {
            self.injections.push(ScheduledInjection {
                cycle: from + 40 * k,
                node,
                request: InjectionRequest { dst, flits },
            });
        }
        self.injections.sort_by_key(|i| (i.cycle, i.node));
        self
    }
}

impl ScheduledSource for Script {
    fn next_injections(&mut self, up_to: u64) -> &[ScheduledInjection] {
        let first = self.next;
        let due = self.injections[first..]
            .iter()
            .take_while(|i| i.cycle <= up_to);
        self.next += due.count();
        &self.injections[first..self.next]
    }

    fn name(&self) -> &'static str {
        "script"
    }

    fn apply(&mut self, _: &TrafficDirective, _: u64) {}
}

/// One lockstep scenario.
#[derive(Debug, Clone)]
struct Case {
    mesh: Mesh3d,
    columns: Vec<(u8, u8)>,
    depth: u8,
    /// Packet sizes, inclusive.
    sizes: (u16, u16),
    rate: f64,
    /// A quarter of the packets go to node 0, which is a sink of several
    /// worms and a source at once.
    hotspot: bool,
    /// On/off bursts, which queue several packets at one source.
    bursty: bool,
    cda: bool,
    seed: u64,
    /// Earliest cycle at which the fabric freezes and, with two pillars or
    /// more, pillar 0 fails: the first from here on with a source or sink
    /// relay live, at the latest 100 cycles later.
    event_at: u64,
    /// Cycles between relay bookings.
    book_every: u64,
    /// Both engines journal a window every 50 cycles (which books the
    /// relays), and the journals must agree.
    traced: bool,
    /// Replayed in place of the synthetic workload if not empty.
    script: Script,
}

/// Relay cycles of the armed cycles, by kind, and their sends; over all
/// cycles, relay cycles in routers holding other flits (at NI ends among
/// them), and those whose router's other flits were all blocked; relays
/// demoted as a head came to ask for their port; and whether the freeze
/// landed while a source or sink relay was live.
#[derive(Debug, Default)]
struct Tally {
    relay: u64,
    source: u64,
    sink: u64,
    sends: u64,
    busy: u64,
    busy_ends: u64,
    stuck: u64,
    head_demotes: u64,
    event_on_end_relay: bool,
}

impl Case {
    /// The simulator and, if traced, the buffer it journals into.
    fn build(&self, relays: bool) -> (Simulator, SharedBuffer) {
        let elevators = ElevatorSet::new(&self.mesh, self.columns.iter().copied()).unwrap();
        let mut config = SimConfig::new(self.mesh, elevators.clone());
        config.buffer_depth = self.depth;
        let mut parts = SyntheticParts::uniform(&self.mesh, self.rate);
        parts.sizes = PacketSizeRange::new(self.sizes.0, self.sizes.1);
        if self.hotspot {
            let n = self.mesh.node_count();
            parts.pattern = Box::new(Hotspot::new(n, vec![NodeId(0)], 0.25));
        }
        if self.bursty {
            let process = InjectionProcess::on_off(self.rate, OnOffParams::new(0.05, 0.01, 0.0));
            parts.process = process;
        }
        let traffic: Box<dyn ScheduledSource> = if self.script.injections.is_empty() {
            Box::new(BatchedSynthetic::from_parts(parts, self.seed))
        } else {
            Box::new(self.script.clone())
        };
        let selector: Box<dyn ElevatorSelector> = if self.cda {
            Box::new(CdaSelector::new())
        } else {
            Box::new(ElevatorFirstSelector::new(&self.mesh, &elevators))
        };
        let mut sim = Simulator::from_scheduled(config, traffic, selector);
        if !relays {
            sim.net.disable_relays();
        }
        let journal = SharedBuffer::new();
        if self.traced {
            let writer = TraceWriter::new(Box::new(journal.clone()));
            sim.attach_tracer(Tracer::new(writer, 50));
        }
        (sim, journal)
    }

    /// Schedules the freeze and the pillar failure on cycle `at`.
    fn schedule_event(&self, sim: &mut Simulator, at: u64) {
        sim.schedule(Event::FabricFreeze {
            cycle: at,
            cycles: 7,
        });
        if self.columns.len() > 1 {
            sim.schedule(Event::ElevatorFail {
                cycle: at,
                elevator: ElevatorId(0),
            });
        }
    }

    /// Steps both engines `cycles` cycles, armed on the second and fourth
    /// quarters, and tallies the armed cycles' relay cycles and sends.
    fn lockstep(&self, cycles: u64) -> Result<Tally, TestCaseError> {
        let ((mut relay, relay_journal), (mut plain, plain_journal)) =
            (self.build(true), self.build(false));
        let mut tally = Tally::default();
        let mut event = false;
        for cycle in 0..cycles {
            let (sources, sinks) = relay.net.end_relay_counts();
            if !event && cycle >= self.event_at {
                tally.event_on_end_relay = sources + sinks > 0;
                event = tally.event_on_end_relay || cycle >= self.event_at + 100;
                if event {
                    self.schedule_event(&mut relay, cycle);
                    self.schedule_event(&mut plain, cycle);
                }
            }
            let armed = cycle * 4 / cycles % 2 == 1;
            relay.stats.set_armed(armed);
            plain.stats.set_armed(armed);
            if armed {
                tally.relay += relay.net.relay_count() as u64;
                tally.source += sources as u64;
                tally.sink += sinks as u64;
            }
            let (busy, busy_ends) = relay.net.busy_relay_counts();
            tally.busy += busy as u64;
            tally.busy_ends += busy_ends as u64;
            tally.stuck += relay.net.stuck_mate_count(&relay.packets) as u64;
            let lanes = relay.net.relay_lanes();
            relay.step().unwrap();
            plain.step().unwrap();
            let after = relay.net.relay_lanes();
            let demoted = lanes.iter().filter(|l| !after.contains(l));
            tally.head_demotes += demoted
                .filter(|&&lane| relay.net.head_claims(lane, &relay.packets))
                .count() as u64;
            let why = |what: &str| format!("cycle {cycle}: {what} diverged in {self:?}");
            prop_assert_eq!(
                relay.state_digest(),
                plain.state_digest(),
                "{}",
                why("state")
            );
            prop_assert_eq!(
                relay.last_progress,
                plain.last_progress,
                "{}",
                why("progress")
            );
            for sim in [&relay, &plain] {
                let audit = sim
                    .net
                    .check_flow_conservation()
                    .and(sim.net.check_relays(&sim.packets));
                if let Err(e) = audit {
                    return Err(TestCaseError::fail(why(&e)));
                }
            }
            if (cycle + 1) % self.book_every == 0 || cycle + 1 == cycles {
                relay.net.book_relays();
                plain.net.book_relays();
                let summaries = (relay.summarise(false), plain.summarise(false));
                prop_assert_eq!(summaries.0, summaries.1, "{}", why("summary"));
                prop_assert_eq!(
                    relay.link_ledger(),
                    plain.link_ledger(),
                    "{}",
                    why("ledger")
                );
            }
        }
        if self.traced {
            let journals = [relay_journal, plain_journal].map(|j| parse_journal(&j.contents()));
            let [relay_records, plain_records] = journals.map(Result::unwrap);
            if let Err(e) = compare_journals(&plain_records, &relay_records) {
                return Err(TestCaseError::fail(format!(
                    "journals diverged in {self:?}: {e}"
                )));
            }
        }
        tally.sends = relay.link_ledger().aggregate().buffer_reads;
        Ok(tally)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Relays change nothing: meshes up to 5×5×3 with failed pillars,
    /// depths 1 to 4, packets of 1–3 or 1–30 flits, loads from idle
    /// to past saturation, uniform or hotspot destinations, steady or
    /// bursty sources, traced or not, and a fabric freeze mid-run.
    #[test]
    fn relays_step_like_the_per_flit_engine(
        (mesh, columns) in (2usize..=5, 2usize..=5, 1usize..=3).prop_flat_map(|(x, y, z)| {
            let columns = prop::collection::hash_set((0..x as u8, 0..y as u8), 1..=3);
            (Just(Mesh3d::new(x, y, z).unwrap()), columns)
        }),
        (depth, short, sizes, load) in (0usize..4, 0usize..2, (1u16..=30, 1u16..=30), 0.0f64..1.0),
        (hotspot, bursty, cda, seed) in (0usize..2, 0usize..2, 0usize..2, 0u64..1_000),
        (event_at, book_every, traced) in (0u64..300, 1u64..150, 0usize..2),
    ) {
        // Sorted, so a reported case reproduces whatever the set's order.
        let mut columns: Vec<(u8, u8)> = columns.into_iter().collect();
        columns.sort_unstable();
        let sizes = if short == 1 { (1 + sizes.0 % 3, 1 + sizes.1 % 3) } else { sizes };
        let sizes = (sizes.0.min(sizes.1), sizes.0.max(sizes.1));
        let mean = f64::from(sizes.0 + sizes.1) / 2.0;
        let case = Case {
            mesh,
            columns,
            depth: [1, 2, 3, 4][depth],
            sizes,
            // Skewed toward light loads, where worms stream; short packets
            // get a higher ceiling so they too reach saturation.
            rate: load * load * 0.02f64.max(0.3 / mean),
            hotspot: hotspot == 1,
            bursty: bursty == 1,
            cda: cda == 1,
            seed,
            event_at,
            book_every,
            traced: traced == 1,
            script: Script::default(),
        };
        case.lockstep(400)?;
    }
}

/// The oracle is not vacuous: a lightly loaded fabric of long packets
/// runs most of its sends as relay cycles, its NIs feeding and draining
/// relays among them.
#[test]
fn most_light_load_sends_are_relay_cycles() {
    let mesh = Mesh3d::new(8, 8, 2).unwrap();
    let case = Case {
        mesh,
        columns: vec![(2, 2), (5, 5)],
        depth: 4,
        sizes: (20, 30),
        rate: 0.0005,
        hotspot: false,
        bursty: false,
        cda: false,
        seed: 3,
        event_at: 150,
        book_every: 50,
        traced: false,
        script: Script::default(),
    };
    let tally = case.lockstep(600).unwrap();
    assert!(tally.relay * 2 > tally.sends, "{tally:?}");
    assert!(tally.source > 0 && tally.sink > 0, "{tally:?}");
}

/// A light load of long packets on `mesh`, depth 4, one pillar.
fn light_long_packets(mesh: Mesh3d) -> Case {
    Case {
        mesh,
        columns: vec![(0, 0)],
        depth: 4,
        sizes: (20, 30),
        rate: 0.002,
        hotspot: false,
        bursty: false,
        cda: false,
        seed: 11,
        event_at: 200,
        book_every: 37,
        traced: true,
        script: Script::default(),
    }
}

/// One-hop worms: a source relay drains into a sink relay, and the
/// `Tail` its NI feeds reaches the sink the cycle after it demotes.
#[test]
fn one_hop_worms_stream_from_a_source_relay_into_a_sink_relay() {
    let tally = light_long_packets(Mesh3d::new(2, 1, 1).unwrap())
        .lockstep(600)
        .unwrap();
    assert!(tally.source > 0 && tally.sink > 0, "{tally:?}");
}

/// At depth 1 the NI gets its credit back a cycle after each send, so it
/// cannot feed every cycle, and no router ever ejects every cycle either:
/// no end relay is promoted, and nothing diverges.
#[test]
fn depth_one_promotes_no_end_relay() {
    let case = Case {
        depth: 1,
        ..light_long_packets(Mesh3d::new(4, 4, 1).unwrap())
    };
    let tally = case.lockstep(600).unwrap();
    assert_eq!((tally.source, tally.sink), (0, 0), "{tally:?}");
}

/// Bursts queue packets behind the one a source relay injects, and a
/// hotspot makes node 0 the sink of several worms and a source at once:
/// a packet enqueued at a sink relay's router demotes it, one enqueued
/// behind a source relay's packet waits for its `Tail`.
#[test]
fn queued_packets_and_a_hotspot_sink_that_is_also_a_source() {
    let case = Case {
        rate: 0.004,
        hotspot: true,
        bursty: true,
        ..light_long_packets(Mesh3d::new(4, 4, 2).unwrap())
    };
    let tally = case.lockstep(800).unwrap();
    assert!(tally.source > 0 && tally.sink > 0, "{tally:?}");
}

/// The fabric freezes and pillar 0 fails while an end relay is live, on
/// two pillars and packets of 1 to 30 flits (a source relay carries four
/// or more).
#[test]
fn freeze_and_pillar_failure_land_on_a_live_end_relay() {
    let case = Case {
        columns: vec![(0, 0), (3, 3)],
        sizes: (1, 30),
        event_at: 50,
        ..light_long_packets(Mesh3d::new(4, 4, 2).unwrap())
    };
    let tally = case.lockstep(600).unwrap();
    assert!(tally.event_on_end_relay, "{tally:?}");
}

/// Lane relays are not vacuous: at a moderate load of mid-sized packets
/// on a small 3-D mesh, relay lanes share their router with other flits,
/// at NI ends too.
#[test]
fn moderate_load_keeps_lane_relays_in_busy_routers() {
    let case = Case {
        sizes: (4, 16),
        rate: 0.006,
        columns: vec![(1, 1), (2, 2)],
        ..light_long_packets(Mesh3d::new(4, 4, 3).unwrap())
    };
    let tally = case.lockstep(600).unwrap();
    assert!(tally.busy > 0 && tally.busy_ends > 0, "{tally:?}");
}

/// A router's `(x, y, z)`.
type At = (u8, u8, u8);

/// A scripted case on a 4×4×2 mesh with one pillar at `pillar`: `worms`
/// lists `(source, destination, first cycle)` in `(x, y, z)`, six 30-flit
/// packets each.
fn scripted(pillar: (u8, u8), worms: &[(At, At, u64)]) -> Case {
    let mesh = Mesh3d::new(4, 4, 2).unwrap();
    let at = |(x, y, z): At| Coord { x, y, z };
    let script = (worms.iter()).fold(Script::default(), |script, &(src, dst, from)| {
        script.worms(&mesh, (at(src), at(dst)), 30, from)
    });
    Case {
        columns: vec![pillar],
        event_at: 1_000,
        script,
        ..light_long_packets(mesh)
    }
}

/// Worms cross in router (1, 1, 0) on both VCs (one same-layer, one
/// descending), and router (2, 1, 0) holds a crossing worm, a worm its NI
/// injects and one it ejects: lane relays at both NI ends of a busy
/// router.
#[test]
fn crossing_worms_and_end_lane_relays_share_busy_routers() {
    let case = scripted(
        (1, 0),
        &[
            ((0, 1, 0), (3, 1, 0), 0),
            ((1, 0, 1), (1, 3, 0), 5),
            ((2, 1, 0), (2, 3, 0), 10),
            ((2, 3, 0), (2, 1, 0), 15),
        ],
    );
    let tally = case.lockstep(600).unwrap();
    assert!(tally.busy > 0 && tally.busy_ends > 0, "{tally:?}");
}

/// A descending worm follows a same-layer one east out of pillar (0, 1):
/// its head, on the other VC, asks for the relay's port on a free channel
/// at the source router and again downstream. (A `Body` landing in an
/// empty lane that owns a channel on a relay's port is a directed case in
/// the `network` tests: no scheduled workload pauses a worm that long.)
#[test]
fn a_head_on_the_other_vc_demotes_a_lane_relay() {
    let case = scripted(
        (0, 1),
        &[((0, 1, 0), (3, 1, 0), 0), ((0, 1, 1), (3, 1, 0), 12)],
    );
    let tally = case.lockstep(600).unwrap();
    assert!(tally.head_demotes > 0, "{tally:?}");
}

/// A worm relays east through router (1, 1, 0) while one crossing it
/// northward waits for credits behind three more worms ejecting at
/// (1, 3, 0): the router moves only the relay's flit, so it never goes
/// quiet.
#[test]
fn a_relay_lane_keeps_a_router_of_blocked_lanes_awake() {
    let case = scripted(
        (0, 0),
        &[
            ((0, 1, 0), (3, 1, 0), 0),
            ((1, 0, 0), (1, 3, 0), 3),
            ((0, 3, 0), (1, 3, 0), 0),
            ((2, 3, 0), (1, 3, 0), 0),
            ((3, 3, 0), (1, 3, 0), 0),
        ],
    );
    let tally = case.lockstep(600).unwrap();
    assert!(tally.stuck > 0, "{tally:?}");
}

/// Prints, on fabrics shaped like the benchmark workloads (uniform
/// traffic standing in for their own), the relay share of sends, the
/// awake relays per live relay, the shares of relay cycles at NI ends and
/// in routers holding other flits, and the uncontended lone-`Body` sends
/// still made per flit (what a relay would carry) with the send-weighted
/// histogram of their run lengths on one lane (`cargo test -p noc_sim
/// --release -- --ignored --nocapture relay_share`).
#[test]
#[ignore = "a measurement, not a check"]
fn relay_share_of_benchmark_shaped_fabrics() {
    use noc_topology::placement::Placement;
    use std::collections::HashMap;
    let grid = |x: usize, y: usize, z: usize| {
        let mesh = Mesh3d::new(x, y, z).unwrap();
        let (x, y) = (x as u8 / 4, y as u8 / 4);
        let pillars = (0..x).flat_map(|i| (0..y).map(move |j| (4 * i + 2, 4 * j + 2)));
        (mesh, ElevatorSet::new(&mesh, pillars).unwrap())
    };
    let mut fabrics = vec![
        ("mesh16_idle", grid(16, 16, 8), 5e-5),
        ("mesh16_loaded", grid(16, 16, 8), 5e-4),
        ("mesh32_sharded", grid(32, 32, 8), 3e-4),
    ];
    for rate in [1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3] {
        fabrics.push(("fig4_pm", Placement::Pm.instantiate(), rate));
    }
    for (placement, rate) in [
        (Placement::Ps1, 0.005),
        (Placement::Ps2, 0.0065),
        (Placement::Ps3, 0.009),
    ] {
        fabrics.push(("fig7_apps", placement.instantiate(), 0.85 * rate));
    }
    fabrics.push(("spec_sweep", Placement::Ps1.instantiate(), 3e-3));
    for (name, (mesh, elevators), rate) in fabrics {
        let config = SimConfig::new(mesh, elevators.clone());
        let traffic = BatchedSynthetic::from_parts(SyntheticParts::uniform(&mesh, rate), 7);
        let selector = ElevatorFirstSelector::new(&mesh, &elevators);
        let mut sim = Simulator::from_scheduled(config, Box::new(traffic), Box::new(selector));
        sim.advance(5_000).unwrap();
        sim.stats.set_armed(true);
        let (mut tally, mut awake) = (Tally::default(), 0);
        // Lone-`Body` sends left: all, those in busy routers, and the
        // send-weighted run lengths 1, 2, 3-7 and >= 8.
        let (mut lone, mut lone_busy, mut runs) = (0, 0, [0u64; 4]);
        let mut open: HashMap<usize, u64> = HashMap::new();
        let close = |runs: &mut [u64; 4], k: u64| {
            runs[match k {
                1 | 2 => k as usize - 1,
                3..=7 => 2,
                _ => 3,
            }] += k;
        };
        for _ in 0..4_000 {
            let (sources, sinks) = sim.net.end_relay_counts();
            tally.relay += sim.net.relay_count() as u64;
            tally.source += sources as u64;
            tally.sink += sinks as u64;
            tally.busy += sim.net.busy_relay_counts().0 as u64;
            awake += sim.net.awake_relay_count() as u64;
            let lanes = sim.net.lone_body_lanes(&sim.packets);
            lone += lanes.len() as u64;
            lone_busy += lanes.iter().filter(|(_, busy)| *busy).count() as u64;
            let mut next = HashMap::with_capacity(lanes.len());
            for (lane, _) in lanes {
                next.insert(lane, open.remove(&lane).unwrap_or(0) + 1);
            }
            for (_, k) in open.drain() {
                close(&mut runs, k);
            }
            open = next;
            sim.step().unwrap();
        }
        for (_, k) in open.drain() {
            close(&mut runs, k);
        }
        sim.net.book_relays();
        let sends = sim.link_ledger().aggregate().buffer_reads;
        let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
        let total: u64 = runs.iter().sum();
        println!(
            "{name} @ {rate:.2e}: {} relay cycles of {sends} sends ({:.1} %), \
             awake {:.1} % of live, NI ends {:.1} % and busy routers {:.1} % of relay cycles; \
             lone-Body sends left {:.1} % of sends ({:.1} % in busy routers), \
             run lengths 1/2/3-7/>=8: {:.0}/{:.0}/{:.0}/{:.0} %",
            tally.relay,
            pct(tally.relay, sends),
            pct(awake, tally.relay),
            pct(tally.source + tally.sink, tally.relay),
            pct(tally.busy, tally.relay),
            pct(lone, sends),
            pct(lone_busy, sends),
            pct(runs[0], total),
            pct(runs[1], total),
            pct(runs[2], total),
            pct(runs[3], total),
        );
    }
}
