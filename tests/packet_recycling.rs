//! Packet-slot recycling: generation-tagged handles never alias across
//! slot reuse, the simulator's memory stays bounded by in-flight packets,
//! and the steady-state hot path performs zero heap allocation.

use adele::online::ElevatorFirstSelector;
use noc_sim::{Packet, PacketId, PacketTable, SimConfig, Simulator};
use noc_topology::route::VirtualNet;
use noc_topology::{ElevatorSet, Mesh3d, NodeId};
use noc_traffic::SyntheticTraffic;
use proptest::prelude::*;
use std::collections::HashMap;

fn dummy_packet(tag: u64, measured: bool) -> Packet {
    Packet {
        src: NodeId(0),
        dst: NodeId(1),
        flits: 1,
        vnet: VirtualNet::Ascend,
        elevator: None,
        created: tag,
        head_out_src: None,
        tail_out_src: None,
        delivered: None,
        measured,
    }
}

proptest! {
    /// Model-based check of the table under random insert/retire traffic:
    /// a handle returned by `insert` stays unique forever — even when its
    /// slot is recycled arbitrarily often — and `is_live`/`get` always
    /// agree with a reference map.
    #[test]
    fn recycled_slots_never_alias(ops in prop::collection::vec(0u8..=255, 1..400)) {
        let mut table = PacketTable::new();
        let mut live: Vec<PacketId> = Vec::new();
        let mut model: HashMap<PacketId, u64> = HashMap::new();
        let mut ever_issued: Vec<PacketId> = Vec::new();
        let mut tag = 0u64;

        for op in ops {
            if op % 3 == 0 || live.is_empty() {
                tag += 1;
                let measured = op % 2 == 0;
                let id = table.insert(dummy_packet(tag, measured));
                // A fresh handle must differ from every handle ever issued,
                // including retired ones that shared its slot.
                prop_assert!(!ever_issued.contains(&id), "handle {id:?} reissued");
                ever_issued.push(id);
                live.push(id);
                model.insert(id, tag);
            } else {
                let victim = live.remove(op as usize % live.len());
                prop_assert!(table.is_live(victim));
                table.retire(victim);
                model.remove(&victim);
            }

            // The table and the model agree on liveness and contents.
            for id in &ever_issued {
                match model.get(id) {
                    Some(&t) => {
                        prop_assert!(table.is_live(*id));
                        prop_assert_eq!(table.get(*id).created, t);
                    }
                    None => prop_assert!(!table.is_live(*id)),
                }
            }
            prop_assert_eq!(table.live(), model.len());
            let expected_outstanding =
                model.keys().filter(|id| table.get(**id).measured).count();
            prop_assert_eq!(table.measured_outstanding(), expected_outstanding);
        }

        // Capacity is bounded by the liveness high-water mark, not by the
        // number of packets ever created.
        prop_assert!(table.capacity() <= ever_issued.len());
    }
}

fn quick_sim(rate: f64, seed: u64) -> Simulator {
    let mesh = Mesh3d::new(4, 4, 2).unwrap();
    let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
    let config = SimConfig::new(mesh, elevators.clone()).with_seed(seed);
    let traffic = SyntheticTraffic::uniform(&mesh, rate, seed);
    let selector = ElevatorFirstSelector::new(&mesh, &elevators);
    Simulator::new(config, Box::new(traffic), Box::new(selector))
}

/// Long runs stay bounded: after tens of thousands of cycles the packet
/// table holds only the in-flight high-water mark, orders of magnitude
/// below the number of packets created (the pre-refactor `Vec<Packet>`
/// grew by exactly `total_created`).
#[test]
fn packet_memory_is_bounded_by_in_flight() {
    let mut sim = quick_sim(0.004, 9);
    sim.advance(30_000).unwrap();
    let table = sim.packet_table();
    assert!(
        table.total_created() > 3_000,
        "sanity: the run must create plenty of packets ({})",
        table.total_created()
    );
    assert!(
        (table.capacity() as u64) < table.total_created() / 10,
        "slots must recycle: {} slots for {} packets",
        table.capacity(),
        table.total_created()
    );
    // Every queued packet is live, and liveness never exceeds the
    // allocated high-water mark.
    assert!(table.live() >= sim.network().queued_packets() as usize);
    assert!(table.live() <= table.capacity());
}

/// The zero-allocation contract of the arena core: once warm, stepping
/// grows nothing — the flit arena is fixed at construction and every
/// staging/worklist/source buffer has reached its high-water capacity.
#[test]
fn steady_state_stepping_allocates_nothing() {
    let mut sim = quick_sim(0.003, 17);
    // Warm-up: staging buffers and source queues reach their high water.
    sim.advance(4_000).unwrap();
    let footprint = sim.network().heap_footprint(sim.packet_table());
    let slots = sim.packet_table().capacity();
    sim.advance(10_000).unwrap();
    assert_eq!(
        sim.network().heap_footprint(sim.packet_table()),
        footprint,
        "network heap footprint grew during steady state"
    );
    assert_eq!(
        sim.packet_table().capacity(),
        slots,
        "packet slots grew during steady state"
    );
}
