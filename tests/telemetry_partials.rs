//! The telemetry fold invariant (the flight-recorder PR's audit pin).
//!
//! While a window is armed the kernel counts flit events once, per FIFO
//! lane (`{writes, reads}`, plus ejections per router); the link,
//! router, NI and aggregate energy counters are *derived* from those
//! when the counters are folded into the aggregate ledgers, and the fold
//! adds and zeroes. The audited invariant: every engine path folds
//! before any reader needs an aggregate, and because the fold is
//! add-and-zero it is **idempotent at any moment** — a mid-window
//! [`Simulator::fold_telemetry`] (plus reads of the ledgers it exposes)
//! can never change what a later window, summary or energy-feedback push
//! observes — and what it produces is the same, lane for lane, however
//! often it runs. These tests pin that invariant so a future refactor
//! that makes the fold non-idempotent or leaves counters unfolded fails
//! loudly.

use noc_energy::{EnergyLedger, LinkLedger};
use noc_exp::{Scenario, SelectorSpec, WorkloadKind};
use noc_sim::{RunSummary, SimConfig, Simulator};
use noc_topology::placement::Placement;
use noc_traffic::SyntheticTraffic;

fn measured_energy_scenario() -> Scenario {
    Scenario::from_placement("telemetry-partials", Placement::Ps1)
        .with_phases(300, 1_200, 8_000)
        .with_workload(WorkloadKind::Uniform { rate: 0.003 })
        .with_selector(SelectorSpec::adele_measured_energy())
        .with_seed(17)
}

/// Interleaving explicit mid-window folds (and ledger reads) into a run
/// changes nothing: the measurement-window summary and the
/// committed network state stay bit-identical to an undisturbed run.
#[test]
fn mid_window_folds_are_invisible_to_the_summary() {
    let scenario = measured_energy_scenario();
    let mut disturbed = scenario.build_simulator();
    let mut reference = scenario.build_simulator();

    // Warm-up with folds and reads sprinkled between every few cycles.
    let mut tsv_snapshots = Vec::new();
    for _ in 0..6 {
        disturbed.advance(50).unwrap();
        disturbed.fold_telemetry();
        assert!(
            disturbed.telemetry_partials_clear(),
            "fold_telemetry must leave no partial counters behind"
        );
        // Reads of the folded aggregates — the mid-window observation the
        // audit is about. They must see fully-merged counters (monotone
        // TSV traversals, never a partially-merged regression).
        let tsv = disturbed.energy_ledger().vertical_hops;
        if let Some(&last) = tsv_snapshots.last() {
            assert!(tsv >= last, "mid-window TSV count went backwards");
        }
        tsv_snapshots.push(tsv);
        let _ = disturbed.link_ledger();
        // A second, immediate fold is a no-op (add-and-zero idempotence).
        disturbed.fold_telemetry();
    }
    reference.advance(300).unwrap();
    assert_eq!(
        disturbed.network().state_digest(),
        reference.network().state_digest(),
        "folds changed committed network state"
    );

    let summary_disturbed = disturbed.measure_window(1_200).unwrap();
    let summary_reference = reference.measure_window(1_200).unwrap();
    assert_eq!(
        summary_disturbed, summary_reference,
        "mid-window folds leaked into the window summary"
    );
    assert!(
        summary_reference.delivered_packets > 0,
        "sanity: traffic flowed"
    );
    // The window close folded everything; no partials survive it.
    assert!(disturbed.telemetry_partials_clear());
    assert!(reference.telemetry_partials_clear());
}

/// The full scenario path (warm-up + window + drain + summary), on the
/// telemetry-consuming measured-energy selector, whose pushes fold the
/// lane counters mid-window, repeats bit-identically whatever the spec's
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

/// Two back-to-back measurement windows (with an explicit fold and ledger
/// reads in between) of a PS1 run; each window yields its summary — which
/// carries `router_flits` — and the complete folded ledgers.
fn two_windows(
    selector: &SelectorSpec,
    feedback_period: u64,
) -> Vec<(RunSummary, LinkLedger, EnergyLedger)> {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let config = SimConfig::new(mesh, elevators.clone())
        .with_seed(29)
        .with_energy_feedback_period(feedback_period);
    let traffic = SyntheticTraffic::uniform(&mesh, 0.004, 29);
    let selector = selector.build(&mesh, &elevators, 29);
    let mut sim = Simulator::new(config, Box::new(traffic), selector);
    sim.advance(300).unwrap();
    (0..2)
        .map(|_| {
            let summary = sim.measure_window(700).unwrap();
            sim.fold_telemetry();
            assert!(sim.telemetry_partials_clear());
            (summary, sim.link_ledger().clone(), *sim.energy_ledger())
        })
        .collect()
}

/// Mid-window folds leave the fold's output equal lane for lane, not just
/// in the pillar roll-ups a `RunSummary` carries: the whole `LinkLedger`
/// (every lane × VC, link and NI counter), the aggregate `EnergyLedger`
/// and `router_flits`. An inert period-100 feedback folds in the middle of
/// every armed window and must leave every counter where the single fold
/// puts it; the measured-energy selector, whose period-256 pushes feed
/// what they read back into routing, must repeat bit-identically.
#[test]
fn folded_ledgers_are_equal_lane_for_lane_at_every_layout() {
    let unfolded = two_windows(&SelectorSpec::adele(), 0);
    assert!(
        unfolded[0].0.delivered_packets > 0,
        "sanity: traffic flowed"
    );
    assert_eq!(
        two_windows(&SelectorSpec::adele(), 100),
        unfolded,
        "mid-window folds moved a counter"
    );
    let measured = SelectorSpec::adele_measured_energy();
    let period = SimConfig::MEASURED_ENERGY_FEEDBACK_PERIOD;
    assert_eq!(
        two_windows(&measured, period),
        two_windows(&measured, period)
    );
}
