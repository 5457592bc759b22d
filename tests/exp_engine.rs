//! The scenario engine end to end: a sweep on the `par_map` pool is
//! bit-identical to the plain loop, scenario batches preserve order and
//! determinism, and a mid-run `ElevatorFail` event demonstrably changes
//! AdEle's selection.

use noc_exp::{
    par_map, run_batch_supervised, Event, Scenario, ScenarioResult, SelectorSpec, Supervision,
    WorkloadKind, WorkloadSpec,
};
use noc_sim::{SimConfig, Simulator};
use noc_topology::{ElevatorId, ElevatorSet, Mesh3d};

fn tiny_topology() -> (Mesh3d, ElevatorSet) {
    let mesh = Mesh3d::new(4, 4, 2).unwrap();
    let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
    (mesh, elevators)
}

/// Runs `scenarios` on the supervised pool and unwraps every outcome.
fn run_all(scenarios: &[Scenario], threads: usize) -> Vec<ScenarioResult> {
    run_batch_supervised(scenarios, threads, &Supervision::new(), None, |_| {})
        .iter()
        .map(|outcome| outcome.result().expect("healthy point").clone())
        .collect()
}

/// The acceptance contract of the parallel runner: for a fixed seed, a
/// sweep mapped over the pool equals the single-worker (plain sequential
/// map) output exactly — every summary, bit for bit — for any worker
/// count.
#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    let (mesh, elevators) = tiny_topology();
    let config = SimConfig::new(mesh, elevators.clone()).with_phases(150, 600, 3_000);
    let rates: Vec<f64> = (1..=8).map(|i| 0.004 * f64::from(i) / 8.0).collect();
    let sweep = |threads: usize| {
        par_map(&rates, threads, |_, &rate| {
            let traffic = WorkloadSpec::v1(WorkloadKind::Uniform { rate }).build(&mesh, 5);
            let selector = SelectorSpec::ElevatorFirst.build(&mesh, &elevators, 0);
            Simulator::from_scheduled(config.clone(), traffic, selector).run()
        })
    };

    let sequential = sweep(1);
    for threads in [2, 4, 8] {
        let parallel = sweep(threads);
        assert_eq!(
            parallel, sequential,
            "{threads}-thread sweep must match the sequential output exactly"
        );
    }
}

#[test]
fn scenario_batch_preserves_order_and_determinism() {
    let (mesh, elevators) = tiny_topology();
    let scenarios: Vec<Scenario> = (0u32..5)
        .map(|i| {
            Scenario::new(format!("point-{i}"), mesh, elevators.clone())
                .with_phases(100, 400, 2_000)
                .with_workload(WorkloadKind::Uniform {
                    rate: 0.001 + 0.001 * f64::from(i),
                })
                .with_seed(7)
        })
        .collect();
    let a = run_all(&scenarios, 4);
    let b = run_all(&scenarios, 2);
    assert_eq!(a, b, "worker count must never change results");
    for (i, result) in a.iter().enumerate() {
        assert_eq!(result.name, format!("point-{i}"), "input order preserved");
    }
}

/// The acceptance contract of the event hooks: failing an elevator
/// mid-run changes AdEle's selection — the victim stops being picked the
/// moment the event fires, and the run still completes on the survivor.
#[test]
fn elevator_fail_event_changes_adele_selection_mid_run() {
    let (mesh, elevators) = tiny_topology();
    let victim = ElevatorId(1);
    let base = Scenario::new("fault", mesh, elevators)
        .with_workload(WorkloadKind::Uniform { rate: 0.004 })
        .with_selector(SelectorSpec::adele())
        .with_phases(200, 1_000, 6_000)
        .with_seed(11);

    let healthy = base.clone().run().unwrap();
    assert!(
        healthy.summary.elevator_packets[victim.index()] > 0,
        "sanity: the victim carries load while healthy"
    );

    // Fail the victim halfway through the measurement window: picks up to
    // that cycle are free to use it, picks after it must not.
    let fail_at = 200 + 500;
    let failed = base
        .clone()
        .with_event(Event::ElevatorFail {
            cycle: fail_at,
            elevator: victim,
        })
        .run()
        .unwrap();
    assert_ne!(
        healthy.summary, failed.summary,
        "the failure must perturb the run"
    );
    assert!(
        failed.summary.elevator_packets[victim.index()]
            < healthy.summary.elevator_packets[victim.index()],
        "selection must shift off the victim after the event ({} vs {})",
        failed.summary.elevator_packets[victim.index()],
        healthy.summary.elevator_packets[victim.index()]
    );
    assert!(
        failed.summary.elevator_packets[0] > 0,
        "the survivor carries the diverted load"
    );
    assert!(failed.summary.completed, "the run must still drain");

    // Failing at the very start of measurement: the victim gets nothing.
    let failed_from_start = base
        .with_event(Event::ElevatorFail {
            cycle: 0,
            elevator: victim,
        })
        .run()
        .unwrap();
    assert_eq!(
        failed_from_start.summary.elevator_packets[victim.index()],
        0,
        "no measured packet may pick a pillar that died before warm-up"
    );
}
