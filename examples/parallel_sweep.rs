//! The `noc_exp` parallel map (`par_map`) on the paper's large PM
//! configuration (8×8×4 mesh, 12 elevators): the same 8-point injection
//! sweep runs once on one worker (the plain sequential map) and once on
//! the scoped-thread worker pool, the results are asserted
//! **bit-identical**, and both wall-clock times are printed. On a multi-core host the parallel sweep approaches
//! `min(cores, points)`× faster; on a single core it degenerates to the
//! sequential path.
//!
//! Run with: `cargo run --release -p adele-repro --example parallel_sweep`
//! (`ADELE_QUICK=1` shrinks the windows for a smoke pass).

use adele_bench::quick_mode;
use noc_exp::runner::{default_threads, par_map};
use noc_exp::{SelectorSpec, WorkloadKind, WorkloadSpec};
use noc_sim::{SimConfig, Simulator};
use noc_topology::placement::Placement;
use std::time::Instant;

fn main() {
    let (mesh, elevators) = Placement::Pm.instantiate();
    let (warmup, measure, drain) = if quick_mode() {
        (200, 800, 4_000)
    } else {
        (500, 2_500, 10_000)
    };
    let config = SimConfig::new(mesh, elevators.clone()).with_phases(warmup, measure, drain);
    let rates: Vec<f64> = (1..=8).map(|i| 0.003 * f64::from(i) / 8.0).collect();

    // Fresh traffic and selector state per point; summaries in `rates` order.
    let sweep = |threads: usize| {
        par_map(&rates, threads, |_, &rate| {
            let traffic = WorkloadSpec::v1(WorkloadKind::Uniform { rate }).build(&mesh, 11);
            let selector = SelectorSpec::ElevatorFirst.build(&mesh, &elevators, 0);
            Simulator::from_scheduled(config.clone(), traffic, selector)
                .run()
                .expect("healthy sweep: default watchdog")
        })
    };

    let threads = default_threads();
    println!(
        "PM (8×8×4, 12 elevators), {} sweep points, {} worker thread(s)\n",
        rates.len(),
        threads
    );

    let t = Instant::now();
    let sequential = sweep(1);
    let t_seq = t.elapsed();

    let t = Instant::now();
    let parallel = sweep(threads);
    let t_par = t.elapsed();

    assert_eq!(
        parallel, sequential,
        "the parallel sweep must be bit-identical to the sequential one"
    );

    println!("{:>8}  {:>12}  {:>10}", "rate", "avg latency", "completed");
    for (rate, summary) in rates.iter().zip(&parallel) {
        println!(
            "{rate:>8.4}  {:>12.1}  {:>10}",
            summary.avg_latency, summary.completed
        );
    }

    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
    println!(
        "\nsequential: {:.2}s   parallel: {:.2}s   speedup: {speedup:.2}x \
         (results verified bit-identical)",
        t_seq.as_secs_f64(),
        t_par.as_secs_f64()
    );
    if threads == 1 {
        println!("(single-core host: the pool degenerates to the sequential path)");
    }
}
