//! Micro-benchmark of the arena-based `Network::step` hot path: steady
//! cycles/second from the paper's PM scale up to 32×32×8, at near-idle
//! (injection-scheduler dominated), low (idle-skip dominated) and
//! moderate (switching dominated) injection — on both workload streams
//! (`v1` polled, `v2` batched event-driven injection).
//!
//! The checked-in perf record is the repo benchmark's
//! (`benchmark/BASELINE.json`, `benchmark/run.sh`); this group is the
//! interactive probe of the same path across a wider grid.

use adele::online::ElevatorFirstSelector;
use adele_bench::pillar_grid;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_sim::{SimConfig, Simulator, TrafficInput};
use noc_topology::{ElevatorSet, Mesh3d};
use noc_traffic::{BatchedSynthetic, StreamVersion, SyntheticTraffic};

/// The benchmark grid: (mesh extents, injection rate). Every point is
/// measured on both workload streams.
const GRID: [((usize, usize, usize), f64); 8] = [
    ((8, 8, 4), 0.0005),
    ((8, 8, 4), 0.002),
    ((16, 16, 8), 0.00005),
    ((16, 16, 8), 0.0005),
    ((16, 16, 8), 0.002),
    ((32, 32, 8), 0.00005),
    ((32, 32, 8), 0.0005),
    ((32, 32, 8), 0.002),
];

const STREAMS: [StreamVersion; 2] = [StreamVersion::V1, StreamVersion::V2];

/// A warmed-up simulator on the `scale` study's shared pillar geometry.
fn warmed_sim(
    extents: (usize, usize, usize),
    rate: f64,
    stream: StreamVersion,
    warmup: u64,
) -> Simulator {
    let (x, y, z) = extents;
    let mesh = Mesh3d::new(x, y, z).expect("bench dimensions are valid");
    let elevators = ElevatorSet::new(&mesh, pillar_grid(x, y)).expect("grid fits the mesh");
    let config = SimConfig::new(mesh, elevators.clone()).with_seed(7);
    let input = match stream {
        StreamVersion::V1 => {
            TrafficInput::Polled(Box::new(SyntheticTraffic::uniform(&mesh, rate, 7)))
        }
        StreamVersion::V2 => {
            TrafficInput::Scheduled(Box::new(BatchedSynthetic::uniform(&mesh, rate, 7)))
        }
    };
    let selector = ElevatorFirstSelector::new(&mesh, &elevators);
    let mut sim = Simulator::from_input(config, input, Box::new(selector));
    sim.advance(warmup).unwrap();
    sim
}

fn bench_step_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_hot_path");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for (extents, rate) in GRID {
        for stream in STREAMS {
            let label = format!("{}x{}x{}@{rate}/{stream}", extents.0, extents.1, extents.2);
            group.bench_with_input(
                BenchmarkId::new("steps_200", label),
                &(extents, rate, stream),
                |b, &(extents, rate, stream)| {
                    b.iter_batched(
                        || warmed_sim(extents, rate, stream, 500),
                        |mut sim| {
                            for _ in 0..200 {
                                sim.step().unwrap();
                            }
                            sim.cycle()
                        },
                        criterion::BatchSize::LargeInput,
                    );
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_step_hot_path);
criterion_main!(benches);
