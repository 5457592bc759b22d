//! Micro-benchmark isolating the *traffic-generation* path — the per-cycle
//! cost of deciding who injects, with no network attached — so the
//! injection scheduler has its own regression trace alongside
//! `step_hot_path`.
//!
//! Two streams per mesh: `v1` polls every node every cycle (one RNG draw
//! per node through the `TrafficSource` vtable), `v2` drains the batched
//! skip-sampling source. At sweep rates the v2 cost is proportional to
//! *injections*, not nodes — the gap is the point of the bench. The
//! checked-in record of the same two costs is the repo benchmark's
//! `noc_traffic.{polled,scheduled}_ns_per_cycle` (`benchmark/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_topology::Mesh3d;
use noc_traffic::{BatchedSynthetic, ScheduledSource, SyntheticTraffic, TrafficSource};
use std::hint::black_box;

/// The benchmark grid: (mesh extents, injection rate).
const GRID: [((usize, usize, usize), f64); 4] = [
    ((16, 16, 8), 0.0005),
    ((16, 16, 8), 0.002),
    ((32, 32, 8), 0.0005),
    ((32, 32, 8), 0.002),
];

/// One whole-network cycle of polled injection decisions.
fn v1_cycle(source: &mut dyn TrafficSource, mesh: &Mesh3d, cycle: u64) -> usize {
    let mut injected = 0;
    for node in mesh.node_ids() {
        if source.maybe_inject(node, cycle).is_some() {
            injected += 1;
        }
    }
    injected
}

fn bench_gen_traffic(c: &mut Criterion) {
    let mut group = c.benchmark_group("gen_traffic");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    for (extents, rate) in GRID {
        let (x, y, z) = extents;
        let mesh = Mesh3d::new(x, y, z).expect("bench dimensions are valid");
        let label = format!("{x}x{y}x{z}@{rate}");

        let mut v1 = SyntheticTraffic::uniform(&mesh, rate, 7);
        let mut cycle = 0u64;
        group.bench_with_input(BenchmarkId::new("v1_cycle", &label), &(), |b, ()| {
            b.iter(|| {
                cycle += 1;
                black_box(v1_cycle(&mut v1, &mesh, cycle))
            })
        });

        let mut v2 = BatchedSynthetic::uniform(&mesh, rate, 7);
        let mut cycle = 0u64;
        group.bench_with_input(BenchmarkId::new("v2_cycle", &label), &(), |b, ()| {
            b.iter(|| {
                cycle += 1;
                black_box(v2.next_injections(cycle).len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gen_traffic);
criterion_main!(benches);
