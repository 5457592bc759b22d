//! Micro-benchmark isolating the *traffic-generation* path — the per-cycle
//! cost of deciding who injects, with no network attached — so the
//! injection path has its own regression trace alongside `step_hot_path`.
//!
//! Each row is one whole-network cycle: `v1_cycle` polls every node
//! through `maybe_inject`, `v1_bulk` polls the cycle through `poll_cycle`
//! (what the simulator drives), `v2_cycle` drains the batched
//! skip-sampling source. At sweep rates the v2 cost is proportional to
//! *injections*, not nodes — the gap is the point of the bench. The
//! application models have no batched twin, so they carry the `v1` rows
//! only. The checked-in record of the same costs is the repo benchmark's
//! `noc_traffic.{polled,scheduled}_ns_per_cycle` (`benchmark/`).

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use noc_topology::Mesh3d;
use noc_traffic::apps::{AppKind, AppTraffic};
use noc_traffic::{BatchedSynthetic, ScheduledSource, SyntheticTraffic, TrafficSource};
use std::hint::black_box;

/// The synthetic grid: (mesh extents, injection rate).
const GRID: [((usize, usize, usize), f64); 4] = [
    ((16, 16, 8), 0.0005),
    ((16, 16, 8), 0.002),
    ((32, 32, 8), 0.0005),
    ((32, 32, 8), 0.002),
];

/// The two `v1` rows of one polled workload, each on a fresh source.
fn bench_polled<S: TrafficSource>(
    group: &mut BenchmarkGroup<'_>,
    label: &str,
    mesh: &Mesh3d,
    build: impl Fn() -> S,
) {
    let source: &mut dyn TrafficSource = &mut build();
    let mut cycle = 0u64;
    group.bench_with_input(BenchmarkId::new("v1_cycle", label), &(), |b, ()| {
        b.iter(|| {
            cycle += 1;
            let polls = mesh.node_ids().map(|node| source.maybe_inject(node, cycle));
            black_box(polls.flatten().count())
        })
    });

    let mut source = build();
    let mut polled = Vec::new();
    let mut cycle = 0u64;
    group.bench_with_input(BenchmarkId::new("v1_bulk", label), &(), |b, ()| {
        b.iter(|| {
            cycle += 1;
            polled.clear();
            source.poll_cycle(cycle, mesh.node_count(), &mut polled);
            black_box(polled.len())
        })
    });
}

fn bench_gen_traffic(c: &mut Criterion) {
    let mut group = c.benchmark_group("gen_traffic");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    for ((x, y, z), rate) in GRID {
        let mesh = Mesh3d::new(x, y, z).expect("bench dimensions are valid");
        let label = format!("{x}x{y}x{z}@{rate}");
        bench_polled(&mut group, &label, &mesh, || {
            SyntheticTraffic::uniform(&mesh, rate, 7)
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
    // The application models on the Fig. 7 mesh: two bursty, one Bernoulli.
    let mesh = Mesh3d::new(4, 4, 4).expect("bench dimensions are valid");
    for kind in [AppKind::Canneal, AppKind::Fft, AppKind::Fluidanimate] {
        bench_polled(&mut group, kind.name(), &mesh, || {
            AppTraffic::new(kind, &mesh, 0.01, 1)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gen_traffic);
criterion_main!(benches);
