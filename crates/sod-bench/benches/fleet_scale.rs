//! Wall-clock cost of simulating a fleet: 25 concurrent programs with
//! `OnCpuSliceBudget` offload to a shared cloud node (the `scale` table's
//! scenario at a bench-friendly size).
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    c.bench_function("simulate_fleet_25", |b| {
        b.iter(|| sod_bench::run_scale_fleet(25, 42))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
