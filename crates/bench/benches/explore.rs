//! Criterion bench: exhaustive state-space exploration cost (E7 companion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dinefd_explore::{explore, explore_composed, fair_run, ComposedConfig, ExploreConfig};

fn bench_explore_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("exhaustive_exploration");
    for depth in [20u32, 60, 120] {
        group.bench_function(BenchmarkId::from_parameter(depth), |b| {
            b.iter(|| {
                let r = explore(&ExploreConfig { max_depth: depth, ..Default::default() });
                assert!(r.clean());
                r.states_visited
            });
        });
    }
    group.finish();
}

fn bench_fair_run(c: &mut Criterion) {
    c.bench_function("fair_run_800_rounds", |b| {
        b.iter(|| {
            let r = fair_run(800, 50, Some(300), false);
            assert!(r.violations.is_empty());
            r.witness_eats
        });
    });
}

fn bench_composed_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("composed_exploration");
    group.sample_size(10);
    for depth in [8u32, 10, 12] {
        group.bench_function(BenchmarkId::from_parameter(depth), |b| {
            b.iter(|| {
                let r =
                    explore_composed(&ComposedConfig { max_depth: depth, ..Default::default() });
                assert!(r.clean());
                r.states_visited
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_explore_depth, bench_composed_depth, bench_fair_run);
criterion_main!(benches);
