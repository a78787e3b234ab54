//! Micro-benchmark: the HISA-backed binary hash-join kernel against a
//! GPUJoin-style probe of a tuple hash table (the comparison behind the
//! paper's claimed 5x join advantage).

use criterion::{criterion_group, criterion_main, Criterion};
use gpulog::planner::EmitSource;
use gpulog::ra::hash_join_batch;
use gpulog_baselines::gpujoin_like;
use gpulog_datasets::generators::power_law_graph;
use gpulog_device::{profile::DeviceProfile, Device};
use gpulog_hisa::{Hisa, IndexSpec, TupleBatch};
use std::time::Duration;

fn bench_join(c: &mut Criterion) {
    let device = Device::new(DeviceProfile::nvidia_h100());
    let graph = power_law_graph(4_000, 4, 7);
    let flat = graph.to_flat();
    let inner = Hisa::build(&device, IndexSpec::new(2, vec![0]), &flat).unwrap();
    let outer = TupleBatch::new(2, flat);
    let emit = [
        EmitSource::Outer(0),
        EmitSource::Outer(1),
        EmitSource::Inner(1),
    ];
    c.bench_function("hisa_hash_join_powerlaw", |b| {
        b.iter(|| hash_join_batch(&device, &outer, &[1], &inner, &[], &[], &emit).len())
    });
}

fn bench_gpujoin_strategy_end_to_end(c: &mut Criterion) {
    let graph = power_law_graph(1_500, 3, 9);
    c.bench_function("gpujoin_like_reach_powerlaw", |b| {
        b.iter(|| gpujoin_like::reach(&graph, usize::MAX).tuples)
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200));
    targets = bench_join, bench_gpujoin_strategy_end_to_end
}
criterion_main!(benches);
