//! Ablation: temporarily-materialized vs fused nested-loop n-way joins on
//! the SG query (the design choice of paper Section 5.2 / Figure 5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpulog::{EngineConfig, NwayStrategy};
use gpulog_datasets::generators::power_law_graph;
use gpulog_device::{profile::DeviceProfile, Device};
use gpulog_queries::sg;
use std::time::Duration;

fn bench_nway(c: &mut Criterion) {
    // A skewed graph maximizes the per-thread imbalance the materialized
    // strategy is designed to remove.
    let graph = power_law_graph(600, 4, 13);
    let mut group = c.benchmark_group("nway_sg_powerlaw");
    for (label, strategy) in [
        ("materialized", NwayStrategy::TemporarilyMaterialized),
        ("fused", NwayStrategy::FusedNestedLoop),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &strategy, |b, s| {
            b.iter(|| {
                let device = Device::new(DeviceProfile::nvidia_h100());
                let cfg = EngineConfig {
                    nway: *s,
                    ..EngineConfig::default()
                };
                sg::run(&device, &graph, cfg).unwrap().sg_size
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    targets = bench_nway
}
criterion_main!(benches);
