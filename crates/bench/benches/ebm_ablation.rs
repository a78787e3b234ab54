//! Ablation: eager buffer management on vs off, and growth-factor sweep
//! (the design choice behind Table 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpulog::{EbmConfig, EngineConfig};
use gpulog_datasets::PaperDataset;
use gpulog_device::{profile::DeviceProfile, Device};
use gpulog_queries::reach;
use std::time::Duration;

fn bench_ebm(c: &mut Criterion) {
    let graph = PaperDataset::SfCedge.generate(0.2);
    let mut group = c.benchmark_group("ebm_reach_SF.cedge");
    for (label, ebm) in [
        ("off", EbmConfig::disabled()),
        ("k2", EbmConfig::with_growth_factor(2.0)),
        ("k8", EbmConfig::with_growth_factor(8.0)),
        ("k32", EbmConfig::with_growth_factor(32.0)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &ebm, |b, ebm| {
            b.iter(|| {
                let device = Device::new(DeviceProfile::nvidia_h100());
                let cfg = EngineConfig {
                    ebm: *ebm,
                    ..EngineConfig::default()
                };
                reach::run(&device, &graph, cfg).unwrap().reach_size
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
    targets = bench_ebm
}
criterion_main!(benches);
