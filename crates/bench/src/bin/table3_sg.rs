//! Table 3 — Same Generation (SG) execution-time comparison: GPUlog (CUDA,
//! modeled H100), GPUlog-HIP (modeled MI250 without the pooled allocator),
//! Soufflé-like, and cuDF-like.

use gpulog::{EbmConfig, EngineConfig};
use gpulog_baselines::{cudf_like, souffle_like};
use gpulog_bench::{
    backend_from_args, banner, gpulog_device, scale_from_env, speedup, vram_budget_bytes, TextTable,
};
use gpulog_datasets::PaperDataset;
use gpulog_device::{Device, DeviceProfile};
use gpulog_queries::sg;

fn main() {
    let scale = scale_from_env();
    let backend = backend_from_args();
    banner(
        "Table 3: SG — GPUlog vs GPUlog-HIP vs Souffle-like vs cuDF-like",
        scale,
    );
    println!("(GPUlog backend: {})", backend.label());
    let budget = vram_budget_bytes(scale);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    let mut table = TextTable::new([
        "Dataset",
        "SG tuples",
        "GPUlog H100 (s, modeled)",
        "GPUlog (s, host wall)",
        "GPUlog-HIP MI250 (s, modeled)",
        "Souffle-like (s)",
        "cuDF-like (s)",
        "GPUlog vs Souffle",
    ]);

    for dataset in PaperDataset::table3() {
        let graph = dataset.generate(scale);

        // CUDA-like configuration: H100 profile, pooled allocation (EBM on).
        let cuda_device = gpulog_device(scale);
        let cuda = sg::prepare(
            &cuda_device,
            &graph,
            backend.configure(EngineConfig::default()),
        )
        .and_then(|mut engine| engine.run().map(|stats| (engine, stats)));
        let (cuda_cell, cuda_wall_cell, cuda_modeled, sg_size) = match &cuda {
            Ok((engine, stats)) => {
                // Sanity-check the export path over borrowed rows (no
                // per-row `Vec<u32>` clones) against the indexed count.
                assert_eq!(
                    engine
                        .relation_tuples_iter("SG")
                        .map(Iterator::count)
                        .unwrap_or(0),
                    engine.relation_size("SG").unwrap_or(0)
                );
                (
                    format!("{:.4}", stats.modeled_seconds()),
                    format!("{:.3}", stats.wall_seconds),
                    stats.modeled_seconds(),
                    engine.relation_size("SG").unwrap_or(0),
                )
            }
            Err(_) => ("OOM".to_string(), "OOM".to_string(), f64::NAN, 0),
        };

        // HIP configuration: MI250 profile and no pooled allocator (the paper
        // notes ROCm lacks RMM, so its HIP backend allocates exactly). Its
        // column is the modeled device time on that profile.
        let mut hip_profile = DeviceProfile::amd_mi250();
        hip_profile.memory_capacity_bytes = budget;
        let hip_device = Device::new(hip_profile);
        let hip_cfg = backend.configure(EngineConfig {
            ebm: EbmConfig::disabled(),
            ..EngineConfig::default()
        });
        let hip_cell = match sg::run(&hip_device, &graph, hip_cfg) {
            Ok(r) => format!("{:.3}", r.stats.modeled_seconds()),
            Err(_) => "OOM".to_string(),
        };

        let souffle = souffle_like::sg(&graph, workers);
        let cudf = cudf_like::sg(&graph, budget);

        table.row([
            dataset.paper_name().to_string(),
            format!("{sg_size}"),
            cuda_cell,
            cuda_wall_cell,
            hip_cell,
            souffle.cell(),
            cudf.cell(),
            match souffle.seconds() {
                Some(s) if cuda_modeled.is_finite() => speedup(s, cuda_modeled),
                _ => "-".to_string(),
            },
        ]);
    }
    println!("{}", table.render());
    println!("Expected shape (paper Table 3): GPUlog fastest and never OOM; the HIP");
    println!("build roughly 2-4x slower than CUDA; cuDF-like OOM on the larger");
    println!("graphs and slower than Souffle-like when it finishes.");
}
