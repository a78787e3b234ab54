//! Context-Sensitive Points-to Analysis (CSPA) — the program-analysis
//! workload of Table 4 and Figure 6.
//!
//! The rules are the Graspan dataflow/alias grammar used by the paper (and
//! by RecStep, whose inputs the paper reuses): `ValueFlow` propagates
//! assignments transitively, `MemoryAlias` relates locations reached through
//! matching dereferences, and `ValueAlias` closes value flow over memory
//! aliasing. Context sensitivity in Graspan is achieved by method cloning in
//! the *input* extraction, so the rule set itself is context-insensitive —
//! which is exactly how the paper evaluates it.

use gpulog::{EngineConfig, EngineResult, GpulogEngine, RunStats};
use gpulog_datasets::CspaInput;
use gpulog_device::Device;

/// Soufflé-style source of the Graspan CSPA program.
pub const CSPA_PROGRAM: &str = r"
.decl Assign(dst: number, src: number)
.input Assign
.decl Dereference(ptr: number, val: number)
.input Dereference
.decl ValueFlow(x: number, y: number)
.output ValueFlow
.decl MemoryAlias(x: number, y: number)
.output MemoryAlias
.decl ValueAlias(x: number, y: number)
.output ValueAlias

// Value flow along assignments (reflexive on assignment endpoints).
ValueFlow(y, x) :- Assign(y, x).
ValueFlow(x, x) :- Assign(x, _).
ValueFlow(x, x) :- Assign(_, x).

// Transitive propagation, through memory aliases and directly.
ValueFlow(x, y) :- Assign(x, z), MemoryAlias(z, y).
ValueFlow(x, y) :- ValueFlow(x, z), ValueFlow(z, y).

// Aliasing.
MemoryAlias(x, w) :- Dereference(y, x), ValueAlias(y, z), Dereference(z, w).
MemoryAlias(x, x) :- Assign(_, x).
MemoryAlias(x, x) :- Assign(x, _).
ValueAlias(x, y) :- ValueFlow(z, x), ValueFlow(z, y).
ValueAlias(x, y) :- ValueFlow(z, x), MemoryAlias(z, w), ValueFlow(w, y).
";

/// Sizes of the three derived relations, as reported in Table 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CspaSizes {
    /// `ValueFlow` tuples.
    pub value_flow: usize,
    /// `ValueAlias` tuples.
    pub value_alias: usize,
    /// `MemoryAlias` tuples.
    pub memory_alias: usize,
}

/// Result of one CSPA run.
#[derive(Debug, Clone)]
pub struct CspaResult {
    /// Engine statistics.
    pub stats: RunStats,
    /// Output relation sizes.
    pub sizes: CspaSizes,
}

/// Builds an engine loaded with a CSPA input.
///
/// # Errors
///
/// Returns engine or device errors.
pub fn prepare(
    device: &Device,
    input: &CspaInput,
    config: EngineConfig,
) -> EngineResult<GpulogEngine> {
    let mut engine = GpulogEngine::builder(device)
        .program(CSPA_PROGRAM)
        .config(config)
        .build()?;
    engine.add_facts_flat("Assign", &input.assign_flat())?;
    engine.add_facts_flat("Dereference", &input.dereference_flat())?;
    Ok(engine)
}

/// Runs CSPA on `input` with the given configuration.
///
/// # Errors
///
/// Returns engine or device errors (including out-of-memory).
pub fn run(device: &Device, input: &CspaInput, config: EngineConfig) -> EngineResult<CspaResult> {
    let mut engine = prepare(device, input, config)?;
    let stats = engine.run()?;
    Ok(CspaResult {
        sizes: CspaSizes {
            value_flow: engine.relation_size("ValueFlow").unwrap_or(0),
            value_alias: engine.relation_size("ValueAlias").unwrap_or(0),
            memory_alias: engine.relation_size("MemoryAlias").unwrap_or(0),
        },
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_datasets::cspa::{generate, CspaShape};
    use gpulog_device::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    fn tiny_input() -> CspaInput {
        CspaInput {
            name: "tiny".into(),
            // b := a; c := b; and *p loads a, *q loads c with p, q aliased
            // through value flow (p := q).
            assign: vec![(1, 0), (2, 1), (4, 5)],
            dereference: vec![(4, 0), (5, 2)],
        }
    }

    #[test]
    fn value_flow_is_transitive_over_assignments() {
        let d = device();
        let mut engine = prepare(&d, &tiny_input(), EngineConfig::default()).unwrap();
        engine.run().unwrap();
        // c := b := a, so a's value flows to c: ValueFlow(2, 0) via
        // ValueFlow(2,1), ValueFlow(1,0) and transitivity.
        assert!(engine.contains("ValueFlow", &[1, 0]));
        assert!(engine.contains("ValueFlow", &[2, 1]));
        assert!(engine.contains("ValueFlow", &[2, 0]));
        // Reflexive endpoints exist.
        assert!(engine.contains("ValueFlow", &[0, 0]));
        assert!(engine.contains("MemoryAlias", &[1, 1]));
    }

    #[test]
    fn dereferences_through_aliased_pointers_alias_their_values() {
        let d = device();
        let mut engine = prepare(&d, &tiny_input(), EngineConfig::default()).unwrap();
        engine.run().unwrap();
        // p (=4) and q (=5): Assign(4, 5) gives ValueFlow(4,5) so
        // ValueAlias(4,5) via common source 5... then Dereference(4,0) and
        // Dereference(5,2) force MemoryAlias(0, 2).
        assert!(engine.contains("ValueAlias", &[4, 5]) || engine.contains("ValueAlias", &[5, 4]));
        assert!(engine.contains("MemoryAlias", &[0, 2]) || engine.contains("MemoryAlias", &[2, 0]));
    }

    #[test]
    fn cspa_runs_on_synthetic_inputs_and_produces_nontrivial_outputs() {
        let d = device();
        let input = generate(
            "unit",
            CspaShape {
                variables: 300,
                assign_edges: 260,
                dereference_edges: 700,
                chain_length: 8,
                deref_targets: 12,
                seed: 3,
            },
        );
        let result = run(&d, &input, EngineConfig::default()).unwrap();
        assert!(result.sizes.value_flow >= input.assign_len());
        assert!(result.sizes.value_alias > 0);
        assert!(result.sizes.memory_alias > 0);
        assert!(result.stats.iterations > 1);
    }
}
