//! A DDisasm-style multi-column-join query (paper Section 3, requirement R3).
//!
//! The paper motivates multi-column join keys with a rule from the Datalog
//! disassembler DDisasm that joins `def_used.for_address` with
//! `arch.memory_access` on two columns (`EA`, `Reg`). This module provides a
//! faithful (simplified) version of that rule so the multi-column-key path
//! of HISA is exercised by a realistic program, not just unit tests.

use gpulog::{EngineConfig, EngineResult, GpulogEngine, RunStats};
use gpulog_device::Device;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The `LOAD` operation code used by the memory-access relation.
pub const LOAD: u32 = 1;
/// The sentinel meaning "no base register".
pub const NONE_REG: u32 = 0;

/// Soufflé-style source of the DDisasm-inspired rule.
pub const DDISASM_PROGRAM: &str = r"
.decl def_used_for_address(ea: number, reg: number, kind: number)
.input def_used_for_address
.decl memory_access(op: number, ea: number, reg: number, base: number)
.input memory_access
.decl value_reg_unsupported(ea: number, reg: number)
.output value_reg_unsupported
value_reg_unsupported(ea, reg) :-
    def_used_for_address(ea, reg, _),
    memory_access(1, ea, reg, base),
    base != 0.
";

/// A synthetic instance of the two input relations.
#[derive(Debug, Clone, Default)]
pub struct DdisasmInput {
    /// `def_used_for_address(ea, reg, kind)` tuples.
    pub def_used: Vec<[u32; 3]>,
    /// `memory_access(op, ea, reg, base)` tuples.
    pub memory_access: Vec<[u32; 4]>,
}

/// Generates a synthetic binary with `instructions` instruction addresses.
pub fn generate(instructions: u32, seed: u64) -> DdisasmInput {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut input = DdisasmInput::default();
    for ea in 0..instructions {
        let reg = rng.gen_range(1..16);
        input.def_used.push([ea, reg, rng.gen_range(0..4)]);
        if rng.gen_bool(0.6) {
            let op = if rng.gen_bool(0.7) { LOAD } else { 2 };
            let base = if rng.gen_bool(0.5) {
                rng.gen_range(1..16)
            } else {
                NONE_REG
            };
            // Half the accesses use the same register as the def (joinable).
            let access_reg = if rng.gen_bool(0.5) {
                reg
            } else {
                rng.gen_range(1..16)
            };
            input.memory_access.push([op, ea, access_reg, base]);
        }
    }
    input
}

/// Runs the rule and returns the engine statistics plus the number of
/// `value_reg_unsupported` tuples derived.
///
/// # Errors
///
/// Returns engine or device errors.
pub fn run(
    device: &Device,
    input: &DdisasmInput,
    config: EngineConfig,
) -> EngineResult<(RunStats, usize)> {
    let mut engine = GpulogEngine::builder(device)
        .program(DDISASM_PROGRAM)
        .config(config)
        .build()?;
    let def_flat: Vec<u32> = input.def_used.iter().flatten().copied().collect();
    let mem_flat: Vec<u32> = input.memory_access.iter().flatten().copied().collect();
    engine.add_facts_flat("def_used_for_address", &def_flat)?;
    engine.add_facts_flat("memory_access", &mem_flat)?;
    let stats = engine.run()?;
    let size = engine.relation_size("value_reg_unsupported").unwrap_or(0);
    Ok((stats, size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_device::profile::DeviceProfile;

    #[test]
    fn multi_column_join_matches_hand_computation() {
        let d = Device::with_workers(DeviceProfile::nvidia_h100(), 4);
        let input = generate(500, 11);
        let (_stats, derived) = run(&d, &input, EngineConfig::default()).unwrap();
        // Reference: join on (ea, reg), op must be LOAD, base must not be NONE.
        let mut expected = std::collections::HashSet::new();
        for d1 in &input.def_used {
            for m in &input.memory_access {
                if m[0] == LOAD && m[1] == d1[0] && m[2] == d1[1] && m[3] != NONE_REG {
                    expected.insert((d1[0], d1[1]));
                }
            }
        }
        assert_eq!(derived, expected.len());
        assert!(derived > 0, "the synthetic binary should trigger the rule");
    }
}
