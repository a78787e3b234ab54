//! Integration-test crate for the GPUlog reproduction workspace.
//!
//! All test content lives in the `tests/` directory and exercises the
//! public APIs of the workspace crates together (end-to-end Datalog
//! queries, cross-engine agreement, paper figure traces). This library
//! exports the shared harness code: the CI test matrix's
//! `GPULOG_TEST_BACKEND` override and the property tests' program shapes.

use gpulog::EngineConfig;
use gpulog_bench::BackendSpec;

/// The executor configuration selected by the `GPULOG_TEST_BACKEND`
/// environment variable: `serial` (or unset; one shard, eager merging),
/// `sharded` / `sharded:N` (`N` shards), `multigpu:N` (one shard per
/// device of an `N`-device simulated NVLink-like topology), or
/// `pipelined:N` (`N` shards with deferred merging) — the same spec
/// grammar the bench bins' `--backend` flag accepts, parsed by the same
/// [`gpulog_bench::parse_backend_spec`] so the two cannot drift apart.
/// CI runs the workspace test suite once per matrix leg so every
/// engine-level test exercises every configuration of the one executor.
///
/// # Panics
///
/// Panics on an unrecognized value — a typo in the CI matrix must fail
/// loudly, not silently fall back to the default configuration.
pub fn backend_from_env() -> BackendSpec {
    match std::env::var("GPULOG_TEST_BACKEND") {
        Err(_) => BackendSpec::Serial,
        Ok(value) if value.trim().is_empty() => BackendSpec::Serial,
        Ok(value) => match gpulog_bench::parse_backend_spec(value.trim()) {
            Ok(spec) => spec,
            Err(err) => panic!("invalid GPULOG_TEST_BACKEND: {err}"),
        },
    }
}

/// The engine configuration tests should build engines with: the default
/// configuration, re-targeted at the backend the `GPULOG_TEST_BACKEND`
/// matrix leg selects (see [`backend_from_env`]).
pub fn config_from_env() -> EngineConfig {
    backend_from_env().configure(EngineConfig::default())
}

/// Three program shapes the property tests sweep: each hits several
/// optimizer rewrites at once (dead rules, duplicates, subsumption,
/// constant propagation, always-false elimination) across negation and
/// aggregation. `passes.rs` checks the rewrites preserve every output's
/// fixpoint; `incremental.rs` checks re-runs match from-scratch runs.
pub const PROPERTY_PROGRAMS: [&str; 3] = [
    // Closure with a dead derived chain, a duplicate literal, a subsumed
    // rule, and a constant selection.
    ".decl Edge(x: number, y: number)\n\
     .input Edge\n\
     .decl Reach(x: number, y: number)\n\
     .output Reach\n\
     .decl Near(x: number, y: number)\n\
     .output Near\n\
     .decl Scratch(x: number, y: number)\n\
     Reach(x, y) :- Edge(x, y).\n\
     Reach(x, y) :- Edge(x, z), Reach(z, y).\n\
     Reach(x, y) :- Edge(x, y), Edge(x, y), Reach(x, y).\n\
     Near(x, y) :- Edge(x, y), x = 1.\n\
     Scratch(y, x) :- Reach(x, y), Edge(y, x).\n",
    // Stratified negation plus an always-false rule and a pinned-variable
    // contradiction.
    ".decl Edge(x: number, y: number)\n\
     .input Edge\n\
     .decl Blocked(x: number)\n\
     .decl Reach(x: number, y: number)\n\
     .output Reach\n\
     Blocked(x) :- Edge(x, x).\n\
     Reach(x, y) :- Edge(x, y), !Blocked(y).\n\
     Reach(x, y) :- Edge(x, z), Reach(z, y), !Blocked(y).\n\
     Reach(x, y) :- Edge(x, y), 3 < 2.\n\
     Reach(x, y) :- Edge(x, y), x = 0, x = 2.\n",
    // A head aggregate over a relation that also feeds a dead rule.
    ".decl Edge(x: number, y: number)\n\
     .input Edge\n\
     .decl PathLen(x: number, y: number, d: number)\n\
     .decl SP(x: number, y: number, d: number)\n\
     .output SP\n\
     .decl Unused(x: number)\n\
     PathLen(x, y, 1) :- Edge(x, y).\n\
     PathLen(x, y, 2) :- Edge(x, z), Edge(z, y).\n\
     SP(x, y, min(d)) :- PathLen(x, y, d).\n\
     Unused(x) :- PathLen(x, _, _).\n",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_serial() {
        // The variable is unset in a plain `cargo test` run, and CI's
        // serial leg sets it to `serial`; both must mean one shard and no
        // topology.
        if std::env::var("GPULOG_TEST_BACKEND").is_err() {
            let config = config_from_env();
            assert_eq!(config.shard_count, 1);
            assert!(config.device_topology.is_none());
        }
    }
}
