//! # GPUlog: a data-parallel Datalog engine over the Hash-Indexed Sorted Array
//!
//! This crate is the core of the reproduction of *"Optimizing Datalog for
//! the GPU"* (ASPLOS 2025). It implements a complete Datalog engine — a
//! Soufflé-style front end, a rule planner, and a semi-naïve fixpoint
//! evaluator — whose relational-algebra kernels run on the simulated GPU
//! substrate of [`gpulog_device`] and store relations in the HISA data
//! structure of [`gpulog_hisa`].
//!
//! The three engine-level contributions of the paper are all here:
//!
//! * **HISA-backed iterated relational algebra** — joins enter the inner
//!   relation through a hash table and scan a sorted index array
//!   ([`ra::join`]).
//! * **Temporarily-materialized n-way joins** — rule bodies are decomposed
//!   into chains of binary joins materialized into temporaries; the fused
//!   nested-loop alternative is provided for ablation ([`ra::nway`]).
//! * **Eager buffer management** — merge buffers are retained across
//!   iterations and over-allocated by a tunable factor ([`ebm`]).
//!
//! ## Architecture: Batch → Op → Executor
//!
//! Evaluation is layered (see `docs/architecture.md` in the repository for
//! the full picture):
//!
//! 1. **Data** — tuples move between operators as
//!    [`gpulog_hisa::TupleBatch`]es: owned, arity-tagged, row-major
//!    buffers whose *sorted + unique* flag turns fast paths (such as the
//!    sort/dedup-free delta HISA build) from call-site conventions into
//!    type-driven dispatch.
//! 2. **Operators** — the planner compiles each rule into a [`planner::RulePlan`]
//!    and lowers it to an [`ra::RaPipeline`] of [`ra::RaOp`]s
//!    (`Scan`, `HashJoin`, `FusedJoin`, `AntiJoin`, `Project`, `Reduce`).
//! 3. **Executor** — [`backend::ShardedBackend`] runs pipelines, and
//!    populates each relation's next delta, against an
//!    [`backend::EvalContext`]. It is one op loop with three knobs, all
//!    keeping fixpoints byte-identical to the default's:
//!    * *shards* ([`EngineConfig::shard_count`], the builder's
//!      `.shard_count(..)`): relations hash-partition by join key and each
//!      join / delta-population op fans out across the persistent worker
//!      pool as one epoch of per-shard tasks; the default of one shard
//!      runs operator-at-a-time on one simulated device with no partition
//!      pass;
//!    * *merge policy* ([`EngineConfig::pipelined`], the builder's
//!      `.pipelined(..)`): deferred merging parks each delta in relation
//!      storage and drains several into full at once, in place, so the
//!      O(|full|) merge passes coalesce (the drain time is reported as
//!      [`RunStats`]'s `pipeline_stall_nanos`);
//!    * *observer* ([`EngineConfig::device_topology`]): a cost model
//!      pins shard `i` to modeled device `i` of a [`DeviceTopology`],
//!      charges the kernels the loop ran to per-device counters, and
//!      charges every row moved between shards — join re-partitions,
//!      gathers, the delta exchange — to the topology's link model
//!      ([`RunStats::topology`]).
//!
//!    The bench harness and the test matrix name configurations with
//!    `sharded:N` / `pipelined:N` / `multigpu:N` specs. From code:
//!
//! ```
//! use gpulog::{EngineConfig, GpulogEngine};
//! use gpulog_device::{Device, profile::DeviceProfile};
//!
//! # fn main() -> Result<(), gpulog::EngineError> {
//! let device = Device::new(DeviceProfile::nvidia_h100());
//! let src = r"
//!     .decl Edge(x: number, y: number)
//!     .input Edge
//!     .decl Reach(x: number, y: number)
//!     .output Reach
//!     Reach(x, y) :- Edge(x, y).
//!     Reach(x, y) :- Edge(x, z), Reach(z, y).
//! ";
//! let engine = GpulogEngine::builder(&device)
//!     .program(src)
//!     .shard_count(4) // hash-partition relations 4 ways
//!     .build()?;
//! assert_eq!(engine.backend().name(), "sharded");
//! assert_eq!(engine.config().shard_count, 4);
//! // Or defer merges: deltas drain into full several at a time.
//! let deferred = GpulogEngine::builder(&device)
//!     .program(src)
//!     .pipelined(4)
//!     .build()?;
//! assert_eq!(deferred.backend().name(), "pipelined");
//! // A whole configuration can be passed as one plain value instead.
//! let config = EngineConfig { shard_count: 2, ..EngineConfig::default() };
//! let sharded = GpulogEngine::builder(&device).program(src).config(config).build()?;
//! assert_eq!(sharded.backend().shards(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! ## Quick start
//!
//! Build an engine with [`GpulogEngine::builder`], load facts, run to
//! fixpoint, and read the results back:
//!
//! ```
//! use gpulog::GpulogEngine;
//! use gpulog_device::{Device, profile::DeviceProfile};
//!
//! # fn main() -> Result<(), gpulog::EngineError> {
//! let device = Device::new(DeviceProfile::nvidia_h100());
//! let mut reach = GpulogEngine::builder(&device)
//!     .program(r"
//!         .decl Edge(x: number, y: number)
//!         .input Edge
//!         .decl Reach(x: number, y: number)
//!         .output Reach
//!         Reach(x, y) :- Edge(x, y).
//!         Reach(x, y) :- Edge(x, z), Reach(z, y).
//!     ")
//!     .build()?;
//! reach.add_facts("Edge", [[0, 1], [1, 2], [2, 3]])?;
//! let stats = reach.run()?;
//! assert_eq!(reach.relation_size("Reach"), Some(6));
//! // Results are available as borrowed rows or owned batches.
//! assert!(reach.relation_tuples_iter("Reach").unwrap().count() == 6);
//! assert_eq!(reach.relation_batch("Reach").unwrap().len(), 6);
//! println!("fixpoint in {} iterations", stats.iterations);
//! # Ok(())
//! # }
//! ```
//!
//! [`GpulogEngine::builder`] is the one constructor: its setters adjust
//! single knobs, and [`EngineBuilder::config`] takes a whole
//! [`EngineConfig`].
//!
//! ## Linting and optimizing the program before it runs
//!
//! Between parsing and planning, every program passes through
//! [`analysis::passes`]: [`lint_program`] reports span-carrying
//! diagnostics with stable `GLnnn` codes (unused relations, unreachable
//! rules, singleton variables, duplicate literals, always-false rules,
//! cross-rule constant mismatches, subsumed rules), and
//! [`optimize_program`] applies semantics-preserving rewrites — dead-rule
//! elimination, constant propagation, duplicate-literal and
//! subsumed-rule removal — before the planner lowers the program. The
//! default [`LintLevel::Warn`] collects findings behind
//! [`GpulogEngine::diagnostics`]; [`EngineConfig::lint`] at
//! [`LintLevel::Deny`] turns any finding into a build error:
//!
//! ```
//! use gpulog::{EngineError, GpulogEngine, LintCode, LintLevel};
//! use gpulog_device::{Device, profile::DeviceProfile};
//!
//! let device = Device::new(DeviceProfile::nvidia_h100());
//! let src = r"
//!     .decl Edge(x: number, y: number)
//!     .input Edge
//!     .decl Reach(x: number, y: number)
//!     .output Reach
//!     Reach(x, y) :- Edge(x, y), Edge(x, stray).
//!     Reach(x, y) :- Edge(x, z), Reach(z, y).
//! ";
//! // Warn (the default): the engine builds, findings are queryable.
//! let engine = GpulogEngine::builder(&device).program(src).build().unwrap();
//! assert!(engine.diagnostics().has(LintCode::SingletonVariable));
//! for finding in engine.diagnostics() {
//!     println!("{finding}"); // warning[GL003]: ... at line 6, column 1
//! }
//! // Deny: the same program refuses to build.
//! let err = GpulogEngine::builder(&device)
//!     .program(src)
//!     .lint(LintLevel::Deny)
//!     .build()
//!     .unwrap_err();
//! assert!(matches!(err, EngineError::LintDenied { count: 1, .. }));
//! ```
//!
//! The same passes drive the `gpulog-lint` command-line tool in the
//! bench crate, which CI runs over every embedded workspace program with
//! `--deny-warnings`.
//!
//! ## Point queries without the full closure
//!
//! When the caller asks one question — "what is reachable from *this*
//! node?" — materializing the whole fixpoint is wasted work. Attach a
//! `?-` goal (or call [`GpulogEngine::run_query_with`] ad hoc) and the
//! engine rewrites the program with magic sets
//! ([`analysis::magic_rewrite`]): rules are specialized to the goal's
//! bound/free adornment, a magic relation seeded from the goal constants
//! restricts derivation to demanded bindings, and the rewritten program
//! runs through the same planner and backends as any other. The answers
//! are byte-identical to filtering the full closure, but only the
//! demanded cone is materialized ([`engine::QueryResult`] reports how
//! much):
//!
//! ```
//! use gpulog::GpulogEngine;
//! use gpulog_device::{Device, profile::DeviceProfile};
//!
//! # fn main() -> Result<(), gpulog::EngineError> {
//! let device = Device::new(DeviceProfile::nvidia_h100());
//! let mut reach = GpulogEngine::builder(&device)
//!     .program(r"
//!         .decl Edge(x: number, y: number)
//!         .input Edge
//!         .decl Reach(x: number, y: number)
//!         .output Reach
//!         Reach(x, y) :- Edge(x, y).
//!         Reach(x, z) :- Reach(x, y), Edge(y, z).
//!         ?- Reach(0, y).
//!     ")
//!     .build()?;
//! reach.add_facts("Edge", [[0, 1], [1, 2], [7, 8], [8, 9]])?;
//! let result = reach.run_query()?; // runs the ?- goal, not the closure
//! assert_eq!(result.answers.as_flat(), &[0, 1, 0, 2]);
//! // The 7→8→9 component was never demanded, so it was never derived.
//! assert!(result.tuples_materialized < 6);
//! # Ok(())
//! # }
//! ```
//!
//! ## Stratified negation and aggregates
//!
//! Rule bodies are lists of [`ast::Literal`]s — positive or negated atoms
//! (`!Blocked(y)` in source, [`ast::RuleBuilder::body_not`] in the
//! builder) — and heads may carry one aggregate (`count`/`min`/`max`/`sum`
//! over a body-bound variable). The engine stratifies the program
//! ([`analysis::stratify_program`]): each stratum runs its own semi-naïve
//! fixpoint, negation lowers to [`ra::RaOp::AntiJoin`] against the
//! completed lower stratum, and aggregates to a trailing
//! [`ra::RaOp::Reduce`]. Recursion through negation or aggregation is
//! rejected with the typed [`EngineError::CyclicNegation`]:
//!
//! ```
//! use gpulog::GpulogEngine;
//! use gpulog_device::{Device, profile::DeviceProfile};
//!
//! # fn main() -> Result<(), gpulog::EngineError> {
//! let device = Device::new(DeviceProfile::nvidia_h100());
//! let mut engine = GpulogEngine::builder(&device)
//!     .program(r"
//!         .decl Edge(x: number, y: number)
//!         .input Edge
//!         .decl Blocked(x: number)
//!         .input Blocked
//!         .decl Reach(x: number, y: number)
//!         .output Reach
//!         Reach(x, y) :- Edge(x, y), !Blocked(y).
//!         Reach(x, y) :- Reach(x, z), Edge(z, y), !Blocked(y).
//!         .decl PathLen(x: number, y: number, d: number)
//!         .input PathLen
//!         .decl SP(x: number, y: number, d: number)
//!         .output SP
//!         SP(x, y, min(d)) :- PathLen(x, y, d).
//!     ")
//!     .build()?;
//! engine.add_facts("Edge", [[0, 1], [1, 2], [2, 3]])?;
//! engine.add_facts("Blocked", [[2]])?;
//! engine.add_facts("PathLen", [[0, 3, 7], [0, 3, 4]])?;
//! engine.run()?;
//! // Nothing reaches through the blocked node 2.
//! assert_eq!(engine.relation_size("Reach"), Some(2));
//! assert!(!engine.contains("Reach", &[0, 2]));
//! // The min aggregate keeps one row per (x, y) group.
//! assert_eq!(engine.relation_batch("SP").unwrap().to_rows(), vec![vec![0, 3, 4]]);
//! # Ok(())
//! # }
//! ```
//!
//! ## Serving a fixpoint
//!
//! A completed fixpoint publishes as an immutable, cheaply-clonable
//! [`FixpointSnapshot`] via [`GpulogEngine::snapshot`] (a typed
//! [`EngineError::NoFixpoint`] before the first run). Snapshots share the
//! engine's relation storage by `Arc`; the engine's *next* run
//! copy-on-write-detaches anything a live snapshot still holds, so a
//! snapshot is byte-stable forever:
//!
//! ```
//! # use gpulog::GpulogEngine;
//! # use gpulog_device::{Device, profile::DeviceProfile};
//! # fn main() -> Result<(), gpulog::EngineError> {
//! # let device = Device::new(DeviceProfile::nvidia_h100());
//! # let mut reach = GpulogEngine::builder(&device)
//! #     .program(r"
//! #         .decl Edge(x: number, y: number)
//! #         .input Edge
//! #         .decl Reach(x: number, y: number)
//! #         .output Reach
//! #         Reach(x, y) :- Edge(x, y).
//! #         Reach(x, y) :- Edge(x, z), Reach(z, y).
//! #     ")
//! #     .build()?;
//! # reach.add_facts("Edge", [[0, 1], [1, 2], [2, 3]])?;
//! # reach.run()?;
//! let snapshot = reach.snapshot()?; // generation 1
//! assert!(snapshot.contains("Reach", &[0, 3]));
//! assert_eq!(
//!     snapshot.lookup("Reach", &[1]).unwrap(), // prefix = point lookup
//!     vec![vec![1, 2], vec![1, 3]],
//! );
//! // Grow the EDB and re-run: the old snapshot still serves generation 1.
//! reach.insert_facts_batch("Edge", &gpulog::TupleBatch::from_rows(2, [[3u32, 4]]))?;
//! reach.run()?;
//! assert_eq!(snapshot.relation_size("Reach"), Some(6));
//! assert_eq!(reach.snapshot()?.relation_size("Reach"), Some(10));
//! # Ok(())
//! # }
//! ```
//!
//! The `gpulog-serve` crate wraps this into a concurrent serving layer —
//! a `ServeWriter` owns the engine and publishes each fixpoint, while any
//! number of reader threads query through clonable `ServeHandle`s:
//!
//! ```rust,ignore
//! use gpulog_serve::ServeWriter;
//!
//! let mut writer = ServeWriter::new(engine)?;   // runs + publishes gen 1
//! let handle = writer.handle();                  // clone one per reader
//! std::thread::spawn(move || handle.point_lookup("Reach", &[0]));
//! writer.insert_facts_batch("Edge", &batch)?;    // stage the next EDB
//! writer.refresh()?;                             // re-run, swap atomically
//! ```

pub mod analysis;
pub mod ast;
pub mod backend;
pub mod ebm;
pub mod engine;
pub mod error;
pub mod parser;
pub mod planner;
pub mod ra;
pub mod relation;
pub mod snapshot;
pub mod stats;

pub use analysis::passes::{
    lint_program, optimize_program, Diagnostic, DiagnosticLevel, LintCode, LintLevel,
    OptimizeReport, ProgramDiagnostics,
};
pub use analysis::{magic_rewrite, stratify_program, MagicProgram};
pub use ast::{
    Aggregate, AggregateOp, Atom, CmpOp, Constraint, Literal, Program, ProgramBuilder, Query,
    RelationDecl, Rule, RuleBuilder, Span, Term,
};
pub use backend::{EvalContext, PipelineOutcome, PopulateOutcome, ShardedBackend};
pub use ebm::EbmConfig;
pub use engine::{EngineBuilder, EngineConfig, GpulogEngine, QueryResult};
pub use error::{EngineError, EngineResult};
pub use parser::parse_program;
pub use planner::{compile, lower_program, lower_rule_plan, CompiledProgram, LoweredStratum};
pub use ra::{NwayStrategy, RaOp, RaPipeline};
pub use snapshot::FixpointSnapshot;

pub use gpulog_device::topology::{DeviceTopology, LinkProfile, TopologyReport};
pub use gpulog_hisa::TupleBatch;
pub use stats::{IterationRecord, Phase, RunStats, StratumMode};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_api_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<GpulogEngine>();
        assert_send::<RunStats>();
        assert_send::<EngineConfig>();
        assert_send::<TupleBatch>();
        assert_send::<RaPipeline>();
        assert_send::<ShardedBackend>();
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FixpointSnapshot>();
    }
}
