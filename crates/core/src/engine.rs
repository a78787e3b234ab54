//! The semi-naïve fixpoint engine (paper Sections 2 and 5, Figure 3).
//!
//! Evaluation proceeds stratum by stratum. Within a recursive stratum the
//! engine runs the classic semi-naïve loop: evaluate every delta-version
//! rule pipeline, deduplicate the resulting `new` tuples and subtract
//! `full` (populating the next `delta`), merge `delta` into `full`, and
//! repeat until every delta is empty. Each phase is timed into the buckets
//! the paper's Figure 6 reports, and memory behaviour follows the
//! configured eager-buffer-management policy.
//!
//! The engine itself runs no relational-algebra kernels: at construction
//! it lowers every rule plan into an [`RaPipeline`] (see
//! [`crate::planner::lower_rule_plan`]) and dispatches each pipeline
//! through its one executor, a [`ShardedBackend`] configured from
//! [`EngineConfig`] — by default one shard, eager merging, no observer.
//! See `docs/architecture.md` for the Batch → Op → Executor layering.

use crate::analysis::magic_rewrite;
use crate::analysis::passes::{lint_program, optimize_program, LintLevel, ProgramDiagnostics};
use crate::ast::{Atom, Program, Query, Rule, Term};
use crate::backend::{EvalContext, PipelineOutcome, ShardedBackend};
use crate::ebm::EbmConfig;
use crate::error::{EngineError, EngineResult};
use crate::planner::{
    compile, full_probe_keys, lower_program, lower_rule_plan, plan_seed_versions, CompiledProgram,
    CompiledStratum, LoweredStratum, RelId,
};
use crate::ra::difference_batch;
use crate::ra::nway::NwayStrategy;
use crate::ra::op::RaPipeline;
use crate::relation::RelationStorage;
use crate::snapshot::FixpointSnapshot;
use crate::stats::{IterationRecord, Phase, RunStats, StratumMode};
use gpulog_device::topology::DeviceTopology;
use gpulog_device::Device;
use gpulog_hisa::{TupleBatch, DEFAULT_LOAD_FACTOR};
use std::time::Instant;

/// Engine configuration: plain data, read by [`EngineBuilder::build`].
///
/// Set it through the builder's setters, or pass a whole value with
/// [`EngineBuilder::config`] — struct-update syntax keeps the defaults for
/// every field not named.
///
/// # Examples
///
/// ```
/// use gpulog::{EngineConfig, NwayStrategy};
///
/// let config = EngineConfig {
///     nway: NwayStrategy::FusedNestedLoop,
///     max_iterations: 10_000,
///     ..EngineConfig::default()
/// };
/// assert_eq!(config.shard_count, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Eager buffer management policy.
    pub ebm: EbmConfig,
    /// n-way join strategy.
    pub nway: NwayStrategy,
    /// Safety limit on fixpoint iterations per stratum.
    pub max_iterations: usize,
    /// Number of hash partitions the [`ShardedBackend`] executor shards
    /// relations into. `1` (the default) is the single-device loop: one
    /// part, no partition pass, no k-way merge. Zero is rejected with
    /// [`EngineError::InvalidShardCount`].
    pub shard_count: usize,
    /// Simulated multi-device topology. When set, the executor pins one
    /// hash shard per modeled device and reports to a topology cost model;
    /// the run's [`RunStats::topology`] then carries per-device modeled
    /// time, cross-device exchange bytes, and the modeled critical path. A
    /// `shard_count` above one must match the topology's device count.
    pub device_topology: Option<DeviceTopology>,
    /// Deferred merging: zero (the default) merges every delta into full
    /// as it is installed; a positive count makes the executor run over
    /// that many hash partitions with deferred, coalesced merges — deltas
    /// park in relation storage and drain into full several at a time, in
    /// place, paying fewer O(|full|) merge passes. A `shard_count` above
    /// one must match, and a device topology cannot be combined with it.
    pub pipelined: usize,
    /// How lint findings are treated when the engine is built from source
    /// or an AST: [`LintLevel::Warn`] (the default) collects them into
    /// [`GpulogEngine::diagnostics`], [`LintLevel::Deny`] fails the build
    /// with [`EngineError::LintDenied`], [`LintLevel::Allow`] skips the
    /// lint passes. Pre-compiled programs are never linted.
    pub lint: LintLevel,
    /// Whether to run the semantics-preserving rewrites
    /// ([`crate::analysis::passes::optimize_program`]) before planning.
    /// On by default; the rewrites preserve the fixpoint of every output
    /// relation and of the `?-` goal, and the original AST is retained
    /// for goal-directed runs.
    pub optimize: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            ebm: EbmConfig::default(),
            nway: NwayStrategy::TemporarilyMaterialized,
            max_iterations: 1_000_000,
            shard_count: 1,
            device_topology: None,
            pipelined: 0,
            lint: LintLevel::Warn,
            optimize: true,
        }
    }
}

/// The engine's analysis front-end, run between parsing/validation and
/// planning when a program arrives as source or an AST: lint per the
/// configured [`LintLevel`] (failing the build under [`LintLevel::Deny`]),
/// then rewrite through [`optimize_program`] when optimization is on.
///
/// Returns the collected diagnostics and the program to compile. The
/// caller keeps the *original* AST for goal-directed runs —
/// [`GpulogEngine::run_query_with`] may target relations the optimizer's
/// dead-rule elimination legitimately pruned from the compiled form.
fn analyze_program(
    program: &Program,
    config: &EngineConfig,
) -> EngineResult<(ProgramDiagnostics, Program)> {
    let diagnostics = match config.lint {
        LintLevel::Allow => ProgramDiagnostics::default(),
        LintLevel::Warn | LintLevel::Deny => lint_program(program),
    };
    if config.lint == LintLevel::Deny && !diagnostics.is_empty() {
        let first = diagnostics
            .iter()
            .next()
            .expect("non-empty diagnostics")
            .to_string();
        return Err(EngineError::LintDenied {
            count: diagnostics.len(),
            first,
        });
    }
    let to_compile = if config.optimize {
        optimize_program(program)?.program
    } else {
        program.clone()
    };
    Ok((diagnostics, to_compile))
}

/// The program a builder will compile, in whichever form it was supplied.
#[derive(Debug)]
enum ProgramSpec {
    Source(String),
    Ast(Program),
    Compiled(CompiledProgram),
}

/// Fluent constructor for [`GpulogEngine`], obtained from
/// [`GpulogEngine::builder`].
///
/// # Examples
///
/// ```
/// use gpulog::{GpulogEngine, NwayStrategy};
/// use gpulog_device::{Device, profile::DeviceProfile};
///
/// # fn main() -> Result<(), gpulog::EngineError> {
/// let device = Device::new(DeviceProfile::default());
/// let mut engine = GpulogEngine::builder(&device)
///     .program(
///         r"
///         .decl Edge(x: number, y: number)
///         .input Edge
///         .decl Reach(x: number, y: number)
///         .output Reach
///         Reach(x, y) :- Edge(x, y).
///         Reach(x, y) :- Edge(x, z), Reach(z, y).
///     ",
///     )
///     .nway(NwayStrategy::TemporarilyMaterialized)
///     .build()?;
/// engine.add_facts("Edge", [[0, 1], [1, 2]])?;
/// engine.run()?;
/// assert_eq!(engine.relation_size("Reach"), Some(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EngineBuilder<'d> {
    device: &'d Device,
    program: Option<ProgramSpec>,
    config: EngineConfig,
}

impl<'d> EngineBuilder<'d> {
    fn new(device: &'d Device) -> Self {
        EngineBuilder {
            device,
            program: None,
            config: EngineConfig::default(),
        }
    }

    /// Supplies the program as Soufflé-style source text.
    #[must_use]
    pub fn program(mut self, source: &str) -> Self {
        self.program = Some(ProgramSpec::Source(source.to_string()));
        self
    }

    /// Supplies the program as an already-constructed AST.
    #[must_use]
    pub fn program_ast(mut self, program: &Program) -> Self {
        self.program = Some(ProgramSpec::Ast(program.clone()));
        self
    }

    /// Supplies an already-compiled program (skips parsing and planning).
    #[must_use]
    pub fn compiled(mut self, compiled: CompiledProgram) -> Self {
        self.program = Some(ProgramSpec::Compiled(compiled));
        self
    }

    /// Replaces the whole configuration.
    #[must_use]
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the eager-buffer-management policy.
    #[must_use]
    pub fn ebm(mut self, ebm: EbmConfig) -> Self {
        self.config.ebm = ebm;
        self
    }

    /// Sets the n-way join strategy.
    #[must_use]
    pub fn nway(mut self, nway: NwayStrategy) -> Self {
        self.config.nway = nway;
        self
    }

    /// Sets the per-stratum fixpoint iteration limit.
    #[must_use]
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.config.max_iterations = max_iterations;
        self
    }

    /// Sets the number of hash partitions relations are sharded into; zero
    /// is rejected with [`EngineError::InvalidShardCount`].
    #[must_use]
    pub fn shard_count(mut self, shard_count: usize) -> Self {
        self.config.shard_count = shard_count;
        self
    }

    /// Sets a simulated multi-device topology: the executor pins one hash
    /// shard per modeled device and reports to its cost model.
    #[must_use]
    pub fn device_topology(mut self, topology: DeviceTopology) -> Self {
        self.config.device_topology = Some(topology);
        self
    }

    /// Enables deferred, coalesced merging over `shards` hash partitions
    /// ([`EngineConfig::pipelined`]): deltas park in relation storage and
    /// drain into full several at a time. Zero merges every delta at once.
    #[must_use]
    pub fn pipelined(mut self, shards: usize) -> Self {
        self.config.pipelined = shards;
        self
    }

    /// Sets how lint findings are treated by [`EngineBuilder::build`].
    #[must_use]
    pub fn lint(mut self, lint: LintLevel) -> Self {
        self.config.lint = lint;
        self
    }

    /// Enables or disables the semantics-preserving rewrite passes (on by
    /// default).
    #[must_use]
    pub fn optimize(mut self, optimize: bool) -> Self {
        self.config.optimize = optimize;
        self
    }

    /// Compiles the program (if needed) and constructs the engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Validation`] if no program was supplied or the
    /// executor knobs conflict (see [`ShardedBackend::from_config`]),
    /// [`EngineError::InvalidShardCount`] for a zero shard count,
    /// [`EngineError::LintDenied`] when the configured lint level is
    /// [`LintLevel::Deny`] and a finding fires, and parse, validation, or
    /// device errors from compilation and storage allocation.
    pub fn build(self) -> EngineResult<GpulogEngine> {
        let (ast, diagnostics, compiled) = match self.program {
            Some(ProgramSpec::Source(source)) => {
                let program = crate::parser::parse_program(&source)?;
                let (diagnostics, to_compile) = analyze_program(&program, &self.config)?;
                let compiled = compile(&to_compile)?;
                (Some(program), diagnostics, compiled)
            }
            Some(ProgramSpec::Ast(program)) => {
                let (diagnostics, to_compile) = analyze_program(&program, &self.config)?;
                let compiled = compile(&to_compile)?;
                (Some(program), diagnostics, compiled)
            }
            Some(ProgramSpec::Compiled(compiled)) => {
                (None, ProgramDiagnostics::default(), compiled)
            }
            None => {
                return Err(EngineError::Validation {
                    message: "EngineBuilder::build called without a program".into(),
                })
            }
        };
        let backend = ShardedBackend::from_config(&self.config)?;
        let config = self.config;
        let mut relations = Vec::with_capacity(compiled.relation_names.len());
        for (name, &arity) in compiled.relation_names.iter().zip(compiled.arities.iter()) {
            relations.push(RelationStorage::new(
                self.device,
                name,
                arity,
                DEFAULT_LOAD_FACTOR,
            )?);
        }
        let relation_count = compiled.relation_names.len();
        let pending_facts = vec![Vec::new(); relation_count];
        let pipelines = lower_program(&compiled, config.nway);
        let reads = compiled.strata.iter().map(StratumReads::of).collect();
        let mut derived_facts = vec![None; relation_count];
        for stratum in &compiled.strata {
            if !stratum.rule_indices.is_empty() {
                for &rel in &stratum.relations {
                    derived_facts[rel] = Some(Vec::new());
                }
            }
        }
        let seeds = vec![None; compiled.strata.len()];
        Ok(GpulogEngine {
            device: self.device.clone(),
            program: ast,
            diagnostics,
            compiled,
            pipelines,
            backend,
            relations,
            pending_facts,
            config,
            loaded: false,
            has_run: false,
            generation: 0,
            marks: vec![0; relation_count],
            derived_facts,
            reads,
            seeds,
        })
    }
}

/// The result of a goal-directed run ([`GpulogEngine::run_query`]).
///
/// `answers` holds only the tuples of the goal relation that match the
/// goal's bound constants, canonically sorted and duplicate-free — exactly
/// the rows a full fixpoint restricted to the goal would produce, whatever
/// executor configuration evaluated the rewritten program.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Goal-matching tuples, lexicographically sorted and duplicate-free.
    pub answers: gpulog_hisa::TupleBatch,
    /// Statistics of the (rewritten) program's fixpoint run.
    pub stats: RunStats,
    /// Tuples materialized by the run outside the copied extensional
    /// database: adorned relations, magic relations, and any relations the
    /// rewrite kept fully evaluated. Comparing this against the full
    /// closure's derived-tuple count is the rewrite's payoff metric.
    pub tuples_materialized: usize,
}

/// The GPUlog Datalog engine.
///
/// # Examples
///
/// ```
/// use gpulog::GpulogEngine;
/// use gpulog_device::{Device, profile::DeviceProfile};
///
/// # fn main() -> Result<(), gpulog::EngineError> {
/// let device = Device::new(DeviceProfile::default());
/// let source = r"
///     .decl Edge(x: number, y: number)
///     .input Edge
///     .decl Reach(x: number, y: number)
///     .output Reach
///     Reach(x, y) :- Edge(x, y).
///     Reach(x, y) :- Edge(x, z), Reach(z, y).
/// ";
/// let mut engine = GpulogEngine::builder(&device).program(source).build()?;
/// engine.add_facts("Edge", [[0, 1], [1, 2], [2, 3]])?;
/// let stats = engine.run()?;
/// assert_eq!(engine.relation_size("Reach"), Some(6));
/// assert!(stats.iterations >= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GpulogEngine {
    device: Device,
    /// The source AST, retained when the engine was built from source or
    /// an AST (`None` for pre-compiled programs). Goal-directed runs
    /// rewrite it; plain runs only ever use the compiled form. This is
    /// the *original* (pre-optimization) AST, so goal-directed runs can
    /// still target relations dead-rule elimination pruned.
    program: Option<Program>,
    /// Lint findings collected at build time (empty under
    /// [`LintLevel::Allow`] and for pre-compiled programs).
    diagnostics: ProgramDiagnostics,
    compiled: CompiledProgram,
    pipelines: Vec<LoweredStratum>,
    backend: ShardedBackend,
    relations: Vec<RelationStorage>,
    pending_facts: Vec<Vec<u32>>,
    config: EngineConfig,
    /// Whether the extensional database is in storage: set once the first
    /// run's load completes, even when that run then fails.
    loaded: bool,
    has_run: bool,
    /// Completed fixpoints so far (the generation stamped on snapshots).
    generation: u64,
    /// Each relation's full length at the last completed fixpoint (zero
    /// before one): the rows past its mark are what the relation grew
    /// since. A failed run leaves the marks alone, so the next run redoes
    /// its work.
    marks: Vec<usize>,
    /// The facts loaded or staged into each relation a rule derives,
    /// program facts included (`None` for relations no rule derives): a
    /// re-derived stratum restarts its relations from these.
    derived_facts: Vec<Option<Vec<u32>>>,
    /// What each stratum's rules read from lower strata.
    reads: Vec<StratumReads>,
    /// Each stratum's seed versions with the lower relation each reads as
    /// its delta, lowered at the first re-run that seeds the stratum.
    seeds: Vec<Option<Vec<(RelId, RaPipeline)>>>,
}

/// The lower-stratum relations one stratum's rules read, by how they read
/// them: a re-run may seed the stratum from growth in the `positive` ones,
/// but growth in a `nonmonotone` one can retract conclusions.
#[derive(Debug, Clone, Default)]
struct StratumReads {
    /// Read by a positive body atom of a rule without an aggregate.
    positive: Vec<RelId>,
    /// Read under negation or in an aggregate rule's body.
    nonmonotone: Vec<RelId>,
}

impl StratumReads {
    fn of(stratum: &CompiledStratum) -> Self {
        let mut reads = StratumReads::default();
        for plan in stratum.non_recursive.iter().chain(&stratum.recursive) {
            let positive = std::iter::once(plan.scan.relation)
                .chain(plan.joins.iter().map(|join| join.relation))
                .filter(|rel| !stratum.relations.contains(rel));
            if plan.reduce.is_some() {
                reads.nonmonotone.extend(positive);
            } else {
                reads.positive.extend(positive);
            }
            reads
                .nonmonotone
                .extend(plan.anti_joins.iter().map(|anti| anti.relation));
        }
        for rels in [&mut reads.positive, &mut reads.nonmonotone] {
            rels.sort_unstable();
            rels.dedup();
        }
        reads
    }
}

/// What a relation's stratum did to it in the current run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Change {
    /// Its full version equals the last completed fixpoint's.
    Unchanged,
    /// Rows were appended past its mark.
    Grown,
    /// It was rebuilt from its facts and may have lost rows.
    Rederived,
}

impl GpulogEngine {
    /// Starts building an engine bound to `device`.
    pub fn builder(device: &Device) -> EngineBuilder<'_> {
        EngineBuilder::new(device)
    }

    /// The device this engine runs on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Lint findings collected when the engine was built.
    ///
    /// Empty when the configured level is [`LintLevel::Allow`], when the
    /// program linted clean, or when the engine was built from a
    /// pre-compiled program (which is never linted). Under
    /// [`LintLevel::Deny`] a finding fails the build instead, so an engine
    /// you hold never carries deny-level findings.
    pub fn diagnostics(&self) -> &ProgramDiagnostics {
        &self.diagnostics
    }

    /// The compiled program (plans, strata, relation metadata).
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// The lowered operator pipelines, stratum by stratum.
    pub fn pipelines(&self) -> &[LoweredStratum] {
        &self.pipelines
    }

    /// The executor, as configured from [`GpulogEngine::config`].
    pub fn backend(&self) -> &ShardedBackend {
        &self.backend
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Adds extensional facts to a relation. Must be called before
    /// [`GpulogEngine::run`]; a rejected call stages nothing.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadFacts`] for unknown relations, wrong
    /// arities, or facts added after the engine has run.
    pub fn add_facts<I, T>(&mut self, relation: &str, tuples: I) -> EngineResult<()>
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u32]>,
    {
        let (buffer, arity) = self.staging_buffer(relation, false)?;
        let staged = buffer.len();
        for tuple in tuples {
            let tuple = tuple.as_ref();
            if tuple.len() != arity {
                buffer.truncate(staged);
                return Err(EngineError::BadFacts {
                    relation: relation.to_string(),
                    message: format!("expected arity {arity}, got {}", tuple.len()),
                });
            }
            buffer.extend_from_slice(tuple);
        }
        Ok(())
    }

    /// Adds extensional facts from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadFacts`] for unknown relations or facts
    /// added after the engine has run, and [`EngineError::RaggedFacts`] for
    /// buffers whose length is not a multiple of the relation's arity (a
    /// ragged tail must never slip into the extensional database).
    pub fn add_facts_flat(&mut self, relation: &str, flat: &[u32]) -> EngineResult<()> {
        let (buffer, arity) = self.staging_buffer(relation, false)?;
        if !flat.len().is_multiple_of(arity) {
            return Err(EngineError::RaggedFacts {
                relation: relation.to_string(),
                len: flat.len(),
                arity,
            });
        }
        buffer.extend_from_slice(flat);
        Ok(())
    }

    /// Stages facts for the *next* run. Unlike [`GpulogEngine::add_facts`]
    /// this is allowed after the engine has run: it is the serving writer's path for growing the database
    /// between fixpoints. The facts take effect on the next
    /// [`GpulogEngine::run`], which merges them into the existing full
    /// versions (deduplicated) and re-evaluates only what they imply,
    /// stratum by stratum (see [`StratumMode`]): a stratum that reads
    /// nothing changed is skipped, one whose inputs only grew where it
    /// reads them positively is seeded from the grown rows, and one that
    /// reads a grown relation under negation or through an aggregate (or
    /// reads a re-derived one) is re-derived from its facts. The result is
    /// exactly the from-scratch fixpoint over every fact loaded or staged
    /// so far, for any stratified program — facts staged into a derived
    /// relation included.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadFacts`] for unknown relations or arity
    /// mismatches.
    pub fn insert_facts_batch(&mut self, relation: &str, batch: &TupleBatch) -> EngineResult<()> {
        let (buffer, arity) = self.staging_buffer(relation, true)?;
        if batch.arity() != arity {
            return Err(EngineError::BadFacts {
                relation: relation.to_string(),
                message: format!("expected arity {arity}, got {}", batch.arity()),
            });
        }
        buffer.extend_from_slice(batch.as_flat());
        Ok(())
    }

    /// The validation every staging method shares: the named relation's
    /// buffer of staged facts and its arity. `after_run` says whether the
    /// caller may stage once the engine has run.
    fn staging_buffer(
        &mut self,
        relation: &str,
        after_run: bool,
    ) -> EngineResult<(&mut Vec<u32>, usize)> {
        let bad = |message: &str| EngineError::BadFacts {
            relation: relation.to_string(),
            message: message.into(),
        };
        let id = self
            .compiled
            .relation_id(relation)
            .ok_or_else(|| bad("unknown relation"))?;
        if self.has_run && !after_run {
            return Err(bad("facts cannot be added after the engine has run"));
        }
        Ok((&mut self.pending_facts[id], self.compiled.arities[id]))
    }

    /// Whether at least one fixpoint has been materialized.
    pub fn has_run(&self) -> bool {
        self.has_run
    }

    /// Completed fixpoints so far (0 before the first run).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Publishes the latest completed fixpoint as an immutable, shareable
    /// [`FixpointSnapshot`]. The snapshot shares the relations' full
    /// versions by reference (no data copy); a later run's merges
    /// copy-on-write the engine's own versions, so the snapshot stays
    /// exactly the fixpoint it captured.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoFixpoint`] before the first completed run.
    pub fn snapshot(&self) -> EngineResult<FixpointSnapshot> {
        if !self.has_run {
            return Err(EngineError::NoFixpoint);
        }
        let relations = self
            .relations
            .iter()
            .map(RelationStorage::share_full)
            .collect();
        Ok(FixpointSnapshot::new(
            self.generation,
            self.compiled.relation_names.clone(),
            self.compiled.arities.clone(),
            relations,
        ))
    }

    /// Number of tuples in a relation's full version.
    pub fn relation_size(&self, relation: &str) -> Option<usize> {
        self.compiled
            .relation_id(relation)
            .map(|id| self.relations[id].len())
    }

    /// Iterates a relation's tuples as borrowed row slices in declared
    /// column order, without cloning per row.
    pub fn relation_tuples_iter(
        &self,
        relation: &str,
    ) -> Option<impl Iterator<Item = &[u32]> + '_> {
        self.compiled
            .relation_id(relation)
            .map(|id| self.relations[id].tuples_iter())
    }

    /// A relation's tuples as an owned [`TupleBatch`] (duplicate-free, in
    /// storage order).
    pub fn relation_batch(&self, relation: &str) -> Option<TupleBatch> {
        self.compiled
            .relation_id(relation)
            .map(|id| self.relations[id].tuples_batch())
    }

    /// Whether a relation contains a tuple.
    pub fn contains(&self, relation: &str, tuple: &[u32]) -> bool {
        self.compiled
            .relation_id(relation)
            .map(|id| self.relations[id].contains(tuple))
            .unwrap_or(false)
    }

    /// Runs the program to fixpoint.
    ///
    /// # Errors
    ///
    /// Returns device errors (including out-of-memory, which reproduces the
    /// paper's OOM rows) and [`EngineError::IterationLimit`] if a stratum
    /// does not converge within the configured bound.
    pub fn run(&mut self) -> EngineResult<RunStats> {
        let wall_start = Instant::now();
        let counters_before = self.device.metrics().snapshot();
        // The topology model accumulates across runs; snapshot so the stats
        // report only this run's share, like every other field.
        let topology_before = self.backend.topology_report();
        let mut stats = RunStats::default();

        // Load the extensional database. The first load replaces the
        // (empty) full versions wholesale with program facts + added facts.
        // Later runs merge the newly staged facts into full (deduplicated
        // against it); each stratum below then evaluates only what the
        // change implies.
        let t = Instant::now();
        let first_load = !self.loaded;
        if first_load {
            // The staged facts stay staged until every relation has loaded:
            // a failed load returns the loaded relations to their empty
            // versions, so a retry starts from where this run did.
            let mut fact_buffers = self.pending_facts.clone();
            for (rel, tuple) in &self.compiled.facts {
                fact_buffers[*rel].extend_from_slice(tuple);
            }
            let mut empties = Vec::new();
            for (rel, buffer) in fact_buffers.into_iter().enumerate() {
                let batch = TupleBatch::new(self.compiled.arities[rel], buffer);
                if !batch.is_empty() || self.compiled.inputs[rel] {
                    empties.push((rel, self.relations[rel].share_full()));
                    if let Err(err) = self.relations[rel].load_full_batch(&batch) {
                        for (rel, empty) in empties {
                            self.relations[rel].restore_full(empty);
                        }
                        return Err(err);
                    }
                }
                if let Some(kept) = &mut self.derived_facts[rel] {
                    *kept = batch.into_flat();
                }
            }
            self.pending_facts.fill(Vec::new());
            self.loaded = true;
        } else {
            self.settle_all(&mut stats)?;
            // Each relation's staged facts leave the staging area only once
            // merged, so a failed merge keeps them (and every later
            // relation's) for the next run.
            for rel in 0..self.relations.len() {
                if self.pending_facts[rel].is_empty() {
                    continue;
                }
                let staged = std::mem::take(&mut self.pending_facts[rel]);
                let batch = TupleBatch::new(self.compiled.arities[rel], staged);
                if let Err(err) = self.merge_staged_facts(rel, &batch) {
                    self.pending_facts[rel] = batch.into_flat();
                    return Err(err);
                }
                if let Some(kept) = &mut self.derived_facts[rel] {
                    kept.extend_from_slice(batch.as_flat());
                }
            }
        }
        stats.add_phase(Phase::Other, t.elapsed());

        // Per-stratum metadata, cloned out of `self` so dispatch can borrow
        // the relations mutably.
        let strata_meta: Vec<(Vec<usize>, bool)> = self
            .compiled
            .strata
            .iter()
            .map(|s| {
                let iterates = s.is_recursive && !s.recursive.is_empty();
                (s.relations.clone(), iterates)
            })
            .collect();

        let mut changes = vec![Change::Unchanged; self.relations.len()];
        for (stratum_idx, (stratum_rels, iterates)) in strata_meta.iter().enumerate() {
            let mode = if first_load {
                StratumMode::Rederived
            } else {
                self.stratum_mode(stratum_idx, &changes)
            };
            stats.stratum_modes.push(mode);
            let (nr_new, nr_delta) = match mode {
                StratumMode::Skipped => continue,
                StratumMode::Rederived => {
                    if !first_load {
                        // Restart from the loaded facts in fresh versions;
                        // a published snapshot keeps the old ones.
                        let t = Instant::now();
                        for &rel in stratum_rels {
                            let facts = self.derived_facts[rel].clone().unwrap_or_default();
                            let batch = TupleBatch::new(self.compiled.arities[rel], facts);
                            self.relations[rel].load_full_batch(&batch)?;
                        }
                        stats.add_phase(Phase::Other, t.elapsed());
                    }
                    // Non-recursive rules: evaluate once over full versions.
                    for pipeline in &self.pipelines[stratum_idx].non_recursive.clone() {
                        self.dispatch(pipeline, &mut stats)?;
                    }
                    self.populate_and_merge(stratum_rels, &mut stats)?
                }
                StratumMode::Seeded => self.seed(stratum_idx, &changes, &mut stats)?,
            };
            // The engine is about to read relation storage directly (delta
            // seeding below, or the next stratum's scans of this one's
            // outputs): settle any merge still deferred.
            self.settle_all(&mut stats)?;

            if *iterates {
                // A re-derived stratum iterates from everything in full, a
                // seeded one from what it grew since the last fixpoint. The
                // rows are in storage order, so set_delta_batch takes the
                // general sort+dedup build here — only difference() outputs
                // earn the sorted-unique fast path.
                let t = Instant::now();
                let mut seeded = 0usize;
                for &rel in stratum_rels {
                    let mark = match mode {
                        StratumMode::Seeded => self.marks[rel],
                        _ => 0,
                    };
                    let batch = self.relations[rel].rows_since(mark);
                    seeded += batch.len();
                    self.relations[rel].set_delta_batch(&batch)?;
                }
                stats.add_phase(Phase::IndexDelta, t.elapsed());
                if seeded > 0 {
                    self.iterate(stratum_idx, nr_new, nr_delta.max(seeded), &mut stats)?;
                }
                // Clear deltas so later strata see a clean state.
                for &rel in stratum_rels {
                    self.relations[rel].clear_delta()?;
                }
            }
            for &rel in stratum_rels {
                changes[rel] = match mode {
                    StratumMode::Rederived => Change::Rederived,
                    _ if self.relations[rel].len() > self.marks[rel] => Change::Grown,
                    _ => Change::Unchanged,
                };
            }
        }

        // Finalize statistics.
        stats.wall_seconds = wall_start.elapsed().as_secs_f64();
        let counters_after = self.device.metrics().snapshot();
        let run_counters = counters_after.since(&counters_before);
        stats.modeled = self.device.cost_model().estimate(&run_counters);
        stats.pipeline_stall_nanos = run_counters.pipeline_stall_nanos;
        stats.adaptive_merge_batches = run_counters.adaptive_merge_batches;
        stats.topology = match (topology_before, self.backend.topology_report()) {
            (Some(before), Some(after)) => Some(after.since(&before)),
            (_, after) => after,
        };
        stats.peak_device_bytes = self.device.metrics().peak_bytes_in_use();
        stats.allocations = counters_after.allocations - counters_before.allocations;
        stats.pool_reuses = counters_after.pool_reuses - counters_before.pool_reuses;
        for (rel, storage) in self.relations.iter().enumerate() {
            stats
                .relation_sizes
                .insert(self.compiled.relation_names[rel].clone(), storage.len());
            self.marks[rel] = storage.len();
        }
        self.has_run = true;
        self.generation += 1;
        Ok(stats)
    }

    /// Runs the program's `?-` goal through the magic-sets rewrite
    /// ([`magic_rewrite`]) instead of materializing the full fixpoint.
    ///
    /// The rewritten program is lowered through the same planner/executor
    /// seam as any other program (honouring this engine's configuration,
    /// including shard counts, topologies, and pipelining), the goal's
    /// constants are seeded into the magic relation, and only the
    /// goal-matching tuples come back — byte-identical to running the full
    /// fixpoint and filtering it to the goal. The engine itself is not
    /// mutated: the rewritten program evaluates in a private sub-engine
    /// seeded with this engine's extensional database (staged facts, plus
    /// the current contents of input relations after a run); facts loaded
    /// or staged into rule-derived relations join the rewritten program
    /// as body-less rules.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MissingQuery`] when the program carries no
    /// `?-` goal, [`EngineError::Validation`] when the engine was built
    /// from a pre-compiled program (the rewrite needs the AST), and any
    /// parse-span-carrying goal errors from [`magic_rewrite`].
    pub fn run_query(&self) -> EngineResult<QueryResult> {
        let program = self.program_for_query()?;
        let query = program.query.clone().ok_or(EngineError::MissingQuery)?;
        self.run_query_goal(&query)
    }

    /// Runs an ad-hoc point query against `relation`: `Some(c)` binds a
    /// column to the constant `c`, `None` leaves it free. Equivalent to
    /// attaching `?- relation(..)` to the program and calling
    /// [`GpulogEngine::run_query`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownQueryRelation`] /
    /// [`EngineError::QueryArityMismatch`] for goals that do not match the
    /// program's declarations, and [`EngineError::Validation`] when the
    /// engine was built from a pre-compiled program.
    pub fn run_query_with(
        &self,
        relation: &str,
        bindings: &[Option<u32>],
    ) -> EngineResult<QueryResult> {
        let terms = bindings
            .iter()
            .enumerate()
            .map(|(i, binding)| match binding {
                Some(constant) => Term::Const(*constant),
                None => Term::var(format!("_q{i}")),
            })
            .collect();
        self.run_query_goal(&Query::new(Atom::new(relation, terms)))
    }

    /// Shared goal-directed path: rewrite, seed, evaluate, filter.
    fn run_query_goal(&self, query: &Query) -> EngineResult<QueryResult> {
        let mut program = self.program_for_query()?.clone();
        // Declared inputs and relations no rule derives are the extensional
        // database, copied into the sub-engine below. Facts loaded or
        // staged into any other relation travel as body-less rules, so the
        // rewrite adorns them like the rest of their relation.
        let ruled: std::collections::HashSet<String> = program
            .rules
            .iter()
            .map(|r| r.head.relation.clone())
            .collect();
        let mut edb = Vec::new();
        for decl in &program.relations {
            let id = self
                .compiled
                .relation_id(&decl.name)
                .expect("compiled and AST declarations agree");
            if decl.is_input || !ruled.contains(&decl.name) {
                edb.push((decl.name.clone(), id));
                continue;
            }
            let stored;
            let loaded: &[u32] = match &self.derived_facts[id] {
                _ if !self.loaded => &[],
                Some(facts) => facts,
                // No compiled rule derives it: full holds just its facts.
                None => {
                    stored = self.relations[id].tuples_batch();
                    stored.as_flat()
                }
            };
            let mut rows: Vec<&[u32]> = loaded
                .chunks_exact(decl.arity)
                .chain(self.pending_facts[id].chunks_exact(decl.arity))
                .collect();
            rows.sort_unstable();
            rows.dedup();
            for row in rows {
                let terms = row.iter().map(|&v| Term::Const(v)).collect();
                program
                    .rules
                    .push(Rule::new(Atom::new(decl.name.clone(), terms)));
            }
        }
        let magic = magic_rewrite(&program, query)?;
        // The sub-engine must evaluate the rewritten program verbatim: the
        // adorned answer relation is not `.output`, so dead-rule
        // elimination would prune its rules; and re-linting machine-made
        // rules would only echo findings about generated names.
        let mut sub = GpulogEngine::builder(&self.device)
            .program_ast(&magic.program)
            .config(self.config.clone())
            .lint(LintLevel::Allow)
            .optimize(false)
            .build()?;
        for (name, id) in &edb {
            if self.loaded {
                let batch = self.relations[*id].tuples_batch();
                if !batch.is_empty() {
                    sub.insert_facts_batch(name, &batch)?;
                }
            }
            if !self.pending_facts[*id].is_empty() {
                sub.add_facts_flat(name, &self.pending_facts[*id])?;
            }
        }
        if let Some(magic_name) = &magic.magic_relation {
            sub.add_facts(magic_name, [magic.seed.as_slice()])?;
        }

        let stats = sub.run()?;

        let edb_set: std::collections::HashSet<&str> =
            edb.iter().map(|(name, _)| name.as_str()).collect();
        let tuples_materialized = sub
            .compiled
            .relation_names
            .iter()
            .enumerate()
            .filter(|(_, name)| !edb_set.contains(name.as_str()))
            .map(|(id, _)| sub.relations[id].len())
            .sum();

        // The answer relation holds tuples for *every* demanded binding
        // (demand widens through recursion); keep only the rows whose
        // bound positions carry the goal's own constants, in canonical
        // sorted order so the result is backend-independent.
        let full = sub
            .relation_batch(&magic.answer_relation)
            .expect("the rewrite declares its answer relation");
        let arity = full.arity();
        let mut rows: Vec<&[u32]> = full
            .as_flat()
            .chunks(arity)
            .filter(|row| {
                let mut seed = magic.seed.iter();
                magic
                    .adornment
                    .iter()
                    .zip(row.iter())
                    .all(|(bound, value)| !bound || seed.next() == Some(value))
            })
            .collect();
        rows.sort_unstable();
        rows.dedup();
        let mut flat = Vec::with_capacity(rows.len() * arity);
        for row in rows {
            flat.extend_from_slice(row);
        }
        Ok(QueryResult {
            answers: TupleBatch::from_sorted_unique_flat(arity, flat),
            stats,
            tuples_materialized,
        })
    }

    /// The retained AST, or the typed error explaining why goal-directed
    /// evaluation is unavailable on this engine.
    fn program_for_query(&self) -> EngineResult<&Program> {
        self.program
            .as_ref()
            .ok_or_else(|| EngineError::Validation {
                message: "goal-directed evaluation needs the program AST: build the \
                      engine from source or an AST rather than a pre-compiled \
                      program"
                    .into(),
            })
    }

    /// Merges one relation's staged facts into its full version,
    /// deduplicated against it.
    fn merge_staged_facts(&mut self, rel: RelId, batch: &TupleBatch) -> EngineResult<()> {
        let storage = &mut self.relations[rel];
        let delta = difference_batch(&self.device, batch, storage.full().canonical());
        if delta.is_empty() {
            return Ok(());
        }
        storage.set_delta_batch(&delta)?;
        storage.merge_delta_into_full(&self.config.ebm)?;
        storage.clear_delta()
    }

    /// How a re-run evaluates a stratum, given what the strata below it
    /// did (see [`StratumMode`]). Growth read positively only adds
    /// conclusions, so seeding from it is exact; growth read under negation
    /// or through an aggregate, and any re-derived input, can retract
    /// conclusions, which only a re-derivation gets right.
    fn stratum_mode(&self, stratum: usize, changes: &[Change]) -> StratumMode {
        let reads = &self.reads[stratum];
        let any = |rels: &[RelId], change: Change| rels.iter().any(|&rel| changes[rel] == change);
        if any(&reads.positive, Change::Rederived)
            || any(&reads.nonmonotone, Change::Rederived)
            || any(&reads.nonmonotone, Change::Grown)
        {
            StratumMode::Rederived
        } else if any(&reads.positive, Change::Grown)
            || self.compiled.strata[stratum]
                .relations
                .iter()
                .any(|&rel| self.relations[rel].len() > self.marks[rel])
        {
            StratumMode::Seeded
        } else {
            StratumMode::Skipped
        }
    }

    /// Evaluates a seeded stratum's consequences of its grown inputs: each
    /// grown lower relation's rows past its mark become its delta, the
    /// seed versions reading one of them run once, the deltas are cleared
    /// again, and the stratum's relations are populated. Returns `(raw new
    /// tuples, delta tuples)` like [`GpulogEngine::populate_and_merge`].
    fn seed(
        &mut self,
        stratum: usize,
        changes: &[Change],
        stats: &mut RunStats,
    ) -> EngineResult<(usize, usize)> {
        let grown: Vec<RelId> = self.reads[stratum]
            .positive
            .iter()
            .copied()
            .filter(|&rel| changes[rel] == Change::Grown)
            .collect();
        if grown.is_empty() {
            return Ok((0, 0));
        }
        let seeds = self.seed_pipelines(stratum)?;
        let t = Instant::now();
        for &rel in &grown {
            let batch = self.relations[rel].rows_since(self.marks[rel]);
            self.relations[rel].set_delta_batch(&batch)?;
        }
        stats.add_phase(Phase::IndexDelta, t.elapsed());
        for (delta, pipeline) in &seeds {
            if grown.contains(delta) {
                self.dispatch(pipeline, stats)?;
            }
        }
        for &rel in &grown {
            self.relations[rel].clear_delta()?;
        }
        let stratum_rels = self.compiled.strata[stratum].relations.clone();
        self.populate_and_merge(&stratum_rels, stats)
    }

    /// A stratum's lowered seed versions, planned at the first call.
    fn seed_pipelines(&mut self, stratum: usize) -> EngineResult<Vec<(RelId, RaPipeline)>> {
        if self.seeds[stratum].is_none() {
            let probed = full_probe_keys(&self.pipelines);
            let seeds = plan_seed_versions(&self.compiled, stratum, &probed)?
                .into_iter()
                .map(|seed| (seed.delta, lower_rule_plan(&seed.plan, self.config.nway)))
                .collect();
            self.seeds[stratum] = Some(seeds);
        }
        Ok(self.seeds[stratum].clone().unwrap_or_default())
    }

    /// The semi-naive loop of a recursive stratum whose deltas are
    /// installed: records the first evaluation as iteration 1 (the paper
    /// counts it that way, see Figure 1), then runs the delta versions
    /// until every delta is empty, and settles every relation.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::IterationLimit`] past the configured bound,
    /// with storage settled.
    fn iterate(
        &mut self,
        stratum: usize,
        first_new: usize,
        first_delta: usize,
        stats: &mut RunStats,
    ) -> EngineResult<()> {
        stats.iteration_records.push(IterationRecord {
            stratum,
            iteration: 1,
            new_tuples: first_new,
            delta_tuples: first_delta,
        });
        stats.iterations += 1;
        let pipelines = self.pipelines[stratum].recursive.clone();
        let stratum_rels = self.compiled.strata[stratum].relations.clone();
        let mut iteration = 1usize;
        loop {
            iteration += 1;
            if iteration > self.config.max_iterations {
                // Leave storage readable: no merge stays deferred.
                self.settle_all(stats)?;
                return Err(EngineError::IterationLimit {
                    limit: self.config.max_iterations,
                });
            }
            for pipeline in &pipelines {
                self.dispatch(pipeline, stats)?;
            }
            let (new_count, delta_count) = self.populate_and_merge(&stratum_rels, stats)?;
            stats.iteration_records.push(IterationRecord {
                stratum,
                iteration,
                new_tuples: new_count,
                delta_tuples: delta_count,
            });
            stats.iterations += 1;
            if delta_count == 0 {
                break;
            }
        }
        // The fixpoint is reached; drain every merge still deferred or in
        // flight before storage is read again.
        self.settle_all(stats)
    }

    /// Settles every relation ([`EvalContext::settle_all`]) so the engine
    /// can read relation storage directly.
    fn settle_all(&mut self, stats: &mut RunStats) -> EngineResult<()> {
        let mut ctx = EvalContext {
            device: &self.device,
            relations: &mut self.relations,
            stats,
            ebm: self.config.ebm,
        };
        ctx.settle_all()
    }

    /// Executes one lowered pipeline through the executor.
    fn dispatch(
        &mut self,
        pipeline: &RaPipeline,
        stats: &mut RunStats,
    ) -> EngineResult<PipelineOutcome> {
        let mut ctx = EvalContext {
            device: &self.device,
            relations: &mut self.relations,
            stats,
            ebm: self.config.ebm,
        };
        self.backend.execute(&mut ctx, pipeline)
    }

    /// Populates each relation's next delta ([`ShardedBackend::populate`]):
    /// deduplicate its `new` buffer against full, install the result as the
    /// next delta, and merge it into full. Returns `(total raw new tuples,
    /// total delta tuples)`.
    fn populate_and_merge(
        &mut self,
        relations: &[usize],
        stats: &mut RunStats,
    ) -> EngineResult<(usize, usize)> {
        let mut total_new = 0usize;
        let mut total_delta = 0usize;
        for &rel in relations {
            let mut ctx = EvalContext {
                device: &self.device,
                relations: &mut self.relations,
                stats,
                ebm: self.config.ebm,
            };
            let outcome = self.backend.populate(&mut ctx, rel)?;
            total_new += outcome.new_rows;
            total_delta += outcome.delta_rows;
        }
        Ok((total_new, total_delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_device::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    const REACH: &str = r"
        .decl Edge(x: number, y: number)
        .input Edge
        .decl Reach(x: number, y: number)
        .output Reach
        Reach(x, y) :- Edge(x, y).
        Reach(x, y) :- Edge(x, z), Reach(z, y).
    ";

    const SG: &str = r"
        .decl Edge(x: number, y: number)
        .input Edge
        .decl SG(x: number, y: number)
        .output SG
        SG(x, y) :- Edge(p, x), Edge(p, y), x != y.
        SG(x, y) :- Edge(a, x), SG(a, b), Edge(b, y), x != y.
    ";

    /// The 9-node example graph from the paper's Figure 1.
    fn figure1_edges() -> Vec<[u32; 2]> {
        vec![
            [0, 1],
            [0, 2],
            [1, 3],
            [1, 4],
            [2, 4],
            [2, 5],
            [3, 6],
            [4, 7],
            [4, 8],
            [5, 8],
        ]
    }

    #[test]
    fn reach_on_a_chain_computes_transitive_closure() {
        let d = device();
        let mut e = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        e.add_facts("Edge", [[0u32, 1], [1, 2], [2, 3], [3, 4]])
            .unwrap();
        let stats = e.run().unwrap();
        // Chain of 5 nodes: 4 + 3 + 2 + 1 = 10 reachable pairs.
        assert_eq!(e.relation_size("Reach"), Some(10));
        assert!(e.contains("Reach", &[0, 4]));
        assert!(!e.contains("Reach", &[4, 0]));
        assert!(stats.iterations >= 3);
        assert!(stats.relation_sizes["Reach"] == 10);
    }

    #[test]
    fn reach_handles_cycles_without_diverging() {
        let d = device();
        let mut e = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        e.add_facts("Edge", [[0u32, 1], [1, 2], [2, 0]]).unwrap();
        e.run().unwrap();
        // Every node reaches every node (including itself through the cycle).
        assert_eq!(e.relation_size("Reach"), Some(9));
    }

    #[test]
    fn sg_on_figure1_graph_matches_the_paper() {
        let d = device();
        let mut e = GpulogEngine::builder(&d).program(SG).build().unwrap();
        e.add_facts("Edge", figure1_edges()).unwrap();
        let stats = e.run().unwrap();
        // Figure 1's final SG (full) relation has 14 tuples.
        assert_eq!(e.relation_size("SG"), Some(14));
        for pair in [
            [1u32, 2],
            [2, 1],
            [3, 4],
            [3, 5],
            [4, 3],
            [4, 5],
            [5, 3],
            [5, 4],
            [6, 7],
            [6, 8],
            [7, 6],
            [7, 8],
            [8, 6],
            [8, 7],
        ] {
            assert!(
                e.contains("SG", &pair),
                "missing SG({}, {})",
                pair[0],
                pair[1]
            );
        }
        // Figure 1 shows the query converging after iteration 3 (the third
        // iteration produces an empty delta).
        assert_eq!(stats.iterations, 3);
    }

    #[test]
    fn fused_and_materialized_strategies_agree() {
        let d = device();
        let mut mat = GpulogEngine::builder(&d).program(SG).build().unwrap();
        mat.add_facts("Edge", figure1_edges()).unwrap();
        mat.run().unwrap();
        let cfg = EngineConfig {
            nway: NwayStrategy::FusedNestedLoop,
            ..EngineConfig::default()
        };
        let mut fused = GpulogEngine::builder(&d)
            .program(SG)
            .config(cfg)
            .build()
            .unwrap();
        fused.add_facts("Edge", figure1_edges()).unwrap();
        fused.run().unwrap();
        let mut a = mat.relation_batch("SG").unwrap().to_rows();
        let mut b = fused.relation_batch("SG").unwrap().to_rows();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn ebm_on_and_off_produce_identical_results() {
        let d = device();
        let mut on = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        on.add_facts("Edge", figure1_edges()).unwrap();
        on.run().unwrap();
        let cfg = EngineConfig {
            ebm: EbmConfig::disabled(),
            ..EngineConfig::default()
        };
        let mut off = GpulogEngine::builder(&d)
            .program(REACH)
            .config(cfg)
            .build()
            .unwrap();
        off.add_facts("Edge", figure1_edges()).unwrap();
        off.run().unwrap();
        assert_eq!(on.relation_size("Reach"), off.relation_size("Reach"));
    }

    #[test]
    fn ground_facts_and_constants_evaluate() {
        let d = device();
        let src = r"
            .decl E(x: number, y: number)
            .decl R(x: number)
            .output R
            E(1, 2).
            E(2, 3).
            E(3, 3).
            R(x) :- E(x, 3).
        ";
        let mut e = GpulogEngine::builder(&d).program(src).build().unwrap();
        e.run().unwrap();
        let mut tuples = e.relation_batch("R").unwrap().to_rows();
        tuples.sort();
        assert_eq!(tuples, vec![vec![2], vec![3]]);
    }

    #[test]
    fn all_constant_body_atoms_still_derive_head_tuples() {
        // A scan that binds no variables must not lose the matched rows
        // (regression: the zero-column intermediate used to come out empty).
        let src = r"
            .decl E(x: number, y: number)
            .decl F(x: number)
            .decl R(x: number)
            .output R
            E(2, 3).
            F(4).
            R(1) :- E(2, 3).
            R(9) :- E(2, 3), F(4).
            R(5) :- E(7, 7).
        ";
        for nway in [
            NwayStrategy::TemporarilyMaterialized,
            NwayStrategy::FusedNestedLoop,
        ] {
            let d = device();
            let cfg = EngineConfig {
                nway,
                ..EngineConfig::default()
            };
            let mut e = GpulogEngine::builder(&d)
                .program(src)
                .config(cfg)
                .build()
                .unwrap();
            e.run().unwrap();
            let mut tuples = e.relation_batch("R").unwrap().to_rows();
            tuples.sort();
            assert_eq!(tuples, vec![vec![1], vec![9]], "strategy {nway:?}");
        }
    }

    #[test]
    fn bad_facts_are_rejected_with_helpful_errors() {
        let d = device();
        let mut e = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        assert!(matches!(
            e.add_facts("Nope", [[1u32, 2]]),
            Err(EngineError::BadFacts { .. })
        ));
        assert!(e.add_facts("Edge", [[1u32, 2, 3]]).is_err());
        // A bad tuple after good ones stages none of the call's tuples.
        let mixed: [&[u32]; 2] = [&[7, 8], &[9]];
        assert!(e.add_facts("Edge", mixed).is_err());
        assert!(e.add_facts_flat("Edge", &[1, 2, 3]).is_err());
        e.add_facts_flat("Edge", &[1, 2]).unwrap();
        e.run().unwrap();
        assert_eq!(e.relation_size("Edge"), Some(1));
        assert!(e.add_facts("Edge", [[5u32, 6]]).is_err());
    }

    #[test]
    fn ragged_flat_facts_get_the_dedicated_error() {
        let d = device();
        let mut e = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        match e.add_facts_flat("Edge", &[1, 2, 3]) {
            Err(EngineError::RaggedFacts {
                relation,
                len,
                arity,
            }) => {
                assert_eq!(relation, "Edge");
                assert_eq!(len, 3);
                assert_eq!(arity, 2);
            }
            other => panic!("expected RaggedFacts, got {other:?}"),
        }
        // Unknown relations still get BadFacts, even with a ragged buffer.
        assert!(matches!(
            e.add_facts_flat("Nope", &[1, 2, 3]),
            Err(EngineError::BadFacts { .. })
        ));
        // A rejected buffer must leave no partial tail in the EDB.
        e.run().unwrap();
        assert_eq!(e.relation_size("Edge"), Some(0));
    }

    #[test]
    fn builder_constructs_and_runs_like_from_source() {
        let d = device();
        let mut e = GpulogEngine::builder(&d)
            .program(REACH)
            .nway(NwayStrategy::TemporarilyMaterialized)
            .max_iterations(100)
            .build()
            .unwrap();
        assert_eq!(e.backend().name(), "sharded");
        assert_eq!(e.config().shard_count, 1);
        assert_eq!(e.config().max_iterations, 100);
        e.add_facts("Edge", [[0u32, 1], [1, 2]]).unwrap();
        e.run().unwrap();
        assert_eq!(e.relation_size("Reach"), Some(3));
    }

    #[test]
    fn builder_without_a_program_is_a_validation_error() {
        let d = device();
        assert!(matches!(
            GpulogEngine::builder(&d).build(),
            Err(EngineError::Validation { .. })
        ));
    }

    #[test]
    fn builder_accepts_ast_compiled_and_custom_backend() {
        let d = device();
        let program = crate::parser::parse_program(REACH).unwrap();
        let mut from_ast = GpulogEngine::builder(&d)
            .program_ast(&program)
            .build()
            .unwrap();
        from_ast.add_facts("Edge", [[0u32, 1]]).unwrap();
        from_ast.run().unwrap();
        assert_eq!(from_ast.relation_size("Reach"), Some(1));

        let compiled = compile(&program).unwrap();
        let mut from_compiled = GpulogEngine::builder(&d)
            .compiled(compiled)
            .config(EngineConfig {
                max_iterations: 77,
                ..EngineConfig::default()
            })
            .pipelined(1)
            .build()
            .unwrap();
        assert_eq!(from_compiled.config().max_iterations, 77);
        assert_eq!(from_compiled.backend().name(), "pipelined");
        from_compiled
            .add_facts("Edge", [[0u32, 1], [1, 2]])
            .unwrap();
        from_compiled.run().unwrap();
        assert_eq!(from_compiled.relation_size("Reach"), Some(3));
    }

    #[test]
    fn relation_accessors_expose_batches_and_borrowed_rows() {
        let d = device();
        let mut e = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        e.insert_facts_batch("Edge", &TupleBatch::from_rows(2, [[0u32, 1], [1, 2]]))
            .unwrap();
        e.run().unwrap();
        let batch = e.relation_batch("Reach").unwrap();
        assert_eq!(batch.len(), 3);
        let rows: Vec<&[u32]> = e.relation_tuples_iter("Reach").unwrap().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(e.relation_batch("Reach").unwrap().to_rows().len(), 3);
        assert!(e.relation_batch("Nope").is_none());
        assert!(e.relation_tuples_iter("Nope").is_none());
    }

    #[test]
    fn shard_count_above_one_installs_the_sharded_backend() {
        let d = device();
        let e = GpulogEngine::builder(&d)
            .program(REACH)
            .shard_count(4)
            .build()
            .unwrap();
        assert_eq!(e.backend().name(), "sharded");
        assert_eq!(e.config().shard_count, 4);
        assert_eq!(e.backend().shards(), 4);
        // Overlap at one shard changes the merge policy, not the count.
        let e = GpulogEngine::builder(&d)
            .program(REACH)
            .pipelined(1)
            .build()
            .unwrap();
        assert_eq!((e.backend().name(), e.backend().shards()), ("pipelined", 1));
    }

    #[test]
    fn zero_shard_count_is_rejected_at_construction() {
        let d = device();
        assert!(matches!(
            GpulogEngine::builder(&d)
                .program(REACH)
                .shard_count(0)
                .build(),
            Err(EngineError::InvalidShardCount { shards: 0 })
        ));
        let cfg = EngineConfig {
            shard_count: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            GpulogEngine::builder(&d).program(REACH).config(cfg).build(),
            Err(EngineError::InvalidShardCount { shards: 0 })
        ));
    }

    #[test]
    fn pipelined_config_installs_the_pipelined_backend() {
        let d = device();
        let e = GpulogEngine::builder(&d)
            .program(REACH)
            .pipelined(4)
            .build()
            .unwrap();
        assert_eq!(e.backend().name(), "pipelined");
        assert_eq!(e.config().pipelined, 4);
        // Zero pipelined shards keep the bulk-synchronous default.
        let e = GpulogEngine::builder(&d)
            .program(REACH)
            .pipelined(0)
            .build()
            .unwrap();
        assert_eq!(e.backend().name(), "sharded");
        // A matching explicit shard count is accepted; a conflicting one
        // and a topology combination are rejected.
        let ok = GpulogEngine::builder(&d)
            .program(REACH)
            .shard_count(4)
            .pipelined(4)
            .build();
        assert!(ok.is_ok());
        let conflict = GpulogEngine::builder(&d)
            .program(REACH)
            .shard_count(2)
            .pipelined(4)
            .build();
        assert!(matches!(conflict, Err(EngineError::Validation { .. })));
        use gpulog_device::topology::DeviceTopology;
        use std::num::NonZeroUsize;
        let with_topology = GpulogEngine::builder(&d)
            .program(REACH)
            .pipelined(2)
            .device_topology(DeviceTopology::nvlink_like(NonZeroUsize::new(2).unwrap()))
            .build();
        assert!(matches!(with_topology, Err(EngineError::Validation { .. })));
    }

    /// Deferred merging at one shard differs from the default engine only
    /// in when deltas merge, so on a chain — one small delta per iteration
    /// against a growing full — its coalesced drains must stream fewer
    /// device bytes than one O(|full|) merge per delta, for the same
    /// fixpoint byte for byte.
    #[test]
    fn pipelined_fixpoints_match_serial_with_coalesced_merges() {
        let run = |pipelined: usize| {
            let d = device();
            let config = EngineConfig {
                pipelined,
                ..EngineConfig::default()
            };
            let mut e = GpulogEngine::builder(&d)
                .program(REACH)
                .config(config)
                .build()
                .unwrap();
            e.add_facts("Edge", (0..40u32).map(|i| [i, i + 1])).unwrap();
            let stats = e.run().unwrap();
            let flat = e.relation_batch("Reach").unwrap().into_flat();
            (flat, stats, d.metrics().snapshot().bytes_moved())
        };
        let (serial, serial_stats, serial_bytes) = run(0);
        let (pipelined, stats, pipelined_bytes) = run(1);
        assert_eq!(pipelined, serial, "fixpoints must match byte for byte");
        assert_eq!(stats.iterations, serial_stats.iterations);
        assert!(stats.adaptive_merge_batches > 0, "drains must coalesce");
        assert!(stats.pipeline_stall_nanos > 0, "drains run in place");
        assert_eq!(serial_stats.pipeline_stall_nanos, 0);
        assert!(
            pipelined_bytes < serial_bytes,
            "{pipelined_bytes} >= {serial_bytes} bytes: deferral saved no merge pass"
        );
    }

    #[test]
    fn device_topology_installs_the_multigpu_backend() {
        use gpulog_device::topology::DeviceTopology;
        use std::num::NonZeroUsize;
        let d = device();
        let topology = DeviceTopology::nvlink_like(NonZeroUsize::new(2).unwrap());
        let e = GpulogEngine::builder(&d)
            .program(REACH)
            .device_topology(topology.clone())
            .build()
            .unwrap();
        assert_eq!(e.backend().name(), "multigpu");
        // A matching explicit shard count is accepted; a conflicting one
        // is rejected (each shard pins to exactly one device).
        let ok = GpulogEngine::builder(&d)
            .program(REACH)
            .shard_count(2)
            .device_topology(topology.clone())
            .build();
        assert!(ok.is_ok());
        let conflict = GpulogEngine::builder(&d)
            .program(REACH)
            .shard_count(3)
            .device_topology(topology)
            .build();
        assert!(matches!(conflict, Err(EngineError::Validation { .. })));
    }

    #[test]
    fn multigpu_run_reports_topology_stats() {
        use gpulog_device::topology::DeviceTopology;
        use std::num::NonZeroUsize;
        let d = device();
        let cfg = EngineConfig {
            device_topology: Some(DeviceTopology::nvlink_like(NonZeroUsize::new(4).unwrap())),
            ..EngineConfig::default()
        };
        let mut e = GpulogEngine::builder(&d)
            .program(REACH)
            .config(cfg)
            .build()
            .unwrap();
        e.add_facts("Edge", figure1_edges()).unwrap();
        let stats = e.run().unwrap();
        let report = stats.topology.expect("multigpu runs report a topology");
        assert_eq!(report.devices.len(), 4);
        assert_eq!(report.link, "NVLink-like");
        assert!(report.modeled_critical_path_sec > 0.0);
        assert!(
            report.total_exchange_bytes > 0,
            "the delta exchange moves bytes"
        );
        // Serial runs report none.
        let mut serial = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        serial.add_facts("Edge", figure1_edges()).unwrap();
        assert!(serial.run().unwrap().topology.is_none());
    }

    #[test]
    fn degenerate_load_factor_is_a_typed_engine_error() {
        // The engine builds every relation's storage at the paper's 0.8;
        // storage built at a degenerate factor fails with a typed error.
        let d = device();
        for bad in [0.0, -1.0, f64::NAN, 2.0] {
            match RelationStorage::new(&d, "Edge", 2, bad) {
                Err(EngineError::Device(gpulog_device::DeviceError::InvalidLoadFactor {
                    ..
                })) => {}
                other => panic!("load factor {bad}: expected InvalidLoadFactor, got {other:?}"),
            }
        }
    }

    #[test]
    fn multigpu_fixpoints_are_byte_identical_to_serial() {
        use gpulog_device::topology::DeviceTopology;
        use std::num::NonZeroUsize;
        for (name, src) in [("reach", REACH), ("sg", SG)] {
            let d = device();
            let mut serial = GpulogEngine::builder(&d).program(src).build().unwrap();
            serial.add_facts("Edge", figure1_edges()).unwrap();
            let serial_stats = serial.run().unwrap();
            for devices in [1usize, 2, 7] {
                let topology = DeviceTopology::nvlink_like(NonZeroUsize::new(devices).unwrap());
                let cfg = EngineConfig {
                    device_topology: Some(topology),
                    ..EngineConfig::default()
                };
                let mut multi = GpulogEngine::builder(&d)
                    .program(src)
                    .config(cfg)
                    .build()
                    .unwrap();
                multi.add_facts("Edge", figure1_edges()).unwrap();
                let stats = multi.run().unwrap();
                let out = if src.contains("SG(") { "SG" } else { "Reach" };
                assert_eq!(
                    multi.relation_batch(out).unwrap().as_flat(),
                    serial.relation_batch(out).unwrap().as_flat(),
                    "{name} on {devices} devices must match serial byte-for-byte"
                );
                assert_eq!(
                    stats.iterations, serial_stats.iterations,
                    "{name}/{devices}"
                );
            }
        }
    }

    #[test]
    fn sharded_fixpoints_are_byte_identical_to_serial() {
        for (name, src) in [("reach", REACH), ("sg", SG)] {
            let d = device();
            let mut serial = GpulogEngine::builder(&d).program(src).build().unwrap();
            serial.add_facts("Edge", figure1_edges()).unwrap();
            let serial_stats = serial.run().unwrap();
            for shards in [2usize, 4, 7] {
                let cfg = EngineConfig {
                    shard_count: shards,
                    ..EngineConfig::default()
                };
                let mut sharded = GpulogEngine::builder(&d)
                    .program(src)
                    .config(cfg)
                    .build()
                    .unwrap();
                sharded.add_facts("Edge", figure1_edges()).unwrap();
                let stats = sharded.run().unwrap();
                let out = if src.contains("SG(") { "SG" } else { "Reach" };
                assert_eq!(
                    sharded.relation_batch(out).unwrap().as_flat(),
                    serial.relation_batch(out).unwrap().as_flat(),
                    "{name} with {shards} shards must match serial byte-for-byte"
                );
                assert_eq!(stats.iterations, serial_stats.iterations, "{name}/{shards}");
            }
        }
    }

    #[test]
    fn empty_input_produces_empty_output_and_converges_immediately() {
        let d = device();
        let mut e = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        let stats = e.run().unwrap();
        assert_eq!(e.relation_size("Reach"), Some(0));
        assert!(stats.iterations <= 1);
    }

    #[test]
    fn oom_on_a_tiny_device_is_reported_not_panicked() {
        let d = Device::with_workers(DeviceProfile::tiny_test_device(48 * 1024), 2);
        let mut e = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        // A complete graph on 40 nodes explodes well past 48 KiB of VRAM.
        let mut edges = Vec::new();
        for a in 0..40u32 {
            for b in 0..40u32 {
                if a != b {
                    edges.push([a, b]);
                }
            }
        }
        e.add_facts("Edge", edges).unwrap();
        match e.run() {
            Err(EngineError::Device(err)) => {
                assert!(matches!(
                    err,
                    gpulog_device::DeviceError::OutOfMemory { .. }
                ));
            }
            other => panic!("expected an out-of-memory error, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_before_any_run_is_a_typed_error() {
        let d = device();
        let e = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        assert!(!e.has_run());
        assert_eq!(e.generation(), 0);
        assert!(matches!(e.snapshot(), Err(EngineError::NoFixpoint)));
    }

    #[test]
    fn insert_facts_and_rerun_grow_the_fixpoint_while_old_snapshots_hold() {
        let d = device();
        let mut e = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        e.add_facts("Edge", [[0u32, 1], [1, 2]]).unwrap();
        e.run().unwrap();
        let first = e.snapshot().unwrap();
        assert_eq!(first.generation(), 1);
        assert_eq!(first.relation_size("Reach"), Some(3));

        // The strict pre-run path still rejects post-run additions, but the
        // serving writer's insert path accepts them.
        assert!(e.add_facts("Edge", [[2u32, 3]]).is_err());
        e.insert_facts_batch("Edge", &TupleBatch::from_rows(2, [[2u32, 3]]))
            .unwrap();
        e.run().unwrap();
        let second = e.snapshot().unwrap();
        assert_eq!(second.generation(), 2);
        assert_eq!(second.relation_size("Reach"), Some(6));
        // The first snapshot still holds its own complete fixpoint.
        assert_eq!(first.relation_size("Reach"), Some(3));
        assert!(!first.contains("Reach", &[0, 3]));

        // The incremental re-run is byte-identical to computing the
        // enlarged fixpoint from scratch.
        let mut scratch = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        scratch
            .add_facts("Edge", [[0u32, 1], [1, 2], [2, 3]])
            .unwrap();
        scratch.run().unwrap();
        assert_eq!(
            second.sorted_tuples_flat("Reach"),
            scratch.snapshot().unwrap().sorted_tuples_flat("Reach")
        );
        // Duplicate inserts are deduplicated, not double-counted.
        e.insert_facts_batch("Edge", &TupleBatch::from_rows(2, [[2u32, 3]]))
            .unwrap();
        e.run().unwrap();
        assert_eq!(e.relation_size("Edge"), Some(3));
        assert_eq!(e.relation_size("Reach"), Some(6));
        // Unknown relations and arity mismatches stay typed errors.
        assert!(matches!(
            e.insert_facts_batch("Nope", &TupleBatch::from_rows(2, [[1u32, 2]])),
            Err(EngineError::BadFacts { .. })
        ));
        assert!(e
            .insert_facts_batch("Edge", &TupleBatch::from_rows(3, [[1u32, 2, 3]]))
            .is_err());
    }

    #[test]
    fn adaptive_merge_batching_engages_on_chain_reach() {
        let d = device();
        let chain: Vec<[u32; 2]> = (0..30u32).map(|i| [i, i + 1]).collect();
        let mut serial = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        serial.add_facts("Edge", chain.clone()).unwrap();
        let serial_stats = serial.run().unwrap();
        assert_eq!(serial_stats.adaptive_merge_batches, 0);

        let cfg = EngineConfig {
            pipelined: 2,
            ..EngineConfig::default()
        };
        let mut pipelined = GpulogEngine::builder(&d)
            .program(REACH)
            .config(cfg)
            .build()
            .unwrap();
        pipelined.add_facts("Edge", chain).unwrap();
        let stats = pipelined.run().unwrap();
        // Late chain iterations derive a handful of pairs against a large
        // full — exactly the regime the adaptive policy batches harder in.
        assert!(
            stats.adaptive_merge_batches > 0,
            "adaptive batching must engage on chain-REACH, stats: {stats:?}"
        );
        assert_eq!(
            pipelined.relation_batch("Reach").unwrap().as_flat(),
            serial.relation_batch("Reach").unwrap().as_flat(),
            "adaptive batching must not change the fixpoint"
        );
    }

    #[test]
    fn run_stats_capture_phases_and_memory() {
        let d = device();
        let mut e = GpulogEngine::builder(&d).program(SG).build().unwrap();
        e.add_facts("Edge", figure1_edges()).unwrap();
        let stats = e.run().unwrap();
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.modeled_seconds() > 0.0);
        assert!(stats.peak_device_bytes > 0);
        assert!(stats.phase(Phase::Join) > 0.0);
        assert!(stats.phase(Phase::Merge) > 0.0);
        assert!(stats.phase(Phase::Deduplication) > 0.0);
    }

    /// Left-recursive REACH: under a bound-free goal the only magic rule
    /// is the identity, so the magic set stays exactly the goal source.
    const REACH_LEFT: &str = r"
        .decl Edge(x: number, y: number)
        .input Edge
        .decl Reach(x: number, y: number)
        .output Reach
        Reach(x, y) :- Edge(x, y).
        Reach(x, z) :- Reach(x, y), Edge(y, z).
    ";

    /// The full closure's Reach rows from `source`, canonically sorted.
    fn filtered_closure(engine: &GpulogEngine, source: u32) -> Vec<u32> {
        let batch = engine.relation_batch("Reach").unwrap();
        let mut rows: Vec<&[u32]> = batch
            .as_flat()
            .chunks(2)
            .filter(|row| row[0] == source)
            .collect();
        rows.sort_unstable();
        rows.iter().flat_map(|r| r.iter().copied()).collect()
    }

    #[test]
    fn run_query_matches_the_filtered_full_closure() {
        for src in [REACH, REACH_LEFT] {
            let d = device();
            let mut full = GpulogEngine::builder(&d).program(src).build().unwrap();
            full.add_facts("Edge", figure1_edges()).unwrap();
            full.run().unwrap();
            // run_query works on a never-run engine: the staged facts are
            // the extensional database it copies.
            let mut fresh = GpulogEngine::builder(&d).program(src).build().unwrap();
            fresh.add_facts("Edge", figure1_edges()).unwrap();
            for source in [0u32, 2, 4, 8] {
                let expected = filtered_closure(&full, source);
                let got = fresh
                    .run_query_with("Reach", &[Some(source), None])
                    .unwrap();
                assert_eq!(got.answers.as_flat(), &expected[..], "source {source}");
                assert!(got.answers.is_sorted_unique());
            }
        }
    }

    #[test]
    fn run_query_after_a_run_reuses_the_materialized_edb() {
        let d = device();
        let mut e = GpulogEngine::builder(&d)
            .program(REACH_LEFT)
            .build()
            .unwrap();
        e.add_facts("Edge", figure1_edges()).unwrap();
        e.run().unwrap();
        let expected = filtered_closure(&e, 1);
        let got = e.run_query_with("Reach", &[Some(1), None]).unwrap();
        assert_eq!(got.answers.as_flat(), &expected[..]);
        // The goal-directed run left the engine itself untouched.
        assert_eq!(e.generation(), 1);
    }

    #[test]
    fn run_query_materializes_fewer_tuples_than_the_closure() {
        let d = device();
        let chain: Vec<[u32; 2]> = (0..40u32).map(|i| [i, i + 1]).collect();
        let mut full = GpulogEngine::builder(&d)
            .program(REACH_LEFT)
            .build()
            .unwrap();
        full.add_facts("Edge", chain.clone()).unwrap();
        full.run().unwrap();
        let closure = full.relation_size("Reach").unwrap();
        let mut e = GpulogEngine::builder(&d)
            .program(REACH_LEFT)
            .build()
            .unwrap();
        e.add_facts("Edge", chain).unwrap();
        // Reach from the tail: one answer, a one-tuple magic set, and a
        // 41-tuple closure row block versus the full 820-pair closure.
        let got = e.run_query_with("Reach", &[Some(39), None]).unwrap();
        assert_eq!(got.answers.len(), 1);
        assert!(
            got.tuples_materialized < closure,
            "magic materialized {} tuples, the closure holds {closure}",
            got.tuples_materialized
        );
        assert!(got.stats.iterations >= 1);
    }

    #[test]
    fn run_query_uses_the_embedded_goal() {
        let d = device();
        let with_goal = format!("{REACH_LEFT}\n?- Reach(0, y).");
        let mut e = GpulogEngine::builder(&d)
            .program(&with_goal)
            .build()
            .unwrap();
        e.add_facts("Edge", figure1_edges()).unwrap();
        let from_goal = e.run_query().unwrap();
        let ad_hoc = e.run_query_with("Reach", &[Some(0), None]).unwrap();
        assert_eq!(from_goal.answers.as_flat(), ad_hoc.answers.as_flat());
        // The plain run ignores the goal and still materializes everything.
        e.run().unwrap();
        assert_eq!(e.relation_size("Reach"), Some(21));
    }

    #[test]
    fn run_query_error_paths_are_typed() {
        let d = device();
        let mut e = GpulogEngine::builder(&d)
            .program(REACH_LEFT)
            .build()
            .unwrap();
        e.add_facts("Edge", [[0u32, 1]]).unwrap();
        assert!(matches!(e.run_query(), Err(EngineError::MissingQuery)));
        assert!(matches!(
            e.run_query_with("Ghost", &[Some(1)]),
            Err(EngineError::UnknownQueryRelation { .. })
        ));
        assert!(matches!(
            e.run_query_with("Reach", &[Some(1)]),
            Err(EngineError::QueryArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
        // Pre-compiled engines have no AST to rewrite.
        let program = crate::parser::parse_program(REACH_LEFT).unwrap();
        let compiled = compile(&program).unwrap();
        let precompiled = GpulogEngine::builder(&d)
            .compiled(compiled)
            .build()
            .unwrap();
        assert!(matches!(
            precompiled.run_query_with("Reach", &[Some(1), None]),
            Err(EngineError::Validation { .. })
        ));
    }

    #[test]
    fn run_query_honours_the_configured_backend() {
        use gpulog_device::topology::DeviceTopology;
        use std::num::NonZeroUsize;
        let d = device();
        let configs = [
            EngineConfig::default(),
            EngineConfig {
                shard_count: 4,
                ..EngineConfig::default()
            },
            EngineConfig {
                pipelined: 4,
                ..EngineConfig::default()
            },
            EngineConfig {
                device_topology: Some(DeviceTopology::nvlink_like(NonZeroUsize::new(2).unwrap())),
                ..EngineConfig::default()
            },
        ];
        let mut baseline: Option<Vec<u32>> = None;
        for cfg in configs {
            let mut e = GpulogEngine::builder(&d)
                .program(REACH_LEFT)
                .config(cfg)
                .build()
                .unwrap();
            e.add_facts("Edge", figure1_edges()).unwrap();
            let got = e.run_query_with("Reach", &[Some(0), None]).unwrap();
            let flat = got.answers.as_flat().to_vec();
            match &baseline {
                None => baseline = Some(flat),
                Some(expected) => assert_eq!(&flat, expected, "backends must agree"),
            }
        }
    }
}
