//! A small convenience facade over the engine for the common
//! "parse, load facts, run, read results" workflow used by the examples.

use crate::ast::Program;
use crate::engine::{EngineConfig, GpulogEngine, QueryResult};
use crate::error::EngineResult;
use crate::stats::RunStats;
use gpulog_device::Device;

/// A loaded Datalog program bound to a device, ready to accept facts and run.
///
/// [`Gpulog`] is a thin wrapper over [`GpulogEngine`] that applies the
/// default configuration; drop down to the engine when you need to control
/// eager buffer management, the join strategy, or the hash-table load
/// factor.
///
/// # Examples
///
/// ```
/// use gpulog::Gpulog;
/// use gpulog_device::{Device, profile::DeviceProfile};
///
/// # fn main() -> Result<(), gpulog::EngineError> {
/// let device = Device::new(DeviceProfile::default());
/// let mut datalog = Gpulog::from_source(
///     &device,
///     r"
///     .decl Edge(x: number, y: number)
///     .input Edge
///     .decl Reach(x: number, y: number)
///     .output Reach
///     Reach(x, y) :- Edge(x, y).
///     Reach(x, y) :- Edge(x, z), Reach(z, y).
/// ",
/// )?;
/// datalog.add_facts("Edge", [[0, 1], [1, 2]])?;
/// datalog.run()?;
/// assert!(datalog.contains("Reach", &[0, 2]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Gpulog {
    engine: GpulogEngine,
}

impl Gpulog {
    /// Parses Soufflé-style source and binds it to `device` with the default
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns parse, validation, or device errors.
    pub fn from_source(device: &Device, source: &str) -> EngineResult<Self> {
        Ok(Gpulog {
            engine: GpulogEngine::from_source(device, source, EngineConfig::default())?,
        })
    }

    /// Binds an already-built [`Program`] to `device`.
    ///
    /// # Errors
    ///
    /// Returns validation or device errors.
    pub fn from_program(device: &Device, program: &Program) -> EngineResult<Self> {
        Ok(Gpulog {
            engine: GpulogEngine::builder(device).program_ast(program).build()?,
        })
    }

    /// Adds extensional facts (see [`GpulogEngine::add_facts`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::EngineError::BadFacts`] for unknown relations or
    /// arity mismatches.
    pub fn add_facts<I, T>(&mut self, relation: &str, tuples: I) -> EngineResult<()>
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u32]>,
    {
        self.engine.add_facts(relation, tuples)
    }

    /// Runs the program to fixpoint.
    ///
    /// # Errors
    ///
    /// Returns device errors or an iteration-limit error.
    pub fn run(&mut self) -> EngineResult<RunStats> {
        self.engine.run()
    }

    /// Number of tuples in a relation.
    pub fn len(&self, relation: &str) -> Option<usize> {
        self.engine.relation_size(relation)
    }

    /// All tuples of a relation in declared column order.
    pub fn tuples(&self, relation: &str) -> Option<Vec<Vec<u32>>> {
        self.engine.relation_tuples(relation)
    }

    /// Borrowed row slices of a relation, without per-row clones (see
    /// [`GpulogEngine::relation_tuples_iter`]).
    pub fn tuples_iter(&self, relation: &str) -> Option<impl Iterator<Item = &[u32]> + '_> {
        self.engine.relation_tuples_iter(relation)
    }

    /// A relation's tuples as an owned [`gpulog_hisa::TupleBatch`].
    pub fn batch(&self, relation: &str) -> Option<gpulog_hisa::TupleBatch> {
        self.engine.relation_batch(relation)
    }

    /// Whether a relation contains a tuple.
    pub fn contains(&self, relation: &str, tuple: &[u32]) -> bool {
        self.engine.contains(relation, tuple)
    }

    /// Publishes the latest completed fixpoint as an immutable, shareable
    /// snapshot (see [`GpulogEngine::snapshot`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::EngineError::NoFixpoint`] before the first
    /// completed run.
    pub fn snapshot(&self) -> EngineResult<crate::snapshot::FixpointSnapshot> {
        self.engine.snapshot()
    }

    /// Completed fixpoints so far (see [`GpulogEngine::generation`]).
    pub fn generation(&self) -> u64 {
        self.engine.generation()
    }

    /// Stages extensional facts for the next run — the serving writer's
    /// path for growing the extensional database between fixpoints (see
    /// [`GpulogEngine::insert_facts_batch`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::EngineError::BadFacts`] for unknown relations or
    /// arity mismatches.
    pub fn insert_facts_batch(
        &mut self,
        relation: &str,
        batch: &gpulog_hisa::TupleBatch,
    ) -> EngineResult<()> {
        self.engine.insert_facts_batch(relation, batch)
    }

    /// Runs the program's `?-` goal through the magic-sets rewrite instead
    /// of materializing the full fixpoint (see
    /// [`GpulogEngine::run_query`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::EngineError::MissingQuery`] when the program
    /// carries no `?-` goal, and goal errors from the rewrite.
    pub fn query(&self) -> EngineResult<QueryResult> {
        self.engine.run_query()
    }

    /// Runs an ad-hoc point query: `Some(c)` binds a column to `c`,
    /// `None` leaves it free (see [`GpulogEngine::run_query_with`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::EngineError::UnknownQueryRelation`] or
    /// [`crate::EngineError::QueryArityMismatch`] for goals that do not
    /// match the program's declarations.
    pub fn query_with(
        &self,
        relation: &str,
        bindings: &[Option<u32>],
    ) -> EngineResult<QueryResult> {
        self.engine.run_query_with(relation, bindings)
    }

    /// Lint findings collected when the program was built (the default
    /// configuration lints at [`crate::analysis::passes::LintLevel::Warn`],
    /// so findings never fail construction here — inspect them with this
    /// accessor).
    pub fn diagnostics(&self) -> &crate::analysis::passes::ProgramDiagnostics {
        self.engine.diagnostics()
    }

    /// Access to the underlying engine.
    pub fn engine(&self) -> &GpulogEngine {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut GpulogEngine {
        &mut self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_device::profile::DeviceProfile;

    #[test]
    fn facade_round_trip() {
        let device = Device::with_workers(DeviceProfile::default(), 4);
        let mut dl = Gpulog::from_source(
            &device,
            r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl Reach(x: number, y: number)
            .output Reach
            Reach(x, y) :- Edge(x, y).
            Reach(x, y) :- Edge(x, z), Reach(z, y).
        ",
        )
        .unwrap();
        dl.add_facts("Edge", [[0u32, 1], [1, 2], [2, 3]]).unwrap();
        let stats = dl.run().unwrap();
        assert_eq!(dl.len("Reach"), Some(6));
        assert!(dl.contains("Reach", &[0, 3]));
        assert_eq!(dl.tuples("Reach").unwrap().len(), 6);
        assert_eq!(dl.tuples_iter("Reach").unwrap().count(), 6);
        assert_eq!(dl.batch("Reach").unwrap().len(), 6);
        assert!(stats.iterations > 0);
        assert!(dl.engine().relation_size("Edge").is_some());
    }

    #[test]
    fn from_program_uses_the_builder_path() {
        use crate::ast::{ProgramBuilder, Term};
        let device = Device::with_workers(DeviceProfile::default(), 2);
        let program = ProgramBuilder::new()
            .input_relation("E", 2)
            .output_relation("Sym", 2)
            .rule_with("Sym", vec![Term::var("y"), Term::var("x")], |r| {
                r.body("E", vec![Term::var("x"), Term::var("y")]);
            })
            .build()
            .unwrap();
        let mut dl = Gpulog::from_program(&device, &program).unwrap();
        dl.add_facts("E", [[1u32, 2]]).unwrap();
        dl.run().unwrap();
        assert!(dl.contains("Sym", &[2, 1]));
    }

    #[test]
    fn facade_exposes_snapshots_generations_and_staged_inserts() {
        use gpulog_hisa::TupleBatch;
        let device = Device::with_workers(DeviceProfile::default(), 2);
        let mut dl = Gpulog::from_source(
            &device,
            r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl Reach(x: number, y: number)
            .output Reach
            Reach(x, y) :- Edge(x, y).
            Reach(x, y) :- Edge(x, z), Reach(z, y).
        ",
        )
        .unwrap();
        assert_eq!(dl.generation(), 0);
        assert!(dl.snapshot().is_err(), "no fixpoint yet");
        dl.add_facts("Edge", [[0u32, 1]]).unwrap();
        dl.run().unwrap();
        let first = dl.snapshot().unwrap();
        assert_eq!(first.generation(), 1);
        dl.insert_facts_batch("Edge", &TupleBatch::from_rows(2, [[1u32, 2]]))
            .unwrap();
        dl.run().unwrap();
        assert_eq!(dl.generation(), 2);
        assert_eq!(dl.len("Reach"), Some(3));
        // The earlier snapshot still holds its own fixpoint.
        assert_eq!(first.relation_size("Reach"), Some(1));
    }

    #[test]
    fn facade_runs_goal_directed_queries() {
        let device = Device::with_workers(DeviceProfile::default(), 2);
        let mut dl = Gpulog::from_source(
            &device,
            r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl Reach(x: number, y: number)
            .output Reach
            Reach(x, y) :- Edge(x, y).
            Reach(x, z) :- Reach(x, y), Edge(y, z).
            ?- Reach(0, y).
        ",
        )
        .unwrap();
        dl.add_facts("Edge", [[0u32, 1], [1, 2], [5, 6]]).unwrap();
        let goal = dl.query().unwrap();
        assert_eq!(goal.answers.as_flat(), &[0, 1, 0, 2]);
        let ad_hoc = dl.query_with("Reach", &[Some(5), None]).unwrap();
        assert_eq!(ad_hoc.answers.as_flat(), &[5, 6]);
        // Goal runs never advance the facade's own fixpoint generation.
        assert_eq!(dl.generation(), 0);
    }
}
