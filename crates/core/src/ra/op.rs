//! The relational-algebra operator IR.
//!
//! The planner compiles every rule into a [`crate::planner::RulePlan`];
//! lowering (see
//! [`crate::planner::lower_rule_plan`]) turns that plan into a flat
//! [`RaPipeline`] — a `Vec<RaOp>` — that the executor
//! ([`crate::backend::ShardedBackend`]) runs over
//! [`gpulog_hisa::TupleBatch`] intermediates. Keeping the IR explicit
//! (rather than hard-coding the kernel sequence inside the engine) is what
//! lets one op loop serve every shard count, merge policy, and observer.
//!
//! An op consumes the current intermediate batch and produces the next one:
//!
//! ```text
//! Scan ──batch──▶ HashJoin ──batch──▶ ... ──batch──▶ [Project] ──▶ head `new`
//!        └─────────────── or ───────────────┘
//! Scan ──batch──▶ FusedJoin ────────────────────────────────────▶ head `new`
//! ```
//!
//! The `Project` is omitted when it would be the identity: the planner has
//! the last step emit the head tuple itself whenever the head is all
//! distinct variables and nothing else is live (see
//! [`crate::planner::RulePlan::head_proj_is_identity`]).
//!
//! Delta population (dedup `new`, subtract `full`, install the delta) is
//! not an op: it consumes a relation's `new` buffer rather than a pipeline
//! intermediate, so the executor runs it directly
//! ([`crate::backend::ShardedBackend::populate`]).

use crate::ast::AggregateOp;
use crate::planner::{AntiJoinStep, ColumnSource, FilterStep, JoinStep, RelId, ScanStep};

/// One relational-algebra operator.
#[derive(Debug, Clone, PartialEq)]
pub enum RaOp {
    /// Scan a relation version, applying the atom's constant/equality
    /// filters and keeping one column per distinct variable; `filters` are
    /// the cross-atom constraints that become checkable right after the
    /// scan.
    Scan {
        /// The scan parameters (relation, version, filters, kept columns).
        step: ScanStep,
        /// Constraint filters applied to the scan's output.
        filters: Vec<FilterStep>,
    },
    /// One binary hash join against an indexed relation version, applying
    /// `filters` to the joined intermediate.
    HashJoin {
        /// The join parameters (inner relation, key columns, emit list).
        step: JoinStep,
        /// Constraint filters applied to the join's output.
        filters: Vec<FilterStep>,
        /// The outer may hold duplicate rows: the step before this join
        /// dropped a bound column that is no longer live. The executor
        /// then deduplicates the outer before probing, when the outer is
        /// large and the inner has more rows than distinct keys (each
        /// duplicate would be multiplied by the fan-out).
        dedup_outer: bool,
    },
    /// The whole join chain evaluated in one fused nested-loop kernel,
    /// producing head tuples directly (the ablation strategy of paper
    /// Section 5.2).
    FusedJoin {
        /// The join levels in plan order, each with its post-level filters.
        levels: Vec<(JoinStep, Vec<FilterStep>)>,
        /// Projection from the final intermediate onto the head.
        head_proj: Vec<ColumnSource>,
    },
    /// Anti-join from a negated body literal: keep only intermediate rows
    /// whose probe tuple is *absent* from the negated relation. Always
    /// reads the negated relation's `full` version, which stratification
    /// guarantees is complete before this pipeline runs.
    AntiJoin {
        /// The anti-join parameters (negated relation, probe sources).
        step: AntiJoinStep,
    },
    /// Project the final intermediate onto the head relation's columns.
    Project {
        /// One source (column or constant) per head column.
        columns: Vec<ColumnSource>,
    },
    /// Grouped reduce over the head-shaped batch of an aggregate rule:
    /// deduplicate rows, group by every column except `agg_column`, and
    /// reduce `agg_column` with `op`.
    Reduce {
        /// The reduction to apply.
        op: AggregateOp,
        /// The aggregated column; all others form the group key.
        agg_column: usize,
    },
}

/// An executable operator pipeline, the lowered form of one rule version.
#[derive(Debug, Clone, PartialEq)]
pub struct RaPipeline {
    /// Relation receiving this pipeline's output tuples.
    pub head: RelId,
    /// Operators in execution order.
    pub ops: Vec<RaOp>,
    /// Human-readable source form (for diagnostics and plan dumps).
    pub text: String,
}

impl RaPipeline {
    /// Whether this pipeline contains no operators (a trivially-empty rule).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}
