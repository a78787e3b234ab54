//! Relational-algebra kernels over HISA relations.
//!
//! These are the compute kernels of the paper's Figure 3 pipeline: hash
//! joins driven by HISA range queries ([`join`]), projections and filters
//! ([`project`]), deduplication and set difference for delta population
//! ([`mod@difference`]), the fused n-way join used as the ablation
//! baseline for temporarily-materialized joins ([`nway`]), plus the
//! stratified-evaluation kernels: anti-join against a completed lower
//! stratum ([`antijoin`]) and grouped head-aggregate reduction
//! ([`mod@reduce`]).
//!
//! Every kernel takes and returns [`gpulog_hisa::TupleBatch`]es, which
//! carry their arity (and, where a kernel guarantees it, the sorted-unique
//! flag) with the data. Rule evaluation does not call these kernels
//! directly: the planner lowers each rule into an [`op::RaPipeline`] of
//! [`op::RaOp`]s, and the executor ([`crate::backend::ShardedBackend`])
//! runs the pipeline, moving batches between operators. The property tests
//! pin the operator pipeline against the same kernels composed by hand.

pub mod antijoin;
pub mod difference;
pub mod join;
pub mod nway;
pub mod op;
pub mod project;
pub mod reduce;

pub use antijoin::anti_join_batch;
pub use difference::{deduplicate_rows, difference_batch};
pub use join::hash_join_batch;
pub use nway::{fused_rule_join_batch, NwayStrategy};
pub use op::{RaOp, RaPipeline};
pub use project::{filter_batch, project_batch, scan_select_batch};
pub use reduce::group_reduce_batch;
