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
//! Rule evaluation does not call these kernels directly: the planner lowers
//! each rule into an [`op::RaPipeline`] of [`op::RaOp`]s, and the
//! executor ([`crate::backend::ShardedBackend`]) runs the pipeline, moving
//! [`gpulog_hisa::TupleBatch`] intermediates between operators. The
//! flat-slice kernel forms remain public as the reference implementations
//! the property tests pin the operator pipeline against.

pub mod antijoin;
pub mod difference;
pub mod join;
pub mod nway;
pub mod op;
pub mod project;
pub mod reduce;

pub use antijoin::{anti_join_batch, anti_join_rows};
pub use difference::{deduplicate_rows, difference, difference_batch};
pub use join::{hash_join, hash_join_batch};
pub use nway::{fused_rule_join, fused_rule_join_batch, NwayStrategy};
pub use op::{RaOp, RaPipeline};
pub use project::{filter_batch, filter_rows, project_batch, project_rows, scan_select_batch};
pub use reduce::{group_reduce_batch, group_reduce_rows};
