//! Thrust-like data-parallel primitives.
//!
//! GPUlog (the paper, Section 4.2) builds HISA "extensively using NVIDIA's
//! Thrust library to perform tasks such as copying, gathering, and sorting",
//! plus the merge-path merge of Green et al. This module provides the same
//! primitive vocabulary on the simulated device so the data-structure and
//! engine code above it can follow the paper's algorithms line by line:
//!
//! * [`sort`] — parallel stable sorts, including the column-at-a-time LSD
//!   sort HISA uses to build its sorted index array (Algorithm 1).
//! * [`merge`] — the merge-path parallel merge used when folding a delta
//!   relation into the full relation.
//! * [`scan`] — exclusive prefix sums, the backbone of two-pass
//!   (count, scan, write) output materialization.
//! * [`transform`] — gather, compaction (`copy_if`), and adjacent-difference
//!   style helpers used for deduplication.
//! * [`reduce`] — extrema.

pub mod merge;
pub mod reduce;
pub mod scan;
pub mod sort;
pub mod transform;
