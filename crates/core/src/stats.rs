//! Run statistics: per-phase timings, iteration records, memory, and modeled
//! device time. These are the quantities the paper reports in Table 1
//! (iterations, runtime, memory), Figure 6 (phase breakdown), and the
//! speedup columns of Tables 2-5.

use gpulog_device::topology::TopologyReport;
use gpulog_device::CostEstimate;
use std::collections::HashMap;
use std::time::Duration;

/// The evaluation phases of the semi-naïve pipeline (paper Figure 3 and the
/// buckets of Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Relational-algebra join kernels.
    Join,
    /// Deduplicating `new` and subtracting `full` (delta population).
    Deduplication,
    /// Building indices over the delta relation.
    IndexDelta,
    /// Building or extending indices over the full relation.
    IndexFull,
    /// Merging delta into full.
    Merge,
    /// Everything else (fact loading, projection glue, bookkeeping).
    Other,
}

impl Phase {
    /// All phases, in the order Figure 6 stacks them.
    pub fn all() -> [Phase; 6] {
        [
            Phase::Deduplication,
            Phase::IndexDelta,
            Phase::IndexFull,
            Phase::Merge,
            Phase::Join,
            Phase::Other,
        ]
    }

    /// Reporting label.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Join => "Join",
            Phase::Deduplication => "Deduplication",
            Phase::IndexDelta => "Indexing Delta",
            Phase::IndexFull => "Indexing Full",
            Phase::Merge => "Merge Delta/Full",
            Phase::Other => "Other",
        }
    }
}

/// One fixpoint iteration of one stratum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationRecord {
    /// Which stratum (in evaluation order) this iteration belongs to.
    pub stratum: usize,
    /// Iteration number within the stratum (1-based).
    pub iteration: usize,
    /// Raw tuples produced by the join kernels this iteration.
    pub new_tuples: usize,
    /// Distinct, genuinely new tuples (the next delta).
    pub delta_tuples: usize,
}

/// How a run evaluated one stratum. The first run re-derives every
/// stratum; a re-run picks per stratum from what changed below it since
/// the last completed fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StratumMode {
    /// Nothing the stratum reads changed and nothing was staged into its
    /// relations: it kept its previous fixpoint untouched.
    Skipped,
    /// Its inputs only grew and it reads the grown ones positively: the
    /// stratum was seeded from the grown rows and iterated on from its
    /// previous fixpoint.
    Seeded,
    /// It reads a grown relation under negation or in an aggregate body,
    /// or reads a re-derived relation: its relations restarted from their
    /// loaded facts and were evaluated from scratch.
    Rederived,
}

/// Statistics for one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Total fixpoint iterations across all recursive strata.
    pub iterations: usize,
    /// Per-iteration records.
    pub iteration_records: Vec<IterationRecord>,
    /// How each stratum was evaluated, in evaluation order.
    pub stratum_modes: Vec<StratumMode>,
    /// Wall-clock seconds per phase.
    pub phase_seconds: HashMap<Phase, f64>,
    /// Total wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Modeled device time for the work performed during the run.
    pub modeled: CostEstimate,
    /// Peak device memory over the run, in bytes.
    pub peak_device_bytes: usize,
    /// Device allocations performed during the run.
    pub allocations: u64,
    /// Allocations served from the pooled recycle bin.
    pub pool_reuses: u64,
    /// Final sizes of all relations.
    pub relation_sizes: HashMap<String, usize>,
    /// Multi-device modeling report — per-device modeled compute,
    /// cross-device exchange traffic, and the modeled critical path — when
    /// a device topology is configured
    /// ([`crate::EngineConfig::device_topology`]); `None` otherwise.
    pub topology: Option<TopologyReport>,
    /// Nanoseconds spent draining deferred merges — the coalesced merges of
    /// deferred merging ([`crate::EngineConfig::pipelined`]), which run in
    /// place on the evaluating thread. Zero under eager merging.
    pub pipeline_stall_nanos: u64,
    /// Times deferred merging's adaptive batching postponed a drain past
    /// its base batch size because the pending delta rows were small
    /// relative to |full|. Zero under eager merging.
    pub adaptive_merge_batches: u64,
}

impl RunStats {
    /// Adds `elapsed` to a phase bucket.
    pub fn add_phase(&mut self, phase: Phase, elapsed: Duration) {
        *self.phase_seconds.entry(phase).or_insert(0.0) += elapsed.as_secs_f64();
    }

    /// Seconds recorded for one phase.
    pub fn phase(&self, phase: Phase) -> f64 {
        self.phase_seconds.get(&phase).copied().unwrap_or(0.0)
    }

    /// Sum of all phase buckets.
    pub fn phase_total(&self) -> f64 {
        self.phase_seconds.values().sum()
    }

    /// Fraction of the phase total spent in `phase` (0 when nothing was
    /// recorded), as a percentage — the quantity plotted in Figure 6.
    pub fn phase_percent(&self, phase: Phase) -> f64 {
        let total = self.phase_total();
        if total == 0.0 {
            0.0
        } else {
            100.0 * self.phase(phase) / total
        }
    }

    /// Number of *tail iterations*: iterations whose delta is smaller than
    /// `threshold_fraction` (the paper uses 1%) of the final derived size of
    /// the recursive relations (paper Table 1).
    pub fn tail_iterations(&self, final_total_tuples: usize, threshold_fraction: f64) -> usize {
        if final_total_tuples == 0 {
            return 0;
        }
        let threshold = (final_total_tuples as f64 * threshold_fraction).max(1.0);
        self.iteration_records
            .iter()
            .filter(|r| (r.delta_tuples as f64) < threshold)
            .count()
    }

    /// Modeled device seconds (total of the roofline components).
    pub fn modeled_seconds(&self) -> f64 {
        self.modeled.total_sec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_percentages_sum_to_100() {
        let mut s = RunStats::default();
        s.add_phase(Phase::Join, Duration::from_millis(30));
        s.add_phase(Phase::Merge, Duration::from_millis(50));
        s.add_phase(Phase::Join, Duration::from_millis(20));
        assert!((s.phase(Phase::Join) - 0.05).abs() < 1e-9);
        let sum: f64 = Phase::all().iter().map(|p| s.phase_percent(*p)).sum();
        assert!((sum - 100.0).abs() < 1e-6);
        assert_eq!(s.phase_percent(Phase::Join).round() as i64, 50);
    }

    #[test]
    fn empty_stats_report_zero_percentages() {
        let s = RunStats::default();
        assert_eq!(s.phase_percent(Phase::Join), 0.0);
        assert_eq!(s.phase_total(), 0.0);
    }

    #[test]
    fn tail_iterations_counts_small_deltas() {
        let mut s = RunStats::default();
        for (i, delta) in [500usize, 300, 50, 5, 3, 1].iter().enumerate() {
            s.iteration_records.push(IterationRecord {
                stratum: 0,
                iteration: i + 1,
                new_tuples: *delta * 2,
                delta_tuples: *delta,
            });
        }
        // final total 1000, 1% threshold = 10 -> iterations with delta < 10.
        assert_eq!(s.tail_iterations(1000, 0.01), 3);
        assert_eq!(s.tail_iterations(0, 0.01), 0);
    }

    #[test]
    fn phase_labels_are_figure6_vocabulary() {
        let labels: Vec<&str> = Phase::all().iter().map(|p| p.label()).collect();
        assert!(labels.contains(&"Indexing Delta"));
        assert!(labels.contains(&"Merge Delta/Full"));
    }
}
