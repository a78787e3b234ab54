//! The simulated multi-GPU observer: a cost model pinning each hash shard
//! of the executor to a modeled device.
//!
//! With a device topology configured, [`ShardedBackend`] runs its op loop
//! unchanged — fixpoints stay byte-identical to the one-shard loop's — and
//! reports to a [`TopologyModel`] as its [`ShardObserver`]. The model runs
//! no kernel of its own: it pins shard `i` to device `i` of a
//! [`DeviceTopology`], attributes every per-part kernel the executor reports
//! to that device's modeled counters, and charges every row the executor
//! moves across a device boundary to the topology's [`LinkProfile`].
//!
//! ## The residency model
//!
//! A row's home is deterministic:
//!
//! * a relation's tuples (and therefore scan outputs) live on the device
//!   owning them by **full-row hash** — the same `shard_of` that delta
//!   population partitions by, so ownership and delta population agree. The model
//!   places each scan this way; plain sharded execution keeps one part;
//! * a keyed join re-partitions the in-flight parts by the join key:
//!   rows whose key hashes to a different device move across the link
//!   (**join exchange**);
//! * ops with nothing to shard on (cross products, fused chains whose
//!   first level binds no key, the grouped reduce) gather to device 0, run
//!   the op body over the whole index there, and the gather is charged;
//! * anti-joins and deeper fused-join levels probe indices modeled as
//!   replicated on every device, so they move nothing.
//!
//! ## The delta exchange
//!
//! At the end of each iteration delta population moves rows twice:
//!
//! 1. **producer → owner**: each device's freshly derived rows (recorded
//!    per rule pipeline as producer segments at install) are partitioned by
//!    full-row hash and shipped to their owners, which deduplicate and
//!    subtract `full` shard-locally;
//! 2. **owner → index partitions**: the resulting delta is pushed to every
//!    cached shard map on the relation's full version (each map's shard
//!    `i` needs exactly the delta rows whose *key* hashes to `i`), and a
//!    fresh delta-version shard-map build charges the same distribution.
//!
//! Every pipeline (and every delta population) is a bulk-synchronous step,
//! so the run's **modeled critical path** accumulates, per step, the slowest
//! device's modeled compute plus its incoming transfer time
//! (`messages x latency + bytes / bandwidth`). The cumulative report —
//! per-device modeled seconds, exchange bytes and messages, critical path,
//! and the aggregate-over-critical-path modeled speedup — is surfaced
//! through [`ShardedBackend::topology_report`] and lands in
//! [`crate::RunStats::topology`].

use super::sharded::{PartOp, ShardObserver};
use crate::planner::RelId;
use crate::relation::RelationVersion;
use gpulog_device::cost::CostModel;
use gpulog_device::metrics::CounterSnapshot;
use gpulog_device::topology::{DeviceLaneReport, DeviceTopology, LinkProfile, TopologyReport};
use gpulog_hisa::{shard_of, TupleBatch};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard};

/// Bytes of one tuple value (relations are dense `u32` columns).
const VALUE_BYTES: u64 = 4;

/// Modeled bytes of a batch.
fn bytes(batch: &TupleBatch) -> u64 {
    batch.as_flat().len() as u64 * VALUE_BYTES
}

/// The cumulative modeling state of one topology: per-device work
/// counters, link-traffic tallies, the accumulated critical paths, and the
/// producer ledger recording which device derived each segment of every
/// relation's `new` buffer (consumed by that relation's next delta
/// population).
#[derive(Debug)]
struct TopologySim {
    work: Vec<CounterSnapshot>,
    in_bytes: Vec<u64>,
    out_bytes: Vec<u64>,
    in_messages: Vec<u64>,
    critical_path_sec: f64,
    producers: HashMap<RelId, Vec<(usize, usize)>>,
    /// Per-device merge share of the pipeline currently executing: the
    /// modeled seconds of delta-merge work folded into the charges that a
    /// pipelined schedule would defer behind the next pipeline's compute.
    pending_merge_sec: Vec<f64>,
    /// Per-device merge debt carried from the previous pipeline: deferred
    /// merge work that must finish under (or extend) the current step.
    merge_debt_sec: Vec<f64>,
    /// Accumulated critical path of the pipelined schedule (the BSP path
    /// stays in `critical_path_sec`, untouched).
    pipelined_critical_path_sec: f64,
}

/// Per-device tallies at the start of one step.
#[derive(Debug)]
pub(super) struct StepStart {
    work: Vec<CounterSnapshot>,
    in_bytes: Vec<u64>,
    in_messages: Vec<u64>,
}

/// The topology cost model: the executor's [`ShardObserver`] pricing
/// per-device work with each device's [`CostModel`] and cross-device
/// traffic with the topology's link.
#[derive(Debug)]
pub(super) struct TopologyModel {
    topology: DeviceTopology,
    models: Vec<CostModel>,
    sim: Mutex<TopologySim>,
}

impl TopologyModel {
    /// A model pinning shard `i` to device `i` of `topology`.
    pub(super) fn new(topology: DeviceTopology) -> Self {
        let models = topology
            .devices()
            .iter()
            .map(|profile| CostModel::new(profile.clone()))
            .collect();
        let s = topology.device_count().get();
        let sim = TopologySim {
            work: vec![CounterSnapshot::default(); s],
            in_bytes: vec![0; s],
            out_bytes: vec![0; s],
            in_messages: vec![0; s],
            critical_path_sec: 0.0,
            producers: HashMap::new(),
            pending_merge_sec: vec![0.0; s],
            merge_debt_sec: vec![0.0; s],
            pipelined_critical_path_sec: 0.0,
        };
        TopologyModel {
            topology,
            models,
            sim: Mutex::new(sim),
        }
    }

    /// Number of modeled devices (= hash shards).
    fn devices(&self) -> NonZeroUsize {
        self.topology.device_count()
    }

    fn sim(&self) -> MutexGuard<'_, TopologySim> {
        self.sim.lock().expect("topology model lock poisoned")
    }

    /// Modeled seconds of a device's counters.
    fn seconds(&self, device: usize, work: &CounterSnapshot) -> f64 {
        self.models[device].estimate(work).total_sec()
    }

    /// The per-device tallies a pipeline's step is priced from.
    pub(super) fn open_step(&self) -> StepStart {
        let sim = self.sim();
        StepStart {
            work: sim.work.clone(),
            in_bytes: sim.in_bytes.clone(),
            in_messages: sim.in_messages.clone(),
        }
    }

    /// Prices one pipeline as a bulk-synchronous step: the slowest
    /// device's compute plus its incoming link transfer since `start`.
    /// The pipelined schedule prices the same step differently: this
    /// step's merge share is deferred (subtracted from the lane), while the
    /// previous step's deferred merges run concurrently and bound the step
    /// from below — a merge slower than the compute it hides behind
    /// surfaces as residual step time.
    pub(super) fn close_step(&self, start: &StepStart) {
        let link: &LinkProfile = self.topology.link();
        let mut sim = self.sim();
        let s = self.devices().get();
        let mut lanes = vec![0.0f64; s];
        let mut worst = 0.0f64;
        for (d, lane) in lanes.iter_mut().enumerate() {
            let compute = self.seconds(d, &sim.work[d].since(&start.work[d]));
            let bytes = sim.in_bytes[d] - start.in_bytes[d];
            let messages = sim.in_messages[d] - start.in_messages[d];
            *lane = compute + link.transfer_sec(bytes, messages);
            worst = worst.max(*lane);
        }
        sim.critical_path_sec += worst;

        let merge_now = std::mem::replace(&mut sim.pending_merge_sec, vec![0.0; s]);
        let mut pipelined_worst = 0.0f64;
        for d in 0..s {
            let lane = (lanes[d] - merge_now[d])
                .max(0.0)
                .max(sim.merge_debt_sec[d]);
            pipelined_worst = pipelined_worst.max(lane);
            sim.merge_debt_sec[d] = merge_now[d];
        }
        sim.pipelined_critical_path_sec += pipelined_worst;
    }

    /// The cumulative modeling report.
    pub(super) fn report(&self) -> TopologyReport {
        let sim = self.sim();
        let devices = (0..self.devices().get())
            .map(|d| DeviceLaneReport {
                device: format!("{} #{d}", self.topology.devices()[d].name),
                modeled_compute_sec: self.seconds(d, &sim.work[d]),
                exchange_in_bytes: sim.in_bytes[d],
                exchange_out_bytes: sim.out_bytes[d],
                exchange_in_messages: sim.in_messages[d],
            })
            .collect::<Vec<_>>();
        // The pipelined path still owes the merges deferred by the last
        // diff: drain the outstanding debt into the report, then clamp to
        // the BSP path (deferring work never makes the schedule slower).
        let final_debt = sim.merge_debt_sec.iter().fold(0.0f64, |acc, &d| acc.max(d));
        let pipelined_sec =
            (sim.pipelined_critical_path_sec + final_debt).min(sim.critical_path_sec);
        TopologyReport {
            link: self.topology.link().name.clone(),
            total_exchange_bytes: devices.iter().map(|d| d.exchange_in_bytes).sum(),
            total_exchange_messages: devices.iter().map(|d| d.exchange_in_messages).sum(),
            modeled_critical_path_sec: sim.critical_path_sec,
            modeled_pipelined_critical_path_sec: pipelined_sec,
            devices,
        }
    }

    /// Applies a `producers x S` byte matrix of traffic to the link
    /// tallies: one message per (producer, destination) pair of distinct
    /// devices that moved bytes.
    fn apply_exchange(&self, matrix: &[u64]) {
        let s = self.devices().get();
        let mut sim = self.sim();
        for (p, row) in matrix.chunks_exact(s).enumerate() {
            for (d, &bytes) in row.iter().enumerate() {
                if bytes > 0 && p != d {
                    sim.out_bytes[p] += bytes;
                    sim.in_bytes[d] += bytes;
                    sim.in_messages[d] += 1;
                }
            }
        }
    }

    /// The one charging loop behind both delta-exchange legs: for every
    /// row, `producer_of(row)` names the device the row currently lives on
    /// (`None` = already resident, charge nothing) and the row's
    /// destination is `shard_of` over its `key_cols` values.
    fn charge_keyed_exchange<P>(
        &self,
        rows: &[u32],
        arity: usize,
        key_cols: &[usize],
        mut producer_of: P,
    ) where
        P: FnMut(&[u32]) -> Option<usize>,
    {
        if rows.is_empty() {
            return;
        }
        let shards = self.devices();
        let s = shards.get();
        let row_bytes = arity as u64 * VALUE_BYTES;
        let mut matrix = vec![0u64; s * s];
        let mut key = Vec::with_capacity(key_cols.len());
        for row in rows.chunks_exact(arity) {
            let Some(producer) = producer_of(row) else {
                continue;
            };
            key.clear();
            key.extend(key_cols.iter().map(|&c| row[c]));
            matrix[producer * s + shard_of(&key, shards)] += row_bytes;
        }
        self.apply_exchange(&matrix);
    }

    /// Charges moving `rows` (owned by full-row hash) into a partitioning
    /// by `key_cols` — the cost of building or feeding one shard map whose
    /// key differs from the ownership hash.
    fn charge_owner_to_key_exchange(&self, rows: &[u32], arity: usize, key_cols: &[usize]) {
        let shards = self.devices();
        self.charge_keyed_exchange(rows, arity, key_cols, |row| Some(shard_of(row, shards)));
    }
}

impl ShardObserver for TopologyModel {
    fn place_scan(&self, batch: TupleBatch) -> Vec<TupleBatch> {
        let cols: Vec<usize> = (0..batch.arity()).collect();
        batch.partition_by_key_hash(&cols, self.devices())
    }

    fn repartitioned(&self, moved: &[usize]) {
        let matrix: Vec<u64> = moved.iter().map(|&v| v as u64 * VALUE_BYTES).collect();
        self.apply_exchange(&matrix);
    }

    /// Full-version builds are initial placement and stay free
    /// (steady-state maintenance goes through the delta exchange); a fresh
    /// delta map moves the delta from its owners to the key partitions.
    fn delta_shard_map_built(&self, rows: &[u32], arity: usize, key_cols: &[usize]) {
        self.charge_owner_to_key_exchange(rows, arity, key_cols);
    }

    /// Attributes each non-empty part's share of a kernel to its device:
    /// bytes moved through its modeled memory, simple ops, and one launch.
    fn ran(&self, op: PartOp, ins: &[TupleBatch], outs: &[TupleBatch]) {
        let mut sim = self.sim();
        for (d, (input, out)) in ins.iter().zip(outs).enumerate() {
            if input.is_empty() {
                continue;
            }
            let (in_bytes, out_bytes) = (bytes(input), bytes(out));
            let (in_rows, out_rows) = (input.len() as u64, out.len() as u64);
            let (read, written, ops) = match op {
                PartOp::Scan | PartOp::Project | PartOp::GatheredJoin => {
                    (in_bytes, out_bytes, out_rows)
                }
                // Each outer row performs one hash probe (~16 bytes of
                // table reads); matched inner rows are read at output size.
                PartOp::HashJoin => (
                    in_bytes + 16 * in_rows + out_bytes,
                    out_bytes,
                    in_rows + out_rows,
                ),
                PartOp::FusedJoin => (
                    in_bytes + out_bytes,
                    out_bytes,
                    (input.as_flat().len() + out.as_flat().len()) as u64,
                ),
                PartOp::AntiJoin => (in_bytes + 16 * in_rows, out_bytes, in_rows),
                // A sort (read + write) and the compaction of the survivors
                // — the dedup half of a diff.
                PartOp::Reduce | PartOp::Dedup => (2 * in_bytes, in_bytes + out_bytes, in_rows),
                // Dedup sorts its part (read + write) and probes full once
                // per row; the delta slice is written back and later merged.
                PartOp::Diff => (2 * in_bytes, in_bytes + 2 * out_bytes, in_rows),
            };
            let work = &mut sim.work[d];
            work.bytes_read += read;
            work.bytes_written += written;
            work.ops += ops;
            work.kernel_launches += 1;
            // The merge's share of a diff's charge — reading the delta
            // slice back and writing it into full — is what a pipelined
            // schedule defers behind the next pipeline's compute.
            if op == PartOp::Diff && out_bytes > 0 {
                let merge = CounterSnapshot {
                    bytes_read: out_bytes,
                    bytes_written: out_bytes,
                    ..CounterSnapshot::default()
                };
                sim.pending_merge_sec[d] += self.seconds(d, &merge);
            }
        }
    }

    fn gathered(&self, parts: &[TupleBatch]) {
        let s = self.devices().get();
        let mut matrix = vec![0u64; parts.len() * s];
        for (p, part) in parts.iter().enumerate() {
            matrix[p * s] = bytes(part);
        }
        self.apply_exchange(&matrix);
    }

    /// Exchange leg 1: each row travels from the device that produced it
    /// (per the recorded segments) to the device owning it. Rows beyond
    /// the recorded segments (none in engine-driven runs) are treated as
    /// already resident.
    fn new_rows_sent_to_owners(&self, relation: RelId, new: &TupleBatch) {
        let segments = self.sim().producers.remove(&relation).unwrap_or_default();
        let mut producer_of_row = segments
            .iter()
            .flat_map(|&(device, rows)| std::iter::repeat_n(device, rows));
        let full_key: Vec<usize> = (0..new.arity()).collect();
        self.charge_keyed_exchange(new.as_flat(), new.arity(), &full_key, |_| {
            producer_of_row.next()
        });
    }

    /// Exchange leg 2: each owner pushes its delta slice into every index
    /// entry of the full version as wide as the device count (its shard
    /// maps).
    fn delta_sent_to_shard_maps(&self, delta: &TupleBatch, full: &RelationVersion) {
        for (key_cols, map_shards) in full.index_keys() {
            if map_shards == self.devices().get() {
                self.charge_owner_to_key_exchange(delta.as_flat(), delta.arity(), &key_cols);
            }
        }
    }

    fn installed(&self, head: RelId, parts: &[TupleBatch]) {
        let mut sim = self.sim();
        let segments = sim.producers.entry(head).or_default();
        for (d, part) in parts.iter().enumerate() {
            if !part.is_empty() {
                segments.push((d, part.len()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{EvalContext, ShardedBackend};
    use crate::ebm::EbmConfig;
    use crate::engine::EngineConfig;
    use crate::relation::RelationStorage;
    use crate::stats::RunStats;
    use gpulog_device::profile::DeviceProfile;
    use gpulog_device::Device;
    use gpulog_hisa::DEFAULT_LOAD_FACTOR;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    fn backend(devices: usize) -> ShardedBackend {
        let topology = DeviceTopology::nvlink_like(nz(devices));
        ShardedBackend::from_config(&EngineConfig {
            device_topology: Some(topology),
            ..EngineConfig::default()
        })
        .unwrap()
    }

    fn model(backend: &ShardedBackend) -> &TopologyModel {
        backend.topology.as_ref().expect("a topology is configured")
    }

    #[test]
    fn diff_is_byte_identical_to_serial_and_counts_exchange() {
        let d = device();
        let new_rows: Vec<u32> = (0..300u32).flat_map(|i| [i % 37, i % 13]).collect();
        let run = |backend: &ShardedBackend| {
            let mut rels = vec![RelationStorage::new(&d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap()];
            rels[0]
                .load_full_batch(&TupleBatch::new(2, vec![1, 1, 5, 5, 36, 12]))
                .unwrap();
            rels[0].push_new(&new_rows);
            let mut stats = RunStats::default();
            let mut ctx = EvalContext {
                device: &d,
                relations: &mut rels,
                stats: &mut stats,
                ebm: EbmConfig::default(),
            };
            let outcome = backend.populate(&mut ctx, 0).unwrap();
            (
                outcome,
                rels[0].delta.tuples_flat().to_vec(),
                rels[0].full().tuples_flat().to_vec(),
            )
        };
        let serial = run(&ShardedBackend::new(1).unwrap());
        for devices in [1usize, 2, 3, 7] {
            let multi = backend(devices);
            assert_eq!(run(&multi), serial, "devices = {devices}");
            let report = multi.topology_report().unwrap();
            assert_eq!(report.devices.len(), devices);
            if devices == 1 {
                assert_eq!(report.total_exchange_bytes, 0, "one device never exchanges");
            }
        }
    }

    #[test]
    fn single_device_topology_reports_speedup_of_one() {
        let d = device();
        let multi = backend(1);
        let mut rels = vec![RelationStorage::new(&d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap()];
        rels[0].push_new(&[1, 2, 3, 4, 5, 6]);
        let mut stats = RunStats::default();
        let mut ctx = EvalContext {
            device: &d,
            relations: &mut rels,
            stats: &mut stats,
            ebm: EbmConfig::default(),
        };
        multi.populate(&mut ctx, 0).unwrap();
        let report = multi.topology_report().unwrap();
        assert!(report.modeled_critical_path_sec > 0.0);
        assert!((report.modeled_speedup() - 1.0).abs() < 1e-9);
        assert_eq!(report.total_exchange_messages, 0);
    }

    #[test]
    fn pipelined_schedule_is_priced_below_the_bsp_critical_path() {
        let d = device();
        let multi = backend(2);
        let mut rels = vec![RelationStorage::new(&d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap()];
        let mut stats = RunStats::default();
        // Several merge-carrying population rounds: every round's merge share is
        // deferred behind the next round, so the pipelined path must price
        // strictly below the bulk-synchronous one.
        for round in 0..4u32 {
            let rows: Vec<u32> = (0..2000u32).flat_map(|i| [round * 10_000 + i, i]).collect();
            rels[0].push_new(&rows);
            let mut ctx = EvalContext {
                device: &d,
                relations: &mut rels,
                stats: &mut stats,
                ebm: EbmConfig::default(),
            };
            multi.populate(&mut ctx, 0).unwrap();
        }
        let report = multi.topology_report().unwrap();
        assert!(report.modeled_pipelined_critical_path_sec > 0.0);
        assert!(
            report.modeled_pipelined_critical_path_sec < report.modeled_critical_path_sec,
            "pipelined {} must beat BSP {}",
            report.modeled_pipelined_critical_path_sec,
            report.modeled_critical_path_sec
        );
    }

    #[test]
    fn producer_segments_drive_the_delta_exchange_charges() {
        let d = device();
        let multi = backend(4);
        let mut rels = vec![RelationStorage::new(&d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap()];
        // 64 distinct rows, all recorded as produced on device 0: roughly
        // three quarters of them must cross the link to their owners.
        let rows: Vec<u32> = (0..64u32).flat_map(|i| [i, i + 1000]).collect();
        rels[0].push_new(&rows);
        model(&multi).sim().producers.insert(0, vec![(0, 64)]);
        let mut stats = RunStats::default();
        let mut ctx = EvalContext {
            device: &d,
            relations: &mut rels,
            stats: &mut stats,
            ebm: EbmConfig::default(),
        };
        multi.populate(&mut ctx, 0).unwrap();
        let report = multi.topology_report().unwrap();
        assert!(
            report.total_exchange_bytes > 0,
            "cross-device rows must be charged"
        );
        assert_eq!(
            report.devices[0].exchange_in_bytes, 0,
            "device 0 produced everything, it receives nothing in leg 1"
        );
        assert!(report.devices[0].exchange_out_bytes > 0);
        // Every byte sent was received by someone.
        let sent: u64 = report.devices.iter().map(|l| l.exchange_out_bytes).sum();
        assert_eq!(sent, report.total_exchange_bytes);
    }
}
