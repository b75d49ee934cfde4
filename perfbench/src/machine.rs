//! The two backends a workload runs on, seen from outside the program,
//! and [`Timed`], the `Backend` wrapper that times calls into them.

use std::path::Path;
use std::time::Instant;

use pim_cluster::{ClusterConfig, PimCluster};
use pim_core::{Config, DurabilityPolicy, Key, Op, PimResult, PimSkipList, Reply, Value};
use pim_runtime::{Metrics, ProbeReport, Telemetry};
use pim_service::Backend;

/// What the benchmark needs of a backend beyond the service's `Backend`.
pub trait Machine: Backend + Sized {
    /// Build the loaded structure from strictly ascending `load`.
    fn build(cfg: &Config, shards: u32, load: &[(Key, Value)]) -> Self;
    fn enable_durability(&mut self, dir: &Path, policy: DurabilityPolicy) -> PimResult<()>;
    /// Restart from `dir`; returns the structure and the ops replayed.
    fn recover(
        cfg: &Config,
        shards: u32,
        dir: &Path,
        policy: DurabilityPolicy,
    ) -> PimResult<(Self, u64)>;
    /// Cumulative §2.1 counters (a cluster sums its shards' telemetry,
    /// which a recovered cluster has not lit, and has no
    /// `shared_mem_peak`).
    fn model(&mut self) -> Metrics;
    fn items(&self) -> Vec<(Key, Value)>;
    /// Structural invariants, where the backend exposes them.
    fn validate(&self) -> Result<(), String>;
    /// Rounds executed per shard (one entry for a single machine).
    fn shard_rounds(&self) -> Vec<u64>;
    fn enable_probe(&mut self) {}
    fn take_probe(&mut self) -> Option<ProbeReport> {
        None
    }
    fn durable_stats(&self) -> Option<pim_core::DurableStats> {
        None
    }
    /// Write a compacted snapshot now (single machines only).
    fn snapshot_now(&mut self) -> PimResult<()> {
        Err(pim_core::PimError::InvalidArgument {
            op: "snapshot_now",
            reason: "this backend takes snapshots only by policy".into(),
        })
    }
}

impl Machine for PimSkipList {
    fn build(cfg: &Config, _shards: u32, load: &[(Key, Value)]) -> Self {
        let mut list = PimSkipList::new(cfg.clone());
        list.bulk_load(load);
        list
    }

    fn enable_durability(&mut self, dir: &Path, policy: DurabilityPolicy) -> PimResult<()> {
        PimSkipList::enable_durability(self, dir, policy)
    }

    fn recover(
        cfg: &Config,
        _shards: u32,
        dir: &Path,
        policy: DurabilityPolicy,
    ) -> PimResult<(Self, u64)> {
        let (list, report) = PimSkipList::recover_from_dir(cfg.clone(), dir, policy)?;
        Ok((list, report.ops_replayed))
    }

    fn model(&mut self) -> Metrics {
        self.metrics()
    }

    fn items(&self) -> Vec<(Key, Value)> {
        self.collect_items()
    }

    fn validate(&self) -> Result<(), String> {
        PimSkipList::validate(self)
    }

    fn shard_rounds(&self) -> Vec<u64> {
        vec![self.metrics().rounds]
    }

    fn enable_probe(&mut self) {
        PimSkipList::enable_probe(self);
    }

    fn take_probe(&mut self) -> Option<ProbeReport> {
        PimSkipList::take_probe(self)
    }

    fn durable_stats(&self) -> Option<pim_core::DurableStats> {
        PimSkipList::durable_stats(self)
    }

    fn snapshot_now(&mut self) -> PimResult<()> {
        PimSkipList::snapshot_now(self)
    }
}

impl Machine for PimCluster {
    /// The cluster has no bulk load: set-up upserts in service-sized
    /// batches. Shard telemetry is lit first, because it is the only
    /// outside view of the shards' §2.1 counters.
    fn build(cfg: &Config, shards: u32, load: &[(Key, Value)]) -> Self {
        let mut cluster = PimCluster::new(ClusterConfig::new(cfg.clone(), shards));
        cluster.enable_telemetry();
        let chunk = cfg.batch_large() * shards as usize;
        let mut ops = Vec::with_capacity(chunk);
        for c in load.chunks(chunk) {
            ops.clear();
            ops.extend(c.iter().map(|&(key, value)| Op::Upsert { key, value }));
            cluster.execute(&ops);
        }
        cluster
    }

    fn enable_durability(&mut self, dir: &Path, policy: DurabilityPolicy) -> PimResult<()> {
        PimCluster::enable_durability(self, dir, policy)
    }

    fn recover(
        cfg: &Config,
        shards: u32,
        dir: &Path,
        policy: DurabilityPolicy,
    ) -> PimResult<(Self, u64)> {
        let cc = ClusterConfig::new(cfg.clone(), shards);
        let (cluster, report) = PimCluster::recover_from_dir(cc, dir, policy)?;
        Ok((cluster, report.ops_replayed()))
    }

    fn model(&mut self) -> Metrics {
        let ids: Vec<String> = self
            .stats()
            .shards
            .iter()
            .map(|s| s.id.to_string())
            .collect();
        let Some(snap) = self.telemetry_snapshot() else {
            return Metrics::default();
        };
        let sum = |name: &str| -> u64 {
            ids.iter()
                .map(|id| snap.counter(name, &[("shard", id)]).unwrap_or(0))
                .sum()
        };
        Metrics {
            rounds: sum("pim_rounds_total"),
            io_time: sum("pim_io_time_total"),
            pim_time: sum("pim_time_total"),
            total_messages: sum("pim_messages_total"),
            total_pim_work: sum("pim_work_total"),
            cpu_work: sum("pim_cpu_work_total"),
            ..Metrics::default()
        }
    }

    fn items(&self) -> Vec<(Key, Value)> {
        self.collect_items()
    }

    /// The cluster exposes no structural check; its contents are compared
    /// with the oracle instead.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }

    fn shard_rounds(&self) -> Vec<u64> {
        self.stats().shards.iter().map(|s| s.rounds).collect()
    }
}

/// Time and count what passes through the `Backend` seam: `execute_ops`
/// (wall time, calls, coalescible runs per call) and `durable_sync`.
/// Untraced runs forward without touching a clock. The wrapper shows the
/// service no telemetry registry, so the service's per-request event log
/// stays dark in every run.
pub struct Timed<M> {
    pub inner: M,
    pub trace: bool,
    pub c: SeamCounters,
}

/// What [`Timed`] has seen since the last reset.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeamCounters {
    pub exec_ns: u64,
    pub exec_calls: u64,
    pub exec_ops: u64,
    pub exec_runs: u64,
    pub sync_ns: u64,
    pub sync_calls: u64,
}

impl<M> Timed<M> {
    pub fn new(inner: M, trace: bool) -> Self {
        Timed {
            inner,
            trace,
            c: SeamCounters::default(),
        }
    }
}

impl<M: Backend> Backend for Timed<M> {
    fn execute_ops(&mut self, ops: &[Op]) -> Vec<Reply> {
        if !self.trace {
            return self.inner.execute_ops(ops);
        }
        let t = Instant::now();
        let replies = self.inner.execute_ops(ops);
        self.c.exec_ns += t.elapsed().as_nanos() as u64;
        self.c.exec_calls += 1;
        self.c.exec_ops += ops.len() as u64;
        let mut start = 0;
        while start < ops.len() {
            start = pim_core::op::run_end(ops, start);
            self.c.exec_runs += 1;
        }
        replies
    }

    fn rounds(&self) -> u64 {
        self.inner.rounds()
    }

    fn span_enter(&mut self, name: &'static str) {
        self.inner.span_enter(name);
    }

    fn span_exit(&mut self) {
        self.inner.span_exit();
    }

    fn set_pipeline(&mut self, pipeline: bool) {
        self.inner.set_pipeline(pipeline);
    }

    fn set_push_pull(&mut self, on: bool) {
        self.inner.set_push_pull(on);
    }

    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }

    fn durable_seq(&self) -> Option<u64> {
        self.inner.durable_seq()
    }

    fn durable_synced_seq(&self) -> Option<u64> {
        self.inner.durable_synced_seq()
    }

    fn durable_sync(&mut self) -> PimResult<()> {
        if !self.trace {
            return self.inner.durable_sync();
        }
        let t = Instant::now();
        let out = self.inner.durable_sync();
        self.c.sync_ns += t.elapsed().as_nanos() as u64;
        self.c.sync_calls += 1;
        out
    }

    fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        None
    }

    fn recommended_batch(&self) -> usize {
        self.inner.recommended_batch()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn lane(&self, op: &Op) -> usize {
        self.inner.lane(op)
    }
}
