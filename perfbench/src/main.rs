//! `perfbench` — the end-to-end benchmark of the PIM skip-list service.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--threads <t>] [--push-pull] [--keys <n>]
//! ```
//!
//! One run drives `PimService` with a single-process closed-loop client
//! over one named workload (see `gen.rs` and the README), checks every
//! reply against an independent oracle, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` is a separate run of the same
//! workload that times and counts each layer from outside the program and
//! reports the per-layer metrics. `--threads`, `--push-pull` and `--keys`
//! override the workload's defaults for reference figures only.

mod client;
mod gen;
mod machine;
mod oracle;

use std::path::{Path, PathBuf};
use std::time::Instant;

use pim_cluster::PimCluster;
use pim_core::{Config, DurabilityPolicy, FsyncPolicy, PimSkipList};
use pim_runtime::{ExecConfig, Metrics};
use pim_service::{PimService, ServiceConfig};

use client::{quantile, Client};
use gen::{Kind, Spec};
use machine::{Machine, SeamCounters, Timed};
use oracle::Checker;

/// The machine's secret seed (hashing, tower coins). It is configuration,
/// not input: `--seed` varies only the generated keys and ops.
const MACHINE_SEED: u64 = 0x9E37_79B9;
/// Set-up and restart samples per run, spread over the timed phase; the
/// median is reported.
const REPEATS: usize = 7;
/// Timed rounds a run makes at least, so every batch position's median
/// is taken over several rounds.
const MIN_ROUNDS: usize = 3;
/// Batches run after the final snapshot of durable-ingest, so every
/// restart replays the same WAL suffix.
const TAIL_BATCHES: usize = 8;

/// Probe spans reported per layer: the ones that carry at least 1% of
/// some workload's rounds, IO time, PIM work or CPU work.
const SPANS: &[&str] = &[
    "get/dedup",
    "get/lookup",
    "update/dedup",
    "update/lookup",
    "search/stage1",
    "search/stage2",
    "successor",
    "predecessor",
    "range_tree/split",
    "range_tree/count",
    "range_tree/execute",
    "upsert",
    "alloc",
    "link",
    "next_leaf",
    "delete/mark",
    "delete/contract",
    "delete/unlink",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
    push_pull: bool,
    keys: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut threads, mut push_pull, mut keys) = (None, false, None);
    while let Some(flag) = args.next() {
        if flag == "--push-pull" {
            push_pull = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--threads" => threads = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
            "--keys" => keys = Some(value.parse::<usize>().map_err(|e| bad(&e))?.max(1)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
        push_pull,
        keys,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let Some(mut spec) = gen::specs().into_iter().find(|s| s.name == args.workload) else {
        let names: Vec<_> = gen::specs().iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {} (one of {names:?})",
            args.workload
        );
        std::process::exit(2);
    };
    spec.n = args.keys.unwrap_or(spec.n);
    let threads = args.threads.unwrap_or(spec.threads);
    pim_runtime::pool::configure(ExecConfig::with_threads(threads));
    let scratch = scratch_dir(&spec);
    let report = if spec.shards > 0 {
        run::<PimCluster>(&spec, &args, &scratch)
    } else {
        run::<PimSkipList>(&spec, &args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    println!("{report}");
}

/// Durable directories live next to the executable, inside the build
/// directory of the checkout.
fn scratch_dir(spec: &Spec) -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    let dir = exe
        .parent()
        .expect("executable has a parent directory")
        .join(format!("perfbench-{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn durability(spec: &Spec, round_len: usize) -> DurabilityPolicy {
    let policy = DurabilityPolicy::default().with_fsync(FsyncPolicy::Manual);
    if spec.kind == Kind::DurableIngest {
        // One snapshot (and WAL compaction) per round.
        policy.with_snapshot_every(round_len as u64)
    } else {
        policy
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Everything measured in one run, before it is turned into metrics.
struct Measured {
    samples: Samples,
    setup_pim_work: u64,
    recovery_ops_replayed: u64,
    recovery_pim_work: u64,
    /// Model counters over the first timed round (exactly repeatable).
    model_window: Metrics,
    model_window_ops: u64,
    /// Model counters over the whole timed phase.
    model_timed: Metrics,
    peak_rss: f64,
    seam: SeamCounters,
    durable: pim_core::DurableStats,
    shard_rounds: Vec<u64>,
    probe: Option<pim_runtime::ProbeReport>,
    client: Client,
    w: usize,
}

/// Set-up and restart samples of one run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    load_s: Vec<f64>,
    enable_s: Vec<f64>,
    recovery_s: Vec<f64>,
}

impl Samples {
    /// Build the loaded structure (durable-ingest: and attach its WAL in
    /// `dir`), timing both steps.
    fn set_up<M: Machine>(
        &mut self,
        spec: &Spec,
        cfg: &Config,
        load: &[(pim_core::Key, pim_core::Value)],
        dir: &Path,
        policy: DurabilityPolicy,
    ) -> M {
        let _ = std::fs::remove_dir_all(dir);
        let t = Instant::now();
        let mut m = M::build(cfg, spec.shards, load);
        self.load_s.push(secs(t));
        if spec.kind == Kind::DurableIngest {
            let te = Instant::now();
            m.enable_durability(dir, policy).expect("enable durability");
            self.enable_s.push(secs(te));
        }
        self.setup_s.push(secs(t));
        m
    }

    /// One set-up and one restart from `prepared`, both dropped again.
    fn sample<M: Machine>(
        &mut self,
        spec: &Spec,
        cfg: &Config,
        load: &[(pim_core::Key, pim_core::Value)],
        scratch: &Path,
        prepared: &Path,
        policy: DurabilityPolicy,
    ) {
        let dir = scratch.join("setup-sample");
        drop(self.set_up::<M>(spec, cfg, load, &dir, policy));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let restarted = M::recover(cfg, spec.shards, prepared, policy).expect("restart from disk");
        self.recovery_s.push(secs(t));
        drop(restarted);
    }
}

fn run<M: Machine>(spec: &Spec, args: &Args, scratch: &Path) -> String {
    let inputs = gen::generate(spec, args.seed);
    let mut cfg = Config::new(spec.p, spec.n as u64, MACHINE_SEED);
    cfg.pipeline = false;
    cfg.push_pull = args.push_pull;
    let policy = durability(spec, inputs.round.len());
    let durable = spec.kind == Kind::DurableIngest;
    let tail = &inputs.round[..TAIL_BATCHES * inputs.w];

    // The directory restart samples recover from: a snapshot of the set-up
    // contents; durable-ingest also replays a WAL suffix of `tail`.
    let prepared = scratch.join("prepared");
    {
        let mut m = M::build(&cfg, spec.shards, &inputs.load);
        m.enable_durability(&prepared, policy)
            .expect("prepare restart directory");
        if durable {
            for batch in tail.chunks(inputs.w) {
                m.execute_ops(batch);
            }
            m.durable_sync().expect("sync prepared WAL");
        }
    }

    let mut samples = Samples::default();
    let wal = scratch.join("wal");
    let mut built: M = samples.set_up(spec, &cfg, &inputs.load, &wal, policy);
    let setup_pim_work = built.model().total_pim_work;
    let backend = Timed::new(built, args.trace);
    // Acks follow execution in every workload. Durable-ingest appends
    // every committed run to its WAL; the device fsyncs only at snapshots,
    // because fsync latency on a shared disk swings the tail by several
    // times from run to run.
    let svc_cfg = ServiceConfig::for_backend(&backend);
    assert_eq!(
        svc_cfg.max_batch, inputs.w,
        "batches match the service policy"
    );
    let mut svc = PimService::new(backend, svc_cfg);
    let mut checker = Checker::new(inputs.load.iter().copied());
    let mut client = Client::new(inputs.w);

    // Untimed warm-up round, then whole timed rounds. Set-up and restart
    // samples are spread over the timed phase, between rounds, so their
    // medians see the host as the serving figures do.
    client.run(&mut svc, &inputs.round, &mut checker, false);
    let timed = svc.list_mut();
    timed.c = SeamCounters::default();
    let model0 = timed.inner.model();
    let dur0 = timed.inner.durable_stats().unwrap_or_default();
    let shards0 = timed.inner.shard_rounds();
    if args.trace {
        timed.inner.enable_probe();
    }
    let budget_ns = (args.seconds * 1e9) as u64;
    let mut model_window = None;
    let mut peak_rss = 0.0;
    let mut rounds = 0;
    let mut taken = 0;
    while rounds < MIN_ROUNDS || client.timed_ns < budget_ns {
        client.run(&mut svc, &inputs.round, &mut checker, true);
        rounds += 1;
        if model_window.is_none() {
            model_window = Some(svc.list_mut().inner.model() - model0);
            // Set-up and serving, before any sample adds a second structure.
            peak_rss = peak_rss_mib();
        }
        while taken < REPEATS && client.timed_ns * REPEATS as u64 >= budget_ns * (taken as u64 + 1)
        {
            samples.sample::<M>(spec, &cfg, &inputs.load, scratch, &prepared, policy);
            taken += 1;
        }
    }
    let timed = svc.list_mut();
    let seam = timed.c;
    let model_timed = timed.inner.model() - model0;
    let durable_stats = stats_delta(timed.inner.durable_stats().unwrap_or_default(), dur0);
    let shard_rounds = timed
        .inner
        .shard_rounds()
        .iter()
        .zip(&shards0)
        .map(|(a, b)| a - b)
        .collect();
    let probe = timed.inner.take_probe();

    // The restart after the run: durable-ingest from its own WAL (a
    // snapshot, then the same tail), the others from a snapshot of their
    // final contents. It must reproduce the contents.
    let restart_dir = if durable {
        svc.list_mut()
            .inner
            .snapshot_now()
            .expect("snapshot before restart");
        client.run(&mut svc, tail, &mut checker, false);
        assert!(svc.flush().is_empty(), "nothing is left queued");
        wal
    } else {
        scratch.join("restart")
    };
    let mut m = svc.into_list().inner;
    let mut ok = true;
    let contents = m.items();
    if contents != checker.items() {
        eprintln!("perfbench: contents differ from the oracle");
        ok = false;
    }
    if let Err(e) = m.validate() {
        eprintln!("perfbench: invariant violated: {e}");
        ok = false;
    }
    if !durable {
        m.enable_durability(&restart_dir, policy)
            .expect("snapshot for restart");
    }
    drop(m);
    let (mut r, recovery_ops_replayed) =
        M::recover(&cfg, spec.shards, &restart_dir, policy).expect("restart from disk");
    if r.items() != contents {
        eprintln!("perfbench: the restart lost or changed contents");
        ok = false;
    }
    if let Err(e) = r.validate() {
        eprintln!("perfbench: invariant violated after the restart: {e}");
        ok = false;
    }
    let recovery_pim_work = r.model().total_pim_work;
    drop(r);

    let measured = Measured {
        samples,
        setup_pim_work,
        recovery_ops_replayed,
        recovery_pim_work,
        model_window: model_window.expect("one timed round ran"),
        model_window_ops: inputs.round.len() as u64,
        model_timed,
        peak_rss,
        seam,
        durable: durable_stats,
        shard_rounds,
        probe,
        client,
        w: inputs.w,
    };
    let correct = ok && checker.other == 0;
    eprintln!(
        "perfbench: mean throughput {:.1} ops/s over {} timed rounds",
        measured.client.timed_ops as f64 / (measured.client.timed_ns as f64 / 1e9),
        rounds
    );
    eprintln!(
        "perfbench: {} seed {} | {} ops checked, {} duplicate-write faults ({} per round), {} other failures",
        spec.name, args.seed, checker.checked, checker.named_fault, inputs.probes, checker.other
    );
    let metrics = if args.trace {
        per_layer(spec, &measured)
    } else {
        end_to_end(&measured)
    };
    result_json(correct, checker.checked, checker.failed(), &metrics)
}

fn stats_delta(a: pim_core::DurableStats, b: pim_core::DurableStats) -> pim_core::DurableStats {
    pim_core::DurableStats {
        wal_frames: a.wal_frames - b.wal_frames,
        wal_bytes: a.wal_bytes - b.wal_bytes,
        fsyncs: a.fsyncs - b.fsyncs,
        snapshots: a.snapshots - b.snapshots,
        compacted_segments: a.compacted_segments - b.compacted_segments,
    }
}

type MetricList = Vec<(String, f64, &'static str)>;

/// Each batch position's median across the run's timed rounds. A round
/// repeats the same batches, so a burst of host noise (or one slow fsync)
/// moves single samples of a position, not its median.
fn batch_medians(batch_ns: &[u64], batches_per_round: usize) -> Vec<u64> {
    let rounds = batch_ns.len() / batches_per_round;
    let mut samples = Vec::with_capacity(rounds);
    (0..batches_per_round)
        .map(|b| {
            samples.clear();
            samples.extend((0..rounds).map(|r| batch_ns[r * batches_per_round + b]));
            quantile(&mut samples, 0.5)
        })
        .collect()
}

fn end_to_end(m: &Measured) -> MetricList {
    let ops = m.model_window_ops as f64;
    let w = &m.model_window;
    let mut med = batch_medians(&m.client.batch_ns, gen::ROUND_BATCHES);
    let round_ns: u64 = med.iter().sum();
    vec![
        (
            "throughput_ops_s".into(),
            (gen::ROUND_BATCHES * m.w) as f64 / (round_ns as f64 / 1e9),
            "ops/s",
        ),
        (
            "latency_p50_us".into(),
            quantile(&mut med, 0.50) as f64 / 1e3,
            "us",
        ),
        (
            "latency_p99_us".into(),
            quantile(&mut med, 0.99) as f64 / 1e3,
            "us",
        ),
        ("setup_s".into(), median(m.samples.setup_s.clone()), "s"),
        ("peak_rss_mib".into(), m.peak_rss, "MiB"),
        (
            "recovery_s".into(),
            median(m.samples.recovery_s.clone()),
            "s",
        ),
        (
            "model_rounds_per_kop".into(),
            w.rounds as f64 * 1e3 / ops,
            "rounds/kop",
        ),
        (
            "model_io_time_per_op".into(),
            w.io_time as f64 / ops,
            "io/op",
        ),
        (
            "model_pim_time_per_op".into(),
            w.pim_time as f64 / ops,
            "work/op",
        ),
        (
            "model_cpu_work_per_op".into(),
            w.cpu_work as f64 / ops,
            "work/op",
        ),
    ]
}

fn per_layer(spec: &Spec, m: &Measured) -> MetricList {
    let c = &m.client;
    let ops = c.timed_ops as f64;
    let batches = c.batch_ns.len() as f64;
    let s = &m.seam;
    let t = &m.model_timed;
    let per = |num: u64, den: f64| if den > 0.0 { num as f64 / den } else { 0.0 };
    let mut rounds = c.batch_rounds.clone();
    let mut out: MetricList = vec![
        (
            "service.self_us_per_batch".into(),
            per(c.timed_ns - s.exec_ns - s.sync_ns, batches) / 1e3,
            "us",
        ),
        (
            "service.ops_per_run".into(),
            per(s.exec_ops, s.exec_runs as f64),
            "ops/run",
        ),
        (
            "core.runs_per_batch".into(),
            per(s.exec_runs, s.exec_calls as f64),
            "runs/batch",
        ),
        (
            "service.latency_rounds_p50".into(),
            quantile(&mut rounds, 0.50) as f64,
            "rounds",
        ),
        (
            "service.latency_rounds_p99".into(),
            quantile(&mut rounds, 0.99) as f64,
            "rounds",
        ),
        (
            "core.execute_us_per_batch".into(),
            per(s.exec_ns, s.exec_calls as f64) / 1e3,
            "us",
        ),
    ];

    // Probe spans, aggregated by span name (exclusive cost).
    let mut by_name: Vec<(&str, Metrics)> =
        SPANS.iter().map(|&n| (n, Metrics::default())).collect();
    let mut shared_peak = 0;
    if let Some(probe) = &m.probe {
        for (path, _, _, stats) in probe.by_path() {
            shared_peak = shared_peak.max(stats.shared_mem_peak);
            let leaf = path.rsplit(" > ").next().unwrap_or(&path);
            if let Some((_, agg)) = by_name.iter_mut().find(|(n, _)| *n == leaf) {
                agg.rounds += stats.rounds;
                agg.io_time += stats.io_time;
                agg.total_pim_work += stats.total_pim_work;
                agg.cpu_work += stats.cpu_work;
            }
        }
    }
    for (name, a) in &by_name {
        let base = format!("core.{}", name.replace('/', "."));
        out.push((
            format!("{base}.rounds_per_kop"),
            per(a.rounds * 1000, ops),
            "rounds/kop",
        ));
        out.push((
            format!("{base}.io_time_per_op"),
            per(a.io_time, ops),
            "io/op",
        ));
        out.push((
            format!("{base}.pim_work_per_op"),
            per(a.total_pim_work, ops),
            "work/op",
        ));
        out.push((
            format!("{base}.cpu_work_per_op"),
            per(a.cpu_work, ops),
            "work/op",
        ));
    }

    let p = spec.p as f64;
    let d = &m.durable;
    let shard_max = m.shard_rounds.iter().copied().max().unwrap_or(0);
    let shard_mean = m.shard_rounds.iter().sum::<u64>() as f64 / m.shard_rounds.len().max(1) as f64;
    let cluster = spec.shards > 0;
    out.extend([
        (
            "runtime.messages_per_op".into(),
            per(t.total_messages, ops),
            "msgs/op",
        ),
        (
            "runtime.io_balance".into(),
            per(t.io_time, t.total_messages as f64 / p),
            "ratio",
        ),
        (
            "runtime.pim_balance".into(),
            per(t.pim_time, t.total_pim_work as f64 / p),
            "ratio",
        ),
        (
            "runtime.shared_mem_peak_words".into(),
            shared_peak as f64,
            "words",
        ),
        (
            "module.pim_work_per_op".into(),
            per(t.total_pim_work, ops),
            "work/op",
        ),
        (
            "durable.wal_frames_per_kop".into(),
            per(d.wal_frames * 1000, ops),
            "frames/kop",
        ),
        (
            "durable.wal_bytes_per_op".into(),
            per(d.wal_bytes, ops),
            "B/op",
        ),
        (
            "durable.fsyncs_per_kop".into(),
            per(d.fsyncs * 1000, ops),
            "fsyncs/kop",
        ),
        (
            "durable.sync_us_per_call".into(),
            per(s.sync_ns, s.sync_calls as f64) / 1e3,
            "us",
        ),
        ("durable.snapshots".into(), d.snapshots as f64, "count"),
        (
            "durable.enable_s".into(),
            if m.samples.enable_s.is_empty() {
                0.0
            } else {
                median(m.samples.enable_s.clone())
            },
            "s",
        ),
        ("setup.load_s".into(), median(m.samples.load_s.clone()), "s"),
        (
            "setup.pim_work_per_key".into(),
            per(m.setup_pim_work, spec.n as f64),
            "work/key",
        ),
        (
            "durable.recovery_ops_replayed".into(),
            m.recovery_ops_replayed as f64,
            "ops",
        ),
        (
            "durable.recovery_pim_work".into(),
            m.recovery_pim_work as f64,
            "work",
        ),
        (
            "cluster.shard_rounds_max_per_kop".into(),
            if cluster {
                per(shard_max * 1000, ops)
            } else {
                0.0
            },
            "rounds/kop",
        ),
        (
            "cluster.shard_round_imbalance".into(),
            if cluster && shard_mean > 0.0 {
                shard_max as f64 / shard_mean
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "cluster.execute_us_per_batch".into(),
            if cluster {
                per(s.exec_ns, s.exec_calls as f64) / 1e3
            } else {
                0.0
            },
            "us",
        ),
    ]);
    out
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &MetricList) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two rounds of `spec` on a seed no run or tuning used.
    fn replay<M: Machine>(spec: &Spec) -> (Checker, u64) {
        let seed = 0x00C0_FFEE_2026;
        let inputs = gen::generate(spec, seed);
        let cfg = Config::new(spec.p, spec.n as u64, MACHINE_SEED);
        let backend = Timed::new(M::build(&cfg, spec.shards, &inputs.load), false);
        let svc_cfg = ServiceConfig::for_backend(&backend);
        let mut svc = PimService::new(backend, svc_cfg);
        let mut checker = Checker::new(inputs.load.iter().copied());
        let mut client = Client::new(inputs.w);
        for _ in 0..2 {
            client.run(&mut svc, &inputs.round, &mut checker, false);
        }
        assert_eq!(svc.list().inner.items(), checker.items());
        svc.list().inner.validate().expect("invariants hold");
        (checker, 2 * inputs.probes)
    }

    #[test]
    fn held_out_seed_fails_only_by_the_named_fault() {
        pim_runtime::pool::configure(ExecConfig::with_threads(1));
        for spec in gen::specs() {
            let (checker, probes) = if spec.shards > 0 {
                replay::<PimCluster>(&spec)
            } else {
                replay::<PimSkipList>(&spec)
            };
            assert_eq!(checker.other, 0, "{}: unexplained failures", spec.name);
            assert_eq!(
                checker.named_fault, probes,
                "{}: one fault per probe",
                spec.name
            );
        }
    }
}
