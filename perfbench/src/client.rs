//! The closed-loop client: it keeps one dispatch batch of requests
//! outstanding, so every tick of the service dispatches exactly one batch
//! and completes all of it (lock-step). Replies are checked against the
//! oracle between batches, outside the timed intervals.

use std::time::Instant;

use pim_core::{Op, Reply};
use pim_service::PimService;

use crate::machine::{Machine, Timed};
use crate::oracle::Checker;

pub struct Client {
    w: usize,
    replies: Vec<Reply>,
    /// Wall time of each timed batch, submit of its first request to the
    /// tick that completed it (every request of a batch shares it).
    pub batch_ns: Vec<u64>,
    /// Machine rounds each timed batch's requests waited
    /// (`Completion::latency_rounds`).
    pub batch_rounds: Vec<u64>,
    /// Sum of `batch_ns`.
    pub timed_ns: u64,
    /// Requests completed inside timed batches.
    pub timed_ops: u64,
}

impl Client {
    pub fn new(w: usize) -> Self {
        Client {
            w,
            replies: Vec::with_capacity(w),
            batch_ns: Vec::with_capacity(1 << 18),
            batch_rounds: Vec::with_capacity(1 << 18),
            timed_ns: 0,
            timed_ops: 0,
        }
    }

    /// Run `ops` batch by batch; `timed` batches are recorded.
    pub fn run<M: Machine>(
        &mut self,
        svc: &mut PimService<Timed<M>>,
        ops: &[Op],
        checker: &mut Checker,
        timed: bool,
    ) {
        for batch in ops.chunks(self.w) {
            self.batch(svc, batch, checker, timed);
        }
    }

    fn batch<M: Machine>(
        &mut self,
        svc: &mut PimService<Timed<M>>,
        ops: &[Op],
        checker: &mut Checker,
        timed: bool,
    ) {
        let t0 = Instant::now();
        let mut first = None;
        for op in ops {
            let id = svc.submit(*op).expect("one batch fits the service queue");
            first.get_or_insert(id);
        }
        let mut done = svc.tick();
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(
            done.len(),
            ops.len(),
            "a full batch dispatches and completes within one tick"
        );
        let first = first.expect("non-empty batch");
        if timed {
            self.batch_ns.push(ns);
            self.batch_rounds.push(done[0].latency_rounds);
            self.timed_ns += ns;
            self.timed_ops += ops.len() as u64;
        }
        self.replies.clear();
        for (i, c) in done.drain(..).enumerate() {
            assert_eq!(
                c.id,
                first + i as u64,
                "completions arrive in arrival order"
            );
            self.replies.push(c.reply);
        }
        checker.check_batch(ops, &self.replies);
    }
}

/// The `q`-quantile (nearest rank) of `v`, reordering `v`.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    *v.select_nth_unstable(rank).1
}
