//! Workload definitions and their seeded inputs.
//!
//! Every input is generated before the timed phase. A workload is one
//! *round* of `ROUND_BATCHES` dispatch batches of `w` ops each; a run replays
//! the round whole, again and again, so every run attempts the same ops
//! in the same proportions whatever its length. Rounds leave the resident
//! set as they found it (writes only rewrite values, or insert fresh keys
//! that a later batch deletes), so the structure stays at a steady size.
//!
//! No random part of a round writes one key twice inside one batch: the
//! batch dedup would resolve such a pair first-wins (see `oracle.rs`), a
//! fault that would then hit a seed-dependent number of ops. The fault is
//! measured instead by a fixed probe on a key no random op touches.

use pim_core::{Key, Op, RangeFunc, Value};
use pim_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The operation families a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointLookup,
    OrderedScan,
    DurableIngest,
    ShardedMixed,
}

/// One named workload: its make-up and the machine it runs on.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// PIM modules per machine.
    pub p: u32,
    /// Resident keys after set-up.
    pub n: usize,
    /// Cluster shards; 0 runs one machine without the router.
    pub shards: u32,
    /// `PIM_THREADS` the workload pins.
    pub threads: usize,
}

/// Average gap between adjacent keys of a single machine's key universe.
const GAP: Key = 64;
/// Keys a short range spans on average.
const RANGE_KEYS: Key = 8;
/// The probe key of the duplicate-write fault: resident, never drawn by a
/// random op, below every other key.
const PROBE_KEY: Key = 0;
/// Fresh-key inserts (and as many deletes) per batch in durable-ingest.
const INGEST_WRITES: usize = 16;
/// A fresh key is deleted this many batches after its insert.
const DELETE_LAG: usize = 4;
/// Fresh keys come in this many blocks, reused cyclically.
const FRESH_BLOCKS: usize = 64;
/// Zipf exponent of key popularity in every workload.
const THETA: f64 = 0.99;
/// Batches per round. Latency quantiles are taken over a round's batches,
/// so a round holds enough of them for a 99th percentile with ten
/// batches beyond it.
pub const ROUND_BATCHES: usize = 1024;

pub fn specs() -> [Spec; 4] {
    [
        Spec {
            name: "point-lookup",
            kind: Kind::PointLookup,
            p: 16,
            n: 1 << 14,
            shards: 0,
            threads: 1,
        },
        Spec {
            name: "ordered-scan",
            kind: Kind::OrderedScan,
            p: 16,
            n: 1 << 14,
            shards: 0,
            threads: 1,
        },
        Spec {
            name: "durable-ingest",
            kind: Kind::DurableIngest,
            p: 16,
            n: 1 << 14,
            shards: 0,
            threads: 1,
        },
        Spec {
            name: "sharded-mixed",
            kind: Kind::ShardedMixed,
            p: 8,
            n: 1 << 14,
            shards: 4,
            // Two pool threads leave throughput where one thread has it but
            // make set-up and restart slower and unsteady (see README).
            threads: 1,
        },
    ]
}

/// Everything a run feeds the program.
pub struct Inputs {
    /// Set-up contents, strictly ascending.
    pub load: Vec<(Key, Value)>,
    /// One round of `ROUND_BATCHES` batches, batch-major: batch `b` is
    /// `round[b * w..(b + 1) * w]`.
    pub round: Vec<Op>,
    /// Ops per batch.
    pub w: usize,
    /// Probe failures per round (each fails every time).
    pub probes: u64,
}

/// Seeded key universe: `n` resident keys ranked by popularity, plus
/// `fresh` keys that are not resident at set-up.
struct Universe {
    base: Vec<Key>,
    fresh: Vec<Key>,
    /// `base` ∪ `fresh`, in popularity order.
    pool: Vec<Key>,
    gap: Key,
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

impl Universe {
    fn new(rng: &mut StdRng, spec: &Spec, fresh: usize, seed: u64) -> Self {
        let total = spec.n + fresh;
        let (mut keys, gap) = if spec.shards > 0 {
            // Spread over the whole key line so every shard is loaded.
            let keys = pim_workloads::domain_spread_keys(seed, total);
            let gap = (u64::MAX / total as u64).min(Key::MAX as u64) as Key;
            (keys, gap)
        } else {
            let keys = (0..total as Key)
                .map(|i| 1 + i * GAP + rng.gen_range(0..GAP))
                .collect();
            (keys, GAP)
        };
        shuffle(rng, &mut keys);
        let fresh = keys.split_off(spec.n);
        let mut pool: Vec<Key> = keys.iter().chain(&fresh).copied().collect();
        shuffle(rng, &mut pool);
        Universe {
            base: keys,
            fresh,
            pool,
            gap,
        }
    }

    /// A query key near `anchor`, within half a gap either side.
    fn near(&self, rng: &mut StdRng, anchor: Key) -> Key {
        let jitter = rng.gen_range(0..self.gap) - self.gap / 2;
        anchor.saturating_add(jitter).max(Key::MIN + 1)
    }

    fn short_range(&self, anchor: Key) -> Op {
        Op::Range {
            lo: anchor,
            hi: anchor.saturating_add(RANGE_KEYS * self.gap),
            func: RangeFunc::Sum,
        }
    }
}

/// Ops per dispatch batch: the service's default `max_batch` for the
/// workload's backend (`P log² P` per machine, times the shard count).
pub fn batch_size(spec: &Spec) -> usize {
    pim_core::Config::new(spec.p, spec.n as u64, 0).batch_large() * spec.shards.max(1) as usize
}

/// The seeded inputs of `spec`.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let w = batch_size(spec);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0FB4_7C4E);
    let fresh = match spec.kind {
        Kind::DurableIngest => FRESH_BLOCKS * INGEST_WRITES,
        Kind::ShardedMixed => FRESH_BLOCKS * (w / 10),
        _ => 0,
    };
    let u = Universe::new(&mut rng, spec, fresh, seed);
    let mut load: Vec<(Key, Value)> = u.base.iter().map(|&k| (k, rng.gen())).collect();
    let mut probes = 0;
    if spec.kind == Kind::PointLookup {
        load.push((PROBE_KEY, 0));
        probes = 1;
    }
    load.sort_unstable();
    let zipf_base = Zipf::new(u.base.len() as u64, THETA);
    let zipf_pool = Zipf::new(u.pool.len() as u64, THETA);
    let mut round = Vec::with_capacity(ROUND_BATCHES * w);
    let mut written: Vec<Key> = Vec::new();
    for b in 0..ROUND_BATCHES {
        let batch_start = round.len();
        written.clear();
        match spec.kind {
            Kind::PointLookup => {
                // 95% Get / 5% Update over resident keys.
                for _ in 0..w {
                    let key = u.base[zipf_base.sample(&mut rng) as usize];
                    if rng.gen_range(0..100) < 5 && !written.contains(&key) {
                        written.push(key);
                        round.push(Op::Update {
                            key,
                            value: rng.gen(),
                        });
                    } else {
                        round.push(Op::Get { key });
                    }
                }
                // The probe: two Updates of one key in one run, read back
                // in the next batch.
                match b {
                    0 => {
                        round[batch_start] = Op::Update {
                            key: PROBE_KEY,
                            value: 1,
                        };
                        round[batch_start + 1] = Op::Update {
                            key: PROBE_KEY,
                            value: 2,
                        };
                    }
                    1 => round[batch_start] = Op::Get { key: PROBE_KEY },
                    _ => {}
                }
            }
            Kind::OrderedScan => {
                // 70% Successor / 15% Predecessor / 15% short Range Sum.
                for _ in 0..w {
                    let anchor = u.base[zipf_base.sample(&mut rng) as usize];
                    let r = rng.gen_range(0..100);
                    round.push(if r < 70 {
                        Op::Successor {
                            key: u.near(&mut rng, anchor),
                        }
                    } else if r < 85 {
                        Op::Predecessor {
                            key: u.near(&mut rng, anchor),
                        }
                    } else {
                        u.short_range(anchor)
                    });
                }
            }
            Kind::DurableIngest => {
                push_fresh_writes(&mut round, &mut rng, &u, b, INGEST_WRITES);
                while round.len() < batch_start + w {
                    let key = u.pool[zipf_pool.sample(&mut rng) as usize];
                    round.push(Op::Get { key });
                }
                shuffle(&mut rng, &mut round[batch_start..]);
            }
            Kind::ShardedMixed => {
                // OpMix::mixed: 40 Get, 20 Update, 10 Upsert, 10 Delete,
                // 10 Successor, 5 Predecessor, 5 Range Sum. Upserts take
                // fresh keys and Deletes remove them again, so the
                // Upsert/Delete shares are exact per batch.
                push_fresh_writes(&mut round, &mut rng, &u, b, w / 10);
                while round.len() < batch_start + w {
                    let r = rng.gen_range(0..80);
                    let anchor = u.pool[zipf_pool.sample(&mut rng) as usize];
                    round.push(if r < 40 {
                        Op::Get { key: anchor }
                    } else if r < 60 {
                        let key = u.base[zipf_base.sample(&mut rng) as usize];
                        if written.contains(&key) {
                            Op::Get { key }
                        } else {
                            written.push(key);
                            Op::Update {
                                key,
                                value: rng.gen(),
                            }
                        }
                    } else if r < 70 {
                        Op::Successor {
                            key: u.near(&mut rng, anchor),
                        }
                    } else if r < 75 {
                        Op::Predecessor {
                            key: u.near(&mut rng, anchor),
                        }
                    } else {
                        u.short_range(anchor)
                    });
                }
                shuffle(&mut rng, &mut round[batch_start..]);
            }
        }
    }
    Inputs {
        load,
        round,
        w,
        probes,
    }
}

/// Batch `b`'s fresh-key writes: insert block `b`, delete the block
/// inserted `DELETE_LAG` batches earlier (blocks cycle, so a round leaves
/// the resident set as it found it after the first).
fn push_fresh_writes(
    round: &mut Vec<Op>,
    rng: &mut StdRng,
    u: &Universe,
    b: usize,
    per_batch: usize,
) {
    let block = |i: usize| {
        let i = i % FRESH_BLOCKS;
        &u.fresh[i * per_batch..(i + 1) * per_batch]
    };
    for &key in block(b) {
        round.push(Op::Upsert {
            key,
            value: rng.gen(),
        });
    }
    for &key in block(b + FRESH_BLOCKS - DELETE_LAG) {
        round.push(Op::Delete { key });
    }
}
