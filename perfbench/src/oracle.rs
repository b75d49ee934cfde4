//! The correctness checker: a sequential `BTreeMap` oracle fed the same
//! op stream in arrival order, computed apart from the program.
//!
//! Every reply is compared with what `pim-service` promises: operations
//! take effect in arrival order, so a `Get` observes every earlier write.
//! A mismatch is a failure. Failures fall in two classes:
//!
//! * **named fault** — the mismatch involves a key written twice inside
//!   one write run of one dispatched batch. The batch dedup resolves such
//!   duplicates first-wins, so the later write is dropped even though its
//!   reply reports success (`Update(k,1), Update(k,2), Get(k)` answers
//!   `Value(Some(1))`; a second `Upsert` of a fresh key answers `Inserted`;
//!   a second `Delete` answers `Deleted(true)`). After such a mismatch the
//!   oracle adopts the machine's state for that key, so the fault is
//!   counted once per observation and does not cascade.
//! * **other** — anything else. The oracle stays authoritative (it does
//!   not adopt the wrong answer), so one wrong reply is counted once.

use std::collections::{BTreeMap, BTreeSet};

use pim_core::{Key, Op, RangeFunc, Reply, UpsertOutcome, Value};

/// Sequential reference model plus failure tallies.
pub struct Checker {
    map: BTreeMap<Key, Value>,
    /// Keys whose machine state may differ from the contract because of a
    /// same-run duplicate write (cleared once observed or rewritten).
    tainted: BTreeSet<Key>,
    /// Scratch: keys of the write run being scanned, and keys duplicated
    /// inside one run of the current batch.
    run_keys: Vec<Key>,
    dups: Vec<Key>,
    /// Replies checked.
    pub checked: u64,
    /// Mismatches explained by the duplicate-write fault.
    pub named_fault: u64,
    /// Mismatches nothing explains.
    pub other: u64,
}

/// The contract's answer for one op, plus the key's value before it ran
/// (so a dropped duplicate write can be undone).
struct Expected {
    reply: Reply,
    prior: Option<Value>,
}

impl Checker {
    /// An oracle holding `items`.
    pub fn new(items: impl IntoIterator<Item = (Key, Value)>) -> Self {
        Checker {
            map: items.into_iter().collect(),
            tainted: BTreeSet::new(),
            run_keys: Vec::new(),
            dups: Vec::new(),
            checked: 0,
            named_fault: 0,
            other: 0,
        }
    }

    /// Failures of either class.
    pub fn failed(&self) -> u64 {
        self.named_fault + self.other
    }

    /// The oracle's contents in key order.
    pub fn items(&self) -> Vec<(Key, Value)> {
        self.map.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Check one dispatched batch: `ops` in arrival order and the reply
    /// each received (compared after [`normalise`]).
    pub fn check_batch(&mut self, ops: &[Op], replies: &[Reply]) {
        assert_eq!(ops.len(), replies.len(), "one reply per op");
        self.find_run_duplicates(ops);
        for (op, got) in ops.iter().zip(replies) {
            self.checked += 1;
            let got = &normalise(got.clone());
            let want = self.apply(op);
            if *got == want.reply {
                if let Some(k) = op.key() {
                    self.clear_taint(op, k);
                }
                continue;
            }
            if self.explained_by_fault(op, got, &want.reply) {
                self.named_fault += 1;
                self.adopt(op, got, want.prior);
            } else {
                self.other += 1;
            }
        }
    }

    /// Mark keys written twice inside one write run. Writes keep arrival
    /// order inside a batch, and a run is a maximal stretch of consecutive
    /// writes of one kind (the service splits batches at every read/write
    /// boundary, and `execute` splits at every change of kind).
    fn find_run_duplicates(&mut self, ops: &[Op]) {
        self.run_keys.clear();
        self.dups.clear();
        let mut prev: Option<&Op> = None;
        for op in ops {
            let same_run = prev.is_some_and(|p| p.is_write() && op.coalesces_with(p));
            if !same_run {
                self.run_keys.clear();
            }
            prev = Some(op);
            let (true, Some(k)) = (op.is_write(), op.key()) else {
                continue;
            };
            if self.run_keys.contains(&k) {
                self.dups.push(k);
            } else {
                self.run_keys.push(k);
            }
        }
        self.tainted.extend(self.dups.iter().copied());
    }

    /// The contract's reply to `op`, applied to the oracle.
    fn apply(&mut self, op: &Op) -> Expected {
        match *op {
            Op::Get { key } => Expected {
                reply: Reply::Value(self.map.get(&key).copied()),
                prior: None,
            },
            Op::Update { key, value } => {
                let prior = self.map.get(&key).copied();
                if prior.is_some() {
                    self.map.insert(key, value);
                }
                Expected {
                    reply: Reply::Updated(prior.is_some()),
                    prior,
                }
            }
            Op::Upsert { key, value } => {
                let prior = self.map.insert(key, value);
                let outcome = if prior.is_some() {
                    UpsertOutcome::Updated
                } else {
                    UpsertOutcome::Inserted
                };
                Expected {
                    reply: Reply::Upserted(outcome),
                    prior,
                }
            }
            Op::Delete { key } => {
                let prior = self.map.remove(&key);
                Expected {
                    reply: Reply::Deleted(prior.is_some()),
                    prior,
                }
            }
            Op::Successor { key } => Expected {
                reply: entry(self.map.range(key..).next()),
                prior: None,
            },
            Op::Predecessor { key } => Expected {
                reply: entry(self.map.range(..=key).next_back()),
                prior: None,
            },
            Op::Range { lo, hi, func } => Expected {
                reply: self.range(lo, hi, func),
                prior: None,
            },
        }
    }

    /// Ranges are compared on the reduction the benchmark issues (`Sum`,
    /// wrapping like the machine's u64 arithmetic) and on the pair count.
    fn range(&self, lo: Key, hi: Key, func: RangeFunc) -> Reply {
        assert_eq!(func, RangeFunc::Sum, "the benchmark issues Sum ranges only");
        let mut r = pim_core::RangeResult::empty();
        for (_, &v) in self.map.range(lo..=hi) {
            r.count += 1;
            r.sum = r.sum.wrapping_add(v);
        }
        Reply::Range(r)
    }

    fn explained_by_fault(&self, op: &Op, got: &Reply, want: &Reply) -> bool {
        match *op {
            Op::Range { lo, hi, .. } => self.tainted.range(lo..=hi).next().is_some(),
            _ => {
                let key = op.key().expect("point op");
                let answer_keys = [entry_key(got), entry_key(want)];
                self.tainted.contains(&key)
                    || answer_keys
                        .iter()
                        .flatten()
                        .any(|k| self.tainted.contains(k))
            }
        }
    }

    /// After a fault-explained mismatch, take the machine's state for the
    /// key as the new truth.
    fn adopt(&mut self, op: &Op, got: &Reply, prior: Option<Value>) {
        match (*op, got) {
            (Op::Get { key }, Reply::Value(v)) => {
                match v {
                    Some(v) => self.map.insert(key, *v),
                    None => self.map.remove(&key),
                };
                self.tainted.remove(&key);
            }
            // A dropped duplicate Upsert: the first write's value stands.
            (Op::Upsert { key, .. }, Reply::Upserted(UpsertOutcome::Inserted)) => {
                if let Some(v) = prior {
                    self.map.insert(key, v);
                }
            }
            _ => {}
        }
    }

    /// A write outside a duplicate run, or a matching read, brings the key
    /// back in step with the machine.
    fn clear_taint(&mut self, op: &Op, key: Key) {
        if !self.tainted.contains(&key) || self.dups.contains(&key) {
            return;
        }
        if !matches!(op, Op::Successor { .. } | Op::Predecessor { .. }) {
            self.tainted.remove(&key);
        }
    }
}

fn entry(e: Option<(&Key, &Value)>) -> Reply {
    Reply::Entry(e.map(|(&k, _)| (k, pim_runtime::Handle::NULL)))
}

fn entry_key(r: &Reply) -> Option<Key> {
    match r {
        Reply::Entry(Some((k, _))) => Some(*k),
        _ => None,
    }
}

/// Replies as the checker compares them: `Entry` handles are machine-local
/// (a cluster's differ from a single machine's), so only the key counts;
/// ranges compare the `Sum` reduction and count.
fn normalise(reply: Reply) -> Reply {
    match reply {
        Reply::Entry(e) => Reply::Entry(e.map(|(k, _)| (k, pim_runtime::Handle::NULL))),
        Reply::Range(r) => {
            let mut n = pim_core::RangeResult::empty();
            n.count = r.count;
            n.sum = r.sum;
            Reply::Range(n)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> Checker {
        Checker::new([(10, 100), (20, 200), (30, 300)])
    }

    #[test]
    fn correct_replies_pass() {
        let mut c = checker();
        let ops = [
            Op::Get { key: 10 },
            Op::Update { key: 20, value: 7 },
            Op::Upsert { key: 25, value: 5 },
            Op::Delete { key: 30 },
            Op::Successor { key: 21 },
            Op::Predecessor { key: 29 },
            Op::Range {
                lo: 0,
                hi: 100,
                func: RangeFunc::Sum,
            },
        ];
        let mut sum = pim_core::RangeResult::empty();
        sum.count = 3;
        sum.sum = 112;
        let replies = [
            Reply::Value(Some(100)),
            Reply::Updated(true),
            Reply::Upserted(UpsertOutcome::Inserted),
            Reply::Deleted(true),
            Reply::Entry(Some((25, pim_runtime::Handle::NULL))),
            Reply::Entry(Some((25, pim_runtime::Handle::NULL))),
            Reply::Range(sum),
        ];
        c.check_batch(&ops, &replies);
        assert_eq!((c.checked, c.failed()), (7, 0));
        assert_eq!(c.items(), vec![(10, 100), (20, 7), (25, 5)]);
    }

    #[test]
    fn one_wrong_reply_is_flagged_exactly_once() {
        let mut c = checker();
        let get = [Op::Get { key: 10 }];
        c.check_batch(&get, &[Reply::Value(Some(101))]);
        c.check_batch(&get, &[Reply::Value(Some(100))]);
        c.check_batch(&[Op::Get { key: 20 }], &[Reply::Value(Some(200))]);
        assert_eq!((c.other, c.named_fault), (1, 0));
    }

    #[test]
    fn dropped_duplicate_update_is_the_named_fault() {
        let mut c = checker();
        let ops = [
            Op::Update { key: 10, value: 1 },
            Op::Update { key: 10, value: 2 },
        ];
        c.check_batch(&ops, &[Reply::Updated(true), Reply::Updated(true)]);
        assert_eq!(c.failed(), 0, "both replies are what the contract says");
        c.check_batch(&[Op::Get { key: 10 }], &[Reply::Value(Some(1))]);
        assert_eq!((c.named_fault, c.other), (1, 0));
        // The oracle adopted the machine's value: no cascade.
        c.check_batch(&[Op::Get { key: 10 }], &[Reply::Value(Some(1))]);
        assert_eq!(c.failed(), 1);
        // Once observed, the key is no longer excused.
        c.check_batch(&[Op::Get { key: 10 }], &[Reply::Value(Some(2))]);
        assert_eq!((c.named_fault, c.other), (1, 1));
    }

    #[test]
    fn duplicate_upsert_and_delete_are_the_named_fault() {
        let mut c = checker();
        let ops = [
            Op::Upsert { key: 40, value: 1 },
            Op::Upsert { key: 40, value: 2 },
        ];
        let inserted = Reply::Upserted(UpsertOutcome::Inserted);
        c.check_batch(&ops, &[inserted.clone(), inserted]);
        assert_eq!((c.named_fault, c.other), (1, 0));
        // First write wins, and the oracle follows it.
        c.check_batch(&[Op::Get { key: 40 }], &[Reply::Value(Some(1))]);
        assert_eq!(c.failed(), 1);

        let ops = [Op::Delete { key: 20 }, Op::Delete { key: 20 }];
        c.check_batch(&ops, &[Reply::Deleted(true), Reply::Deleted(true)]);
        assert_eq!((c.named_fault, c.other), (2, 0));
    }

    #[test]
    fn writes_split_by_a_read_are_not_excused() {
        let mut c = checker();
        let ops = [
            Op::Update { key: 10, value: 1 },
            Op::Get { key: 30 },
            Op::Update { key: 10, value: 2 },
        ];
        let replies = [
            Reply::Updated(true),
            Reply::Value(Some(300)),
            Reply::Updated(true),
        ];
        c.check_batch(&ops, &replies);
        c.check_batch(&[Op::Get { key: 10 }], &[Reply::Value(Some(1))]);
        assert_eq!((c.named_fault, c.other), (0, 1));
    }
}
