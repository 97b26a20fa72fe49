//! Sound-and-complete linearizability checking for FIFO histories.
//!
//! Implementation of the Wing–Gong search (1993) with Lowe's memoization
//! (2017): repeatedly pick a *minimal* pending operation — one that no
//! other unlinearized operation wholly precedes — apply it to a model
//! `VecDeque`, and recurse; a visited-state cache of
//! `(linearized-set, model-queue)` pairs prunes re-exploration. The search
//! succeeds iff some linearization of the history matches the sequential
//! FIFO specification, which is the definition of linearizability.
//!
//! Worst-case exponential; intended for histories up to ~100 operations
//! (the stress tests record short windows precisely so this checker can
//! certify them).

use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};

use crate::history::{History, OpKind, Operation};

/// Outcome of the exhaustive check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// A valid linearization exists (witness: operation indices in
    /// linearization order).
    Linearizable(Vec<usize>),
    /// No linearization exists.
    NotLinearizable,
    /// The search exceeded `max_states` explored states.
    Inconclusive,
}

impl CheckResult {
    /// True for [`CheckResult::Linearizable`].
    pub fn is_ok(&self) -> bool {
        matches!(self, CheckResult::Linearizable(_))
    }
}

/// Exhaustively checks `history` against the FIFO queue specification.
///
/// `max_states` bounds the number of distinct search states explored
/// (10^6 is plenty for ≤100-op histories).
pub fn check(history: &History, max_states: usize) -> CheckResult {
    let ops: Vec<Operation> = history.sorted_by_invoke();
    let n = ops.len();
    if n == 0 {
        return CheckResult::Linearizable(Vec::new());
    }
    if n > 128 {
        // The bitset below is two u64 words; larger histories should use
        // the invariant checker anyway.
        return CheckResult::Inconclusive;
    }

    let mut searcher = Searcher {
        ops: &ops,
        seen: HashSet::new(),
        explored: 0,
        max_states,
        witness: Vec::with_capacity(n),
    };
    let mut queue = VecDeque::new();
    match searcher.dfs(Bits::default(), &mut queue) {
        Some(true) => CheckResult::Linearizable(searcher.witness.clone()),
        Some(false) => CheckResult::NotLinearizable,
        None => CheckResult::Inconclusive,
    }
}

/// 128-bit set of linearized operation indices.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
struct Bits([u64; 2]);

impl Bits {
    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }
    #[inline]
    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    #[inline]
    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
    #[inline]
    fn len(&self) -> u32 {
        self.0[0].count_ones() + self.0[1].count_ones()
    }
}

struct Searcher<'h> {
    ops: &'h [Operation],
    seen: HashSet<u64>,
    explored: usize,
    max_states: usize,
    witness: Vec<usize>,
}

impl Searcher<'_> {
    /// DFS over linearization prefixes. Returns Some(true) on success,
    /// Some(false) on exhausted search, None on state-budget overrun.
    fn dfs(&mut self, done: Bits, queue: &mut VecDeque<u64>) -> Option<bool> {
        let n = self.ops.len();
        if done.len() as usize == n {
            return Some(true);
        }
        // Memoize on (done-set, queue-contents).
        let key = state_key(done, queue);
        if !self.seen.insert(key) {
            return Some(false);
        }
        self.explored += 1;
        if self.explored > self.max_states {
            return None;
        }

        // The earliest response among unlinearized ops bounds which ops
        // may linearize next: op i is eligible iff it invoked before every
        // unlinearized op's response, i.e. invoke(i) <= min_response.
        let mut min_response = u64::MAX;
        for (i, op) in self.ops.iter().enumerate() {
            if !done.contains(i) {
                min_response = min_response.min(op.response);
            }
        }

        for i in 0..n {
            if done.contains(i) {
                continue;
            }
            let op = &self.ops[i];
            if op.invoke > min_response {
                // Some other pending op finished before this one started:
                // that op must linearize first. ops are invoke-sorted, so
                // no later op can be eligible either.
                break;
            }
            // Try to apply op to the model queue.
            let applied = match op.kind {
                OpKind::Enqueue(v) => {
                    queue.push_back(v);
                    true
                }
                OpKind::Dequeue(Some(v)) => {
                    if queue.front() == Some(&v) {
                        queue.pop_front();
                        true
                    } else {
                        false
                    }
                }
                OpKind::Dequeue(None) => queue.is_empty(),
            };
            if !applied {
                continue;
            }
            let mut next = done;
            next.insert(i);
            self.witness.push(i);
            match self.dfs(next, queue) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => return None,
            }
            self.witness.pop();
            // Undo the model mutation.
            match op.kind {
                OpKind::Enqueue(_) => {
                    queue.pop_back();
                }
                OpKind::Dequeue(Some(v)) => queue.push_front(v),
                OpKind::Dequeue(None) => {}
            }
            let mut undo = next;
            undo.remove(i);
            debug_assert_eq!(undo, done);
        }
        Some(false)
    }
}

fn state_key(done: Bits, queue: &VecDeque<u64>) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    done.0.hash(&mut h);
    queue.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpKind::{Dequeue, Enqueue};

    fn op(thread: usize, kind: OpKind, invoke: u64, response: u64) -> Operation {
        Operation { thread, kind, invoke, response }
    }

    fn check_h(ops: Vec<Operation>) -> CheckResult {
        check(&History::from_ops(ops), 1_000_000)
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_h(vec![]).is_ok());
    }

    #[test]
    fn sequential_fifo_accepted() {
        let h = History::sequential(&[
            Enqueue(1),
            Enqueue(2),
            Dequeue(Some(1)),
            Dequeue(Some(2)),
            Dequeue(None),
        ]);
        assert!(check(&h, 1_000_000).is_ok());
    }

    #[test]
    fn sequential_lifo_rejected() {
        let h = History::sequential(&[
            Enqueue(1),
            Enqueue(2),
            Dequeue(Some(2)), // stack order: illegal for a queue
            Dequeue(Some(1)),
        ]);
        assert_eq!(check(&h, 1_000_000), CheckResult::NotLinearizable);
    }

    #[test]
    fn overlapping_enqueues_allow_either_dequeue_order() {
        let ops = vec![
            op(0, Enqueue(1), 0, 10),
            op(1, Enqueue(2), 1, 9),
            op(0, Dequeue(Some(2)), 11, 12),
            op(1, Dequeue(Some(1)), 13, 14),
        ];
        assert!(check_h(ops).is_ok());
    }

    #[test]
    fn non_overlapping_enqueues_pin_the_order() {
        let ops = vec![
            op(0, Enqueue(1), 0, 1),
            op(1, Enqueue(2), 2, 3),
            op(0, Dequeue(Some(2)), 4, 5),
            op(1, Dequeue(Some(1)), 6, 7),
        ];
        assert_eq!(check_h(ops), CheckResult::NotLinearizable);
    }

    #[test]
    fn empty_must_have_a_moment_of_emptiness() {
        // enq(1) [0,1], deq(EMPTY) [2,3] with 1 never dequeued: illegal.
        let ops = vec![op(0, Enqueue(1), 0, 1), op(1, Dequeue(None), 2, 3)];
        assert_eq!(check_h(ops), CheckResult::NotLinearizable);
        // But overlapping: EMPTY can linearize first.
        let ops = vec![op(0, Enqueue(1), 0, 5), op(1, Dequeue(None), 2, 3)];
        assert!(check_h(ops).is_ok());
    }

    #[test]
    fn witness_is_a_valid_linearization() {
        let h = History::sequential(&[Enqueue(5), Dequeue(Some(5)), Dequeue(None)]);
        match check(&h, 1_000_000) {
            CheckResult::Linearizable(w) => {
                assert_eq!(w.len(), 3);
                // Replay the witness against a model queue.
                let ops = h.sorted_by_invoke();
                let mut q = VecDeque::new();
                for &i in &w {
                    match ops[i].kind {
                        Enqueue(v) => q.push_back(v),
                        Dequeue(Some(v)) => assert_eq!(q.pop_front(), Some(v)),
                        Dequeue(None) => assert!(q.is_empty()),
                    }
                }
            }
            other => panic!("expected linearizable, got {other:?}"),
        }
    }

    #[test]
    fn dequeue_of_unseen_value_rejected() {
        let ops = vec![op(0, Dequeue(Some(3)), 0, 1)];
        assert_eq!(check_h(ops), CheckResult::NotLinearizable);
    }

    #[test]
    fn real_time_order_is_respected() {
        // deq completes before enq begins: illegal even though values match.
        let ops = vec![
            op(0, Dequeue(Some(1)), 0, 1),
            op(1, Enqueue(1), 2, 3),
        ];
        assert_eq!(check_h(ops), CheckResult::NotLinearizable);
    }

    #[test]
    fn wide_concurrency_is_searchable() {
        // 6 fully concurrent enqueues + 6 matching dequeues afterwards.
        let mut ops = Vec::new();
        for v in 1..=6u64 {
            ops.push(op(v as usize, Enqueue(v), 0, 100));
        }
        for v in 1..=6u64 {
            ops.push(op(v as usize, Dequeue(Some(7 - v)), 101 + v, 102 + v));
        }
        // Dequeue order 6,5,4,3,2,1 is fine: enqueues all overlap.
        assert!(check_h(ops).is_ok());
    }

    #[test]
    fn oversize_history_reports_inconclusive() {
        let ops: Vec<Operation> = (0..130)
            .map(|i| op(0, Enqueue(i as u64 + 1), 2 * i, 2 * i + 1))
            .collect();
        assert_eq!(check_h(ops), CheckResult::Inconclusive);
    }

    #[test]
    fn state_budget_reports_inconclusive() {
        let mut ops = Vec::new();
        for v in 1..=20u64 {
            ops.push(op(v as usize, Enqueue(v), 0, 1000));
        }
        assert_eq!(check(&History::from_ops(ops), 3), CheckResult::Inconclusive);
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use crate::history::OpKind::{Dequeue, Enqueue};
    use crate::history::{History, Operation};

    fn op(thread: usize, kind: crate::history::OpKind, invoke: u64, response: u64) -> Operation {
        Operation { thread, kind, invoke, response }
    }

    #[test]
    fn empty_between_two_pairs_is_legal() {
        let h = History::sequential(&[
            Enqueue(1),
            Dequeue(Some(1)),
            Dequeue(None),
            Enqueue(2),
            Dequeue(Some(2)),
        ]);
        assert!(check(&h, 1_000_000).is_ok());
    }

    #[test]
    fn concurrent_empty_and_enqueue_pair_both_orders() {
        // deq(EMPTY) overlaps enq(1); a later deq takes 1. Legal: EMPTY
        // linearizes before the enqueue.
        let ops = vec![
            op(0, Enqueue(1), 0, 10),
            op(1, Dequeue(None), 1, 5),
            op(1, Dequeue(Some(1)), 11, 12),
        ];
        assert!(check(&History::from_ops(ops), 1_000_000).is_ok());
    }

    #[test]
    fn value_dequeued_twice_rejected_even_with_overlap() {
        let ops = vec![
            op(0, Enqueue(1), 0, 1),
            op(1, Dequeue(Some(1)), 2, 10),
            op(2, Dequeue(Some(1)), 3, 9),
        ];
        assert_eq!(
            check(&History::from_ops(ops), 1_000_000),
            CheckResult::NotLinearizable
        );
    }

    #[test]
    fn interleaved_producers_consumers_searchable_depth() {
        // 3 producers × 4 values + 12 matching dequeues, all overlapping
        // within their group: a denser search space with a known witness.
        let mut ops = Vec::new();
        for p in 0..3u64 {
            for i in 0..4u64 {
                let v = p * 10 + i + 1;
                ops.push(op(p as usize, Enqueue(v), i * 10, i * 10 + 9));
            }
        }
        // Dequeue in an order consistent with per-producer FIFO: round-
        // robin across producers.
        let mut t = 100;
        for i in 0..4u64 {
            for p in 0..3u64 {
                let v = p * 10 + i + 1;
                ops.push(op(3 + p as usize, Dequeue(Some(v)), t, t + 1));
                t += 2;
            }
        }
        assert!(check(&History::from_ops(ops), 4_000_000).is_ok());
    }

    #[test]
    fn unmatched_pending_style_enqueues_at_the_end_are_fine() {
        let ops = vec![
            op(0, Enqueue(1), 0, 1),
            op(0, Dequeue(Some(1)), 2, 3),
            op(1, Enqueue(2), 4, 5),
            op(2, Enqueue(3), 4, 5),
        ];
        assert!(check(&History::from_ops(ops), 1_000_000).is_ok());
    }
}
