//! Linear-time-ish *necessary* conditions for FIFO linearizability.
//!
//! These correspond to the violation aspects of Henzinger et al. (ESOP'13):
//! any hit proves the history is not linearizable with respect to a FIFO
//! queue; all-clear does not prove linearizability (use
//! [`crate::linearize::check`] for that, on small histories).
//!
//! Requires unique enqueued values (the harness tags values per thread).

use std::collections::HashMap;

use crate::history::{History, OpKind, Operation};

/// A concrete linearizability violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The same value was enqueued twice — a precondition failure of the
    /// checker itself (values must be unique).
    DuplicateEnqueue {
        /// The offending value.
        value: u64,
    },
    /// A dequeue returned a value no enqueue produced (VFresh).
    ValueFromNowhere {
        /// The offending value.
        value: u64,
    },
    /// Two dequeues returned the same value (VRepet).
    DuplicateDequeue {
        /// The offending value.
        value: u64,
    },
    /// A dequeue completed before the matching enqueue was invoked.
    DequeueBeforeEnqueue {
        /// The offending value.
        value: u64,
    },
    /// `enq(first)` preceded `enq(second)` in real time, both were
    /// dequeued, but `deq(second)` completed before `deq(first)` began
    /// (VOrd).
    FifoOrder {
        /// Value enqueued first.
        first: u64,
        /// Value enqueued second but dequeued strictly earlier.
        second: u64,
    },
    /// `enq(first)` preceded `enq(second)`, `second` was dequeued, but
    /// `first` never was — impossible for a FIFO with a complete history.
    LostValue {
        /// The value that should have come out first.
        first: u64,
        /// The later value that did come out.
        second: u64,
    },
    /// A dequeue returned EMPTY although some value was provably in the
    /// queue for the dequeue's entire execution interval (VWit).
    EmptyWithWitness {
        /// A value that was present throughout.
        witness: u64,
    },
}

/// Runs every necessary-condition check; returns the first violation found
/// per category (deterministic order) or `Ok(())`.
pub fn check_necessary(h: &History) -> Result<(), Violation> {
    let mut enq: HashMap<u64, &Operation> = HashMap::new();
    let mut deq: HashMap<u64, &Operation> = HashMap::new();
    let mut empties: Vec<&Operation> = Vec::new();

    for op in &h.ops {
        match op.kind {
            OpKind::Enqueue(v) => {
                if enq.insert(v, op).is_some() {
                    return Err(Violation::DuplicateEnqueue { value: v });
                }
            }
            OpKind::Dequeue(Some(v)) => {
                if deq.insert(v, op).is_some() {
                    return Err(Violation::DuplicateDequeue { value: v });
                }
            }
            OpKind::Dequeue(None) => empties.push(op),
        }
    }

    // Conservation + elementary ordering per matched pair.
    for (&v, d) in &deq {
        match enq.get(&v) {
            None => return Err(Violation::ValueFromNowhere { value: v }),
            Some(e) => {
                if d.response < e.invoke {
                    return Err(Violation::DequeueBeforeEnqueue { value: v });
                }
            }
        }
    }

    // Real-time FIFO order (VOrd + lost values), O(n²) over enqueues —
    // intended for histories up to a few thousand operations.
    let mut enqs: Vec<(&u64, &&Operation)> = enq.iter().collect();
    enqs.sort_by_key(|(_, e)| e.response);
    for (i, &(&v1, e1)) in enqs.iter().enumerate() {
        for &(&v2, e2) in &enqs[i + 1..] {
            if !e1.precedes(e2) {
                continue; // overlapping enqueues: either order linearizes
            }
            match (deq.get(&v1), deq.get(&v2)) {
                (Some(d1), Some(d2)) => {
                    if d2.precedes(d1) {
                        return Err(Violation::FifoOrder { first: v1, second: v2 });
                    }
                }
                (None, Some(_)) => {
                    return Err(Violation::LostValue { first: v1, second: v2 });
                }
                _ => {}
            }
        }
    }

    // EMPTY witnesses: value v witnesses against an EMPTY dequeue D if
    // enq(v) completed before D began and v's dequeue (if any) began after
    // D completed — then v is in the queue at every point of D.
    for d in &empties {
        for (&v, e) in &enq {
            if e.precedes(d) {
                let gone_before = deq.get(&v).map(|dv| dv.invoke < d.response).unwrap_or(false);
                if !gone_before {
                    return Err(Violation::EmptyWithWitness { witness: v });
                }
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpKind::{Dequeue, Enqueue};

    fn op(kind: OpKind, invoke: u64, response: u64) -> Operation {
        Operation { thread: 0, kind, invoke, response }
    }

    #[test]
    fn accepts_a_correct_sequential_history() {
        let h = History::sequential(&[
            Enqueue(1),
            Enqueue(2),
            Dequeue(Some(1)),
            Dequeue(Some(2)),
            Dequeue(None),
        ]);
        assert_eq!(check_necessary(&h), Ok(()));
    }

    #[test]
    fn accepts_overlapping_enqueues_in_either_order() {
        // enq(1) and enq(2) overlap; dequeues may see 2 before 1.
        let h = History::from_ops(vec![
            op(Enqueue(1), 0, 10),
            op(Enqueue(2), 1, 9),
            op(Dequeue(Some(2)), 11, 12),
            op(Dequeue(Some(1)), 13, 14),
        ]);
        assert_eq!(check_necessary(&h), Ok(()));
    }

    #[test]
    fn detects_value_from_nowhere() {
        let h = History::sequential(&[Dequeue(Some(42))]);
        assert_eq!(
            check_necessary(&h),
            Err(Violation::ValueFromNowhere { value: 42 })
        );
    }

    #[test]
    fn detects_duplicate_dequeue() {
        let h = History::sequential(&[Enqueue(1), Dequeue(Some(1)), Dequeue(Some(1))]);
        assert_eq!(
            check_necessary(&h),
            Err(Violation::DuplicateDequeue { value: 1 })
        );
    }

    #[test]
    fn detects_dequeue_before_enqueue() {
        let h = History::from_ops(vec![
            op(Enqueue(7), 10, 11),
            op(Dequeue(Some(7)), 0, 1),
        ]);
        assert_eq!(
            check_necessary(&h),
            Err(Violation::DequeueBeforeEnqueue { value: 7 })
        );
    }

    #[test]
    fn detects_fifo_inversion() {
        let h = History::from_ops(vec![
            op(Enqueue(1), 0, 1),
            op(Enqueue(2), 2, 3),
            op(Dequeue(Some(2)), 4, 5),
            op(Dequeue(Some(1)), 6, 7),
        ]);
        assert_eq!(
            check_necessary(&h),
            Err(Violation::FifoOrder { first: 1, second: 2 })
        );
    }

    #[test]
    fn detects_lost_value() {
        let h = History::from_ops(vec![
            op(Enqueue(1), 0, 1),
            op(Enqueue(2), 2, 3),
            op(Dequeue(Some(2)), 4, 5),
        ]);
        assert_eq!(
            check_necessary(&h),
            Err(Violation::LostValue { first: 1, second: 2 })
        );
    }

    #[test]
    fn detects_empty_with_witness() {
        // Value 9 enqueued and never dequeued; EMPTY after it: illegal.
        let h = History::from_ops(vec![
            op(Enqueue(9), 0, 1),
            op(Dequeue(None), 2, 3),
        ]);
        assert_eq!(
            check_necessary(&h),
            Err(Violation::EmptyWithWitness { witness: 9 })
        );
    }

    #[test]
    fn empty_overlapping_the_enqueue_is_fine() {
        // EMPTY may linearize before the overlapping enqueue takes effect.
        let h = History::from_ops(vec![
            op(Enqueue(9), 0, 10),
            op(Dequeue(None), 1, 2),
        ]);
        assert_eq!(check_necessary(&h), Ok(()));
    }

    #[test]
    fn empty_after_drain_is_fine() {
        let h = History::sequential(&[Enqueue(1), Dequeue(Some(1)), Dequeue(None)]);
        assert_eq!(check_necessary(&h), Ok(()));
    }

    #[test]
    fn duplicate_enqueue_is_a_precondition_failure() {
        let h = History::sequential(&[Enqueue(1), Enqueue(1)]);
        assert_eq!(
            check_necessary(&h),
            Err(Violation::DuplicateEnqueue { value: 1 })
        );
    }

    #[test]
    fn unmatched_enqueues_alone_are_fine() {
        // Values still in the queue at the end: perfectly legal.
        let h = History::sequential(&[Enqueue(1), Enqueue(2)]);
        assert_eq!(check_necessary(&h), Ok(()));
    }
}
