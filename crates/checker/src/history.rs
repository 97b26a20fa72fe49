//! Concurrent history recording.
//!
//! A *history* is a set of completed operations, each with an invocation
//! and a response timestamp drawn from one global atomic counter. The
//! counter gives a total order on events that is consistent with real time
//! (a `fetch_add` that returns a smaller tick happened before one returning
//! a larger tick), which is all linearizability checking needs.
//!
//! Recording is designed to perturb the system under test as little as
//! possible: each thread buffers its operations locally and the buffers are
//! merged after the run.

use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What an operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `enqueue(value)`.
    Enqueue(u64),
    /// `dequeue()` returning `Some(value)` or EMPTY (`None`).
    Dequeue(Option<u64>),
}

/// One completed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    /// Recording thread id (not the OS tid — the recorder slot).
    pub thread: usize,
    /// Operation and its result.
    pub kind: OpKind,
    /// Tick at invocation.
    pub invoke: u64,
    /// Tick at response. Always > `invoke`.
    pub response: u64,
}

impl Operation {
    /// True if `self` completed strictly before `other` began (real-time
    /// precedence, the paper's `op1 ≺ op2`).
    #[inline]
    pub fn precedes(&self, other: &Operation) -> bool {
        self.response < other.invoke
    }
}

/// A complete recorded history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    /// All operations, in no particular order.
    pub ops: Vec<Operation>,
}

impl History {
    /// Builds a history directly (mainly for tests of the checkers).
    pub fn from_ops(ops: Vec<Operation>) -> Self {
        Self { ops }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Operations sorted by invocation tick (useful for the search checker).
    pub fn sorted_by_invoke(&self) -> Vec<Operation> {
        let mut v = self.ops.clone();
        v.sort_by_key(|o| o.invoke);
        v
    }

    /// Convenience constructor for a sequential history: ops happen one
    /// after another in the given order.
    pub fn sequential(kinds: &[OpKind]) -> Self {
        let mut t = 0;
        let ops = kinds
            .iter()
            .map(|&kind| {
                let invoke = t;
                t += 1;
                let response = t;
                t += 1;
                Operation {
                    thread: 0,
                    kind,
                    invoke,
                    response,
                }
            })
            .collect();
        Self { ops }
    }
}

/// Shared recorder: one per experiment.
#[derive(Debug, Default)]
pub struct Recorder {
    clock: AtomicU64,
    logs: Mutex<Vec<Vec<Operation>>>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a recording thread.
    pub fn thread(&self) -> ThreadRecorder<'_> {
        let id = {
            let mut logs = self.logs.lock().unwrap();
            logs.push(Vec::new());
            logs.len() - 1
        };
        ThreadRecorder {
            recorder: self,
            thread: id,
            buf: Vec::new(),
        }
    }

    /// Current tick (monotone, shared).
    #[inline]
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Merges all thread buffers into one history. Call after every
    /// [`ThreadRecorder`] has been dropped.
    pub fn finish(self) -> History {
        let logs = self.logs.into_inner().unwrap();
        History {
            ops: logs.into_iter().flatten().collect(),
        }
    }
}

/// Per-thread recording capability.
#[derive(Debug)]
pub struct ThreadRecorder<'r> {
    recorder: &'r Recorder,
    thread: usize,
    buf: Vec<Operation>,
}

impl ThreadRecorder<'_> {
    /// Takes the invocation tick; pass it to [`Self::record`].
    #[inline]
    pub fn invoke(&self) -> u64 {
        self.recorder.tick()
    }

    /// Records a completed operation given its invocation tick.
    #[inline]
    pub fn record(&mut self, kind: OpKind, invoke: u64) {
        let response = self.recorder.tick();
        self.buf.push(Operation {
            thread: self.thread,
            kind,
            invoke,
            response,
        });
    }

    /// Number of operations recorded by this thread so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if this thread recorded nothing yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Drop for ThreadRecorder<'_> {
    fn drop(&mut self) {
        let buf = core::mem::take(&mut self.buf);
        self.recorder.logs.lock().unwrap()[self.thread] = buf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_strictly_increasing() {
        let r = Recorder::new();
        let a = r.tick();
        let b = r.tick();
        assert!(b > a);
    }

    #[test]
    fn record_and_merge() {
        let r = Recorder::new();
        {
            let mut t0 = r.thread();
            let mut t1 = r.thread();
            let i = t0.invoke();
            t0.record(OpKind::Enqueue(1), i);
            let i = t1.invoke();
            t1.record(OpKind::Dequeue(Some(1)), i);
        }
        let h = r.finish();
        assert_eq!(h.len(), 2);
        for op in &h.ops {
            assert!(op.response > op.invoke);
        }
    }

    #[test]
    fn precedes_is_strict_real_time() {
        let a = Operation {
            thread: 0,
            kind: OpKind::Enqueue(1),
            invoke: 0,
            response: 1,
        };
        let b = Operation {
            thread: 1,
            kind: OpKind::Dequeue(Some(1)),
            invoke: 2,
            response: 3,
        };
        let c = Operation {
            thread: 2,
            kind: OpKind::Dequeue(None),
            invoke: 1,
            response: 4,
        };
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        assert!(!a.precedes(&c), "overlapping ops do not precede");
    }

    #[test]
    fn sequential_builder_orders_ops() {
        let h = History::sequential(&[
            OpKind::Enqueue(1),
            OpKind::Enqueue(2),
            OpKind::Dequeue(Some(1)),
        ]);
        assert_eq!(h.len(), 3);
        assert!(h.ops[0].precedes(&h.ops[1]));
        assert!(h.ops[1].precedes(&h.ops[2]));
    }

    #[test]
    fn concurrent_recording_produces_consistent_intervals() {
        let r = Recorder::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mut t = r.thread();
                s.spawn(move || {
                    for v in 0..100 {
                        let i = t.invoke();
                        t.record(OpKind::Enqueue(v), i);
                    }
                });
            }
        });
        let h = r.finish();
        assert_eq!(h.len(), 400);
        // All ticks distinct.
        let mut ticks: Vec<u64> = h
            .ops
            .iter()
            .flat_map(|o| [o.invoke, o.response])
            .collect();
        ticks.sort_unstable();
        ticks.dedup();
        assert_eq!(ticks.len(), 800);
    }
}
