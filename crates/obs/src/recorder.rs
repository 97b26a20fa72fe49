//! Per-thread recorders, the global registry, and the drain pass.
//!
//! Each thread that executes an instrumented protocol step lazily creates a
//! **recorder**: an [`EventRing`] plus the three watchdog words (slow-path
//! entry timestamp, slow-path kind, completed-op epoch). Recorders register
//! into a process-global list the moment they are created and stay there
//! for the process lifetime (threads are cheap to leak a few hundred bytes
//! for; a dead thread's ring simply stops growing), so drainers and the
//! watchdog never race registration teardown.
//!
//! The hot side — [`record`] — touches only thread-local state and the
//! owner's own ring: no locks, no shared cursors, no allocation after the
//! first event. Everything here except [`record`] itself is compiled in
//! both build modes; without the `trace` feature nothing ever registers,
//! so every drain is trivially empty.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::clock;
use crate::event::{Event, EventKind, HandleTrace};
use crate::ring::EventRing;

/// Default events retained per recorder ring.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Environment variable overriding the per-recorder ring capacity (events;
/// rounded up to a power of two). Read once, at first recorder creation.
pub const RING_CAPACITY_ENV: &str = "WFQ_TRACE_RING";

/// The shared half of one thread's recorder, visible to drainers and the
/// watchdog.
pub struct RecorderShared {
    /// Small dense id (Chrome trace `tid`).
    pub(crate) id: u64,
    /// Owning thread's name at creation.
    pub(crate) thread: String,
    pub(crate) ring: EventRing,
    /// Raw-clock instant the owner entered its current slow-path op, or 0
    /// when not in a slow path. The watchdog's whole signal.
    pub(crate) slow_since_raw: AtomicU64,
    /// `EventKind` discriminant of the slow-path entry (valid only while
    /// `slow_since_raw != 0`).
    pub(crate) slow_kind: AtomicU32,
    /// Completed slow-path ops: the per-handle progress epoch.
    pub(crate) epoch: AtomicU64,
}

impl RecorderShared {
    /// This recorder's dense id (the Chrome trace `tid`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Name of the thread that registered this recorder.
    pub fn thread_name(&self) -> &str {
        &self.thread
    }

    /// Records one event directly (bypassing the thread-local lookup).
    /// For tests and tools; protocol code uses [`record!`](crate::record).
    /// **Single-writer**: one thread at a time may record on a recorder.
    pub fn record_event(&self, kind: EventKind, arg: u64) {
        self.record(kind, arg, 0);
    }

    /// Like [`record_event`](Self::record_event) but carrying a causal
    /// operation id (the slow-path request's publish id).
    pub fn record_event_op(&self, kind: EventKind, arg: u64, op: u64) {
        self.record(kind, arg, op);
    }

    fn new(id: u64, capacity: usize) -> Self {
        Self {
            id,
            thread: std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_string(),
            ring: EventRing::with_capacity(capacity),
            slow_since_raw: AtomicU64::new(0),
            slow_kind: AtomicU32::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    /// Records one event (owner thread only). Only *progress* kinds drive
    /// the watchdog words: the nested `HelpDeq` span pairs for Chrome
    /// rendering but must not clear `slow_since` mid-`deq_slow`.
    #[inline]
    pub(crate) fn record(&self, kind: EventKind, arg: u64, op: u64) {
        let now = clock::raw_now();
        if kind.is_progress_enter() {
            self.slow_kind.store(kind as u32, Ordering::Relaxed);
            // `max(1)`: raw 0 is the idle sentinel; the first-ever reading
            // can legitimately be 0.
            self.slow_since_raw.store(now.max(1), Ordering::Release);
        } else if kind.is_progress_exit() {
            self.slow_since_raw.store(0, Ordering::Release);
            self.epoch.fetch_add(1, Ordering::Release);
        }
        self.ring.push(now, kind, arg, op);
    }

    /// Watchdog view: `(slow_since_raw, kind, epoch)`.
    pub(crate) fn progress(&self) -> (u64, Option<EventKind>, u64) {
        let since = self.slow_since_raw.load(Ordering::Acquire);
        let kind = EventKind::from_u8(self.slow_kind.load(Ordering::Relaxed) as u8);
        (since, kind, self.epoch.load(Ordering::Acquire))
    }
}

fn registry() -> &'static Mutex<Vec<Arc<RecorderShared>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<RecorderShared>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

pub(crate) fn registry_snapshot() -> Vec<Arc<RecorderShared>> {
    registry().lock().unwrap().clone()
}

fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var(RING_CAPACITY_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_RING_CAPACITY)
    })
}

/// Creates and registers a recorder for the calling thread. Public for
/// tests and tools; protocol code reaches it through
/// [`record!`](crate::record!).
pub fn register_current_thread() -> Arc<RecorderShared> {
    let mut reg = registry().lock().unwrap();
    let rec = Arc::new(RecorderShared::new(reg.len() as u64, ring_capacity()));
    reg.push(Arc::clone(&rec));
    rec
}

#[cfg(feature = "trace")]
thread_local! {
    static RECORDER: std::cell::OnceCell<Arc<RecorderShared>> =
        const { std::cell::OnceCell::new() };
}

/// Records one event on the calling thread's recorder, creating and
/// registering it on first use. Called by [`record!`](crate::record); not
/// meant to be called directly.
#[cfg(feature = "trace")]
pub fn record(kind: EventKind, arg: u64, op: u64) {
    RECORDER.with(|r| r.get_or_init(register_current_thread).record(kind, arg, op));
}

/// Number of recorders ever registered.
pub fn recorder_count() -> usize {
    registry().lock().unwrap().len()
}

/// A raw-clock mark; events drained later can be filtered to those with
/// `ts_ns >= ns_of(mark)` via the value returned here (already converted).
/// Lets tests scope assertions to their own traffic in a shared process.
pub fn mark_ns() -> u64 {
    clock::raw_to_ns(clock::raw_now())
}

/// Drains every registered recorder: snapshots each ring (lock-free with
/// respect to the owners) and converts timestamps to nanoseconds. Returns
/// one [`HandleTrace`] per recorder, id-ordered. Without the `trace`
/// feature nothing ever registers, so this returns an empty vector.
pub fn drain() -> Vec<HandleTrace> {
    registry_snapshot()
        .iter()
        .map(|rec| {
            let (raw, dropped) = rec.ring.snapshot();
            HandleTrace {
                id: rec.id,
                thread: rec.thread.clone(),
                events: raw
                    .into_iter()
                    .map(|e| Event {
                        ts_ns: clock::raw_to_ns(e.ts_raw),
                        kind: e.kind,
                        arg: e.arg,
                        op: e.op,
                    })
                    .collect(),
                dropped,
            }
        })
        .collect()
}

/// Total events currently resident across all recorders.
pub fn resident_events() -> usize {
    drain().iter().map(|t| t.events.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registration is process-global, so these tests tolerate recorders
    // left behind by other tests in the same binary.

    #[test]
    fn manual_registration_shows_up_in_drain() {
        let before = recorder_count();
        let rec = std::thread::spawn(|| {
            let rec = register_current_thread();
            rec.record_event(EventKind::EnqFast, 7);
            rec.record_event_op(EventKind::EnqSlowEnter, 8, 8);
            rec.record_event_op(EventKind::EnqSlowExit, 9, 8);
            rec.id
        })
        .join()
        .unwrap();
        assert!(recorder_count() > before);
        let traces = drain();
        let t = traces.iter().find(|t| t.id == rec).expect("registered");
        let kinds: Vec<EventKind> = t.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::EnqFast,
                EventKind::EnqSlowEnter,
                EventKind::EnqSlowExit
            ]
        );
        assert_eq!(t.dropped, 0);
        // Timestamps are monotone within one recorder.
        assert!(t.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // The op id rode through the ring; the point event carries op 0.
        assert_eq!(
            t.events.iter().map(|e| e.op).collect::<Vec<_>>(),
            vec![0, 8, 8]
        );
    }

    #[test]
    fn span_enter_and_exit_drive_the_progress_words() {
        let rec = register_current_thread();
        let (idle, _, e0) = rec.progress();
        assert_eq!(idle, 0);
        rec.record_event(EventKind::DeqSlowEnter, 1);
        let (since, kind, _) = rec.progress();
        assert_ne!(since, 0);
        assert_eq!(kind, Some(EventKind::DeqSlowEnter));
        rec.record_event(EventKind::DeqSlowExit, 1);
        let (after, _, e1) = rec.progress();
        assert_eq!(after, 0);
        assert_eq!(e1, e0 + 1);
    }

    #[test]
    fn non_span_events_do_not_touch_progress() {
        let rec = register_current_thread();
        let (_, _, e0) = rec.progress();
        rec.record_event(EventKind::HelpEnqCommit, 3);
        rec.record_event(EventKind::SegAlloc, 4);
        let (since, _, e1) = rec.progress();
        assert_eq!(since, 0);
        assert_eq!(e1, e0);
    }

    #[test]
    fn nested_help_span_leaves_the_watchdog_words_armed() {
        // deq_slow self-helps: DeqSlowEnter, then a HelpDeqEnter/Exit pair,
        // then DeqSlowExit — all on one recorder. The inner pair must not
        // disarm `slow_since` or bump the epoch, or a thread parked *after*
        // its self-help returned would look idle to the watchdog.
        let rec = register_current_thread();
        let (_, _, e0) = rec.progress();
        rec.record_event_op(EventKind::DeqSlowEnter, 5, 5);
        let (armed, kind, _) = rec.progress();
        assert_ne!(armed, 0);
        assert_eq!(kind, Some(EventKind::DeqSlowEnter));
        rec.record_event_op(EventKind::HelpDeqEnter, 5, 5);
        rec.record_event_op(EventKind::HelpDeqExit, 9, 5);
        let (still_armed, kind, e_mid) = rec.progress();
        assert_eq!(still_armed, armed, "help span disarmed the watchdog");
        assert_eq!(kind, Some(EventKind::DeqSlowEnter));
        assert_eq!(e_mid, e0, "help span bumped the progress epoch");
        rec.record_event_op(EventKind::DeqSlowExit, 9, 5);
        let (after, _, e1) = rec.progress();
        assert_eq!(after, 0);
        assert_eq!(e1, e0 + 1);
    }
}
