//! The typed event taxonomy the flight recorder captures.
//!
//! Every event is one protocol step the paper's evaluation reasons about:
//! which path completed an operation (§5.2, Table 2), when helping actually
//! fired (§3.4–3.5), and what the reclaimer did (§3.6). The taxonomy
//! deliberately mirrors the fault-injection point list in
//! `wfqueue::FAULT_POINTS` — the same windows that are interesting to
//! *perturb* are the ones worth *recording* — but events carry a timestamp
//! and a protocol argument (cell index, segment id, boundary) where
//! injection points are bare markers.

/// What happened. The discriminants are stable (they are what the ring
/// stores), so renumbering is a trace-format break — append only.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Enqueue completed on the fast path (arg: cell index).
    EnqFast = 0,
    /// Enqueue fell into the wait-free slow path (arg: first failed cell).
    EnqSlowEnter = 1,
    /// Slow-path enqueue committed (arg: cell the request claimed).
    EnqSlowExit = 2,
    /// Dequeue took a value on the fast path (arg: cell index).
    DeqFast = 3,
    /// Dequeue witnessed EMPTY (arg: cell index that proved `T ≤ i`).
    DeqEmpty = 4,
    /// Dequeue fell into the wait-free slow path (arg: first failed cell).
    DeqSlowEnter = 5,
    /// Slow-path dequeue finished (arg: the announced cell).
    DeqSlowExit = 6,
    /// `help_enq` committed a peer's value into a cell (arg: cell index).
    HelpEnqCommit = 7,
    /// A cell was sealed with ⊤e — no enqueue can ever use it (arg: cell).
    CellSeal = 8,
    /// `help_deq` announced a candidate cell into a request (arg: cell).
    HelpDeqAnnounce = 9,
    /// `help_deq` completed a request's final transition (arg: cell).
    HelpDeqComplete = 10,
    /// A helper adopted its helpee's published hazard — the source of the
    /// reclaimer's "backward jump" (arg: adopted segment id, `u64::MAX`
    /// when the helpee was already idle).
    HazardAdopt = 11,
    /// A dequeuer won the cleaner election (arg: displaced oldest id).
    CleanerElected = 12,
    /// A reclamation pass clamped its boundary below a published hazard or
    /// a concurrently-moved pointer (arg: the new, lower boundary).
    HazardClamp = 13,
    /// A new segment was allocated *and published* (arg: segment id).
    SegAlloc = 14,
    /// A reclamation pass freed a segment prefix (arg: segments freed).
    SegFree = 15,
    /// Bounded mode rejected an enqueue at the segment ceiling (arg: the
    /// configured ceiling).
    EnqRejected = 16,
    /// An enqueuer elected itself cleaner after finding no headroom (arg:
    /// the head-frontier segment id it offered as a boundary).
    ForcedCleanup = 17,
    /// A reclamation pass recycled segments into the bounded-mode pool
    /// instead of freeing them (arg: segments recycled).
    SegRecycle = 18,
    /// `help_deq` started working on a pending request (arg: the request's
    /// publish id; op: same). Opens a helper span — nested inside the
    /// helper's own slow-path span when `deq_slow` self-helps.
    HelpDeqEnter = 19,
    /// `help_deq` stopped working on that request (arg: the request's
    /// final announced index; op: the request's publish id).
    HelpDeqExit = 20,
    /// Durable-mode recovery replayed surviving values into a fresh queue
    /// (arg: number of values re-enqueued).
    RecoverReplay = 21,
    /// Durable-mode recovery sealed torn cells — claimed by a pre-crash
    /// FAA but with no durable deposit (arg: cells sealed).
    RecoverSeal = 22,
}

/// Every kind, in discriminant order (index `k as usize` is `ALL[k]`).
pub const ALL_KINDS: &[EventKind] = &[
    EventKind::EnqFast,
    EventKind::EnqSlowEnter,
    EventKind::EnqSlowExit,
    EventKind::DeqFast,
    EventKind::DeqEmpty,
    EventKind::DeqSlowEnter,
    EventKind::DeqSlowExit,
    EventKind::HelpEnqCommit,
    EventKind::CellSeal,
    EventKind::HelpDeqAnnounce,
    EventKind::HelpDeqComplete,
    EventKind::HazardAdopt,
    EventKind::CleanerElected,
    EventKind::HazardClamp,
    EventKind::SegAlloc,
    EventKind::SegFree,
    EventKind::EnqRejected,
    EventKind::ForcedCleanup,
    EventKind::SegRecycle,
    EventKind::HelpDeqEnter,
    EventKind::HelpDeqExit,
    EventKind::RecoverReplay,
    EventKind::RecoverSeal,
];

impl EventKind {
    /// Recovers a kind from its stored discriminant.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        ALL_KINDS.get(v as usize).copied()
    }

    /// Short name, used as the Chrome trace event name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::EnqFast => "enq_fast",
            EventKind::EnqSlowEnter => "enq_slow",
            EventKind::EnqSlowExit => "enq_slow_exit",
            EventKind::DeqFast => "deq_fast",
            EventKind::DeqEmpty => "deq_empty",
            EventKind::DeqSlowEnter => "deq_slow",
            EventKind::DeqSlowExit => "deq_slow_exit",
            EventKind::HelpEnqCommit => "help_enq_commit",
            EventKind::CellSeal => "cell_seal",
            EventKind::HelpDeqAnnounce => "help_deq_announce",
            EventKind::HelpDeqComplete => "help_deq_complete",
            EventKind::HazardAdopt => "hazard_adopt",
            EventKind::CleanerElected => "cleaner_elected",
            EventKind::HazardClamp => "hazard_clamp",
            EventKind::SegAlloc => "seg_alloc",
            EventKind::SegFree => "seg_free",
            EventKind::EnqRejected => "enq_rejected",
            EventKind::ForcedCleanup => "forced_cleanup",
            EventKind::SegRecycle => "seg_recycle",
            EventKind::HelpDeqEnter => "help_deq",
            EventKind::HelpDeqExit => "help_deq_exit",
            EventKind::RecoverReplay => "recover_replay",
            EventKind::RecoverSeal => "recover_seal",
        }
    }

    /// Chrome trace category (Perfetto groups and filters by these).
    pub fn category(self) -> &'static str {
        match self {
            EventKind::EnqFast | EventKind::DeqFast | EventKind::DeqEmpty => "fast",
            EventKind::EnqSlowEnter | EventKind::EnqSlowExit => "slow",
            EventKind::DeqSlowEnter | EventKind::DeqSlowExit => "slow",
            EventKind::HelpEnqCommit
            | EventKind::CellSeal
            | EventKind::HelpDeqAnnounce
            | EventKind::HelpDeqComplete
            | EventKind::HazardAdopt
            | EventKind::HelpDeqEnter
            | EventKind::HelpDeqExit => "help",
            EventKind::CleanerElected
            | EventKind::HazardClamp
            | EventKind::SegAlloc
            | EventKind::SegFree => "reclaim",
            EventKind::EnqRejected
            | EventKind::ForcedCleanup
            | EventKind::SegRecycle => "bounded",
            EventKind::RecoverReplay | EventKind::RecoverSeal => "recover",
        }
    }

    /// Label of the `arg` payload in trace output.
    pub fn arg_label(self) -> &'static str {
        match self {
            EventKind::EnqFast
            | EventKind::EnqSlowEnter
            | EventKind::EnqSlowExit
            | EventKind::DeqFast
            | EventKind::DeqEmpty
            | EventKind::DeqSlowEnter
            | EventKind::DeqSlowExit
            | EventKind::HelpEnqCommit
            | EventKind::CellSeal
            | EventKind::HelpDeqAnnounce
            | EventKind::HelpDeqComplete => "cell",
            EventKind::HazardAdopt | EventKind::SegAlloc => "segment",
            EventKind::CleanerElected | EventKind::HazardClamp => "boundary",
            EventKind::ForcedCleanup => "boundary",
            EventKind::SegFree => "segments_freed",
            EventKind::EnqRejected => "ceiling",
            EventKind::SegRecycle => "segments_recycled",
            EventKind::HelpDeqEnter => "request",
            EventKind::HelpDeqExit => "cell",
            EventKind::RecoverReplay => "values",
            EventKind::RecoverSeal => "cells",
        }
    }

    /// Whether this kind opens a span (matched by
    /// [`span_exit`](Self::span_exit) in the Chrome conversion). Spans may
    /// nest: `deq_slow` self-helps, so a `HelpDeqEnter`/`HelpDeqExit` pair
    /// can sit inside a `DeqSlowEnter`/`DeqSlowExit` pair on one recorder.
    pub fn is_span_enter(self) -> bool {
        matches!(
            self,
            EventKind::EnqSlowEnter | EventKind::DeqSlowEnter | EventKind::HelpDeqEnter
        )
    }

    /// The exit kind closing this enter kind's span, if any.
    pub fn span_exit(self) -> Option<EventKind> {
        match self {
            EventKind::EnqSlowEnter => Some(EventKind::EnqSlowExit),
            EventKind::DeqSlowEnter => Some(EventKind::DeqSlowExit),
            EventKind::HelpDeqEnter => Some(EventKind::HelpDeqExit),
            _ => None,
        }
    }

    /// Whether this kind closes a span.
    pub fn is_span_exit(self) -> bool {
        matches!(
            self,
            EventKind::EnqSlowExit | EventKind::DeqSlowExit | EventKind::HelpDeqExit
        )
    }

    /// Whether this kind arms the starvation watchdog's per-recorder
    /// progress words. Only the two *operation-level* slow-path spans
    /// qualify: the nested `HelpDeq` span must not clear `slow_since` or
    /// bump the epoch mid-`deq_slow`, or a thread parked after its
    /// self-help returned would look like it was making progress.
    pub fn is_progress_enter(self) -> bool {
        matches!(self, EventKind::EnqSlowEnter | EventKind::DeqSlowEnter)
    }

    /// Whether this kind disarms the watchdog progress words.
    pub fn is_progress_exit(self) -> bool {
        matches!(self, EventKind::EnqSlowExit | EventKind::DeqSlowExit)
    }
}

/// One recorded event, timestamp already converted to nanoseconds since
/// the recorder clock's process-wide anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the clock anchor (first recorder activity).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Protocol argument — see [`EventKind::arg_label`].
    pub arg: u64,
    /// Causal operation id: the request's publish id (the requester's
    /// first failed FAA cell index), or 0 when the event belongs to no
    /// slow-path episode. Enqueue and dequeue request ids live in separate
    /// FAA index spaces; the event kind disambiguates the side.
    pub op: u64,
}

/// One handle's drained flight-recorder contents.
#[derive(Debug, Clone)]
pub struct HandleTrace {
    /// Small dense recorder id (Chrome trace `tid`).
    pub id: u64,
    /// Name of the owning thread at registration time.
    pub thread: String,
    /// Events still resident in the ring, oldest first. The ring keeps the
    /// most recent `capacity` events; `dropped` older ones were overwritten.
    pub events: Vec<Event>,
    /// Events lost to ring wrap-around before this drain.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_roundtrip() {
        for (i, &k) in ALL_KINDS.iter().enumerate() {
            assert_eq!(k as usize, i, "ALL_KINDS must be in discriminant order");
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(EventKind::from_u8(ALL_KINDS.len() as u8), None);
        assert_eq!(EventKind::from_u8(255), None);
    }

    #[test]
    fn names_are_unique_and_nonempty() {
        let mut seen = std::collections::BTreeSet::new();
        for &k in ALL_KINDS {
            assert!(!k.name().is_empty());
            assert!(seen.insert(k.name()), "duplicate event name {}", k.name());
        }
    }

    #[test]
    fn span_enters_pair_with_exits() {
        for &k in ALL_KINDS {
            if let Some(exit) = k.span_exit() {
                assert!(k.is_span_enter());
                assert!(exit.is_span_exit());
                assert_eq!(k.category(), exit.category());
            } else {
                assert!(!k.is_span_enter());
            }
        }
    }

    #[test]
    fn progress_kinds_are_a_strict_subset_of_span_kinds() {
        for &k in ALL_KINDS {
            if k.is_progress_enter() {
                assert!(k.is_span_enter());
            }
            if k.is_progress_exit() {
                assert!(k.is_span_exit());
            }
        }
        // The help span pairs for Chrome rendering but must not drive the
        // watchdog words (it nests inside deq_slow's own span).
        assert!(EventKind::HelpDeqEnter.is_span_enter());
        assert!(!EventKind::HelpDeqEnter.is_progress_enter());
        assert!(EventKind::HelpDeqExit.is_span_exit());
        assert!(!EventKind::HelpDeqExit.is_progress_exit());
    }
}
