//! Tunable parameters of the queue.

/// Configuration for a [`crate::RawQueue`] / [`crate::WfQueue`].
///
/// The defaults are the paper's evaluation configuration: `PATIENCE = 10`
/// ("WF-10") and an automatic `MAX_GARBAGE` of twice the number of
/// registered handles (the authors' released C code uses `2 * nprocs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of *extra* fast-path attempts before an operation falls back
    /// to the wait-free slow path. `0` reproduces the paper's "WF-0"
    /// variant: one fast-path attempt, then the slow path.
    pub patience: u32,
    /// Number of retired segments allowed to accumulate before a dequeuer
    /// attempts reclamation. `None` selects `max(2 × live handles, 4)`
    /// at each cleanup, matching the author's C implementation.
    pub max_garbage: Option<u64>,
    /// Bounded-memory mode: the advisory cap on the number of segments the
    /// queue may own at once (chain + recycling pool + per-handle spares).
    /// `None` (the default) is the paper's unbounded behavior. See
    /// [`Config::with_segment_ceiling`].
    pub segment_ceiling: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            patience: crate::DEFAULT_PATIENCE,
            max_garbage: None,
            segment_ceiling: None,
        }
    }
}

impl Config {
    /// The paper's WF-10 configuration (default).
    pub fn wf10() -> Self {
        Self::default()
    }

    /// The paper's WF-0 configuration: every operation tries the fast path
    /// once, then immediately enlists helpers. Used to stress the slow path
    /// and to lower-bound throughput (§5).
    pub fn wf0() -> Self {
        Self {
            patience: 0,
            ..Self::default()
        }
    }

    /// Sets the fast-path patience.
    pub fn with_patience(mut self, patience: u32) -> Self {
        self.patience = patience;
        self
    }

    /// Sets a fixed reclamation threshold (in segments).
    pub fn with_max_garbage(mut self, segments: u64) -> Self {
        self.max_garbage = Some(segments.max(1));
        self
    }

    /// Enables bounded-memory mode with an advisory ceiling of `segments`
    /// segments (each `N × size_of::<Cell>()` bytes, 16 KiB at the default
    /// N = 1024).
    ///
    /// Reclaimed segments are recycled through a lock-free pool instead of
    /// freed, fresh allocation stops at the ceiling, and the `try_enqueue`
    /// family reports [`Full`](crate::Full) when no headroom can be
    /// recovered. The ceiling is **advisory per thread**: operations
    /// already past their index FAA may overshoot it by one segment each
    /// rather than block (exactness would require dequeuers to block
    /// enqueuers — Aksenov et al.'s lower bound; see DESIGN.md §9). Plain
    /// `enqueue` ignores the admission gate entirely and keeps the paper's
    /// semantics, growing past the ceiling only through the same bounded
    /// overshoot path.
    ///
    /// The queue always admits at least `(segments − 1) × N` undequeued
    /// values before reporting `Full`; clamped to a minimum of 1 segment.
    pub fn with_segment_ceiling(mut self, segments: u64) -> Self {
        self.segment_ceiling = Some(segments.max(1));
        self
    }

    /// Resolves the reclamation threshold given the current handle count.
    #[inline]
    pub(crate) fn garbage_threshold(&self, handles: u64) -> u64 {
        self.max_garbage.unwrap_or_else(|| (2 * handles).max(4))
    }

    /// Segment demand of a `k`-cell batch claim against `segment_size`-cell
    /// segments: ⌈k / segment_size⌉. This is what the batch admission gate
    /// (`try_enqueue_batch`) demands as headroom before the claiming FAA —
    /// the worst case is one more when the claim straddles a segment
    /// boundary, which the gate deliberately ignores: the ceiling is
    /// advisory and that overshoot is already bounded per thread (see
    /// [`Config::with_segment_ceiling`]).
    pub(crate) fn batch_segments(k: u64, segment_size: u64) -> u64 {
        debug_assert!(segment_size > 0);
        k.div_ceil(segment_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_wf10() {
        assert_eq!(Config::default().patience, 10);
        assert_eq!(Config::default(), Config::wf10());
    }

    #[test]
    fn wf0_has_zero_patience() {
        assert_eq!(Config::wf0().patience, 0);
    }

    #[test]
    fn auto_garbage_scales_with_handles() {
        let c = Config::default();
        assert_eq!(c.garbage_threshold(8), 16);
        assert_eq!(c.garbage_threshold(1), 4, "floor of 4");
        assert_eq!(c.garbage_threshold(0), 4);
    }

    #[test]
    fn fixed_garbage_overrides_and_clamps() {
        assert_eq!(Config::default().with_max_garbage(7).garbage_threshold(100), 7);
        assert_eq!(Config::default().with_max_garbage(0).garbage_threshold(100), 1);
    }

    #[test]
    fn builder_chains() {
        let c = Config::wf0()
            .with_patience(3)
            .with_max_garbage(9)
            .with_segment_ceiling(12);
        assert_eq!(c.patience, 3);
        assert_eq!(c.max_garbage, Some(9));
        assert_eq!(c.segment_ceiling, Some(12));
    }

    #[test]
    fn batch_segment_demand_is_a_ceiling_division() {
        assert_eq!(Config::batch_segments(1, 1024), 1);
        assert_eq!(Config::batch_segments(1024, 1024), 1);
        assert_eq!(Config::batch_segments(1025, 1024), 2);
        assert_eq!(Config::batch_segments(8, 4), 2);
        assert_eq!(Config::batch_segments(0, 1024), 0, "empty batch: no demand");
    }

    #[test]
    fn default_is_unbounded() {
        assert_eq!(Config::default().segment_ceiling, None);
    }

    #[test]
    fn segment_ceiling_clamps_to_one() {
        assert_eq!(
            Config::default().with_segment_ceiling(0).segment_ceiling,
            Some(1)
        );
    }
}
