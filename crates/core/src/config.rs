//! Tunable parameters of the queue.

/// Configuration for a [`crate::RawQueue`] / [`crate::WfQueue`].
///
/// The defaults are the paper's evaluation configuration: `PATIENCE = 10`
/// ("WF-10") and an automatic `MAX_GARBAGE` of twice the number of live
/// handles (the authors' released C code uses `2 * nprocs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of *extra* fast-path attempts before an operation falls back
    /// to the wait-free slow path. `0` reproduces the paper's "WF-0"
    /// variant: one fast-path attempt, then the slow path.
    pub patience: u32,
    /// Number of retired segments allowed to accumulate before a dequeuer
    /// attempts reclamation. `None` selects `2 × live handles` at each
    /// cleanup, the authors' `MAX_GARBAGE(n) = 2n`; a one-handle queue
    /// therefore cleans once two segments lie behind its head.
    pub max_garbage: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            patience: crate::DEFAULT_PATIENCE,
            max_garbage: None,
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

    /// Resolves the reclamation threshold given the current live handle
    /// count. The dequeuer asking is itself live, so `handles ≥ 1` there.
    #[inline]
    pub(crate) fn garbage_threshold(&self, handles: u64) -> u64 {
        self.max_garbage.unwrap_or(2 * handles)
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
        assert_eq!(c.garbage_threshold(1), 2);
        assert_eq!(c.garbage_threshold(2), 4);
        assert_eq!(c.garbage_threshold(8), 16);
    }

    #[test]
    fn fixed_garbage_overrides_and_clamps() {
        assert_eq!(Config::default().with_max_garbage(7).garbage_threshold(100), 7);
        assert_eq!(Config::default().with_max_garbage(0).garbage_threshold(100), 1);
    }

    #[test]
    fn builder_chains() {
        let c = Config::wf0().with_patience(3).with_max_garbage(9);
        assert_eq!(c.patience, 3);
        assert_eq!(c.max_garbage, Some(9));
    }
}
