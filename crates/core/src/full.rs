//! The backpressure error of a fixed-capacity backend.

use core::fmt;

/// Error returned by [`BackendHandle::try_enqueue`](crate::BackendHandle::try_enqueue)
/// when a fixed-capacity backend (the SCQ ring in `wfq-baselines`) is at
/// capacity. The caller still holds the value it passed.
///
/// A `Full` return is a *backpressure signal*, not a permanent state: it
/// clears as soon as dequeuers drain a slot. The wait-free queue never
/// returns it: its enqueue always succeeds, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Full;

impl fmt::Display for Full {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("queue is at capacity")
    }
}

impl std::error::Error for Full {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_and_display_name_the_condition() {
        assert_eq!(format!("{Full:?}"), "Full");
        assert_eq!(Full.to_string(), "queue is at capacity");
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&Full);
    }

    #[test]
    fn unit_form_compares() {
        assert_eq!(Full, Full);
    }
}
