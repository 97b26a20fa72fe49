//! Long-running soak tests, `#[ignore]`d by default.
//!
//! Run with:
//!
//! ```text
//! cargo test -p wfq-integration --release -- --ignored --test-threads 1
//! ```
//!
//! These are the tests that caught all three paper errata (DESIGN.md §3):
//! minutes of oversubscribed pairs traffic with watchdogs. The default
//! test suite runs abbreviated versions; CI or a release gate should run
//! these in full.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use wfqueue::{Config, RawQueue};

/// Runs `threads` pairs workers for `rounds` rounds with a stall watchdog;
/// panics if any thread makes no progress for `stall_limit`.
fn watched_pairs(threads: usize, pairs: u64, rounds: u32, cfg: Config, stall_limit: Duration) {
    for round in 0..rounds {
        let q: RawQueue<1024> = RawQueue::with_config(cfg);
        let progress: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        let done = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let q = &q;
                let progress = &progress;
                let done = &done;
                s.spawn(move || {
                    let mut h = q.register();
                    let tag = ((t as u64 + 1) << 40) | 1;
                    for i in 0..pairs {
                        h.enqueue(tag + i);
                        let _ = h.dequeue();
                        progress[t].store(i + 1, Ordering::Relaxed);
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Progress monitor: panics when no thread advances for stall_limit.
            let progress = &progress;
            let done = &done;
            s.spawn(move || {
                let mut last: Vec<u64> = vec![0; threads];
                let mut stalled_since = Instant::now();
                loop {
                    std::thread::sleep(Duration::from_millis(200));
                    if done.load(Ordering::Relaxed) == threads as u64 {
                        return;
                    }
                    let cur: Vec<u64> =
                        progress.iter().map(|p| p.load(Ordering::Relaxed)).collect();
                    if cur != last {
                        last = cur;
                        stalled_since = Instant::now();
                    } else if stalled_since.elapsed() > stall_limit {
                        panic!("round {round}: no progress for {stall_limit:?} at {last:?}");
                    }
                }
            });
        });
    }
}

#[test]
#[ignore = "soak: ~minutes of oversubscribed traffic"]
fn soak_wf10_pairs_oversubscribed() {
    watched_pairs(4, 25_000, 20, Config::wf10(), Duration::from_secs(30));
}

#[test]
#[ignore = "soak: ~minutes of slow-path-heavy traffic"]
fn soak_wf0_pairs_oversubscribed() {
    watched_pairs(4, 25_000, 20, Config::wf0(), Duration::from_secs(30));
}

#[test]
#[ignore = "soak: aggressive reclamation under churn"]
fn soak_tiny_garbage_threshold() {
    watched_pairs(
        3,
        40_000,
        10,
        Config::wf10().with_max_garbage(1),
        Duration::from_secs(30),
    );
}

/// Abbreviated always-on version so the default suite retains a trace of
/// the soak coverage (one round, small counts).
#[test]
fn smoke_watched_pairs() {
    watched_pairs(4, 5_000, 2, Config::wf0(), Duration::from_secs(60));
}
