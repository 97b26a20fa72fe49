//! Bounded-memory mode: a fast producer against a slow consumer, with the
//! queue capped at a segment ceiling and the producer reacting to
//! [`wfqueue::Full`] backpressure instead of growing the heap without
//! bound.
//!
//! ```text
//! cargo run -p wfq-examples --release --bin backpressure
//! ```
//!
//! Demonstrates [`wfqueue::Config::with_segment_ceiling`], the fallible
//! [`try_enqueue`](wfqueue::LocalHandle::try_enqueue) API, and the
//! bounded-mode gauges (pool occupancy, ceiling headroom, rejection
//! counter) that docs/ROBUSTNESS.md describes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use wfqueue::{Config, WfQueue};

/// Cells per segment (small, so the ceiling bites quickly in a demo).
const SEG: usize = 64;
/// The ceiling: at most this many segments of memory, ever.
const CEILING: u64 = 8;
/// Items the producer wants to ship.
const ITEMS: u64 = 200_000;

fn main() {
    let queue: WfQueue<u64, SEG> =
        WfQueue::with_config(Config::default().with_segment_ceiling(CEILING));
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Producer: ships as fast as the ceiling admits; on Full it backs
        // off and retries the SAME value — Full hands the rejected value
        // back, so nothing is lost.
        s.spawn(|| {
            let mut h = queue.handle();
            let mut rejections = 0u64;
            let mut item = 0u64;
            while item < ITEMS {
                match h.try_enqueue(item) {
                    Ok(()) => item += 1,
                    Err(full) => {
                        rejections += 1;
                        let _ = full.into_inner(); // the value comes back
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            }
            println!("producer: {ITEMS} items shipped, {rejections} backpressure stalls");
            done.store(true, Ordering::Release);
        });

        // Slow consumer: drains at a throttled pace, forcing the ceiling
        // to matter.
        s.spawn(|| {
            let mut h = queue.handle();
            let mut got = 0u64;
            let mut expected = 0u64;
            while !(done.load(Ordering::Acquire) && got >= ITEMS) {
                match h.dequeue() {
                    Some(v) => {
                        assert_eq!(v, expected, "FIFO order broken");
                        expected += 1;
                        got += 1;
                        if got % 1024 == 0 {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                    None => std::hint::spin_loop(),
                }
            }
            println!("consumer: {got} items received, in order");
        });

        // Observer: the bounded-mode gauges in flight. With try_enqueue on
        // the producer side and the emptiness guard on the consumer side
        // (an `H > T` check after each EMPTY), live segments stay at the
        // ceiling plus at most one in-flight segment per spinning consumer
        // (DESIGN.md §9).
        s.spawn(|| {
            let mut max_live = 0u64;
            while !done.load(Ordering::Acquire) {
                let g = queue.gauges();
                assert!(
                    g.live_segments <= CEILING + 1,
                    "ceiling breached: {g:?}"
                );
                max_live = max_live.max(g.live_segments);
                std::thread::sleep(Duration::from_millis(5));
            }
            println!(
                "observer: live segments peaked at {max_live} (ceiling {CEILING})"
            );
        });
    });

    let stats = queue.stats();
    let gauges = queue.gauges();
    println!(
        "\nfinal: rejected={} forced_cleanups={} recycled={} pooled={} headroom={:?}",
        stats.enq_rejected,
        stats.forced_cleanups,
        stats.segs_recycled,
        gauges.pooled_segments,
        gauges.ceiling_headroom,
    );
}
