//! Per-primitive and per-operation micro-costs.
//!
//! Quantifies the building blocks the paper's argument rests on: FAA
//! (always succeeds) vs CAS (can fail) vs CAS2, and the uncontended
//! single-op cost of each queue — the "single core performance" discussion
//! of §5.2. Built with `--features durable`, it also prices durable mode.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use wfq_baselines::{BenchQueue, CcQueue, Lcrq, MsQueue, MutexQueue};
use wfq_bench::microbench::Criterion;
use wfq_sync::dwcas::AtomicU128;
use wfqueue::RawQueue;

fn bench_atomics(c: &mut Criterion) {
    let mut g = c.benchmark_group("primitives");
    g.sample_size(20).measurement_time(Duration::from_secs(1));

    let counter = AtomicU64::new(0);
    g.bench_function("faa", |b| {
        b.iter(|| std::hint::black_box(counter.fetch_add(1, Ordering::SeqCst)))
    });

    let cas_target = AtomicU64::new(0);
    g.bench_function("cas_success", |b| {
        b.iter(|| {
            let cur = cas_target.load(Ordering::Relaxed);
            std::hint::black_box(
                cas_target
                    .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok(),
            )
        })
    });

    let wide = AtomicU128::new(0, 0);
    g.bench_function("cas2_success", |b| {
        b.iter(|| {
            let cur = wide.load();
            std::hint::black_box(wide.compare_exchange(cur, (cur.0 + 1, cur.1 + 1)).is_ok())
        })
    });
    g.finish();
}

fn bench_single_op(c: &mut Criterion) {
    let mut g = c.benchmark_group("uncontended_pair");
    g.sample_size(20).measurement_time(Duration::from_secs(1));

    macro_rules! case {
        ($q:ty) => {{
            let q = <$q as BenchQueue>::new();
            let mut h = q.register();
            let mut i = 0u64;
            g.bench_function(<$q as BenchQueue>::NAME, |b| {
                b.iter(|| {
                    i += 1;
                    h.enqueue(i);
                    std::hint::black_box(h.dequeue())
                })
            });
        }};
    }
    case!(RawQueue);
    case!(MsQueue);
    case!(Lcrq);
    case!(CcQueue);
    case!(MutexQueue);
    g.finish();
}

/// What durable mode costs (DESIGN.md §12), built only with `--features
/// durable`: the pair loop with the persist hooks compiled in and no sink
/// attached (`durable_no_sink`, one `Option` load and branch per
/// frontier), and with a live in-memory store (`durable_mem_store`).
/// EXPERIMENTS.md quotes both against `uncontended_pair/WF-10`. That the
/// hooks cost nothing in the default build is not timed here:
/// `examples/check_fast_path.py` checks it in the fast path's machine code.
#[cfg(feature = "durable")]
fn bench_persist_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("persist_overhead");
    g.sample_size(20).measurement_time(Duration::from_secs(1));

    let q: RawQueue = RawQueue::with_config(wfqueue::Config::default());
    let mut h = q.register();
    let mut i = 0u64;
    g.bench_function("durable_no_sink", |b| {
        b.iter(|| {
            i += 1;
            h.enqueue(i);
            std::hint::black_box(h.dequeue())
        })
    });

    // Full durable pair: deposit + index-advance + consume records into
    // an in-memory store on every operation. The store's index space is
    // finite and each pair burns two cells, so every sample gets a fresh
    // store sized to its batch (built outside the timed region).
    g.bench_function("durable_mem_store", |b| {
        b.iter_custom(|iters| {
            let store = std::sync::Arc::new(wfqueue::MemStore::new(2 * iters + 64, 4));
            let q: RawQueue = RawQueue::with_persist(
                wfqueue::Config::default(),
                store as std::sync::Arc<dyn wfqueue::PersistSink>,
            );
            let mut h = q.register();
            let start = std::time::Instant::now();
            for j in 1..=iters {
                h.enqueue(j);
                std::hint::black_box(h.dequeue());
            }
            start.elapsed()
        })
    });
    g.finish();
}

fn main() {
    let mut c = Criterion::new();
    bench_atomics(&mut c);
    bench_single_op(&mut c);
    #[cfg(feature = "durable")]
    bench_persist_overhead(&mut c);
}
