//! Per-primitive and per-operation micro-costs.
//!
//! Quantifies the building blocks the paper's argument rests on: FAA
//! (always succeeds) vs CAS (can fail) vs CAS2, the chains of locked
//! instructions a queue pair is made of, and the uncontended
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

/// The locked-instruction chains an uncontended pair is made of, for the
/// cost model of a load placed between a front's two locked instructions
/// (EXPERIMENTS.md, "Locked chains"). Every CAS succeeds: a cell holds the
/// ticket that last wrote it, so its expected value is the ticket `CELLS`
/// earlier, and the pair's dequeue returns its cell to empty.
fn bench_locked_chain(c: &mut Criterion) {
    const CELLS: u64 = 1024;
    let mut g = c.benchmark_group("locked_chain");
    g.sample_size(20).measurement_time(Duration::from_secs(1));
    // Each loop captures a slice, not the `Vec`, so the compiler keeps the
    // cells' address in a register instead of reloading the `Vec` header
    // after every FAA: the only load between the locked instructions is
    // the one `faa_load_cas` adds.
    let primed = || -> Vec<AtomicU64> {
        (0..CELLS)
            .map(|i| AtomicU64::new(i.wrapping_sub(CELLS)))
            .collect()
    };

    let (counter, owned) = (AtomicU64::new(0), primed());
    let cells = &owned[..];
    g.bench_function("faa_cas", |b| {
        b.iter(|| {
            let t = counter.fetch_add(1, Ordering::SeqCst);
            let cell = &cells[(t % CELLS) as usize];
            std::hint::black_box(
                cell.compare_exchange(t.wrapping_sub(CELLS), t, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok(),
            )
        })
    });

    // The dependent load stands in for a front's `h.head` read: an L1 hit
    // that cannot complete before the FAA, and that the CAS's address needs.
    let (counter, owned, base) = (AtomicU64::new(0), primed(), AtomicU64::new(0));
    let cells = &owned[..];
    g.bench_function("faa_load_cas", |b| {
        b.iter(|| {
            let t = counter.fetch_add(1, Ordering::SeqCst);
            let cell = &cells[((base.load(Ordering::Relaxed) + t) % CELLS) as usize];
            std::hint::black_box(
                cell.compare_exchange(t.wrapping_sub(CELLS), t, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok(),
            )
        })
    });

    // An enqueue (FAA on T, CAS empty → value) then a dequeue (FAA on H,
    // CAS value → empty) on the same cell: the pair's four locked
    // instructions with none of the queue around them.
    let (tail, head) = (AtomicU64::new(0), AtomicU64::new(0));
    let owned: Vec<AtomicU64> = (0..CELLS).map(|_| AtomicU64::new(0)).collect();
    let cells = &owned[..];
    g.bench_function("pair", |b| {
        b.iter(|| {
            let t = tail.fetch_add(1, Ordering::SeqCst);
            let deposited = cells[(t % CELLS) as usize]
                .compare_exchange(0, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            let h = head.fetch_add(1, Ordering::SeqCst);
            let claimed = cells[(h % CELLS) as usize]
                .compare_exchange(h + 1, 0, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            std::hint::black_box(deposited & claimed)
        })
    });
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
    bench_locked_chain(&mut c);
    bench_single_op(&mut c);
    #[cfg(feature = "durable")]
    bench_persist_overhead(&mut c);
}
