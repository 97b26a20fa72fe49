//! Per-primitive and per-operation micro-costs.
//!
//! Quantifies the building blocks the paper's argument rests on: FAA
//! (always succeeds) vs CAS (can fail) vs CAS2, and the uncontended
//! single-op cost of each queue — the "single core performance" discussion
//! of §5.2.

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

/// Zero-overhead guard for the fault-injection layer: in the default build
/// `wfq_sync::inject!` must expand to literally nothing — no atomic loads,
/// no branches — so the fast paths measured above are unperturbed. The
/// static proof lives in `wfq-sync` (the macro expansion is a valid
/// constant expression, which no runtime atomic access is); this bench
/// makes the same claim observable: an `inject!`-laden loop must price
/// identically to the bare loop.
fn bench_inject_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("inject_overhead");
    g.sample_size(20).measurement_time(Duration::from_secs(1));

    let counter = AtomicU64::new(0);
    g.bench_function("faa_bare", |b| {
        b.iter(|| std::hint::black_box(counter.fetch_add(1, Ordering::SeqCst)))
    });
    g.bench_function("faa_with_inject_points", |b| {
        b.iter(|| {
            wfq_sync::inject!("bench::before_faa");
            let v = std::hint::black_box(counter.fetch_add(1, Ordering::SeqCst));
            wfq_sync::inject!("bench::after_faa");
            v
        })
    });
    // Same guardrail for the flight recorder (`wfq_obs::record!`): without
    // the `trace` feature the instrumented loop must be cycle-identical to
    // the bare FAA loop — the recorder's const proof made observable.
    g.bench_function("faa_with_trace_points", |b| {
        b.iter(|| {
            wfq_obs::record!(wfq_obs::EventKind::EnqFast, 0u64);
            let v = std::hint::black_box(counter.fetch_add(1, Ordering::SeqCst));
            wfq_obs::record!(wfq_obs::EventKind::DeqFast, v);
            v
        })
    });
    g.finish();
}

/// Guardrail for the `op-sample` path hooks (the latency observatory's
/// attribution layer): in the default build `wfqueue`'s internal
/// `op_sample!` expands to `()` — the const proof in `core/src/raw.rs`
/// shows the expansion is a valid constant expression, so no Cell write,
/// no branch, nothing. This bench makes the claim observable the same way
/// the inject/trace guards do: a pair loop on the hook-instrumented queue
/// must price identically whether or not the build carries the feature
/// (compare `op_sample_overhead/pair` across `--features op-sample`
/// builds), and `last_op_sample()` in the default build is a constant
/// `None`.
fn bench_op_sample_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("op_sample_overhead");
    g.sample_size(20).measurement_time(Duration::from_secs(1));

    let q = <RawQueue as BenchQueue>::new();
    let mut h = RawQueue::register(&q);
    let mut i = 0u64;
    g.bench_function("pair", |b| {
        b.iter(|| {
            i += 1;
            h.enqueue(i);
            std::hint::black_box(h.dequeue())
        })
    });
    g.bench_function("pair_reading_last_op_sample", |b| {
        b.iter(|| {
            i += 1;
            h.enqueue(i);
            let v = h.dequeue();
            std::hint::black_box((v, h.last_op_sample()))
        })
    });
    g.finish();
}

/// Guardrail for bounded-memory mode: on an *unbounded* queue,
/// `try_enqueue` is the plain enqueue plus one branch on a constant
/// (`config.segment_ceiling.is_some()`), never a pool or ceiling atomic —
/// so a pair loop driven through `try_enqueue` must price identically to
/// one driven through `enqueue`. A regression here means the admission
/// gate leaked onto the paper's fast path.
fn bench_try_enqueue_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("try_enqueue_overhead");
    g.sample_size(20).measurement_time(Duration::from_secs(1));

    let q = <RawQueue as BenchQueue>::new();
    let mut h = RawQueue::register(&q);
    let mut i = 0u64;
    g.bench_function("pair_enqueue", |b| {
        b.iter(|| {
            i += 1;
            h.enqueue(i);
            std::hint::black_box(h.dequeue())
        })
    });
    g.bench_function("pair_try_enqueue_unbounded", |b| {
        b.iter(|| {
            i += 1;
            h.try_enqueue(i).expect("unbounded queue never rejects");
            std::hint::black_box(h.dequeue())
        })
    });
    g.finish();
}

/// Guardrail for the batch fast path (DESIGN.md §10): `enqueue_batch` over
/// 8 values claims its cells with one FAA, one hazard publication, and one
/// stats/peer-help epilogue, where 8 single enqueues pay all of that per
/// element — so the batch loop must price well below the 8× single loop
/// (the issue's acceptance bar is ≤ 0.6×). Both sides drain through the
/// matching dequeue shape so the queue stays at steady state.
fn bench_batch_amortization(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_amortization");
    g.sample_size(20).measurement_time(Duration::from_secs(1));

    const K: usize = 8;
    let q = <RawQueue as BenchQueue>::new();
    let mut h = RawQueue::register(&q);
    let mut i = 0u64;
    let mut out = Vec::with_capacity(K);
    g.bench_function("eight_single_pairs", |b| {
        b.iter(|| {
            for _ in 0..K {
                i += 1;
                h.enqueue(i);
            }
            out.clear();
            for _ in 0..K {
                if let Some(v) = h.dequeue() {
                    out.push(v);
                }
            }
            std::hint::black_box(out.len())
        })
    });

    let q2 = <RawQueue as BenchQueue>::new();
    let mut h2 = RawQueue::register(&q2);
    let mut batch = [0u64; K];
    g.bench_function("enqueue_batch_8_pair", |b| {
        b.iter(|| {
            for slot in &mut batch {
                i += 1;
                *slot = i;
            }
            h2.enqueue_batch(&batch);
            out.clear();
            let n = h2.dequeue_batch(&mut out, K);
            std::hint::black_box(n)
        })
    });
    g.finish();
}

/// Guardrail for durable mode (DESIGN.md §12): in the default build the
/// internal `persist!` macro at the three commit frontiers expands to `()`
/// — the const proof in `core/src/raw.rs` shows the expansion is a valid
/// constant expression, so no `Option` load, no branch, no sink call. This
/// bench makes that observable: `persist_hooks_disabled` is the plain pair
/// loop walked straight through every persist site, and it must price
/// identically to `uncontended_pair/wf-faa` above. Rebuild with
/// `--features durable` and the group grows the priced tiers — the no-sink
/// branch (`durable_no_sink`) and a live in-memory store
/// (`durable_mem_store`) — so EXPERIMENTS.md can quote what durable mode
/// actually costs and what merely *compiling* it would cost if the proof
/// ever broke.
fn bench_persist_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("persist_overhead");
    g.sample_size(20).measurement_time(Duration::from_secs(1));

    let q = <RawQueue as BenchQueue>::new();
    let mut h = RawQueue::register(&q);
    let mut i = 0u64;
    g.bench_function("persist_hooks_disabled", |b| {
        b.iter(|| {
            i += 1;
            h.enqueue(i);
            std::hint::black_box(h.dequeue())
        })
    });

    #[cfg(feature = "durable")]
    {
        // Hooks compiled in but no sink attached: each frontier pays one
        // `Option` load and branch.
        let q2: RawQueue = RawQueue::with_config(wfqueue::Config::default());
        let mut h2 = q2.register();
        g.bench_function("durable_no_sink", |b| {
            b.iter(|| {
                i += 1;
                h2.enqueue(i);
                std::hint::black_box(h2.dequeue())
            })
        });

        // Full durable pair: deposit + index-advance + consume records into
        // an in-memory store on every operation. The store's index space is
        // finite and each pair burns two cells, so every sample gets a
        // fresh store sized to its batch (built outside the timed region).
        g.bench_function("durable_mem_store", |b| {
            b.iter_custom(|iters| {
                let store = std::sync::Arc::new(wfqueue::MemStore::new(2 * iters + 64, 4));
                let q3: RawQueue = RawQueue::with_persist(
                    wfqueue::Config::default(),
                    store as std::sync::Arc<dyn wfqueue::PersistSink>,
                );
                let mut h3 = q3.register();
                let start = std::time::Instant::now();
                for j in 1..=iters {
                    h3.enqueue(j);
                    std::hint::black_box(h3.dequeue());
                }
                start.elapsed()
            })
        });
    }
    g.finish();
}

fn main() {
    let mut c = Criterion::new();
    bench_atomics(&mut c);
    bench_single_op(&mut c);
    bench_inject_overhead(&mut c);
    bench_op_sample_overhead(&mut c);
    bench_try_enqueue_overhead(&mut c);
    bench_batch_amortization(&mut c);
    bench_persist_overhead(&mut c);
}
