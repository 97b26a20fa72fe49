//! Schedule fuzzing and targeted fault-injection tests.
//!
//! The interesting code in this repository — the Kogan–Petrank helping
//! slow paths and the reclaimer's re-verification windows — only runs when
//! a race is *lost*, which an unperturbed test almost never arranges. These
//! tests drive those windows deliberately:
//!
//! - a seeded **schedule fuzzer** replays small workloads under many
//!   deterministic [`FaultPlan`]s, certifies every recorded history with
//!   the linearizability checker, and asserts the sweep reached every
//!   named injection point (`wfqueue::FAULT_POINTS`);
//! - a **negative control** proves the certification step has teeth by
//!   feeding it a deliberately broken (LIFO) "queue";
//! - **targeted regressions** park a dequeuer, and an enqueuer, inside the
//!   hazard window of Listing 5 and prove the cleaner refuses to reclaim
//!   past it.
//!
//! Everything here is deterministic given a seed. On failure the seed is
//! part of the panic message; rerun just that schedule with
//! `WFQ_FUZZ_SEED=<seed> cargo test -p wfq-integration --features
//! fault-injection fuzz_sweep`.
//!
//! The file compiles without the feature too, so `cargo test` still
//! type-checks it; only the trivial build-mode guard runs there.

/// The injection layer must mirror the cargo feature exactly — this is the
/// run-time half of the zero-overhead guard (the compile-time half is the
/// `const` proof in `wfq_sync::fault`; the price check is in the
/// `primitives` bench).
#[test]
fn injection_layer_matches_build_mode() {
    assert_eq!(wfq_sync::fault::ENABLED, cfg!(feature = "fault-injection"));
    // The macro is an expression in both builds.
    let _: () = wfq_sync::inject!("fault_schedules::build_mode_probe");
}

#[cfg(feature = "fault-injection")]
mod fuzz {
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    use wfq_checker::{check_linearizable, check_necessary, CheckResult, OpKind, Recorder};
    use wfq_sync::fault::{self, FaultPlan};
    use wfq_sync::inject;
    use wfqueue::{Config, RawQueue};

    /// Cells per segment in fuzzed queues: small enough that a few dozen
    /// operations cross segment boundaries and exercise reclamation.
    const SEG: usize = 16;

    /// Distinct fuzz schedules per sweep. Each costs a few milliseconds;
    /// the CI fuzz job runs the same fixed range, so failures there are
    /// reproducible locally by seed.
    const SWEEP_SEEDS: u64 = 48;

    /// Value namespace: producer `t` enqueues `t * VALS_PER_THREAD + k + 1`
    /// so every enqueued value is unique and nonzero.
    const VALS_PER_THREAD: u64 = 12;

    fn thread_plan(seed: u64, thread: u64, intensity: u32) -> FaultPlan {
        // Golden-ratio salt: distinct deterministic stream per thread.
        FaultPlan::fuzz(seed ^ thread.wrapping_mul(0x9E37_79B9_7F4A_7C15), intensity)
    }

    /// With `--features trace` a failing schedule drains the flight
    /// recorders into a Chrome-trace artifact, so the panic message points
    /// at a Perfetto-loadable recording of the last protocol steps every
    /// thread took; without it, it says how to get one.
    fn failure_artifact(seed: u64) -> String {
        #[cfg(feature = "trace")]
        {
            let path = std::env::temp_dir().join(format!("wfq-fuzz-seed-{seed}.trace.json"));
            return match wfq_harness::dump_chrome_trace(&path) {
                Ok(n) => format!(
                    "\nflight recording ({n} events) dumped to {} — open in ui.perfetto.dev",
                    path.display()
                ),
                Err(e) => format!("\n(flight-recorder dump failed: {e})"),
            };
        }
        #[cfg(not(feature = "trace"))]
        {
            let _ = seed;
            String::from("\n(add --features trace for a flight recording of the failure)")
        }
    }

    /// One fuzzed schedule: `producers` + `consumers` threads hammer a
    /// fresh queue under per-thread seeded plans; returns the recorded
    /// history already certified by the *necessary-conditions* checker,
    /// and runs the exhaustive checker when the history is small enough.
    ///
    /// With `batch >= 2` every thread alternates single ops with batch ops
    /// of that width (one FAA per batch), recorded through the checker's
    /// batch helpers. The adjacency links those helpers attach are kept
    /// only when the queue's batch-straggler counters stayed at zero —
    /// i.e. every batch element really completed on the one-FAA fast path,
    /// which is exactly when a batch is k *adjacent* atomic ops. Under
    /// fault plans that force the slow paths, a straggler element may land
    /// past concurrent single ops, so dirty rounds demote each batch to k
    /// same-interval ops (conservation and real-time order still fully
    /// certified).
    fn run_schedule(seed: u64, cfg: Config, producers: u64, consumers: u64, batch: u32) {
        let q = RawQueue::<SEG>::with_config(cfg);
        let rec = Recorder::new();
        // Consumers poll a little more than was produced so EMPTY returns
        // (and the deq_slow EMPTY exit) are part of every history.
        let deq_attempts = (producers * VALS_PER_THREAD) / consumers + 4;

        std::thread::scope(|s| {
            for t in 0..producers {
                let q = &q;
                let mut tr = rec.thread();
                s.spawn(move || {
                    fault::with_plan(thread_plan(seed, t, 70), || {
                        let mut h = q.register();
                        let mut k = 0u64;
                        let mut use_batch = batch >= 2;
                        while k < VALS_PER_THREAD {
                            let width = u64::from(batch).min(VALS_PER_THREAD - k);
                            if use_batch && width >= 2 {
                                let vals: Vec<u64> = (0..width)
                                    .map(|j| t * VALS_PER_THREAD + k + j + 1)
                                    .collect();
                                let inv = tr.invoke();
                                h.enqueue_batch(&vals);
                                tr.record_enqueue_batch(&vals, inv);
                                k += width;
                            } else {
                                let v = t * VALS_PER_THREAD + k + 1;
                                let inv = tr.invoke();
                                h.enqueue(v);
                                tr.record(OpKind::Enqueue(v), inv);
                                k += 1;
                            }
                            if batch >= 2 {
                                use_batch = !use_batch;
                            }
                        }
                    });
                });
            }
            for t in 0..consumers {
                let q = &q;
                let mut tr = rec.thread();
                s.spawn(move || {
                    fault::with_plan(thread_plan(seed, producers + t, 70), || {
                        let mut h = q.register();
                        let mut out = Vec::new();
                        let mut polled = 0u64;
                        let mut use_batch = false;
                        while polled < deq_attempts {
                            if use_batch {
                                out.clear();
                                let inv = tr.invoke();
                                h.dequeue_batch(&mut out, batch as usize);
                                tr.record_dequeue_batch(&out, inv);
                                polled += u64::from(batch);
                            } else {
                                let inv = tr.invoke();
                                let got = h.dequeue();
                                tr.record(OpKind::Dequeue(got), inv);
                                polled += 1;
                            }
                            if batch >= 2 {
                                use_batch = !use_batch;
                            }
                        }
                    });
                });
            }
        });

        let stats = q.stats();
        let clean = stats.enq_batch_stragglers == 0
            && stats.enq_batch_abandoned == 0
            && stats.deq_batch_stragglers == 0;
        let mut h = rec.finish();
        if !clean {
            for op in &mut h.ops {
                op.batch = None;
            }
        }
        if let Err(v) = check_necessary(&h) {
            panic!(
                "necessary-condition violation under fuzz schedule: {v:?}\n\
                 reproduce: WFQ_FUZZ_SEED={seed} cargo test -p wfq-integration \
                 --features fault-injection fuzz_sweep{}",
                failure_artifact(seed)
            );
        }
        match check_linearizable(&h, 4_000_000) {
            CheckResult::NotLinearizable => panic!(
                "history not linearizable under fuzz schedule\n\
                 reproduce: WFQ_FUZZ_SEED={seed} cargo test -p wfq-integration \
                 --features fault-injection fuzz_sweep{}",
                failure_artifact(seed)
            ),
            // Linearizable, or the state cap was hit after the linear-time
            // necessary conditions already passed — both acceptable.
            _ => {}
        }
    }

    /// Schedule shapes the sweep cycles through (the last tuple field is
    /// the batch width; 0 disables batch ops). The patience-0 shapes force
    /// the wait-free slow paths (every lost fast-path race enlists
    /// helpers); the `max_garbage(1)` shapes force a reclamation pass at
    /// every segment retirement.
    fn schedule_for(seed: u64) -> (Config, u64, u64, u32) {
        match seed % 6 {
            // Slow-path stress: zero patience, consumer-heavy (cells get
            // ⊤-poisoned under the enqueuers, forcing enq_slow).
            0 => (Config::wf0().with_max_garbage(1), 2, 3, 0),
            // Reclamation stress: default patience, tiny garbage bound.
            1 => (Config::wf10().with_max_garbage(1), 3, 2, 0),
            // Mixed: low patience, balanced.
            2 => (
                Config::default().with_patience(1).with_max_garbage(2),
                2,
                2,
                0,
            ),
            // Producer-heavy WF-0: deep queues, segment turnover.
            3 => (Config::wf0().with_max_garbage(2), 3, 2, 0),
            // Bounded-memory mode: a ceiling tight enough that segment
            // acquisition goes through the recycling pool (and, when the
            // consumers lag, through the acquire stall/overshoot path).
            4 => (
                Config::wf0().with_max_garbage(1).with_segment_ceiling(3),
                2,
                2,
                0,
            ),
            // Batch shape: every thread interleaves one-FAA batch claims
            // (width 2–4, varying with the seed) with single-op claims,
            // under a low-patience config so batch stragglers meet the
            // helping protocol mid-batch.
            _ => (
                Config::default().with_patience(1).with_max_garbage(1),
                2,
                2,
                2 + ((seed / 6) % 3) as u32,
            ),
        }
    }

    /// The tentpole sweep: many seeded schedules, every history certified,
    /// and — because the coverage map is process-global — a final assert
    /// that the sweep reached **every** named injection point in the core
    /// crate at least once.
    #[test]
    fn fuzz_sweep_certifies_histories_and_covers_every_point() {
        // A pinned seed (from a failure message) replays one schedule.
        if let Ok(s) = std::env::var("WFQ_FUZZ_SEED") {
            let seed: u64 = s.parse().expect("WFQ_FUZZ_SEED must be a u64");
            let (cfg, p, c, b) = schedule_for(seed);
            run_schedule(seed, cfg, p, c, b);
            return;
        }
        for seed in 0..SWEEP_SEEDS {
            let (cfg, p, c, b) = schedule_for(seed);
            run_schedule(seed, cfg, p, c, b);
        }
        drive_bounded_points();
        drive_batch_points();
        drive_help_enq_point();
        stale_claim_tape(0);
        let cov = fault::coverage();
        let missed: Vec<&str> = wfqueue::FAULT_POINTS
            .iter()
            .copied()
            .filter(|p| cov.get(p).copied().unwrap_or(0) == 0)
            .collect();
        assert!(
            missed.is_empty(),
            "fuzz sweep never reached injection points {missed:?}; \
             coverage: {cov:#?}"
        );
    }

    /// Deterministic drivers for the bounded-memory injection points: the
    /// fuzzed bounded schedules reach the pool in most runs, but the
    /// coverage assert must not depend on a race going one way, so each
    /// window is also driven single-threadedly.
    ///
    /// - `reclaim::forced` + `pool::push`/`pool::pop`: pairs traffic
    ///   through a tight ceiling with the dequeuer threshold disabled —
    ///   every boundary crossing is funded by an enqueuer-elected pass
    ///   recycling into (push) and out of (pop) the pool;
    /// - `pool::stall`: plain `enqueue` with no consumer fills past the
    ///   ceiling, spinning the acquire backoff until it saturates and
    ///   overshoots.
    fn drive_bounded_points() {
        let q = RawQueue::<SEG>::with_config(
            Config::default()
                .with_max_garbage(1_000_000)
                .with_segment_ceiling(2),
        );
        let mut h = q.register();
        for v in 1..=SEG as u64 * 8 {
            h.try_enqueue(v).expect("pairs traffic must recycle, not reject");
            assert_eq!(h.dequeue(), Some(v));
        }
        assert!(fault::coverage_count("reclaim::forced") > 0);
        assert!(fault::coverage_count("pool::push") > 0);
        assert!(fault::coverage_count("pool::pop") > 0);

        let q = RawQueue::<SEG>::with_config(
            Config::default().with_segment_ceiling(2),
        );
        let mut h = q.register();
        for v in 1..=SEG as u64 * 3 {
            h.enqueue(v); // plain enqueue: stalls, then overshoots
        }
        assert!(fault::coverage_count("pool::stall") > 0);
    }

    /// Deterministic drivers for the batch injection points (DESIGN.md
    /// §10), exploiting a protocol fact visible single-threadedly: an
    /// EMPTY probe ⊤-seals the cell `T` points at *without* advancing `T`,
    /// so the very next batch enqueue's FAA claims the sealed cell — its
    /// first element stragglers, the rest are abandoned, and the cells it
    /// left behind send the following batch dequeue down its straggler arm.
    /// No race required anywhere.
    fn drive_batch_points() {
        let q = RawQueue::<SEG>::with_config(Config::wf10());
        let mut h = q.register();

        // Seal the head-of-tail cell, then batch straight into it.
        assert_eq!(h.dequeue(), None);
        h.enqueue_batch(&[1, 2, 3]);
        assert!(fault::coverage_count("enq_batch::post_faa") > 0);
        assert!(fault::coverage_count("enq_batch::straggler") > 0);
        assert!(fault::coverage_count("enq_batch::abandon") > 0);

        // The straggler fallback left abandoned (⊤) cells below the new
        // values; a batch dequeue's claim run crosses them.
        let mut out = Vec::new();
        while out.len() < 3 {
            let before = out.len();
            h.dequeue_batch(&mut out, 3);
            assert!(out.len() > before, "batch values lost: {out:?}");
        }
        assert_eq!(out, vec![1, 2, 3], "straggler fallback broke batch FIFO");
        assert!(fault::coverage_count("deq_batch::post_faa") > 0);
        assert!(fault::coverage_count("deq_batch::straggler") > 0);

        // Partial claim: one value available, two requested — the (H, T)
        // snapshot trims the claim before the FAA.
        let q = RawQueue::<SEG>::with_config(Config::wf10());
        let mut h = q.register();
        h.enqueue(7);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 2), 1);
        assert_eq!(out, vec![7]);
        assert!(fault::coverage_count("deq_batch::partial_probe") > 0);
    }

    /// Deterministic driver for `help_enq::pre_complete` — a dequeuer
    /// completing a *pending* slow-path enqueue request. The fuzzed
    /// schedules reach it in most runs, but the window needs a dequeuer to
    /// arrive while a request is still pending, so under an unlucky
    /// scheduler the sweep alone can miss it. Staged without a race:
    ///
    /// 1. handle M's empty probe ⊤-seals cell 0 (H: 0 → 1, T stays 0);
    /// 2. handle A (patience 0) enqueues: its one fast attempt claims the
    ///    sealed cell, fails, publishes a slow-path request — and a fault
    ///    hook parks A right there, request pending;
    /// 3. handle B registers *after* A, so the ring splice points B's
    ///    `enq_peer` at A, and B's single `H == T` probe (cell 1) finds the
    ///    pending request via the peer scan, reserves it into its cell, and
    ///    completes it — `help_enq::pre_complete` — returning A's value.
    fn drive_help_enq_point() {
        let q = RawQueue::<SEG>::with_config(Config::wf0());
        let mut m = q.register(); // the ring anchor; stays live so B's
                                  // node is a fresh splice, not a recycle
        assert_eq!(m.dequeue(), None); // seals cell 0

        let parked = Arc::new(Event::default());
        let release = Arc::new(Event::default());
        std::thread::scope(|s| {
            {
                let q = &q;
                let (parked, release) = (Arc::clone(&parked), Arc::clone(&release));
                s.spawn(move || {
                    let mut a = q.register();
                    let p = Arc::clone(&parked);
                    let r = Arc::clone(&release);
                    fault::with_plan(
                        FaultPlan::new().hook_at(
                            "enq_slow::request_published",
                            0,
                            Arc::new(move |_| {
                                p.set();
                                r.wait();
                            }),
                        ),
                        || a.enqueue(42),
                    );
                });
            }
            parked.wait();
            let before = fault::coverage_count("help_enq::pre_complete");
            let mut b = q.register();
            assert_eq!(
                b.dequeue(),
                Some(42),
                "the probe must complete the parked request and take its value"
            );
            assert!(
                fault::coverage_count("help_enq::pre_complete") > before,
                "helping a parked pending request must pass pre_complete"
            );
            release.set();
        });
    }

    /// Parks the calling thread: signals `at`, then waits for `until`.
    fn park(at: &Arc<Event>, until: &Arc<Event>) -> fault::Hook {
        let (at, until) = (Arc::clone(at), Arc::clone(until));
        Arc::new(move |_| {
            at.set();
            until.wait();
        })
    }

    /// The stale-claim tape (erratum 4 in DESIGN.md §3). A dequeuer reads
    /// a pending request at its cell; before its claim CAS, the enqueuer
    /// claims that request for the *same* cell and is parked before its
    /// commit. The dequeuer's claim loses, and it must judge the loss by
    /// the state its CAS observed — `(0, i)`: claimed for my cell, not yet
    /// committed — and commit the value itself. Judged by the state it read
    /// before the CAS, it leaves the cell as ⊤, the enqueuer later fills a
    /// cell no dequeuer will visit again, and the value is lost. Staged
    /// without a race, under WF-0 so one failed fast path publishes:
    ///
    /// 1. `5 * seed` pairs move the staged cells (seed 3 puts them across
    ///    a segment boundary); handle M's empty probe then ⊤-seals cell p;
    /// 2. enqueuer A's fast path hits the sealed cell p and publishes a
    ///    request with id p; its slow loop reserves cell p + 1 (still ⊥),
    ///    and a hook parks A before its claim;
    /// 3. dequeuer D's FAA lands on cell p + 1: D marks it ⊤, finds A's
    ///    request there, reads `(1, p)`, and parks before its claim;
    /// 4. A claims its request for cell p + 1 and parks before its commit;
    /// 5. D's claim loses; its dequeue must return A's value.
    fn stale_claim_tape(seed: u64) {
        let q = RawQueue::<SEG>::with_config(Config::wf0());
        let mut m = q.register();
        for v in 1..=5 * seed {
            m.enqueue(v);
            assert_eq!(m.dequeue(), Some(v));
        }
        assert_eq!(m.dequeue(), None); // seals cell p
        let value = 1_000 + seed;

        let [a_reserved, a_claim, a_claimed, a_commit, d_read, d_claim] =
            std::array::from_fn(|_| Arc::new(Event::default()));
        let got = std::thread::scope(|s| {
            {
                let q = &q;
                let plan = FaultPlan::new()
                    .hook_at("enq_slow::cell_reserved", 0, park(&a_reserved, &a_claim))
                    .hook_at("enq_slow::pre_commit", 0, park(&a_claimed, &a_commit));
                s.spawn(move || {
                    let mut a = q.register();
                    fault::with_plan(plan, || a.enqueue(value));
                });
            }
            a_reserved.wait();
            let d = {
                let q = &q;
                let plan =
                    FaultPlan::new().hook_at("help_enq::pre_claim", 0, park(&d_read, &d_claim));
                s.spawn(move || {
                    let mut d = q.register();
                    fault::with_plan(plan, || d.dequeue())
                })
            };
            d_read.wait();
            a_claim.set();
            a_claimed.wait();
            d_claim.set();
            let got = d.join().unwrap();
            a_commit.set();
            got
        });
        assert_eq!(
            got,
            Some(value),
            "seed {seed}: the dequeuer lost its claim to the enqueuer's claim for the \
             same cell and walked away from the value"
        );
        assert_eq!(
            m.dequeue(),
            None,
            "seed {seed}: the value must be delivered once"
        );
    }

    #[test]
    fn help_enq_commits_a_claim_lost_for_its_own_cell() {
        for seed in 0..4 {
            stale_claim_tape(seed);
        }
    }

    /// A batch dequeue must not turn a cell its own earlier straggler
    /// request already consumed into a second request. Such a request
    /// would publish the state word `(1, i)` the earlier request announced
    /// for that cell, and a stale helper of the earlier request, parked
    /// just before its completing CAS, would complete the new request on
    /// the same cell: one value delivered twice. Staged on one batch:
    ///
    /// 1. B's empty probe ⊤-seals cell 0, so `enqueue_batch(&[1, 2, 3])`
    ///    stragglers into cell 3 and leaves cells 1 and 2 abandoned: cells
    ///    1..=5 hold ⊥, ⊥, 1, 2, 3;
    /// 2. B's `dequeue_batch(3)` claims cells 1–3; cell 1 stragglers and B
    ///    parks right after publishing its request (id 1);
    /// 3. Q dequeues cell 4 (value 2) and helps its peer B: it ⊤-seals
    ///    cell 2, announces cell 3, claims it for B's request and parks
    ///    before the completing CAS `(1, 3) → (0, 3)`;
    /// 4. B completes its request on cell 3 (value 1), stragglers again on
    ///    cell 2 (its second request takes cell 5, value 3) and reaches
    ///    cell 3, which its own first request consumed;
    /// 5. Q's CAS runs. Had B published a request for cell 3, its state
    ///    would be `(1, 3)` and Q would complete it there. B instead reruns
    ///    that dequeue after the batch, and finds the queue empty.
    #[test]
    fn batch_dequeue_does_not_reopen_a_cell_its_own_request_consumed() {
        let q = RawQueue::<SEG>::with_config(Config::wf10());
        let mut b = q.register(); // ring anchor: Q's dequeue peer is B
        let mut qh = q.register();
        assert_eq!(b.dequeue(), None);
        b.enqueue_batch(&[1, 2, 3]);

        let [b_parked, b_resume, b_reached, b_finish, q_parked, q_resume] =
            std::array::from_fn(|_| Arc::new(Event::default()));
        let (out, q_got) = std::thread::scope(|s| {
            let b_thread = {
                let plan = FaultPlan::new()
                    .hook_at("deq_slow::request_published", 0, park(&b_parked, &b_resume))
                    .hook_at(
                        "deq_slow::request_published",
                        2,
                        park(&b_reached, &b_finish),
                    );
                let b_reached = Arc::clone(&b_reached);
                s.spawn(move || {
                    let mut out = Vec::new();
                    fault::with_plan(plan, || b.dequeue_batch(&mut out, 3));
                    b_reached.set();
                    out
                })
            };
            b_parked.wait();
            let q_thread = {
                let plan = FaultPlan::new().hook_at(
                    "help_deq::pre_complete",
                    0,
                    park(&q_parked, &q_resume),
                );
                s.spawn(move || fault::with_plan(plan, || qh.dequeue()))
            };
            q_parked.wait();
            b_resume.set();
            // B either finished its batch or parked in a third request.
            b_reached.wait();
            q_resume.set();
            let q_got = q_thread.join().unwrap();
            b_finish.set();
            (b_thread.join().unwrap(), q_got)
        });
        assert_eq!(q_got, Some(2));
        assert_eq!(out, vec![1, 3], "a batch cell was delivered twice");
        let mut h = q.register();
        assert_eq!(h.dequeue(), None);
    }

    /// The branch counters behind the paper's Table 2 extension: a
    /// slow-path-heavy schedule must light up the helping-protocol
    /// counters, proving the sweep exercises the *branches*, not merely
    /// the straight-line code around them.
    #[test]
    fn slow_path_branch_counters_are_driven() {
        let mut agg = wfqueue::QueueStats::default();
        for seed in 1000..1000 + SWEEP_SEEDS {
            let q = RawQueue::<SEG>::with_config(Config::wf0().with_max_garbage(1));
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let q = &q;
                    s.spawn(move || {
                        fault::with_plan(thread_plan(seed, t, 80), || {
                            let mut h = q.register();
                            for k in 0..24 {
                                if (k + t) % 2 == 0 {
                                    h.enqueue(t * 1000 + k + 1);
                                } else {
                                    let _ = h.dequeue();
                                }
                            }
                        });
                    });
                }
            });
            let s = q.stats();
            agg.enq_slow += s.enq_slow;
            agg.deq_slow += s.deq_slow;
            agg.help_enq_seal += s.help_enq_seal;
            agg.help_deq_announce += s.help_deq_announce;
            agg.help_deq_complete += s.help_deq_complete;
            agg.cleanups += s.cleanups;
            agg.reclaim_noop += s.reclaim_noop;
            agg.segs_freed += s.segs_freed;
        }
        assert!(agg.enq_slow > 0, "no slow-path enqueue in the sweep: {agg:?}");
        assert!(agg.deq_slow > 0, "no slow-path dequeue in the sweep: {agg:?}");
        assert!(agg.help_enq_seal > 0, "no cell ever ⊤e-sealed: {agg:?}");
        assert!(
            agg.help_deq_announce > 0,
            "help_deq never announced a candidate: {agg:?}"
        );
        assert!(
            agg.help_deq_complete > 0,
            "help_deq never completed a request: {agg:?}"
        );
        assert!(agg.cleanups > 0, "reclamation never ran: {agg:?}");
        assert!(agg.segs_freed > 0, "reclamation never freed: {agg:?}");
    }

    // ------------------------------------------------------------------
    // Shape 7: the bounded-ring backends (SCQ / wCQ) under the same
    // seeded fault plans, every history certified — plus deterministic
    // drivers for the ring injection points so the coverage assert never
    // depends on a race going one way.
    // ------------------------------------------------------------------

    /// One fuzzed ring schedule, generic over any [`BenchQueue`] backend:
    /// producers and consumers hammer `q` under per-thread plans, the
    /// recorded history is certified (necessary conditions always; the
    /// exhaustive search up to its state cap).
    fn run_ring_schedule<Q: wfq_baselines::BenchQueue>(
        seed: u64,
        q: Q,
        producers: u64,
        consumers: u64,
    ) {
        use wfq_baselines::QueueHandle as _;
        let rec = Recorder::new();
        // Consumers drain until every produced value is delivered — a fixed
        // attempt budget could exit while a producer is still blocked on a
        // full capacity-16 ring, leaving its blocking enqueue spinning
        // forever. The spin caps turn a genuine liveness bug (or a lost
        // value) into a seed-stamped panic on every thread instead of a
        // hung test: whoever trips a cap raises `abort`, and the others
        // bail out so the scope can join and surface the panic.
        let target = producers * VALS_PER_THREAD;
        let delivered = AtomicU64::new(0);
        let abort = AtomicBool::new(false);
        const SPIN_CAP: u64 = 5_000_000;
        std::thread::scope(|s| {
            for t in 0..producers {
                let q = &q;
                let abort = &abort;
                let mut tr = rec.thread();
                s.spawn(move || {
                    fault::with_plan(thread_plan(seed, t, 70), || {
                        let mut h = q.register();
                        for k in 0..VALS_PER_THREAD {
                            let v = t * VALS_PER_THREAD + k + 1;
                            let inv = tr.invoke();
                            let mut spins = 0u64;
                            while h.try_enqueue(v).is_err() {
                                if abort.load(Ordering::Relaxed) {
                                    return;
                                }
                                spins += 1;
                                if spins > SPIN_CAP {
                                    abort.store(true, Ordering::Relaxed);
                                    panic!(
                                        "{}: producer {t} starved on a full ring \
                                         (seed {seed}): consumers are not draining",
                                        Q::NAME
                                    );
                                }
                                std::thread::yield_now();
                            }
                            tr.record(OpKind::Enqueue(v), inv);
                        }
                    });
                });
            }
            for t in 0..consumers {
                let q = &q;
                let (delivered, abort) = (&delivered, &abort);
                let mut tr = rec.thread();
                s.spawn(move || {
                    fault::with_plan(thread_plan(seed, producers + t, 70), || {
                        let mut h = q.register();
                        // Bound the *recorded* empty probes: dropping a
                        // Dequeue(None) from a history only removes a
                        // constraint, and unbounded recording would bloat
                        // the exhaustive search for no extra signal.
                        let mut none_budget = 64u64;
                        let mut attempts = 0u64;
                        while delivered.load(Ordering::Relaxed) < target {
                            if abort.load(Ordering::Relaxed) {
                                return;
                            }
                            attempts += 1;
                            if attempts > SPIN_CAP {
                                abort.store(true, Ordering::Relaxed);
                                panic!(
                                    "{}: consumer starved with {}/{target} values \
                                     delivered (seed {seed}): values were lost",
                                    Q::NAME,
                                    delivered.load(Ordering::Relaxed)
                                );
                            }
                            let inv = tr.invoke();
                            let got = h.dequeue();
                            match got {
                                Some(_) => {
                                    tr.record(OpKind::Dequeue(got), inv);
                                    delivered.fetch_add(1, Ordering::Relaxed);
                                }
                                None => {
                                    if none_budget > 0 {
                                        none_budget -= 1;
                                        tr.record(OpKind::Dequeue(None), inv);
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        }
                    });
                });
            }
        });
        let h = rec.finish();
        if let Err(v) = check_necessary(&h) {
            panic!(
                "{}: necessary-condition violation under ring schedule: {v:?}\n\
                 reproduce: WFQ_RING_SEED={seed} cargo test -p wfq-integration \
                 --features fault-injection ring_backend_sweep{}",
                Q::NAME,
                failure_artifact(seed)
            );
        }
        if let CheckResult::NotLinearizable = check_linearizable(&h, 4_000_000) {
            panic!(
                "{}: history not linearizable under ring schedule\n\
                 reproduce: WFQ_RING_SEED={seed} cargo test -p wfq-integration \
                 --features fault-injection ring_backend_sweep{}",
                Q::NAME,
                failure_artifact(seed)
            );
        }
    }

    /// Ring schedule shapes: tiny rings (order 4 → capacity 16, under 24
    /// values in flight) force cycle wraps, full-ring spins and threshold
    /// churn; the patience-0 wCQ shape routes *every* operation through
    /// the helping records.
    fn ring_schedule(seed: u64) {
        use wfq_baselines::{Scq, Wcq};
        match seed % 3 {
            0 => run_ring_schedule(seed, Scq::with_order(4), 2, 3),
            1 => run_ring_schedule(seed, Wcq::with_params(4, 2), 2, 3),
            _ => run_ring_schedule(seed, Wcq::with_params(4, 0), 3, 2),
        }
    }

    /// Shape 7 of the sweep (the ring backends), with the same seed count
    /// as the WF sweep so a CI run certifies SCQ/wCQ under 48 schedules.
    #[test]
    fn ring_backend_sweep_certifies_histories_and_covers_ring_points() {
        if let Ok(s) = std::env::var("WFQ_RING_SEED") {
            let seed: u64 = s.parse().expect("WFQ_RING_SEED must be a u64");
            ring_schedule(seed);
            return;
        }
        for seed in 0..SWEEP_SEEDS {
            ring_schedule(seed);
        }
        drive_ring_points();
        let cov = fault::coverage();
        let missed: Vec<&str> = wfq_baselines::FAULT_POINTS
            .iter()
            .copied()
            .filter(|p| p.starts_with("scq::") || p.starts_with("wcq::"))
            .filter(|p| cov.get(p).copied().unwrap_or(0) == 0)
            .collect();
        assert!(
            missed.is_empty(),
            "ring sweep never reached injection points {missed:?}; \
             coverage: {cov:#?}"
        );
    }

    /// Deterministic drivers for every `scq::`/`wcq::` injection point.
    /// Each window is staged so reaching it needs no lost race:
    ///
    /// - the SCQ happy paths (`pre_cas`, `threshold_reset`, `pre_consume`)
    ///   fire on any enqueue/dequeue pair;
    /// - `slot_advance` + `catchup` fire on the first empty probe after a
    ///   consume (head's slot holds an old-cycle ⊥, tail has caught up);
    /// - `threshold_decrement` needs `tail > head + 1` at a failed ticket:
    ///   an enqueuer parked at `scq::enq::pre_cas` (ticket claimed, value
    ///   not yet installed) while a second enqueue lands behind it makes
    ///   the next dequeue's first ticket fail exactly there;
    /// - the wCQ slow-path points all fire single-threadedly at patience
    ///   0 (publish → owner-help → install → finalize; the dequeue side
    ///   re-marks the entry via `consume_mark`);
    /// - `wcq::help::takeover` parks the *owner* between installing its
    ///   entry and finalizing its record (`wcq::enq_slow::finalize`), so
    ///   the consumer must finish the record before consuming.
    fn drive_ring_points() {
        use wfq_baselines::{BenchQueue as _, QueueHandle as _, Scq, Wcq};

        // SCQ happy paths + certified-empty probe.
        let q = Scq::with_order(3);
        let mut h = q.register();
        h.enqueue(1); // pre_cas, threshold_reset
        assert_eq!(h.dequeue(), Some(1)); // pre_consume
        assert_eq!(h.dequeue(), None); // slot_advance (kill) + catchup
        assert!(fault::coverage_count("scq::enq::pre_cas") > 0);
        assert!(fault::coverage_count("scq::enq::threshold_reset") > 0);
        assert!(fault::coverage_count("scq::deq::pre_consume") > 0);
        assert!(fault::coverage_count("scq::deq::slot_advance") > 0);
        assert!(fault::coverage_count("scq::deq::catchup") > 0);

        // SCQ threshold_decrement: park enqueuer A after its FAA claimed
        // the aq ticket but before the value-install CAS; a second enqueue
        // then lands behind the hole, and the next dequeue's first ticket
        // finds an empty slot with tail > head + 1.
        let q = Scq::with_order(3);
        let parked = Arc::new(Event::default());
        let release = Arc::new(Event::default());
        // Outcomes are captured inside the scope and asserted only after
        // it: a panic before `release.set()` would deadlock on joining the
        // parked thread.
        let mut got = None;
        let mut decremented = false;
        std::thread::scope(|s| {
            {
                let q = &q;
                let (parked, release) = (Arc::clone(&parked), Arc::clone(&release));
                s.spawn(move || {
                    let mut a = q.register();
                    let p = Arc::clone(&parked);
                    let r = Arc::clone(&release);
                    fault::with_plan(
                        FaultPlan::new().hook_at(
                            "scq::enq::pre_cas",
                            0,
                            Arc::new(move |_| {
                                p.set();
                                r.wait();
                            }),
                        ),
                        || a.enqueue(11),
                    );
                });
            }
            parked.wait();
            let mut b = q.register();
            b.enqueue(22);
            let before = fault::coverage_count("scq::deq::threshold_decrement");
            got = b.dequeue();
            decremented = fault::coverage_count("scq::deq::threshold_decrement") > before;
            release.set();
        });
        assert_eq!(got, Some(22), "the hole must be skipped");
        assert!(
            decremented,
            "skipping a claimed-but-empty ticket must decrement the threshold"
        );
        // A's install lands on a later ticket; nothing is lost.
        let mut h = q.register();
        assert_eq!(h.dequeue(), Some(11));

        // wCQ slow paths, single-threaded at patience 0.
        let q = Wcq::with_params(3, 0);
        let mut h = q.register();
        h.enqueue(5); // enq_slow: published, install, finalize
        assert_eq!(h.dequeue(), Some(5)); // deq_slow: published, consume_mark, finalize
        assert_eq!(h.dequeue(), None);
        assert!(fault::coverage_count("wcq::enq_slow::published") > 0);
        assert!(fault::coverage_count("wcq::enq_slow::install") > 0);
        assert!(fault::coverage_count("wcq::enq_slow::finalize") > 0);
        assert!(fault::coverage_count("wcq::deq_slow::published") > 0);
        assert!(fault::coverage_count("wcq::deq_slow::consume_mark") > 0);
        assert!(fault::coverage_count("wcq::deq_slow::finalize") > 0);
        drop(h);

        // wCQ takeover: owner A parks between installing its SLOW_ENQ
        // entry and finalizing its record; consumer B must finalize A's
        // record (the takeover) before it may consume the value.
        //
        // Staging details that make this race-free:
        // - B slow-enqueues a sentinel *first*, so the threshold is reset
        //   and B's dequeues are not turned away by the certified-empty
        //   fast path (A parks before its own `reset_threshold`).
        // - A registers first (tid 0) and B second (tid 1): B's help
        //   cursor starts at its own tid and only walks peers 2, 3, 4 in
        //   the three operations below, so B's round-robin `maybe_help`
        //   cannot finalize A's record early — only the consume path
        //   (`resolve_slow_enq`, the takeover) can.
        // - Outcomes are asserted after the scope (a panic before
        //   `release.set()` would deadlock on joining the parked thread).
        let q = Wcq::with_params(3, 0);
        let parked = Arc::new(Event::default());
        let release = Arc::new(Event::default());
        let mut first = None;
        let mut second = None;
        let mut takeover_fired = false;
        std::thread::scope(|s| {
            let mut a = q.register(); // tid 0
            let mut b = q.register(); // tid 1
            b.enqueue(7); // ticket 0; resets the threshold
            {
                let (parked, release) = (Arc::clone(&parked), Arc::clone(&release));
                s.spawn(move || {
                    let p = Arc::clone(&parked);
                    let r = Arc::clone(&release);
                    fault::with_plan(
                        FaultPlan::new().hook_at(
                            "wcq::enq_slow::finalize",
                            0,
                            Arc::new(move |_| {
                                p.set();
                                r.wait();
                            }),
                        ),
                        || a.enqueue(42), // ticket 1, parked after install
                    );
                });
            }
            parked.wait();
            let before = fault::coverage_count("wcq::help::takeover");
            first = b.dequeue(); // drains the sentinel at ticket 0
            second = b.dequeue(); // hits A's pending entry at ticket 1
            takeover_fired = fault::coverage_count("wcq::help::takeover") > before;
            release.set();
        });
        assert_eq!(first, Some(7), "the sentinel must come out first (FIFO)");
        assert_eq!(
            second,
            Some(42),
            "consumer must take over the parked enqueue and get its value"
        );
        assert!(
            takeover_fired,
            "consuming a pending slow enqueue must finalize its record first"
        );
    }

    /// Baselines ride the same machinery: fuzz the LCRQ and MS-Queue
    /// hazard-pointer windows, check conservation, assert their exported
    /// point list is fully covered.
    #[test]
    fn baseline_sweep_covers_baseline_points() {
        use wfq_baselines::{Lcrq, MsQueue, QueueHandle};

        fn drive<Q: wfq_baselines::BenchQueue>(q: &Q, seed: u64) {
            let total = AtomicU64::new(0);
            let sum = AtomicU64::new(0);
            const PER: u64 = 100;
            std::thread::scope(|s| {
                for t in 0..2u64 {
                    let q = &q;
                    s.spawn(move || {
                        fault::with_plan(thread_plan(seed, t, 60), || {
                            let mut h = q.register();
                            for k in 0..PER {
                                h.enqueue(t * PER + k + 1);
                            }
                        });
                    });
                }
                for t in 0..2u64 {
                    let q = &q;
                    let (total, sum) = (&total, &sum);
                    s.spawn(move || {
                        fault::with_plan(thread_plan(seed, 2 + t, 60), || {
                            let mut h = q.register();
                            while total.load(Ordering::Relaxed) < 2 * PER {
                                if let Some(v) = h.dequeue() {
                                    sum.fetch_add(v, Ordering::Relaxed);
                                    total.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        });
                    });
                }
            });
            assert_eq!(
                sum.load(Ordering::Relaxed),
                (1..=2 * PER).sum::<u64>(),
                "baseline lost or corrupted values under fuzz seed {seed}"
            );
        }

        for seed in 0..8 {
            // Tiny rings force LCRQ close-and-append transitions (and the
            // drained-ring unlink on the dequeue side).
            drive(&Lcrq::with_ring_order(3), seed);
            drive(&MsQueue::new(), seed);
            // The bounded-ring backends share the conservation check; the
            // tiny orders force cycle wraps and full-ring spins.
            drive(&wfq_baselines::Scq::with_order(4), seed);
            drive(&wfq_baselines::Wcq::with_params(4, 1), seed);
        }
        // The coverage assert below spans every baseline point, so it must
        // not depend on `ring_backend_sweep_*` having run first in this
        // process: stage the race-free ring windows here too.
        drive_ring_points();

        let cov = fault::coverage();
        let missed: Vec<&str> = wfq_baselines::FAULT_POINTS
            .iter()
            .copied()
            .filter(|p| cov.get(p).copied().unwrap_or(0) == 0)
            .collect();
        assert!(
            missed.is_empty(),
            "baseline sweep never reached {missed:?}; coverage: {cov:#?}"
        );
    }

    // ------------------------------------------------------------------
    // Negative control (the certification step must have teeth)
    // ------------------------------------------------------------------

    /// A deliberately broken "queue": LIFO order behind a lock. Sequential
    /// `enq 1, enq 2, deq → 2` is impossible for any FIFO queue, so the
    /// checker must reject it — if this test ever passes a broken history,
    /// the fuzz sweep's green runs mean nothing.
    struct BrokenLifo(Mutex<Vec<u64>>);

    impl BrokenLifo {
        fn enqueue(&self, v: u64) {
            inject!("broken::push");
            self.0.lock().unwrap().push(v);
        }
        fn dequeue(&self) -> Option<u64> {
            inject!("broken::pop");
            self.0.lock().unwrap().pop() // LIFO: the bug
        }
    }

    #[test]
    fn negative_control_broken_queue_is_flagged() {
        let seed = 0xBAD_5EED;
        let q = BrokenLifo(Mutex::new(Vec::new()));
        let rec = Recorder::new();
        let mut tr = rec.thread();
        // Run under a real fuzz plan: perturbations must not stop the
        // checker from seeing through to the semantics.
        fault::with_plan(FaultPlan::fuzz(seed, 70), || {
            for v in [1, 2, 3] {
                let inv = tr.invoke();
                q.enqueue(v);
                tr.record(OpKind::Enqueue(v), inv);
            }
            for _ in 0..3 {
                let inv = tr.invoke();
                let got = q.dequeue();
                tr.record(OpKind::Dequeue(got), inv);
            }
        });
        drop(tr);
        let h = rec.finish();
        // All operations are sequential (one thread), so dequeuing 3 first
        // admits no valid linearization.
        assert!(
            matches!(check_linearizable(&h, 1_000_000), CheckResult::NotLinearizable),
            "checker failed to flag a LIFO history — negative control broken"
        );
        // The injection points inside the broken queue were really hit.
        assert!(fault::coverage_count("broken::pop") >= 3);
    }

    // ------------------------------------------------------------------
    // Targeted regression: the hazard window of Listing 5
    // ------------------------------------------------------------------

    /// A tiny event the hook-side thread can park on.
    #[derive(Default)]
    struct Event(Mutex<bool>, Condvar);

    impl Event {
        fn set(&self) {
            *self.0.lock().unwrap() = true;
            self.1.notify_all();
        }
        fn wait(&self) {
            let mut g = self.0.lock().unwrap();
            while !*g {
                g = self.1.wait(g).unwrap();
            }
        }
    }

    /// Parks a dequeuer *between publishing its hazard and using it* (the
    /// `deq::hazard_published` point — the window the reclaimer's scans
    /// must respect) while another thread churns segments and triggers
    /// cleanup after cleanup. The cleaner must observe the parked hazard
    /// (id 0), clamp its boundary, and refuse to free anything; after
    /// release, the same traffic must reclaim freely. This pins the exact
    /// behaviour that the reverse re-verification pass and the boundary
    /// clamp exist for — a reclaimer that ignored parked hazards would
    /// free segment 0 under the parked thread and crash (or silently
    /// corrupt) on release.
    #[test]
    fn reclaimer_never_passes_a_parked_hazard() {
        let q = RawQueue::<SEG>::with_config(Config::default().with_max_garbage(1));
        let parked = Arc::new(Event::default());
        let release = Arc::new(Event::default());
        let dequeued_while_parked = Arc::new(AtomicI64::new(-1));

        std::thread::scope(|s| {
            // Thread A: dequeue once with a hook that parks inside the
            // hazard window. Its hazard mirror is segment 0 (fresh handle),
            // so the published hazard pins the very first segment.
            {
                let q = &q;
                let (parked, release) = (Arc::clone(&parked), Arc::clone(&release));
                s.spawn(move || {
                    let mut h = q.register();
                    let p = Arc::clone(&parked);
                    let r = Arc::clone(&release);
                    fault::with_plan(
                        FaultPlan::new().hook_at(
                            "deq::hazard_published",
                            0,
                            Arc::new(move |_| {
                                p.set();
                                r.wait();
                            }),
                        ),
                        || {
                            let _ = h.dequeue();
                        },
                    );
                });
            }

            // Thread B: once A is parked, push enough traffic through to
            // retire many segments and trigger a cleanup at each one.
            {
                let q = &q;
                let parked = Arc::clone(&parked);
                let release = Arc::clone(&release);
                let dwp = Arc::clone(&dequeued_while_parked);
                s.spawn(move || {
                    parked.wait();
                    let mut h = q.register();
                    let total = SEG as u64 * 40;
                    for v in 1..=total {
                        h.enqueue(v);
                        let _ = h.dequeue();
                    }
                    let s1 = q.stats();
                    let oid = q.oldest_segment_id();
                    dwp.store(s1.segs_freed as i64, Ordering::SeqCst);
                    // Release before asserting, so a failure fails the
                    // test instead of leaving A parked forever.
                    release.set();
                    // Cleanups ran (the traffic crossed ~40 segment
                    // boundaries with a garbage bound of 1)…
                    assert!(
                        s1.cleanups > 0,
                        "traffic never elected a cleaner: {s1:?}"
                    );
                    // …but every single one backed off at A's hazard:
                    assert_eq!(
                        s1.segs_freed, 0,
                        "reclaimer freed past a parked hazard: {s1:?}"
                    );
                    assert!(
                        s1.reclaim_noop > 0,
                        "cleanups ran but the no-op path never taken: {s1:?}"
                    );
                    // The oldest-segment token, whenever free, still names
                    // segment 0 — the boundary never advanced.
                    assert!(
                        oid <= 0,
                        "oldest segment advanced to {oid} past the parked hazard"
                    );
                });
            }
        });

        // A released: its dequeue completed against a segment that was
        // never freed under it. Now the hazard is gone — the same traffic
        // must reclaim.
        let mut h = q.register();
        let total = SEG as u64 * 40;
        for v in 1..=total {
            h.enqueue(v);
            assert!(h.dequeue().is_some(), "value lost after release");
        }
        drop(h);
        let s2 = q.stats();
        assert!(
            s2.segs_freed > 0,
            "reclamation still stuck after the hazard was released: {s2:?}"
        );
        assert_eq!(dequeued_while_parked.load(Ordering::SeqCst), 0);
    }

    /// The enqueue-side twin of [`reclaimer_never_passes_a_parked_hazard`]:
    /// an enqueuer parks between publishing its hazard on its tail segment
    /// and the FAA that orders it (`enq::hazard_published`), while another
    /// thread churns segments and triggers cleanup after cleanup. The
    /// cleaner must clamp at the parked hazard (segment 0) and free
    /// nothing; on release the parked enqueue walks its tail pointer from
    /// segment 0 to its cell through segments that must all still be live,
    /// and its value must be delivered exactly once.
    #[test]
    fn reclaimer_never_passes_a_parked_enqueuer() {
        const PARKED: u64 = 1 << 40;
        let q = RawQueue::<SEG>::with_config(Config::default().with_max_garbage(1));
        let parked = Arc::new(Event::default());
        let release = Arc::new(Event::default());

        std::thread::scope(|s| {
            // Thread A: one enqueue with a hook that parks inside the
            // hazard window. Its tail mirror is segment 0 (fresh handle),
            // so the published hazard pins the very first segment.
            {
                let q = &q;
                let (parked, release) = (Arc::clone(&parked), Arc::clone(&release));
                s.spawn(move || {
                    let mut h = q.register();
                    let p = Arc::clone(&parked);
                    let r = Arc::clone(&release);
                    fault::with_plan(
                        FaultPlan::new().hook_at(
                            "enq::hazard_published",
                            0,
                            Arc::new(move |_| {
                                p.set();
                                r.wait();
                            }),
                        ),
                        || h.enqueue(PARKED),
                    );
                });
            }

            // Thread B: once A is parked, push enough traffic through to
            // retire many segments and trigger a cleanup at each one.
            {
                let q = &q;
                let parked = Arc::clone(&parked);
                let release = Arc::clone(&release);
                s.spawn(move || {
                    parked.wait();
                    let mut h = q.register();
                    for v in 1..=SEG as u64 * 40 {
                        h.enqueue(v);
                        assert_eq!(h.dequeue(), Some(v), "churn lost FIFO order");
                    }
                    let s1 = q.stats();
                    let oid = q.oldest_segment_id();
                    // Release before asserting, so a failure fails the
                    // test instead of leaving A parked forever.
                    release.set();
                    assert!(s1.cleanups > 0, "traffic never elected a cleaner: {s1:?}");
                    assert_eq!(
                        s1.segs_freed, 0,
                        "reclaimer freed past a parked enqueuer's hazard: {s1:?}"
                    );
                    assert!(
                        s1.reclaim_noop > 0,
                        "cleanups ran but the no-op path never taken: {s1:?}"
                    );
                    assert!(
                        oid <= 0,
                        "oldest segment advanced to {oid} past the parked hazard"
                    );
                });
            }
        });

        // A released: its enqueue landed ~40 segments past its parked tail
        // pointer. Drain: the parked value comes out exactly once and
        // nothing else is left.
        let mut h = q.register();
        let mut drained = Vec::new();
        while let Some(v) = h.dequeue() {
            drained.push(v);
        }
        assert_eq!(
            drained,
            [PARKED],
            "parked enqueue not delivered exactly once"
        );

        // The hazard is gone: the same traffic must now reclaim.
        for v in 1..=SEG as u64 * 40 {
            h.enqueue(v);
            assert_eq!(h.dequeue(), Some(v), "value lost after release");
        }
        drop(h);
        let s2 = q.stats();
        assert!(
            s2.segs_freed > 0,
            "reclamation still stuck after the enqueuer was released: {s2:?}"
        );
    }

    /// The batch analogue of the parked-hazard regression: a *batch*
    /// dequeuer parks between publishing its entry hazard and the claiming
    /// FAA (batch ops share the single-op `deq::hazard_published` window),
    /// while another thread churns segments with pure batch traffic. The
    /// batch claim covers k cells under one hazard, so a reclaimer that
    /// treated batch hazards any differently from single-op hazards would
    /// free the parked thread's segment out from under its whole claim
    /// run. The cleaner must refuse to free anything until release.
    #[test]
    fn batch_ops_respect_a_parked_hazard() {
        let q = RawQueue::<SEG>::with_config(Config::default().with_max_garbage(1));
        let parked = Arc::new(Event::default());
        let release = Arc::new(Event::default());

        std::thread::scope(|s| {
            // Thread A: a batch dequeue parked inside the hazard window,
            // pinning segment 0 (fresh handle).
            {
                let q = &q;
                let (parked, release) = (Arc::clone(&parked), Arc::clone(&release));
                s.spawn(move || {
                    let mut h = q.register();
                    let p = Arc::clone(&parked);
                    let r = Arc::clone(&release);
                    let mut out = Vec::new();
                    fault::with_plan(
                        FaultPlan::new().hook_at(
                            "deq::hazard_published",
                            0,
                            Arc::new(move |_| {
                                p.set();
                                r.wait();
                            }),
                        ),
                        || {
                            let _ = h.dequeue_batch(&mut out, 4);
                        },
                    );
                });
            }

            // Thread B: pure batch churn across many segment boundaries.
            {
                let q = &q;
                let parked = Arc::clone(&parked);
                let release = Arc::clone(&release);
                s.spawn(move || {
                    parked.wait();
                    let mut h = q.register();
                    let mut out = Vec::new();
                    let mut batch = [0u64; 8];
                    let mut v = 0u64;
                    for _ in 0..SEG as u64 * 40 / 8 {
                        for slot in &mut batch {
                            v += 1;
                            *slot = v;
                        }
                        h.enqueue_batch(&batch);
                        out.clear();
                        let _ = h.dequeue_batch(&mut out, 8);
                    }
                    let s1 = q.stats();
                    // Release before asserting, so a failure fails the
                    // test instead of leaving A parked forever.
                    release.set();
                    assert!(s1.enq_batches > 0 && s1.deq_batches > 0);
                    assert!(
                        s1.cleanups > 0,
                        "batch traffic never elected a cleaner: {s1:?}"
                    );
                    assert_eq!(
                        s1.segs_freed, 0,
                        "reclaimer freed past a parked batch dequeuer: {s1:?}"
                    );
                });
            }
        });

        // Hazard released: the same batch traffic must reclaim freely.
        let mut h = q.register();
        let mut out = Vec::new();
        let mut batch = [0u64; 8];
        let mut v = 1 << 20;
        for _ in 0..SEG as u64 * 40 / 8 {
            for slot in &mut batch {
                v += 1;
                *slot = v;
            }
            h.enqueue_batch(&batch);
            out.clear();
            let _ = h.dequeue_batch(&mut out, 8);
        }
        drop(h);
        let s2 = q.stats();
        assert!(
            s2.segs_freed > 0,
            "reclamation still stuck after the batch hazard was released: {s2:?}"
        );
    }

    /// The fuzz sweep must also reach the adopted-hazard instruction — the
    /// *source* of backward jumps (help_deq overwriting its own hazard
    /// with the helpee's older one, Listing 5 line 220). Guarded here
    /// separately because it is the subtlest window in the protocol and a
    /// refactor that silently stopped exercising it should fail loudly.
    #[test]
    fn backward_jump_source_is_reachable() {
        for seed in 0..16 {
            let q = RawQueue::<SEG>::with_config(Config::wf0().with_max_garbage(1));
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let q = &q;
                    s.spawn(move || {
                        fault::with_plan(thread_plan(seed, t, 80), || {
                            let mut h = q.register();
                            for k in 0..32 {
                                if (k + t) % 2 == 0 {
                                    h.enqueue(t * 1000 + k + 1);
                                } else {
                                    let _ = h.dequeue();
                                }
                            }
                        });
                    });
                }
            });
            if fault::coverage_count("help_deq::hazard_adopted") > 0 {
                return;
            }
        }
        panic!(
            "no schedule in 16 seeds drove help_deq to adopt a helpee's \
             hazard; coverage: {:#?}",
            fault::coverage()
        );
    }
}
