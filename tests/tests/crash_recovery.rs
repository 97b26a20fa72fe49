//! Crash-injection matrix and recovery certification (ISSUE 8).
//!
//! The durable mode's contract is *detectable recovery*: after a crash,
//! the persistent image alone decides each pre-crash enqueue's fate, and
//! recovery must deliver every durably committed value exactly once — in
//! FIFO order — while provably rejecting everything else. These tests
//! drive that contract the same way `fault_schedules.rs` drives
//! linearizability:
//!
//! - a **crash matrix** arms every durable-relevant injection point with
//!   [`FaultAction::Crash`] across ≥16 seeds each, snapshots the persist
//!   store *inside* the crash window (the registered crash observer runs
//!   on the crashing thread, before the unwind), recovers from the
//!   snapshot, and certifies the run with the recovery checker;
//! - a **deterministic scenario** stages the claimed-but-uncommitted help
//!   window (`enq_slow::pre_commit`) without any race and checks the
//!   recovered value byte for byte;
//! - a **negative control** re-runs recovery with the help-replay
//!   disabled and requires the checker to convict the loss — a green
//!   matrix means nothing if a broken recovery could also pass.
//!
//! Runs are deterministic given a seed; a failure message names the
//! `(point, seed)` pair to replay.
//!
//! Requires `--features durable,fault-injection`; the file compiles to a
//! single trivial guard without them.

/// The durable feature of the queue under test must mirror this crate's.
#[test]
fn durable_feature_matches_build_mode() {
    // Nothing to assert cross-crate without a runtime probe; the real
    // content of this file is gated below. This guard only keeps the file
    // compiling (and visibly present) in every feature combination.
    assert!(true);
}

#[cfg(all(feature = "durable", feature = "fault-injection"))]
mod matrix {
    use std::collections::BTreeMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, Once, OnceLock};

    use wfq_checker::{certify_recovery, DurableFate, RecoveryHistory};
    use wfq_sync::fault::{self, FaultAction, FaultPlan};
    use wfqueue::{
        CellState, Config, MemStore, PersistSink, RawQueue, RecoveryOptions, StoreImage,
    };

    /// Cells per segment: small, so runs cross segment boundaries.
    const SEG: usize = 16;
    /// Values each producer attempts per run.
    const VALS_PER_THREAD: u64 = 12;
    /// Index-space headroom of the persist store: burned cells, slow-path
    /// candidate FAAs and batch probes all consume cell indices beyond the
    /// value count, and the store's capacity assert must never be what
    /// fails a matrix run.
    const STORE_CELLS: u64 = 8192;
    /// Request-record slots: one per handle node ever registered.
    const STORE_SLOTS: u64 = 16;
    /// Minimum seeds per crash point.
    const MIN_SEEDS: u64 = 16;
    /// Seed budget for points whose window needs an unlucky schedule: keep
    /// sweeping until the point has actually crashed at least once.
    const MAX_SEEDS: u64 = 96;

    /// Every injection point the crash matrix arms: the three commit
    /// frontiers' unpersisted windows plus the surrounding enqueue,
    /// dequeue, and helping windows a power cut can land in. Reclamation
    /// and pool points are omitted — they mutate only volatile bookkeeping
    /// (`retire_below` is a monotone high-water mark, safe at any cut).
    const CRASH_POINTS: &[&str] = &[
        "enq::hazard_published",
        "enq_fast::post_faa",
        "enq_fast::deposit_unpersisted",
        "enq_slow::request_published",
        "enq_slow::cell_reserved",
        "enq_slow::claim_unpersisted",
        "enq_slow::pre_commit",
        "help_enq::pre_reserve",
        "deq::hazard_published",
        "deq_fast::post_faa",
        "deq_fast::consume_unpersisted",
        "deq_slow::request_published",
        "help_deq::candidate_scan",
        "help_deq::pre_announce",
        "help_deq::pre_complete",
        "advance_index::pre_cas",
    ];

    /// The crash observer and panic hook are process-global; tests that
    /// install them must not interleave.
    fn observer_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Simulated crashes unwind through the panic hook; without this the
    /// matrix would print hundreds of spurious "thread panicked" reports.
    /// Real panics still reach the previous hook untouched.
    fn silence_crash_unwinds() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if fault::crash_point(info.payload()).is_none() {
                    prev(info);
                }
            }));
        });
    }

    fn thread_plan(point: &'static str, seed: u64, thread: u64) -> FaultPlan {
        FaultPlan::fuzz(seed ^ thread.wrapping_mul(0x9E37_79B9_7F4A_7C15), 30)
            // Crash the (seed % 3)-th per-thread hit of the armed point,
            // so across seeds the cut lands at different depths of a run.
            .at_hits(point, seed % 3, 1, FaultAction::Crash)
    }

    /// Reduces a crash snapshot to per-value [`DurableFate`]s — the
    /// checker-facing view. Fate priority mirrors the recovery rules:
    /// a durable consume or deposit is the cell's own verdict; a claimed
    /// request record counts only while its cell is still EMPTY (a claim
    /// over a non-empty cell was already committed, and a stale clobbered
    /// claim must dedup to the cell, never double-count); a published
    /// record is a provable rejection unless something stronger exists.
    fn durable_fates(image: &StoreImage) -> BTreeMap<u64, DurableFate> {
        let scan = image.scan().expect("crash snapshot must stay scannable");
        let mut fates = BTreeMap::new();
        for &(cell, v) in &scan.consumed {
            fates.insert(v, DurableFate::Consumed { cell });
        }
        for &(cell, v) in &scan.deposited {
            fates.entry(v).or_insert(DurableFate::Deposited { cell });
        }
        for claim in &scan.claimed {
            if image.cell_state(claim.cell) == CellState::Empty {
                fates
                    .entry(claim.value)
                    .or_insert(DurableFate::ClaimedUncommitted { cell: claim.cell });
            }
        }
        for &(_, v) in &scan.published {
            fates.entry(v).or_insert(DurableFate::Published);
        }
        fates
    }

    /// Recovers a snapshot and certifies the run against `attempted`.
    /// Returns the recovery's recompleted-claim count (so the caller can
    /// drive the negative control on exactly the runs that exercised the
    /// help-replay window).
    fn recover_and_certify(
        image: &StoreImage,
        attempted: Vec<u64>,
        ctx: &str,
    ) -> u64 {
        let (rq, report) = RawQueue::<SEG>::recover_from_image(
            image,
            Config::default(),
            None,
            &RecoveryOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{ctx}: recovery refused the snapshot: {e}"));

        let mut redelivered = Vec::new();
        let mut h = rq.register();
        while let Some(v) = h.dequeue() {
            redelivered.push(v);
        }
        drop(h);
        assert_eq!(
            redelivered,
            report.survivors,
            "{ctx}: the drain must deliver exactly the reported survivors"
        );

        let history = RecoveryHistory {
            attempted,
            fates: durable_fates(image),
            redelivered,
        };
        match certify_recovery(&history) {
            Ok(cert) => {
                assert_eq!(
                    cert.recompleted as u64, report.recompleted,
                    "{ctx}: checker and recovery disagree on the help-replay count"
                );
                report.recompleted
            }
            Err(v) => panic!("{ctx}: recovery certification failed: {v}"),
        }
    }

    /// One matrix run: producers and consumers hammer a persisted queue
    /// under seeded fuzz plans with `point` armed to crash; the first
    /// crash snapshots the store from inside the window and stops the
    /// survivors; the snapshot is recovered and certified. Runs where no
    /// thread reached the armed hit are certified as clean shutdowns
    /// (snapshot after join). Returns whether a crash fired.
    fn run_crash_schedule(point: &'static str, seed: u64) -> bool {
        let store = Arc::new(MemStore::new(STORE_CELLS, STORE_SLOTS));
        let q = RawQueue::<SEG>::with_persist(
            Config::wf0().with_max_garbage(2),
            Arc::clone(&store) as Arc<dyn PersistSink>,
        );
        let producers = 2u64;
        let consumers = 2 + (seed & 1);

        let attempted = Arc::new(Mutex::new(Vec::<u64>::new()));
        let crashed = Arc::new(AtomicBool::new(false));
        let snapshot = Arc::new(Mutex::new(None::<StoreImage>));
        {
            let (st, cr, sn) = (Arc::clone(&store), Arc::clone(&crashed), Arc::clone(&snapshot));
            fault::set_crash_observer(Arc::new(move |_| {
                // First crash wins: the image at the first power cut is
                // the authoritative one; later crashers and survivors may
                // keep mutating the live store, but certification reads
                // only this snapshot.
                let mut slot = sn.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(st.snapshot());
                }
                cr.store(true, Ordering::SeqCst);
            }));
        }

        std::thread::scope(|s| {
            for t in 0..producers {
                let q = &q;
                let (attempted, crashed) = (Arc::clone(&attempted), Arc::clone(&crashed));
                s.spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        fault::with_plan(thread_plan(point, seed, t), || {
                            let mut h = q.register();
                            for k in 0..VALS_PER_THREAD {
                                if crashed.load(Ordering::SeqCst) {
                                    return;
                                }
                                let v = t * 1000 + k + 1;
                                // Recorded *before* the call: a value cut
                                // down mid-enqueue was still attempted.
                                attempted.lock().unwrap().push(v);
                                h.enqueue(v);
                            }
                        });
                    }));
                    if let Err(p) = r {
                        if fault::crash_point(&*p).is_none() {
                            std::panic::resume_unwind(p);
                        }
                    }
                });
            }
            for t in 0..consumers {
                let q = &q;
                let crashed = Arc::clone(&crashed);
                s.spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        fault::with_plan(thread_plan(point, seed, producers + t), || {
                            let mut h = q.register();
                            let attempts = producers * VALS_PER_THREAD / consumers + 6;
                            for _ in 0..attempts {
                                if crashed.load(Ordering::SeqCst) {
                                    return;
                                }
                                let _ = h.dequeue();
                            }
                        });
                    }));
                    if let Err(p) = r {
                        if fault::crash_point(&*p).is_none() {
                            std::panic::resume_unwind(p);
                        }
                    }
                });
            }
        });
        fault::clear_crash_observer();

        let did_crash = crashed.load(Ordering::SeqCst);
        let image = snapshot
            .lock()
            .unwrap()
            .take()
            .unwrap_or_else(|| store.snapshot());
        let attempted = Arc::try_unwrap(attempted)
            .expect("all threads joined")
            .into_inner()
            .unwrap();
        let ctx = format!(
            "point {point}, seed {seed} ({})",
            if did_crash { "crashed" } else { "clean shutdown" }
        );
        let recompleted = recover_and_certify(&image, attempted.clone(), &ctx);

        // Negative control, on every run that exercised the help-replay
        // window: the same snapshot recovered with the replay disabled
        // must lose those values, and the checker must convict it.
        if recompleted > 0 {
            let broken = RecoveryOptions {
                replay_claimed_requests: false,
            };
            let (rq, _) =
                RawQueue::<SEG>::recover_from_image(&image, Config::default(), None, &broken)
                    .unwrap();
            let mut redelivered = Vec::new();
            let mut h = rq.register();
            while let Some(v) = h.dequeue() {
                redelivered.push(v);
            }
            drop(h);
            let history = RecoveryHistory {
                attempted,
                fates: durable_fates(&image),
                redelivered,
            };
            assert!(
                certify_recovery(&history).is_err(),
                "{ctx}: a recovery that skips the help replay must be convicted"
            );
        }
        did_crash
    }

    /// The tentpole matrix: every crash point × ≥16 seeds, each run
    /// certified; points whose window needs scheduling luck get extra
    /// seeds until they have crashed at least once, so the sweep never
    /// reports green without having actually cut power inside each window.
    #[test]
    fn crash_matrix_certifies_every_point() {
        silence_crash_unwinds();
        let _g = observer_lock();
        // A pinned (point, seed) from a failure message replays one run.
        if let Ok(spec) = std::env::var("WFQ_CRASH_SEED") {
            let (point, seed) = spec
                .rsplit_once('=')
                .expect("WFQ_CRASH_SEED must be <point>=<seed>");
            let point = CRASH_POINTS
                .iter()
                .copied()
                .find(|p| *p == point)
                .expect("unknown crash point");
            run_crash_schedule(point, seed.parse().expect("seed must be a u64"));
            return;
        }
        for &point in CRASH_POINTS {
            let mut crashes = 0u64;
            let mut seed = 0u64;
            while seed < MIN_SEEDS || (crashes == 0 && seed < MAX_SEEDS) {
                if run_crash_schedule(point, seed) {
                    crashes += 1;
                }
                seed += 1;
            }
            assert!(
                crashes > 0,
                "no schedule in {seed} seeds crashed inside {point}; \
                 the matrix never tested that window \
                 (replay one run with WFQ_CRASH_SEED='{point}=<seed>')"
            );
        }
    }

    /// A crash between the enqueuer's hazard publication and its FAA: the
    /// enqueue has touched nothing durable, so recovery must treat it as
    /// never having happened.
    #[test]
    fn crash_before_the_enqueue_faa_leaves_no_trace() {
        const A: u64 = 41;
        const B: u64 = 42;
        silence_crash_unwinds();
        let _g = observer_lock();
        let store = Arc::new(MemStore::new(64, 4));
        let q = RawQueue::<SEG>::with_persist(
            Config::default(),
            Arc::clone(&store) as Arc<dyn PersistSink>,
        );
        let mut h = q.register();
        h.enqueue(A);
        let crash = catch_unwind(AssertUnwindSafe(|| {
            fault::with_plan(
                FaultPlan::new().at("enq::hazard_published", FaultAction::Crash),
                || h.enqueue(B),
            );
        }))
        .expect_err("the enqueue must crash at its hazard publication");
        assert_eq!(fault::crash_point(&*crash), Some("enq::hazard_published"));
        drop(h);

        let image = store.snapshot();
        let scan = image.scan().unwrap();
        assert_eq!(scan.deposited, vec![(0, A)], "only A is durable: {scan:?}");
        assert!(
            scan.published.is_empty() && scan.claimed.is_empty(),
            "{scan:?}"
        );
        assert_eq!(
            recover_and_certify(&image, vec![A, B], "enq::hazard_published"),
            0
        );
        let (_, report) = RawQueue::<SEG>::recover_from_image(
            &image,
            Config::default(),
            None,
            &RecoveryOptions::default(),
        )
        .unwrap();
        assert_eq!(report.survivors, vec![A], "B never happened");
    }

    /// The claimed-but-uncommitted help window, staged without a race
    /// (single thread, patience 0):
    ///
    /// 1. enqueue A → fast-path deposit in cell 0, `T = 1`;
    /// 2. dequeue A → durable consume, `H = 1`;
    /// 3. dequeue on the empty queue → the probe's FAA burns cell 1
    ///    (⊤-sealed, `H = 2`) with no durable trace;
    /// 4. enqueue B → the fast attempt claims the sealed cell 1 and fails;
    ///    patience 0 sends it slow: request published, cell 2 reserved and
    ///    claimed, the claim persisted — and the crash rule cuts power at
    ///    `enq_slow::pre_commit`, after the claim but before the commit.
    ///
    /// The image must show exactly: A consumed, slot 0 CLAIMED(B → cell 2),
    /// cell 1 torn. Default recovery re-completes B from the request
    /// record; the negative control below loses it.
    fn staged_pre_commit_image() -> (StoreImage, Vec<u64>) {
        const A: u64 = 41;
        const B: u64 = 42;
        let store = Arc::new(MemStore::new(64, 4));
        let q = RawQueue::<SEG>::with_persist(
            Config::wf0(),
            Arc::clone(&store) as Arc<dyn PersistSink>,
        );
        let mut h = q.register();
        h.enqueue(A);
        assert_eq!(h.dequeue(), Some(A));
        assert_eq!(h.dequeue(), None); // burns cell 1
        let crash = catch_unwind(AssertUnwindSafe(|| {
            fault::with_plan(
                FaultPlan::new().at("enq_slow::pre_commit", FaultAction::Crash),
                || h.enqueue(B),
            );
        }))
        .expect_err("the staged enqueue must crash in the slow path");
        assert_eq!(
            fault::crash_point(&*crash),
            Some("enq_slow::pre_commit"),
            "staging drifted: the crash fired somewhere else"
        );
        drop(h);

        let image = store.snapshot();
        let scan = image.scan().unwrap();
        assert_eq!(scan.consumed, vec![(0, A)], "A durably delivered");
        assert_eq!(scan.claimed.len(), 1, "B's claim persisted: {scan:?}");
        assert_eq!(scan.claimed[0].value, B);
        assert_eq!(scan.claimed[0].cell, 2, "the slow path reserved cell 2");
        assert!(scan.deposited.is_empty(), "B's commit must NOT have landed");
        assert_eq!(scan.head_hwm, 2);
        (image, vec![A, B])
    }

    #[test]
    fn staged_pre_commit_crash_recovers_the_claimed_value() {
        silence_crash_unwinds();
        let _g = observer_lock();
        let (image, attempted) = staged_pre_commit_image();

        let (rq, report) = RawQueue::<SEG>::recover_from_image(
            &image,
            Config::default(),
            None,
            &RecoveryOptions::default(),
        )
        .unwrap();
        assert_eq!(report.survivors, vec![42], "B re-completed from its claim");
        assert_eq!(report.recompleted, 1);
        assert_eq!(report.delivered_pre_crash, vec![41]);
        assert_eq!(report.sealed_cells, 1, "the burned cell 1 is sealed");

        let mut redelivered = Vec::new();
        let mut h = rq.register();
        while let Some(v) = h.dequeue() {
            redelivered.push(v);
        }
        drop(h);
        let history = RecoveryHistory {
            attempted,
            fates: durable_fates(&image),
            redelivered,
        };
        let cert = certify_recovery(&history).expect("the staged recovery must certify");
        assert_eq!(cert.delivered_pre_crash, 1);
        assert_eq!(cert.redelivered, 1);
        assert_eq!(cert.recompleted, 1);
    }

    /// The negative control the acceptance criteria demand: recovery with
    /// the help-replay deliberately skipped loses exactly the
    /// claimed-but-uncommitted value, and the checker convicts the loss
    /// (rather than certifying a recovery that silently dropped data).
    #[test]
    fn skipping_the_help_replay_is_convicted() {
        silence_crash_unwinds();
        let _g = observer_lock();
        let (image, attempted) = staged_pre_commit_image();

        let broken = RecoveryOptions {
            replay_claimed_requests: false,
        };
        let (rq, report) =
            RawQueue::<SEG>::recover_from_image(&image, Config::default(), None, &broken)
                .unwrap();
        assert!(report.survivors.is_empty(), "the broken recovery drops B");

        let mut redelivered = Vec::new();
        let mut h = rq.register();
        while let Some(v) = h.dequeue() {
            redelivered.push(v);
        }
        drop(h);
        let history = RecoveryHistory {
            attempted,
            fates: durable_fates(&image),
            redelivered,
        };
        match certify_recovery(&history) {
            Err(wfq_checker::RecoveryViolation::Lost { value: 42, cell: 2 }) => {}
            other => panic!(
                "the checker must convict the dropped claim as Lost{{42, cell 2}}, got {other:?}"
            ),
        }
    }
}
