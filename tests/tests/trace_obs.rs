//! Observability integration: the flight recorder, the Chrome-trace
//! artifact, the Prometheus exposition, and the starvation watchdog, all
//! exercised against the *real* queue rather than the `wfq-obs` unit
//! fixtures.
//!
//! Most of this file needs `--features trace` (the recorder compiles to
//! nothing otherwise); the watchdog-against-a-real-stall test additionally
//! needs `fault-injection` to park a thread inside its slow path:
//!
//! ```text
//! cargo test -p wfq-integration --features trace,fault-injection
//! ```
//!
//! The file compiles in every feature combination; only the build-mode
//! guard runs without `trace`.

/// The recorder must mirror the cargo feature exactly — same contract as
/// `wfq_sync::fault::ENABLED` for the injection layer.
#[test]
fn recorder_matches_build_mode() {
    assert_eq!(wfq_obs::ENABLED, cfg!(feature = "trace"));
    // The macro is an expression in both builds.
    let _: () = wfq_obs::record!(wfq_obs::EventKind::EnqFast, 0u64);
}

#[cfg(feature = "trace")]
mod traced {
    use std::collections::BTreeSet;

    use wfq_harness::json::{self, Value};
    use wfqueue::{Config, RawQueue};

    /// Unique-per-test artifact path under the system temp dir.
    fn artifact(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("wfq-obs-{}-{name}", std::process::id()))
    }

    /// The acceptance criterion for the trace pipeline: a contended
    /// multi-handle run, drained and serialized, must yield Chrome-trace
    /// JSON that (a) parses, (b) has the `traceEvents` shape Perfetto
    /// loads, and (c) contains protocol events from at least three
    /// distinct handles (`tid`s).
    #[test]
    fn contended_run_yields_a_parseable_trace_with_three_handles() {
        let q = RawQueue::<16>::with_config(Config::default().with_patience(1));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register();
                    for k in 0..200 {
                        if (k + t) % 2 == 0 {
                            h.enqueue(t * 1000 + k + 1);
                        } else {
                            let _ = h.dequeue();
                        }
                    }
                });
            }
        });

        // Drain and serialize as `dump_chrome_trace` does, keeping the
        // number of traces (tracks) for the conservation check below.
        let traces = wfq_obs::drain();
        let n: usize = traces.iter().map(|t| t.events.len()).sum();
        assert!(n > 0, "trace-enabled run recorded no events");
        let path = artifact("contended.trace.json");
        std::fs::write(&path, wfq_obs::chrome_trace_json(&traces)).expect("write trace");

        let doc = std::fs::read_to_string(&path).expect("read artifact back");
        let root = json::parse(&doc).expect("chrome trace must be valid JSON");
        let events = root
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("top-level traceEvents array");

        // Protocol events (not the per-track `M` metadata) from ≥3 tids.
        let mut tids = BTreeSet::new();
        let (mut m, mut x, mut i) = (0, 0, 0);
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).expect("ph field");
            match ph {
                "M" => m += 1,
                "X" => x += 1,
                "i" => i += 1,
                _ => panic!("unexpected event phase {ph:?}"),
            }
            if ph != "M" {
                let tid = e.get("tid").and_then(Value::as_num).expect("tid field");
                tids.insert(tid as u64);
                assert!(e.get("ts").is_some(), "event without timestamp");
                assert!(e.get("name").is_some(), "event without name");
            }
        }
        // Conservation: a matched enter/exit pair becomes one `X` entry,
        // every other event one `i` entry, and each trace one `M` label.
        assert_eq!(2 * x + i, n, "serializer lost or invented events");
        assert_eq!(m, traces.len(), "one track label per trace");
        assert!(
            tids.len() >= 3,
            "events from only {} handles (want ≥3): {tids:?}",
            tids.len()
        );
        let _ = std::fs::remove_file(&path);
    }

    /// The acceptance criterion for help-chain reconstruction: a contended
    /// 16-thread run with patience 0 (every losing fast path publishes a
    /// help-ring request) must reconstruct at least one **multi-hop** chain
    /// — an episode where a thread other than the requester contributed a
    /// help event with the matching op id — with properly matched
    /// open/close pairs. Contention is scheduler-dependent, so the test
    /// retries a few fresh queues; each round scopes its assertions to its
    /// own traffic with [`wfq_obs::mark_ns`] (other tests in this binary
    /// share the recorder registry).
    #[test]
    fn sixteen_thread_contention_reconstructs_a_multi_hop_help_chain() {
        use wfq_harness::spans;

        for round in 0..10 {
            let mark = wfq_obs::mark_ns();
            let q = RawQueue::<16>::with_config(Config::default().with_patience(0));
            std::thread::scope(|s| {
                for t in 0..16u64 {
                    let q = &q;
                    s.spawn(move || {
                        let mut h = q.register();
                        for k in 0..150u64 {
                            // Dequeue-heavy mix: empty dequeues ⊤-seal head
                            // cells, so patience-0 enqueues lose their only
                            // fast-path attempt and publish requests that
                            // the dequeuers' help_enq then commits.
                            if (t + k) % 3 == 0 {
                                h.enqueue((t + 1) * 10_000 + k + 1);
                            } else {
                                let _ = h.dequeue();
                            }
                        }
                    });
                }
            });

            let mut traces = wfq_obs::drain();
            for t in &mut traces {
                t.events.retain(|e| e.ts_ns >= mark);
            }
            let report = spans::reconstruct(&traces);

            // Pairing invariants hold for whatever was reconstructed.
            for c in &report.chains {
                assert!(
                    c.span.end_ns >= c.span.start_ns,
                    "span close precedes open: {:?}",
                    c.span
                );
                assert!(c.depth >= 1, "every matched episode counts itself");
                assert!(
                    c.helpers.iter().all(|&h| h != c.span.recorder),
                    "requester listed among its own helpers: {c:?}"
                );
            }
            assert_eq!(
                report.residency.count() as usize,
                report.chains.len(),
                "one residency sample per matched episode"
            );

            if let Some(c) = report.chains.iter().find(|c| c.is_multi_hop()) {
                assert!(c.depth >= 2, "a multi-hop chain spans ≥2 threads: {c:?}");
                assert!(
                    c.hops.iter().any(|h| h.helper != c.span.recorder),
                    "multi-hop chain without a cross-thread hop: {c:?}"
                );
                assert!(report.max_chain_depth >= 2);
                assert!(
                    report.helper_latency.count() > 0,
                    "cross-thread hops must feed the helper-latency histogram"
                );
                eprintln!("round {round}:\n{}", report.render());
                return;
            }
            eprintln!(
                "round {round}: {} episodes but no multi-hop chain yet",
                report.chains.len()
            );
        }
        panic!("16 contended threads never produced a multi-hop help chain in 10 rounds");
    }

    /// The Prometheus artifact for a real run: every line is a comment or
    /// a `name value` sample, counters cover the stats that drive Table 2,
    /// and the gauges derived from a live queue are present and sane.
    #[test]
    fn metrics_exposition_covers_stats_and_gauges() {
        let q = RawQueue::<16>::new();
        let mut h = q.register();
        for v in 1..=100u64 {
            h.enqueue(v);
        }
        for _ in 0..40 {
            let _ = h.dequeue();
        }
        drop(h);

        let path = artifact("metrics.prom");
        wfq_harness::write_metrics(&path, &q.stats(), Some(&q.gauges()))
            .expect("write metrics");
        let text = std::fs::read_to_string(&path).expect("read metrics back");

        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed exposition line: {line:?}"
            );
        }
        for metric in [
            "wfq_enq_fast_total",
            "wfq_deq_fast_total",
            "wfq_head_index",
            "wfq_live_segments",
            "wfq_help_ring_occupancy",
        ] {
            assert!(
                text.contains(&format!("\n{metric} "))
                    || text.starts_with(&format!("{metric} ")),
                "metric {metric} missing from exposition:\n{text}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Parking a *real* queue thread inside its slow path and catching it with
/// the watchdog needs both the recorder (progress words) and the
/// fault-injection hooks (the parking mechanism).
#[cfg(all(feature = "trace", feature = "fault-injection"))]
mod watchdog_integration {
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    use wfq_obs::{EventKind, Watchdog, WatchdogConfig};
    use wfq_sync::fault::{self, FaultPlan};
    use wfqueue::{Config, RawQueue};

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

    /// Drives an enqueuer into `enq_slow` deterministically (dequeues on an
    /// empty queue ⊤-seal the head cells, so a patience-0 enqueue loses its
    /// only fast-path attempt), parks it just before the commit point, and
    /// asserts the watchdog reports exactly that thread stuck in exactly
    /// that span — then releases it and proves the operation completes.
    #[test]
    fn watchdog_catches_a_thread_parked_in_enq_slow() {
        let q = RawQueue::<16>::with_config(Config::default().with_patience(0));
        let parked = Arc::new(Event::default());
        let release = Arc::new(Event::default());

        // Seal cell 0: an empty dequeue's help_enq ⊤-poisons the cell its
        // FAA claimed.
        let mut h = q.register();
        assert_eq!(h.dequeue(), None);

        let dog = Watchdog::spawn(WatchdogConfig {
            interval: Duration::from_millis(2),
            threshold: Duration::from_millis(20),
        });

        std::thread::scope(|s| {
            {
                let q = &q;
                let (parked, release) = (Arc::clone(&parked), Arc::clone(&release));
                s.spawn(move || {
                    let p = Arc::clone(&parked);
                    let r = Arc::clone(&release);
                    fault::with_plan(
                        FaultPlan::new().hook_at(
                            "enq_slow::pre_commit",
                            0,
                            Arc::new(move |_| {
                                p.set();
                                r.wait();
                            }),
                        ),
                        || {
                            let mut h = q.register();
                            h.enqueue(42); // sealed cell 0 → enq_slow → park
                        },
                    );
                });
            }

            parked.wait();
            // Past the threshold, the sampler must flag the parked thread.
            std::thread::sleep(Duration::from_millis(80));
            let reports = dog.reports();
            let stall = reports
                .iter()
                .find(|r| r.kind == EventKind::EnqSlowEnter)
                .unwrap_or_else(|| panic!("parked enq_slow not reported: {reports:?}"));
            assert!(stall.stalled >= Duration::from_millis(20));
            release.set();
        });

        drop(dog);
        // The parked operation completed once released; nothing was lost.
        assert_eq!(h.dequeue(), Some(42));
    }

    /// The dequeue slow path is watched too: a dequeue that reaches
    /// `deq_slow` and parks inside its self-help (just before it announces
    /// a candidate cell) must be reported as a `DeqSlowEnter` stall — the
    /// nested help span the self-help opens must not disarm the progress
    /// words.
    ///
    /// The staging is that of `is_empty_skips_a_cell_a_helped_enqueue_reserved`
    /// in `fault_schedules.rs`: M's empty probe ⊤-seals cell 0; E's
    /// patience-0 enqueue fails there and parks with its request
    /// published; D completes E's request at cell 1; E resumes and
    /// reserves cell 2, which it never fills. A patience-0 dequeue of cell
    /// 2 then finds it unusable and enters `deq_slow`.
    #[test]
    fn watchdog_catches_a_dequeue_parked_in_deq_slow() {
        let q = RawQueue::<16>::with_config(Config::wf0());
        let mut m = q.register();
        assert_eq!(m.dequeue(), None);
        let e_parked = Arc::new(Event::default());
        let e_resume = Arc::new(Event::default());
        std::thread::scope(|s| {
            let e = {
                let q = &q;
                let (p, r) = (Arc::clone(&e_parked), Arc::clone(&e_resume));
                s.spawn(move || {
                    fault::with_plan(
                        FaultPlan::new().hook_at(
                            "enq_slow::request_published",
                            0,
                            Arc::new(move |_| {
                                p.set();
                                r.wait();
                            }),
                        ),
                        || q.register().enqueue(42),
                    );
                })
            };
            e_parked.wait();
            assert_eq!(q.register().dequeue(), Some(42));
            e_resume.set();
            e.join().unwrap();
        });
        assert_eq!(q.indices(), (2, 3), "setup: E must have reserved cell 2");
        let slow_before = q.stats().deq_slow;

        let parked = Arc::new(Event::default());
        let release = Arc::new(Event::default());
        let dog = Watchdog::spawn(WatchdogConfig {
            interval: Duration::from_millis(2),
            threshold: Duration::from_millis(20),
        });

        let got = std::thread::scope(|s| {
            let d = {
                let (p, r) = (Arc::clone(&parked), Arc::clone(&release));
                s.spawn(move || {
                    fault::with_plan(
                        FaultPlan::new().hook_at(
                            "help_deq::pre_announce",
                            0,
                            Arc::new(move |_| {
                                p.set();
                                r.wait();
                            }),
                        ),
                        || m.dequeue(),
                    )
                })
            };

            parked.wait();
            std::thread::sleep(Duration::from_millis(80));
            let reports = dog.reports();
            let stall = reports
                .iter()
                .find(|r| r.kind == EventKind::DeqSlowEnter)
                .unwrap_or_else(|| panic!("parked deq_slow not reported: {reports:?}"));
            assert!(stall.stalled >= Duration::from_millis(20));
            release.set();
            d.join().unwrap()
        });

        drop(dog);
        // Once released, the dequeue completed: cell 2 holds no value and
        // nothing follows it.
        assert_eq!(got, None);
        assert_eq!(q.stats().deq_slow, slow_before + 1);
    }
}
