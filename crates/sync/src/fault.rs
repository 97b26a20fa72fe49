//! Deterministic fault injection for schedule testing.
//!
//! The queue's correctness argument lives almost entirely in code that a
//! normal run never exercises: the Kogan–Petrank helping slow paths and
//! the reclaimer's Dijkstra re-verification windows only run when a race
//! is *lost*, and losing a specific race on a real machine is rare and
//! non-reproducible. This module turns those windows into test targets:
//!
//! - Protocol code marks its interesting interleaving points with
//!   [`inject!`](crate::inject!)`("area::point")`. In the default build
//!   the macro expands to **literally nothing** — provably so: the
//!   expansion is a valid constant expression, which no atomic load or
//!   branch is (see the `const` guard at the bottom of this file).
//! - Under `--features fault-injection`, each hit bumps a global coverage
//!   counter (so tests can *assert* a window was reached) and consults the
//!   calling thread's installed `FaultPlan`, which may spin, yield,
//!   sleep, or run an arbitrary test hook at that point.
//!
//! Plans are deterministic: a `FaultPlan::fuzz` decision depends only on
//! the plan seed, the point name, and the per-thread hit index — never on
//! wall-clock or global state — so a failing seed printed by a test
//! reproduces the same perturbation sequence on every rerun (modulo OS
//! scheduling, which the perturbations themselves are there to out-shout).
//!
//! Point-naming convention: `"module::window"`, e.g.
//! `"enq_slow::request_published"` — the instrumented crates each export a
//! `FAULT_POINTS` list so sweeps can assert complete coverage.

/// Whether this build has the fault-injection layer compiled in.
pub const ENABLED: bool = cfg!(feature = "fault-injection");

/// Marks a protocol interleaving point.
///
/// Expands to `()` in the default build; with the `fault-injection`
/// feature it calls `fault::hit` with the given point name (which must be a
/// `&'static str` literal by convention: `"area::window"`).
#[macro_export]
#[cfg(not(feature = "fault-injection"))]
macro_rules! inject {
    ($point:expr) => {
        ()
    };
}

/// Marks a protocol interleaving point.
///
/// This build has `fault-injection` enabled: every expansion bumps the
/// point's coverage counter and consults the thread's [`FaultPlan`].
#[macro_export]
#[cfg(feature = "fault-injection")]
macro_rules! inject {
    ($point:expr) => {
        $crate::fault::hit($point)
    };
}

// In the default build the whole runtime below is absent; `inject!` cannot
// cost anything because there is nothing for it to call.
#[cfg(feature = "fault-injection")]
mod imp {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Duration;

    use crate::XorShift64;

    /// What to do when a plan matches an injection point.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultAction {
        /// Do nothing (useful to mask a window out of a fuzz plan).
        None,
        /// `std::thread::yield_now()` — invite the scheduler to interleave.
        Yield,
        /// Busy-spin this many `spin_loop` hints — stretch the window
        /// without a syscall.
        Spin(u32),
        /// Sleep this many microseconds — force other threads through the
        /// window wholesale.
        Sleep(u32),
        /// Kill the operation *inside* the window: notify the registered
        /// crash observer (which typically snapshots a persistent image),
        /// then unwind with a [`CrashPoint`] payload. The crash-injection
        /// harness turns every inject point into a crash point with this;
        /// tests catch the unwind with `std::panic::catch_unwind` and
        /// classify it via [`crash_point`].
        Crash,
    }

    impl FaultAction {
        fn perform(self, point: &'static str) {
            match self {
                FaultAction::None => {}
                FaultAction::Yield => std::thread::yield_now(),
                FaultAction::Spin(n) => {
                    for _ in 0..n {
                        core::hint::spin_loop();
                    }
                }
                FaultAction::Sleep(us) => {
                    std::thread::sleep(Duration::from_micros(u64::from(us)))
                }
                FaultAction::Crash => {
                    if let Some(obs) = crash_observer().lock().unwrap().clone() {
                        obs(point);
                    }
                    std::panic::panic_any(CrashPoint { point });
                }
            }
        }
    }

    /// Unwind payload of a [`FaultAction::Crash`]: which injection point
    /// the simulated crash fired at.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CrashPoint {
        /// The injection point name (`"area::window"`).
        pub point: &'static str,
    }

    /// Classifies a caught unwind payload: `Some(point)` if it is a
    /// [`CrashPoint`] from a [`FaultAction::Crash`], `None` for any other
    /// panic (a real assertion failure must not be mistaken for a
    /// simulated crash).
    pub fn crash_point(payload: &(dyn std::any::Any + Send)) -> Option<&'static str> {
        payload.downcast_ref::<CrashPoint>().map(|c| c.point)
    }

    fn crash_observer() -> &'static Mutex<Option<Hook>> {
        static OBS: OnceLock<Mutex<Option<Hook>>> = OnceLock::new();
        OBS.get_or_init(|| Mutex::new(None))
    }

    /// Registers a process-global observer run *before* the unwind of every
    /// [`FaultAction::Crash`], on the crashing thread, still inside the
    /// protocol window. This is the crash-snapshot hook: a durable-mode
    /// test captures the persistent image here, at the exact instant of
    /// the simulated power cut. Replaces any previous observer.
    pub fn set_crash_observer(obs: Hook) {
        *crash_observer().lock().unwrap() = Some(obs);
    }

    /// Removes the crash observer.
    pub fn clear_crash_observer() {
        *crash_observer().lock().unwrap() = None;
    }

    /// A test callback run when its point is hit (barriers, flags, …).
    pub type Hook = Arc<dyn Fn(&'static str) + Send + Sync>;

    #[derive(Clone)]
    struct Rule {
        point: &'static str,
        /// Fire from this per-thread hit index (0-based) …
        from_hit: u64,
        /// … for this many hits (`u64::MAX` = forever).
        count: u64,
        action: FaultAction,
        hook: Option<Hook>,
    }

    /// Seeded random perturbation applied to *every* point.
    #[derive(Debug, Clone, Copy)]
    struct Fuzz {
        seed: u64,
        /// Probability of perturbing a given hit, in percent.
        intensity: u32,
    }

    /// A per-thread schedule-perturbation plan.
    ///
    /// Install with [`install`] / [`with_plan`]; consulted on every
    /// [`hit`] by the owning thread. Plans combine a seeded fuzzer (every
    /// point, probabilistic) with targeted rules (exact point, exact hit
    /// range, chosen action or hook). Rules run in addition to — after —
    /// the fuzz decision.
    #[derive(Clone, Default)]
    pub struct FaultPlan {
        fuzz: Option<Fuzz>,
        rules: Vec<Rule>,
    }

    impl std::fmt::Debug for FaultPlan {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("FaultPlan")
                .field("fuzz_seed", &self.fuzz.map(|z| z.seed))
                .field("rules", &self.rules.len())
                .finish()
        }
    }

    impl FaultPlan {
        /// An empty plan (coverage counting only).
        pub fn new() -> Self {
            Self::default()
        }

        /// A seeded fuzz plan: each hit is perturbed with probability
        /// `intensity`% by an action chosen deterministically from
        /// `(seed, point, per-thread hit index)`.
        pub fn fuzz(seed: u64, intensity: u32) -> Self {
            Self {
                fuzz: Some(Fuzz {
                    seed,
                    intensity: intensity.min(100),
                }),
                rules: Vec::new(),
            }
        }

        /// Adds a rule: perform `action` on every hit of `point`.
        pub fn at(self, point: &'static str, action: FaultAction) -> Self {
            self.at_hits(point, 0, u64::MAX, action)
        }

        /// Adds a rule limited to hits `[from_hit, from_hit + count)` of
        /// `point` (per-thread 0-based hit index).
        pub fn at_hits(
            mut self,
            point: &'static str,
            from_hit: u64,
            count: u64,
            action: FaultAction,
        ) -> Self {
            self.rules.push(Rule {
                point,
                from_hit,
                count,
                action,
                hook: None,
            });
            self
        }

        /// Adds a test hook called on every hit of `point` (after any
        /// action rules). Hooks may block — that is their purpose: park a
        /// thread inside a protocol window while the test drives the rest
        /// of the system — but must not themselves call queue operations
        /// (re-entrant hits would consult the same plan).
        pub fn hook(mut self, point: &'static str, hook: Hook) -> Self {
            self.rules.push(Rule {
                point,
                from_hit: 0,
                count: u64::MAX,
                action: FaultAction::None,
                hook: Some(hook),
            });
            self
        }

        /// Like [`Self::hook`], for one specific hit only.
        pub fn hook_at(
            mut self,
            point: &'static str,
            hit: u64,
            hook: Hook,
        ) -> Self {
            self.rules.push(Rule {
                point,
                from_hit: hit,
                count: 1,
                action: FaultAction::None,
                hook: Some(hook),
            });
            self
        }
    }

    struct Installed {
        plan: FaultPlan,
        /// Per-point hit counts of *this thread* under the current plan.
        hits: BTreeMap<&'static str, u64>,
    }

    thread_local! {
        static PLAN: RefCell<Option<Installed>> = const { RefCell::new(None) };
    }

    /// Installs `plan` for the calling thread (replacing any previous one).
    pub fn install(plan: FaultPlan) {
        PLAN.with(|p| {
            *p.borrow_mut() = Some(Installed {
                plan,
                hits: BTreeMap::new(),
            });
        });
    }

    /// Removes the calling thread's plan. Coverage counting continues.
    pub fn clear() {
        PLAN.with(|p| *p.borrow_mut() = None);
    }

    /// Runs `f` with `plan` installed, clearing it afterwards (also on
    /// panic, so a failing assertion cannot leak a plan into later tests
    /// on a reused test-harness thread).
    pub fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                clear();
            }
        }
        install(plan);
        let _g = Guard;
        f()
    }

    /// FNV-1a, for mixing point names into fuzz decisions.
    fn fnv1a(s: &str) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01B3);
        }
        h
    }

    fn fuzz_action(z: Fuzz, point: &'static str, hit_idx: u64) -> FaultAction {
        let mut rng = XorShift64::new(z.seed ^ fnv1a(point) ^ hit_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if rng.next_below(100) >= u64::from(z.intensity) {
            return FaultAction::None;
        }
        match rng.next_below(10) {
            0..=4 => FaultAction::Yield,
            5..=8 => FaultAction::Spin(rng.next_in(16, 2_048) as u32),
            _ => FaultAction::Sleep(rng.next_in(1, 50) as u32),
        }
    }

    /// Exposes the pure fuzz decision function (tests assert determinism).
    #[doc(hidden)]
    pub fn fuzz_decision(
        seed: u64,
        intensity: u32,
        point: &'static str,
        hit_idx: u64,
    ) -> FaultAction {
        fuzz_action(
            Fuzz {
                seed,
                intensity: intensity.min(100),
            },
            point,
            hit_idx,
        )
    }

    /// Distinct point names the coverage table can hold.
    pub(crate) const COVERAGE_CAPACITY: usize = 256;

    /// Global hit counts by point name: an open-addressed table (FNV-1a
    /// home slot, linear probing) in a const-initialised static. Counting
    /// a hit never allocates, so a test that counts its own allocations
    /// can run injection points; an allocation made by the first hit of a
    /// point would outlive that test.
    pub(crate) type CoverageTable = [(Option<&'static str>, u64); COVERAGE_CAPACITY];

    static COVERAGE: Mutex<CoverageTable> = Mutex::new([(None, 0); COVERAGE_CAPACITY]);

    fn coverage_table() -> std::sync::MutexGuard<'static, CoverageTable> {
        COVERAGE
            .lock()
            .expect("a panic while counting coverage: the table is full")
    }

    /// The table index holding `point`, or the empty one it should take.
    /// Panics when the table is full: more distinct points than
    /// [`COVERAGE_CAPACITY`] means coverage would be silently dropped.
    pub(crate) fn coverage_index(table: &CoverageTable, point: &str) -> usize {
        let home = fnv1a(point) as usize % COVERAGE_CAPACITY;
        (0..COVERAGE_CAPACITY)
            .map(|k| (home + k) % COVERAGE_CAPACITY)
            .find(|&i| table[i].0.is_none_or(|p| p == point))
            .unwrap_or_else(|| {
                panic!(
                    "fault coverage table is full: more than {COVERAGE_CAPACITY} distinct points"
                )
            })
    }

    /// Records a hit of `point`: bumps its global coverage counter, then
    /// lets the calling thread's plan (if any) perturb the schedule.
    /// Called by [`inject!`](crate::inject); not meant to be called
    /// directly.
    pub fn hit(point: &'static str) {
        {
            let mut table = coverage_table();
            let i = coverage_index(&table, point);
            table[i] = (Some(point), table[i].1 + 1);
        }

        // Take the plan's decision out of the borrow before acting: a hook
        // may block for a long time and must not hold the RefCell (the
        // action itself cannot re-enter, but keeping borrows short is
        // cheap insurance).
        let mut actions: Vec<FaultAction> = Vec::new();
        let mut hooks: Vec<Hook> = Vec::new();
        PLAN.with(|p| {
            let mut p = p.borrow_mut();
            let Some(installed) = p.as_mut() else { return };
            let idx = installed.hits.entry(point).or_insert(0);
            let hit_idx = *idx;
            *idx += 1;
            if let Some(z) = installed.plan.fuzz {
                actions.push(fuzz_action(z, point, hit_idx));
            }
            for rule in &installed.plan.rules {
                if rule.point == point
                    && hit_idx >= rule.from_hit
                    && hit_idx - rule.from_hit < rule.count
                {
                    actions.push(rule.action);
                    if let Some(h) = &rule.hook {
                        hooks.push(Arc::clone(h));
                    }
                }
            }
        });
        for a in actions {
            a.perform(point);
        }
        for h in hooks {
            h(point);
        }
    }

    /// Snapshot of every point hit so far (process-global).
    pub fn coverage() -> BTreeMap<&'static str, u64> {
        coverage_table()
            .iter()
            .filter_map(|&(p, n)| Some((p?, n)))
            .collect()
    }

    /// Global hit count of one point.
    pub fn coverage_count(point: &str) -> u64 {
        let table = coverage_table();
        table[coverage_index(&table, point)].1
    }

    /// Resets all coverage counters (between sweep phases).
    pub fn reset_coverage() {
        *coverage_table() = [(None, 0); COVERAGE_CAPACITY];
    }
}

#[cfg(feature = "fault-injection")]
pub use imp::*;

// Zero-overhead guard, statically checked: with the feature off, the
// macro's expansion must be a constant expression. Atomic loads, branches
// on globals, and function calls are not permitted in constants, so this
// item compiling *proves* the default-build fast path carries no trace of
// the injection layer. (The runtime twin of this guard lives in the
// `primitives` bench: an `inject!`-laden loop prices identically to a bare
// one.)
#[cfg(not(feature = "fault-injection"))]
const _ZERO_OVERHEAD_PROOF: () = {
    inject!("fault::zero_overhead_proof");
};

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_reflects_the_feature() {
        assert_eq!(super::ENABLED, cfg!(feature = "fault-injection"));
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn default_build_macro_is_a_unit_expression() {
        // The macro must be usable as a plain expression...
        let _: () = inject!("fault::test_point");
        // ...and in const position (re-asserting the static guard above
        // from a test, so a regression fails loudly in `cargo test`).
        const _: () = inject!("fault::test_point_const");
    }

    #[cfg(feature = "fault-injection")]
    mod enabled {
        use super::super::*;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        #[test]
        fn hits_are_counted_globally() {
            let before = coverage_count("fault::self_test");
            inject!("fault::self_test");
            inject!("fault::self_test");
            assert_eq!(coverage_count("fault::self_test"), before + 2);
        }

        #[test]
        fn coverage_table_probes_past_collisions() {
            // Names from a local table; the global one is shared by every
            // test in the binary.
            let names: Vec<&'static str> = (0..COVERAGE_CAPACITY)
                .map(|i| &*Box::leak(format!("fault::probe_{i}").into_boxed_str()))
                .collect();
            let mut table: CoverageTable = [(None, 0); COVERAGE_CAPACITY];
            for (n, &name) in names.iter().enumerate() {
                let i = coverage_index(&table, name);
                assert_eq!(table[i].0, None, "a new name takes an empty slot");
                table[i] = (Some(name), n as u64);
            }
            for (n, &name) in names.iter().enumerate() {
                assert_eq!(table[coverage_index(&table, name)], (Some(name), n as u64));
            }
        }

        #[test]
        #[should_panic(expected = "fault coverage table is full")]
        fn a_full_coverage_table_panics_instead_of_dropping_a_point() {
            let mut table: CoverageTable = [(None, 0); COVERAGE_CAPACITY];
            for (i, slot) in table.iter_mut().enumerate() {
                *slot = (
                    Some(Box::leak(format!("fault::fill_{i}").into_boxed_str())),
                    1,
                );
            }
            coverage_index(&table, "fault::one_too_many");
        }

        #[test]
        fn rules_fire_on_their_hit_window_only() {
            let fired = Arc::new(AtomicU64::new(0));
            let f = Arc::clone(&fired);
            let plan = FaultPlan::new().hook_at(
                "fault::windowed",
                2,
                Arc::new(move |_| {
                    f.fetch_add(1, Ordering::Relaxed);
                }),
            );
            with_plan(plan, || {
                for _ in 0..5 {
                    inject!("fault::windowed");
                }
            });
            assert_eq!(fired.load(Ordering::Relaxed), 1, "hit #2 only");
        }

        #[test]
        fn fuzz_decisions_are_deterministic_per_seed() {
            // Same (seed, point, hit) → same action; different seed →
            // (almost surely) a different action sequence.
            let seq = |seed: u64| -> Vec<FaultAction> {
                (0..64)
                    .map(|i| fuzz_decision(seed, 100, "fault::det", i))
                    .collect()
            };
            assert_eq!(seq(7), seq(7));
            assert_ne!(seq(7), seq(8));
            // Zero intensity never perturbs.
            for i in 0..64 {
                assert_eq!(fuzz_decision(7, 0, "fault::det", i), FaultAction::None);
            }
        }

        #[test]
        fn crash_action_unwinds_with_a_classifiable_payload() {
            let plan = FaultPlan::new().at_hits("fault::crash_here", 1, 1, FaultAction::Crash);
            let err = with_plan(plan, || {
                std::panic::catch_unwind(|| {
                    inject!("fault::crash_here"); // hit 0: survives
                    inject!("fault::crash_here"); // hit 1: crashes
                    unreachable!("crash rule must fire on hit 1");
                })
                .unwrap_err()
            });
            assert_eq!(crash_point(&*err), Some("fault::crash_here"));
            // An ordinary panic is not classified as a crash.
            let other = std::panic::catch_unwind(|| panic!("plain")).unwrap_err();
            assert_eq!(crash_point(&*other), None);
        }

        #[test]
        fn crash_observer_runs_before_the_unwind() {
            let seen = Arc::new(std::sync::Mutex::new(Vec::<&'static str>::new()));
            let s = Arc::clone(&seen);
            set_crash_observer(Arc::new(move |p| s.lock().unwrap().push(p)));
            let plan = FaultPlan::new().at("fault::crash_observed", FaultAction::Crash);
            let err = with_plan(plan, || {
                std::panic::catch_unwind(|| inject!("fault::crash_observed")).unwrap_err()
            });
            clear_crash_observer();
            assert_eq!(crash_point(&*err), Some("fault::crash_observed"));
            assert_eq!(*seen.lock().unwrap(), vec!["fault::crash_observed"]);
            // Cleared observer: a later crash no longer notifies.
            let plan = FaultPlan::new().at("fault::crash_observed", FaultAction::Crash);
            with_plan(plan, || {
                let _ = std::panic::catch_unwind(|| inject!("fault::crash_observed"));
            });
            assert_eq!(seen.lock().unwrap().len(), 1);
        }

        #[test]
        fn with_plan_clears_on_exit() {
            let fired = Arc::new(AtomicU64::new(0));
            let f = Arc::clone(&fired);
            with_plan(
                FaultPlan::new().hook(
                    "fault::scoped",
                    Arc::new(move |_| {
                        f.fetch_add(1, Ordering::Relaxed);
                    }),
                ),
                || inject!("fault::scoped"),
            );
            inject!("fault::scoped"); // outside the scope: no hook
            assert_eq!(fired.load(Ordering::Relaxed), 1);
        }
    }
}
