//! The four workloads, driven through the public typed API, and the traced
//! run that times each layer underneath it.
//!
//! Every run builds its queue several times. Each build is timed from its
//! start to its first timed window (`setup_s`), runs its share of the timed
//! windows, and is drained and checked. Every value of every build passes
//! the output check.

use std::hint::{black_box, spin_loop};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use wfq_baselines::FaaBench;
use wfq_harness::topology::pin_to_cpu;
use wfqueue::{BackendHandle, Gauges, Handle, LocalHandle, QueueStats, RawQueue, WfQueue};

use crate::alloc;
use crate::check::{self, Checker, Msg, Source, Verdict};
use crate::stats::{p99, quartiles, Hist};
use crate::trace::{Layer, Recorder};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PairsTyped1t,
    BacklogTyped1t,
    PairsTyped2t,
    HandoffTyped2t,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::PairsTyped1t,
    Workload::BacklogTyped1t,
    Workload::PairsTyped2t,
    Workload::HandoffTyped2t,
];

/// How a workload drives the queue.
struct Shape {
    threads: usize,
    /// Values enqueued before the first pair (closed loop only).
    backlog: u64,
    /// Pairs per thread per window (closed loop), or values per window
    /// (open loop).
    window: u64,
    /// Untimed windows before the first timed one.
    warmup: u64,
    open_loop: bool,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PairsTyped1t => "pairs_typed_1t",
            Workload::BacklogTyped1t => "backlog_typed_1t",
            Workload::PairsTyped2t => "pairs_typed_2t",
            Workload::HandoffTyped2t => "handoff_typed_2t",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    pub fn threads(self) -> usize {
        self.shape().threads
    }

    fn shape(self) -> Shape {
        match self {
            // A 64-value backlog keeps every dequeue non-empty while all
            // cells and boxes stay in L1. Windows are short (well under a
            // millisecond) so that some fall between the host's bursts of
            // interference: `ops_mops` is the 99th percentile of their
            // rates.
            Workload::PairsTyped1t => Shape {
                threads: 1,
                backlog: 64,
                window: 1 << 12,
                warmup: 256,
                open_loop: false,
            },
            // 2^18 values: ~256 segments plus boxes, far beyond L2. The
            // warm-up turns the whole backlog over twice.
            Workload::BacklogTyped1t => Shape {
                threads: 1,
                backlog: 1 << 18,
                window: 1 << 12,
                warmup: 128,
                open_loop: false,
            },
            Workload::PairsTyped2t => Shape {
                threads: 2,
                backlog: 4096,
                window: 1 << 11,
                warmup: 240,
                open_loop: false,
            },
            // 10 ms windows at the offered rate.
            Workload::HandoffTyped2t => Shape {
                threads: 2,
                backlog: 0,
                window: 5000,
                warmup: 10,
                open_loop: true,
            },
        }
    }
}

/// Offered rate of the open loop: one value every 2 µs (500 k values/s).
const PERIOD_NS: u64 = 2_000;
/// Builds per untraced run, each timed for an equal share of the run.
/// `setup_s` and `mem_peak_bytes` are medians over builds; the other
/// metrics pool the builds' windows and samples.
const BUILDS: usize = 8;
/// In the closed loop, every 1024th value is timed from when it became due.
const SAMPLE_MASK: u64 = 1023;
/// Window records are preallocated, so a run stops at this many windows.
const MAX_WINDOWS: usize = 1 << 17;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's clock epoch (never 0 once running).
#[inline]
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64 + 1
}

/// Starts the benchmark's clocks: the latency epoch and the span clock.
pub fn start_clocks() {
    epoch();
    wfq_obs::clock::raw_now();
}

/// One side of the queue, as the workloads see it. A test substitutes a
/// misbehaving fake to show the output check convicts it.
pub trait Endpoint {
    fn send<const T: bool>(&mut self, m: Msg, rec: &mut Recorder);
    fn recv<const T: bool>(&mut self, rec: &mut Recorder) -> Option<Msg>;
}

impl Endpoint for LocalHandle<'_, Msg> {
    #[inline]
    fn send<const T: bool>(&mut self, m: Msg, rec: &mut Recorder) {
        rec.begin::<T>(Layer::TypedEnq);
        self.enqueue(m);
        rec.end::<T>();
    }

    #[inline]
    fn recv<const T: bool>(&mut self, rec: &mut Recorder) -> Option<Msg> {
        rec.begin::<T>(Layer::TypedDeq);
        let m = self.dequeue();
        rec.end::<T>();
        m
    }
}

/// `LocalHandle` taken apart: the box and the raw queue call timed
/// separately, exactly as `typed.rs` composes them.
pub struct Replica<'q>(Handle<'q>);

impl Endpoint for Replica<'_> {
    #[inline]
    fn send<const T: bool>(&mut self, m: Msg, rec: &mut Recorder) {
        rec.begin::<T>(Layer::ReplicaEnq);
        rec.begin::<T>(Layer::AllocNew);
        let b = black_box(Box::new(m));
        rec.end::<T>();
        let bits = Box::into_raw(b) as u64;
        rec.begin::<T>(Layer::RawEnq);
        self.0.enqueue(bits);
        rec.end::<T>();
        rec.end::<T>();
    }

    #[inline]
    fn recv<const T: bool>(&mut self, rec: &mut Recorder) -> Option<Msg> {
        rec.begin::<T>(Layer::ReplicaDeq);
        rec.begin::<T>(Layer::RawDeq);
        let bits = self.0.dequeue();
        rec.end::<T>();
        let m = bits.map(|bits| {
            rec.begin::<T>(Layer::AllocFree);
            // SAFETY: every value in this queue came from `Box::into_raw`
            // in `send`, and the queue hands each value out once.
            let m = *unsafe { Box::from_raw(bits as *mut Msg) };
            rec.end::<T>();
            m
        });
        rec.end::<T>();
        m
    }
}

/// A queue the workloads can build and read counters from.
pub trait Bench: Sync {
    type H<'q>: Endpoint
    where
        Self: 'q;
    fn build() -> Self;
    fn handle(&self) -> Self::H<'_>;
    fn stats(&self) -> QueueStats;
    fn gauges(&self) -> Gauges;
}

impl Bench for WfQueue<Msg> {
    type H<'q> = LocalHandle<'q, Msg>;
    fn build() -> Self {
        WfQueue::new()
    }
    fn handle(&self) -> Self::H<'_> {
        WfQueue::handle(self)
    }
    fn stats(&self) -> QueueStats {
        WfQueue::stats(self)
    }
    fn gauges(&self) -> Gauges {
        WfQueue::gauges(self)
    }
}

impl Bench for RawQueue {
    type H<'q> = Replica<'q>;
    fn build() -> Self {
        RawQueue::new()
    }
    fn handle(&self) -> Self::H<'_> {
        Replica(self.register())
    }
    fn stats(&self) -> QueueStats {
        RawQueue::stats(self)
    }
    fn gauges(&self) -> Gauges {
        RawQueue::gauges(self)
    }
}

/// Which windows of a build are traced.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Plan {
    Untraced,
    /// Odd windows traced, even ones not: the overhead on one queue.
    Alternate,
    Traced,
}

impl Plan {
    fn traced(self) -> bool {
        self != Plan::Untraced
    }

    fn traces(self, window: u64) -> bool {
        match self {
            Plan::Untraced => false,
            Plan::Alternate => window % 2 == 1,
            Plan::Traced => true,
        }
    }
}

/// Counter readings taken by the window leader at the timed phase's start
/// and at every window end.
#[derive(Default)]
pub struct Probe {
    first: Option<(QueueStats, alloc::Totals, f64)>,
    last: Option<(QueueStats, alloc::Totals, f64)>,
    live_peak: u64,
    lag_peak: u64,
    /// Operations completed in timed windows so far.
    ops: f64,
}

impl Probe {
    fn sample<Q: Bench>(&mut self, q: &Q, rec: &mut Recorder) {
        rec.begin::<true>(Layer::Stats);
        let s = q.stats();
        rec.end::<true>();
        rec.begin::<true>(Layer::Gauges);
        let g = q.gauges();
        rec.end::<true>();
        let reading = (s, alloc::totals(), self.ops);
        self.first.get_or_insert(reading);
        self.last = Some(reading);
        self.live_peak = self.live_peak.max(g.live_segments);
        self.lag_peak = self.lag_peak.max(g.hazard_lag_segments);
    }
}

/// One thread's state. Everything it writes during the timed phase is
/// allocated before the queue is built, so `mem_peak_bytes` sees only the
/// queue.
pub struct Worker {
    tid: usize,
    pub src: Source,
    pub chk: Checker,
    pub rec: Recorder,
    /// Due time to dequeue return, ns.
    lat: Hist,
    /// Due time to the enqueue call, ns.
    late: Hist,
    /// Closed loop: when the next timed value became due.
    due: u64,
    /// Dequeues that found the queue empty although it held a backlog.
    empty: u64,
    /// Closed-loop windows left out because a client idled through part.
    not_concurrent: u64,
    rates: Vec<f64>,
    traced_rates: Vec<f64>,
    mem_peak: i64,
    pinned: bool,
    timed_from: Option<Instant>,
    probe: Probe,
}

impl Worker {
    pub fn new(tid: usize, key: u64, producers: usize, traced: bool) -> Self {
        Self {
            tid,
            src: Source::new(key, tid),
            chk: Checker::new(key, producers),
            rec: if traced {
                Recorder::new()
            } else {
                Recorder::off()
            },
            lat: Hist::default(),
            late: Hist::default(),
            due: 0,
            empty: 0,
            not_concurrent: 0,
            rates: Vec::with_capacity(MAX_WINDOWS),
            traced_rates: Vec::with_capacity(if traced { MAX_WINDOWS } else { 0 }),
            mem_peak: 0,
            pinned: false,
            timed_from: None,
            probe: Probe::default(),
        }
    }

    #[inline]
    fn deliver(&mut self, m: &Msg) {
        if m.pad[1] != 0 {
            self.lat.record(now_ns().saturating_sub(m.pad[1]));
        }
        self.chk.deliver(m);
    }

    fn windows(&self) -> usize {
        self.rates.len() + self.traced_rates.len()
    }
}

/// `n` closed-loop pairs: enqueue one value, dequeue one.
#[inline]
pub fn pairs<E: Endpoint, const T: bool>(e: &mut E, n: u64, w: &mut Worker) {
    for _ in 0..n {
        let timed = w.src.sent & SAMPLE_MASK == 0 && w.due != 0;
        let mut m = w.src.next(0);
        if timed {
            w.late.record(now_ns() - w.due);
            m.pad[1] = w.due;
        }
        e.send::<T>(m, &mut w.rec);
        match e.recv::<T>(&mut w.rec) {
            Some(m) => w.deliver(&m),
            None => w.empty += 1,
        }
        if w.src.sent & SAMPLE_MASK == 0 {
            w.due = now_ns();
        }
    }
}

/// A spinning barrier: the threads run pinned on their own CPUs, and a
/// sleeping barrier's wake-up would be timed into every window.
struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        if self.n == 1 {
            return;
        }
        let g = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(g + 1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == g {
                spins += 1;
                if spins & 1023 == 0 {
                    std::thread::yield_now();
                } else {
                    spin_loop();
                }
            }
        }
    }
}

/// What a build's threads share.
struct Shared {
    bar: SpinBarrier,
    /// Closed loop: set by the leader to end the timed windows. Open loop:
    /// set by the producer once it has sent its last value.
    stop: AtomicBool,
    /// Closed loop: each thread's busy time in the current window, ns.
    busy: Vec<AtomicU64>,
    /// Live heap bytes just before the queue was built.
    base: i64,
}

/// One build of the queue, from construction to the final drain.
struct Build {
    ws: Vec<Worker>,
    verdict: Verdict,
    setup_s: f64,
    lead: usize,
}

impl Build {
    fn lead(&self) -> &Worker {
        &self.ws[self.lead]
    }
}

fn build<Q: Bench>(sh: &Shape, key: u64, seconds: f64, plan: Plan) -> Build {
    let start = Instant::now();
    let producers = if sh.open_loop { 1 } else { sh.threads };
    let mut ws: Vec<Worker> = (0..sh.threads)
        .map(|t| Worker::new(t, key, producers, plan.traced()))
        .collect();
    let mut drain = Checker::new(key, producers);
    let busy = (0..sh.threads).map(|_| AtomicU64::new(0)).collect();
    let shared = Shared {
        bar: SpinBarrier::new(sh.threads),
        stop: AtomicBool::new(false),
        busy,
        base: alloc::totals().live,
    };
    let q = Q::build();
    std::thread::scope(|s| {
        for w in &mut ws {
            let (q, shared) = (&q, &shared);
            s.spawn(move || {
                w.pinned = pin_to_cpu(w.tid);
                let _slot = alloc::claim();
                if plan.traced() {
                    w.rec.calibrate(100_000);
                }
                let mut h = q.handle();
                match (sh.open_loop, w.tid) {
                    (false, _) => closed(q, &mut h, w, sh, seconds, plan, shared),
                    (true, 0) => produce(&mut h, w, sh, seconds, plan, shared),
                    (true, _) => consume(q, &mut h, w, sh, plan, shared),
                }
            });
        }
    });
    // The final drain: whatever it cannot find is lost.
    {
        let mut h = q.handle();
        let mut rec = Recorder::off();
        while let Some(m) = h.recv::<false>(&mut rec) {
            drain.deliver(&m);
        }
    }
    let sent: Vec<u64> = ws.iter().take(producers).map(|w| w.src.sent).collect();
    let verdict = check::verdict(&sent, ws.iter().map(|w| &w.chk).chain([&drain]));
    let setup_s = (ws[0].timed_from.expect("the timed phase was reached") - start).as_secs_f64();
    Build {
        ws,
        verdict,
        setup_s,
        lead: usize::from(sh.open_loop),
    }
}

/// Closed loop: prefill, warm up, then barrier-aligned windows of a fixed
/// number of pairs per thread until `seconds` have passed.
fn closed<Q: Bench>(
    q: &Q,
    h: &mut Q::H<'_>,
    w: &mut Worker,
    sh: &Shape,
    seconds: f64,
    plan: Plan,
    shared: &Shared,
) {
    let (bar, stop) = (&shared.bar, &shared.stop);
    for _ in 0..sh.backlog / sh.threads as u64 {
        let m = w.src.next(0);
        h.send::<false>(m, &mut w.rec);
    }
    for _ in 0..sh.warmup {
        bar.wait();
        pairs::<_, false>(h, sh.window, w);
    }
    bar.wait();
    let t0 = Instant::now();
    w.timed_from = Some(t0);
    w.lat.clear();
    w.late.clear();
    let lead = w.tid == 0;
    let window_ops = (2 * sh.window * sh.threads as u64) as f64;
    if lead && plan.traced() {
        w.probe.sample(q, &mut w.rec);
    }
    let mut k = 0;
    loop {
        if lead {
            let done = t0.elapsed().as_secs_f64() >= seconds || w.windows() >= MAX_WINDOWS;
            stop.store(done, Ordering::Relaxed);
        }
        bar.wait();
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let traced = plan.traces(k);
        let began = Instant::now();
        if traced {
            pairs::<_, true>(h, sh.window, w);
        } else {
            pairs::<_, false>(h, sh.window, w);
        }
        shared.busy[w.tid].store(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
        bar.wait();
        if lead {
            let elapsed = began.elapsed();
            // A window counts only if every client was busy for nearly all
            // of it. When the host runs the clients one after the other, a
            // window escapes the contention the workload is about and reads
            // faster, not slower.
            let floor = 0.9 * elapsed.as_nanos() as f64;
            let concurrent = shared
                .busy
                .iter()
                .all(|b| b.load(Ordering::Relaxed) as f64 >= floor);
            if !concurrent {
                w.not_concurrent += 1;
            } else if traced {
                w.traced_rates
                    .push(window_ops / elapsed.as_secs_f64() / 1e6);
            } else {
                w.rates.push(window_ops / elapsed.as_secs_f64() / 1e6);
            }
            w.mem_peak = w.mem_peak.max(alloc::totals().live - shared.base);
            if plan.traced() {
                w.probe.ops += window_ops;
                w.probe.sample(q, &mut w.rec);
            }
        }
        k += 1;
    }
}

/// Open-loop producer: value `i` is due at `t0 + i·PERIOD_NS`, sent as soon
/// after that as the producer gets to it.
fn produce<E: Endpoint>(
    h: &mut E,
    w: &mut Worker,
    sh: &Shape,
    seconds: f64,
    plan: Plan,
    shared: &Shared,
) {
    shared.bar.wait();
    let warm = sh.warmup * sh.window;
    // The first value falls due 10 µs after the barrier, once both threads
    // are past it.
    let t0 = now_ns() + 10_000;
    let timed_t0 = t0 + warm * PERIOD_NS;
    for i in 0.. {
        let due = t0 + i * PERIOD_NS;
        if i == warm {
            w.timed_from = Some(epoch() + Duration::from_nanos(due - 1));
        }
        if i >= warm && (due - timed_t0) as f64 >= seconds * 1e9 {
            break;
        }
        let mut now = now_ns();
        while now < due {
            spin_loop();
            now = now_ns();
        }
        if i >= warm {
            w.late.record(now - due);
        }
        let m = w.src.next(due);
        if i >= warm && plan.traces((i - warm) / sh.window) {
            h.send::<true>(m, &mut w.rec);
        } else {
            h.send::<false>(m, &mut w.rec);
        }
    }
    shared.stop.store(true, Ordering::Release);
}

/// Open-loop consumer: polls until each value arrives. Windows follow the
/// values' seqs, so a window holds the values sent in one 10 ms slot.
fn consume<Q: Bench>(
    q: &Q,
    h: &mut Q::H<'_>,
    w: &mut Worker,
    sh: &Shape,
    plan: Plan,
    shared: &Shared,
) {
    shared.bar.wait();
    let warm = sh.warmup * sh.window;
    let mut window: Option<(u64, u64, u64)> = None; // (index, start ns, values)
    let mut traced = false;
    loop {
        let fin = shared.stop.load(Ordering::Acquire);
        let got = if traced {
            h.recv::<true>(&mut w.rec)
        } else {
            h.recv::<false>(&mut w.rec)
        };
        let Some(m) = got else {
            if fin {
                break;
            }
            continue;
        };
        let now = now_ns();
        let seq = w.chk.seq_of(&m);
        w.chk.deliver(&m);
        if seq < warm {
            continue;
        }
        w.lat.record(now.saturating_sub(m.pad[1]));
        let k = (seq - warm) / sh.window;
        match window {
            None => {
                if plan.traced() {
                    w.probe.sample(q, &mut w.rec);
                }
                window = Some((k, now, 0));
            }
            Some((cur, start, n)) if k > cur => {
                if w.windows() < MAX_WINDOWS {
                    let rate = 2.0 * n as f64 / (now - start) as f64 * 1e3;
                    if plan.traces(cur) {
                        &mut w.traced_rates
                    } else {
                        &mut w.rates
                    }
                    .push(rate);
                }
                w.mem_peak = w.mem_peak.max(alloc::totals().live - shared.base);
                if plan.traced() {
                    w.probe.ops += 2.0 * n as f64;
                    w.probe.sample(q, &mut w.rec);
                }
                window = Some((k, now, 0));
            }
            _ => {}
        }
        if let Some((cur, _, n)) = &mut window {
            *n += 1;
            traced = plan.traces(*cur);
        }
    }
}

/// Bare `FaaBench` pairs on the workload's CPUs, each pair one span.
fn faa_phase(threads: usize, seconds: f64) -> Vec<Recorder> {
    let f = FaaBench::new();
    std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                s.spawn(move || {
                    pin_to_cpu(t);
                    let mut rec = Recorder::new();
                    rec.calibrate(100_000);
                    let mut h = f.register();
                    let t0 = Instant::now();
                    while t0.elapsed().as_secs_f64() < seconds {
                        for _ in 0..4096 {
                            rec.begin::<true>(Layer::FaaPair);
                            h.enqueue(1);
                            black_box(h.dequeue());
                            rec.end::<true>();
                        }
                    }
                    rec
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("FAA thread"))
            .collect()
    })
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Outcome {
    pub verdict: Verdict,
    pub metrics: Vec<Metric>,
    /// Supporting figures for the detail line: quartiles, counts.
    pub detail: Vec<(&'static str, f64)>,
    pub pinned: usize,
    pub threads: usize,
    /// Span recorders to write out, by thread label.
    pub recorders: Vec<(String, Recorder)>,
}

/// The run's throughput from its window rates. With one client the host's
/// interference only ever slows a window, so the fastest windows (99th
/// percentile) are the steadiest estimate. With two clients the host also
/// speeds windows up at times, by placing the two CPUs where the contended
/// lines move cheaply, so the median is.
fn ops_mops(sh: &Shape, rates: &[f64]) -> f64 {
    if sh.threads == 1 {
        p99(rates)
    } else {
        quartiles(rates).1
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn run(wl: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let sh = wl.shape();
    let key = check::key(seed);
    if trace {
        traced(&sh, key, seconds)
    } else {
        untraced(&sh, key, seconds)
    }
}

fn untraced(sh: &Shape, key: u64, seconds: f64) -> Outcome {
    let mut verdict = Verdict::default();
    let (mut setups, mut peaks, mut rates) = (vec![], vec![], vec![]);
    let mut lat = Hist::default();
    let (mut pinned, mut empty, mut not_concurrent) = (0, 0, 0);
    for b in 0..BUILDS {
        let built =
            build::<WfQueue<Msg>>(sh, key ^ b as u64, seconds / BUILDS as f64, Plan::Untraced);
        verdict.add(&built.verdict);
        setups.push(built.setup_s);
        let lead = built.lead();
        peaks.push(lead.mem_peak as f64);
        rates.extend_from_slice(&lead.rates);
        not_concurrent += lead.not_concurrent;
        for w in &built.ws {
            lat.merge(&w.lat);
            pinned += usize::from(w.pinned);
            empty += w.empty;
        }
    }
    let (q1, med, q3) = quartiles(&rates);
    let ops = ops_mops(sh, &rates);
    let (s1, setup, s3) = quartiles(&setups);
    let (m1, mem, m3) = quartiles(&peaks);
    Outcome {
        verdict,
        metrics: vec![
            ("ops_mops", ops, "Mops/s"),
            ("mem_peak_bytes", mem, "bytes"),
            ("setup_s", setup, "s"),
        ],
        detail: vec![
            ("window_rate_median", med),
            ("window_rate_q1", q1),
            ("window_rate_q3", q3),
            ("windows", rates.len() as f64),
            ("windows_not_concurrent", not_concurrent as f64),
            ("handoff_p50_ns", lat.quantile(0.5)),
            ("handoff_p99_ns", lat.quantile(0.99)),
            ("handoff_samples", lat.count() as f64),
            ("mem_peak_bytes_q1", m1),
            ("mem_peak_bytes_q3", m3),
            ("setup_s_q1", s1),
            ("setup_s_q3", s3),
            ("builds", BUILDS as f64),
            ("unexpected_empty", empty as f64),
        ],
        pinned,
        threads: BUILDS * sh.threads,
        recorders: Vec::new(),
    }
}

fn traced(sh: &Shape, key: u64, seconds: f64) -> Outcome {
    let typed = build::<WfQueue<Msg>>(sh, key, seconds * 0.5, Plan::Alternate);
    let replica = build::<RawQueue>(sh, key ^ 1, seconds * 0.35, Plan::Traced);
    let faa = faa_phase(sh.threads, seconds * 0.15);

    let mut all = Recorder::new();
    for w in typed.ws.iter().chain(&replica.ws) {
        all.merge(&w.rec);
    }
    for r in &faa {
        all.merge(r);
    }
    let tick_ns = wfq_obs::clock::raw_to_ns(1 << 40) as f64 / (1u64 << 40) as f64;
    // Medians net of the recorder's own cost inside every span. Self times
    // still hold what their child spans cost them (`child` each).
    let null = all.durations(Layer::Null).quantile(0.5);
    let child = all.self_times(Layer::NullParent).quantile(0.5) - null;
    let ns = |l: Layer| (all.durations(l).quantile(0.5) - null) * tick_ns;
    let glue_ns = |l: Layer| (all.self_times(l).quantile(0.5) - null) * tick_ns;

    let lead = typed.lead();
    let mut lat = Hist::default();
    let mut late = Hist::default();
    for w in &typed.ws {
        lat.merge(&w.lat);
        late.merge(&w.late);
    }
    let (s0, a0, ops0) = lead.probe.first.expect("probe sampled at the timed start");
    let (s1, a1, ops1) = lead.probe.last.expect("probe sampled");
    let d = |f: fn(&QueueStats) -> u64| (f(&s1) - f(&s0)) as f64;
    let ops = ops1 - ops0;
    let calls = d(|s| s.enqueues() + s.dequeues());
    let per_kop = |n: f64| ratio(n * 1e3, calls);
    let values_out = d(|s| s.dequeues() - s.deq_empty);
    let raw_pair = ns(Layer::RawEnq) + ns(Layer::RawDeq);
    let faa_pair = ns(Layer::FaaPair);
    let traced_mops = ops_mops(sh, &lead.traced_rates);
    let untraced_mops = ops_mops(sh, &lead.rates);
    let mut verdict = typed.verdict;
    verdict.add(&replica.verdict);

    let metrics = vec![
        ("typed.enq_ns", ns(Layer::TypedEnq), "ns"),
        ("typed.deq_ns", ns(Layer::TypedDeq), "ns"),
        (
            "alloc.calls_per_op",
            ratio((a1.calls - a0.calls) as f64, ops),
            "count",
        ),
        (
            "alloc.bytes_per_op",
            ratio((a1.bytes - a0.bytes) as f64, ops),
            "bytes",
        ),
        (
            "alloc.ns_per_op",
            (ns(Layer::AllocNew) + ns(Layer::AllocFree)) / 2.0,
            "ns",
        ),
        ("raw.enq_ns", ns(Layer::RawEnq), "ns"),
        ("raw.deq_ns", ns(Layer::RawDeq), "ns"),
        ("replica.enq_self_ns", glue_ns(Layer::ReplicaEnq), "ns"),
        ("replica.deq_self_ns", glue_ns(Layer::ReplicaDeq), "ns"),
        ("raw.gap_over_faa", ratio(raw_pair, faa_pair), "ratio"),
        (
            "raw.slow_enq_share",
            ratio(d(|s| s.enq_slow), d(QueueStats::enqueues)),
            "ratio",
        ),
        (
            "raw.slow_deq_share",
            ratio(d(|s| s.deq_slow), d(QueueStats::dequeues)),
            "ratio",
        ),
        ("raw.help_enq_per_kop", per_kop(d(|s| s.help_enq)), "1/kop"),
        ("raw.help_deq_per_kop", per_kop(d(|s| s.help_deq)), "1/kop"),
        (
            "raw.empty_deq_per_value",
            ratio(d(|s| s.deq_empty), values_out),
            "ratio",
        ),
        ("raw.stats_ns", ns(Layer::Stats), "ns"),
        ("raw.gauges_ns", ns(Layer::Gauges), "ns"),
        ("seg.alloc_per_kop", per_kop(d(|s| s.segs_alloc)), "1/kop"),
        ("seg.freed_per_kop", per_kop(d(|s| s.segs_freed)), "1/kop"),
        (
            "reclaim.cleanups_per_kop",
            per_kop(d(|s| s.cleanups)),
            "1/kop",
        ),
        ("seg.live_peak", lead.probe.live_peak as f64, "count"),
        (
            "reclaim.hazard_lag_peak",
            lead.probe.lag_peak as f64,
            "count",
        ),
        ("faa.pair_ns", faa_pair, "ns"),
        ("handoff.p99_ns", lat.quantile(0.99), "ns"),
        ("handoff.p99_samples", lat.count() as f64, "count"),
        ("handoff.gen_late_p99_ns", late.quantile(0.99), "ns"),
        ("handoff.lost", verdict.lost as f64, "count"),
        ("trace.ops_mops", traced_mops, "Mops/s"),
        ("trace.untraced_ops_mops", untraced_mops, "Mops/s"),
        (
            "trace.overhead",
            ratio(untraced_mops, traced_mops) - 1.0,
            "ratio",
        ),
        ("trace.span_ns", null * tick_ns, "ns"),
        ("trace.child_span_ns", child * tick_ns, "ns"),
    ];
    let pinned = typed
        .ws
        .iter()
        .chain(&replica.ws)
        .filter(|w| w.pinned)
        .count();
    let threads = 2 * sh.threads;
    let detail = vec![
        ("traced_windows", lead.traced_rates.len() as f64),
        ("untraced_windows", lead.rates.len() as f64),
    ];
    let mut recorders = Vec::new();
    for (phase, b) in [("typed", typed), ("replica", replica)] {
        recorders.extend(
            b.ws.into_iter()
                .map(|w| (format!("{phase}.t{}", w.tid), w.rec)),
        );
    }
    recorders.extend(
        faa.into_iter()
            .enumerate()
            .map(|(t, r)| (format!("faa.t{t}"), r)),
    );
    Outcome {
        verdict,
        metrics,
        detail,
        pinned,
        threads,
        recorders,
    }
}
