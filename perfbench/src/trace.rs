//! The traced run's span recorder.
//!
//! Spans are taken in the benchmark's own code around each call into a
//! layer. A span's duration goes into its layer's histogram at once, and so
//! does its self time: the duration minus the durations of the child spans
//! it covered. The first spans of every layer are also kept verbatim, with
//! their parent, and written out at exit. All storage is allocated up
//! front, so recording never allocates. With `T = false` every call
//! compiles to nothing; the untraced run uses that.

use std::io::Write;

use wfq_obs::clock;

use crate::stats::Hist;

/// The layer boundaries the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `LocalHandle::enqueue` (`wfqueue::typed`).
    TypedEnq,
    /// `LocalHandle::dequeue`.
    TypedDeq,
    /// The decomposed replica of `LocalHandle::enqueue`.
    ReplicaEnq,
    /// The decomposed replica of `LocalHandle::dequeue`.
    ReplicaDeq,
    /// `Box::new` of a payload (the global allocator).
    AllocNew,
    /// Moving a payload out of its box, which frees it.
    AllocFree,
    /// `Handle::enqueue` on `RawQueue` (`wfqueue::raw`).
    RawEnq,
    /// `Handle::dequeue` on `RawQueue`.
    RawDeq,
    /// `RawQueue::stats` (through `WfQueue::stats`).
    Stats,
    /// `RawQueue::gauges` (through `WfQueue::gauges`).
    Gauges,
    /// One `FaaBench` enqueue + dequeue pair.
    FaaPair,
    /// An empty span: the recorder's own cost.
    Null,
    /// A span around one empty span: what a child span costs its parent.
    NullParent,
}

pub const LAYERS: usize = 13;

impl Layer {
    pub fn name(self) -> &'static str {
        [
            "typed.enq",
            "typed.deq",
            "replica.enq",
            "replica.deq",
            "alloc.new",
            "alloc.free",
            "raw.enq",
            "raw.deq",
            "raw.stats",
            "raw.gauges",
            "faa.pair",
            "null",
            "null.parent",
        ][self as usize]
    }
}

#[derive(Clone, Copy)]
struct Frame {
    layer: Layer,
    start: u64,
    child: u64,
    id: u64,
}

/// One kept span, in raw clock ticks.
#[derive(Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    layer: Layer,
    start: u64,
    dur: u64,
}

const DEPTH: usize = 4;
const IDLE: Frame = Frame {
    layer: Layer::Null,
    start: 0,
    child: 0,
    id: 0,
};
/// Spans kept verbatim per layer.
const KEEP: usize = 4096;

/// A per-thread recorder.
pub struct Recorder {
    stack: [Frame; DEPTH],
    depth: usize,
    next_id: u64,
    dur: Vec<Hist>,
    self_time: Vec<Hist>,
    kept: Vec<Vec<Span>>,
}

impl Recorder {
    /// A recorder with its storage allocated.
    pub fn new() -> Self {
        Self {
            stack: [IDLE; DEPTH],
            depth: 0,
            next_id: 1,
            dur: vec![Hist::default(); LAYERS],
            self_time: vec![Hist::default(); LAYERS],
            kept: (0..LAYERS).map(|_| Vec::with_capacity(KEEP)).collect(),
        }
    }

    /// A recorder for untraced code, which never touches it.
    pub fn off() -> Self {
        Self {
            stack: [IDLE; DEPTH],
            depth: 0,
            next_id: 1,
            dur: vec![],
            self_time: vec![],
            kept: vec![],
        }
    }

    #[inline(always)]
    pub fn begin<const T: bool>(&mut self, layer: Layer) {
        if T {
            let f = &mut self.stack[self.depth];
            f.layer = layer;
            f.child = 0;
            f.id = self.next_id;
            self.next_id += 1;
            self.depth += 1;
            f.start = clock::raw_now();
        }
    }

    #[inline(always)]
    pub fn end<const T: bool>(&mut self) {
        if T {
            let now = clock::raw_now();
            self.depth -= 1;
            let f = self.stack[self.depth];
            let dur = now.saturating_sub(f.start);
            let parent = if self.depth > 0 {
                let p = &mut self.stack[self.depth - 1];
                p.child += dur;
                p.id
            } else {
                0
            };
            let l = f.layer as usize;
            self.dur[l].record(dur);
            self.self_time[l].record(dur.saturating_sub(f.child));
            if self.kept[l].len() < KEEP {
                self.kept[l].push(Span {
                    id: f.id,
                    parent,
                    layer: f.layer,
                    start: f.start,
                    dur,
                });
            }
        }
    }

    /// Times `n` empty spans, each inside a parent span: `Null` is what a
    /// span adds to the interval it reports, and `NullParent`'s self time
    /// minus that is what a child span adds to its parent's self time.
    pub fn calibrate(&mut self, n: u32) {
        for _ in 0..n {
            self.begin::<true>(Layer::NullParent);
            self.begin::<true>(Layer::Null);
            self.end::<true>();
            self.end::<true>();
        }
    }

    pub fn merge(&mut self, o: &Recorder) {
        for l in 0..LAYERS.min(o.dur.len()) {
            self.dur[l].merge(&o.dur[l]);
            self.self_time[l].merge(&o.self_time[l]);
        }
    }

    /// Duration histogram of `l`, in raw ticks.
    pub fn durations(&self, l: Layer) -> &Hist {
        &self.dur[l as usize]
    }

    /// Self-time histogram of `l`, in raw ticks.
    pub fn self_times(&self, l: Layer) -> &Hist {
        &self.self_time[l as usize]
    }

    /// Writes the kept spans as tab-separated lines:
    /// `thread id parent layer start_ns dur_ns`.
    pub fn write_kept(&self, thread: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.kept.iter().flatten() {
            writeln!(
                out,
                "{thread}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.layer.name(),
                clock::raw_to_ns(s.start),
                clock::raw_to_ns(s.dur)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ticks: u64) {
        let t = clock::raw_now();
        while clock::raw_now() - t < ticks {}
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut r = Recorder::new();
        r.begin::<true>(Layer::ReplicaEnq);
        spin(20_000);
        r.begin::<true>(Layer::AllocNew);
        spin(50_000);
        r.end::<true>();
        r.begin::<true>(Layer::RawEnq);
        spin(50_000);
        r.end::<true>();
        r.end::<true>();
        let total = r.durations(Layer::ReplicaEnq).quantile(0.5);
        let own = r.self_times(Layer::ReplicaEnq).quantile(0.5);
        let kids =
            r.durations(Layer::AllocNew).quantile(0.5) + r.durations(Layer::RawEnq).quantile(0.5);
        assert!(total >= 120_000.0 * 0.99);
        assert!(
            (own - (total - kids)).abs() < total * 0.03,
            "{own} vs {total} - {kids}"
        );
        let parent_id = r.kept[Layer::ReplicaEnq as usize][0].id;
        assert_eq!(r.kept[Layer::AllocNew as usize][0].parent, parent_id);
        assert_eq!(r.kept[Layer::RawEnq as usize][0].parent, parent_id);
        assert_eq!(r.kept[Layer::ReplicaEnq as usize][0].parent, 0);
    }

    #[test]
    fn untraced_spans_record_nothing() {
        let mut r = Recorder::new();
        r.begin::<false>(Layer::TypedEnq);
        r.end::<false>();
        assert_eq!(r.durations(Layer::TypedEnq).count(), 0);
        let mut off = Recorder::off();
        off.begin::<false>(Layer::TypedEnq);
        off.end::<false>();
    }
}
