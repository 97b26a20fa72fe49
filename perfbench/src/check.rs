//! Payloads and the exactly-once output check.
//!
//! Every value carries `(producer, seq)` under a seed-derived mask plus a
//! checksum. Each consumer checks what it receives as it arrives (a value
//! that fails the checksum is invented; a seq not above the consumer's
//! last one from that producer is an order inversion, or a duplicate when
//! the consumer already holds it) and marks it in a bitmap per producer.
//! After the final drain, [`verdict`] merges the bitmaps: a seq no consumer
//! holds is lost, one held twice is duplicated.

use std::alloc::{GlobalAlloc, Layout, System};

/// The 32-byte payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct Msg {
    /// `(producer << 48 | seq)` xor the seed's mask.
    pub id: u64,
    /// `[checksum of id, due time in ns (0 = not timed), 0]`.
    pub pad: [u64; 3],
}

const SEQ_BITS: u32 = 48;
/// Seqs at or above this are rejected as invented rather than marked, so a
/// garbage value cannot make the bitmap allocate without bound.
const SEQ_LIMIT: u64 = 1 << 40;

/// SplitMix64 finaliser.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The mask every id of a run is xored with.
pub fn key(seed: u64) -> u64 {
    mix(seed)
}

/// One producer's value sequence.
pub struct Source {
    key: u64,
    producer: u64,
    /// Values handed out so far; the next seq.
    pub sent: u64,
}

impl Source {
    pub fn new(key: u64, producer: usize) -> Self {
        Self {
            key,
            producer: producer as u64,
            sent: 0,
        }
    }

    #[inline]
    pub fn next(&mut self, due_ns: u64) -> Msg {
        let id = self.key ^ (self.producer << SEQ_BITS | self.sent);
        self.sent += 1;
        Msg {
            id,
            pad: [mix(id), due_ns, 0],
        }
    }
}

/// What one consumer saw.
pub struct Checker {
    key: u64,
    last: Vec<Option<u64>>,
    bits: Vec<Bits>,
    pub delivered: u64,
    pub invented: u64,
    pub duplicated: u64,
    pub inverted: u64,
}

impl Checker {
    pub fn new(key: u64, producers: usize) -> Self {
        Self {
            key,
            last: vec![None; producers],
            bits: (0..producers).map(|_| Bits::new()).collect(),
            delivered: 0,
            invented: 0,
            duplicated: 0,
            inverted: 0,
        }
    }

    /// The seq `m` claims (meaningful only if it passes `deliver`).
    pub fn seq_of(&self, m: &Msg) -> u64 {
        (m.id ^ self.key) & ((1 << SEQ_BITS) - 1)
    }

    #[inline]
    pub fn deliver(&mut self, m: &Msg) {
        self.delivered += 1;
        let raw = m.id ^ self.key;
        let (p, seq) = ((raw >> SEQ_BITS) as usize, raw & ((1 << SEQ_BITS) - 1));
        if p >= self.last.len() || m.pad[0] != mix(m.id) || seq >= SEQ_LIMIT {
            self.invented += 1;
            return;
        }
        if self.bits[p].test_and_set(seq) {
            self.duplicated += 1;
        } else if self.last[p].is_some_and(|l| seq < l) {
            self.inverted += 1;
        } else {
            self.last[p] = Some(seq);
        }
    }
}

/// The outcome of the check over one queue's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub sent: u64,
    pub delivered: u64,
    pub lost: u64,
    pub duplicated: u64,
    pub invented: u64,
    pub inverted: u64,
}

impl Verdict {
    /// No value was duplicated, invented or delivered out of order.
    pub fn correct(&self) -> bool {
        self.duplicated + self.invented + self.inverted == 0
    }

    /// Every value lost or convicted counts as one failed operation.
    pub fn failed(&self) -> u64 {
        self.lost + self.duplicated + self.invented + self.inverted
    }

    pub fn add(&mut self, o: &Verdict) {
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.lost += o.lost;
        self.duplicated += o.duplicated;
        self.invented += o.invented;
        self.inverted += o.inverted;
    }
}

/// Merges the consumers' records against how many values each producer
/// sent (`sent[p]`).
pub fn verdict<'a>(
    sent: &[u64],
    consumers: impl IntoIterator<Item = &'a Checker> + Clone,
) -> Verdict {
    let mut v = Verdict {
        sent: sent.iter().sum(),
        ..Verdict::default()
    };
    for c in consumers.clone() {
        v.delivered += c.delivered;
        v.invented += c.invented;
        v.duplicated += c.duplicated;
        v.inverted += c.inverted;
    }
    for (p, &n) in sent.iter().enumerate() {
        let words = consumers
            .clone()
            .into_iter()
            .map(|c| c.bits[p].words())
            .max()
            .unwrap_or(0)
            .max(n.div_ceil(64));
        for w in 0..words {
            let (mut any, mut ones) = (0u64, 0u32);
            for c in consumers.clone() {
                let x = c.bits[p].word(w);
                any |= x;
                ones += x.count_ones();
            }
            v.duplicated += u64::from(ones - any.count_ones());
            let lo = w * 64;
            let in_range = if lo + 64 <= n {
                u64::MAX
            } else if lo >= n {
                0
            } else {
                (1u64 << (n - lo)) - 1
            };
            v.lost += u64::from((!any & in_range).count_ones());
            v.invented += u64::from((any & !in_range).count_ones());
        }
    }
    v
}

/// A growable bitmap in 1 MiB chunks taken straight from the system
/// allocator, so the check's own memory stays out of the counting
/// allocator's `mem_peak_bytes`.
struct Bits {
    chunks: Vec<*mut u64>,
}

const CHUNK_WORDS: usize = 1 << 17;

fn chunk_layout() -> Layout {
    Layout::array::<u64>(CHUNK_WORDS).expect("a 1 MiB layout")
}

// SAFETY: the chunks are owned exclusively by this bitmap; moving it to
// another thread moves that ownership.
unsafe impl Send for Bits {}

impl Bits {
    fn new() -> Self {
        // Room for 2^33 seqs before the pointer list itself has to grow.
        Self {
            chunks: Vec::with_capacity(1024),
        }
    }

    /// Sets bit `i`; returns whether it was already set.
    #[inline]
    fn test_and_set(&mut self, i: u64) -> bool {
        let w = (i / 64) as usize;
        let c = w / CHUNK_WORDS;
        while self.chunks.len() <= c {
            // SAFETY: the layout has non-zero size.
            let p = unsafe { System.alloc_zeroed(chunk_layout()) } as *mut u64;
            assert!(!p.is_null(), "out of memory for the output check");
            self.chunks.push(p);
        }
        // SAFETY: chunk `c` exists and holds CHUNK_WORDS words.
        let word = unsafe { &mut *self.chunks[c].add(w % CHUNK_WORDS) };
        let bit = 1u64 << (i % 64);
        let was = *word & bit != 0;
        *word |= bit;
        was
    }

    fn words(&self) -> u64 {
        (self.chunks.len() * CHUNK_WORDS) as u64
    }

    fn word(&self, w: u64) -> u64 {
        let (c, o) = ((w as usize) / CHUNK_WORDS, (w as usize) % CHUNK_WORDS);
        match self.chunks.get(c) {
            // SAFETY: chunk `c` exists and `o < CHUNK_WORDS`.
            Some(&p) => unsafe { *p.add(o) },
            None => 0,
        }
    }
}

impl Drop for Bits {
    fn drop(&mut self) {
        for &p in &self.chunks {
            // SAFETY: allocated in `test_and_set` with this layout.
            unsafe { System.dealloc(p as *mut u8, chunk_layout()) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Recorder;
    use crate::workload::{pairs, Endpoint, Worker};
    use std::collections::VecDeque;

    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        None,
        Drop,
        Duplicate,
        Reorder,
    }

    /// A queue that misbehaves once, at the 50th enqueue.
    struct FakeQueue {
        q: VecDeque<Msg>,
        fault: Fault,
        held: Option<Msg>,
        enqueued: u64,
    }

    impl Endpoint for FakeQueue {
        fn send<const T: bool>(&mut self, m: Msg, _: &mut Recorder) {
            self.enqueued += 1;
            match (self.fault, self.enqueued) {
                (Fault::Drop, 50) => {}
                (Fault::Duplicate, 50) => {
                    self.q.push_back(m);
                    self.q.push_back(m);
                }
                (Fault::Reorder, 50) => self.held = Some(m),
                (Fault::Reorder, 51) => {
                    self.q.push_back(m);
                    self.q.extend(self.held.take());
                }
                _ => self.q.push_back(m),
            }
        }

        fn recv<const T: bool>(&mut self, _: &mut Recorder) -> Option<Msg> {
            self.q.pop_front()
        }
    }

    fn run(fault: Fault) -> Verdict {
        let key = key(7);
        let mut q = FakeQueue {
            q: VecDeque::new(),
            fault,
            held: None,
            enqueued: 0,
        };
        let mut w = Worker::new(0, key, 1, false);
        for _ in 0..4 {
            q.send::<false>(w.src.next(0), &mut w.rec);
        }
        pairs::<_, false>(&mut q, 100, &mut w);
        let mut drain = Checker::new(key, 1);
        while let Some(m) = q.recv::<false>(&mut w.rec) {
            drain.deliver(&m);
        }
        verdict(&[w.src.sent], [&w.chk, &drain])
    }

    #[test]
    fn a_faithful_queue_passes() {
        let v = run(Fault::None);
        assert_eq!(
            v,
            Verdict {
                sent: 104,
                delivered: 104,
                ..Verdict::default()
            }
        );
        assert!(v.correct());
    }

    #[test]
    fn a_dropped_value_is_a_failed_operation() {
        let v = run(Fault::Drop);
        assert_eq!((v.lost, v.failed()), (1, 1));
        assert!(v.correct(), "a loss alone is counted, not a wrong output");
    }

    #[test]
    fn a_duplicated_value_fails_the_run() {
        let v = run(Fault::Duplicate);
        assert_eq!((v.duplicated, v.lost), (1, 0));
        assert!(!v.correct());
    }

    #[test]
    fn a_reordered_value_fails_the_run() {
        let v = run(Fault::Reorder);
        assert_eq!((v.inverted, v.lost, v.duplicated), (1, 0, 0));
        assert!(!v.correct());
    }

    #[test]
    fn duplicates_across_consumers_and_invented_values_are_caught() {
        let key = key(1);
        let mut src = Source::new(key, 0);
        let (a, b) = (src.next(0), src.next(0));
        let (mut c0, mut c1) = (Checker::new(key, 1), Checker::new(key, 1));
        c0.deliver(&a);
        c1.deliver(&a);
        c1.deliver(&b);
        let mut forged = b;
        forged.id ^= 1 << 20;
        c1.deliver(&forged);
        let beyond = Source {
            key,
            producer: 0,
            sent: 5,
        }
        .next(0);
        c1.deliver(&beyond);
        let v = verdict(&[2], [&c0, &c1]);
        assert_eq!((v.duplicated, v.invented, v.lost), (1, 2, 0));
    }
}
