//! The raw queue's fast path, compiled as two standalone functions so its
//! machine code can be checked.
//!
//! `probe_enqueue` and `probe_dequeue` are one `Handle::enqueue` and one
//! `Handle::dequeue` with nothing around them. `check_fast_path.py`
//! disassembles both and asserts that each issues exactly one `lock xadd`
//! (the FAA) and one `lock cmpxchg` (the deposit or the claim), and calls
//! nothing but the out-of-line remainders, `help_deq_pending` and the
//! reserved-value panic:
//!
//! ```text
//! cargo build --release -p wfq-examples --bin fast_path_probe
//! python3 examples/check_fast_path.py target/release/fast_path_probe
//! ```
//!
//! Run, the binary makes a few round trips through both probes.

use wfqueue::{Handle, RawQueue};

/// One enqueue through the raw handle.
#[no_mangle]
#[inline(never)]
pub fn probe_enqueue(h: &mut Handle<'_>, v: u64) {
    h.enqueue(v);
}

/// One dequeue through the raw handle.
#[no_mangle]
#[inline(never)]
pub fn probe_dequeue(h: &mut Handle<'_>) -> Option<u64> {
    h.dequeue()
}

fn main() {
    let q: RawQueue = RawQueue::new();
    let mut h = q.register();
    let mut sum = 0;
    for v in 1..=3_000u64 {
        probe_enqueue(&mut h, v);
        sum += probe_dequeue(&mut h).expect("a value was just enqueued");
    }
    assert_eq!(probe_dequeue(&mut h), None);
    println!("3000 round trips through the probes, sum {sum}");
}
