//! Double-apply tests for the help-machinery transitions (ISSUE 8).
//!
//! The recovery path leans on the paper's idempotence claim: a
//! half-finished operation can be completed by anyone, *including twice* —
//! re-running a commit that already happened must leave no second visible
//! effect. The fuzzer exercises this indirectly (racing helper and
//! requester); these tests apply each transition twice **deterministically**
//! and assert the exactly-once postconditions the recovery replay assumes:
//!
//! - `enq_commit` twice → one deposited value, `T` advanced once;
//! - `help_enq` twice on a cell routing a pending request → the request is
//!   claimed and committed once, the second call short-circuits on the
//!   already-present value;
//! - `help_deq` twice on a completed request → the second call bails on
//!   `!pending` without touching any further cell.

use core::sync::atomic::Ordering;

use crate::cell::DEQ_BOTTOM;
use crate::config::Config;
use crate::raw::{test_node, HelpEnq, RawQueue};
use crate::segment::find_cell;

const SEG: usize = 16;

#[test]
fn enq_commit_twice_has_one_visible_effect() {
    let q: RawQueue<SEG> = RawQueue::with_config(Config::default());
    let h = q.register();
    // SAFETY: the node outlives the handle; single-threaded test.
    let node = unsafe { &*test_node(&h) };
    let cid = 0u64;
    // SAFETY: node.tail is the initial segment (id 0 ≤ cid/SEG).
    let c = unsafe { &*find_cell(&node.tail, cid, &q.src(node)) };

    q.enq_commit(c, 42, cid);
    let tail_after_first = q.tail_index.load(Ordering::SeqCst);
    // The double application — a helper re-running a commit the requester
    // (or another helper) already performed.
    q.enq_commit(c, 42, cid);

    assert_eq!(c.load_val(), 42, "value deposited exactly once");
    assert_eq!(q.tail_index.load(Ordering::SeqCst), tail_after_first);
    assert_eq!(tail_after_first, cid + 1, "CAS-max advanced T once");
    drop(h);
    // The committed value is delivered exactly once through the front door.
    let mut h = q.register();
    assert_eq!(h.dequeue(), Some(42));
    assert_eq!(h.dequeue(), None);
}

#[test]
fn help_enq_twice_completes_a_pending_request_once() {
    let q: RawQueue<SEG> = RawQueue::with_config(Config::default());
    let requester = q.register(); // anchor
    let helper = q.register(); // ring successor → peers point at anchor
    // SAFETY: nodes outlive the handles; single-threaded test.
    let r_node = unsafe { &*test_node(&requester) };
    let h_node = unsafe { &*test_node(&helper) };
    assert_eq!(
        h_node.enq_peer.load(Ordering::Relaxed),
        r_node as *const _ as *mut _,
        "staging requires the helper's peer scan to start at the requester"
    );

    // Stage the requester parked mid-slow-path: request published for
    // publish id 0, no cell reserved yet.
    r_node.enq_req.publish(77, 0);
    let i = 0u64;
    // SAFETY: h_node.head is the initial segment (id 0 ≤ i/SEG).
    let c = unsafe { &*find_cell(&h_node.head, i, &q.src(h_node)) };

    // First help: marks the cell, reserves it for the peer's request,
    // claims, and commits.
    assert_eq!(q.help_enq(h_node, c, i), HelpEnq::Value(77));
    let s = r_node.enq_req.state();
    assert!(!s.pending, "request completed by the helper");
    assert_eq!(s.index, i, "claimed for the helped cell");
    assert_eq!(
        c.load_enq(),
        r_node.req_name(),
        "the cell names the requester's slot"
    );
    assert_eq!(c.load_val(), 77);
    let tail = q.tail_index.load(Ordering::SeqCst);

    // Second help of the same cell — e.g. a racing dequeuer replaying the
    // window after a crash: must short-circuit on the present value.
    assert_eq!(q.help_enq(h_node, c, i), HelpEnq::Value(77));
    assert_eq!(c.load_val(), 77, "no second deposit");
    assert_eq!(q.tail_index.load(Ordering::SeqCst), tail, "T unchanged");
    assert_eq!(r_node.enq_req.state(), s, "request state unchanged");
}

#[test]
fn help_deq_twice_consumes_one_cell_and_then_bails() {
    let q: RawQueue<SEG> = RawQueue::with_config(Config::default());
    let requester = q.register();
    let helper = q.register();
    // SAFETY: nodes outlive the handles; single-threaded test.
    let r_node = unsafe { &*test_node(&requester) };
    let h_node = unsafe { &*test_node(&helper) };

    // Two values so the candidate scan (which starts at id + 1) finds one.
    {
        let mut hh = q.register();
        hh.enqueue(11); // cell 0
        hh.enqueue(22); // cell 1
    }
    // Stage the requester parked mid-deq_slow with publish id 0.
    r_node.deq_req.publish(0);

    q.help_deq(h_node, r_node);
    let s = r_node.deq_req.state();
    assert!(!s.pending, "request completed by the helper");
    assert_eq!(s.index, 1, "candidate scan consumed cell 1 for the request");
    // SAFETY: segment 0 is live (no reclamation ran).
    let c1 = unsafe { &*find_cell(&h_node.head, 1, &q.src(h_node)) };
    assert_eq!(
        c1.load_deq(),
        r_node.req_name(),
        "cell 1 claimed for the request"
    );

    // Second application — the crash-replay double help: bails on !pending
    // without claiming anything else.
    q.help_deq(h_node, r_node);
    assert_eq!(r_node.deq_req.state(), s, "state unchanged");
    // SAFETY: as above.
    let c2 = unsafe { &*find_cell(&h_node.head, 2, &q.src(h_node)) };
    assert_eq!(c2.load_deq(), DEQ_BOTTOM, "no further cell touched");

    // The untouched value (cell 0) is still delivered exactly once.
    let mut hh = q.register();
    assert_eq!(hh.dequeue(), Some(11));
    assert_eq!(hh.dequeue(), None, "cell 1's value went to the request, not twice");
}
