//! The durable image: persist stores, crash snapshots, and recovery
//! (DESIGN.md §12, feature `durable`).
//!
//! The persistent image is a flat array of 64-bit words — a header, one
//! record per slow-path request slot, and one record per cell:
//!
//! ```text
//! [0] magic  [1] version  [2] cells  [3] slots  [4] generation
//! [5] tail high-water  [6] head high-water  [7] retired-below
//! then `slots` request records:  (state, value, index)
//! then `cells` cell records:     (state, value)
//! ```
//!
//! Cell states form a monotone lattice `EMPTY < DEPOSITED < CONSUMED <
//! SEALED` advanced with `fetch_max`, so racing persists (a helper and a
//! requester mirroring the same commit, a consume landing before its
//! deposit's persist) are idempotent and can never move a cell backward.
//! Within a record the *state* word is written last with release ordering
//! and read first with acquire ordering, so a snapshot that observes a
//! state also observes the value/index written before it — a mid-crash
//! snapshot can contain *missing* records, never *torn* ones.
//!
//! Recovery ([`RawQueue::recover`]) is the detectable-recovery argument of
//! the memento/wCQ line of work specialized to this queue: the image alone
//! decides each pre-crash enqueue's fate. A persisted `CONSUMED` record is
//! a delivery that already happened; a persisted `DEPOSITED` record is an
//! undelivered value that must survive; a `CLAIMED` request record whose
//! cell is still `EMPTY` is the claimed-but-uncommitted window of the help
//! protocol and is re-completed from the request record (the paper's
//! idempotent help machinery is what makes the re-completion safe to run
//! against a half-finished image); anything else — a published-but-
//! unclaimed request, a value whose deposit never persisted — is provably
//! rejected: no durable trace, no delivery.

use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::config::Config;
use crate::persist::PersistSink;
use crate::raw::RawQueue;

/// `b"WFQDURA1"` as a little-endian word.
const MAGIC: u64 = u64::from_le_bytes(*b"WFQDURA1");
/// Image format version; bump on any layout change.
const VERSION: u64 = 1;

const HDR_WORDS: u64 = 8;
const W_MAGIC: u64 = 0;
const W_VERSION: u64 = 1;
const W_CELLS: u64 = 2;
const W_SLOTS: u64 = 3;
const W_GENERATION: u64 = 4;
const W_TAIL_HWM: u64 = 5;
const W_HEAD_HWM: u64 = 6;
const W_RETIRED: u64 = 7;

const REQ_WORDS: u64 = 3;
const CELL_WORDS: u64 = 2;

/// Request-record states.
const REQ_IDLE: u64 = 0;
const REQ_PUBLISHED: u64 = 1;
const REQ_CLAIMED: u64 = 2;

/// Durable state of one cell in the image's monotone lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u64)]
pub enum CellState {
    /// No durable trace: never deposited, or the deposit persist was cut.
    Empty = 0,
    /// A value is durably present and undelivered.
    Deposited = 1,
    /// The value was durably delivered to a dequeuer.
    Consumed = 2,
    /// Recovery sealed this cell: it was torn (below the tail high-water
    /// mark with no durable deposit) and can never deliver a value.
    Sealed = 3,
}

impl CellState {
    fn from_word(w: u64) -> CellState {
        match w {
            1 => CellState::Deposited,
            2 => CellState::Consumed,
            3 => CellState::Sealed,
            _ => CellState::Empty,
        }
    }
}

fn image_words(cells: u64, slots: u64) -> u64 {
    HDR_WORDS + slots * REQ_WORDS + cells * CELL_WORDS
}

/// The shared record logic over any word array (mmap'd or heap).
struct Records<'a> {
    words: &'a [AtomicU64],
    cells: u64,
    slots: u64,
}

impl Records<'_> {
    #[inline]
    fn word(&self, i: u64) -> &AtomicU64 {
        &self.words[i as usize]
    }

    #[inline]
    fn req(&self, slot: u64) -> (&AtomicU64, &AtomicU64, &AtomicU64) {
        assert!(
            slot < self.slots,
            "persist store: request slot {slot} exceeds capacity {} \
             (create the store with at least as many slots as handles ever registered)",
            self.slots
        );
        let base = HDR_WORDS + slot * REQ_WORDS;
        (self.word(base), self.word(base + 1), self.word(base + 2))
    }

    #[inline]
    fn cell(&self, cell: u64) -> (&AtomicU64, &AtomicU64) {
        assert!(
            cell < self.cells,
            "persist store: cell index {cell} exceeds capacity {} \
             (create the store with headroom for burned cells, not just values)",
            self.cells
        );
        let base = HDR_WORDS + self.slots * REQ_WORDS + cell * CELL_WORDS;
        (self.word(base), self.word(base + 1))
    }

    fn init_header(&self, cells: u64, slots: u64) {
        self.word(W_CELLS).store(cells, Ordering::Relaxed);
        self.word(W_SLOTS).store(slots, Ordering::Relaxed);
        self.word(W_VERSION).store(VERSION, Ordering::Relaxed);
        // Magic last, release: an opener that sees it sees the geometry.
        self.word(W_MAGIC).store(MAGIC, Ordering::Release);
    }

    fn deposit(&self, cell: u64, value: u64) {
        let (state, val) = self.cell(cell);
        val.store(value, Ordering::Relaxed);
        // Release on the state advance: a snapshot reading the state with
        // acquire is guaranteed the value store above. fetch_max keeps a
        // racing consume (CONSUMED = 2) from being demoted.
        state.fetch_max(CellState::Deposited as u64, Ordering::AcqRel);
    }

    fn consume(&self, cell: u64, value: u64) {
        let (state, val) = self.cell(cell);
        val.store(value, Ordering::Relaxed);
        state.fetch_max(CellState::Consumed as u64, Ordering::AcqRel);
    }

    fn advance_tail(&self, to: u64) {
        self.word(W_TAIL_HWM).fetch_max(to, Ordering::AcqRel);
    }

    fn advance_head(&self, to: u64) {
        self.word(W_HEAD_HWM).fetch_max(to, Ordering::AcqRel);
    }

    fn enq_publish(&self, slot: u64, value: u64) {
        let (state, val, index) = self.req(slot);
        index.store(0, Ordering::Relaxed);
        val.store(value, Ordering::Relaxed);
        state.store(REQ_PUBLISHED, Ordering::Release);
    }

    fn enq_claim(&self, slot: u64, value: u64, cell: u64) {
        let (state, val, index) = self.req(slot);
        index.store(cell, Ordering::Relaxed);
        val.store(value, Ordering::Relaxed);
        state.store(REQ_CLAIMED, Ordering::Release);
    }

    fn retire_below(&self, cell: u64) {
        self.word(W_RETIRED).fetch_max(cell, Ordering::AcqRel);
    }

    /// Copies the live words into an owned [`StoreImage`] — the crash
    /// snapshot. Runs on the crashing thread inside the crash observer;
    /// concurrent writers may race the copy, which yields missing (never
    /// torn) records: each record's state word is read *first* with
    /// acquire, so an observed state implies its value/index.
    fn snapshot(&self) -> StoreImage {
        let n = self.words.len();
        let mut words = vec![0u64; n];
        for (hdr, w) in words.iter_mut().enumerate().take(HDR_WORDS as usize) {
            *w = self.word(hdr as u64).load(Ordering::Acquire);
        }
        for slot in 0..self.slots {
            let (state, val, index) = self.req(slot);
            let base = (HDR_WORDS + slot * REQ_WORDS) as usize;
            words[base] = state.load(Ordering::Acquire);
            words[base + 1] = val.load(Ordering::Relaxed);
            words[base + 2] = index.load(Ordering::Relaxed);
        }
        for cell in 0..self.cells {
            let (state, val) = self.cell(cell);
            let base = (HDR_WORDS + self.slots * REQ_WORDS + cell * CELL_WORDS) as usize;
            words[base] = state.load(Ordering::Acquire);
            words[base + 1] = val.load(Ordering::Relaxed);
        }
        StoreImage { words }
    }

    /// Zeroes every record and high-water mark and bumps the generation.
    /// Single-threaded by contract: runs between a crash (or clean stop)
    /// and the replay of survivors, never under concurrent traffic.
    fn begin_generation(&self) -> u64 {
        let gen = self.word(W_GENERATION).fetch_add(1, Ordering::AcqRel) + 1;
        self.word(W_TAIL_HWM).store(0, Ordering::Relaxed);
        self.word(W_HEAD_HWM).store(0, Ordering::Relaxed);
        self.word(W_RETIRED).store(0, Ordering::Relaxed);
        for w in &self.words[HDR_WORDS as usize..] {
            w.store(0, Ordering::Relaxed);
        }
        gen
    }
}

// ---------------------------------------------------------------------
// MemStore: the record layout over anonymous memory (tests, snapshots).
// ---------------------------------------------------------------------

/// A [`PersistSink`] over anonymous memory: the exact record layout of
/// [`HeapFileStore`] without a backing file. The crash-matrix tests use it
/// because a simulated crash only needs the *image semantics* — the words
/// survive in-process — while the heap-file store is for demonstrating
/// recovery across a real process kill.
pub struct MemStore {
    words: Box<[AtomicU64]>,
    cells: u64,
    slots: u64,
}

impl MemStore {
    /// Creates a zeroed store with capacity for `cells` cell records and
    /// `slots` request records. `cells` bounds the *index space* (burned
    /// and probed cells included), not the number of live values.
    pub fn new(cells: u64, slots: u64) -> MemStore {
        let n = image_words(cells, slots) as usize;
        let words: Box<[AtomicU64]> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let s = MemStore {
            words,
            cells,
            slots,
        };
        s.records().init_header(cells, slots);
        s
    }

    fn records(&self) -> Records<'_> {
        Records {
            words: &self.words,
            cells: self.cells,
            slots: self.slots,
        }
    }

    /// An owned copy of the image at this instant (the crash snapshot).
    pub fn snapshot(&self) -> StoreImage {
        self.records().snapshot()
    }

    /// Clears every record for a new generation (post-recovery replay).
    pub fn begin_generation(&self) -> u64 {
        self.records().begin_generation()
    }
}

impl PersistSink for MemStore {
    fn deposit(&self, cell: u64, value: u64) {
        self.records().deposit(cell, value);
    }
    fn consume(&self, cell: u64, value: u64) {
        self.records().consume(cell, value);
    }
    fn advance_tail(&self, to: u64) {
        self.records().advance_tail(to);
    }
    fn advance_head(&self, to: u64) {
        self.records().advance_head(to);
    }
    fn enq_publish(&self, slot: u64, value: u64) {
        self.records().enq_publish(slot, value);
    }
    fn enq_claim(&self, slot: u64, value: u64, cell: u64) {
        self.records().enq_claim(slot, value, cell);
    }
    fn retire_below(&self, cell: u64) {
        self.records().retire_below(cell);
    }
    fn flush(&self) {}
}

// ---------------------------------------------------------------------
// HeapFileStore: the same layout over an mmap'd file (PM emulation).
// ---------------------------------------------------------------------

#[cfg(unix)]
mod mm {
    //! Minimal mmap FFI (the workspace links no external crates; these are
    //! the three libc symbols the store needs, declared directly).
    #![allow(non_camel_case_types)]

    pub const PROT_READ: i32 = 0x1;
    pub const PROT_WRITE: i32 = 0x2;
    pub const MAP_SHARED: i32 = 0x01;
    pub const MS_SYNC: i32 = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
        pub fn msync(addr: *mut u8, len: usize, flags: i32) -> i32;
    }
}

/// A [`PersistSink`] backed by an mmap'd heap file — persistent-memory
/// emulation on DRAM + disk, as ROADMAP item 5 calls for. The record
/// layout is the module's flat word image, accessed through `&AtomicU64`
/// views of the mapping, so the same `fetch_max` idempotence discipline
/// applies; [`PersistSink::flush`] issues `msync(MS_SYNC)`.
///
/// The file outlives the process: [`HeapFileStore::open`] on the same
/// path after a kill recovers the image (see `examples/crash_recovery.rs`
/// for the kill-and-recover demonstration).
#[cfg(unix)]
pub struct HeapFileStore {
    ptr: *mut AtomicU64,
    len_bytes: usize,
    cells: u64,
    slots: u64,
    _file: std::fs::File,
}

// SAFETY: the mapping is plain shared memory accessed exclusively through
// atomics; the raw pointer is never aliased mutably.
#[cfg(unix)]
unsafe impl Send for HeapFileStore {}
#[cfg(unix)]
unsafe impl Sync for HeapFileStore {}

#[cfg(unix)]
impl HeapFileStore {
    /// Creates (or truncates) the heap file at `path` sized for `cells`
    /// cell records and `slots` request records, and maps it shared.
    pub fn create(path: &std::path::Path, cells: u64, slots: u64) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let len_bytes = (image_words(cells, slots) as usize) * 8;
        file.set_len(len_bytes as u64)?;
        let s = Self::map(file, len_bytes, cells, slots)?;
        s.records().init_header(cells, slots);
        s.flush();
        Ok(s)
    }

    /// Maps an existing heap file, validating its magic, version, and
    /// size. This is the recovery entry point after a crash or kill.
    pub fn open(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
        let len_bytes = file.metadata()?.len() as usize;
        if len_bytes < (HDR_WORDS as usize) * 8 || len_bytes % 8 != 0 {
            return Err(bad_image(format!("heap file too short: {len_bytes} bytes")));
        }
        // Map first, then read the header through the mapping.
        let probe = Self::map(file, len_bytes, 0, 0)?;
        let magic = probe.word_at(W_MAGIC);
        if magic != MAGIC {
            return Err(bad_image(format!("bad magic {magic:#x}")));
        }
        let version = probe.word_at(W_VERSION);
        if version != VERSION {
            return Err(bad_image(format!("unsupported image version {version}")));
        }
        let cells = probe.word_at(W_CELLS);
        let slots = probe.word_at(W_SLOTS);
        if image_words(cells, slots) as usize * 8 != len_bytes {
            return Err(bad_image(format!(
                "geometry mismatch: header says {cells} cells / {slots} slots, file is {len_bytes} bytes"
            )));
        }
        let mut s = probe;
        s.cells = cells;
        s.slots = slots;
        Ok(s)
    }

    fn map(file: std::fs::File, len_bytes: usize, cells: u64, slots: u64) -> std::io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: a fresh shared file mapping of a file we hold open; the
        // kernel keeps the mapping valid for the store's lifetime.
        let ptr = unsafe {
            mm::mmap(
                core::ptr::null_mut(),
                len_bytes,
                mm::PROT_READ | mm::PROT_WRITE,
                mm::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(HeapFileStore {
            ptr: ptr.cast::<AtomicU64>(),
            len_bytes,
            cells,
            slots,
            _file: file,
        })
    }

    #[inline]
    fn word_at(&self, i: u64) -> u64 {
        self.words()[i as usize].load(Ordering::Acquire)
    }

    fn words(&self) -> &[AtomicU64] {
        // SAFETY: the mapping is len_bytes of zero-initialized (or
        // previously written) page-aligned memory, valid for the store's
        // lifetime; AtomicU64 has no invalid bit patterns.
        unsafe { core::slice::from_raw_parts(self.ptr, self.len_bytes / 8) }
    }

    fn records(&self) -> Records<'_> {
        Records {
            words: self.words(),
            cells: self.cells,
            slots: self.slots,
        }
    }

    /// An owned copy of the image at this instant.
    pub fn snapshot(&self) -> StoreImage {
        self.records().snapshot()
    }

    /// Clears every record for a new generation (post-recovery replay).
    pub fn begin_generation(&self) -> u64 {
        let gen = self.records().begin_generation();
        self.flush();
        gen
    }
}

#[cfg(unix)]
impl PersistSink for HeapFileStore {
    fn deposit(&self, cell: u64, value: u64) {
        self.records().deposit(cell, value);
    }
    fn consume(&self, cell: u64, value: u64) {
        self.records().consume(cell, value);
    }
    fn advance_tail(&self, to: u64) {
        self.records().advance_tail(to);
    }
    fn advance_head(&self, to: u64) {
        self.records().advance_head(to);
    }
    fn enq_publish(&self, slot: u64, value: u64) {
        self.records().enq_publish(slot, value);
    }
    fn enq_claim(&self, slot: u64, value: u64, cell: u64) {
        self.records().enq_claim(slot, value, cell);
    }
    fn retire_below(&self, cell: u64) {
        self.records().retire_below(cell);
    }
    fn flush(&self) {
        // SAFETY: flushing the exact mapping created in `map`.
        let rc = unsafe { mm::msync(self.ptr.cast::<u8>(), self.len_bytes, mm::MS_SYNC) };
        debug_assert_eq!(rc, 0, "msync failed: {}", std::io::Error::last_os_error());
    }
}

#[cfg(unix)]
impl Drop for HeapFileStore {
    fn drop(&mut self) {
        // SAFETY: unmapping the exact mapping created in `map`.
        unsafe { mm::munmap(self.ptr.cast::<u8>(), self.len_bytes) };
    }
}

fn bad_image(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------
// StoreImage: an owned snapshot, and what recovery reads from it.
// ---------------------------------------------------------------------

/// An owned copy of a persist store's word image — what a crash snapshot
/// captures and what recovery replays. Obtained from
/// [`MemStore::snapshot`] / [`HeapFileStore::snapshot`].
#[derive(Debug, Clone)]
pub struct StoreImage {
    words: Vec<u64>,
}

/// One claimed-but-possibly-uncommitted request record from an image scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClaimRecord {
    /// The request slot (one per handle node).
    pub slot: u64,
    /// The value the request was enqueueing.
    pub value: u64,
    /// The cell the claim named.
    pub cell: u64,
}

/// Everything recovery (and the recovery checker) reads from an image.
#[derive(Debug, Clone, Default)]
pub struct DurableScan {
    /// Persisted tail high-water mark (`T` reached at least this).
    pub tail_hwm: u64,
    /// Persisted head high-water mark.
    pub head_hwm: u64,
    /// Image generation (0 for a store never recovered).
    pub generation: u64,
    /// `(cell, value)` with a durable deposit and no durable consume —
    /// undelivered survivors, in cell order.
    pub deposited: Vec<(u64, u64)>,
    /// `(cell, value)` durably consumed — deliveries that already
    /// happened, in cell order.
    pub consumed: Vec<(u64, u64)>,
    /// Claimed request records, in slot order.
    pub claimed: Vec<ClaimRecord>,
    /// `(slot, value)` of published-but-unclaimed request records.
    pub published: Vec<(u64, u64)>,
    /// Cells recovery marked torn (scan of a *recovered* image only).
    pub sealed: Vec<u64>,
}

/// Image validation failure (recovery refuses to guess).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverError(pub String);

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unrecoverable durable image: {}", self.0)
    }
}

impl std::error::Error for RecoverError {}

impl StoreImage {
    fn word(&self, i: u64) -> u64 {
        self.words[i as usize]
    }

    /// Validates magic/version/geometry.
    pub fn validate(&self) -> Result<(), RecoverError> {
        if self.words.len() < HDR_WORDS as usize {
            return Err(RecoverError(format!(
                "image truncated: {} words",
                self.words.len()
            )));
        }
        if self.word(W_MAGIC) != MAGIC {
            return Err(RecoverError(format!("bad magic {:#x}", self.word(W_MAGIC))));
        }
        if self.word(W_VERSION) != VERSION {
            return Err(RecoverError(format!(
                "unsupported version {}",
                self.word(W_VERSION)
            )));
        }
        let (cells, slots) = (self.word(W_CELLS), self.word(W_SLOTS));
        if image_words(cells, slots) as usize != self.words.len() {
            return Err(RecoverError(format!(
                "geometry mismatch: {cells} cells / {slots} slots vs {} words",
                self.words.len()
            )));
        }
        Ok(())
    }

    /// Scans every record into a [`DurableScan`].
    pub fn scan(&self) -> Result<DurableScan, RecoverError> {
        self.validate()?;
        let (cells, slots) = (self.word(W_CELLS), self.word(W_SLOTS));
        let mut scan = DurableScan {
            tail_hwm: self.word(W_TAIL_HWM),
            head_hwm: self.word(W_HEAD_HWM),
            generation: self.word(W_GENERATION),
            ..DurableScan::default()
        };
        for slot in 0..slots {
            let base = HDR_WORDS + slot * REQ_WORDS;
            let (state, value, index) =
                (self.word(base), self.word(base + 1), self.word(base + 2));
            match state {
                REQ_PUBLISHED => scan.published.push((slot, value)),
                REQ_CLAIMED => scan.claimed.push(ClaimRecord {
                    slot,
                    value,
                    cell: index,
                }),
                _ => {}
            }
        }
        for cell in 0..cells {
            let base = HDR_WORDS + slots * REQ_WORDS + cell * CELL_WORDS;
            let (state, value) = (self.word(base), self.word(base + 1));
            match CellState::from_word(state) {
                CellState::Deposited => scan.deposited.push((cell, value)),
                CellState::Consumed => scan.consumed.push((cell, value)),
                CellState::Sealed => scan.sealed.push(cell),
                CellState::Empty => {}
            }
        }
        let _ = REQ_IDLE;
        Ok(scan)
    }

    /// Durable state of one cell (recovery-checker convenience).
    pub fn cell_state(&self, cell: u64) -> CellState {
        let slots = self.word(W_SLOTS);
        let base = HDR_WORDS + slots * REQ_WORDS + cell * CELL_WORDS;
        CellState::from_word(self.word(base))
    }

    fn seal_cell(&mut self, cell: u64) {
        let slots = self.word(W_SLOTS);
        let base = HDR_WORDS + slots * REQ_WORDS + cell * CELL_WORDS;
        self.words[base as usize] = CellState::Sealed as u64;
    }
}

// ---------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------

/// Knobs for [`RawQueue::recover`]. The default replays everything; the
/// crash-matrix tests flip `replay_claimed_requests` off as a *negative
/// control* — a recovery that skips the help-replay loses exactly the
/// claimed-but-uncommitted values, and the recovery checker must convict
/// it.
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Re-complete claimed-but-uncommitted enqueue requests from their
    /// request records (the help machinery's crash window). `false` is a
    /// deliberately broken recovery for negative-control testing.
    pub replay_claimed_requests: bool,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            replay_claimed_requests: true,
        }
    }
}

/// What recovery did, and what the image proved about pre-crash history.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Values re-enqueued into the recovered queue, in original cell
    /// order — every durably-undelivered value, exactly once.
    pub survivors: Vec<u64>,
    /// How many survivors came from claimed-but-uncommitted request
    /// records (the help-replay path) rather than deposited cells.
    pub recompleted: u64,
    /// Values the image proves were delivered before the crash (durable
    /// consume records). A dequeuer that crashed between its volatile
    /// return and the caller using the value can re-read it here — the
    /// detectable-recovery return-value channel.
    pub delivered_pre_crash: Vec<u64>,
    /// Values of published-but-unclaimed requests: provably rejected (the
    /// enqueue has no durable commit and is deemed never to have
    /// happened).
    pub rejected_published: Vec<u64>,
    /// Torn cells sealed during recovery: below the tail high-water mark
    /// with no durable deposit and no claim replaying into them.
    pub sealed_cells: u64,
    /// Image generation the recovered queue writes (input generation + 1
    /// when recovering a live store).
    pub generation: u64,
}

/// Pure image → recovery decision, shared by [`RawQueue::recover`] and the
/// crash-matrix tests (which recover from a mid-crash snapshot rather
/// than a live store). Returns the report plus the sealed image.
pub fn recover_image(
    image: &StoreImage,
    opts: &RecoveryOptions,
) -> Result<(RecoveryReport, StoreImage), RecoverError> {
    let scan = image.scan()?;
    let mut sealed_image = image.clone();
    let mut report = RecoveryReport {
        generation: scan.generation,
        ..RecoveryReport::default()
    };

    // Survivors keyed by original cell index: FIFO order of the recovered
    // queue is the pre-crash cell order.
    let mut survivors = std::collections::BTreeMap::<u64, u64>::new();
    for &(cell, value) in &scan.deposited {
        survivors.insert(cell, value);
    }
    let mut replay_targets = std::collections::BTreeSet::<u64>::new();
    if opts.replay_claimed_requests {
        for claim in &scan.claimed {
            // Dedup rule: a claimed request is already committed iff its
            // cell has a durable deposit (or consume). Only an EMPTY cell
            // means the commit was cut mid-help — re-complete it.
            if image.cell_state(claim.cell) == CellState::Empty {
                survivors.insert(claim.cell, claim.value);
                replay_targets.insert(claim.cell);
                report.recompleted += 1;
            }
        }
    }
    // Seal torn cells: claimed by some FAA (below the tail high-water
    // mark) but with no durable trace and no claim replaying into them.
    // Nothing can ever deliver from them; sealing records that verdict.
    for cell in 0..scan.tail_hwm {
        if image.cell_state(cell) == CellState::Empty && !replay_targets.contains(&cell) {
            sealed_image.seal_cell(cell);
            report.sealed_cells += 1;
        }
    }
    report.delivered_pre_crash = scan.consumed.iter().map(|&(_, v)| v).collect();
    report.rejected_published = scan
        .published
        .iter()
        .map(|&(_, v)| v)
        .filter(|&v| !survivors.values().any(|&s| s == v))
        .collect();
    report.survivors = survivors.into_values().collect();
    Ok((report, sealed_image))
}

impl<const N: usize> RawQueue<N> {
    /// Rebuilds a queue from a crash snapshot: replays every durably
    /// undelivered value — deposited cells *and* (unless the negative
    /// control disables it) claimed-but-uncommitted requests — into a
    /// fresh queue wired to `sink`, in original FIFO order. Torn cells
    /// are sealed in the returned report's accounting.
    ///
    /// The replay runs through the ordinary enqueue path, so the new
    /// generation's image is written by the same three-frontier hooks as
    /// live traffic — recovery is itself crash-recoverable.
    pub fn recover_from_image(
        image: &StoreImage,
        config: Config,
        sink: Option<Arc<dyn PersistSink>>,
        opts: &RecoveryOptions,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let (report, _sealed) = recover_image(image, opts)?;
        let q = match sink {
            Some(s) => Self::with_persist(config, s),
            None => Self::with_config(config),
        };
        {
            let mut h = q.register();
            for &v in &report.survivors {
                h.enqueue(v);
            }
        }
        Ok((q, report))
    }

    /// Crash-recovers from a live heap-file store: snapshots the image,
    /// turns the store's generation (clearing the records), and replays
    /// the survivors into a fresh queue persisting to the same store.
    /// This is the normal restart path after a process kill:
    ///
    /// ```no_run
    /// # use wfqueue::{Config, HeapFileStore, RawQueue, RecoveryOptions};
    /// # use std::sync::Arc;
    /// let store = Arc::new(HeapFileStore::open("queue.image".as_ref()).unwrap());
    /// let (q, report) = RawQueue::<1024>::recover(
    ///     Config::default(),
    ///     &store,
    ///     &RecoveryOptions::default(),
    /// ).unwrap();
    /// println!("recovered {} values", report.survivors.len());
    /// ```
    #[cfg(unix)]
    pub fn recover(
        config: Config,
        store: &Arc<HeapFileStore>,
        opts: &RecoveryOptions,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let image = store.snapshot();
        // Validate before wiping anything.
        image.validate()?;
        let gen = store.begin_generation();
        let (q, mut report) = Self::recover_from_image(
            &image,
            config,
            Some(Arc::clone(store) as Arc<dyn PersistSink>),
            opts,
        )?;
        store.flush();
        report.generation = gen;
        Ok((q, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEG: usize = 64;

    fn mem_queue(cells: u64, slots: u64) -> (Arc<MemStore>, RawQueue<SEG>) {
        let store = Arc::new(MemStore::new(cells, slots));
        let q = RawQueue::<SEG>::with_persist(
            Config::default(),
            Arc::clone(&store) as Arc<dyn PersistSink>,
        );
        (store, q)
    }

    #[test]
    fn clean_traffic_round_trips_through_the_image() {
        let (store, q) = mem_queue(1024, 4);
        {
            let mut h = q.register();
            for v in 1..=50u64 {
                h.enqueue(v);
            }
            for _ in 0..20 {
                h.dequeue();
            }
        }
        let scan = store.snapshot().scan().unwrap();
        assert_eq!(scan.consumed.len(), 20);
        assert_eq!(scan.deposited.len(), 30);
        assert!(scan.tail_hwm >= 50);
        assert!(scan.head_hwm >= 20);
        // Recover: the 30 undelivered values come back in FIFO order.
        let (rq, report) = RawQueue::<SEG>::recover_from_image(
            &store.snapshot(),
            Config::default(),
            None,
            &RecoveryOptions::default(),
        )
        .unwrap();
        assert_eq!(report.survivors, (21..=50).collect::<Vec<u64>>());
        assert_eq!(report.delivered_pre_crash.len(), 20);
        assert_eq!(report.recompleted, 0);
        let mut h = rq.register();
        for v in 21..=50u64 {
            assert_eq!(h.dequeue(), Some(v));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn cell_state_lattice_is_monotone() {
        let store = MemStore::new(8, 1);
        store.deposit(3, 42);
        store.consume(3, 42);
        // A late (re-ordered) deposit persist must not demote CONSUMED.
        store.deposit(3, 42);
        let scan = store.snapshot().scan().unwrap();
        assert_eq!(scan.consumed, vec![(3, 42)]);
        assert!(scan.deposited.is_empty());
    }

    #[test]
    fn claimed_but_uncommitted_requests_are_recompleted() {
        let store = MemStore::new(64, 2);
        // Simulate the crash window: tail advanced past cell 5, the claim
        // persisted, the deposit did not.
        store.advance_tail(6);
        store.enq_publish(1, 77);
        store.enq_claim(1, 77, 5);
        let (report, sealed) =
            recover_image(&store.snapshot(), &RecoveryOptions::default()).unwrap();
        assert_eq!(report.survivors, vec![77]);
        assert_eq!(report.recompleted, 1);
        // Cells 0..5 are torn (claimed by FAAs, no durable trace): sealed.
        assert_eq!(report.sealed_cells, 5);
        for c in 0..5 {
            assert_eq!(sealed.cell_state(c), CellState::Sealed);
        }
        // The replay target is not sealed.
        assert_eq!(sealed.cell_state(5), CellState::Empty);
    }

    #[test]
    fn committed_claims_are_not_replayed_twice() {
        let store = MemStore::new(64, 2);
        store.advance_tail(3);
        store.enq_claim(0, 9, 2);
        store.deposit(2, 9); // commit persisted after the claim
        let (report, _) =
            recover_image(&store.snapshot(), &RecoveryOptions::default()).unwrap();
        assert_eq!(report.survivors, vec![9], "exactly once, not twice");
        assert_eq!(report.recompleted, 0);
    }

    #[test]
    fn negative_control_skipping_replay_loses_the_claim() {
        let store = MemStore::new(64, 2);
        store.advance_tail(1);
        store.enq_claim(0, 55, 0);
        let opts = RecoveryOptions {
            replay_claimed_requests: false,
        };
        let (report, _) = recover_image(&store.snapshot(), &opts).unwrap();
        assert!(
            report.survivors.is_empty(),
            "the broken recovery must visibly lose the value"
        );
    }

    #[test]
    fn published_unclaimed_requests_are_rejected() {
        let store = MemStore::new(64, 2);
        store.enq_publish(0, 31);
        let (report, _) =
            recover_image(&store.snapshot(), &RecoveryOptions::default()).unwrap();
        assert!(report.survivors.is_empty());
        assert_eq!(report.rejected_published, vec![31]);
    }

    #[test]
    fn garbage_image_is_refused() {
        let image = StoreImage {
            words: vec![0xDEAD; 32],
        };
        assert!(recover_image(&image, &RecoveryOptions::default()).is_err());
    }

    #[test]
    fn begin_generation_clears_records_and_bumps_gen() {
        let store = MemStore::new(16, 1);
        store.deposit(0, 5);
        store.advance_tail(1);
        assert_eq!(store.begin_generation(), 1);
        let scan = store.snapshot().scan().unwrap();
        assert_eq!(scan.generation, 1);
        assert_eq!(scan.tail_hwm, 0);
        assert!(scan.deposited.is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn heap_file_store_survives_reopen() {
        let path = std::env::temp_dir().join(format!(
            "wfq-durable-test-{}-{:?}.image",
            std::process::id(),
            std::thread::current().id()
        ));
        {
            let store = Arc::new(HeapFileStore::create(&path, 512, 4).unwrap());
            let q = RawQueue::<SEG>::with_persist(
                Config::default(),
                Arc::clone(&store) as Arc<dyn PersistSink>,
            );
            let mut h = q.register();
            for v in 1..=10u64 {
                h.enqueue(v);
            }
            assert_eq!(h.dequeue(), Some(1));
            store.flush();
            // Queue and store dropped here: simulates losing all volatile
            // state while the file survives.
        }
        let store = Arc::new(HeapFileStore::open(&path).unwrap());
        let (q, report) =
            RawQueue::<SEG>::recover(Config::default(), &store, &RecoveryOptions::default())
                .unwrap();
        assert_eq!(report.survivors, (2..=10).collect::<Vec<u64>>());
        assert_eq!(report.delivered_pre_crash, vec![1]);
        assert_eq!(report.generation, 1);
        let mut h = q.register();
        for v in 2..=10u64 {
            assert_eq!(h.dequeue(), Some(v));
        }
        drop(h);
        drop(q);
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn heap_file_open_rejects_garbage() {
        let path = std::env::temp_dir().join(format!(
            "wfq-durable-garbage-{}.image",
            std::process::id()
        ));
        std::fs::write(&path, vec![0xAB; 256]).unwrap();
        assert!(HeapFileStore::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
