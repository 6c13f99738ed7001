//! The emulated PM device: a pool with a CPU image and a persisted image.

use std::cell::Cell;
use std::collections::HashMap;
use std::mem::{align_of, size_of, MaybeUninit};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::config::{PersistenceMode, PmConfig};
use crate::inject::{
    splitmix64, CrashPointHit, CrashReport, MediaError, PersistEventKind, PoisonedRead,
    ResidualLine, ResidualPolicy,
};
use crate::off::PmOff;
use crate::stats::{PmStats, PmStatsSnapshot};

/// CPU cache-line size; `clwb` operates at this granularity.
pub const CACHELINE: usize = 64;
/// DCPMM internal media granularity (the "XPLine"): every media access
/// moves this many bytes regardless of the request size.
pub const MEDIA_BLOCK: usize = 256;
/// First bytes of every pool reserved for application root pointers
/// (the moral equivalent of PMDK's root object).
pub const ROOT_AREA: u64 = 4096;

/// Marker for plain-old-data types that may live in persistent memory.
///
/// # Safety
///
/// Implementors must guarantee:
/// * `T` is `Copy` and has no padding bytes (every byte is initialized),
/// * `size_of::<T>()` is a multiple of 8 and `align_of::<T>() <= 8`,
/// * any bit pattern read back from PM is a valid `T` (no enums with
///   invalid discriminants, no references, no niches).
pub unsafe trait PmSafe: Copy {}

unsafe impl PmSafe for u64 {}
unsafe impl PmSafe for i64 {}
unsafe impl PmSafe for [u8; 8] {}
unsafe impl PmSafe for [u8; 16] {}
unsafe impl PmSafe for [u8; 32] {}
unsafe impl PmSafe for [u64; 2] {}
unsafe impl PmSafe for [u64; 4] {}

/// Number of entries in the per-thread direct-mapped media-block cache
/// that stands in for the CPU cache hierarchy when accounting media
/// reads. 512 blocks × 256 B = 128 KiB of modelled cache per thread.
const BLOCK_CACHE_SLOTS: usize = 512;

/// Per-thread model of which media blocks the CPU caches hold. Tags are
/// `(pool_id << 40) | (block + 1)` so multiple pools do not alias; 0
/// means empty. Every slot is its own `Cell`, so an access updates the
/// one slot it maps to in place.
struct BlockCache {
    /// Direct-mapped cache of recently touched media blocks.
    slots: [Cell<u64>; BLOCK_CACHE_SLOTS],
    /// Last media block this thread read (for the sequential-access
    /// latency discount), same tag format.
    last: Cell<u64>,
}

impl BlockCache {
    /// Install `tag` in the slot block `block` maps to; returns whether
    /// the slot held something else (a modelled cache miss).
    #[inline]
    fn fill(&self, block: u64, tag: u64) -> bool {
        let slot = &self.slots[(block as usize) & (BLOCK_CACHE_SLOTS - 1)];
        slot.replace(tag) != tag
    }
}

thread_local! {
    static BLOCK_CACHE: BlockCache = const {
        BlockCache {
            slots: [const { Cell::new(0) }; BLOCK_CACHE_SLOTS],
            last: Cell::new(0),
        }
    };
}

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

/// An emulated persistent-memory pool.
///
/// The pool address space is `[0, len)`, byte-addressed via offsets (see
/// [`PmOff`]). Loads and stores observe the *CPU image*; only data moved
/// to the *persisted image* by [`PmPool::clwb`] / [`PmPool::ntstore_u64`]
/// survives [`PmPool::crash`].
///
/// All accessors take `&self`: the images are arrays of `AtomicU64`, and
/// every access compiles to a plain load/store with the requested
/// ordering. Cross-thread visibility of `Relaxed` data accesses must be
/// established by the caller's own synchronization (locks, acquiring
/// version words, …), exactly as on real hardware.
pub struct PmPool {
    cpu: Box<[AtomicU64]>,
    persisted: Box<[AtomicU64]>,
    len: usize,
    cfg: PmConfig,
    stats: PmStats,
    id: u64,
    chaos_ctr: AtomicU64,
    /// One bit per 8-byte word: set when the CPU image has been written
    /// since the word was last persisted (the durability-audit bitmap).
    dirty: Box<[AtomicU64]>,
    /// Per cache line, the [`PmPool::write_clock`] value of the last
    /// store that touched it. Orders residual candidates by recency so
    /// exhaustive torn-write enumeration can focus on the write
    /// frontier (the lines the in-flight operation just dirtied).
    dirty_seq: Box<[AtomicU64]>,
    /// Monotonic store counter feeding [`PmPool::dirty_seq`].
    write_clock: AtomicU64,
    /// Persistence events (clwb/ntstore/sfence calls) since creation.
    events: AtomicU64,
    /// Crash-point injection: events remaining until the trip (0 = off).
    armed: AtomicU64,
    /// Set once an injected crash fired; freezes the persisted image
    /// until the next [`PmPool::crash`].
    crashed: AtomicBool,
    /// Durability audit captured when the injected crash fired.
    report: Mutex<Option<CrashReport>>,
    /// Multi-threaded crash mode: when the armed crash fires, also set
    /// [`PmPool::halted`] so other threads unwind (see
    /// [`PmPool::set_halt_on_crash`]).
    halt_on_crash: AtomicBool,
    /// Fast gate checked on every PM access: when set, any access from a
    /// non-panicking thread unwinds with [`CrashPointHit`].
    halted: AtomicBool,
    /// Dirty lines (offset + CPU contents) captured at the instant the
    /// armed crash fired — the residual-image candidate set, snapshotted
    /// before unwinding code can dirty anything else.
    residual: Mutex<Option<Vec<ResidualLine>>>,
    /// One bit per cache line: set when the line is poisoned (reads
    /// raise the emulated machine-check, [`PoisonedRead`]).
    poison: Box<[AtomicU64]>,
    /// Fast gate: number of currently poisoned lines.
    poison_lines: AtomicU64,
    /// Per poisoned line, which of its 8 words have been fully
    /// rewritten; at 0xFF the line's poison clears (real PM clears
    /// poison when the whole line is overwritten).
    poison_fill: Mutex<HashMap<u64, u8>>,
}

impl PmPool {
    /// Create a pool of `len` bytes (rounded up to a media block),
    /// zero-initialized and fully persisted (a fresh device).
    pub fn new(len: usize, cfg: PmConfig) -> Self {
        let len = crate::align_up(len.max(MEDIA_BLOCK) as u64, MEDIA_BLOCK as u64) as usize;
        let words = len / 8;
        let alloc = |n: usize| -> Box<[AtomicU64]> { (0..n).map(|_| AtomicU64::new(0)).collect() };
        Self {
            cpu: alloc(words),
            persisted: alloc(words),
            len,
            cfg,
            stats: PmStats::new(),
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            chaos_ctr: AtomicU64::new(0),
            dirty: alloc(words.div_ceil(64)),
            dirty_seq: alloc(len / CACHELINE),
            write_clock: AtomicU64::new(0),
            events: AtomicU64::new(0),
            armed: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            report: Mutex::new(None),
            halt_on_crash: AtomicBool::new(false),
            halted: AtomicBool::new(false),
            residual: Mutex::new(None),
            poison: alloc((len / CACHELINE).div_ceil(64)),
            poison_lines: AtomicU64::new(0),
            poison_fill: Mutex::new(HashMap::new()),
        }
    }

    /// Pool size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool is empty (never true in practice; pools round up
    /// to at least one media block).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pool configuration.
    #[inline]
    pub fn config(&self) -> &PmConfig {
        &self.cfg
    }

    #[inline]
    fn word(&self, off: u64) -> &AtomicU64 {
        debug_assert_eq!(off % 8, 0, "unaligned u64 access at {off:#x}");
        debug_assert!(
            (off as usize) + 8 <= self.len,
            "PM access out of bounds: {off:#x} + 8 > {:#x}",
            self.len
        );
        &self.cpu[(off / 8) as usize]
    }

    #[inline]
    fn media_block_of(off: u64) -> u64 {
        off / MEDIA_BLOCK as u64
    }

    #[inline]
    fn blocks_in(off: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = Self::media_block_of(off);
        let last = Self::media_block_of(off + len as u64 - 1);
        last - first + 1
    }

    #[inline]
    fn block_tag(&self, block: u64) -> u64 {
        (self.id << 40) | (block + 1)
    }

    /// Account (and charge latency for) a read of `len` bytes at `off`,
    /// consulting the modelled per-thread cache for media residency.
    #[inline]
    fn account_read(&self, off: u64, len: usize) {
        self.check_halt();
        if self.poison_lines.load(Ordering::Relaxed) != 0 {
            self.raise_on_poison(off, len);
        }
        let first = Self::media_block_of(off);
        let nblocks = Self::blocks_in(off, len);
        let mut missed = 0u64;
        let mut sequential = true;
        BLOCK_CACHE.with(|cache| {
            let last = cache.last.get();
            for b in first..first + nblocks {
                let tag = self.block_tag(b);
                if cache.fill(b, tag) {
                    missed += 1;
                    if tag != last && tag != last + 1 {
                        sequential = false;
                    }
                }
            }
            cache.last.set(self.block_tag(first + nblocks - 1));
        });
        self.stats.count_read(len as u64, missed);
        obs::pm_read(off, len, missed * MEDIA_BLOCK as u64);
        if missed > 0 {
            self.cfg.latency.charge_read(missed, sequential);
        }
    }

    /// Account a write of `len` bytes (store-buffer level; media traffic
    /// is accounted at flush time). Populates the modelled cache
    /// (write-allocate).
    #[inline]
    fn account_write(&self, off: u64, len: usize) {
        self.check_halt();
        if self.poison_lines.load(Ordering::Relaxed) != 0 {
            self.note_poison_overwrite(off, len);
        }
        let first = Self::media_block_of(off);
        let nblocks = Self::blocks_in(off, len);
        BLOCK_CACHE.with(|cache| {
            for b in first..first + nblocks {
                cache.fill(b, self.block_tag(b));
            }
        });
        self.stats.count_write(len as u64);
        obs::pm_write(off, len);
        self.mark_dirty(off, len);
    }

    // ----- durability audit (dirty-word tracking) --------------------------

    /// Mark the words covering `[off, off + len)` as written-but-unflushed.
    #[inline]
    fn mark_dirty(&self, off: u64, len: usize) {
        if len == 0 {
            return;
        }
        let clock = self.write_clock.fetch_add(1, Ordering::Relaxed);
        let lfirst = off / CACHELINE as u64;
        let llast = (off + len as u64 - 1) / CACHELINE as u64;
        for l in lfirst..=llast {
            self.dirty_seq[l as usize].store(clock, Ordering::Relaxed);
        }
        let first = off / 8;
        let last = (off + len as u64 - 1) / 8;
        if first / 64 == last / 64 {
            // Common case: all touched words live in one bitmap atom.
            let span = last - first + 1;
            let mask = if span >= 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << (first % 64)
            };
            self.dirty[(first / 64) as usize].fetch_or(mask, Ordering::Relaxed);
        } else {
            for w in first..=last {
                self.dirty[(w / 64) as usize].fetch_or(1 << (w % 64), Ordering::Relaxed);
            }
        }
    }

    /// Dirty bits of the 8 words in the cache line at `line_off`
    /// (64-aligned). A cache line never straddles a bitmap atom.
    #[inline]
    fn line_dirty_bits(&self, line_off: u64) -> u64 {
        let w0 = line_off / 8;
        let shift = w0 % 64;
        self.dirty[(w0 / 64) as usize].load(Ordering::Relaxed) & (0xFF << shift)
    }

    /// Whether any cache line in `[start, end)` (both 64-aligned) has a
    /// written-but-unflushed word.
    #[inline]
    fn range_has_dirty_line(&self, start: u64, end: u64) -> bool {
        let mut line = start;
        while line < end {
            if self.line_dirty_bits(line) != 0 {
                return true;
            }
            line += CACHELINE as u64;
        }
        false
    }

    /// Written-but-unflushed 8-byte words (durability-audit bitmap
    /// population count). Only meaningful in `Real` persistence mode.
    pub fn dirty_word_count(&self) -> u64 {
        self.dirty
            .iter()
            .map(|a| a.load(Ordering::Relaxed).count_ones() as u64)
            .sum()
    }

    /// Cache lines containing at least one dirty word.
    pub fn dirty_line_count(&self) -> u64 {
        let mut lines = 0u64;
        for a in self.dirty.iter() {
            let mut bits = a.load(Ordering::Relaxed);
            while bits != 0 {
                // Consume one 8-bit (one cache line) group at a time.
                let line = (bits.trailing_zeros() / 8) as u64;
                lines += 1;
                bits &= !(0xFFu64 << (line * 8));
            }
        }
        lines
    }

    /// Pool offsets of the first `limit` dirty cache lines, for
    /// diagnostics in the crash-point explorer.
    pub fn dirty_line_offsets(&self, limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        'outer: for (i, a) in self.dirty.iter().enumerate() {
            let mut bits = a.load(Ordering::Relaxed);
            while bits != 0 {
                let line = (bits.trailing_zeros() / 8) as u64;
                out.push((i as u64 * 64 + line * 8) * 8);
                if out.len() >= limit {
                    break 'outer;
                }
                bits &= !(0xFFu64 << (line * 8));
            }
        }
        out
    }

    fn clear_all_dirty(&self) {
        for a in self.dirty.iter() {
            a.store(0, Ordering::Relaxed);
        }
    }

    // ----- crash-point injection -------------------------------------------

    /// Count one persistence event and trip the injected crash when the
    /// pool is armed and the countdown reaches it. Returns `true` when
    /// the pool has already crashed (callers must suppress the
    /// persistence effect). Panics with [`CrashPointHit`] at the trip.
    #[inline]
    fn persistence_event(&self, kind: PersistEventKind) -> bool {
        self.check_halt();
        let index = self.events.fetch_add(1, Ordering::Relaxed) + 1;
        if self.crashed.load(Ordering::Relaxed) {
            return true;
        }
        if self.armed.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.persistence_event_armed(kind, index)
    }

    /// Cold path of [`PmPool::persistence_event`]: decrement the armed
    /// countdown and fire when it reaches zero.
    #[cold]
    fn persistence_event_armed(&self, kind: PersistEventKind, index: u64) -> bool {
        loop {
            let cur = self.armed.load(Ordering::Relaxed);
            if cur == 0 {
                return false; // lost a race with a concurrent trip/disarm
            }
            if self
                .armed
                .compare_exchange(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            if cur > 1 {
                return false;
            }
            // This is the fatal event. Halt the device FIRST: once the
            // image freezes, a sibling thread's flushes would be
            // silently suppressed, so if this thread is preempted
            // between freezing and halting, siblings could complete and
            // acknowledge operations that never became durable. Halting
            // first makes every concurrent PM access unwind before it
            // can witness the frozen world; anything a sibling fully
            // flushed before this instant is genuinely durable.
            if self.halt_on_crash.load(Ordering::Relaxed) {
                self.halted.store(true, Ordering::Relaxed);
            }
            // Now freeze the persisted image so nothing that runs
            // during unwinding can persist data, then capture the
            // durability audit and the residual-image candidate set
            // (dirty lines + their CPU contents) before unwinding code
            // can dirty anything else, and unwind.
            self.crashed.store(true, Ordering::Relaxed);
            let report = CrashReport {
                event_index: index,
                trigger: kind,
                dirty_words: self.dirty_word_count(),
                dirty_lines: self.dirty_line_count(),
                redundant_clwb: self.stats.snapshot().clwb_redundant,
            };
            *self.report_slot() = Some(report);
            *self.residual_slot() = Some(self.collect_residual_candidates());
            std::panic::panic_any(CrashPointHit);
        }
    }

    #[inline]
    fn report_slot(&self) -> std::sync::MutexGuard<'_, Option<CrashReport>> {
        self.report.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Arm the pool to simulate a power failure at the `events`-th
    /// subsequent persistence event (a [`PmPool::clwb`],
    /// [`PmPool::ntstore_u64`] or [`PmPool::sfence`] call; 1-based).
    ///
    /// The fatal event does not take effect: the persisted image is
    /// frozen as of the instant *before* it, and the in-flight
    /// operation is unwound via a panic carrying [`CrashPointHit`].
    /// Catch it with `std::panic::catch_unwind`, then call
    /// [`PmPool::crash`] and run recovery. `arm_crash_after(0)` disarms.
    ///
    /// Event counting is exact for single-threaded exploration runs;
    /// with concurrent writers the trip point is racy but exactly one
    /// event still trips (enable [`PmPool::set_halt_on_crash`] so the
    /// surviving threads unwind too).
    pub fn arm_crash_after(&self, events: u64) {
        *self.report_slot() = None;
        *self.residual_slot() = None;
        self.crashed.store(false, Ordering::Relaxed);
        self.halted.store(false, Ordering::Relaxed);
        self.armed.store(events, Ordering::Relaxed);
    }

    /// Disarm a pending injected crash (no-op if none is armed).
    pub fn disarm_crash(&self) {
        self.armed.store(0, Ordering::Relaxed);
    }

    /// Events remaining until the armed crash fires (0 = disarmed).
    pub fn crash_events_remaining(&self) -> u64 {
        self.armed.load(Ordering::Relaxed)
    }

    /// Whether an injected crash has fired and the persisted image is
    /// currently frozen (cleared by [`PmPool::crash`]).
    pub fn crash_fired(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// The durability audit captured when the last injected crash
    /// fired. Survives [`PmPool::crash`]; cleared by the next
    /// [`PmPool::arm_crash_after`].
    pub fn crash_report(&self) -> Option<CrashReport> {
        *self.report_slot()
    }

    /// Total persistence events (clwb/ntstore/sfence calls) since pool
    /// creation. Used by probe runs to size a boundary sweep.
    pub fn persist_event_count(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    // ----- multi-threaded crash (halt-on-crash) ----------------------------

    /// In multi-threaded crash runs, make the device disappear for
    /// *every* thread when the armed crash fires: each surviving
    /// thread's next PM access (load, store, or persistence primitive)
    /// panics with [`CrashPointHit`] too, so no thread can keep
    /// computing against a dead device — and in particular no thread
    /// can spin forever on a lock word the crashed thread left set.
    ///
    /// Threads already unwinding (`std::thread::panicking()`) are
    /// exempt, so destructors that touch the pool during the unwind do
    /// not double-panic and abort.
    ///
    /// The harness must call `set_halt_on_crash(false)` once every
    /// worker has been joined and **before** dropping index/allocator
    /// front-ends: their destructors access the pool from a
    /// non-panicking thread. Disabled by default; disabling also clears
    /// an active halt.
    pub fn set_halt_on_crash(&self, enabled: bool) {
        self.halt_on_crash.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.halted.store(false, Ordering::Relaxed);
        }
    }

    /// Whether the device is currently halted (armed crash fired with
    /// halt-on-crash enabled; every PM access unwinds).
    pub fn is_halted(&self) -> bool {
        self.halted.load(Ordering::Relaxed)
    }

    #[inline]
    fn check_halt(&self) {
        if self.halted.load(Ordering::Relaxed) {
            self.halt_slow();
        }
    }

    #[cold]
    fn halt_slow(&self) {
        if !std::thread::panicking() {
            std::panic::panic_any(CrashPointHit);
        }
    }

    // ----- residual image --------------------------------------------------

    #[inline]
    fn residual_slot(&self) -> std::sync::MutexGuard<'_, Option<Vec<ResidualLine>>> {
        self.residual.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Walk the dirty bitmap and capture every dirty line with its
    /// current CPU contents, ordered most-recently-written first (ties
    /// broken by offset). Recency ordering lets subset enumeration
    /// cover the write frontier even when long-lived unflushed lines
    /// (volatile locks, runtime counters living in PM) inflate the
    /// total candidate count.
    fn collect_residual_candidates(&self) -> Vec<ResidualLine> {
        let mut out = Vec::new();
        for (i, a) in self.dirty.iter().enumerate() {
            let mut bits = a.load(Ordering::Relaxed);
            while bits != 0 {
                let line = (bits.trailing_zeros() / 8) as u64;
                let off = (i as u64 * 64 + line * 8) * 8;
                let w0 = (off / 8) as usize;
                let mut words = [0u64; 8];
                for (j, w) in words.iter_mut().enumerate() {
                    *w = self.cpu[w0 + j].load(Ordering::Relaxed);
                }
                let seq = self.dirty_seq[(off / CACHELINE as u64) as usize].load(Ordering::Relaxed);
                out.push((seq, ResidualLine { off, words }));
                bits &= !(0xFFu64 << (line * 8));
            }
        }
        out.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.off.cmp(&b.1.off)));
        out.into_iter().map(|(_, l)| l).collect()
    }

    /// The residual-image candidate set: every dirty (written but
    /// unflushed) cache line that *could* have made it to media at a
    /// power cut, with the contents it would land with. Candidates are
    /// ordered most-recently-written first, so [`ResidualPolicy::Subset`]
    /// mask bit `i` addresses the `i`-th most recent line — enumerating
    /// small masks exhaustively covers the write frontier.
    ///
    /// After an armed crash fired this returns the set captured at the
    /// trip instant (unwinding may have dirtied more lines since — those
    /// stores never happened in the crashed execution). On a live pool
    /// it is computed from the current dirty bitmap, which is what a
    /// torture-style [`PmPool::crash_with`] needs.
    pub fn residual_candidates(&self) -> Vec<ResidualLine> {
        if self.crashed.load(Ordering::Relaxed) {
            if let Some(c) = self.residual_slot().as_ref() {
                return c.clone();
            }
        }
        self.collect_residual_candidates()
    }

    /// Snapshot the persisted image, so a harness can run several
    /// residual samples (restore → apply → recover) per crash without
    /// replaying the workload.
    pub fn snapshot_persisted(&self) -> Vec<u64> {
        self.persisted
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Reset both images to a snapshot taken by
    /// [`PmPool::snapshot_persisted`], discarding all volatile state,
    /// injection state, and poison — a fresh power-on of that image.
    pub fn restore_persisted(&self, img: &[u64]) {
        assert_eq!(img.len(), self.persisted.len(), "snapshot size mismatch");
        for (i, &w) in img.iter().enumerate() {
            self.persisted[i].store(w, Ordering::Relaxed);
            self.cpu[i].store(w, Ordering::Relaxed);
        }
        self.armed.store(0, Ordering::Relaxed);
        self.crashed.store(false, Ordering::Relaxed);
        self.halted.store(false, Ordering::Relaxed);
        *self.residual_slot() = None;
        self.clear_all_dirty();
        self.clear_all_poison();
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Write the given lines into both images: these lines *did* reach
    /// media at the power cut. Call after [`PmPool::crash`] or
    /// [`PmPool::restore_persisted`] with the subset a
    /// [`ResidualPolicy`] selected.
    pub fn apply_residual_lines(&self, lines: &[ResidualLine]) {
        for l in lines {
            debug_assert_eq!(l.off % CACHELINE as u64, 0);
            let w0 = (l.off / 8) as usize;
            for (j, &w) in l.words.iter().enumerate() {
                self.cpu[w0 + j].store(w, Ordering::Relaxed);
                self.persisted[w0 + j].store(w, Ordering::Relaxed);
            }
        }
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// [`PmPool::crash`], but with a configurable residual image: the
    /// dirty lines at the crash instant each persist or vanish according
    /// to `policy` instead of all vanishing. `ResidualPolicy::Frozen`
    /// is exactly `crash()`.
    ///
    /// Returns the number of residual candidates, so callers can log
    /// how large the sampled space was.
    pub fn crash_with(&self, policy: ResidualPolicy) -> usize {
        let cands = self.residual_candidates();
        let keep = policy.select(cands.len());
        self.crash();
        let kept: Vec<ResidualLine> = cands
            .iter()
            .zip(keep.iter())
            .filter(|(_, &k)| k)
            .map(|(l, _)| *l)
            .collect();
        self.apply_residual_lines(&kept);
        cands.len()
    }

    // ----- media errors (poison) -------------------------------------------

    #[inline]
    fn line_poisoned(&self, line_off: u64) -> bool {
        let l = line_off / CACHELINE as u64;
        self.poison[(l / 64) as usize].load(Ordering::Relaxed) & (1u64 << (l % 64)) != 0
    }

    #[inline]
    fn poison_fill_slot(&self) -> std::sync::MutexGuard<'_, HashMap<u64, u8>> {
        self.poison_fill.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Poison the cache line containing `off`: the media can no longer
    /// return its data. Any read touching the line panics with
    /// [`PoisonedRead`] (the emulated machine-check) until the whole
    /// line has been rewritten (word-granularity stores covering all 8
    /// words) or scrubbed via [`PmPool::scrub_poison`]. The line's
    /// contents are scrambled in both images so partially recovered
    /// lines can never silently read back plausible stale data.
    ///
    /// Poison is a media property: it survives [`PmPool::crash`] /
    /// power cycles, like a real bad block.
    pub fn poison_line(&self, off: u64) {
        let line = off & !(CACHELINE as u64 - 1);
        assert!(
            (line as usize) + CACHELINE <= self.len,
            "poison out of bounds"
        );
        let l = line / CACHELINE as u64;
        let prev = self.poison[(l / 64) as usize].fetch_or(1u64 << (l % 64), Ordering::Relaxed);
        if prev & (1u64 << (l % 64)) == 0 {
            self.poison_lines.fetch_add(1, Ordering::Relaxed);
        }
        self.poison_fill_slot().remove(&line);
        let w0 = (line / 8) as usize;
        for j in 0..8 {
            let junk = splitmix64(0xBAD0_BAD0_0000_0000 ^ line ^ j as u64);
            self.cpu[w0 + j].store(junk, Ordering::Relaxed);
            self.persisted[w0 + j].store(junk, Ordering::Relaxed);
        }
    }

    /// Currently poisoned cache lines.
    pub fn poisoned_line_count(&self) -> u64 {
        self.poison_lines.load(Ordering::Relaxed)
    }

    /// Clear all poison without touching data (testing/reset helper).
    pub fn clear_all_poison(&self) {
        if self.poison_lines.swap(0, Ordering::Relaxed) != 0 {
            for a in self.poison.iter() {
                a.store(0, Ordering::Relaxed);
            }
        }
        self.poison_fill_slot().clear();
    }

    /// Probe whether `[off, off + len)` is readable without raising the
    /// emulated machine-check. Recovery paths call this before
    /// interpreting any structure so a media error becomes a graceful
    /// [`MediaError`] ("rebuild or report") instead of consumed garbage.
    pub fn check_readable(&self, off: u64, len: usize) -> Result<(), MediaError> {
        if self.poison_lines.load(Ordering::Relaxed) == 0 || len == 0 {
            return Ok(());
        }
        match self.first_poisoned_line(off, len) {
            None => Ok(()),
            Some(line) => Err(MediaError {
                off: line,
                context: "pm range",
            }),
        }
    }

    fn first_poisoned_line(&self, off: u64, len: usize) -> Option<u64> {
        if len == 0 {
            return None;
        }
        let mut line = off & !(CACHELINE as u64 - 1);
        let end = (off + len as u64).min(self.len as u64);
        while line < end {
            if self.line_poisoned(line) {
                return Some(line);
            }
            line += CACHELINE as u64;
        }
        None
    }

    #[cold]
    fn raise_on_poison(&self, off: u64, len: usize) {
        if let Some(line) = self.first_poisoned_line(off, len) {
            std::panic::panic_any(PoisonedRead { off: line });
        }
    }

    /// Atomic RMW ops consume the old value, so they count as reads for
    /// poison purposes even though they account as writes.
    #[inline]
    fn check_rmw_poison(&self, off: u64) {
        if self.poison_lines.load(Ordering::Relaxed) != 0 {
            self.raise_on_poison(off, 8);
        }
    }

    /// Record word-granularity overwrites of poisoned lines; once all 8
    /// words of a line have been fully rewritten its poison clears.
    /// Only words *fully covered* by the write count — a partial-word
    /// write merges with unreadable bytes and cannot clear anything.
    #[cold]
    fn note_poison_overwrite(&self, off: u64, len: usize) {
        if len == 0 {
            return;
        }
        let first = off.div_ceil(8);
        let last_excl = (off + len as u64) / 8;
        if first >= last_excl {
            return;
        }
        let mut fill = self.poison_fill_slot();
        for w in first..last_excl {
            let line = (w * 8) & !(CACHELINE as u64 - 1);
            if !self.line_poisoned(line) {
                continue;
            }
            let entry = fill.entry(line).or_insert(0u8);
            *entry |= 1 << ((w * 8 - line) / 8);
            if *entry == 0xFF {
                fill.remove(&line);
                self.clear_poison_bit(line);
            }
        }
    }

    fn clear_poison_bit(&self, line: u64) {
        let l = line / CACHELINE as u64;
        let prev = self.poison[(l / 64) as usize].fetch_and(!(1u64 << (l % 64)), Ordering::Relaxed);
        if prev & (1u64 << (l % 64)) != 0 {
            self.poison_lines.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Scrub the lines covering `[off, off + len)`: zero-fill any
    /// poisoned line in both images and clear its poison. This is what
    /// an allocator does when it consults the bad-block list and
    /// re-initializes a block before handing it out — the old contents
    /// are gone, but the media is usable again.
    pub fn scrub_poison(&self, off: u64, len: usize) {
        if self.poison_lines.load(Ordering::Relaxed) == 0 || len == 0 {
            return;
        }
        let mut line = off & !(CACHELINE as u64 - 1);
        let end = (off + len as u64).min(self.len as u64);
        while line < end {
            if self.line_poisoned(line) {
                let w0 = (line / 8) as usize;
                for j in 0..8 {
                    self.cpu[w0 + j].store(0, Ordering::Relaxed);
                    self.persisted[w0 + j].store(0, Ordering::Relaxed);
                }
                self.poison_fill_slot().remove(&line);
                self.clear_poison_bit(line);
            }
            line += CACHELINE as u64;
        }
    }

    /// Persist one aligned word into the persisted image (8-byte failure
    /// atomicity: words are never torn).
    #[inline]
    fn persist_word(&self, off: u64) {
        let w = (off / 8) as usize;
        self.dirty[w / 64].fetch_and(!(1u64 << (w % 64)), Ordering::Relaxed);
        let v = self.cpu[w].load(Ordering::Relaxed);
        self.persisted[w].store(v, Ordering::Relaxed);
    }

    /// Persist the aligned cache line at `line_off` into the persisted
    /// image: clear its 8 dirty bits in one RMW (a line never straddles
    /// a bitmap atom), then copy its words. Returns whether any word was
    /// dirty.
    #[inline]
    fn persist_line(&self, line_off: u64) -> bool {
        let w0 = (line_off / 8) as usize;
        let mask = 0xFFu64 << (w0 % 64);
        let was = self.dirty[w0 / 64].fetch_and(!mask, Ordering::Relaxed) & mask;
        for w in w0..w0 + CACHELINE / 8 {
            let v = self.cpu[w].load(Ordering::Relaxed);
            self.persisted[w].store(v, Ordering::Relaxed);
        }
        was != 0
    }

    /// Eviction chaos: maybe spontaneously persist the word just written.
    #[inline]
    fn maybe_evict(&self, off: u64) {
        if self.crashed.load(Ordering::Relaxed) {
            return;
        }
        if let Some(seed) = self.cfg.eviction_chaos {
            let n = self.chaos_ctr.fetch_add(1, Ordering::Relaxed);
            // SplitMix64-style mix of (seed, off, n).
            let mut x = seed ^ off.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n;
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            if x & 3 == 0 {
                self.persist_word(off & !7);
            }
        }
    }

    // ----- plain data accesses -------------------------------------------

    /// Load an aligned `u64` (relaxed; pair with your own synchronization).
    #[inline]
    pub fn read_u64(&self, off: u64) -> u64 {
        self.account_read(off, 8);
        self.word(off).load(Ordering::Relaxed)
    }

    /// Store an aligned `u64` (relaxed). Volatile until flushed.
    #[inline]
    pub fn write_u64(&self, off: u64, v: u64) {
        self.account_write(off, 8);
        self.word(off).store(v, Ordering::Relaxed);
        self.maybe_evict(off);
    }

    /// Load an aligned `u64` with an explicit memory ordering.
    #[inline]
    pub fn load_u64(&self, off: u64, order: Ordering) -> u64 {
        self.account_read(off, 8);
        self.word(off).load(order)
    }

    /// Store an aligned `u64` with an explicit memory ordering.
    #[inline]
    pub fn store_u64(&self, off: u64, v: u64, order: Ordering) {
        self.account_write(off, 8);
        self.word(off).store(v, order);
        self.maybe_evict(off);
    }

    /// Compare-and-exchange on an aligned `u64`.
    #[inline]
    pub fn cas_u64(&self, off: u64, current: u64, new: u64) -> Result<u64, u64> {
        self.check_rmw_poison(off);
        self.account_write(off, 8);
        let r = self
            .word(off)
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire);
        if r.is_ok() {
            self.maybe_evict(off);
        }
        r
    }

    /// Atomic fetch-or on an aligned `u64`.
    #[inline]
    pub fn fetch_or_u64(&self, off: u64, bits: u64, order: Ordering) -> u64 {
        self.check_rmw_poison(off);
        self.account_write(off, 8);
        let r = self.word(off).fetch_or(bits, order);
        self.maybe_evict(off);
        r
    }

    /// Atomic fetch-and on an aligned `u64`.
    #[inline]
    pub fn fetch_and_u64(&self, off: u64, bits: u64, order: Ordering) -> u64 {
        self.check_rmw_poison(off);
        self.account_write(off, 8);
        let r = self.word(off).fetch_and(bits, order);
        self.maybe_evict(off);
        r
    }

    /// Atomic fetch-add on an aligned `u64`.
    #[inline]
    pub fn fetch_add_u64(&self, off: u64, v: u64, order: Ordering) -> u64 {
        self.check_rmw_poison(off);
        self.account_write(off, 8);
        let r = self.word(off).fetch_add(v, order);
        self.maybe_evict(off);
        r
    }

    /// Read `dst.len()` bytes starting at `off` (any alignment).
    pub fn read_bytes(&self, off: u64, dst: &mut [u8]) {
        if dst.is_empty() {
            return;
        }
        self.account_read(off, dst.len());
        // One word load per touched word; the first and last word may
        // contribute only some of their bytes.
        let mut o = off;
        let mut i = 0usize;
        while i < dst.len() {
            let w = self.cpu[(o / 8) as usize].load(Ordering::Relaxed);
            let skip = (o % 8) as usize;
            let n = (8 - skip).min(dst.len() - i);
            dst[i..i + n].copy_from_slice(&w.to_le_bytes()[skip..skip + n]);
            o += n as u64;
            i += n;
        }
    }

    /// Write `src` starting at `off` (any alignment). Volatile until
    /// flushed. Unaligned edges use word read-modify-write; concurrent
    /// writers must not share a word, as on real hardware.
    pub fn write_bytes(&self, off: u64, src: &[u8]) {
        if src.is_empty() {
            return;
        }
        self.account_write(off, src.len());
        debug_assert!(
            (off as usize) + src.len() <= self.len,
            "PM write out of bounds"
        );
        let mut o = off;
        let mut i = 0usize;
        // Leading partial word.
        while i < src.len() && !o.is_multiple_of(8) {
            self.rmw_byte(o, src[i]);
            o += 1;
            i += 1;
        }
        // Aligned middle.
        while i + 8 <= src.len() {
            let w = u64::from_le_bytes(src[i..i + 8].try_into().unwrap());
            self.cpu[(o / 8) as usize].store(w, Ordering::Relaxed);
            self.maybe_evict(o);
            o += 8;
            i += 8;
        }
        // Trailing partial word.
        while i < src.len() {
            self.rmw_byte(o, src[i]);
            o += 1;
            i += 1;
        }
    }

    #[inline]
    fn rmw_byte(&self, off: u64, b: u8) {
        let idx = (off / 8) as usize;
        let shift = (off % 8) * 8;
        let w = self.cpu[idx].load(Ordering::Relaxed);
        let w = (w & !(0xffu64 << shift)) | ((b as u64) << shift);
        self.cpu[idx].store(w, Ordering::Relaxed);
        self.maybe_evict(off & !7);
    }

    /// Typed read of a [`PmSafe`] value at an 8-aligned offset.
    pub fn read<T: PmSafe>(&self, off: PmOff<T>) -> T {
        let size = size_of::<T>();
        debug_assert_eq!(size % 8, 0, "PmSafe types must be a multiple of 8 bytes");
        debug_assert!(align_of::<T>() <= 8);
        debug_assert_eq!(off.raw() % 8, 0);
        self.account_read(off.raw(), size);
        let mut buf = MaybeUninit::<T>::uninit();
        let dst = buf.as_mut_ptr() as *mut u64;
        let base = (off.raw() / 8) as usize;
        for i in 0..size / 8 {
            let w = self.cpu[base + i].load(Ordering::Relaxed);
            // SAFETY: dst points at size/8 u64 slots inside `buf`.
            unsafe { dst.add(i).write_unaligned(w) };
        }
        // SAFETY: PmSafe guarantees every bit pattern is a valid T.
        unsafe { buf.assume_init() }
    }

    /// Typed write of a [`PmSafe`] value at an 8-aligned offset.
    /// Volatile until flushed.
    pub fn write<T: PmSafe>(&self, off: PmOff<T>, v: &T) {
        let size = size_of::<T>();
        debug_assert_eq!(size % 8, 0);
        debug_assert_eq!(off.raw() % 8, 0);
        self.account_write(off.raw(), size);
        let src = v as *const T as *const u64;
        let base = (off.raw() / 8) as usize;
        for i in 0..size / 8 {
            // SAFETY: PmSafe guarantees T has no padding, so all bytes
            // are initialized and readable as u64 words.
            let w = unsafe { src.add(i).read_unaligned() };
            self.cpu[base + i].store(w, Ordering::Relaxed);
        }
        self.maybe_evict(off.raw());
    }

    // ----- persistence primitives ----------------------------------------

    /// Write back the cachelines covering `[off, off + len)` to the
    /// persisted image (models `clwb`/`clflushopt` followed by the next
    /// fence; the emulator persists eagerly, which is one of the legal
    /// executions).
    pub fn clwb(&self, off: u64, len: usize) {
        if len == 0 {
            return;
        }
        self.stats.count_clwb();
        if obs::enabled() {
            // Trace before the persistence event so an injected crash
            // still leaves this flush in the flight-recorder tail.
            let start = off & !(CACHELINE as u64 - 1);
            let end = crate::align_up(off + len as u64, CACHELINE as u64).min(self.len as u64);
            let media = if self.cfg.persistence == PersistenceMode::Elided {
                0
            } else {
                Self::blocks_in(start, (end - start) as usize) * MEDIA_BLOCK as u64
            };
            obs::pm_clwb(off, len, media, !self.range_has_dirty_line(start, end));
        }
        if self.persistence_event(PersistEventKind::Clwb) {
            return; // injected crash fired earlier: persisted image frozen
        }
        if self.cfg.persistence == PersistenceMode::Elided {
            return;
        }
        let start = off & !(CACHELINE as u64 - 1);
        let end = crate::align_up(off + len as u64, CACHELINE as u64).min(self.len as u64);
        let mut any_dirty = false;
        let mut line = start;
        while line < end {
            any_dirty |= self.persist_line(line);
            line += CACHELINE as u64;
        }
        // Durability audit: a write-back whose lines were all already
        // clean did no useful work (pmemcheck's "redundant flush").
        if !any_dirty {
            self.stats.count_clwb_redundant();
        }
        let blocks = Self::blocks_in(start, (end - start) as usize);
        self.stats.count_media_write(blocks);
        self.cfg.latency.charge_write(blocks, false);
    }

    /// `clwb` + `sfence`: the common "persist this range" idiom.
    #[inline]
    pub fn persist(&self, off: u64, len: usize) {
        self.clwb(off, len);
        self.sfence();
    }

    /// Non-temporal store of an aligned `u64`: reaches both the CPU image
    /// and the persisted image (durable at the next fence; persisted
    /// eagerly here).
    pub fn ntstore_u64(&self, off: u64, v: u64) {
        self.stats.count_ntstore();
        obs::pm_ntstore(
            off,
            if self.cfg.persistence == PersistenceMode::Real {
                MEDIA_BLOCK as u64
            } else {
                0
            },
        );
        // Trip before the store: at a power cut the instruction never
        // retired, so neither image sees the value.
        let frozen = self.persistence_event(PersistEventKind::Ntstore);
        self.account_write(off, 8);
        self.word(off).store(v, Ordering::Relaxed);
        if frozen {
            return;
        }
        if self.cfg.persistence == PersistenceMode::Real {
            self.persist_word(off);
            self.stats.count_media_write(1);
            self.cfg.latency.charge_write(1, true);
        }
    }

    /// Store fence. Ordering is inherent in the emulator's eager
    /// persistence, so this only counts (and compiles to a real fence so
    /// cross-thread orderings hold).
    #[inline]
    pub fn sfence(&self) {
        self.stats.count_fence();
        obs::pm_fence();
        self.persistence_event(PersistEventKind::Sfence);
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Group-durability commit point for batched serving layers: issue
    /// one store fence and return the pool's persistence-event epoch at
    /// the commit, so callers can correlate an ack batch with the
    /// boundary sweep (`arm_crash_after` counts the same events).
    #[inline]
    pub fn fence_epoch(&self) -> u64 {
        self.sfence();
        self.persist_event_count()
    }

    // ----- root area -------------------------------------------------------

    /// Read root-area slot `slot` (8 bytes each, `slot < 512`).
    #[inline]
    pub fn read_root(&self, slot: u64) -> u64 {
        assert!(slot * 8 < ROOT_AREA, "root slot out of range");
        self.read_u64(slot * 8)
    }

    /// Write and persist root-area slot `slot`.
    pub fn write_root(&self, slot: u64, v: u64) {
        assert!(slot * 8 < ROOT_AREA, "root slot out of range");
        self.write_u64(slot * 8, v);
        self.persist(slot * 8, 8);
    }

    // ----- crash simulation ------------------------------------------------

    /// Simulate a power failure: the CPU image is replaced by the
    /// persisted image, discarding every store that was not flushed.
    ///
    /// The pool must be quiesced (no concurrent accesses); this is a
    /// testing facility, mirroring how one would power-cycle a machine,
    /// not something a live workload can race with.
    pub fn crash(&self) {
        for i in 0..self.cpu.len() {
            let v = self.persisted[i].load(Ordering::Relaxed);
            self.cpu[i].store(v, Ordering::Relaxed);
        }
        // Power-cycle semantics: the injection state dies with the CPU
        // image. The captured crash report survives for inspection, and
        // poison survives too — media errors outlive power cycles.
        self.armed.store(0, Ordering::Relaxed);
        self.crashed.store(false, Ordering::Relaxed);
        self.halted.store(false, Ordering::Relaxed);
        *self.residual_slot() = None;
        self.clear_all_dirty();
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Testing helper: force the entire CPU image to be persisted, as if
    /// every line had been flushed. Useful to establish a clean durable
    /// baseline after a prefill without paying per-line flush costs.
    pub fn persist_all(&self) {
        for i in 0..self.cpu.len() {
            let v = self.cpu[i].load(Ordering::Relaxed);
            self.persisted[i].store(v, Ordering::Relaxed);
        }
        self.clear_all_dirty();
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    // ----- statistics --------------------------------------------------------

    /// Aggregate counters since creation or the last [`PmPool::reset_stats`].
    pub fn stats(&self) -> PmStatsSnapshot {
        self.stats.snapshot()
    }

    /// Zero all counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }
}

impl std::fmt::Debug for PmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmPool")
            .field("len", &self.len)
            .field("persistence", &self.cfg.persistence)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PmConfig;

    fn pool(len: usize) -> PmPool {
        PmPool::new(len, PmConfig::real())
    }

    #[test]
    fn u64_roundtrip() {
        let p = pool(4096 + 1024);
        p.write_u64(ROOT_AREA, 0xDEAD_BEEF);
        assert_eq!(p.read_u64(ROOT_AREA), 0xDEAD_BEEF);
    }

    #[test]
    fn bytes_roundtrip_unaligned() {
        let p = pool(8192);
        let src: Vec<u8> = (0..100).collect();
        p.write_bytes(ROOT_AREA + 3, &src);
        let mut dst = vec![0u8; 100];
        p.read_bytes(ROOT_AREA + 3, &mut dst);
        assert_eq!(src, dst);
        // Neighbouring bytes untouched.
        let mut edge = [0u8; 1];
        p.read_bytes(ROOT_AREA + 2, &mut edge);
        assert_eq!(edge[0], 0);
    }

    #[test]
    fn typed_roundtrip() {
        #[repr(C)]
        #[derive(Copy, Clone, PartialEq, Debug)]
        struct Rec {
            k: u64,
            v: u64,
        }
        unsafe impl PmSafe for Rec {}
        let p = pool(8192);
        let off: PmOff<Rec> = PmOff::new(ROOT_AREA + 64);
        p.write(off, &Rec { k: 7, v: 9 });
        assert_eq!(p.read(off), Rec { k: 7, v: 9 });
    }

    #[test]
    fn unflushed_data_does_not_survive_crash() {
        let p = pool(8192);
        // Distinct cachelines: clwb of the first must not persist the second.
        p.write_u64(ROOT_AREA, 1);
        p.write_u64(ROOT_AREA + CACHELINE as u64, 2);
        p.persist(ROOT_AREA, 8); // only the first line
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 1);
        assert_eq!(
            p.read_u64(ROOT_AREA + CACHELINE as u64),
            0,
            "unflushed store must vanish"
        );
    }

    #[test]
    fn clwb_persists_whole_cachelines() {
        let p = pool(8192);
        // Two words in the same cacheline; flushing a 1-byte range still
        // writes back the whole line.
        p.write_u64(ROOT_AREA, 10);
        p.write_u64(ROOT_AREA + 8, 20);
        p.persist(ROOT_AREA + 8, 1);
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 10);
        assert_eq!(p.read_u64(ROOT_AREA + 8), 20);
    }

    #[test]
    fn ntstore_is_durable() {
        let p = pool(8192);
        p.ntstore_u64(ROOT_AREA, 42);
        p.sfence();
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 42);
    }

    #[test]
    fn crash_is_idempotent_and_repeatable() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 5);
        p.persist(ROOT_AREA, 8);
        p.write_u64(ROOT_AREA, 6); // not persisted
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 5);
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 5);
    }

    #[test]
    fn elided_mode_skips_shadow() {
        let p = PmPool::new(8192, PmConfig::dram());
        p.write_u64(ROOT_AREA, 9);
        p.persist(ROOT_AREA, 8);
        // In DRAM mode the persisted image is never updated...
        p.crash();
        // ...so a crash wipes even "persisted" data back to zero.
        assert_eq!(p.read_u64(ROOT_AREA), 0);
        // But stats still counted the instructions.
        let s = p.stats();
        assert_eq!(s.clwb, 1);
        assert_eq!(s.fence, 1);
    }

    #[test]
    fn stats_media_granularity() {
        let p = pool(1 << 20);
        p.reset_stats();
        // Read one u64: one media block (cold cache).
        let target = 512 * 1024;
        p.read_u64(target);
        let s = p.stats();
        assert_eq!(s.read_ops, 1);
        assert_eq!(s.read_bytes, 8);
        assert_eq!(s.media_read_bytes, MEDIA_BLOCK as u64);
        // Second read of the same block: cache hit, no extra media traffic.
        p.read_u64(target + 8);
        let s2 = p.stats();
        assert_eq!(s2.media_read_bytes, MEDIA_BLOCK as u64);
        assert_eq!(s2.read_bytes, 16);
    }

    #[test]
    fn flush_media_write_accounting() {
        let p = pool(1 << 20);
        p.reset_stats();
        p.write_u64(ROOT_AREA, 1);
        p.persist(ROOT_AREA, 8);
        let s = p.stats();
        assert_eq!(s.media_write_bytes, MEDIA_BLOCK as u64);
        // A flush spanning two media blocks counts both.
        p.write_bytes(MEDIA_BLOCK as u64 * 8 - 4, &[1u8; 8]);
        p.persist(MEDIA_BLOCK as u64 * 8 - 4, 8);
        let s2 = p.stats();
        assert_eq!(s2.media_write_bytes, 3 * MEDIA_BLOCK as u64);
    }

    #[test]
    fn root_slots() {
        let p = pool(8192);
        p.write_root(3, 777);
        p.crash();
        assert_eq!(p.read_root(3), 777);
    }

    #[test]
    #[should_panic(expected = "root slot out of range")]
    fn root_slot_bounds() {
        let p = pool(8192);
        p.write_root(512, 1);
    }

    #[test]
    fn eviction_chaos_persists_some_unflushed_words() {
        let p = PmPool::new(1 << 16, PmConfig::real().with_eviction_chaos(42));
        for i in 0..1000u64 {
            p.write_u64(ROOT_AREA + i * 8, i + 1);
        }
        p.crash();
        let survived = (0..1000u64)
            .filter(|&i| p.read_u64(ROOT_AREA + i * 8) != 0)
            .count();
        // Roughly a quarter should have been spontaneously evicted:
        // definitely some, definitely not all.
        assert!(survived > 50, "survived={survived}");
        assert!(survived < 950, "survived={survived}");
    }

    #[test]
    fn concurrent_counting_and_access() {
        let p = std::sync::Arc::new(pool(1 << 20));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let p = p.clone();
                std::thread::spawn(move || {
                    let base = ROOT_AREA + t * 65536;
                    for i in 0..1000u64 {
                        p.write_u64(base + i * 8, i);
                        p.persist(base + i * 8, 8);
                    }
                    for i in 0..1000u64 {
                        assert_eq!(p.read_u64(base + i * 8), i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = p.stats();
        assert_eq!(s.write_ops, 4000);
        assert_eq!(s.read_ops, 4000);
        assert_eq!(s.clwb, 4000);
    }

    #[test]
    fn clwb_clamps_at_pool_end() {
        let p = pool(4096 + 256);
        let last = p.len() as u64 - 8;
        p.write_u64(last, 77);
        // Flush range extends past the end; must clamp, not panic.
        p.persist(last, 8);
        p.crash();
        assert_eq!(p.read_u64(last), 77);
    }

    #[test]
    fn empty_byte_ops_are_noops() {
        let p = pool(8192);
        p.write_bytes(ROOT_AREA, &[]);
        let mut buf = [0u8; 0];
        p.read_bytes(ROOT_AREA, &mut buf);
        p.clwb(ROOT_AREA, 0);
        assert_eq!(p.stats().clwb, 0, "zero-length clwb not counted");
    }

    #[test]
    fn persist_all_snapshots_everything() {
        let p = pool(8192);
        for i in 0..64u64 {
            p.write_u64(ROOT_AREA + i * 8, i + 1);
        }
        p.persist_all();
        p.write_u64(ROOT_AREA, 999); // unflushed overwrite
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 1);
        assert_eq!(p.read_u64(ROOT_AREA + 63 * 8), 64);
    }

    #[test]
    fn pool_len_rounds_to_media_block() {
        let p = PmPool::new(1000, PmConfig::real());
        assert_eq!(p.len() % MEDIA_BLOCK, 0);
        assert!(p.len() >= 1000);
        assert!(!p.is_empty());
    }

    #[test]
    fn dirty_tracking_counts_unflushed_words() {
        let p = pool(8192);
        assert_eq!(p.dirty_word_count(), 0);
        p.write_u64(ROOT_AREA, 1);
        p.write_u64(ROOT_AREA + 8, 2); // same cache line
        p.write_u64(ROOT_AREA + 128, 3); // different line
        assert_eq!(p.dirty_word_count(), 3);
        assert_eq!(p.dirty_line_count(), 2);
        assert_eq!(p.dirty_line_offsets(8), vec![ROOT_AREA, ROOT_AREA + 128]);
        p.persist(ROOT_AREA, 8); // flushes the whole first line
        assert_eq!(p.dirty_word_count(), 1);
        assert_eq!(p.dirty_line_count(), 1);
        p.crash();
        assert_eq!(p.dirty_word_count(), 0, "crash discards dirty state");
    }

    #[test]
    fn redundant_clwb_is_audited() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 1);
        p.persist(ROOT_AREA, 8);
        assert_eq!(p.stats().clwb_redundant, 0);
        p.persist(ROOT_AREA, 8); // nothing dirty: redundant
        let s = p.stats();
        assert_eq!(s.clwb, 2);
        assert_eq!(s.clwb_redundant, 1);
        // A new store makes the next flush useful again.
        p.write_u64(ROOT_AREA, 2);
        p.persist(ROOT_AREA, 8);
        assert_eq!(p.stats().clwb_redundant, 1);
    }

    #[test]
    fn ntstore_leaves_no_dirt() {
        let p = pool(8192);
        p.ntstore_u64(ROOT_AREA, 42);
        assert_eq!(p.dirty_word_count(), 0);
    }

    #[test]
    fn armed_crash_fires_at_exact_event_and_freezes_pool() {
        let p = pool(8192);
        // Three persistence events per loop iteration: clwb + sfence
        // (via persist) on distinct lines, then an ntstore.
        p.arm_crash_after(5);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..10u64 {
                let off = ROOT_AREA + i * 64;
                p.write_u64(off, i + 1);
                p.persist(off, 8); // events 1+2, 4+5, ...
                p.ntstore_u64(off + 8, 100 + i); // events 3, 6, ...
            }
        }));
        let payload = result.expect_err("crash point must fire");
        assert!(
            payload.downcast_ref::<crate::CrashPointHit>().is_some(),
            "panic payload must be CrashPointHit"
        );
        assert!(p.crash_fired());
        let report = p.crash_report().expect("report captured");
        assert_eq!(report.event_index, 5);
        assert_eq!(report.trigger, crate::PersistEventKind::Sfence);
        // Iteration 0 fully persisted; iteration 1's clwb (event 4)
        // persisted its line but the fence (event 5) was the trip; the
        // second iteration's ntstore never ran.
        assert_eq!(report.dirty_words, 0, "clwb already cleaned the line");
        // While frozen, persistence is suppressed.
        p.write_u64(ROOT_AREA + 1024, 7);
        p.persist(ROOT_AREA + 1024, 8);
        p.ntstore_u64(ROOT_AREA + 1032, 8);
        p.crash();
        assert_eq!(
            p.read_u64(ROOT_AREA + 1024),
            0,
            "frozen clwb must not persist"
        );
        assert_eq!(
            p.read_u64(ROOT_AREA + 1032),
            0,
            "frozen ntstore must not persist"
        );
        // Pre-crash durable state survived; post-trip events did not.
        assert_eq!(p.read_u64(ROOT_AREA), 1);
        assert_eq!(p.read_u64(ROOT_AREA + 8), 100);
        assert_eq!(
            p.read_u64(ROOT_AREA + 64),
            2,
            "clwb before the fatal fence persisted"
        );
        assert!(!p.crash_fired(), "crash() clears the frozen state");
        assert!(p.crash_report().is_some(), "report survives crash()");
    }

    #[test]
    fn crash_on_ntstore_suppresses_the_store() {
        let p = pool(8192);
        p.arm_crash_after(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.ntstore_u64(ROOT_AREA, 99);
        }));
        assert!(result.is_err());
        assert_eq!(
            p.crash_report().unwrap().trigger,
            crate::PersistEventKind::Ntstore
        );
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 0, "fatal ntstore never retired");
    }

    #[test]
    fn disarm_cancels_pending_crash() {
        let p = pool(8192);
        p.arm_crash_after(3);
        p.write_u64(ROOT_AREA, 1);
        p.persist(ROOT_AREA, 8); // events 1, 2
        assert_eq!(p.crash_events_remaining(), 1);
        p.disarm_crash();
        p.persist(ROOT_AREA, 8); // would have been the fatal event
        assert!(!p.crash_fired());
        assert!(p.crash_report().is_none());
    }

    #[test]
    fn chaos_eviction_is_disabled_while_frozen() {
        let p = PmPool::new(1 << 16, PmConfig::real().with_eviction_chaos(7));
        p.arm_crash_after(1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.sfence()));
        assert!(p.crash_fired());
        // A storm of unflushed writes while frozen: none may persist.
        for i in 0..1000u64 {
            p.write_u64(ROOT_AREA + i * 8, i + 1);
        }
        p.crash();
        for i in 0..1000u64 {
            assert_eq!(p.read_u64(ROOT_AREA + i * 8), 0);
        }
    }

    #[test]
    fn event_counter_is_monotonic_and_probe_friendly() {
        let p = pool(8192);
        let base = p.persist_event_count();
        p.write_u64(ROOT_AREA, 1);
        p.persist(ROOT_AREA, 8);
        p.ntstore_u64(ROOT_AREA + 64, 2);
        p.sfence();
        assert_eq!(p.persist_event_count() - base, 4);
    }

    #[test]
    fn cas_and_fetch_ops() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 10);
        assert_eq!(p.cas_u64(ROOT_AREA, 10, 11), Ok(10));
        assert_eq!(p.cas_u64(ROOT_AREA, 10, 12), Err(11));
        assert_eq!(p.fetch_or_u64(ROOT_AREA, 0x100, Ordering::AcqRel), 11);
        assert_eq!(p.fetch_and_u64(ROOT_AREA, 0xff, Ordering::AcqRel), 0x10b);
        assert_eq!(p.fetch_add_u64(ROOT_AREA, 1, Ordering::AcqRel), 0x0b);
        assert_eq!(p.read_u64(ROOT_AREA), 0x0c);
    }

    #[test]
    fn crash_with_subset_keeps_exactly_the_masked_lines() {
        let p = pool(8192);
        // Three dirty lines, none flushed.
        p.write_u64(ROOT_AREA, 1);
        p.write_u64(ROOT_AREA + 64, 2);
        p.write_u64(ROOT_AREA + 128, 3);
        assert_eq!(p.residual_candidates().len(), 3);
        // Keep only the middle line (candidates are recency-ordered,
        // so bit 1 is the second-most-recent write: ROOT_AREA + 64).
        let n = p.crash_with(crate::ResidualPolicy::Subset { mask: 0b010 });
        assert_eq!(n, 3);
        assert_eq!(p.read_u64(ROOT_AREA), 0, "unselected line vanished");
        assert_eq!(p.read_u64(ROOT_AREA + 64), 2, "selected line persisted");
        assert_eq!(p.read_u64(ROOT_AREA + 128), 0);
        // The applied line is durable: a second plain crash keeps it.
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA + 64), 2);
    }

    #[test]
    fn crash_with_frozen_matches_plain_crash() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 7);
        p.persist(ROOT_AREA, 8);
        p.write_u64(ROOT_AREA + 64, 8); // dirty, unflushed
        p.crash_with(crate::ResidualPolicy::Frozen);
        assert_eq!(p.read_u64(ROOT_AREA), 7);
        assert_eq!(p.read_u64(ROOT_AREA + 64), 0);
    }

    #[test]
    fn sampled_residual_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<u64> {
            let p = pool(1 << 16);
            for i in 0..64u64 {
                p.write_u64(ROOT_AREA + i * 64, i + 1);
            }
            p.crash_with(crate::ResidualPolicy::Sampled {
                seed,
                p_per_256: 128,
            });
            (0..64u64).map(|i| p.read_u64(ROOT_AREA + i * 64)).collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed, same residual image");
        assert_ne!(a, c, "different seed, different subset");
        let survived = a.iter().filter(|&&v| v != 0).count();
        assert!(survived > 8 && survived < 56, "p=50%: survived={survived}");
    }

    #[test]
    fn residual_candidates_are_ordered_most_recent_first() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 1); // line A, oldest write...
        p.write_u64(ROOT_AREA + 64, 2); // line B
        p.write_u64(ROOT_AREA + 128, 3); // line C
        p.write_u64(ROOT_AREA + 8, 4); // ...but A is rewritten last
        let offs: Vec<u64> = p.residual_candidates().iter().map(|l| l.off).collect();
        assert_eq!(offs, vec![ROOT_AREA, ROOT_AREA + 128, ROOT_AREA + 64]);
        // Flushing a line removes it without disturbing the order.
        p.persist(ROOT_AREA + 128, 8);
        let offs: Vec<u64> = p.residual_candidates().iter().map(|l| l.off).collect();
        assert_eq!(offs, vec![ROOT_AREA, ROOT_AREA + 64]);
    }

    #[test]
    fn residual_candidates_are_frozen_at_the_trip_instant() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 1); // dirty at trip time
        p.arm_crash_after(1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.sfence()));
        assert!(p.crash_fired());
        // Post-trip stores (e.g. from unwinding destructors) must not
        // enter the candidate set: they never happened.
        p.write_u64(ROOT_AREA + 512, 99);
        let cands = p.residual_candidates();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].off, ROOT_AREA);
        assert_eq!(cands[0].words[0], 1);
    }

    #[test]
    fn snapshot_restore_roundtrip_resets_everything() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 5);
        p.persist(ROOT_AREA, 8);
        let img = p.snapshot_persisted();
        p.write_u64(ROOT_AREA, 6);
        p.persist(ROOT_AREA, 8);
        p.write_u64(ROOT_AREA + 64, 7); // leave dirt
        p.poison_line(ROOT_AREA + 128);
        p.restore_persisted(&img);
        assert_eq!(p.read_u64(ROOT_AREA), 5, "snapshot image restored");
        assert_eq!(p.dirty_word_count(), 0, "restore clears dirt");
        assert_eq!(p.poisoned_line_count(), 0, "restore clears poison");
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 5, "restored image is durable");
    }

    #[test]
    fn poisoned_read_raises_and_check_readable_reports() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA + 256, 11);
        p.persist(ROOT_AREA + 256, 8);
        p.poison_line(ROOT_AREA + 256);
        assert_eq!(p.poisoned_line_count(), 1);
        let err = p
            .check_readable(ROOT_AREA, 1024)
            .expect_err("range covers the poisoned line");
        assert_eq!(err.off, ROOT_AREA + 256);
        assert!(p.check_readable(ROOT_AREA, 64).is_ok());
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.read_u64(ROOT_AREA + 256)));
        let payload = r.expect_err("read of poisoned line must raise");
        let mce = payload
            .downcast_ref::<crate::PoisonedRead>()
            .expect("payload is PoisonedRead");
        assert_eq!(mce.off, ROOT_AREA + 256);
        // CAS is a consuming read too.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.cas_u64(ROOT_AREA + 256, 0, 1);
        }));
        assert!(r.is_err(), "RMW on poisoned line must raise");
    }

    #[test]
    fn poison_survives_crash_and_clears_on_full_rewrite() {
        let p = pool(8192);
        p.poison_line(ROOT_AREA + 64);
        p.crash();
        assert_eq!(
            p.poisoned_line_count(),
            1,
            "media errors outlive power cycles"
        );
        // Partial rewrite: still poisoned.
        for j in 0..7u64 {
            p.write_u64(ROOT_AREA + 64 + j * 8, j);
        }
        assert_eq!(p.poisoned_line_count(), 1);
        assert!(p.check_readable(ROOT_AREA + 64, 64).is_err());
        // Final word completes the line: poison clears, data readable.
        p.write_u64(ROOT_AREA + 64 + 56, 7);
        assert_eq!(p.poisoned_line_count(), 0);
        assert!(p.check_readable(ROOT_AREA + 64, 64).is_ok());
        assert_eq!(p.read_u64(ROOT_AREA + 64), 0);
    }

    #[test]
    fn scrub_poison_zero_fills_and_clears() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA + 128, 33);
        p.persist(ROOT_AREA + 128, 8);
        p.poison_line(ROOT_AREA + 128);
        p.scrub_poison(ROOT_AREA + 128, 8);
        assert_eq!(p.poisoned_line_count(), 0);
        assert_eq!(p.read_u64(ROOT_AREA + 128), 0, "scrub zero-fills");
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA + 128), 0, "scrub reaches media");
    }

    // ----- block-cache model ---------------------------------------------

    /// Media blocks read so far: every modelled cache miss reads one.
    fn blocks_read(p: &PmPool) -> u64 {
        p.stats().media_read_bytes / MEDIA_BLOCK as u64
    }

    /// Offset of media block `block` (cache slot `block % 512`).
    fn block_at(block: u64) -> u64 {
        block * MEDIA_BLOCK as u64
    }

    #[test]
    fn block_cache_rereading_a_block_hits() {
        let p = pool(1 << 20);
        let b = block_at(100);
        p.read_u64(b);
        p.read_u64(b + 8);
        p.read_u64(b + 248);
        assert_eq!(blocks_read(&p), 1);
    }

    #[test]
    fn block_cache_blocks_one_cache_size_apart_evict_each_other() {
        let p = pool(1 << 20);
        let b = block_at(7);
        let alias = block_at(7 + BLOCK_CACHE_SLOTS as u64);
        p.read_u64(b);
        p.read_u64(alias);
        p.read_u64(b);
        assert_eq!(blocks_read(&p), 3, "same slot: each read evicts the other");
        p.read_u64(b);
        assert_eq!(blocks_read(&p), 3);
    }

    #[test]
    fn block_cache_does_not_alias_across_pools() {
        let a = pool(1 << 16);
        let b = pool(1 << 16);
        let off = block_at(20);
        a.read_u64(off);
        b.read_u64(off);
        assert_eq!(
            blocks_read(&b),
            1,
            "pool a's resident block is no hit for b"
        );
        b.read_u64(off);
        assert_eq!(blocks_read(&b), 1);
        // Both map to one slot, so b's fill evicted a's block.
        a.read_u64(off);
        assert_eq!(blocks_read(&a), 2);
    }

    #[test]
    fn block_cache_is_per_thread() {
        let p = pool(1 << 16);
        let off = block_at(30);
        p.read_u64(off);
        p.read_u64(off);
        assert_eq!(blocks_read(&p), 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                p.read_u64(off);
                p.read_u64(off);
            });
        });
        assert_eq!(blocks_read(&p), 2, "a second thread starts cold");
    }

    #[test]
    fn block_cache_write_allocates() {
        let p = pool(1 << 16);
        let off = block_at(40);
        p.write_u64(off + 16, 1);
        p.read_u64(off);
        assert_eq!(blocks_read(&p), 0, "a written block is resident");
        // A multi-block write allocates every block it touches.
        p.write_bytes(block_at(50) + 200, &[7u8; 100]);
        p.read_u64(block_at(50));
        p.read_u64(block_at(51));
        assert_eq!(blocks_read(&p), 0);
    }

    #[test]
    fn block_cache_counts_every_block_a_read_spans() {
        let p = pool(1 << 16);
        let mut buf = [0u8; 8];
        p.read_bytes(block_at(61) - 4, &mut buf);
        assert_eq!(blocks_read(&p), 2);
        let mut big = [0u8; 600];
        p.read_bytes(block_at(70) + 100, &mut big); // blocks 70, 71, 72
        assert_eq!(blocks_read(&p), 5);
        // Only the block not yet resident misses.
        p.read_bytes(block_at(72) + 8, &mut big); // blocks 72, 73, 74
        assert_eq!(blocks_read(&p), 7);
    }

    // ----- byte copies and line persistence --------------------------------

    #[test]
    fn byte_roundtrip_at_every_alignment_and_short_length() {
        let p = pool(8192);
        let base = ROOT_AREA;
        for align in 0..8u64 {
            for len in 1..=24usize {
                // Background pattern around the target range.
                let mut model: Vec<u8> = (0..48u8).map(|b| b ^ 0xA5).collect();
                for (w, chunk) in model.chunks(8).enumerate() {
                    p.write_u64(
                        base + w as u64 * 8,
                        u64::from_le_bytes(chunk.try_into().unwrap()),
                    );
                }
                let src: Vec<u8> = (0..len)
                    .map(|j| (align as u8 * 31) ^ (j as u8 + 1))
                    .collect();
                let at = 8 + align as usize;
                p.write_bytes(base + at as u64, &src);
                model[at..at + len].copy_from_slice(&src);
                let mut exact = vec![0u8; len];
                p.read_bytes(base + at as u64, &mut exact);
                assert_eq!(exact, src, "align {align} len {len}");
                // Every window start/length over the region reads the model.
                for start in 0..16usize {
                    let mut got = vec![0u8; len + 8];
                    p.read_bytes(base + start as u64, &mut got);
                    assert_eq!(
                        got,
                        model[start..start + len + 8],
                        "align {align} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn clwb_clears_exactly_the_covered_lines() {
        let p = pool(8192);
        let base = ROOT_AREA;
        let line = |i: u64| base + i * CACHELINE as u64;
        // Two dirty words in each of six consecutive lines.
        for i in 0..6 {
            p.write_u64(line(i) + 8, i);
            p.write_u64(line(i) + 56, i);
        }
        assert_eq!(p.dirty_word_count(), 12);
        // Partial range inside line 1 flushes all of line 1, nothing else.
        p.clwb(line(1) + 10, 5);
        assert_eq!(
            p.dirty_line_offsets(8),
            vec![line(0), line(2), line(3), line(4), line(5)]
        );
        // Unaligned multi-line range [line2 + 60, line4 + 60) covers 2..=4.
        p.clwb(line(2) + 60, 2 * CACHELINE);
        assert_eq!(p.dirty_line_offsets(8), vec![line(0), line(5)]);
        assert_eq!(p.dirty_word_count(), 4);
        p.crash();
        for i in 1..5 {
            assert_eq!(p.read_u64(line(i) + 8), i, "flushed line {i} persisted");
            assert_eq!(p.read_u64(line(i) + 56), i);
        }
        assert_eq!(p.read_u64(line(5) + 8), 0, "unflushed line vanished");
    }

    #[test]
    fn redundant_clwb_audit_over_multi_line_ranges() {
        let p = pool(8192);
        let base = ROOT_AREA;
        p.write_u64(base + 64, 1); // only the middle of three lines dirty
        p.clwb(base, 3 * CACHELINE);
        assert_eq!(
            p.stats().clwb_redundant,
            0,
            "one dirty line makes it useful"
        );
        p.clwb(base, 3 * CACHELINE);
        p.clwb(base + 100, 1);
        assert_eq!(p.stats().clwb_redundant, 2, "all lines clean: redundant");
        p.write_u64(base + 128, 2);
        p.clwb(base + 60, 80); // lines 0..=2, line 2 dirty
        let s = p.stats();
        assert_eq!((s.clwb, s.clwb_redundant), (4, 2));
        assert_eq!(s.media_write_bytes, 4 * MEDIA_BLOCK as u64);
    }

    #[test]
    fn halt_on_crash_unwinds_later_accesses() {
        let p = pool(8192);
        p.set_halt_on_crash(true);
        p.arm_crash_after(1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.sfence()));
        assert!(p.is_halted());
        // Any PM access from a non-panicking thread now unwinds: the
        // device is gone.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.read_u64(ROOT_AREA)));
        assert!(
            r.unwrap_err()
                .downcast_ref::<crate::CrashPointHit>()
                .is_some(),
            "halted access unwinds with CrashPointHit"
        );
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.write_u64(ROOT_AREA, 1)));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.sfence()));
        assert!(r.is_err());
        // The harness lifts the halt before dropping front-ends.
        p.set_halt_on_crash(false);
        assert!(!p.is_halted());
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 0);
    }
}
