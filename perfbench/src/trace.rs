//! Outside-in layer timing.
//!
//! [`Traced`] is a [`RangeIndex`] wrapper placed at a layer boundary:
//! every call through it opens a span on the calling thread, and the
//! span is closed when the inner call returns. Spans nest on a
//! per-thread stack, so a span's *self* time is its duration minus the
//! durations of the spans opened inside it. All spans of one top-level
//! call share a request id.
//!
//! Counts and times are accumulated for every call; full span records
//! (name, start, end, parent, request id) are kept for one request in
//! [`SAMPLE_EVERY`], in per-thread memory, and written out at the end
//! with [`write_chrome_trace`].
//!
//! Untraced runs build the stack without any wrapper, so none of this
//! code runs there.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use index_api::{Footprint, Key, RangeIndex, Value};
use pibench::workload::OpKind;

/// The boundaries a span can be recorded at, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The harness's own span around one call into the stack.
    Op = 0,
    /// A call into `cache::CachedIndex`.
    Cache = 1,
    /// A call into `engine::ShardedIndex`.
    Engine = 2,
    /// A call into one shard's `fptree::FpTree`.
    Fptree = 3,
}

pub const LAYERS: usize = 4;
const LAYER_NAMES: [&str; LAYERS] = ["op", "cache", "engine", "fptree"];
pub const KINDS: usize = 5;

/// One request in this many keeps its full span records.
pub const SAMPLE_EVERY: u64 = 64;
/// Span records kept per thread at most.
const SPAN_CAP: usize = 1 << 14;

/// Per layer and op kind: calls, summed duration, summed child time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Acc {
    pub calls: u64,
    pub total_ns: u64,
    pub child_ns: u64,
}

impl Acc {
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    fn add(&mut self, o: &Acc) {
        self.calls += o.calls;
        self.total_ns += o.total_ns;
        self.child_ns += o.child_ns;
    }
}

/// Accumulators summed over every thread that recorded spans.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub acc: [[Acc; KINDS]; LAYERS],
}

impl Totals {
    /// One layer summed over all op kinds.
    pub fn layer(&self, l: Layer) -> Acc {
        let mut a = Acc::default();
        for k in &self.acc[l as usize] {
            a.add(k);
        }
        a
    }

    pub fn get(&self, l: Layer, k: OpKind) -> Acc {
        self.acc[l as usize][k as usize]
    }

    /// Mean span duration at `l` over calls of the given kinds (0 when
    /// there were none).
    pub fn mean_ns(&self, l: Layer, kinds: &[OpKind]) -> f64 {
        let (mut ns, mut calls) = (0, 0);
        for &k in kinds {
            ns += self.get(l, k).total_ns;
            calls += self.get(l, k).calls;
        }
        crate::ratio(ns as f64, calls as f64)
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    req: u64,
    layer: u8,
    kind: u8,
    parent: u32,
    /// Timestamps in ticks.
    start: u64,
    end: u64,
}

const NO_PARENT: u32 = u32::MAX;

/// One thread's records (times in ticks). Only the owning thread writes the counters
/// (plain load + store, no read-modify-write); they are read after the
/// thread has been joined.
struct Slot {
    tid: u64,
    acc: [AtomicU64; LAYERS * KINDS * 3],
    spans: Mutex<Vec<Span>>,
}

impl Slot {
    #[inline]
    fn bump(&self, i: usize, d: u64) {
        let c = &self.acc[i];
        c.store(c.load(Ordering::Relaxed) + d, Ordering::Relaxed);
    }
}

/// An open span; times in ticks.
struct Frame {
    layer: u8,
    kind: u8,
    start: u64,
    child: u64,
    span: u32,
}

struct Local {
    epoch: u64,
    slot: Option<Arc<Slot>>,
    stack: Vec<Frame>,
    next_req: u64,
    req: u64,
    sampled: bool,
}

static REGISTRY: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());
static EPOCH: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            epoch: 0,
            slot: None,
            stack: Vec::new(),
            next_req: 0,
            req: 0,
            sampled: false,
        })
    };
}

/// A cheap timestamp: the CPU's time-stamp counter, about half the cost
/// of `Instant::now` here. Converted to ns with [`ns_per_tick`].
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn ticks() -> u64 {
    // SAFETY: `rdtsc` only reads the time-stamp counter; it has no
    // preconditions and every x86_64 CPU has it.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn ticks() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds per tick, measured once against `Instant` over 20 ms.
fn ns_per_tick() -> f64 {
    static NS: OnceLock<f64> = OnceLock::new();
    *NS.get_or_init(|| {
        let (i0, t0) = (Instant::now(), ticks());
        std::thread::sleep(std::time::Duration::from_millis(20));
        let (i1, t1) = (Instant::now(), ticks());
        (i1 - i0).as_nanos() as f64 / (t1 - t0).max(1) as f64
    })
}

/// Convert a tick count to nanoseconds.
pub fn ticks_to_ns(ticks: u64) -> u64 {
    (ticks as f64 * ns_per_tick()) as u64
}

/// Forget every record so far; the next span on each thread registers
/// a fresh slot. Call while no traced call is in flight.
pub fn reset() {
    ns_per_tick();
    REGISTRY.lock().expect("trace registry poisoned").clear();
    EPOCH.fetch_add(1, Ordering::SeqCst);
}

/// Make sure this thread has a slot in the current registry.
fn register(l: &mut Local) {
    let epoch = EPOCH.load(Ordering::Relaxed);
    if l.epoch != epoch || l.slot.is_none() {
        let slot = Arc::new(Slot {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            acc: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::new(Vec::new()),
        });
        REGISTRY
            .lock()
            .expect("trace registry poisoned")
            .push(slot.clone());
        l.slot = Some(slot);
        l.epoch = epoch;
        l.stack.clear();
    }
}

#[inline]
fn enter(layer: Layer, kind: OpKind) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        register(&mut l);
        if l.stack.is_empty() {
            l.req = l.next_req;
            l.next_req += 1;
            l.sampled = l.req % SAMPLE_EVERY == 0;
        }
        let mut span = NO_PARENT;
        let l = &mut *l;
        let slot = l.slot.as_ref().expect("registered above");
        if l.sampled {
            let parent = l.stack.last().map_or(NO_PARENT, |f| f.span);
            let mut spans = slot.spans.lock().expect("span buffer poisoned");
            if spans.len() < SPAN_CAP {
                span = spans.len() as u32;
                spans.push(Span {
                    req: l.req,
                    layer: layer as u8,
                    kind: kind as u8,
                    parent,
                    start: 0,
                    end: 0,
                });
            }
        }
        let start = ticks();
        if span != NO_PARENT {
            slot.spans.lock().expect("span buffer poisoned")[span as usize].start = start;
        }
        l.stack.push(Frame {
            layer: layer as u8,
            kind: kind as u8,
            start,
            child: 0,
            span,
        });
    });
}

#[inline]
fn exit() {
    let end = ticks();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let f = l.stack.pop().expect("span exit without enter");
        let dur = end - f.start;
        let slot = l.slot.as_ref().expect("span exit before registration");
        let i = (f.layer as usize * KINDS + f.kind as usize) * 3;
        slot.bump(i, 1);
        slot.bump(i + 1, dur);
        slot.bump(i + 2, f.child);
        if f.span != NO_PARENT {
            slot.spans.lock().expect("span buffer poisoned")[f.span as usize].end = end;
        }
        if let Some(parent) = l.stack.last_mut() {
            parent.child += dur;
        }
    });
}

/// Run `f` inside a span at `layer`.
#[inline]
pub fn span<R>(layer: Layer, kind: OpKind, f: impl FnOnce() -> R) -> R {
    enter(layer, kind);
    let r = f();
    exit();
    r
}

/// Sum the accumulators of every registered thread. Call after the
/// threads that recorded have been joined.
pub fn totals() -> Totals {
    let ns = ticks_to_ns;
    let mut t = Totals::default();
    for slot in REGISTRY.lock().expect("trace registry poisoned").iter() {
        for (l, per_kind) in t.acc.iter_mut().enumerate() {
            for (k, a) in per_kind.iter_mut().enumerate() {
                let i = (l * KINDS + k) * 3;
                a.add(&Acc {
                    calls: slot.acc[i].load(Ordering::Relaxed),
                    total_ns: ns(slot.acc[i + 1].load(Ordering::Relaxed)),
                    child_ns: ns(slot.acc[i + 2].load(Ordering::Relaxed)),
                });
            }
        }
    }
    t
}

/// Write the sampled spans as a Chrome trace (viewable in Perfetto).
/// Returns the number of spans written.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"traceEvents\":[")?;
    let mut n = 0;
    for slot in REGISTRY.lock().expect("trace registry poisoned").iter() {
        for (i, s) in slot
            .spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .enumerate()
        {
            if s.end == 0 {
                continue; // still open when the phase ended
            }
            let kind = pibench::workload::OP_KINDS[s.kind as usize].label();
            let parent = if s.parent == NO_PARENT {
                String::from("null")
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{}{{\"name\":\"{}.{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"req\":{},\"span\":{},\"parent\":{}}}}}",
                if n == 0 { "" } else { "," },
                LAYER_NAMES[s.layer as usize],
                kind,
                slot.tid,
                s.start as f64 * ns_per_tick() / 1e3,
                (s.end - s.start) as f64 * ns_per_tick() / 1e3,
                s.req,
                i,
                parent
            )?;
            n += 1;
        }
    }
    writeln!(w, "]}}")?;
    w.flush()?;
    Ok(n)
}

/// A timing wrapper at one layer boundary.
pub struct Traced {
    inner: Arc<dyn RangeIndex>,
    layer: Layer,
}

impl Traced {
    pub fn wrap(inner: Arc<dyn RangeIndex>, layer: Layer) -> Arc<dyn RangeIndex> {
        Arc::new(Traced { inner, layer })
    }
}

impl RangeIndex for Traced {
    fn insert(&self, key: Key, value: Value) -> bool {
        span(self.layer, OpKind::Insert, || self.inner.insert(key, value))
    }

    fn lookup(&self, key: Key) -> Option<Value> {
        span(self.layer, OpKind::Lookup, || self.inner.lookup(key))
    }

    fn update(&self, key: Key, value: Value) -> bool {
        span(self.layer, OpKind::Update, || self.inner.update(key, value))
    }

    fn remove(&self, key: Key) -> bool {
        span(self.layer, OpKind::Remove, || self.inner.remove(key))
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        span(self.layer, OpKind::Scan, || {
            self.inner.scan(start, count, out)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn footprint(&self) -> Footprint {
        self.inner.footprint()
    }
}
