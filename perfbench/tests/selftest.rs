//! The benchmark's answer checks must reject a wrong index, and the
//! traced run's self times must account for the time it measures.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use index_api::{Footprint, Key, RangeIndex, Value};
use perfbench::{run, Outcome, RunCfg, Scale, Workload};

/// Small enough for a test, with the cache still ~15x smaller than the
/// data.
const TINY: Scale = Scale {
    records: 20_000,
    cache_bytes: 64 << 10,
};

/// The trace registry is process-wide and every run uses both cores:
/// run one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(w: Workload, fault: Option<perfbench::Wrap>) -> Outcome {
    let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = RunCfg::new(w, 7, 1.0);
    cfg.scale = TINY;
    cfg.restarts = 1;
    cfg.fault = fault;
    run(&cfg)
}

/// Forwards everything except what a test overrides.
macro_rules! forward {
    () => {
        fn insert(&self, key: Key, value: Value) -> bool {
            self.inner.insert(key, value)
        }
        fn remove(&self, key: Key) -> bool {
            self.inner.remove(key)
        }
        fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
            self.inner.scan(start, count, out)
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn footprint(&self) -> Footprint {
            self.inner.footprint()
        }
    };
}

/// Acknowledges one update in 1,000 without applying it.
struct DropUpdates {
    inner: Arc<dyn RangeIndex>,
    calls: AtomicU64,
}

impl RangeIndex for DropUpdates {
    fn update(&self, key: Key, value: Value) -> bool {
        if self.calls.fetch_add(1, Ordering::Relaxed) % 1000 == 999 {
            return true;
        }
        self.inner.update(key, value)
    }
    fn lookup(&self, key: Key) -> Option<Value> {
        self.inner.lookup(key)
    }
    forward!();
}

fn drop_updates(inner: Arc<dyn RangeIndex>) -> Arc<dyn RangeIndex> {
    Arc::new(DropUpdates {
        inner,
        calls: AtomicU64::new(0),
    })
}

/// Answers one lookup in 1,000 with the value of the lookup before it.
struct Stale {
    inner: Arc<dyn RangeIndex>,
    calls: AtomicU64,
    last: AtomicU64,
}

impl RangeIndex for Stale {
    fn lookup(&self, key: Key) -> Option<Value> {
        let v = self.inner.lookup(key);
        let prev = self.last.swap(v.unwrap_or(0), Ordering::Relaxed);
        if self.calls.fetch_add(1, Ordering::Relaxed) % 1000 == 999 && prev != 0 {
            return Some(prev);
        }
        v
    }
    fn update(&self, key: Key, value: Value) -> bool {
        self.inner.update(key, value)
    }
    forward!();
}

fn stale(inner: Arc<dyn RangeIndex>) -> Arc<dyn RangeIndex> {
    Arc::new(Stale {
        inner,
        calls: AtomicU64::new(0),
        last: AtomicU64::new(0),
    })
}

#[test]
fn correct_index_passes_every_check() {
    for w in Workload::ALL {
        let out = tiny(w, None);
        assert!(out.violation.is_none(), "{}: {:?}", w.name(), out.violation);
        assert!(out.attempted > 1_000, "{}: {} ops", w.name(), out.attempted);
        assert_eq!(out.failed, 0, "{}", w.name());
        assert!(out.get("recovery_s").is_some(), "{}", w.name());
    }
}

#[test]
fn dropped_updates_fail_mixed_storm() {
    let out = tiny(Workload::MixedStorm, Some(drop_updates));
    let v = out.violation.expect("a dropped update must be caught");
    assert!(v.what.contains("full scan holds value"), "{v:?}");
}

#[test]
fn stale_lookups_fail_read_uniform() {
    let out = tiny(Workload::ReadUniform, Some(stale));
    let v = out.violation.expect("a stale lookup must be caught");
    assert!(v.what.contains("lookup returned"), "{v:?}");
}

#[test]
fn self_times_sum_to_the_top_span() {
    for w in Workload::ALL {
        let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut cfg = RunCfg::new(w, 3, 1.0);
        cfg.scale = TINY;
        cfg.traced = true;
        let out = run(&cfg);
        assert!(out.violation.is_none(), "{}: {:?}", w.name(), out.violation);
        let share = out
            .get("trace.self_sum_share")
            .expect("traced runs report it");
        assert!(
            (0.9..=1.1).contains(&share),
            "{}: self times sum to {share} of the top span",
            w.name()
        );
        assert!(out.top_span_ns > 0.0, "{}", w.name());
    }
}
