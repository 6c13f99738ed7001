//! The in-process workloads: `read-uniform` and `mixed-storm`.
//!
//! [`THREADS`] closed-loop threads call the top of the stack (a cold
//! `CachedIndex` over the sharded FPTree) for the measured phase and
//! check every answer as it comes back. Afterwards a full scan is
//! checked against what was written, every pool is power-cut, the
//! shards are reopened and the reopened index must match the scan
//! record for record.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use index_api::RangeIndex;
use pibench::keys::{mix, KeySpace};
use pibench::workload::{Op, OpKind, OpStream};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::lat::Windows;
use crate::stack::{self, Stack, StackCfg};
use crate::trace::{self, Layer};
use crate::verify::{self, Finals, Violation};
use crate::{metric, ratio, RunCfg, Workload, SCAN_LEN, THREADS};

/// Build `cfg.setups` stacks, keeping the last. Returns the set-up
/// times of all of them.
pub fn build_repeated(cfg: &StackCfg, setups: usize) -> (Stack, Vec<Duration>) {
    let mut times = Vec::with_capacity(setups);
    let mut kept = None;
    for _ in 0..setups.max(1) {
        drop(kept.take()); // free the previous pools first
        let (s, t) = stack::build(cfg);
        times.push(t);
        kept = Some(s);
    }
    (kept.expect("at least one set-up"), times)
}

/// Per-thread seed derived from the run seed.
pub fn thread_seed(seed: u64, t: usize) -> u64 {
    mix(seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

struct ThreadOut {
    ops: u64,
    inserts: u64,
    win: Windows,
    opgen_ticks: u64,
    updates: Vec<(u64, u64)>,
    violation: Option<Violation>,
}

/// The measured phase's combined result.
pub struct Phase {
    pub ops: u64,
    pub inserts: u64,
    pub win: Windows,
    pub opgen_ticks: u64,
    pub finals: Finals,
    pub violation: Option<Violation>,
}

/// Check one answer. `sorted` holds the prefilled keys in order (only
/// read-uniform scans need it: nothing is written there, so the
/// expected scan is known exactly).
fn check(
    w: Workload,
    ks: &KeySpace,
    sorted: &[u64],
    op: Op,
    ok: bool,
    got: Option<u64>,
    scan: &[(u64, u64)],
) -> Option<Violation> {
    match (w, op) {
        (Workload::ReadUniform, Op::Lookup(k)) => (got != Some(ks.value_for(k)))
            .then(|| Violation::new(k, format!("lookup returned {got:x?}"))),
        (Workload::ReadUniform, Op::Scan(start, n)) => {
            let from = sorted.partition_point(|&k| k < start);
            let want = &sorted[from..(from + n).min(sorted.len())];
            if scan.len() != want.len() {
                return Some(Violation::new(
                    start,
                    format!(
                        "scan returned {} records, {} expected",
                        scan.len(),
                        want.len()
                    ),
                ));
            }
            scan.iter()
                .zip(want)
                .find(|(&(k, v), &wk)| k != wk || v != ks.value_for(wk))
                .map(|(&(k, v), &wk)| {
                    Violation::new(
                        wk,
                        format!("scan from {start:#x} returned ({k:#x}, {v:#x})"),
                    )
                })
        }
        (_, Op::Lookup(k)) => got
            .is_none()
            .then(|| Violation::new(k, "lookup of a prefilled key missed")),
        (_, Op::Update(k, _)) => {
            (!ok).then(|| Violation::new(k, "update of a prefilled key missed"))
        }
        (_, Op::Insert(k, _)) => (!ok).then(|| Violation::new(k, "fresh insert refused")),
        (_, op) => Some(Violation::new(0, format!("unexpected op {op:?}"))),
    }
}

/// Run the measured phase on `top` for `cfg.seconds`.
pub fn drive(top: &Arc<dyn RangeIndex>, ks: &KeySpace, cfg: &RunCfg, sorted: &[u64]) -> Phase {
    let w = cfg.workload;
    let sampler = w.dist(ks.prefilled()).sampler(ks.prefilled());
    let stop = AtomicBool::new(false);
    let start = Barrier::new(THREADS + 1);
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (stop, start) = (&stop, &start);
                s.spawn(move || {
                    let stream = OpStream::new(w.mix(), sampler, ks, SCAN_LEN);
                    let mut rng = SmallRng::seed_from_u64(thread_seed(cfg.seed, t));
                    let mut out = ThreadOut {
                        ops: 0,
                        inserts: 0,
                        win: Windows::new(cfg.seconds),
                        opgen_ticks: 0,
                        updates: Vec::new(),
                        violation: None,
                    };
                    let mut buf = Vec::with_capacity(SCAN_LEN);
                    start.wait();
                    let began = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        let op = if cfg.traced {
                            let t0 = trace::ticks();
                            let op = stream.next_op(&mut rng);
                            out.opgen_ticks += trace::ticks() - t0;
                            op
                        } else {
                            stream.next_op(&mut rng)
                        };
                        let t0 = Instant::now();
                        let (ok, got) = if cfg.traced {
                            trace::span(Layer::Op, op.kind(), || exec(&**top, op, &mut buf))
                        } else {
                            exec(&**top, op, &mut buf)
                        };
                        out.win.record(
                            (t0 - began).as_nanos() as u64,
                            op.kind() as usize,
                            t0.elapsed().as_nanos() as u64,
                        );
                        out.ops += 1;
                        match op {
                            Op::Insert(..) => out.inserts += 1,
                            Op::Update(k, v) => out.updates.push((k, v)),
                            _ => {}
                        }
                        if let Some(v) = check(w, ks, sorted, op, ok, got, &buf) {
                            out.violation = Some(v);
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                    out
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(cfg.seconds);
        while !stop.load(Ordering::Relaxed) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect::<Vec<ThreadOut>>()
    });

    let mut phase = Phase {
        ops: 0,
        inserts: 0,
        win: Windows::new(cfg.seconds),
        opgen_ticks: 0,
        finals: Finals::default(),
        violation: None,
    };
    for o in outs {
        phase.ops += o.ops;
        phase.inserts += o.inserts;
        phase.opgen_ticks += o.opgen_ticks;
        phase.win.merge(&o.win);
        phase.finals.add_writer(&o.updates);
        if let Some(v) = o.violation {
            verify::note(&mut phase.violation, v);
        }
    }
    phase
}

/// Execute one op: (success flag, looked-up value). Scans leave their
/// records in `buf`.
#[inline]
fn exec(index: &dyn RangeIndex, op: Op, buf: &mut Vec<(u64, u64)>) -> (bool, Option<u64>) {
    match op {
        Op::Lookup(k) => {
            let v = index.lookup(k);
            (v.is_some(), v)
        }
        Op::Insert(k, v) => (index.insert(k, v), None),
        Op::Update(k, v) => (index.update(k, v), None),
        Op::Remove(k) => (index.remove(k), None),
        Op::Scan(k, n) => (index.scan(k, n, buf) > 0, None),
    }
}

/// Throughput and latency, each the median over the phase's windows
/// (see [`Windows`]). Write and scan latency only where the mix has
/// them.
pub fn latency_metrics(out: &mut crate::Outcome, win: &Windows) {
    const ALL: [usize; 5] = [0, 1, 2, 3, 4];
    const WRITES: [usize; 2] = [OpKind::Insert as usize, OpKind::Update as usize];
    out.window_mops = win.rates().iter().map(|r| r / 1e6).collect();
    out.mops = win.median_rate() / 1e6;
    out.e2e.push(metric("throughput_mops", out.mops, "Mops/s"));
    let mut us = |name: &'static str, kinds: &[usize], q: f64| {
        let (ns, fewest) = win.median_quantile(kinds, q);
        out.e2e.push(metric(name, ns / 1e3, "us"));
        out.samples.push((name, win.total(kinds).count(), fewest));
    };
    us("lookup_p50_us", &[OpKind::Lookup as usize], 0.5);
    us("lookup_p90_us", &[OpKind::Lookup as usize], 0.9);
    us("lookup_p99_us", &[OpKind::Lookup as usize], 0.99);
    us("op_p90_us", &ALL, 0.9);
    us("op_p99_us", &ALL, 0.99);
    if win.total(&WRITES).count() > 0 {
        us("write_p50_us", &WRITES, 0.5);
        us("write_p99_us", &WRITES, 0.99);
    }
    if win.total(&[OpKind::Scan as usize]).count() > 0 {
        us("scan_p99_us", &[OpKind::Scan as usize], 0.99);
    }
}

pub fn run(cfg: &RunCfg) -> crate::Outcome {
    let records = cfg.scale.records;
    let (stack, setup_times) = build_repeated(
        &StackCfg {
            records,
            pm: cfg.pm.clone(),
            cache_bytes: Some(cfg.scale.cache_bytes),
            traced: cfg.traced,
            fault: cfg.fault,
        },
        cfg.setups,
    );
    let ks = KeySpace::new(records);
    let sorted: Vec<u64> = if cfg.workload == Workload::ReadUniform {
        let mut v: Vec<u64> = (0..records).map(|i| ks.key(i)).collect();
        v.sort_unstable();
        v
    } else {
        Vec::new()
    };

    if cfg.traced {
        trace::reset();
    }
    let loaded = stack.top.footprint();
    let before = stack.counters();
    let phase = drive(&stack.top, &ks, cfg, &sorted);
    let after = stack.counters();
    let spans = trace::totals();
    let footprint = stack.top.footprint();

    let mut out = crate::Outcome {
        attempted: phase.ops,
        violation: phase.violation.clone(),
        ..Default::default()
    };
    let ops = phase.ops as f64;
    let pm = after.pm.since(&before.pm);
    latency_metrics(&mut out, &phase.win);
    out.e2e.push(metric(
        "pm_read_bytes_per_op",
        ratio(pm.media_read_bytes as f64, ops),
        "B/op",
    ));
    out.e2e.push(metric(
        "pm_media_bytes_per_op",
        ratio((pm.media_read_bytes + pm.media_write_bytes) as f64, ops),
        "B/op",
    ));
    out.e2e.push(metric(
        "pm_write_bytes_per_op",
        ratio(pm.media_write_bytes as f64, ops),
        "B/op",
    ));
    crate::footprint_metrics(
        &mut out,
        loaded,
        records,
        footprint,
        records + phase.inserts,
    );
    out.e2e
        .push(metric("setup_s", crate::median_s(&setup_times), "s"));
    out.e2e.push(metric("failed_op_share", 0.0, "fraction"));

    if cfg.traced {
        let op = spans.layer(Layer::Op);
        let cache = spans.layer(Layer::Cache);
        let engine = spans.layer(Layer::Engine);
        let tree = spans.layer(Layer::Fptree);
        out.top_span_ns = ratio(op.total_ns as f64, op.calls as f64);
        out.layers = vec![
            metric(
                "pibench.opgen_ns_per_op",
                ratio(trace::ticks_to_ns(phase.opgen_ticks) as f64, ops),
                "ns/op",
            ),
            metric(
                "cache.self_ns_per_op",
                ratio(cache.self_ns() as f64, ops),
                "ns/op",
            ),
            metric(
                "engine.self_ns_per_op",
                ratio(engine.self_ns() as f64, ops),
                "ns/op",
            ),
            metric(
                "engine.inner_scans_per_scan",
                ratio(
                    spans.get(Layer::Fptree, OpKind::Scan).calls as f64,
                    spans.get(Layer::Engine, OpKind::Scan).calls as f64,
                ),
                "count",
            ),
            metric(
                "trace.self_sum_share",
                ratio(
                    (cache.self_ns() + engine.self_ns() + tree.total_ns) as f64,
                    op.total_ns as f64,
                ),
                "fraction",
            ),
        ];
        out.layers.extend(crate::tree_layers(&spans));
        out.layers
            .extend(crate::counter_layers(&before, &after, ops));
        out.layers.extend(crate::served::absent_net_layers());
    }

    // Everything written must be there, then survive a power cut.
    let state = stack::full_scan(&*stack.top);
    let no_unsure = Default::default();
    if let Some(v) = verify::check_state(
        &ks,
        records + phase.inserts,
        &phase.finals,
        &no_unsure,
        &state,
    ) {
        verify::note(&mut out.violation, v);
    }
    if cfg.restarts > 0 {
        let pools = stack.pools.clone();
        drop(stack);
        let (times, reopened) = stack::crash_and_recover(&pools, cfg.restarts);
        out.e2e
            .push(metric("recovery_s", crate::median_s(&times), "s"));
        if let Some(v) = verify::check_restart(&state, &stack::full_scan(&*reopened)) {
            verify::note(&mut out.violation, v);
        }
    }
    out
}
