//! The repository benchmark.
//!
//! Three workloads run against the sharded FPTree stack with the
//! Optane-like device model (see `BENCHMARK.json` for the record of
//! each): `read-uniform` and `mixed-storm` call the stack in-process
//! through a DRAM cache, `served-mixed` drives an in-process
//! `net::Server` over loopback. Every answer is checked. An untraced
//! run reports the end-to-end metrics; a traced run times the calls
//! into each layer from outside ([`trace`]) and reports per-layer
//! metrics.

use std::time::Duration;

use pibench::dist::Distribution;
use pibench::workload::OpMix;
use pmem::PmConfig;

pub mod inproc;
pub mod lat;
pub mod served;
pub mod stack;
pub mod trace;
pub mod verify;

pub use stack::Wrap;
pub use verify::Violation;

/// Records per scan.
pub const SCAN_LEN: usize = 100;
/// Closed-loop worker threads of the in-process workloads.
pub const THREADS: usize = 2;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadUniform,
    MixedStorm,
    ServedMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReadUniform,
        Workload::MixedStorm,
        Workload::ServedMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadUniform => "read-uniform",
            Workload::MixedStorm => "mixed-storm",
            Workload::ServedMixed => "served-mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn mix(self) -> OpMix {
        let (lookup, insert, update, scan) = match self {
            Workload::ReadUniform => (95, 0, 0, 5),
            Workload::MixedStorm | Workload::ServedMixed => (60, 20, 20, 0),
        };
        OpMix {
            lookup,
            insert,
            update,
            remove: 0,
            scan,
        }
    }

    pub fn dist(self, records: u64) -> Distribution {
        match self {
            Workload::MixedStorm => Distribution::HotStorm {
                hot: (records / 100).max(1),
                frac: 0.9,
            },
            _ => Distribution::Uniform,
        }
    }
}

/// Data and cache size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub records: u64,
    pub cache_bytes: usize,
}

/// The benchmark's size: 1,000,000 records, a 4 MiB cache (65,536
/// entries).
pub const FULL: Scale = Scale {
    records: 1_000_000,
    cache_bytes: 4 << 20,
};

/// One run's settings.
#[derive(Clone)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Stacks built; set-up time is their median, the last is measured.
    pub setups: usize,
    /// Power cuts and restarts after the measured phase (0: none).
    pub restarts: usize,
    pub traced: bool,
    pub pm: PmConfig,
    pub fault: Option<Wrap>,
}

impl RunCfg {
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> RunCfg {
        RunCfg {
            workload,
            seed,
            seconds,
            scale: FULL,
            setups: 1,
            restarts: 0,
            traced: false,
            pm: PmConfig::optane_like(),
            fault: None,
        }
    }
}

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violation: Option<Violation>,
    /// End-to-end metrics (meaningful when untraced).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Samples behind each latency metric: in the whole run, and in the
    /// window that had the fewest.
    pub samples: Vec<(&'static str, u64, u64)>,
    pub mops: f64,
    /// Throughput of each window, Mops/s.
    pub window_mops: Vec<f64>,
    /// Mean duration of the outermost traced span around one index call.
    pub top_span_ns: f64,
}

impl Outcome {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.layers)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Run one workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    match cfg.workload {
        Workload::ServedMixed => served::run(cfg),
        _ => inproc::run(cfg),
    }
}

/// Median of durations, in seconds.
pub fn median_s(ds: &[Duration]) -> f64 {
    lat::median(ds.iter().map(Duration::as_secs_f64))
}

/// Space per record. The gated figures are taken on the loaded index,
/// before the measured phase: at the end of the run the record count
/// depends on how many inserts the run completed, which moves with
/// throughput. The end-of-run figures are reported beside them.
pub fn footprint_metrics(
    out: &mut Outcome,
    loaded: index_api::Footprint,
    records: u64,
    end: index_api::Footprint,
    live: u64,
) {
    let per = |bytes: u64, n: u64| bytes as f64 / n as f64;
    out.e2e.extend([
        metric("pm_bytes_per_record", per(loaded.pm_bytes, records), "B"),
        metric(
            "dram_bytes_per_record",
            per(loaded.dram_bytes, records),
            "B",
        ),
        metric("pm_bytes_per_record_end", per(end.pm_bytes, live), "B"),
        metric("dram_bytes_per_record_end", per(end.dram_bytes, live), "B"),
    ]);
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `fptree.*` span metrics, shared by the in-process and served runs.
pub fn tree_layers(spans: &trace::Totals) -> [Metric; 3] {
    use pibench::workload::OpKind::{Insert, Lookup, Scan, Update};
    use trace::Layer::Fptree;
    [
        metric(
            "fptree.lookup_ns",
            spans.mean_ns(Fptree, &[Lookup]),
            "ns/call",
        ),
        metric("fptree.scan_ns", spans.mean_ns(Fptree, &[Scan]), "ns/call"),
        metric(
            "fptree.write_ns",
            spans.mean_ns(Fptree, &[Insert, Update]),
            "ns/call",
        ),
    ]
}

/// Per-layer metrics read from counter deltas, shared by the in-process
/// and served runs.
pub fn counter_layers(before: &stack::Counters, after: &stack::Counters, ops: f64) -> Vec<Metric> {
    let pm = after.pm.since(&before.pm);
    let commits = (after.htm[0] - before.htm[0]) as f64;
    let aborts = (after.htm[1] - before.htm[1]) as f64;
    let fallbacks = (after.htm[2] - before.htm[2]) as f64;
    let cache = match (&before.cache, &after.cache) {
        (Some(b), Some(a)) => [
            (a.hits - b.hits) as f64,
            (a.misses - b.misses) as f64,
            (a.invalidations - b.invalidations) as f64,
            (a.evictions - b.evictions) as f64,
            (a.fills - b.fills) as f64,
            (a.fill_skips - b.fill_skips) as f64,
        ],
        _ => [0.0; 6],
    };
    let [hits, misses, invals, evicts, fills, skips] = cache;
    vec![
        metric("cache.hit_rate", ratio(hits, hits + misses), "fraction"),
        metric(
            "cache.invalidations_per_kop",
            ratio(invals * 1e3, ops),
            "1/kop",
        ),
        metric("cache.evictions_per_kop", ratio(evicts * 1e3, ops), "1/kop"),
        metric(
            "cache.fill_skip_share",
            ratio(skips, fills + skips),
            "fraction",
        ),
        metric(
            "htm.abort_share",
            ratio(aborts, commits + aborts),
            "fraction",
        ),
        metric(
            "htm.fallbacks_per_kop",
            ratio(fallbacks * 1e3, ops),
            "1/kop",
        ),
        metric(
            "pmalloc.allocs_per_kop",
            ratio((after.allocs - before.allocs) as f64 * 1e3, ops),
            "1/kop",
        ),
        metric(
            "pmalloc.frees_per_kop",
            ratio((after.frees - before.frees) as f64 * 1e3, ops),
            "1/kop",
        ),
        metric("pmem.clwb_per_op", ratio(pm.clwb as f64, ops), "1/op"),
        metric("pmem.fence_per_op", ratio(pm.fence as f64, ops), "1/op"),
        metric(
            "pmem.clwb_redundant_share",
            ratio(pm.clwb_redundant as f64, pm.clwb as f64),
            "fraction",
        ),
        metric(
            "pmem.write_amplification",
            ratio(pm.media_write_bytes as f64, pm.write_bytes as f64),
            "ratio",
        ),
        metric(
            "pmem.read_amplification",
            ratio(pm.media_read_bytes as f64, pm.read_bytes as f64),
            "ratio",
        ),
    ]
}
