//! Building the shipped stack through public APIs.
//!
//! Each of the [`SHARDS`] shards is a `PmPool` sized by
//! `bench::registry::pool_bytes_for_shard`, a formatted `PmAllocator`
//! and an `FpTree`; the shards sit behind one `engine::ShardedIndex`,
//! which is prefilled, and in-process workloads then put a cold
//! `cache::CachedIndex` on top. The benchmark keeps the `Arc`s of the
//! trees, allocators and pools so it can read their counters.
//!
//! With `traced` set, a [`Traced`] wrapper sits at each boundary:
//! harness → cache → engine → each shard's tree. Without it the stack
//! is exactly what the library builds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cache::CachedIndex;
use engine::{Shard, ShardedIndex};
use fptree::{FpTree, FpTreeConfig};
use index_api::RangeIndex;
use pibench::keys::KeySpace;
use pmalloc::{AllocMode, PmAllocator};
use pmem::{PmConfig, PmPool, PmStatsSnapshot};

use crate::trace::{Layer, Traced};

/// Shards in every workload's stack.
pub const SHARDS: usize = 2;
/// Threads used to prefill.
const PREFILL_THREADS: usize = 2;

/// A wrapper put between the harness and the stack (the self-tests use
/// it to inject faults).
pub type Wrap = fn(Arc<dyn RangeIndex>) -> Arc<dyn RangeIndex>;

/// What to build.
#[derive(Clone)]
pub struct StackCfg {
    pub records: u64,
    pub pm: PmConfig,
    /// `Some(bytes)` puts a `CachedIndex` of that budget on top.
    pub cache_bytes: Option<usize>,
    pub traced: bool,
    pub fault: Option<Wrap>,
}

/// A built, prefilled stack.
pub struct Stack {
    /// What the harness (or the server) calls.
    pub top: Arc<dyn RangeIndex>,
    pub engine: Arc<ShardedIndex>,
    pub cached: Option<Arc<CachedIndex>>,
    pub trees: Vec<Arc<FpTree>>,
    pub allocs: Vec<Arc<PmAllocator>>,
    pub pools: Vec<Arc<PmPool>>,
}

/// Build and prefill a stack. Returns it with the time the pools,
/// allocators, trees and prefill took.
pub fn build(cfg: &StackCfg) -> (Stack, Duration) {
    let t0 = Instant::now();
    let mut trees = Vec::with_capacity(SHARDS);
    let mut shards = Vec::with_capacity(SHARDS);
    for _ in 0..SHARDS {
        let pool = Arc::new(PmPool::new(
            bench::registry::pool_bytes_for_shard(cfg.records, SHARDS),
            cfg.pm.clone(),
        ));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let tree = FpTree::create(alloc.clone(), FpTreeConfig::default());
        trees.push(tree.clone());
        let index: Arc<dyn RangeIndex> = if cfg.traced {
            Traced::wrap(tree, Layer::Fptree)
        } else {
            tree
        };
        shards.push(Shard {
            index,
            pool: Some(pool),
            alloc: Some(alloc),
        });
    }
    let engine = ShardedIndex::from_parts(shards);
    prefill(&engine, cfg.records);

    let engine_dyn: Arc<dyn RangeIndex> = engine.clone();
    let below_cache = if cfg.traced {
        Traced::wrap(engine_dyn, Layer::Engine)
    } else {
        engine_dyn
    };
    let (cached, mut top) = match cfg.cache_bytes {
        Some(bytes) => {
            let c = Arc::new(CachedIndex::new(below_cache, bytes));
            let top: Arc<dyn RangeIndex> = if cfg.traced {
                Traced::wrap(c.clone(), Layer::Cache)
            } else {
                c.clone()
            };
            (Some(c), top)
        }
        None => (None, below_cache),
    };
    if let Some(fault) = cfg.fault {
        top = fault(top);
    }
    let setup = t0.elapsed();
    let pools = engine.pools();
    let allocs = engine.allocs();
    (
        Stack {
            top,
            engine,
            cached,
            trees,
            allocs,
            pools,
        },
        setup,
    )
}

/// Insert the key space's `records` keys through the engine.
fn prefill(engine: &Arc<ShardedIndex>, records: u64) {
    let ks = KeySpace::new(records);
    std::thread::scope(|s| {
        for t in 0..PREFILL_THREADS as u64 {
            let ks = &ks;
            s.spawn(move || {
                let mut i = t;
                while i < records {
                    let k = ks.key(i);
                    assert!(
                        engine.insert(k, ks.value_for(k)),
                        "prefill refused key {k:#x}"
                    );
                    i += PREFILL_THREADS as u64;
                }
            });
        }
    });
}

/// Counters the layers expose, read at one instant.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub pm: PmStatsSnapshot,
    pub htm: [u64; 3],
    pub allocs: u64,
    pub frees: u64,
    pub cache: Option<cache::CacheCounters>,
}

impl Stack {
    /// Read every layer's counters. Pool stats are read first: reading
    /// the allocator's stats touches PM itself.
    pub fn counters(&self) -> Counters {
        let pm = PmStatsSnapshot::merged(
            self.pools
                .iter()
                .map(|p| p.stats())
                .collect::<Vec<_>>()
                .iter(),
        );
        let mut c = Counters {
            pm,
            cache: self.cached.as_ref().map(|c| c.counters()),
            ..Counters::default()
        };
        for t in &self.trees {
            let h = t.htm_stats();
            c.htm[0] += h.commits;
            c.htm[1] += h.aborts;
            c.htm[2] += h.fallbacks;
        }
        for a in &self.allocs {
            let s = a.stats();
            c.allocs += s.allocs;
            c.frees += s.frees;
        }
        c
    }
}

/// Every record of `index`, in key order, read with chunked scans.
pub fn full_scan(index: &dyn RangeIndex) -> Vec<(u64, u64)> {
    const CHUNK: usize = 4096;
    let mut all = Vec::new();
    let mut buf = Vec::with_capacity(CHUNK);
    let mut from = 0u64;
    loop {
        let got = index.scan(from, CHUNK, &mut buf);
        all.extend_from_slice(&buf[..got]);
        match buf[..got].last() {
            Some(&(k, _)) if got == CHUNK && k < u64::MAX => from = k + 1,
            _ => return all,
        }
    }
}

/// Power-cut every pool, then reopen the shards with
/// `bench::registry::recover_sharded` (one thread per shard), `reps`
/// times. Returns each restart's time and the last reopened index.
pub fn crash_and_recover(
    pools: &[Arc<PmPool>],
    reps: usize,
) -> (Vec<Duration>, Arc<dyn RangeIndex>) {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        for p in pools {
            p.crash();
        }
        let (built, took) = bench::registry::recover_sharded("fptree", pools.to_vec(), true);
        times.push(took);
        last = Some(built.index);
    }
    (times, last.expect("at least one restart"))
}
