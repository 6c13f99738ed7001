//! Criterion microbenchmarks for the substrates and single-threaded
//! index hot paths. These complement the experiment targets (e01–e13)
//! with statistically rigorous per-operation timings.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use index_api::RangeIndex;
use pibench::keys::mix;
use pmalloc::{AllocMode, PmAllocator};
use pmem::{PmConfig, PmPool};

fn pm_primitives(c: &mut Criterion) {
    let pool = PmPool::new(16 << 20, PmConfig::real());
    let mut g = c.benchmark_group("pmem");
    g.bench_function("read_u64", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 8) % (8 << 20);
            std::hint::black_box(pool.read_u64(4096 + i))
        })
    });
    g.bench_function("write_u64", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 8) % (8 << 20);
            pool.write_u64(4096 + i, i);
        })
    });
    g.bench_function("persist_cacheline", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 64) % (8 << 20);
            pool.write_u64(4096 + i, i);
            pool.persist(4096 + i, 8);
        })
    });
    // FPTree's fingerprint probe: one 64-byte read at an 8-aligned,
    // line-straddling offset.
    g.bench_function("read_bytes_64", |b| {
        let mut fps = [0u8; 64];
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 64) % (8 << 20);
            pool.read_bytes(4096 + 24 + i, &mut fps);
            fps[0]
        })
    });
    // FPTree's insert commit: key, value and fingerprint stores each
    // flushed, one fence, then the bitmap store persisted (4 stores,
    // 4 clwb, 2 fences).
    g.bench_function("persist_record", |b| {
        const LEAF: u64 = 1152; // 64-entry leaf, rounded to lines
        let (fp_off, keys_off, vals_off) = (24, 88, 88 + 8 * 64);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let leaf = 4096 + (i / 64 * LEAF) % (8 << 20);
            let slot = i % 64;
            pool.write_u64(leaf + keys_off + 8 * slot, i);
            pool.write_u64(leaf + vals_off + 8 * slot, i);
            pool.write_bytes(leaf + fp_off + slot, &[i as u8]);
            pool.clwb(leaf + keys_off + 8 * slot, 8);
            pool.clwb(leaf + vals_off + 8 * slot, 8);
            pool.clwb(leaf + fp_off + slot, 1);
            pool.sfence();
            pool.write_u64(leaf, i);
            pool.persist(leaf, 8);
        })
    });
    g.finish();
}

fn allocator(c: &mut Criterion) {
    let mut g = c.benchmark_group("pmalloc");
    for (mode, label) in [
        (AllocMode::General, "general"),
        (AllocMode::Striped, "striped"),
    ] {
        let pool = Arc::new(PmPool::new(256 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool, mode);
        g.bench_function(format!("alloc_free_256/{label}"), |b| {
            b.iter(|| {
                let off = alloc.alloc(256).unwrap();
                alloc.free(std::hint::black_box(off));
            })
        });
    }
    g.finish();
}

type IndexBuilder = Box<dyn Fn() -> Arc<dyn RangeIndex>>;

fn index_ops(c: &mut Criterion) {
    const N: u64 = 100_000;
    let builders: Vec<(&str, IndexBuilder)> = vec![
        (
            "fptree",
            Box::new(|| {
                let pool = Arc::new(PmPool::new(128 << 20, PmConfig::real()));
                let alloc = PmAllocator::format(pool, AllocMode::General);
                fptree::FpTree::create(alloc, fptree::FpTreeConfig::default()) as _
            }),
        ),
        (
            "nvtree",
            Box::new(|| {
                let pool = Arc::new(PmPool::new(128 << 20, PmConfig::real()));
                let alloc = PmAllocator::format(pool, AllocMode::General);
                nvtree::NvTree::create(alloc, nvtree::NvTreeConfig::default()) as _
            }),
        ),
        (
            "wbtree",
            Box::new(|| {
                let pool = Arc::new(PmPool::new(128 << 20, PmConfig::real()));
                let alloc = PmAllocator::format(pool, AllocMode::General);
                wbtree::WbTree::create(alloc, wbtree::WbTreeConfig::default()) as _
            }),
        ),
        (
            "bztree",
            Box::new(|| {
                let pool = Arc::new(PmPool::new(128 << 20, PmConfig::real()));
                let alloc = PmAllocator::format(pool, AllocMode::General);
                bztree::BzTree::create(alloc, bztree::BzTreeConfig::default()) as _
            }),
        ),
        (
            "dram",
            Box::new(|| Arc::new(dram_index::DramTree::new()) as _),
        ),
    ];
    for (name, make) in builders {
        let idx = make();
        for i in 0..N {
            idx.insert(mix(i), i);
        }
        let mut g = c.benchmark_group(format!("index/{name}"));
        g.bench_function("lookup_hit", |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 7) % N;
                std::hint::black_box(idx.lookup(mix(i)))
            })
        });
        g.bench_function("lookup_miss", |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                std::hint::black_box(idx.lookup(mix((1 << 62) + i)))
            })
        });
        g.bench_function("scan_100", |b| {
            let mut out = Vec::with_capacity(128);
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 13) % N;
                idx.scan(mix(i), 100, &mut out)
            })
        });
        g.bench_function("insert_fresh", |b| {
            let counter = std::cell::Cell::new(N);
            b.iter_batched(
                || {
                    let i = counter.get();
                    counter.set(i + 1);
                    mix(i)
                },
                |k| idx.insert(k, k),
                BatchSize::SmallInput,
            )
        });
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(1)).warm_up_time(std::time::Duration::from_millis(300));
    targets = pm_primitives, allocator, index_ops
}
criterion_main!(benches);
