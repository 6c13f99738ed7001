//! Golden counters: a fixed-seed, single-threaded trace whose every
//! emulator counter is pinned to the exact value the reference
//! implementation produced.
//!
//! The emulator's figures (media bytes, clwb, fences, persistence
//! events, dirty words, residual-candidate order) are deterministic for
//! a single thread, so a change to the emulator's bookkeeping that is
//! meant to be a pure speed-up must leave every one of them identical.
//! If this test fails, the change altered behaviour, not just speed.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use pm_index_bench::fptree::{FpTree, FpTreeConfig};
use pm_index_bench::index_api::RangeIndex;
use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
use pm_index_bench::pmem::{PmConfig, PmOff, PmPool, PmStatsSnapshot, ROOT_AREA};

/// Everything the emulator counts for one pool, plus a digest of the
/// values the trace read back.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    stats: PmStatsSnapshot,
    persist_events: u64,
    dirty_words: u64,
    residual_offsets: Vec<u64>,
    digest: u64,
}

fn capture(pool: &PmPool, digest: u64) -> Golden {
    Golden {
        stats: pool.stats(),
        persist_events: pool.persist_event_count(),
        dirty_words: pool.dirty_word_count(),
        residual_offsets: pool
            .residual_candidates()
            .iter()
            .take(16)
            .map(|l| l.off)
            .collect(),
        digest,
    }
}

/// Deterministic 64-bit generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn fold(digest: u64, v: u64) -> u64 {
    digest.rotate_left(5) ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Run `f` on a fresh thread so the per-thread block-cache model starts
/// cold regardless of what the test harness ran before.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().unwrap())
}

/// Raw pool traffic: every access primitive at mixed alignments and
/// sizes, addresses that collide in the direct-mapped block cache
/// (128 KiB apart), clwb of partial/multi-line/redundant ranges,
/// ntstores, fences, and a dirty tail left unflushed.
fn raw_trace(cfg: PmConfig) -> Golden {
    const LEN: u64 = 1 << 20;
    let pool = PmPool::new(LEN as usize, cfg);
    let mut rng = Rng(0x601D_C0DE);
    let mut digest = 0u64;
    let span = LEN - ROOT_AREA - 512;
    for i in 0..6_000u64 {
        let r = rng.next();
        let off = ROOT_AREA + (r >> 8) % span;
        let aligned = off & !7;
        match r % 16 {
            0..=2 => digest = fold(digest, pool.read_u64(aligned)),
            3..=4 => pool.write_u64(aligned, r),
            5 => {
                let n = 1 + (r >> 40) as usize % 300;
                let mut buf = vec![0u8; n];
                pool.read_bytes(off, &mut buf);
                digest = buf.iter().fold(digest, |d, &b| fold(d, b as u64));
            }
            6 => {
                let n = 1 + (r >> 40) as usize % 200;
                let src: Vec<u8> = (0..n).map(|j| (i as u8).wrapping_add(j as u8)).collect();
                pool.write_bytes(off, &src);
            }
            7 => pool.clwb(off, 1 + (r >> 40) as usize % 400),
            8 => pool.sfence(),
            9 => pool.persist(aligned, 8),
            10 => pool.ntstore_u64(aligned, r),
            11 => {
                let cur = pool.read_u64(aligned);
                digest = fold(digest, pool.cas_u64(aligned, cur, cur ^ r).unwrap_or(0));
            }
            12 => digest = fold(digest, pool.fetch_add_u64(aligned, 3, Ordering::AcqRel)),
            13 => {
                let t: PmOff<[u64; 4]> = PmOff::new(aligned);
                let mut v = pool.read(t);
                digest = fold(digest, v[0] ^ v[3]);
                v[1] = r;
                pool.write(t, &v);
            }
            14 => {
                // Two blocks that map to the same cache slot.
                let b = aligned & !255;
                let alias = ROOT_AREA + (b - ROOT_AREA + 512 * 256) % span;
                digest = fold(digest, pool.read_u64(b));
                digest = fold(digest, pool.read_u64(alias & !7));
                digest = fold(digest, pool.read_u64(b));
            }
            _ => {
                // A sequential run over consecutive media blocks.
                for k in 0..4u64 {
                    digest = fold(digest, pool.read_u64(aligned + k * 256));
                }
            }
        }
    }
    capture(&pool, digest)
}

/// An FPTree run on one pool: a 40k-key prefill (larger than the
/// modelled 128 KiB per-thread cache, so lookups miss and evict), then
/// 20k mixed inserts, lookups, updates, removes and scans.
fn fptree_trace() -> Golden {
    let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
    let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
    let tree = FpTree::create(alloc, FpTreeConfig::default());
    let mut rng = Rng(0xF9_7EE);
    let mut digest = 0u64;
    let mut out = Vec::new();
    for i in 0..40_000u64 {
        tree.insert(rng.next() % 80_000, i);
    }
    for i in 0..20_000u64 {
        let r = rng.next();
        let key = (r >> 16) % 80_000;
        match r % 20 {
            0..=6 => digest = fold(digest, tree.insert(key, i) as u64),
            7..=12 => digest = fold(digest, tree.lookup(key).unwrap_or(u64::MAX)),
            13..=15 => digest = fold(digest, tree.update(key, i ^ 0xABCD) as u64),
            16..=18 => digest = fold(digest, tree.remove(key) as u64),
            _ => {
                let n = tree.scan(key, 1 + (r >> 48) as usize % 100, &mut out);
                digest = fold(digest, n as u64);
                for &(k, v) in &out {
                    digest = fold(digest, k ^ v.rotate_left(17));
                }
            }
        }
    }
    drop(tree);
    capture(&pool, digest)
}

#[test]
fn raw_pool_counters_match_golden() {
    let got = on_fresh_thread(|| raw_trace(PmConfig::real()));
    let want = Golden {
        stats: PmStatsSnapshot {
            read_ops: 4807,
            read_bytes: 98015,
            write_ops: 2613,
            write_bytes: 63935,
            media_read_bytes: 1147136,
            media_write_bytes: 374528,
            clwb: 788,
            clwb_redundant: 681,
            ntstore: 360,
            fence: 723,
        },
        persist_events: 1871,
        dirty_words: 7312,
        residual_offsets: vec![
            195712, 393472, 497792, 497856, 960320, 398400, 448000, 448064, 571776, 148608, 440320,
            686720, 582208, 826880, 826944, 654464,
        ],
        digest: 17256364160756598197,
    };
    assert_eq!(got, want);
}

#[test]
fn raw_pool_counters_under_eviction_chaos_match_golden() {
    let got = on_fresh_thread(|| raw_trace(PmConfig::real().with_eviction_chaos(0xC4A05)));
    let want = Golden {
        stats: PmStatsSnapshot {
            read_ops: 4807,
            read_bytes: 98015,
            write_ops: 2613,
            write_bytes: 63935,
            media_read_bytes: 1147136,
            media_write_bytes: 374528,
            clwb: 788,
            clwb_redundant: 699,
            ntstore: 360,
            fence: 723,
        },
        persist_events: 1871,
        dirty_words: 5485,
        residual_offsets: vec![
            195712, 393472, 497792, 497856, 960320, 448000, 448064, 571776, 440320, 686720, 582208,
            826880, 826944, 654464, 247488, 144640,
        ],
        digest: 17256364160756598197,
    };
    assert_eq!(got, want);
}

#[test]
fn fptree_counters_match_golden() {
    let got = on_fresh_thread(fptree_trace);
    let want = Golden {
        stats: PmStatsSnapshot {
            read_ops: 587007,
            read_bytes: 8002800,
            write_ops: 379750,
            write_bytes: 2606177,
            media_read_bytes: 18151680,
            media_write_bytes: 41272576,
            clwb: 157084,
            clwb_redundant: 0,
            ntstore: 0,
            fence: 83434,
        },
        persist_events: 240518,
        dirty_words: 964,
        residual_offsets: vec![
            33135616, 33210112, 33274368, 33005824, 32708864, 33103616, 32589568, 32965888,
            32989184, 33442816, 33470976, 33427200, 33379840, 32557312, 33270528, 32810496,
        ],
        digest: 14524420372315537104,
    };
    assert_eq!(got, want);
}
