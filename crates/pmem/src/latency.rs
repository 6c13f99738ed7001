//! Calibrated latency injection.
//!
//! Real Optane DCPMM sits between DRAM and flash: ~300 ns random-read
//! latency, writes complete into the ADR domain quickly but are
//! bandwidth-bound at the media, and sequential access is noticeably
//! cheaper than random access. The emulator cannot reproduce absolute
//! numbers, but it can reproduce the *ordering* of costs (PM read >
//! DRAM read, PM flush > plain store, random > sequential) which is
//! what determines the shape of every figure in the paper.
//!
//! Latency is charged by busy-waiting; the penalties are per 256-byte
//! media block touched, so a 64-byte access and a 256-byte access cost
//! the same, exactly like DCPMM's internal granularity.

use std::time::{Duration, Instant};

/// Per-media-block latency penalties, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Charged per media block on a load that misses the (modelled)
    /// CPU cache, i.e. on every counted PM read.
    pub read_ns: u32,
    /// Charged per media block written back by `clwb`/`clflushopt`
    /// at the next fence, or by `ntstore`.
    pub write_ns: u32,
    /// Multiplier numerator applied when an access hits the same media
    /// block as the previous access from the same thread (sequential
    /// pattern); the charged cost is `ns * seq_discount_pct / 100`.
    pub seq_discount_pct: u32,
}

impl LatencyModel {
    /// No latency injection (unit tests, functional runs).
    pub const fn off() -> Self {
        Self {
            read_ns: 0,
            write_ns: 0,
            seq_discount_pct: 100,
        }
    }

    /// Rough Optane shape: reads ~170 ns/block, persisted writes
    /// ~90 ns/block, sequential accesses at 40 % of the random cost.
    /// These values were tuned so that the PM:DRAM single-thread lookup
    /// ratio landed near the paper's ~2×, but that tuning was done while
    /// the emulator's own per-access bookkeeping cost ~130 ns per load
    /// and padded the DRAM-mode side too. With that cost down to ~30 ns,
    /// FPTree's ratio (E13 `fptree@dram` ÷ E1 `fptree` lookup Mops/s,
    /// `PIBENCH_QUICK=1 PIBENCH_THREADS=1`, median of 5 runs on a 2-core
    /// VM) is 2.8× (2.5–3.6×), up from 1.3× (0.9–1.8×). The constants
    /// are left as they were; retuning them is a separate change.
    pub const fn optane_like() -> Self {
        Self {
            read_ns: 170,
            write_ns: 90,
            seq_discount_pct: 40,
        }
    }

    /// Whether any penalty is configured.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.read_ns != 0 || self.write_ns != 0
    }

    /// Busy-wait `blocks` read penalties. `sequential` selects the
    /// discounted rate.
    #[inline]
    pub fn charge_read(&self, blocks: u64, sequential: bool) {
        if self.read_ns != 0 {
            spin_for(self.cost(self.read_ns, blocks, sequential));
        }
    }

    /// Busy-wait `blocks` write penalties.
    #[inline]
    pub fn charge_write(&self, blocks: u64, sequential: bool) {
        if self.write_ns != 0 {
            spin_for(self.cost(self.write_ns, blocks, sequential));
        }
    }

    #[inline]
    fn cost(&self, ns_per_block: u32, blocks: u64, sequential: bool) -> Duration {
        let base = ns_per_block as u64 * blocks;
        let ns = if sequential {
            base * self.seq_discount_pct as u64 / 100
        } else {
            base
        };
        Duration::from_nanos(ns)
    }
}

/// Busy-wait for `d`. `thread::sleep` is far too coarse (µs–ms) for
/// nanosecond-scale penalties, so we spin on `Instant`.
#[inline]
fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_charges_nothing() {
        let m = LatencyModel::off();
        assert!(!m.enabled());
        let t = Instant::now();
        m.charge_read(1_000_000, false);
        m.charge_write(1_000_000, false);
        // A million blocks at zero cost must return ~instantly.
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn read_penalty_is_observable() {
        let m = LatencyModel {
            read_ns: 1_000,
            write_ns: 0,
            seq_discount_pct: 100,
        };
        let t = Instant::now();
        m.charge_read(1_000, false); // 1 ms total
        assert!(t.elapsed() >= Duration::from_micros(900));
    }

    #[test]
    fn sequential_discount_reduces_cost() {
        let m = LatencyModel {
            read_ns: 1_000,
            write_ns: 0,
            seq_discount_pct: 10,
        };
        let t = Instant::now();
        m.charge_read(1_000, true); // 0.1 ms total
        let seq = t.elapsed();
        assert!(seq < Duration::from_micros(800), "seq took {seq:?}");
    }
}
