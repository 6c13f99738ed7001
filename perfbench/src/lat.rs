//! Fine-grained latency histogram.
//!
//! `pibench::LatencyHistogram` keeps 4 sub-buckets per power of two,
//! which makes a bucket up to 25% wide; a 10% regression bound cannot
//! be resolved with it. This one keeps 128 sub-buckets per power of
//! two, so every bucket is at most 1/128 (< 0.8%) of its value wide,
//! and values below 256 ns are exact.

/// Sub-bucket bits per power of two.
const SUB_BITS: u32 = 7;
const SUBS: usize = 1 << SUB_BITS;
/// Exact buckets `0..2*SUBS`, then `SUBS` per power of two up to 2^63.
const BUCKETS: usize = (65 - SUB_BITS as usize) * SUBS;

/// A mergeable log-linear histogram of nanosecond samples.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < (2 * SUBS) as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let mant = (v >> (exp - SUB_BITS)) as usize; // in [SUBS, 2*SUBS)
    (exp - SUB_BITS) as usize * SUBS + mant
}

/// Midpoint of bucket `b` (exact for the width-1 buckets).
fn bucket_mid(b: usize) -> f64 {
    if b < 2 * SUBS {
        return b as f64;
    }
    let shift = (b / SUBS - 1) as u32;
    let mant = (b % SUBS + SUBS) as u64;
    let lo = mant << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
        self.sum += ns as u128;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact mean in ns (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The `q`-quantile in ns (nearest rank), as its bucket's midpoint.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(b);
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }
}

/// Per-kind histograms for each of a run's equal time windows. Run
/// metrics are medians over the windows, so a burst of interference
/// from outside the program moves them less than it moves whole-run
/// figures.
#[derive(Clone)]
pub struct Windows {
    width_ns: u64,
    wins: Vec<[Hist; 5]>,
}

/// Target width of one window.
const WINDOW_S: f64 = 0.5;

impl Windows {
    /// Windows covering `seconds`, each about [`WINDOW_S`] wide.
    pub fn new(seconds: f64) -> Windows {
        let n = ((seconds / WINDOW_S).round() as usize).max(1);
        Windows {
            width_ns: (seconds * 1e9 / n as f64) as u64,
            wins: (0..n).map(|_| Default::default()).collect(),
        }
    }

    /// Record a sample of op `kind` that started `at_ns` after the
    /// measured phase began. Samples past the last window are dropped.
    #[inline]
    pub fn record(&mut self, at_ns: u64, kind: usize, ns: u64) {
        if let Some(w) = self.wins.get_mut((at_ns / self.width_ns) as usize) {
            w[kind].record(ns);
        }
    }

    pub fn merge(&mut self, other: &Windows) {
        for (a, b) in self.wins.iter_mut().zip(&other.wins) {
            for (x, y) in a.iter_mut().zip(b) {
                x.merge(y);
            }
        }
    }

    /// Windows that saw at least one op (a run stopped early by a wrong
    /// answer leaves the rest empty).
    fn used(&self) -> impl Iterator<Item = &[Hist; 5]> {
        self.wins.iter().filter(|w| w.iter().any(|h| h.count() > 0))
    }

    fn of(w: &[Hist; 5], kinds: &[usize]) -> Hist {
        let mut h = Hist::new();
        for &k in kinds {
            h.merge(&w[k]);
        }
        h
    }

    /// Ops started per second in each window that saw any.
    pub fn rates(&self) -> Vec<f64> {
        let secs = self.width_ns as f64 / 1e9;
        self.used()
            .map(|w| w.iter().map(Hist::count).sum::<u64>() as f64 / secs)
            .collect()
    }

    /// Median over windows of the ops started per second.
    pub fn median_rate(&self) -> f64 {
        median(self.rates().into_iter())
    }

    /// Median over windows of the `q`-quantile of the given op kinds,
    /// in ns, with the fewest samples any window had.
    pub fn median_quantile(&self, kinds: &[usize], q: f64) -> (f64, u64) {
        let hs: Vec<Hist> = self
            .used()
            .map(|w| Self::of(w, kinds))
            .filter(|h| h.count() > 0)
            .collect();
        let fewest = hs.iter().map(Hist::count).min().unwrap_or(0);
        (median(hs.iter().map(|h| h.quantile(q))), fewest)
    }

    /// All samples of the given kinds, over the whole run.
    pub fn total(&self, kinds: &[usize]) -> Hist {
        let mut h = Hist::new();
        for w in &self.wins {
            h.merge(&Self::of(w, kinds));
        }
        h
    }
}

/// Median of a sequence (0 when empty).
pub fn median(it: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = it.collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut last = 0;
        for v in (0..1u64 << 22).step_by(7) {
            let b = bucket_of(v);
            assert!(b >= last, "monotone at {v}");
            last = b;
            let mid = bucket_mid(b);
            assert!(
                (mid - v as f64).abs() <= v as f64 / 128.0 + 0.5,
                "{v} -> {mid}"
            );
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_resolve_one_percent() {
        let mut h = Hist::new();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 / 50_000.0 - 1.0).abs() < 0.01, "{p50}");
        assert!((p99 / 99_000.0 - 1.0).abs() < 0.01, "{p99}");
        assert_eq!(h.mean(), 50_005.0);
    }

    #[test]
    fn window_medians_ignore_one_slow_window() {
        let mut w = Windows::new(2.0);
        assert_eq!(w.wins.len(), 4);
        for win in 0..4u64 {
            let lat = if win == 2 { 10_000 } else { 1_000 };
            for i in 0..100 {
                w.record(win * w.width_ns + i, 0, lat);
            }
        }
        w.record(4 * w.width_ns, 0, 1); // past the end: dropped
        assert_eq!(w.total(&[0]).count(), 400);
        let (p50, fewest) = w.median_quantile(&[0], 0.5);
        assert!((p50 / 1_000.0 - 1.0).abs() < 0.01, "{p50}");
        assert_eq!(fewest, 100);
        assert!((w.median_rate() - 200.0).abs() < 1e-9);
    }
}
