//! Small-space statistical summaries: streaming histograms and quantile
//! estimates.
//!
//! §9 of the paper plans to "augment the statistical profiling library with
//! functions that use randomized and approximate techniques to create small
//! summaries such as histograms … or quantile summaries" (citing
//! Gilbert et al. and Guha et al.). This module provides both in bounded
//! memory: an equi-width [`Histogram`] that doubles its range as values
//! arrive, and reservoir-sampling [`Quantiles`].

/// A fixed-bucket, equi-width streaming histogram whose range grows by
/// doubling (merging adjacent buckets), so memory stays constant while the
/// data's range is unknown in advance.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    width: f64,
    buckets: Vec<u64>,
    count: u64,
    started: bool,
}

impl Histogram {
    /// Creates a histogram with `nbuckets` buckets (at least 2, rounded up
    /// to even so halving merges cleanly).
    pub fn new(nbuckets: usize) -> Histogram {
        let n = nbuckets.max(2).next_multiple_of(2);
        Histogram { lo: 0.0, width: 1.0, buckets: vec![0; n], count: 0, started: false }
    }

    fn span(&self) -> f64 {
        self.width * self.buckets.len() as f64
    }

    /// Adds one observation.
    pub fn add(&mut self, v: f64) {
        self.add_n(v, 1);
    }

    /// Adds `n` observations of the same value in one bucket update —
    /// the batched-latency hot path (`metrics::LATENCY_BATCH` identical
    /// samples per clock read) without `n` bucket searches. Equivalent
    /// to calling [`add`](Self::add) `n` times.
    pub fn add_n(&mut self, v: f64, n: u64) {
        if !v.is_finite() || n == 0 {
            return;
        }
        self.count += n;
        if !self.started {
            self.started = true;
            self.lo = v.floor();
            self.width = 1.0;
        }
        // Grow right: double the width, merging pairs into the left half.
        while v >= self.lo + self.span() {
            self.merge_right();
        }
        // Grow left: extend the range downward, merging pairs into the
        // right half.
        while v < self.lo {
            self.merge_left();
        }
        let idx = ((v - self.lo) / self.width) as usize;
        let idx = idx.min(self.buckets.len() - 1);
        self.buckets[idx] += n;
    }

    fn merge_right(&mut self) {
        let n = self.buckets.len();
        for i in 0..n / 2 {
            self.buckets[i] = self.buckets[2 * i] + self.buckets[2 * i + 1];
        }
        for b in &mut self.buckets[n / 2..] {
            *b = 0;
        }
        self.width *= 2.0;
    }

    fn merge_left(&mut self) {
        let n = self.buckets.len();
        for i in (0..n / 2).rev() {
            self.buckets[n / 2 + i] = self.buckets[2 * i] + self.buckets[2 * i + 1];
        }
        for b in &mut self.buckets[..n / 2] {
            *b = 0;
        }
        self.lo -= self.span();
        self.width *= 2.0;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The bucket boundaries and counts: `(bucket_lo, bucket_hi, count)`.
    pub fn buckets(&self) -> Vec<(f64, f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let lo = self.lo + self.width * i as f64;
                (lo, lo + self.width, c)
            })
            .collect()
    }

    /// Renders a compact text histogram (non-empty buckets only).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (lo, hi, c) in self.buckets() {
            if c == 0 {
                continue;
            }
            let bar = "#".repeat((c * 40 / peak).max(1) as usize);
            let _ = writeln!(out, "[{lo:>12.0}, {hi:>12.0}) {c:>8} {bar}");
        }
        out
    }
}

/// Reservoir-sampling quantile estimator: a uniform sample of bounded size
/// over an unbounded stream, queried for arbitrary quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantiles {
    sample: Vec<f64>,
    cap: usize,
    seen: u64,
    state: u64,
}

impl Quantiles {
    /// Creates an estimator keeping at most `cap` samples, seeded
    /// deterministically.
    pub fn new(cap: usize, seed: u64) -> Quantiles {
        Quantiles { sample: Vec::new(), cap: cap.max(1), seen: 0, state: seed | 1 }
    }

    fn next_rand(&mut self) -> u64 {
        // splitmix64: small, fast, good enough for reservoir positions.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Adds one observation (classic Algorithm R).
    pub fn add(&mut self, v: f64) {
        self.add_n(v, 1);
    }

    /// Adds `n` observations of the same value. While the reservoir is
    /// filling, this is exactly `n` calls to [`add`](Self::add); once
    /// full, one replacement draw stands in for the run — each slot's
    /// inclusion probability still shrinks as `cap/seen`, and since the
    /// `n` values are identical (one batched clock read), which of the
    /// run survives is indistinguishable. One draw per batch instead of
    /// [`LATENCY_BATCH`](crate::metrics) is what keeps record-close off
    /// the metrics-overhead budget.
    pub fn add_n(&mut self, v: f64, n: u64) {
        if !v.is_finite() || n == 0 {
            return;
        }
        let mut left = n;
        while left > 0 && self.sample.len() < self.cap {
            self.sample.push(v);
            self.seen += 1;
            left -= 1;
        }
        if left > 0 {
            self.seen += left;
            let j = self.next_rand() % self.seen;
            if (j as usize) < self.cap {
                self.sample[j as usize] = v;
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Folds `other`'s observations in by replaying its retained samples:
    /// exact while `other`'s reservoir has not overflowed; past that, each
    /// retained sample stands for an equal share of `other`'s count.
    pub fn merge(&mut self, other: &Quantiles) {
        let kept = other.sample.len() as u64;
        if kept == 0 {
            return;
        }
        let (each, extra) = (other.seen / kept, other.seen % kept);
        for (i, &v) in other.sample.iter().enumerate() {
            self.add_n(v, each + u64::from((i as u64) < extra));
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sample.is_empty() {
            return None;
        }
        let mut s = self.sample.clone();
        s.sort_by(f64::total_cmp);
        let pos = (q.clamp(0.0, 1.0) * (s.len() - 1) as f64).round() as usize;
        Some(s[pos])
    }

    /// The conventional five-number summary (min, p25, median, p75, max).
    pub fn five_numbers(&self) -> Option<[f64; 5]> {
        Some([
            self.quantile(0.0)?,
            self.quantile(0.25)?,
            self.quantile(0.5)?,
            self.quantile(0.75)?,
            self.quantile(1.0)?,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_everything() {
        let mut h = Histogram::new(8);
        for v in 0..1000 {
            h.add(v as f64);
        }
        assert_eq!(h.count(), 1000);
        let total: u64 = h.buckets().iter().map(|(_, _, c)| c).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn histogram_expands_right_and_left() {
        let mut h = Histogram::new(4);
        h.add(10.0);
        h.add(1_000_000.0); // forces right expansion
        h.add(-500.0); // forces left expansion
        assert_eq!(h.count(), 3);
        let total: u64 = h.buckets().iter().map(|(_, _, c)| c).sum();
        assert_eq!(total, 3);
        let bs = h.buckets();
        assert!(bs.first().unwrap().0 <= -500.0);
        assert!(bs.last().unwrap().1 > 1_000_000.0);
    }

    #[test]
    fn histogram_approximates_a_uniform_distribution() {
        let mut h = Histogram::new(16);
        for i in 0..16_000 {
            h.add((i % 1600) as f64);
        }
        // Every non-empty bucket should hold roughly count/nonempty.
        let nonempty: Vec<u64> =
            h.buckets().iter().map(|(_, _, c)| *c).filter(|&c| c > 0).collect();
        let expect = 16_000 / nonempty.len() as u64;
        for c in nonempty {
            assert!(c > expect / 4 && c < expect * 4, "c = {c}, expect ~{expect}");
        }
    }

    #[test]
    fn quantiles_exact_when_under_capacity() {
        let mut q = Quantiles::new(100, 42);
        for v in 1..=99 {
            q.add(v as f64);
        }
        assert_eq!(q.quantile(0.5), Some(50.0));
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.quantile(1.0), Some(99.0));
    }

    #[test]
    fn quantiles_approximate_over_large_streams() {
        let mut q = Quantiles::new(512, 7);
        for v in 0..100_000 {
            q.add(v as f64);
        }
        let med = q.quantile(0.5).unwrap();
        assert!((med - 50_000.0).abs() < 10_000.0, "median ~{med}");
        let p95 = q.quantile(0.95).unwrap();
        assert!(p95 > 85_000.0, "p95 ~{p95}");
        assert_eq!(q.count(), 100_000);
    }

    #[test]
    fn five_number_summary() {
        let mut q = Quantiles::new(10, 1);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            q.add(v);
        }
        assert_eq!(q.five_numbers(), Some([1.0, 2.0, 3.0, 4.0, 5.0]));
        let empty = Quantiles::new(10, 1);
        assert_eq!(empty.five_numbers(), None);
    }

    #[test]
    fn summaries_ignore_non_finite_values() {
        let mut h = Histogram::new(4);
        h.add(f64::NAN);
        h.add(f64::INFINITY);
        assert_eq!(h.count(), 0);
        let mut q = Quantiles::new(4, 3);
        q.add(f64::NAN);
        assert_eq!(q.count(), 0);
    }

    #[test]
    fn render_is_nonempty_for_nonempty_histograms() {
        let mut h = Histogram::new(4);
        for v in [1.0, 2.0, 2.5, 9.0] {
            h.add(v);
        }
        let text = h.render();
        assert!(text.contains('#'), "{text}");
    }

    #[test]
    fn merge_replays_samples_and_keeps_the_count() {
        let mut a = Quantiles::new(8, 1);
        let mut b = Quantiles::new(8, 2);
        b.add_n(3.0, 4);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.quantile(0.5), Some(3.0));
        // An overflowed reservoir still hands on its whole count.
        let mut big = Quantiles::new(4, 5);
        big.add_n(7.0, 10);
        a.merge(&big);
        assert_eq!(a.count(), 14);
    }
}
