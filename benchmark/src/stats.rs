//! Sample statistics and failure accounting.
//!
//! Timings are reported as the median and the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, with the sample
//! count. Percentiles use the nearest-rank rule on sorted samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first.
const TAILS: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    // Integer arithmetic in hundredths of a percent, so 99.0 % of 1000
    // is exactly rank 990 whatever the float rounding.
    let hundredths = (p * 100.0).round() as u64;
    let r = (hundredths * n as u64).div_ceil(10_000) as usize;
    r.clamp(1, n.max(1)) - 1
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(p, n)
}

/// Whether percentile `p` of `n` samples has enough samples beyond it
/// to be reported.
pub fn reportable(p: f64, n: usize) -> bool {
    n > 0 && beyond(p, n) >= MIN_BEYOND
}

/// The highest tail percentile reportable for `n` samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.iter().copied().find(|&p| reportable(p, n))
}

/// A set of timing samples, sorted on demand.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.values.is_empty()).then(|| self.sum() / self.values.len() as f64)
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `p`, if any sample exists.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        let n = self.values.len();
        self.values.get(rank(p, n)).copied()
    }

    /// Percentile `p`, only when [`reportable`] for this sample count.
    pub fn tail(&mut self, p: f64) -> Option<f64> {
        if reportable(p, self.len()) {
            self.percentile(p)
        } else {
            None
        }
    }

    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }
}

/// Median of a small slice (mean of the middle pair for even lengths).
pub fn median_of(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => v.get(n / 2).copied(),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)`); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

/// `(q3 - q1) / median` of `values` (0 when undefined).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, med, q3]) if med != 0.0 => (q3 - q1) / med,
        _ => 0.0,
    }
}

/// Attempted and failed operations. A failure is an error, a panic, an
/// `ERR` or `SHED` reply, end of stream or no reply; a `REJECT` is a
/// correct answer and counts as a success.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 (1-based), 10 beyond.
        assert_eq!(beyond(99.0, 1000), 10);
        assert!(reportable(99.0, 1000));
        assert!(!reportable(99.0, 999));
        assert!(!reportable(99.0, 500));
        assert!(reportable(99.9, 10_000));
        assert!(!reportable(99.9, 9_999));
    }

    #[test]
    fn tail_percentile_is_the_highest_reportable() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in (1..=1000).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), Some(500.0));
        assert_eq!(s.percentile(99.0), Some(990.0));
        assert_eq!(s.tail(99.0), Some(990.0));
        assert_eq!(s.tail(99.9), None);
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median_of(&[]), None);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(spread(&[1.0, 1.0, 1.0]), 0.0);
        assert_eq!(spread(&[10.0, 10.0, 0.0, 12.0]), 0.9);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([0, 10, 10, 12], n=4) == [2.5, 10.0, 11.5]
        assert_eq!(quartiles(&[10.0, 10.0, 0.0, 12.0]), Some([2.5, 10.0, 11.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn failure_accounting() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_share(), 0.25);
        t.add(Tally {
            attempted: 6,
            failed: 0,
        });
        assert_eq!(t.failed_share(), 0.1);
    }
}
