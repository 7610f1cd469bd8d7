//! Exact order statistics over the benchmark's own raw samples.
//!
//! Every latency the benchmark reports is read off a fully sorted copy
//! of the samples it recorded; nothing goes through a bucketed
//! histogram. A percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie above it, so a tail figure is never read
//! off a handful of points.

/// Samples that must lie strictly above a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// How a reported tail figure was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// The exact percentile: enough samples lie beyond it.
    Percentile,
    /// Too few samples for the percentile; the figure is the sample
    /// maximum, which bounds the percentile from above.
    Max,
}

impl Basis {
    pub fn label(self) -> &'static str {
        match self {
            Basis::Percentile => "percentile",
            Basis::Max => "max",
        }
    }
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The plain median (mean of the middle pair for an even count) —
    /// how repeated runs of one step are summarised.
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let hi = self.sorted[n / 2];
        Some(if n % 2 == 1 {
            hi
        } else {
            (self.sorted[n / 2 - 1] + hi) / 2.0
        })
    }

    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The nearest-rank `q`-quantile (`0 < q < 1`): the smallest sample
    /// with at least `q·n` samples at or below it. `None` unless at
    /// least [`MIN_BEYOND`] samples lie above that rank.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 || !(q > 0.0 && q < 1.0) {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if n - rank < MIN_BEYOND {
            return None;
        }
        Some(self.sorted[rank - 1])
    }

    /// The `q`-percentile when it is reportable, otherwise the maximum,
    /// with the basis that says which.
    pub fn tail(&self, q: f64) -> Option<(f64, Basis)> {
        match self.percentile(q) {
            Some(v) => Some((v, Basis::Percentile)),
            None => self.max().map(|v| (v, Basis::Max)),
        }
    }

    /// The p50: the reportable percentile, or the plain median of a
    /// small set.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.5).or_else(|| self.median())
    }
}

/// The median over consecutive windows of `window` seconds of each
/// window's reportable `q`-percentile, from `(start offset in seconds,
/// value)` pairs, with the number of windows that had one. A burst of
/// host contention inside a run moves the tail of the windows it
/// touches, not the median across them. `None` when no window holds
/// enough samples.
pub fn windowed_percentile(timed: &[(f64, f64)], window: f64, q: f64) -> Option<(f64, usize)> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in timed {
        let w = (t / window).floor().max(0.0) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(v);
    }
    let tails: Vec<f64> = windows
        .into_iter()
        .filter_map(|w| Samples::new(w).percentile(q))
        .collect();
    (!tails.is_empty()).then(|| (median(&tails), tails.len()))
}

/// Median of a slice of values (see [`Samples::median`]); `0.0` for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Samples {
        // Shuffled on purpose: the set must sort itself.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        Samples::new(v)
    }

    #[test]
    fn nearest_rank_on_one_to_a_thousand() {
        let s = one_to(1000);
        assert_eq!(s.percentile(0.5), Some(500.0));
        assert_eq!(s.percentile(0.9), Some(900.0));
        assert_eq!(s.percentile(0.99), Some(990.0));
        // p99.9 has one sample beyond it: not reportable.
        assert_eq!(s.percentile(0.999), None);
        assert_eq!(s.max(), Some(1000.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1..=1009: p99 is rank 999, exactly ten samples above.
        assert_eq!(one_to(1009).percentile(0.99), Some(999.0));
        // 1..=1000: p99 is rank 990, ten above; 1..=999 leaves nine.
        assert_eq!(one_to(1000).percentile(0.99), Some(990.0));
        assert_eq!(one_to(999).percentile(0.99), None);
        // The median needs at least 20 samples.
        assert_eq!(one_to(20).percentile(0.5), Some(10.0));
        assert_eq!(one_to(19).percentile(0.5), None);
    }

    #[test]
    fn tail_falls_back_to_the_maximum() {
        assert_eq!(one_to(999).tail(0.99), Some((999.0, Basis::Max)));
        assert_eq!(one_to(2000).tail(0.99), Some((1980.0, Basis::Percentile)));
        assert_eq!(Samples::new(Vec::new()).tail(0.99), None);
    }

    #[test]
    fn skewed_samples_keep_distinct_quantiles() {
        // 990 fast samples and 10 slow ones: a log-bucket histogram
        // collapses these; exact order statistics must not.
        let mut v = vec![2.0; 900];
        v.extend(vec![3.0; 90]);
        v.extend(vec![50.0; 10]);
        let s = Samples::new(v);
        assert_eq!(s.percentile(0.5), Some(2.0));
        assert_eq!(s.percentile(0.95), Some(3.0));
        assert_eq!(s.percentile(0.99), Some(3.0));
        assert_eq!(s.max(), Some(50.0));
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // Three 1 s windows of 1..=1000; the middle one is slow.
        let mut timed = Vec::new();
        for w in 0..3 {
            let scale = if w == 1 { 100.0 } else { 1.0 + w as f64 };
            for i in 1..=1000 {
                timed.push((w as f64 + i as f64 / 1001.0, i as f64 * scale));
            }
        }
        // Window p99s: 990, 99000, 2970 -> median 2970.
        assert_eq!(windowed_percentile(&timed, 1.0, 0.99), Some((2970.0, 3)));
        // Windows without ten samples beyond p99 do not count.
        timed.push((3.5, 1e9));
        assert_eq!(windowed_percentile(&timed, 1.0, 0.99), Some((2970.0, 3)));
        assert_eq!(windowed_percentile(&timed[..500], 1.0, 0.99), None);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(one_to(5).p50(), Some(3.0));
        assert_eq!(one_to(40).p50(), Some(20.0));
    }
}
