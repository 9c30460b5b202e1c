//! Summary statistics over timing samples.

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The median (mean of the middle pair for even counts); `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail latency: the value at `percentile`, read from `count` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub count: usize,
}

/// The nearest-rank `p`-th percentile, if at least ten samples lie
/// strictly beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    (rank >= 1 && n - rank >= 10).then(|| v[rank - 1])
}

/// The highest percentile in [`TAIL_PERCENTILES`] with at least ten
/// samples strictly beyond it (nearest-rank). With fewer than twenty
/// samples no percentile qualifies, and the maximum (percentile 100) is
/// reported instead, so a tail is never read off a handful of points
/// without saying so.
pub fn tail(samples: &[f64]) -> Tail {
    let count = samples.len();
    for p in TAIL_PERCENTILES {
        if let Some(value) = percentile(samples, p) {
            return Tail {
                percentile: p,
                value,
                count,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: samples.iter().copied().fold(0.0, f64::max),
        count,
    }
}

/// Geometric mean of positive values; `0.0` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 sample beyond, p99 leaves exactly 10.
        assert_eq!(
            tail(&samples),
            Tail {
                percentile: 99.0,
                value: 990.0,
                count: 1000
            }
        );
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: p99 is rank 990, 9 beyond; p95 is rank 950.
        assert_eq!(tail(&samples).percentile, 95.0);
        assert_eq!(tail(&samples).value, 950.0);
        assert_eq!(tail(&samples).count, 999);
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&samples).percentile, 50.0);
        assert_eq!(tail(&samples).value, 10.0);
    }

    #[test]
    fn tail_without_enough_samples_reports_the_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.percentile, t.value, t.count), (100.0, 3.0, 3));
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        samples.reverse();
        let t = tail(&samples);
        assert_eq!((t.percentile, t.value), (95.0, 190.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), Some(190.0));
        assert_eq!(percentile(&samples, 99.0), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
