//! Exact order statistics over raw samples.
//!
//! Every timing the benchmark reports is computed here from the full list
//! of samples — never from histogram buckets, whose power-of-two edges
//! would quantize a p50 to values like 0.512 or 1.024 ms.

/// Quantile `q ∈ [0, 1]` of `samples` by linear interpolation between the
/// two nearest order statistics (the definition NumPy and R use by
/// default): `q = 0.5` is the ordinary median. Returns NaN when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median, p90 and p99 of a sample set, with its size.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            n: samples.len(),
            p50: quantile(samples, 0.5),
            p90: quantile(samples, 0.9),
            p99: quantile(samples, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_exact_on_raw_samples() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(median(&xs), 5.5);
        assert!((quantile(&xs, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[0.7]), 0.7);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantiles_are_not_bucketed() {
        // A histogram with power-of-two buckets reports both of these as
        // the same bucket edge; exact quantiles keep them apart.
        let a = [0.60, 0.61, 0.62];
        let b = [0.90, 0.91, 0.92];
        assert_eq!(median(&a), 0.61);
        assert_eq!(median(&b), 0.91);
    }

    #[test]
    fn summary_counts_samples() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 101);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
    }
}
