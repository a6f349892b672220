//! Order statistics for the benchmark's timings.

/// The median of `xs` (the mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 1`), reported only when
/// at least ten samples lie beyond it — fewer would make it no tail.
#[must_use]
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    // Smallest rank r (1-based) with r >= p * n.
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + 10 {
        return None;
    }
    Some(v[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u32) -> Vec<f64> {
        (1..=n).map(f64::from).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(&ramp(99), 0.9), None);
        assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
        // 101 samples: rank ceil(90.9) = 91 leaves exactly ten beyond.
        assert_eq!(tail_percentile(&ramp(101), 0.9), Some(91.0));
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(tail_percentile(&v, 0.9), Some(180.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
