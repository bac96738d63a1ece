//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for even lengths);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest whole percentile `p` (50..=99) whose nearest-rank value
/// still leaves at least `beyond` samples strictly after it, for `n`
/// samples. `None` when even the median leaves fewer than `beyond`.
pub fn tail_percentile(n: usize, beyond: usize) -> Option<u32> {
    (50..=99u32).rev().find(|&p| {
        let rank = (p as usize * n).div_ceil(100);
        n.saturating_sub(rank) >= beyond
    })
}

/// Nearest-rank percentile `p` of `xs` (the smallest value with at
/// least `p`% of the samples at or below it); 0 for an empty slice.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (p as usize * s.len()).div_ceil(100).max(1);
    s[rank - 1]
}

/// Geometric mean of strictly positive ratios; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&xs, 99), 99.0);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
    }
}
