//! Order statistics over timing samples.

/// Median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank 90th percentile, reported only when at least
/// [`TAIL_SAMPLES`] samples lie beyond it (so from 100 samples on):
/// a p90 over fewer samples is one noisy value, not a tail.
pub fn p90(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let rank = (s.len() * 9).div_ceil(10); // 1-based nearest rank
    (rank >= 1 && s.len() - rank >= TAIL_SAMPLES).then(|| s[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let upto = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        assert_eq!(p90(&[]), None);
        assert_eq!(p90(&upto(99)), None, "only 9 samples beyond rank 90");
        assert_eq!(p90(&upto(100)), Some(90.0));
        let beyond = |n: usize| {
            let s = upto(n);
            let p = p90(&s).expect("enough samples");
            s.iter().filter(|&&v| v > p).count()
        };
        for n in [100, 101, 109, 110, 512, 1536] {
            assert!(beyond(n) >= TAIL_SAMPLES, "n = {n}");
        }
    }
}
