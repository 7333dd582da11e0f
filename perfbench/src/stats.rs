//! Order statistics for timing samples.

/// A tail percentile reads no further out than this many samples from
/// the top, so it is never one lucky or unlucky call.
pub const MIN_BEYOND: usize = 10;

/// Median of a sample (mean of the two middle values for an even count).
/// Panics on an empty sample: every reported timing has at least one.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "median of an empty sample");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest nearest-rank percentile at or below `p` (in percent)
/// that leaves at least [`MIN_BEYOND`] samples above it, never below
/// the median. Returns the value and the percentile it actually is.
pub fn tail(samples: &[f64], p: f64) -> (f64, f64) {
    let s = sorted(samples);
    assert!(!s.is_empty(), "percentile of an empty sample");
    let n = s.len();
    let wanted = (p / 100.0 * n as f64).ceil() as usize;
    let floor = (n / 2 + 1).min(n);
    let rank = wanted.min(n.saturating_sub(MIN_BEYOND)).max(floor);
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Completions this many or more per window keep the window's count
/// from reading in coarse steps.
const PER_WINDOW: usize = 50;

/// Completions per second in each of equal windows of the measuring
/// phase (each at least 1 s long and expected to hold about
/// [`PER_WINDOW`] completions), so that the median window is a rate
/// one disturbed second does not move. `done_s` are completion times in
/// seconds from the start of the phase, which lasted `wall_s`. Returns
/// each window's start, end and rate.
pub fn windowed_rates(done_s: &[f64], wall_s: f64) -> Vec<(f64, f64, f64)> {
    let windows = (done_s.len() / PER_WINDOW).min(wall_s as usize).max(1);
    let len = wall_s / windows as f64;
    let mut counts = vec![0usize; windows];
    for &t in done_s {
        counts[((t / len) as usize).min(windows - 1)] += 1;
    }
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as f64 * len, (i + 1) as f64 * len, c as f64 / len))
        .collect()
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
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn windowed_rates_hold_each_window() {
        // 10 s, 100 completions a second, one second stalled.
        let mut done: Vec<f64> = (0..1000).map(|i| i as f64 / 100.0).collect();
        done.retain(|t| !(3.0..4.0).contains(t));
        let w = windowed_rates(&done, 10.0);
        assert_eq!(w.len(), 10);
        assert_eq!((w[3].0, w[3].1, w[3].2), (3.0, 4.0, 0.0));
        let rates: Vec<f64> = w.iter().map(|&(_, _, r)| r).collect();
        assert_eq!(median(&rates), 100.0);
        // Few completions: windows stretch to hold about 50 each.
        let done: Vec<f64> = (0..120).map(|i| i as f64 / 4.0).collect();
        let w = windowed_rates(&done, 30.0);
        assert_eq!(w, vec![(0.0, 15.0, 4.0), (15.0, 30.0, 4.0)]);
    }

    #[test]
    fn tail_is_p99_when_enough_samples() {
        let s: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (v, p) = tail(&s, 99.0);
        assert_eq!(v, 1980.0);
        assert_eq!(p, 99.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p99 would leave one sample beyond; the rule walks
        // back to rank 90, leaving exactly ten.
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (v, p) = tail(&s, 99.0);
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), MIN_BEYOND);
    }

    #[test]
    fn tail_never_reads_below_the_median() {
        let s: Vec<f64> = (1..=12).map(f64::from).collect();
        let (v, p) = tail(&s, 99.0);
        assert_eq!(v, 7.0);
        assert!(v >= median(&s));
        assert!((p - 700.0 / 12.0).abs() < 1e-9);
        let (v, _) = tail(&[5.0], 99.0);
        assert_eq!(v, 5.0);
    }
}
