//! Order statistics for timings, with the sample-count rule: a timing is
//! reported as its median plus the highest tail percentile that still has
//! at least ten samples beyond it, and the sample count goes with it.

/// Tail percentiles tried from the highest down.
const TAIL_PERCENTILES: [u32; 2] = [99, 90];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// The value at percentile `p` (0–100) of `sorted` by nearest rank.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The highest tail percentile with at least ten of `n` samples beyond
/// it, or `None` when even p90 has too few (the maximum is reported then).
#[must_use]
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n * (100 - p as usize) / 100 >= MIN_BEYOND)
}

/// A timing summary: median, tail, and what the tail is.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail value: the percentile named by `tail_label`.
    pub tail: f64,
    /// `"p99"`, `"p90"` or `"max"`.
    pub tail_label: String,
}

/// Summarizes `values` by the sample-count rule. Infinite values (failed
/// operations) sort last, so they count against the tail.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (tail, tail_label) = match tail_percentile(v.len()) {
        Some(p) => (percentile(&v, f64::from(p)), format!("p{p}")),
        None => (*v.last().expect("non-empty"), "max".to_owned()),
    };
    Summary {
        n: v.len(),
        p50: percentile(&v, 50.0),
        tail,
        tail_label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(999), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(20_000), Some(99));
    }

    #[test]
    fn summary_states_count_and_tail_kind() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(
            (s.n, s.p50, s.tail, s.tail_label.as_str()),
            (1000, 500.0, 990.0, "p99")
        );
        let s = summarize(&[5.0, 1.0, 9.0]);
        assert_eq!(
            (s.n, s.p50, s.tail, s.tail_label.as_str()),
            (3, 5.0, 9.0, "max")
        );
    }

    #[test]
    fn failures_count_against_the_tail() {
        let mut v: Vec<f64> = vec![1.0; 980];
        v.extend([f64::INFINITY; 20]);
        assert!(summarize(&v).tail.is_infinite(), "20 failures reach p99");
        let mut v: Vec<f64> = vec![1.0; 995];
        v.extend([f64::INFINITY; 5]);
        assert_eq!(summarize(&v).tail, 1.0, "5 failures stay beyond p99");
    }
}
