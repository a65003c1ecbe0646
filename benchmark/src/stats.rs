//! The one statistics module of the benchmark: nearest-rank percentiles,
//! the "≥10 samples beyond" rule for tail percentiles, quartiles, and the
//! per-segment summary every workload reports. Nothing else in
//! `benchmark/` sorts samples or picks a rank.

/// How many samples must lie beyond a tail percentile for it to be
/// reported (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when the wanted one leaves too few
/// samples beyond it.
const LADDER: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `p` in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Sorts in place (total order; the benchmark never produces NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted slice; the mean of the middle two for an even
/// count (few segments or runs, where nearest rank would lean low).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method: position `p·(n+1)`, linear interpolation, clamped to the
/// ends) — the driver measures run-to-run spread with that function, so
/// `compare` does too. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |i: usize| {
        // Cut point i of 4, 1-based position i·(n+1)/4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance over the median: the spread the driver holds
/// against a metric's bound. `None` below two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// What a workload reports for one metric: the median over its measured
/// segments, their quartiles, and how many raw samples stood behind them.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Median over segments.
    pub value: f64,
    /// First quartile over segments, when there are at least two.
    pub q1: Option<f64>,
    /// Third quartile over segments.
    pub q3: Option<f64>,
    /// Segments summarized.
    pub segments: usize,
    /// Raw samples behind all segments together.
    pub samples: usize,
}

impl Summary {
    /// A single measured number (a count, a size, one timed call).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            q1: None,
            q3: None,
            segments: 1,
            samples: 1,
        }
    }

    /// The median and quartiles of one value per segment.
    pub fn of_segments(per_segment: &[f64], samples: usize) -> Summary {
        assert!(!per_segment.is_empty(), "summary of no segments");
        let q = quartiles(per_segment);
        Summary {
            value: median(per_segment),
            q1: q.map(|q| q.0),
            q3: q.map(|q| q.1),
            segments: per_segment.len(),
            samples,
        }
    }
}

/// The `p`-th percentile of every segment, summarized over segments.
/// Segments are sorted in place.
pub fn segment_percentile(segments: &mut [Vec<f64>], p: f64) -> Summary {
    let samples = segments.iter().map(Vec::len).sum();
    let per: Vec<f64> = segments
        .iter_mut()
        .map(|s| {
            sort(s);
            percentile(s, p)
        })
        .collect();
    Summary::of_segments(&per, samples)
}

/// The highest percentile not above `want` that leaves at least
/// [`MIN_BEYOND`] samples beyond it in *every* segment; the median when
/// none does.
pub fn supported_tail(segments: &[Vec<f64>], want: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| segments.iter().all(|s| beyond(s.len(), p) >= MIN_BEYOND))
        .unwrap_or(0.5)
}

/// The tail percentile of every segment summarized over segments, at the
/// highest level the sample supports; returns the level used so the
/// result file can say when it is not the one the metric is named after.
pub fn segment_tail(segments: &mut [Vec<f64>], want: f64) -> (Summary, f64) {
    let p = supported_tail(segments, want);
    (segment_percentile(segments, p), p)
}

/// Splits `(when, value)` samples into `n` equal spans of `[0, length)`
/// by `when`; samples outside the window are dropped.
pub fn split_segments(samples: &[(f64, f64)], length: f64, n: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); n];
    for &(when, value) in samples {
        if when >= 0.0 && when < length {
            out[((when / length * n as f64) as usize).min(n - 1)].push(value);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(100, 0.5), 50);
        assert_eq!(beyond(1, 0.99), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_falls_back_until_ten_samples_lie_beyond() {
        let seg = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(supported_tail(&[seg(1000), seg(2000)], 0.99), 0.99);
        // One thin segment lowers the level for all of them.
        assert_eq!(supported_tail(&[seg(999), seg(2000)], 0.99), 0.95);
        assert_eq!(supported_tail(&[seg(100)], 0.99), 0.90);
        assert_eq!(supported_tail(&[seg(100)], 0.90), 0.90);
        assert_eq!(supported_tail(&[seg(30)], 0.99), 0.50);
        assert_eq!(supported_tail(&[seg(5)], 0.99), 0.50);
        let (s, p) = segment_tail(&mut [seg(1000), seg(1000), seg(1000)], 0.99);
        assert_eq!((s.value, p), (989.0, 0.99));
    }

    #[test]
    fn summaries_carry_segments_and_sample_counts() {
        let s = Summary::of_segments(&[3.0, 1.0, 2.0, 5.0, 4.0], 500);
        assert_eq!(s.value, 3.0);
        assert_eq!((s.q1, s.q3), (Some(1.5), Some(4.5)));
        assert_eq!((s.segments, s.samples), (5, 500));
        let one = Summary::single(9.0);
        assert_eq!((one.q1, one.segments, one.samples), (None, 1, 1));
    }

    #[test]
    fn segments_split_by_time_and_drop_strays() {
        let samples = [
            (0.0, 1.0),
            (0.9, 2.0),
            (1.0, 3.0),
            (4.99, 4.0),
            (5.0, 5.0),
            (-0.1, 6.0),
        ];
        let segs = split_segments(&samples, 5.0, 5);
        assert_eq!(segs[0], vec![1.0, 2.0]);
        assert_eq!(segs[1], vec![3.0]);
        assert_eq!(segs[4], vec![4.0]);
        assert_eq!(segs.iter().map(Vec::len).sum::<usize>(), 4);
    }
}
