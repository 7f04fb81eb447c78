//! Summary statistics: nearest-rank percentiles, medians and quartiles,
//! span self time, and counter-delta ratios.

/// Nearest-rank percentile of an ascending slice: the smallest sample such
/// that at least `q·N` samples are less than or equal to it. Exact — no
/// interpolation, no bucketing. `None` for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// Nearest-rank median of unordered samples. `None` for an empty slice.
pub fn p50(samples: &[u64]) -> Option<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile(&v, 0.5)
}

/// Median of unordered values (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method (the default of
/// Python's `statistics.quantiles(values, n=4)`), so spreads printed here
/// match the ones computed over whole runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// `num / base`, or `None` when the base is zero: a ratio over no events
/// is absent, not NaN.
pub fn ratio(num: u64, base: u64) -> Option<f64> {
    (base > 0).then(|| num as f64 / base as f64)
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// covered by its children. Children may nest or overlap each other and
/// may stick out of the parent; each covered instant counts once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1), "rank is at least 1");
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), Some(2), "no interpolation");
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(p50(&[9, 1, 4, 7]), Some(4), "sorts a copy first");
        assert_eq!(p50(&[]), None);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn ratios_with_a_zero_base_are_absent() {
        assert_eq!(ratio(3, 4), Some(0.75));
        assert_eq!(ratio(0, 4), Some(0.0));
        assert_eq!(ratio(0, 0), None);
        assert_eq!(ratio(5, 0), None);
    }

    #[test]
    fn self_time_subtracts_covered_intervals_once() {
        assert_eq!(self_time(0, 100, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 70)]), 70);
        // A child nested inside another covers nothing new.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        // Overlapping children count their union.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        // Children entirely outside the parent are ignored.
        assert_eq!(self_time(10, 20, &[(0, 5), (25, 30)]), 10);
        // Full coverage leaves no self time.
        assert_eq!(self_time(0, 10, &[(0, 10), (2, 3)]), 0);
    }
}
