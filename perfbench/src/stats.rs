//! Order statistics and the typed rows the benchmark prints.

/// Nearest-rank quantile of `values` (sorted internally); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median over consecutive windows of `per` values of `f(window)`: a
/// statistic of a typical stretch of the run, which a stall confined to one
/// stretch cannot move. Trailing values short of a window are dropped;
/// fewer than one window's worth falls back to `f(values)`.
pub fn windowed(values: &[f64], per: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
    if values.len() < per || per == 0 {
        return f(values);
    }
    let stats: Vec<f64> = values.chunks_exact(per).map(&f).collect();
    median(&stats)
}

/// Completions per second in each whole window of `secs`, given each
/// completion's time into a phase of length `wall`.
pub fn window_rates(done_at: &[f64], wall: f64, secs: f64) -> Vec<f64> {
    let windows = (wall / secs).floor() as usize;
    let mut counts = vec![0.0; windows];
    for &t in done_at {
        if let Some(count) = counts.get_mut((t / secs) as usize) {
            *count += 1.0;
        }
    }
    counts.iter().map(|c| c / secs).collect()
}

/// One typed output row: metric name, unit, value and the number of
/// samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_statistics_ignore_one_bad_stretch() {
        let mut v = vec![1.0; 30];
        v[5] = 100.0;
        assert_eq!(windowed(&v, 10, |w| quantile(w, 1.0)), 1.0);
        assert_eq!(windowed(&v[..5], 10, |w| quantile(w, 1.0)), 1.0);
        let done_at: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
        assert_eq!(window_rates(&done_at, 1.0, 0.25), vec![100.0; 4]);
    }
}
