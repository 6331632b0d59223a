//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! runner idle time, histogram quantiles, and the metric-name grammar.

use mg_obs::telemetry::bucket_bounds;
use mg_obs::HistSnapshot;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// One latency percentile with the sample counts that justify it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile, e.g. 99.
    pub pct: u32,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// The nearest-rank `pct`-th percentile of `v`: the sample at 1-based
/// rank `ceil(pct / 100 * n)`. `None` when empty.
pub fn percentile(v: &[f64], pct: u32) -> Option<Percentile> {
    if v.is_empty() || pct == 0 || pct > 100 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = (pct as usize * n).div_ceil(100).max(1);
    Some(Percentile {
        pct,
        value: s[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The highest whole percentile below 100 that still has at least
/// [`MIN_BEYOND`] samples beyond it. `None` when there are too few
/// samples for any.
pub fn tail(v: &[f64]) -> Option<Percentile> {
    (50..=99)
        .rev()
        .filter_map(|p| percentile(v, p))
        .find(|p| p.beyond >= MIN_BEYOND)
}

/// Worker time a parallel pass left unused: `workers × wall − Σ task`.
/// On a balanced pass this is near zero; the slowest-task tail makes it
/// grow.
pub fn runner_idle_s(workers: usize, wall_s: f64, task_s: &[f64]) -> f64 {
    workers as f64 * wall_s - task_s.iter().sum::<f64>()
}

/// Quantile `q` of a telemetry histogram, interpolated linearly inside
/// the bucket that holds it (the buckets are log-spaced, so the bucket
/// bound alone would move in steps of up to 1/8). Zero when empty.
pub fn hist_quantile(h: &HistSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * h.count as f64;
    let mut before = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 && (before + n) as f64 >= target {
            let (lo, hi) = bucket_bounds(i, h.sub_bits);
            let hi = hi.min(h.max) as f64;
            let lo = lo as f64;
            let frac = ((target - before as f64) / n as f64).clamp(0.0, 1.0);
            return lo + (hi - lo).max(0.0) * frac;
        }
        before += n;
    }
    h.max as f64
}

/// Whether `name` is a valid metric or workload name: 1 to 64 ASCII
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid metric unit: 1 to 16 ASCII letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&v, 99).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (99.0, 100, 1));
        assert_eq!(percentile(&v, 50).unwrap().value, 50.0);
        assert_eq!(percentile(&[7.0], 99).unwrap().value, 7.0);
        assert!(percentile(&[], 50).is_none());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 1200 requests: p99 sits at rank 1188, twelve beyond it.
        let v: Vec<f64> = (0..1200).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.samples, t.beyond), (99, 1200, 12));
        // 78 sweep rows: p87 has ten beyond (rank 68), p88 only nine.
        let rows: Vec<f64> = (0..78).map(f64::from).collect();
        let t = tail(&rows).unwrap();
        assert_eq!((t.pct, t.beyond), (87, 10));
        assert_eq!(percentile(&rows, 88).unwrap().beyond, 9);
        // 1000 samples: p99 has exactly ten beyond, which suffices.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().pct, 99);
        // Input order does not matter.
        let mut rev = rows.clone();
        rev.reverse();
        assert_eq!(tail(&rev), tail(&rows));
    }

    #[test]
    fn tail_needs_enough_samples() {
        let v: Vec<f64> = (0..15).map(f64::from).collect();
        assert!(tail(&v).is_none(), "p50 of 15 leaves only 7 beyond");
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().pct, 50);
    }

    #[test]
    fn runner_idle_is_unused_worker_time() {
        // Two workers for 10 s; tasks of 9 s and 6 s leave 5 s idle.
        assert_eq!(runner_idle_s(2, 10.0, &[9.0, 6.0]), 5.0);
        // A perfectly balanced pass has none.
        assert_eq!(runner_idle_s(2, 4.0, &[2.0, 2.0, 2.0, 2.0]), 0.0);
        // One worker is never idle when its tasks fill the wall time.
        assert_eq!(runner_idle_s(1, 3.0, &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn hist_quantile_interpolates_inside_a_bucket() {
        let h = mg_obs::TeleHist::with_sub_bits(3);
        for v in [100u64, 100, 100, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        // All four samples share bucket [96, 103]; max clamps it to 100.
        let (lo, _) = bucket_bounds(mg_obs::telemetry::bucket_index(100, 3), 3);
        assert_eq!(lo, 96);
        assert_eq!(hist_quantile(&s, 1.0), 100.0);
        assert_eq!(hist_quantile(&s, 0.5), 98.0);
        assert_eq!(hist_quantile(&mg_obs::TeleHist::new().snapshot(), 0.5), 0.0);
        // Exact small buckets reproduce their values.
        let h = mg_obs::TeleHist::with_sub_bits(3);
        h.record(1);
        h.record(5);
        assert_eq!(hist_quantile(&h.snapshot(), 1.0), 5.0);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "cold_s",
            "sim.engine_s",
            "bench.cache.hit_ratio",
            "p99",
            "fig1-sweep",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "MB", "%", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-per-cycle", "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }
}
