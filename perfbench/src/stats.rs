//! Order statistics over exact samples, ruler normalisation and the
//! metric-name rules of the benchmark's JSON contract.

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer cannot distinguish a tail from a single stall.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (sorts in place). `NaN` for an empty slice.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Arithmetic mean of `samples`. `NaN` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Nearest-rank index of percentile `pct` in `n` sorted samples.
fn rank(n: usize, pct: f64) -> usize {
    let r = (pct / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The highest percentile not above `want` that has at least
/// [`MIN_BEYOND`] of `n` samples strictly beyond its nearest rank, in
/// steps of the ladder 50 / 90 / 99 / 99.9. `None` when even the median
/// is unsupported.
pub fn supported_percentile(n: usize, want: f64) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .filter(|&p| p <= want)
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND)
}

/// Exact (nearest-rank) percentile of the samples, after the
/// ≥[`MIN_BEYOND`] rule: returns `(percentile used, value)`, falling back
/// to the highest supported percentile below `want`.
pub fn tail(samples: &mut [f64], want: f64) -> Option<(f64, f64)> {
    let pct = supported_percentile(samples.len(), want)?;
    samples.sort_by(f64::total_cmp);
    Some((pct, samples[rank(samples.len(), pct)]))
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// A host-time sample expressed at reference host speed: the ruler took
/// `ruler` on the same thread right after the sample and `r0` on the
/// reference host, so `sample × r0 / ruler` cancels the host's speed.
pub fn normalise(sample: f64, ruler: f64, r0: f64) -> f64 {
    sample * r0 / ruler
}

/// Whether `name` obeys the contract's metric-name rule: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` obeys the contract's unit rule: at most 16 of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_weighs_both_modes() {
        // Three fast readings and one slow: the median stays in the fast
        // mode, the mean moves a quarter of the way to the slow one.
        let readings = [250.0, 250.0, 250.0, 450.0];
        assert_eq!(mean(&readings), 300.0);
        assert_eq!(median(&mut readings.clone()), 250.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
        assert_eq!(supported_percentile(1000, 99.0), Some(99.0));
        // One fewer sample leaves only 9 beyond p99: fall back to p90.
        assert_eq!(supported_percentile(999, 99.0), Some(90.0));
        assert_eq!(supported_percentile(100, 99.0), Some(90.0));
        // 20 samples: p90 has 2 beyond, the median 10.
        assert_eq!(supported_percentile(20, 99.0), Some(50.0));
        assert_eq!(supported_percentile(15, 99.0), None);
        assert_eq!(supported_percentile(0, 50.0), None);
        // Never above what was asked for.
        assert_eq!(supported_percentile(1_000_000, 50.0), Some(50.0));
    }

    #[test]
    fn tail_is_exact_nearest_rank() {
        let mut samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&mut samples, 99.0), Some((99.0, 990.0)));
        assert_eq!(tail(&mut samples, 50.0), Some((50.0, 500.0)));
        let mut few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut few, 99.0), Some((90.0, 90.0)));
    }

    #[test]
    fn normalisation_cancels_host_speed() {
        // A host twice as slow doubles both the sample and the ruler.
        let fast = normalise(1000.0, 200.0, 250.0);
        let slow = normalise(2000.0, 400.0, 250.0);
        assert_eq!(fast, 1250.0);
        assert_eq!(fast, slow);
        // At reference speed the ruler reads r0 and the sample is unchanged.
        assert_eq!(normalise(777.0, 250.0, 250.0), 777.0);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn metric_name_charset() {
        for good in [
            "setup_s",
            "rv32.mips.jit-nochain.recover",
            "9lives",
            "kem.n.lo",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "x/y", "µs", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "%", "MiB", "ratio"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "µs", "per op", "abcdefghijklmnopq"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
