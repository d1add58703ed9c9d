//! Order statistics, the tail-percentile rule, and the result line.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: every caller measures at least one
/// value, and a NaN timing is a bug in the benchmark.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, in hundredths of a
/// percent. A short fixed ladder keeps the reported percentile the same
/// from run to run while the op count drifts with host speed. It stops
/// at p90: in 30-s runs `mc_offline` completed anywhere from 540 to 1,045
/// ops, across p99's threshold of 1,000, while every workload stays
/// clear of p90's 100 and (for `repro_suite`'s 20 to 45 passes) above
/// p50's 20.
pub const TAIL_LADDER: [usize; 2] = [5000, 9000];

/// The tail of a latency sample: the highest percentile of
/// [`TAIL_LADDER`] that still has [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic at that percentile.
    pub value: f64,
    /// The percentile.
    pub pct: f64,
    /// Sample count.
    pub n: usize,
}

/// The tail of `xs`: the value at the highest ladder percentile `p` for
/// which at least [`TAIL_BEYOND`] samples lie beyond the order statistic
/// of rank `ceil(p * n / 100)`. `None` when even the median has fewer
/// than [`TAIL_BEYOND`] samples beyond it (fewer than 20 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let s = sorted(xs);
    TAIL_LADDER.iter().rev().find_map(|&p| {
        let rank = (p * n).div_ceil(10_000);
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| Tail {
            value: s[rank - 1],
            pct: p as f64 / 100.0,
            n,
        })
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured sample"));
    s
}

/// Whether `name` is a legal metric name: starts with an ASCII letter or
/// digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a legal unit: 1 to 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
}

impl Metric {
    /// A metric; the name is owned so per-experiment names can be built.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// The single-line JSON result object, with every value written at full
/// (shortest round-trip) precision.
///
/// # Panics
///
/// Panics on an illegal name or unit, a duplicate name, or a non-finite
/// value: the metric list is fixed by this crate, so any of these is a
/// benchmark bug, and printing it would hand the caller a result it must
/// refuse.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = Vec::with_capacity(metrics.len());
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "illegal metric name `{}`", m.name);
        assert!(valid_unit(m.unit), "illegal unit `{}` on `{}`", m.unit, m.name);
        assert!(m.value.is_finite(), "non-finite value for `{}`", m.name);
        assert!(metrics[..i].iter().all(|o| o.name != m.name), "duplicate metric `{}`", m.name);
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_picks_the_highest_rung_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).expect("enough samples");
        assert_eq!((t.pct, t.n, t.value), (90.0, 100, 90.0));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        // One sample short of ten beyond p90 drops to p50.
        let t = tail(&xs[..99]).expect("enough samples");
        assert_eq!((t.pct, t.n, t.value), (50.0, 99, 50.0));
        assert_eq!(xs[..99].iter().filter(|&&x| x > t.value).count(), 49);
    }

    #[test]
    fn tail_needs_twenty_samples() {
        let xs: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        let t = tail(&xs).expect("twenty samples give a median");
        assert_eq!((t.pct, t.value), (50.0, 9.0));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_stops_at_the_top_rung() {
        let xs: Vec<f64> = (1..=20_000).map(f64::from).collect();
        let t = tail(&xs).expect("enough samples");
        assert_eq!((t.pct, t.value), (90.0, 18_000.0));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (0..500).map(|i| f64::from((i * 37) % 500)).collect();
        let a = tail(&xs);
        xs.reverse();
        assert_eq!(a, tail(&xs));
        assert_eq!(a.map(|t| (t.pct, t.value)), Some((90.0, 449.0)));
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["op_p50_ms", "repro.S2A-1_ms", "serve_stage.queue_p99_ms", "0x", "a.b-c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_lead", ".lead", "-lead", "has space", "slash/no", "ü", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn unit_charset() {
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "ns/gate-lane"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "x".repeat(17).as_str(), "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[Metric::new("op_p50_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn result_line_rejects_duplicates() {
        let m = Metric::new("x", 1.0, "ms");
        result_line(true, 1, 0, &[m.clone(), m]);
    }
}
