//! Order statistics over measured samples.

/// Timed samples of one operation class, in the unit they were recorded.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    /// Operations attempted (timed or not).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median, or `NaN` when empty.
    pub fn median(&self) -> f64 {
        quantile(&self.sorted(), 0.5)
    }

    /// The highest of p50/p90/p99/p99.9 that leaves at least ten samples
    /// above it, as `(percentile, value)`; `None` under forty samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.values.len();
        if n < 40 {
            return None;
        }
        let v = self.sorted();
        // Percentiles in tenths, so the count beyond stays exact.
        [999usize, 990, 900, 500]
            .into_iter()
            .find(|&p| n * (1000 - p) / 1000 >= 10)
            .map(|p| (p as f64 / 10.0, quantile(&v, p as f64 / 1000.0)))
    }

    /// One line: count, median, tail percentile, attempted and failed.
    pub fn summary(&self, name: &str, unit: &str) -> String {
        let tail = match self.tail() {
            Some((p, v)) => format!(" p{p}={v:.4}"),
            None => String::new(),
        };
        format!(
            "{name}: n={} median={:.4}{tail} {unit} attempted={} failed={}",
            self.len(),
            self.median(),
            self.attempted,
            self.failed
        )
    }
}

/// Linear-interpolated quantile of sorted values (`NaN` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of a slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n as f64 + 1.0;
    let at = |j: usize| {
        let pos = j as f64 * m / 4.0;
        let i = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = pos - i as f64;
        v[i - 1] + (v[i] - v[i - 1]) * frac
    };
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..100 {
            s.push(f64::from(i));
        }
        assert_eq!(s.tail().map(|t| t.0), Some(90.0));
        let mut s = Samples::default();
        for i in 0..39 {
            s.push(f64::from(i));
        }
        assert!(s.tail().is_none());
    }
}
