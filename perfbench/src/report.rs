//! Metrics, quantiles, and the one-line JSON result.

use std::fmt::Write;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (every name of [`crate::END_TO_END`]).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
}

impl Outcome {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples` (sorted in
/// place); `None` when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q * (samples.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64))
}

/// Median of `samples`; `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// `u64` samples as `f64`, scaled by `scale` (e.g. ns → ms).
pub fn scaled(samples: &[u64], scale: f64) -> Vec<f64> {
    samples.iter().map(|&v| v as f64 * scale).collect()
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}, …}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that reads back exactly.
        let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), Some(2.5));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 1.0), Some(4.0));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[metric("a_ms", 1.5, "ms"), metric("b", 2.0, "B")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"B\"}}}"
        );
    }
}
