//! Order statistics and the result document's metric list.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it. Returns `(value, percentile)`; with fewer
/// than eleven samples no percentile qualifies and the maximum is
/// reported as percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return (v[n - 1], 100.0);
    }
    // Ten samples lie strictly above index n - 11.
    let i = n - 11;
    (v[i], 100.0 * (i + 1) as f64 / n as f64)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in insertion order, plus free-form notes
/// (sample counts, tail percentiles, partial-span flags).
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Records a latency sample as `<prefix>_p50_ms` and `<prefix>_tail_ms`
    /// (`xs` in milliseconds), noting the tail percentile and sample count.
    pub fn latency(&mut self, prefix: &str, xs: &[f64]) {
        let (t, pct) = tail(xs);
        self.put(format!("{prefix}_p50_ms"), median(xs), "ms");
        self.put(format!("{prefix}_tail_ms"), t, "ms");
        self.note(format!("{prefix}_tail_percentile"), format!("{pct:.1}"));
        self.note(format!("{prefix}_samples"), xs.len());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` for the names in `keep`
    /// (all metrics when `keep` is `None`).
    pub fn metrics_json(&self, keep: Option<&[&str]>) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for m in &self.metrics {
            if keep.is_some_and(|k| !k.contains(&m.name.as_str())) {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }

    pub fn notes_json(&self) -> String {
        let body: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", esc(k), esc(v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with all its digits; non-finite values become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn esc(s: &str) -> String {
    cohesion_service::wire::json_escape(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
