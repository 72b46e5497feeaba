//! Raw-sample statistics and the metric table the benchmark prints.
//!
//! Every quantile is computed from the samples the benchmark itself kept
//! (nearest rank on the sorted values), never from the program's log2
//! histograms, so a reported p99 is one of the measured values.

use std::collections::BTreeMap;

/// Raw samples of one measured quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`. NaN when there are no
    /// samples, so an unmeasured quantity can never pass as a number.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
        v[rank.min(v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn max(&self) -> f64 {
        self.quantile(1.0)
    }

    /// The highest percentile with at least ten samples beyond it (0 when
    /// there are ten samples or fewer).
    pub fn supported_percentile(&self) -> f64 {
        let n = self.values.len() as f64;
        if n <= 10.0 {
            return 0.0;
        }
        (1000.0 * (n - 10.0) / n).floor() / 10.0
    }

    /// One JSON object describing the distribution: sample count, the
    /// quantiles the benchmark reports, and how far the tail is supported.
    pub fn describe(&self) -> String {
        format!(
            "{{\"n\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}, \"supported_pct\": {}}}",
            self.len(),
            json_num(self.median()),
            json_num(self.quantile(0.99)),
            json_num(self.max()),
            json_num(self.supported_percentile())
        )
    }
}

/// A finite number as JSON, with all its digits; `null` otherwise.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// JSON string literal (the benchmark only emits ASCII names and short
/// messages, but quotes and control characters are escaped regardless).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Named metrics with their units, in name order.
#[derive(Debug, Default)]
pub struct Metrics {
    map: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.map.insert(name, (value, unit));
    }

    /// Names whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.map
            .iter()
            .filter(|(_, (v, _))| !v.is_finite())
            .map(|(k, _)| *k)
            .collect()
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.map.keys().copied()
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .map
            .iter()
            .map(|(k, (v, u))| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(k),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(s.supported_percentile(), 90.0);
        assert!(Samples::new().median().is_nan());
    }
}
