//! Percentiles and the JSON the benchmark prints and writes.

use std::fmt::Write as _;

/// Nearest-rank percentile of unsorted samples; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 0.5)
}

/// Median of the means of consecutive groups of `group` samples: the
/// steady figure for operations too short to time one at a time.
pub fn group_median(xs: &[f64], group: usize) -> Option<f64> {
    let means: Vec<f64> = xs
        .chunks_exact(group)
        .map(|c| c.iter().sum::<f64>() / group as f64)
        .collect();
    median(&means)
}

/// The p99, reported only when at least ten samples lie beyond it.
pub fn p99(xs: &[f64]) -> Option<f64> {
    if xs.len() < 1000 {
        return None;
    }
    percentile(xs, 0.99)
}

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics {
    pub items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.items.push((name.to_string(), value, unit));
    }

    pub fn put_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.put(name, v, unit);
        }
    }

    /// The metrics named in `names`, in this set's order.
    pub fn only(&self, names: &[&str]) -> Metrics {
        Metrics {
            items: self
                .items
                .iter()
                .filter(|(n, _, _)| names.contains(&n.as_str()))
                .cloned()
                .collect(),
        }
    }

    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (n, v, u)) in self.items.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                q(n),
                num(*v),
                q(u)
            );
        }
        s.push('}');
        s
    }
}

/// A JSON string literal.
pub fn q(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust prints (shortest round-trip);
/// non-finite values become 0 so the document stays valid.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}
