use dramctrl_kernel::json::{escape_into, json_f64};
use std::fmt;

use crate::{Average, Histogram};

/// An ordered collection of named statistic values, in the spirit of gem5's
/// `stats.txt` dump.
///
/// Values keep their insertion order, names are prefixed with the report's
/// component name, and the [`fmt::Display`] implementation produces an
/// aligned, human-readable dump.
///
/// # Example
/// ```
/// use dramctrl_stats::Report;
///
/// let mut r = Report::new("ctrl0");
/// r.scalar("bus_util_pct", 89.5);
/// r.counter("num_reads", 1024);
/// let text = r.to_string();
/// assert!(text.contains("ctrl0.bus_util_pct"));
/// assert!(text.contains("1024"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Report {
    prefix: String,
    entries: Vec<(String, Value)>,
}

/// A single reported value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Counter(u64),
    Scalar(f64),
    Text(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Counter(v) => write!(f, "{v}"),
            Value::Scalar(v) => write!(f, "{v:.6}"),
            Value::Text(v) => write!(f, "{v}"),
        }
    }
}

impl Report {
    /// Creates an empty report for the component called `prefix`.
    pub fn new(prefix: impl Into<String>) -> Self {
        Self {
            prefix: prefix.into(),
            entries: Vec::new(),
        }
    }

    /// The component prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Adds an integer counter.
    pub fn counter(&mut self, name: &str, v: u64) {
        self.entries.push((name.to_owned(), Value::Counter(v)));
    }

    /// Adds a floating-point scalar.
    pub fn scalar(&mut self, name: &str, v: f64) {
        self.entries.push((name.to_owned(), Value::Scalar(v)));
    }

    /// Adds a free-form text value.
    pub fn text(&mut self, name: &str, v: impl Into<String>) {
        self.entries.push((name.to_owned(), Value::Text(v.into())));
    }

    /// Adds the summary statistics of an [`Average`] under `name.{mean,count,min,max}`.
    pub fn average(&mut self, name: &str, a: &Average) {
        self.scalar(&format!("{name}.mean"), a.mean());
        self.counter(&format!("{name}.count"), a.count());
        if let (Some(min), Some(max)) = (a.min(), a.max()) {
            self.scalar(&format!("{name}.min"), min);
            self.scalar(&format!("{name}.max"), max);
        }
    }

    /// Adds the summary statistics of a [`Histogram`] under
    /// `name.{mean,stddev,count,underflow,overflow}`.
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        self.scalar(&format!("{name}.mean"), h.mean());
        self.scalar(&format!("{name}.stddev"), h.stddev());
        self.counter(&format!("{name}.count"), h.count());
        self.counter(&format!("{name}.underflow"), h.underflow());
        self.counter(&format!("{name}.overflow"), h.overflow());
    }

    /// Appends all entries of `other`, namespaced under `other`'s prefix.
    pub fn nest(&mut self, other: &Report) {
        for (name, value) in &other.entries {
            self.entries
                .push((format!("{}.{}", other.prefix, name), value.clone()));
        }
    }

    /// Looks up a value by (unprefixed) name; scalars and counters are
    /// returned as `f64`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| match v {
                Value::Counter(c) => Some(*c as f64),
                Value::Scalar(s) => Some(*s),
                Value::Text(_) => None,
            })
    }

    /// Iterates over `(name, formatted_value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, String)> + '_ {
        self.entries
            .iter()
            .map(|(n, v)| (n.as_str(), v.to_string()))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the report contains no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Machine-readable JSON rendering with a stable schema:
    ///
    /// ```json
    /// {"prefix":"ctrl","entries":[
    ///   {"name":"reads_accepted","type":"counter","value":1024},
    ///   {"name":"bus_util","type":"scalar","value":0.895},
    ///   {"name":"device","type":"text","value":"DDR3-1333"}]}
    /// ```
    ///
    /// Entries keep their insertion order (the same order as the text
    /// dump), counters stay integers, scalars use shortest round-trip
    /// formatting (non-finite values become `null`), so equal reports
    /// always serialise byte-identically — campaign reports, CLI runs and
    /// the differential harness all share this one schema.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.entries.len() * 32);
        out.push_str("{\"prefix\":");
        escape_into(&self.prefix, &mut out);
        out.push_str(",\"entries\":[");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            escape_into(name, &mut out);
            match value {
                Value::Counter(v) => {
                    out.push_str(&format!(",\"type\":\"counter\",\"value\":{v}"));
                }
                Value::Scalar(v) => {
                    out.push_str(",\"type\":\"scalar\",\"value\":");
                    out.push_str(&json_f64(*v));
                }
                Value::Text(v) => {
                    out.push_str(",\"type\":\"text\",\"value\":");
                    escape_into(v, &mut out);
                }
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .entries
            .iter()
            .map(|(n, _)| self.prefix.len() + 1 + n.len())
            .max()
            .unwrap_or(0);
        for (name, value) in &self.entries {
            writeln!(
                f,
                "{:<width$}  {}",
                format!("{}.{}", self.prefix, name),
                value,
                width = width
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_preserved() {
        let mut r = Report::new("c");
        r.counter("z", 1);
        r.counter("a", 2);
        let names: Vec<_> = r.iter().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, vec!["z", "a"]);
    }

    #[test]
    fn get_returns_numeric_values() {
        let mut r = Report::new("c");
        r.counter("n", 7);
        r.scalar("x", 1.5);
        r.text("t", "hello");
        assert_eq!(r.get("n"), Some(7.0));
        assert_eq!(r.get("x"), Some(1.5));
        assert_eq!(r.get("t"), None);
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn nest_namespaces_children() {
        let mut child = Report::new("bank0");
        child.counter("acts", 3);
        let mut parent = Report::new("ctrl");
        parent.nest(&child);
        assert_eq!(parent.get("bank0.acts"), Some(3.0));
        assert!(parent.to_string().contains("ctrl.bank0.acts"));
    }

    #[test]
    fn histogram_summary_entries() {
        let mut h = Histogram::new(0, 100, 10);
        h.record(10);
        h.record(20);
        let mut r = Report::new("c");
        r.histogram("lat", &h);
        assert_eq!(r.get("lat.count"), Some(2.0));
        assert_eq!(r.get("lat.mean"), Some(15.0));
    }

    #[test]
    fn json_schema_is_stable_and_valid() {
        let mut r = Report::new("ctrl");
        r.counter("reads", 1024);
        r.scalar("util", 0.5);
        r.scalar("bad", f64::NAN);
        r.text("device", "DDR3 \"x64\"");
        let json = r.to_json();
        dramctrl_obs::json::validate(&json).expect("valid JSON");
        assert!(json.starts_with("{\"prefix\":\"ctrl\",\"entries\":["));
        assert!(json.contains("{\"name\":\"reads\",\"type\":\"counter\",\"value\":1024}"));
        assert!(json.contains("{\"name\":\"util\",\"type\":\"scalar\",\"value\":0.5}"));
        assert!(json.contains("{\"name\":\"bad\",\"type\":\"scalar\",\"value\":null}"));
        assert!(
            json.contains("{\"name\":\"device\",\"type\":\"text\",\"value\":\"DDR3 \\\"x64\\\"\"}")
        );
        // Equal reports serialise byte-identically.
        assert_eq!(json, r.clone().to_json());
        // Empty reports are still valid documents.
        dramctrl_obs::json::validate(&Report::new("empty").to_json()).unwrap();
    }

    #[test]
    fn display_is_aligned_and_nonempty() {
        let mut r = Report::new("c");
        r.counter("a", 1);
        r.counter("long_name", 2);
        let s = r.to_string();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        // Both value columns start at the same offset.
        let col = |l: &str| l.rfind("  ").unwrap();
        assert_eq!(col(lines[0]), col(lines[1]));
    }
}
