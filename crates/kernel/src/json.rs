//! The workspace's one JSON writer: string-literal escaping and number
//! formatting shared by every renderer (statistics reports, campaign
//! records and journals, traces, metrics and the service wire protocol).
//!
//! Keeping a single copy is what makes "equal values serialise
//! byte-identically" hold across crates: a report line, its journaled
//! twin and the record a daemon streams all escape through this module.
//!
//! ```
//! use dramctrl_kernel::json::{escape_into, json_f64, json_str};
//!
//! assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
//! let mut out = String::from("{\"k\":");
//! escape_into("v", &mut out);
//! out.push('}');
//! assert_eq!(out, "{\"k\":\"v\"}");
//! assert_eq!(json_f64(3.0), "3");
//! assert_eq!(json_f64(f64::NAN), "null");
//! ```

use std::fmt::Write;

/// Appends `s` as a JSON string literal (quotes and escapes included).
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a standalone JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// JSON number for an f64: shortest round-trip form; non-finite values
/// (not representable in JSON) become `null`.
#[must_use]
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}
