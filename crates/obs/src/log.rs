//! Leveled, structured (key=value) logging on stderr.
//!
//! The daemon and CLI service commands need machine-parseable diagnostics:
//! one line per event, `key="value"` pairs, a timestamp and a level, so a
//! log shipper (or a human with `grep`) can consume daemon stderr without
//! guessing at ad-hoc `eprintln!` formats. Like everything else in the
//! workspace this is dependency-free: a static atomic level, a formatter,
//! and four macros.
//!
//! ```
//! use dramctrl_obs::log::{set_level, Level};
//!
//! set_level(Level::Info);
//! dramctrl_obs::log_info!("serve", "listening"; "addr" => "127.0.0.1:8080");
//! // stderr: ts=1754650000.123 level=info target=serve msg="listening" addr="127.0.0.1:8080"
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed.
    Error = 0,
    /// Something surprising that the daemon recovered from.
    Warn = 1,
    /// Normal operational milestones (default).
    Info = 2,
    /// Per-request detail.
    Debug = 3,
    /// Everything.
    Trace = 4,
}

impl Level {
    /// Lower-case name as emitted in `level=...`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// Parses a level name (case-insensitive). Accepts
/// `error|warn|info|debug|trace`.
pub fn parse_level(s: &str) -> Result<Level, String> {
    match s.to_ascii_lowercase().as_str() {
        "error" => Ok(Level::Error),
        "warn" | "warning" => Ok(Level::Warn),
        "info" => Ok(Level::Info),
        "debug" => Ok(Level::Debug),
        "trace" => Ok(Level::Trace),
        _ => Err(format!(
            "unknown log level {s:?} (expected error|warn|info|debug|trace)"
        )),
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the global threshold: records with a level above it are dropped.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Output encoding for emitted records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `ts=... level=... target=... msg="..." k="v"` (default).
    Logfmt,
    /// One JSON object per line, same fields — for consumers that
    /// machine-parse the event stream (e.g. `dispatch --json`).
    Json,
}

static FORMAT: AtomicU8 = AtomicU8::new(0);

/// Sets the global output encoding.
pub fn set_format(format: Format) {
    FORMAT.store(
        match format {
            Format::Logfmt => 0,
            Format::Json => 1,
        },
        Ordering::Relaxed,
    );
}

/// The current global output encoding.
pub fn format() -> Format {
    if FORMAT.load(Ordering::Relaxed) == 1 {
        Format::Json
    } else {
        Format::Logfmt
    }
}

/// Whether a record at `level` would currently be emitted.
pub fn enabled(level: Level) -> bool {
    (level as u8) <= LEVEL.load(Ordering::Relaxed)
}

/// Escapes a field value for a double-quoted logfmt token.
fn escape_into(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
}

/// Formats one record as a logfmt line (no trailing newline):
/// `ts=<epoch.millis> level=<l> target=<t> msg="..." k="v" ...`.
pub fn format_record(level: Level, target: &str, msg: &str, fields: &[(&str, String)]) -> String {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    let mut line = String::with_capacity(64 + msg.len());
    let _ = write!(
        line,
        "ts={}.{:03} level={} target={} msg=\"",
        now.as_secs(),
        now.subsec_millis(),
        level.as_str(),
        target
    );
    escape_into(&mut line, msg);
    line.push('"');
    for (k, v) in fields {
        let _ = write!(line, " {k}=\"");
        escape_into(&mut line, v);
        line.push('"');
    }
    line
}

/// Formats one record as a single-line JSON object:
/// `{"ts":<epoch.millis>,"level":"...","target":"...","msg":"...","k":"v",...}`.
/// Field keys collide with the fixed keys at their own risk; values are
/// always strings, mirroring the logfmt encoding.
pub fn format_record_json(
    level: Level,
    target: &str,
    msg: &str,
    fields: &[(&str, String)],
) -> String {
    use dramctrl_kernel::json::json_str;
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    let mut line = String::with_capacity(96 + msg.len());
    let _ = write!(
        line,
        "{{\"ts\":{}.{:03},\"level\":\"{}\",\"target\":{},\"msg\":{}",
        now.as_secs(),
        now.subsec_millis(),
        level.as_str(),
        json_str(target),
        json_str(msg)
    );
    for (k, v) in fields {
        let _ = write!(line, ",{}:{}", json_str(k), json_str(v));
    }
    line.push('}');
    line
}

/// Emits one record to stderr if `level` passes the global threshold.
/// Prefer the [`log_error!`](crate::log_error)/[`log_warn!`](crate::log_warn)/
/// [`log_info!`](crate::log_info)/[`log_debug!`](crate::log_debug) macros,
/// which skip field formatting when the record would be dropped.
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, String)]) {
    if !enabled(level) {
        return;
    }
    let line = match format() {
        Format::Logfmt => format_record(level, target, msg, fields),
        Format::Json => format_record_json(level, target, msg, fields),
    };
    eprintln!("{line}");
}

/// Logs at a given level with `"key" => value` fields (values go through
/// `ToString`). The field list is only evaluated when the level is
/// enabled.
#[macro_export]
macro_rules! log_at {
    ($level:expr, $target:expr, $msg:expr $(; $($k:expr => $v:expr),* $(,)?)?) => {{
        if $crate::log::enabled($level) {
            $crate::log::log(
                $level,
                $target,
                &$msg.to_string(),
                &[$($(($k, $v.to_string())),*)?],
            );
        }
    }};
}

/// Logs at [`Level::Error`](crate::log::Level::Error).
#[macro_export]
macro_rules! log_error {
    ($($t:tt)*) => { $crate::log_at!($crate::log::Level::Error, $($t)*) };
}

/// Logs at [`Level::Warn`](crate::log::Level::Warn).
#[macro_export]
macro_rules! log_warn {
    ($($t:tt)*) => { $crate::log_at!($crate::log::Level::Warn, $($t)*) };
}

/// Logs at [`Level::Info`](crate::log::Level::Info).
#[macro_export]
macro_rules! log_info {
    ($($t:tt)*) => { $crate::log_at!($crate::log::Level::Info, $($t)*) };
}

/// Logs at [`Level::Debug`](crate::log::Level::Debug).
#[macro_export]
macro_rules! log_debug {
    ($($t:tt)*) => { $crate::log_at!($crate::log::Level::Debug, $($t)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(parse_level("WARN").unwrap(), Level::Warn);
        assert_eq!(parse_level("trace").unwrap(), Level::Trace);
        assert!(parse_level("loud").is_err());
        assert!(Level::Error < Level::Debug);
    }

    #[test]
    fn record_format_is_logfmt() {
        let line = format_record(
            Level::Warn,
            "serve",
            "odd \"thing\"",
            &[("tenant", "a\nb".to_string()), ("n", "3".to_string())],
        );
        assert!(line.starts_with("ts="), "{line}");
        assert!(
            line.contains("level=warn target=serve msg=\"odd \\\"thing\\\"\""),
            "{line}"
        );
        assert!(line.ends_with("tenant=\"a\\nb\" n=\"3\""), "{line}");
        // Exactly one line: field newlines were escaped.
        assert!(!line.contains('\n') && !line.contains('\r'));
    }

    #[test]
    fn json_format_is_valid_json_with_string_fields() {
        let line = format_record_json(
            Level::Info,
            "dispatch",
            "shard assigned",
            &[
                ("shard", "1/3".to_string()),
                ("peer", "/tmp/a.sock".to_string()),
            ],
        );
        crate::json::validate(&line).unwrap();
        assert!(line.contains("\"level\":\"info\""), "{line}");
        assert!(line.contains("\"target\":\"dispatch\""), "{line}");
        assert!(line.contains("\"shard\":\"1/3\""), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn threshold_gates() {
        // Note: global state; tests in this module run in one process but
        // set_level is idempotent enough for this check.
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level(Level::Info);
    }
}
