//! Campaign results: per-job metrics aggregated into a serializable
//! report.
//!
//! The JSON-lines rendering is deliberately deterministic: metric keys
//! are stored sorted (`BTreeMap`), the line order is the job expansion
//! order, and host-dependent values (wall-clock time, worker count) are
//! kept out of [`CampaignReport::to_jsonl`]. The same campaign seed
//! therefore produces byte-identical JSONL at any worker count.

use crate::exec::JobOutcome;
use crate::spec::JobSpec;
use dramctrl_kernel::json::{escape_into, json_f64};
use dramctrl_stats::Table;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named scalar results of one job, with stable (sorted) key order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobMetrics {
    values: BTreeMap<String, f64>,
}

impl JobMetrics {
    /// Creates an empty metrics set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name` to `value`, replacing any previous value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, name: impl Into<String>, value: f64) -> Self {
        self.set(name, value);
        self
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Iterates metrics in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no metrics have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// One job plus its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job that ran.
    pub job: JobSpec,
    /// What happened.
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// Renders this record as its JSON-lines object, without a trailing
    /// newline — the exact bytes [`CampaignReport::to_jsonl`] and the
    /// campaign journal write for it, so consumers (the simulation
    /// service streams these to clients) deliver results byte-identical
    /// to a local sweep's report.
    #[must_use]
    pub fn render(&self, campaign_name: &str) -> String {
        render_record(campaign_name, self)
    }
}

/// The aggregated result of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Campaign master seed.
    pub seed: u64,
    /// Worker threads actually used (host-dependent; excluded from
    /// [`to_jsonl`](Self::to_jsonl)).
    pub workers: usize,
    /// Wall-clock seconds for the whole run (host-dependent; excluded
    /// from [`to_jsonl`](Self::to_jsonl)).
    pub wall_secs: f64,
    /// Per-job records in expansion order.
    pub records: Vec<JobRecord>,
}

impl CampaignReport {
    /// Number of jobs that completed successfully.
    pub fn completed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| !r.outcome.is_failed())
            .count()
    }

    /// Number of jobs that failed (panicked on every attempt).
    pub fn failed(&self) -> usize {
        self.records.len() - self.completed()
    }

    /// Jobs completed or failed per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.records.len() as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// The record for job `index`, if it exists.
    pub fn record(&self, index: usize) -> Option<&JobRecord> {
        self.records.get(index)
    }

    /// Finds the first completed record matching `pred`, returning its
    /// spec and metrics.
    pub fn find(&self, mut pred: impl FnMut(&JobSpec) -> bool) -> Option<(&JobSpec, &JobMetrics)> {
        self.records.iter().find_map(|r| match &r.outcome {
            JobOutcome::Completed { metrics, .. } if pred(&r.job) => Some((&r.job, metrics)),
            _ => None,
        })
    }

    /// Renders the report as JSON lines, one object per job in expansion
    /// order.
    ///
    /// Only seed-determined data is included — no wall-clock time, no
    /// worker count — so the output is byte-identical for the same
    /// campaign seed regardless of parallelism.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&render_record(&self.name, r));
            out.push('\n');
        }
        out
    }

    /// Renders a markdown [`Table`] with one row per job: the swept axes
    /// plus the named metric columns (`-` for metrics a job did not
    /// record and for failed jobs).
    pub fn table(&self, metric_cols: &[&str]) -> Table {
        let mut header = vec![
            "job", "device", "model", "policy", "sched", "mapping", "ch", "traffic", "read%",
            "reqs", "outcome",
        ];
        header.extend(metric_cols);
        let mut t = Table::new(header);
        for r in &self.records {
            let j = &r.job;
            let mut row = vec![
                j.index.to_string(),
                j.device.clone(),
                j.model.to_string(),
                j.policy.to_string(),
                j.sched.to_string(),
                j.mapping.to_string(),
                j.channels.to_string(),
                j.traffic.to_string(),
                j.read_pct.to_string(),
                j.requests.to_string(),
            ];
            match &r.outcome {
                JobOutcome::Completed { metrics, .. } => {
                    row.push("ok".to_owned());
                    for &col in metric_cols {
                        row.push(
                            metrics
                                .get(col)
                                .map_or_else(|| "-".to_owned(), |v| format!("{v:.3}")),
                        );
                    }
                }
                JobOutcome::Failed { .. } => {
                    row.push("failed".to_owned());
                    for _ in metric_cols {
                        row.push("-".to_owned());
                    }
                }
            }
            t.row(row);
        }
        t
    }

    /// A one-line human summary including the host-dependent timing.
    pub fn summary(&self) -> String {
        format!(
            "campaign '{}': {} jobs ({} ok, {} failed) in {:.2}s wall, {:.1} jobs/s, {} workers",
            self.name,
            self.records.len(),
            self.completed(),
            self.failed(),
            self.wall_secs,
            self.jobs_per_sec(),
            self.workers
        )
    }
}

/// Renders one [`JobRecord`] as its JSON-lines object, without a trailing
/// newline. This is the single renderer behind both
/// [`CampaignReport::to_jsonl`] and the durable campaign journal, so a
/// journaled line is byte-identical to the report line the same record
/// produces — resuming a crashed sweep can merge journaled and freshly
/// computed records into one byte-identical report.
pub(crate) fn render_record(campaign_name: &str, r: &JobRecord) -> String {
    render_parts(campaign_name, &r.job, &r.outcome)
}

/// [`render_record`] over borrowed parts: the journal's batched commit
/// path renders straight from the executor's job table and outcome
/// channel without cloning either into a [`JobRecord`].
pub(crate) fn render_parts(campaign_name: &str, j: &JobSpec, outcome: &JobOutcome) -> String {
    let mut out = String::new();
    out.push_str("{\"campaign\":");
    escape_into(campaign_name, &mut out);
    write!(out, ",\"job\":{},\"seed\":{},\"device\":", j.index, j.seed).unwrap();
    escape_into(&j.device, &mut out);
    for (key, value) in [
        ("model", j.model.to_string()),
        ("policy", j.policy.to_string()),
        ("sched", j.sched.to_string()),
        ("mapping", j.mapping.to_string()),
    ] {
        write!(out, ",\"{key}\":").unwrap();
        escape_into(&value, &mut out);
    }
    write!(out, ",\"channels\":{},\"traffic\":", j.channels).unwrap();
    escape_into(&j.traffic.to_string(), &mut out);
    write!(
        out,
        ",\"read_pct\":{},\"requests\":{},\"error_rate\":{}",
        j.read_pct,
        j.requests,
        json_f64(j.error_rate),
    )
    .unwrap();
    match outcome {
        JobOutcome::Completed { metrics, attempts } => {
            write!(
                out,
                ",\"outcome\":\"ok\",\"attempts\":{attempts},\"metrics\":{{"
            )
            .unwrap();
            for (i, (k, v)) in metrics.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, &mut out);
                write!(out, ":{}", json_f64(v)).unwrap();
            }
            out.push_str("}}");
        }
        JobOutcome::Failed {
            panic_msg,
            attempts,
        } => {
            write!(
                out,
                ",\"outcome\":\"failed\",\"attempts\":{attempts},\"panic_msg\":"
            )
            .unwrap();
            escape_into(panic_msg, &mut out);
            out.push('}');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Campaign;

    fn toy_report() -> CampaignReport {
        let jobs = Campaign::new("toy", 9).read_pcts([0, 100]).expand();
        let records = jobs
            .into_iter()
            .map(|job| {
                let outcome = if job.index == 1 {
                    JobOutcome::Failed {
                        panic_msg: "boom \"quoted\"\nline2".to_owned(),
                        attempts: 2,
                    }
                } else {
                    JobOutcome::Completed {
                        metrics: JobMetrics::new()
                            .with("bus_util", 0.5)
                            .with("avg_read_lat_ns", 60.25),
                        attempts: 1,
                    }
                };
                JobRecord { job, outcome }
            })
            .collect();
        CampaignReport {
            name: "toy".to_owned(),
            seed: 9,
            workers: 4,
            wall_secs: 1.5,
            records,
        }
    }

    #[test]
    fn jsonl_is_deterministic_and_excludes_host_state() {
        let r = toy_report();
        let jsonl = r.to_jsonl();
        assert_eq!(jsonl, r.to_jsonl());
        assert_eq!(jsonl.lines().count(), 2);
        // Host-dependent fields stay out.
        assert!(!jsonl.contains("wall"));
        assert!(!jsonl.contains("workers"));
        // Worker count must not leak into the lines.
        let mut other = toy_report();
        other.workers = 1;
        other.wall_secs = 99.0;
        assert_eq!(jsonl, other.to_jsonl());
    }

    #[test]
    fn jsonl_escapes_panic_messages() {
        let jsonl = toy_report().to_jsonl();
        let failed_line = jsonl.lines().nth(1).unwrap();
        assert!(failed_line.contains("\"outcome\":\"failed\""));
        assert!(failed_line.contains("boom \\\"quoted\\\"\\nline2"));
        assert!(failed_line.contains("\"attempts\":2"));
    }

    #[test]
    fn counters_and_lookup() {
        let r = toy_report();
        assert_eq!(r.completed(), 1);
        assert_eq!(r.failed(), 1);
        let (job, metrics) = r.find(|j| j.read_pct == 0).unwrap();
        assert_eq!(job.index, 0);
        assert_eq!(metrics.get("bus_util"), Some(0.5));
        assert!(r.find(|j| j.read_pct == 100).is_none(), "failed job");
    }

    #[test]
    fn table_marks_failures() {
        let t = toy_report().table(&["bus_util", "missing"]);
        let s = t.render();
        assert!(s.contains("ok"));
        assert!(s.contains("failed"));
        assert!(s.contains("0.500"));
        assert!(s.contains('-'));
    }

    #[test]
    fn summary_mentions_throughput() {
        let s = toy_report().summary();
        assert!(s.contains("2 jobs"));
        assert!(s.contains("1 failed"));
        assert!(s.contains("4 workers"));
    }

    #[test]
    fn json_helpers() {
        use dramctrl_kernel::json::json_str;
        assert_eq!(json_str("a\"b\\c\u{1}"), "\"a\\\"b\\\\c\\u0001\"");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(3.0), "3");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
