//! The daemon's operational metrics: named handles over a
//! [`Registry`](dramctrl_obs::metrics::Registry).
//!
//! Every counter the scheduler, admission path and connection handlers
//! touch is registered here once, so the rest of the crate records
//! through cheap pre-resolved atomic handles and `/metrics` renders one
//! coherent exposition. Naming follows Prometheus conventions:
//! `_total` counters, `_seconds` histograms, plain gauges.
//!
//! The zero-perturbation rule from the probe layer carries over:
//! metrics observe the service; they are never read by scheduling or
//! admission decisions, and no journal byte or streamed record depends
//! on them.

use dramctrl_obs::metrics::{Counter, Gauge, Histogram, Registry, LATENCY_BUCKETS};

/// Pre-registered handles for every daemon-side metric.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// The registry behind `/metrics`.
    pub registry: Registry,
    /// Jobs accepted by admission.
    pub admission_accepted: Counter,
    /// Work units preempted at a quantum boundary.
    pub preemptions: Counter,
    /// Completed work units (daemon-wide).
    pub units_completed: Counter,
    /// Failed work units (panicked past the retry budget).
    pub units_failed: Counter,
    /// Seconds a queued job waited between enqueue and its next turn —
    /// the scheduler fairness lag.
    pub sched_wait: Histogram,
    /// Protocol + HTTP connections currently open.
    pub active_connections: Gauge,
    /// Bytes streamed to `watch` subscribers.
    pub streamed_bytes: Counter,
    /// Completed units per second of daemon uptime.
    pub units_per_second: Gauge,
    /// Daemon uptime (set at scrape time).
    pub uptime: Gauge,
    /// Unfinished jobs (set at scrape time).
    pub jobs_active: Gauge,
    /// 1 while the durable store is failing writes and the daemon is in
    /// degraded mode (admissions shed, scheduler paused), else 0.
    pub store_degraded: Gauge,
    /// Store recovery attempts made while degraded.
    pub store_retries: Counter,
    /// Client connections evicted for hostility: idle past the read
    /// deadline, or a watch subscriber whose outbound buffer overflowed.
    pub clients_evicted: Counter,
    /// Finished jobs garbage-collected from the store (`serve --retain`).
    pub store_gc: Counter,
}

impl ServeMetrics {
    /// Registers every family in a fresh registry.
    #[must_use]
    pub fn new() -> Self {
        let registry = Registry::new();
        let admission_accepted = registry.counter(
            "dramctrl_admission_total",
            "Admission decisions by result and (for rejections) reason.",
            &[("result", "accepted")],
        );
        let preemptions = registry.counter(
            "dramctrl_sched_preemptions_total",
            "Work-unit slices paused at a quantum boundary.",
            &[],
        );
        let units_completed = registry.counter(
            "dramctrl_units_total",
            "Work units finished, by outcome.",
            &[("outcome", "completed")],
        );
        let units_failed = registry.counter(
            "dramctrl_units_total",
            "Work units finished, by outcome.",
            &[("outcome", "failed")],
        );
        let sched_wait = registry.histogram(
            "dramctrl_sched_wait_seconds",
            "Seconds between a job entering the queue and its next turn.",
            &[],
            LATENCY_BUCKETS,
        );
        let active_connections = registry.gauge(
            "dramctrl_active_connections",
            "Open client connections (protocol and HTTP).",
            &[],
        );
        let streamed_bytes = registry.counter(
            "dramctrl_streamed_bytes_total",
            "Bytes streamed to watch subscribers.",
            &[],
        );
        let units_per_second = registry.gauge(
            "dramctrl_executor_units_per_second",
            "Completed work units per second of daemon uptime.",
            &[],
        );
        let uptime = registry.gauge(
            "dramctrl_uptime_seconds",
            "Seconds since the daemon started.",
            &[],
        );
        let jobs_active = registry.gauge("dramctrl_jobs_active", "Jobs not yet finished.", &[]);
        let store_degraded = registry.gauge(
            "dramctrl_store_degraded",
            "1 while store writes are failing and admissions are shed, else 0.",
            &[],
        );
        let store_retries = registry.counter(
            "dramctrl_store_retries_total",
            "Store recovery attempts made while degraded.",
            &[],
        );
        let clients_evicted = registry.counter(
            "dramctrl_clients_evicted_total",
            "Connections evicted: idle past the deadline or overflowing their outbound buffer.",
            &[],
        );
        let store_gc = registry.counter(
            "dramctrl_store_gc_total",
            "Finished jobs garbage-collected from the durable store.",
            &[],
        );
        Self {
            registry,
            admission_accepted,
            preemptions,
            units_completed,
            units_failed,
            sched_wait,
            active_connections,
            streamed_bytes,
            units_per_second,
            uptime,
            jobs_active,
            store_degraded,
            store_retries,
            clients_evicted,
            store_gc,
        }
    }

    /// The rejection counter for one normalised reason (`queue_full`,
    /// `bad_campaign`, `store_error`, `journal_error`,
    /// `store_unavailable` — the degraded-mode shed).
    #[must_use]
    pub fn rejected(&self, reason: &str) -> Counter {
        self.registry.counter(
            "dramctrl_admission_total",
            "Admission decisions by result and (for rejections) reason.",
            &[("result", "rejected"), ("reason", reason)],
        )
    }

    /// Units served (committed) for one tenant.
    #[must_use]
    pub fn tenant_served(&self, tenant: &str) -> Counter {
        self.registry.counter(
            "dramctrl_tenant_served_units_total",
            "Work units committed, by tenant.",
            &[("tenant", tenant)],
        )
    }

    /// Rejected submits for one tenant.
    #[must_use]
    pub fn tenant_rejected(&self, tenant: &str) -> Counter {
        self.registry.counter(
            "dramctrl_tenant_rejected_total",
            "Rejected submits, by tenant.",
            &[("tenant", tenant)],
        )
    }

    /// Queue-depth gauge for one tenant.
    #[must_use]
    pub fn tenant_queue_depth(&self, tenant: &str) -> Gauge {
        self.registry.gauge(
            "dramctrl_tenant_queue_depth",
            "Jobs queued (including a re-queued paused job), by tenant.",
            &[("tenant", tenant)],
        )
    }

    /// The store-fsync latency histogram for one operation
    /// (`accept` — the admission commit point; `commit` — a unit's
    /// journal commit; `checkpoint` — a paused unit's durable
    /// checkpoint write).
    #[must_use]
    pub fn store_fsync(&self, op: &str) -> Histogram {
        self.registry.histogram(
            "dramctrl_store_fsync_seconds",
            "Durable store fsync latency, by operation.",
            &[("op", op)],
            LATENCY_BUCKETS,
        )
    }

    /// HTTP requests served, by path.
    #[must_use]
    pub fn http_requests(&self, path: &str) -> Counter {
        self.registry.counter(
            "dramctrl_http_requests_total",
            "HTTP requests served, by path.",
            &[("path", path)],
        )
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_obs::metrics::validate_exposition;

    #[test]
    fn families_render_validly() {
        let m = ServeMetrics::new();
        m.admission_accepted.inc();
        m.rejected("queue_full").inc();
        m.tenant_served("alice").add(3);
        m.tenant_queue_depth("alice").set(2.0);
        m.store_fsync("accept").observe(0.002);
        m.store_fsync("commit").observe(0.004);
        m.sched_wait.observe(0.01);
        m.preemptions.inc();
        let text = m.registry.render_prometheus();
        validate_exposition(&text).unwrap();
        assert!(
            text.contains("dramctrl_admission_total{result=\"accepted\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("dramctrl_admission_total{reason=\"queue_full\",result=\"rejected\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("dramctrl_tenant_served_units_total{tenant=\"alice\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("dramctrl_store_fsync_seconds_bucket{op=\"accept\",le=\"+Inf\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn same_handle_twice() {
        let m = ServeMetrics::new();
        m.rejected("queue_full").inc();
        m.rejected("queue_full").inc();
        let text = m.registry.render_prometheus();
        assert!(
            text.contains("dramctrl_admission_total{reason=\"queue_full\",result=\"rejected\"} 2"),
            "{text}"
        );
    }
}
