//! The always-up simulation daemon: admission control, a fair preemptive
//! scheduler, and crash-safe execution on top of the durable job store.
//!
//! ## Anatomy
//!
//! One **scheduler thread** runs all simulation work, one quantum at a
//! time: it pops the next job from the [`FairQueue`], picks the job's
//! first uncommitted work unit, and runs one slice of it *outside* the
//! state lock (via [`run_job_slice`], which checkpoints and pauses at the
//! first request boundary past the quantum target). **Connection
//! threads** (one per client) only touch state briefly — submit, watch,
//! status — so a 10-million-request unit in flight never blocks a
//! submit, and a competing tenant waits at most one quantum.
//!
//! ## Durability
//!
//! Every state transition commits before it is acknowledged or
//! broadcast:
//!
//! - submit: accept-log fsync → journal created → `accepted` sent;
//! - unit done: artifacts written atomically → journal commit (fsync) →
//!   events broadcast;
//! - preemption: checkpoint written atomically; the journal is untouched.
//!
//! Kill the daemon at any instant and [`Server::open`] rebuilds
//! everything from the store: accepted jobs re-queue, committed units
//! are never re-run, the unit in flight resumes from its checkpoint (or
//! restarts from the last one — re-execution is deterministic, and the
//! journal's keep-first dedup makes the first commit canonical either
//! way). Results are byte-identical to a never-killed run, which is
//! byte-identical to a standalone `dramctrl sweep` of the same campaign.
//!
//! ## Degraded mode
//!
//! A store that stops taking writes (disk full, failing fsyncs) must not
//! kill the daemon. On any store I/O error the daemon enters **degraded
//! mode**: the computed-but-uncommitted unit outcome is parked in
//! memory, the scheduler stops starting new slices, new submits are shed
//! with `rejected reason=store_unavailable`, `/healthz` answers 503 and
//! the `dramctrl_store_degraded` gauge reads 1 — while status, metrics
//! and in-flight `watch` streams keep serving from memory. The
//! scheduler retries the store with bounded exponential backoff
//! ([`STORE_BACKOFF_START`]..[`STORE_BACKOFF_MAX`]): each attempt
//! repairs the accept log (truncating torn bytes), re-resumes the
//! damaged journal (truncating its torn tail), re-commits the parked
//! outcome and probes the store root. The first fully successful
//! attempt exits degraded mode — no restart, no lost unit, and the
//! journal bytes are exactly what an unfaulted run would have written.
//!
//! ## Hostile clients
//!
//! Connections carry read/write deadlines
//! ([`ServeConfig::client_timeout`]): a client that connects and sends
//! nothing, or stops reading its stream, is evicted at the deadline.
//! Command lines are length-bounded, and each watch subscriber rides a
//! bounded outbound buffer ([`ServeConfig::subscriber_buffer`]) — a
//! consumer that falls behind a full buffer is dropped from the
//! broadcast list rather than wedging the scheduler.

use crate::metrics::ServeMetrics;
use crate::net::{read_line_bounded, Listener, Stream};
use crate::proto::{
    accepted_event, campaign_from_wire, done_event, error_event, progress_event, record_event,
    rejected_event, text_event, VersionInfo,
};
use crate::sched::FairQueue;
use crate::store::{JobStore, StoredJob};
use crate::wire::Value;
use dramctrl_campaign::runner::{run_job_observed, run_job_slice, JobArtifacts, SliceOutcome};
use dramctrl_campaign::{
    panic_message, CampaignJournal, JobMetrics, JobOutcome, JobRecord, JobSpec,
};
use dramctrl_kernel::backoff::Backoff;
use dramctrl_kernel::fsio::write_atomic;
use dramctrl_kernel::json::json_str;
use dramctrl_obs::metrics::Gauge;
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root of the durable job store.
    pub store: PathBuf,
    /// Admission bound: submits are rejected while this many jobs are
    /// still unfinished.
    pub max_jobs: usize,
    /// Preemption quantum in injected requests: a work unit is paused at
    /// the first request boundary at or past this many injections since
    /// its last pause.
    pub quantum: u64,
    /// Per-connection read/write deadline. A client that sends nothing
    /// (or reads nothing) for this long is evicted; `None` disables the
    /// deadline (trusted-network mode).
    pub client_timeout: Option<Duration>,
    /// Outbound event-buffer depth per watch subscriber. A subscriber
    /// whose buffer is full when a broadcast arrives is evicted.
    pub subscriber_buffer: usize,
    /// Store garbage collection: keep at most this many finished jobs
    /// on disk, evicting the oldest (by acceptance order) beyond it at
    /// startup and on every job completion. Running and queued jobs are
    /// never touched. `None` retains everything.
    pub retain: Option<usize>,
}

impl ServeConfig {
    /// Defaults: 8 active jobs, 1 000-request quantum, 30 s client
    /// deadline, 1 024-event subscriber buffers, no GC.
    #[must_use]
    pub fn new(store: impl Into<PathBuf>) -> Self {
        Self {
            store: store.into(),
            max_jobs: 8,
            quantum: 1_000,
            client_timeout: Some(Duration::from_secs(30)),
            subscriber_buffer: 1024,
            retain: None,
        }
    }
}

/// Everything the daemon knows about one job.
struct JobState {
    stored: StoredJob,
    /// The campaign's expanded work units.
    units: Vec<JobSpec>,
    /// The job's durable commit log.
    journal: CampaignJournal,
    /// Panicked attempts of the unit currently in flight.
    failures: u32,
    /// Absolute injection target for the current unit's next slice.
    pause_target: u64,
    /// Live `watch` subscribers (event lines), each behind a bounded
    /// buffer.
    subscribers: Vec<mpsc::SyncSender<String>>,
}

impl JobState {
    /// Whether unit `i` belongs to this job's residue-class shard.
    /// Unsharded jobs own every unit.
    fn in_shard(&self, i: usize) -> bool {
        match self.stored.shard {
            Some((idx, n)) => i % n as usize == idx as usize,
            None => true,
        }
    }

    /// Units this job will actually run: the shard size for sharded
    /// jobs, the full campaign otherwise. This is the `total` clients
    /// see in `accepted`/`progress` events.
    fn total(&self) -> usize {
        match self.stored.shard {
            Some(_) => (0..self.units.len()).filter(|&i| self.in_shard(i)).count(),
            None => self.units.len(),
        }
    }

    fn done(&self) -> usize {
        self.journal
            .completed()
            .keys()
            .filter(|&&i| self.in_shard(i))
            .count()
    }

    fn finished(&self) -> bool {
        self.done() == self.total()
    }

    fn failed(&self) -> usize {
        self.journal
            .completed()
            .iter()
            .filter(|(i, o)| self.in_shard(**i) && o.is_failed())
            .count()
    }

    /// The first uncommitted in-shard unit — the one to run next.
    fn next_unit(&self) -> Option<usize> {
        (0..self.units.len())
            .find(|&i| self.in_shard(i) && !self.journal.completed().contains_key(&i))
    }

    /// Sends `line` to every subscriber, evicting any whose bounded
    /// buffer is full: a watcher that stopped draining must not wedge
    /// the scheduler or grow memory without limit. Disconnected
    /// subscribers are pruned silently (normal hang-up).
    fn broadcast(&mut self, line: &str, m: &ServeMetrics) {
        self.subscribers
            .retain(|s| match s.try_send(line.to_owned()) {
                Ok(()) => true,
                Err(mpsc::TrySendError::Full(_)) => {
                    m.clients_evicted.inc();
                    false
                }
                Err(mpsc::TrySendError::Disconnected(_)) => false,
            });
    }
}

/// Shared daemon state.
struct State {
    store: JobStore,
    jobs: BTreeMap<String, JobState>,
    queue: FairQueue,
    /// When each queued job entered the queue — feeds the scheduler
    /// fairness-lag histogram on its next pick.
    queued_at: BTreeMap<String, Instant>,
    /// Rejected submits per tenant (process lifetime, for status).
    rejects: BTreeMap<String, u64>,
    /// Finished jobs garbage-collected this process lifetime (the
    /// store's tombstone log holds the all-time count).
    gc_evicted: u64,
    /// The (job, unit) the scheduler is running right now, if any.
    running: Option<(String, usize)>,
    /// `Some` while the store is failing writes (degraded mode).
    degraded: Option<Degraded>,
}

/// A unit outcome that is computed but not yet durably committed — the
/// work the scheduler parks when the store starts failing, so recovery
/// never re-runs the simulation.
struct PendingCommit {
    id: String,
    unit: usize,
    outcome: JobOutcome,
    artifacts: Option<JobArtifacts>,
}

/// Degraded-mode bookkeeping: why, since when, the retry schedule, and
/// the parked commit (if the failure struck mid-commit rather than
/// mid-accept).
struct Degraded {
    reason: String,
    since: Instant,
    backoff: Backoff,
    next_retry: Instant,
    pending: Option<PendingCommit>,
}

/// First retry delay after entering degraded mode.
pub const STORE_BACKOFF_START: Duration = Duration::from_millis(50);
/// Retry delays double up to this cap while the store stays broken.
pub const STORE_BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Longest accepted protocol command line (bytes, newline included).
const MAX_CMD_LINE: usize = 1 << 20;

struct Inner {
    cfg: ServeConfig,
    state: Mutex<State>,
    work: Condvar,
    metrics: ServeMetrics,
    started: Instant,
}

/// The daemon. Cloneable handle; all state lives behind one mutex.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

/// How many attempts a panicking work unit gets before it is recorded as
/// failed — matches the campaign executor's default, so failure records
/// carry identical `attempts` counts either way.
const MAX_ATTEMPTS: u32 = 2;

impl Server {
    /// Opens the store at `cfg.store`, recovers every journaled job, and
    /// re-queues all unfinished work. Committed units never re-run;
    /// their leftover checkpoints are deleted.
    ///
    /// # Errors
    /// Store or journal I/O and corruption errors.
    pub fn open(cfg: ServeConfig) -> io::Result<Self> {
        let metrics = ServeMetrics::new();
        let (mut store, accepted) = JobStore::open(&cfg.store)?;
        let mut jobs = BTreeMap::new();
        let mut queue = FairQueue::new();
        for stored in accepted {
            let dir = store.job_dir(&stored.id);
            std::fs::create_dir_all(&dir)?;
            // Killed between accept fsync and journal creation (or mid
            // header write): the job is still fully described by the
            // accept line, so `recover` starts it from scratch.
            let jpath = dir.join("journal.jsonl");
            let journal = CampaignJournal::recover(&jpath, &stored.campaign).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("recovering journal for {}: {e}", stored.id),
                )
            })?;
            for &i in journal.completed().keys() {
                let _ = std::fs::remove_file(JobStore::unit_snap(&dir, i));
            }
            let js = JobState {
                units: stored.campaign.expand(),
                journal,
                failures: 0,
                pause_target: cfg.quantum,
                subscribers: Vec::new(),
                stored,
            };
            if !js.finished() {
                queue.push(&js.stored.tenant, js.stored.id.clone());
            }
            jobs.insert(js.stored.id.clone(), js);
        }
        // Startup GC: a store that accumulated finished jobs while the
        // retention limit was lower (or unset) is trimmed before the
        // daemon takes traffic.
        let mut gc_evicted = 0;
        if let Some(retain) = cfg.retain {
            gc_evicted = gc_finished(&mut store, &mut jobs, retain, &metrics);
        }
        let now = Instant::now();
        let queued_at = jobs
            .values()
            .filter(|js| !js.finished())
            .map(|js| (js.stored.id.clone(), now))
            .collect();
        Ok(Self {
            inner: Arc::new(Inner {
                cfg,
                state: Mutex::new(State {
                    store,
                    jobs,
                    queue,
                    queued_at,
                    rejects: BTreeMap::new(),
                    running: None,
                    degraded: None,
                    gc_evicted,
                }),
                work: Condvar::new(),
                metrics,
                started: now,
            }),
        })
    }

    /// The daemon's metric handles (shared registry behind `/metrics`).
    #[must_use]
    pub fn metrics(&self) -> &ServeMetrics {
        &self.inner.metrics
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Spawns the scheduler thread (runs for the life of the process).
    pub fn start_scheduler(&self) -> std::thread::JoinHandle<()> {
        let this = self.clone();
        std::thread::Builder::new()
            .name("dramctrl-sched".into())
            .spawn(move || this.scheduler_loop())
            .expect("spawning the scheduler thread")
    }

    /// Accept loop: one thread per connection, forever.
    ///
    /// # Errors
    /// Only a broken listener ends the loop.
    pub fn serve(&self, listener: &Listener) -> io::Result<()> {
        loop {
            let conn = listener.accept()?;
            let this = self.clone();
            std::thread::spawn(move || {
                let _ = this.handle_conn(conn);
            });
        }
    }

    // ----- scheduler ---------------------------------------------------

    fn scheduler_loop(&self) {
        loop {
            // Pick the next (job, unit, quantum target) under the lock.
            let (id, unit, spec, epochs, snap, target) = {
                let mut st = self.lock();
                loop {
                    // Degraded: the store owes us a commit (or at least a
                    // successful probe) before any new simulation work is
                    // worth starting. Retry on the backoff schedule; the
                    // condvar wait keeps the thread cold in between.
                    if let Some(next_retry) = st.degraded.as_ref().map(|d| d.next_retry) {
                        let now = Instant::now();
                        if now < next_retry {
                            let (guard, _) = self
                                .inner
                                .work
                                .wait_timeout(st, next_retry - now)
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            st = guard;
                        } else {
                            self.try_store_recovery(&mut st);
                        }
                        continue;
                    }
                    let picked = loop {
                        let Some(id) = st.queue.pop() else {
                            break None;
                        };
                        let Some(js) = st.jobs.get(&id) else { continue };
                        if let Some(unit) = js.next_unit() {
                            break Some((id, unit));
                        }
                    };
                    if let Some((id, unit)) = picked {
                        if let Some(since) = st.queued_at.remove(&id) {
                            self.inner
                                .metrics
                                .sched_wait
                                .observe(since.elapsed().as_secs_f64());
                        }
                        st.running = Some((id.clone(), unit));
                        sync_queue_gauges(&self.inner.metrics, &st);
                        let js = &st.jobs[&id];
                        let dir = st.store.job_dir(&id);
                        break (
                            id.clone(),
                            unit,
                            js.units[unit].clone(),
                            js.stored.epochs,
                            JobStore::unit_snap(&dir, unit),
                            js.pause_target,
                        );
                    }
                    st = self
                        .inner
                        .work
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };

            // Run the slice outside the lock: submits, watches and other
            // tenants' turns are never blocked by simulation work.
            let sliced = catch_unwind(AssertUnwindSafe(|| {
                if epochs > 0 {
                    // Observed units carry probes (not snapshot state), so
                    // they run whole; artifacts ride along.
                    let (m, artifacts) = run_job_observed(&spec, epochs);
                    Unit::Done(m, Some(artifacts))
                } else {
                    match run_job_slice(&spec, &snap, Some(target)) {
                        SliceOutcome::Done(m) => Unit::Done(m, None),
                        SliceOutcome::Paused { injected } => Unit::Paused { injected },
                    }
                }
            }));

            let mut st = self.lock();
            let st = &mut *st; // split-borrow jobs and queue below
            let m = &self.inner.metrics;
            let quantum = self.inner.cfg.quantum;
            st.running = None;
            if !st.jobs.contains_key(&id) {
                continue;
            }
            match sliced {
                Ok(Unit::Paused { injected }) => {
                    m.preemptions.inc();
                    let js = st.jobs.get_mut(&id).expect("checked above");
                    js.pause_target = injected + quantum;
                    requeue(st, &id);
                }
                Ok(Unit::Done(metrics, artifacts)) => {
                    let attempts = st.jobs[&id].failures + 1;
                    let pending = PendingCommit {
                        id: id.clone(),
                        unit,
                        outcome: JobOutcome::Completed { metrics, attempts },
                        artifacts,
                    };
                    self.finish_or_degrade(st, pending);
                }
                Err(payload) => {
                    // A panicked slice restarts its unit from scratch:
                    // the checkpoint may be mid-flight state of the very
                    // attempt that died.
                    let _ = std::fs::remove_file(&snap);
                    let js = st.jobs.get_mut(&id).expect("checked above");
                    js.failures += 1;
                    js.pause_target = quantum;
                    if js.failures >= MAX_ATTEMPTS {
                        let outcome = JobOutcome::Failed {
                            panic_msg: panic_message(payload.as_ref()),
                            attempts: js.failures,
                        };
                        let pending = PendingCommit {
                            id: id.clone(),
                            unit,
                            outcome,
                            artifacts: None,
                        };
                        self.finish_or_degrade(st, pending);
                    } else {
                        requeue(st, &id);
                    }
                }
            }
            sync_queue_gauges(m, st);
        }
    }

    /// Durably finishes a unit, or parks it and enters degraded mode if
    /// the store refuses — either way the computed outcome is never
    /// lost and the simulation never re-runs.
    fn finish_or_degrade(&self, st: &mut State, pending: PendingCommit) {
        if let Err(e) = self.complete_unit(st, &pending, false) {
            self.enter_degraded(st, &e.to_string(), Some(pending));
        }
    }

    /// The durable half of finishing a unit: artifacts → journal commit
    /// → broadcast, then the bookkeeping (checkpoint cleanup, failure
    /// reset, metrics, re-queue). With `repair_journal` the job's
    /// journal is first re-resumed from disk, truncating any torn bytes
    /// the failed append left behind; keep-first dedup then makes the
    /// re-commit idempotent if the record actually survived.
    fn complete_unit(
        &self,
        st: &mut State,
        p: &PendingCommit,
        repair_journal: bool,
    ) -> io::Result<()> {
        let m = &self.inner.metrics;
        let dir = st.store.job_dir(&p.id);
        let Some(js) = st.jobs.get_mut(&p.id) else {
            return Ok(());
        };
        if repair_journal {
            js.journal = CampaignJournal::resume(dir.join("journal.jsonl"), &js.stored.campaign)
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("re-resuming journal for {}: {e}", p.id),
                    )
                })?;
        }
        // Artifacts land (atomically) before the commit: a crash in
        // between re-runs the unit and rewrites them bit-identically.
        if let Some(a) = &p.artifacts {
            write_unit_artifacts(&dir, p.unit, a)?;
        }
        commit_unit(js, p.unit, p.outcome.clone(), p.artifacts.as_ref(), m)?;
        let _ = std::fs::remove_file(JobStore::unit_snap(&dir, p.unit));
        js.failures = 0;
        js.pause_target = self.inner.cfg.quantum;
        m.tenant_served(&js.stored.tenant).inc();
        if p.outcome.is_failed() {
            m.units_failed.inc();
        } else {
            m.units_completed.inc();
            let elapsed = self.inner.started.elapsed().as_secs_f64();
            if elapsed > 0.0 {
                let done = m.units_completed.get() + m.units_failed.get();
                m.units_per_second.set(done as f64 / elapsed);
            }
        }
        requeue(st, &p.id);
        // A completion may push the finished-job count past the
        // retention limit; trim eagerly so disk use stays bounded
        // without a periodic sweep.
        if let Some(retain) = self.inner.cfg.retain {
            if st.jobs.get(&p.id).map_or(true, JobState::finished) {
                st.gc_evicted += gc_finished(&mut st.store, &mut st.jobs, retain, m);
            }
        }
        Ok(())
    }

    /// Flips the daemon into degraded mode (idempotent): records why,
    /// parks the pending commit if one is not already parked, raises the
    /// gauge and wakes the scheduler so it switches to the retry loop.
    fn enter_degraded(&self, st: &mut State, reason: &str, pending: Option<PendingCommit>) {
        self.inner.metrics.store_degraded.set(1.0);
        match st.degraded.as_mut() {
            Some(d) => {
                // Already degraded (e.g. a submit hit the broken store
                // while a commit is parked): never displace the parked
                // commit — the scheduler blocks until it lands, so there
                // is at most one.
                if d.pending.is_none() {
                    d.pending = pending;
                }
            }
            None => {
                dramctrl_obs::log_warn!(
                    "serve", "store degraded; shedding new admissions";
                    "reason" => reason
                );
                let now = Instant::now();
                let mut backoff = Backoff::new(STORE_BACKOFF_START, STORE_BACKOFF_MAX);
                let first = backoff.next_delay();
                st.degraded = Some(Degraded {
                    reason: reason.to_owned(),
                    since: now,
                    backoff,
                    next_retry: now + first,
                    pending,
                });
                self.inner.work.notify_all();
            }
        }
    }

    /// One recovery attempt: repair the accept log, land the parked
    /// commit (through a re-resumed journal), probe the store root.
    /// Full success exits degraded mode; any failure doubles the
    /// backoff (capped) and leaves the parked commit parked.
    fn try_store_recovery(&self, st: &mut State) {
        let m = &self.inner.metrics;
        m.store_retries.inc();
        let result: io::Result<()> = (|| {
            st.store.repair()?;
            let pending = st.degraded.as_mut().and_then(|d| d.pending.take());
            if let Some(p) = pending {
                if let Err(e) = self.complete_unit(st, &p, true) {
                    if let Some(d) = st.degraded.as_mut() {
                        d.pending = Some(p);
                    }
                    return Err(e);
                }
            }
            // An end-to-end writability probe through the same fsio
            // layer real writes use, so injected faults and genuinely
            // full disks agree on when the store is healthy.
            let probe = st.store.root().join(".recovery.probe");
            write_atomic(&probe, b"ok")?;
            std::fs::remove_file(&probe)?;
            Ok(())
        })();
        match result {
            Ok(()) => {
                let was = st.degraded.take();
                m.store_degraded.set(0.0);
                dramctrl_obs::log_info!(
                    "serve", "store recovered; accepting submissions again";
                    "degraded_seconds" => format!(
                        "{:.3}",
                        was.map_or(0.0, |d| d.since.elapsed().as_secs_f64())
                    )
                );
                self.inner.work.notify_all();
            }
            Err(e) => {
                if let Some(d) = st.degraded.as_mut() {
                    let delay = d.backoff.next_delay();
                    d.next_retry = Instant::now() + delay;
                    dramctrl_obs::log_warn!(
                        "serve", "store still failing; backing off";
                        "error" => e, "retry_in_ms" => delay.as_millis()
                    );
                }
            }
        }
    }

    // ----- connections -------------------------------------------------

    fn handle_conn(&self, conn: Stream) -> io::Result<()> {
        let _guard = self.connection_guard();
        // Deadlines are socket options, so they cover the cloned writer
        // too: a client that stops reading its stream blocks the writer
        // only until the write deadline, then the connection dies.
        conn.set_read_timeout(self.inner.cfg.client_timeout)?;
        conn.set_write_timeout(self.inner.cfg.client_timeout)?;
        let mut writer = conn.try_clone()?;
        let mut reader = BufReader::new(conn);
        writeln!(writer, "{}", VersionInfo::current().hello_line())?;
        let mut line = String::new();
        loop {
            line.clear();
            let read = read_line_bounded(&mut reader, &mut line, MAX_CMD_LINE);
            match read {
                Ok(0) => return Ok(()), // client hung up
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // Oversized line: the connection is no longer
                    // line-synchronized, so answer and drop it.
                    self.inner.metrics.clients_evicted.inc();
                    let _ = writeln!(writer, "{}", error_event(&format!("bad command: {e}")));
                    return Err(e);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Idle past the read deadline: evict.
                    self.inner.metrics.clients_evicted.inc();
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let cmd = match Value::parse(trimmed) {
                Ok(v) => v,
                Err(e) => {
                    writeln!(writer, "{}", error_event(&format!("bad command: {e}")))?;
                    continue;
                }
            };
            match cmd.get("cmd").and_then(Value::as_str) {
                Some("submit") => {
                    let reply = self.submit(&cmd);
                    writeln!(writer, "{reply}")?;
                }
                Some("watch") => {
                    let id = cmd.get("id").and_then(Value::as_str).unwrap_or("");
                    self.watch(id, &mut writer)?;
                }
                Some("status") => {
                    writeln!(writer, "{}", self.status_line())?;
                }
                Some("shutdown") => {
                    // Every accepted job and committed unit is already
                    // durable; there is nothing to flush.
                    writeln!(writer, "{{\"event\":\"bye\"}}")?;
                    let _ = writer.flush();
                    std::process::exit(0);
                }
                other => {
                    let what = other.unwrap_or("<none>");
                    writeln!(writer, "{}", error_event(&format!("unknown cmd '{what}'")))?;
                }
            }
        }
    }

    /// Records one rejected submit (counters + per-tenant status tally)
    /// and renders the rejection event.
    fn reject(&self, st: &mut State, tenant: &str, reason: &str, msg: &str) -> String {
        self.inner.metrics.rejected(reason).inc();
        self.inner.metrics.tenant_rejected(tenant).inc();
        *st.rejects.entry(tenant.to_owned()).or_insert(0) += 1;
        rejected_event(msg)
    }

    /// Admission + durable accept. Returns the event line to send.
    fn submit(&self, cmd: &Value) -> String {
        let tenant = cmd.get("tenant").and_then(Value::as_str).unwrap_or("anon");
        let epochs = cmd.get("epochs").and_then(Value::as_u64).unwrap_or(0);
        let campaign = match cmd
            .get("campaign")
            .ok_or_else(|| "submit is missing 'campaign'".to_owned())
            .and_then(campaign_from_wire)
        {
            Ok(c) => c,
            Err(e) => return self.reject(&mut self.lock(), tenant, "bad_campaign", &e),
        };
        let shard = match parse_shard_fields(cmd) {
            Ok(s) => s,
            Err(e) => return self.reject(&mut self.lock(), tenant, "bad_shard", &e),
        };

        let mut st = self.lock();
        // Degraded store: shed before touching it. The parked commit and
        // the retry loop own the store until it recovers.
        if let Some(d) = &st.degraded {
            let msg = format!("store unavailable: {}", d.reason);
            return self.reject(&mut st, tenant, "store_unavailable", &msg);
        }
        let active = st.jobs.values().filter(|j| !j.finished()).count();
        if active >= self.inner.cfg.max_jobs {
            let msg = format!(
                "queue full: {active} active jobs (limit {})",
                self.inner.cfg.max_jobs
            );
            return self.reject(&mut st, tenant, "queue_full", &msg);
        }
        // The accept-log append inside is the commit point: once it
        // returns, a kill at any later instant still runs this job.
        let fsync_started = Instant::now();
        let stored = match st.store.accept_sharded(tenant, epochs, &campaign, shard) {
            Ok(s) => s,
            Err(e) => {
                // A failed accept is an unhealthy store, not a one-off:
                // degrade so later submits shed instead of re-poking it.
                let msg = format!("store unavailable: {e}");
                self.enter_degraded(&mut st, &e.to_string(), None);
                return self.reject(&mut st, tenant, "store_unavailable", &msg);
            }
        };
        self.inner
            .metrics
            .store_fsync("accept")
            .observe(fsync_started.elapsed().as_secs_f64());
        let dir = st.store.job_dir(&stored.id);
        let journal = match CampaignJournal::create(dir.join("journal.jsonl"), &campaign) {
            Ok(j) => j,
            Err(e) => {
                // The accept line is durable, so recovery (in-process or
                // on restart) re-creates the journal and runs the job.
                let msg = format!("store unavailable: {e}");
                self.enter_degraded(&mut st, &e.to_string(), None);
                return self.reject(&mut st, tenant, "store_unavailable", &msg);
            }
        };
        let js = JobState {
            units: campaign.expand(),
            journal,
            failures: 0,
            pause_target: self.inner.cfg.quantum,
            subscribers: Vec::new(),
            stored,
        };
        let (id, total) = (js.stored.id.clone(), js.total());
        st.queue.push(&js.stored.tenant, id.clone());
        st.queued_at.insert(id.clone(), Instant::now());
        st.jobs.insert(id.clone(), js);
        self.inner.metrics.admission_accepted.inc();
        sync_queue_gauges(&self.inner.metrics, &st);
        drop(st);
        self.inner.work.notify_all();
        accepted_event(&id, total)
    }

    /// Replays a job's committed history, then streams live events until
    /// the job finishes.
    fn watch(&self, id: &str, writer: &mut Stream) -> io::Result<()> {
        let (replay, live) = {
            let mut st = self.lock();
            let dir = st.store.job_dir(id);
            let Some(js) = st.jobs.get_mut(id) else {
                writeln!(writer, "{}", error_event(&format!("no such job '{id}'")))?;
                return Ok(());
            };
            let mut replay = Vec::new();
            let name = js.stored.campaign.name.clone();
            for (&i, outcome) in js.journal.completed() {
                let rec = JobRecord {
                    job: js.units[i].clone(),
                    outcome: outcome.clone(),
                };
                replay.push(record_event(id, i, &rec.render(&name)));
                if js.stored.epochs > 0 {
                    for (event, ext) in [("stats", "stats.json"), ("epochs", "epochs.jsonl")] {
                        if let Ok(text) =
                            std::fs::read_to_string(JobStore::unit_artifact(&dir, i, ext))
                        {
                            replay.push(text_event(event, id, i, &text));
                        }
                    }
                }
            }
            replay.push(progress_event(id, js.done(), js.total()));
            if js.finished() {
                replay.push(done_event(id, js.done() - js.failed(), js.failed()));
                (replay, None)
            } else {
                // Subscribe under the same lock that replayed: commits
                // broadcast under this lock too, so the stream has no
                // gap and no duplicate. The buffer is bounded — fall
                // this far behind and the broadcaster evicts you.
                let (tx, rx) = mpsc::sync_channel(self.inner.cfg.subscriber_buffer);
                js.subscribers.push(tx);
                (replay, Some(rx))
            }
        };
        let streamed = &self.inner.metrics.streamed_bytes;
        for line in replay {
            writeln!(writer, "{line}")?;
            streamed.add(line.len() as u64 + 1);
        }
        if let Some(rx) = live {
            for line in rx {
                let is_done = line.starts_with("{\"event\":\"done\"");
                writeln!(writer, "{line}")?;
                streamed.add(line.len() as u64 + 1);
                if is_done {
                    // Dropping `rx` unsubscribes: the server's next send
                    // fails and the sender is pruned.
                    return writer.flush();
                }
            }
            // The stream stopped short of `done`: the broadcaster evicted
            // this watcher. End the connection so the client sees EOF and
            // reconnects now instead of idling into the read deadline.
            writer.flush()?;
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "watcher evicted",
            ));
        }
        writer.flush()
    }

    fn status_line(&self) -> String {
        let st = self.lock();
        format!("{{\"event\":\"status\",{}}}", jobs_tenants_json(&st))
    }

    // ----- observability surfaces (HTTP + status) ----------------------

    /// The `/jobs` body: job table plus per-tenant rollup.
    #[must_use]
    pub fn jobs_json(&self) -> String {
        let st = self.lock();
        format!("{{{}}}", jobs_tenants_json(&st))
    }

    /// The `/metrics` body: scrape-time gauges refreshed, then the
    /// registry rendered as Prometheus text exposition.
    #[must_use]
    pub fn metrics_exposition(&self) -> String {
        self.refresh_scrape_gauges();
        self.inner.metrics.registry.render_prometheus()
    }

    /// The `/metrics.json` body: the same registry as stable JSON.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.refresh_scrape_gauges();
        self.inner.metrics.registry.render_json()
    }

    fn refresh_scrape_gauges(&self) {
        let m = &self.inner.metrics;
        m.uptime.set(self.inner.started.elapsed().as_secs_f64());
        let st = self.lock();
        let active = st.jobs.values().filter(|j| !j.finished()).count();
        m.jobs_active.set(active as f64);
    }

    /// The `/healthz` probe: reports degraded mode (503) while the store
    /// is failing writes, otherwise checks that the durable store is
    /// writable by writing and removing a probe file in the store root.
    /// `Ok` is the 200 body, `Err` the 503 body.
    ///
    /// # Errors
    /// A JSON body naming the failure when the store is degraded or its
    /// root is unwritable.
    pub fn health(&self) -> Result<String, String> {
        let (root, active) = {
            let st = self.lock();
            if let Some(d) = &st.degraded {
                return Err(format!(
                    "{{\"status\":\"degraded\",\"store\":{},\"reason\":{},\
                     \"degraded_seconds\":{:.3},\"retries\":{}}}",
                    json_str(&st.store.root().display().to_string()),
                    json_str(&d.reason),
                    d.since.elapsed().as_secs_f64(),
                    self.inner.metrics.store_retries.get(),
                ));
            }
            let active = st.jobs.values().filter(|j| !j.finished()).count();
            (st.store.root().to_path_buf(), active)
        };
        let probe = root.join(".healthz.probe");
        let outcome = std::fs::write(&probe, b"ok").and_then(|()| std::fs::remove_file(&probe));
        match outcome {
            Ok(()) => Ok(format!(
                "{{\"status\":\"ok\",\"store\":{},\"active_jobs\":{},\"uptime_seconds\":{:.3}}}",
                json_str(&root.display().to_string()),
                active,
                self.inner.started.elapsed().as_secs_f64(),
            )),
            Err(e) => Err(format!(
                "{{\"status\":\"unwritable\",\"store\":{},\"error\":{}}}",
                json_str(&root.display().to_string()),
                json_str(&e.to_string()),
            )),
        }
    }

    /// The configured per-connection deadline (shared with the HTTP
    /// front-end).
    pub(crate) fn client_timeout(&self) -> Option<Duration> {
        self.inner.cfg.client_timeout
    }

    /// Bumps the active-connection gauge until the guard drops.
    #[must_use]
    pub(crate) fn connection_guard(&self) -> ConnGuard {
        let gauge = self.inner.metrics.active_connections.clone();
        gauge.inc();
        ConnGuard(gauge)
    }
}

/// Decrements the active-connection gauge on drop.
pub(crate) struct ConnGuard(Gauge);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Renders `"jobs":[...],"tenants":[...]` — shared by the `status`
/// protocol event and the HTTP `/jobs` body. Jobs come straight from
/// the journals (so the view survives restarts); the tenant rollup adds
/// queue depth, the unit in flight, and this process's rejection tally.
fn jobs_tenants_json(st: &State) -> String {
    let depth_vec = st.queue.tenant_depths();
    let depths: BTreeMap<&str, usize> = depth_vec.iter().map(|(t, d)| (t.as_str(), *d)).collect();
    let mut jobs = String::new();
    struct Roll {
        queued: usize,
        active: usize,
        served: usize,
        failed: usize,
        running: Option<(String, usize)>,
    }
    let mut tenants: BTreeMap<&str, Roll> = BTreeMap::new();
    for (id, js) in &st.jobs {
        if !jobs.is_empty() {
            jobs.push(',');
        }
        let running_unit = match &st.running {
            Some((rid, unit)) if rid == id => Some(*unit),
            _ => None,
        };
        jobs.push_str(&format!(
            "{{\"id\":{},\"tenant\":{},\"done\":{},\"failed\":{},\"total\":{},\"state\":{}{}{}}}",
            json_str(id),
            json_str(&js.stored.tenant),
            js.done(),
            js.failed(),
            js.total(),
            json_str(if js.finished() { "done" } else { "active" }),
            match js.stored.shard {
                Some((i, n)) => format!(",\"shard\":\"{i}/{n}\""),
                None => String::new(),
            },
            match running_unit {
                Some(u) => format!(",\"unit\":{u}"),
                None => String::new(),
            },
        ));
        let roll = tenants.entry(&js.stored.tenant).or_insert(Roll {
            queued: 0,
            active: 0,
            served: 0,
            failed: 0,
            running: None,
        });
        roll.active += usize::from(!js.finished());
        roll.served += js.done();
        roll.failed += js.failed();
        if let Some(u) = running_unit {
            roll.running = Some((id.clone(), u));
        }
    }
    for (tenant, depth) in &depths {
        if let Some(roll) = tenants.get_mut(tenant) {
            roll.queued = *depth;
        }
    }
    let mut out = String::new();
    for (tenant, roll) in &tenants {
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"tenant\":{},\"queued\":{},\"active_jobs\":{},\"served\":{},\"failed\":{},\
             \"rejected\":{},\"running\":{}}}",
            json_str(tenant),
            roll.queued,
            roll.active,
            roll.served,
            roll.failed,
            st.rejects.get(*tenant).copied().unwrap_or(0),
            match &roll.running {
                Some((id, u)) => format!("{{\"job\":{},\"unit\":{u}}}", json_str(id)),
                None => "null".to_owned(),
            },
        ));
    }
    format!(
        "\"jobs\":[{jobs}],\"tenants\":[{out}],\"gc_evicted\":{}",
        st.gc_evicted
    )
}

/// Extracts the optional `shard_index`/`shard_count` pair from a submit
/// command. Both must be present together, `count` must be positive and
/// `index < count` — residue classes outside that range select nothing
/// a client could have meant.
fn parse_shard_fields(cmd: &Value) -> Result<Option<(u32, u32)>, String> {
    let field = |key: &str| -> Result<Option<u32>, String> {
        match cmd.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .map(Some)
                .ok_or_else(|| format!("'{key}' must be a u32")),
        }
    };
    match (field("shard_index")?, field("shard_count")?) {
        (None, None) => Ok(None),
        (Some(idx), Some(n)) if n > 0 && idx < n => Ok(Some((idx, n))),
        (Some(idx), Some(n)) => Err(format!("shard {idx}/{n} is out of range")),
        _ => Err("shard_index and shard_count must be given together".to_owned()),
    }
}

/// Evicts the oldest finished jobs beyond `retain`, in acceptance order
/// (job ids sort that way). Running and queued jobs are structurally
/// exempt: only `finished()` jobs are candidates. A failed eviction
/// stops the sweep — the next completion retries it.
fn gc_finished(
    store: &mut JobStore,
    jobs: &mut BTreeMap<String, JobState>,
    retain: usize,
    m: &ServeMetrics,
) -> u64 {
    let finished: Vec<String> = jobs
        .values()
        .filter(|j| j.finished())
        .map(|j| j.stored.id.clone())
        .collect();
    let Some(excess) = finished.len().checked_sub(retain).filter(|&e| e > 0) else {
        return 0;
    };
    let mut evicted = 0;
    for id in finished.iter().take(excess) {
        match store.evict(id) {
            Ok(()) => {
                jobs.remove(id);
                m.store_gc.inc();
                evicted += 1;
                dramctrl_obs::log_info!("serve", "gc evicted finished job"; "id" => id);
            }
            Err(e) => {
                dramctrl_obs::log_warn!(
                    "serve", "gc eviction failed; will retry on next completion";
                    "id" => id, "error" => e
                );
                break;
            }
        }
    }
    evicted
}

/// Sets every known tenant's queue-depth gauge (0 when not in
/// rotation), so gauges never go stale when a tenant drains.
fn sync_queue_gauges(m: &ServeMetrics, st: &State) {
    let depths: BTreeMap<String, usize> = st.queue.tenant_depths().into_iter().collect();
    let mut seen = std::collections::BTreeSet::new();
    for js in st.jobs.values() {
        let tenant = js.stored.tenant.as_str();
        if seen.insert(tenant) {
            let depth = depths.get(tenant).copied().unwrap_or(0);
            m.tenant_queue_depth(tenant).set(depth as f64);
        }
    }
}

/// Result of one scheduler slice.
enum Unit {
    Done(JobMetrics, Option<JobArtifacts>),
    Paused { injected: u64 },
}

/// Writes an observed unit's artifacts atomically next to the journal.
///
/// # Errors
/// Store I/O — the caller routes it into degraded mode.
fn write_unit_artifacts(dir: &std::path::Path, unit: usize, a: &JobArtifacts) -> io::Result<()> {
    for (ext, text) in [
        ("stats.json", &a.stats_json),
        ("epochs.jsonl", &a.epochs_jsonl),
        ("epochs.csv", &a.epochs_csv),
        ("trace.json", &a.perfetto_json),
    ] {
        let path = JobStore::unit_artifact(dir, unit, ext);
        write_atomic(&path, text.as_bytes())
            .map_err(|e| io::Error::new(e.kind(), format!("artifact {}: {e}", path.display())))?;
    }
    Ok(())
}

/// Commits one unit's outcome (the durable commit point) and broadcasts
/// the resulting events to subscribers. The commit fsync is timed into
/// the store-fsync histogram; the journal bytes themselves are rendered
/// exactly as before — metrics only watch the clock. Broadcast happens
/// only after the commit lands, so nothing a watcher sees can be lost
/// to a store failure.
///
/// # Errors
/// Journal I/O — the caller parks the outcome and enters degraded mode.
fn commit_unit(
    js: &mut JobState,
    unit: usize,
    outcome: JobOutcome,
    artifacts: Option<&JobArtifacts>,
    m: &ServeMetrics,
) -> io::Result<()> {
    let rec = JobRecord {
        job: js.units[unit].clone(),
        outcome,
    };
    let fsync_started = Instant::now();
    js.journal.commit(&rec)?;
    m.store_fsync("commit")
        .observe(fsync_started.elapsed().as_secs_f64());
    let id = js.stored.id.clone();
    let line = rec.render(&js.stored.campaign.name);
    js.broadcast(&record_event(&id, unit, &line), m);
    if let Some(a) = artifacts {
        js.broadcast(&text_event("stats", &id, unit, &a.stats_json), m);
        js.broadcast(&text_event("epochs", &id, unit, &a.epochs_jsonl), m);
    }
    js.broadcast(&progress_event(&id, js.done(), js.total()), m);
    if js.finished() {
        js.broadcast(&done_event(&id, js.done() - js.failed(), js.failed()), m);
        js.subscribers.clear();
    }
    Ok(())
}

/// Puts an unfinished job back in rotation after its turn.
fn requeue(st: &mut State, id: &str) {
    let Some(js) = st.jobs.get(id) else { return };
    if !js.finished() {
        let tenant = js.stored.tenant.clone();
        st.queue.push(&tenant, id.to_owned());
        st.queued_at
            .entry(id.to_owned())
            .or_insert_with(Instant::now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl_campaign::Campaign;

    #[test]
    fn broadcast_evicts_full_subscribers_and_prunes_hangups() {
        let dir = std::env::temp_dir().join(format!("dramctrl-serve-bcast-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let c = Campaign::new("b", 1).read_pcts([50]).requests([10]);
        let journal = CampaignJournal::create(dir.join("j.jsonl"), &c).unwrap();
        let mut js = JobState {
            stored: StoredJob {
                id: "job-0001".into(),
                tenant: "t".into(),
                epochs: 0,
                campaign: c.clone(),
                shard: None,
            },
            units: c.expand(),
            journal,
            failures: 0,
            pause_target: 0,
            subscribers: Vec::new(),
        };
        let m = ServeMetrics::new();
        let (tx_full, _rx_never_drained) = mpsc::sync_channel(1);
        let (tx_gone, rx_gone) = mpsc::sync_channel(1);
        drop(rx_gone);
        let (tx_ok, rx_ok) = mpsc::sync_channel(8);
        js.subscribers = vec![tx_full, tx_gone, tx_ok];

        // First broadcast: fills the never-drained buffer, prunes the
        // hang-up (not an eviction), delivers to the healthy one.
        js.broadcast("one", &m);
        assert_eq!(js.subscribers.len(), 2);
        assert_eq!(m.clients_evicted.get(), 0);

        // Second broadcast: the full buffer now evicts its subscriber.
        js.broadcast("two", &m);
        assert_eq!(js.subscribers.len(), 1);
        assert_eq!(m.clients_evicted.get(), 1);
        assert_eq!(rx_ok.try_recv().unwrap(), "one");
        assert_eq!(rx_ok.try_recv().unwrap(), "two");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
