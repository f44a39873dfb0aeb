//! The traced run: the same jobs driven in-process through timing
//! wrappers around each layer's public functions, plus the executor,
//! journal, daemon and fleet layers measured at their boundaries. Each
//! per-layer metric is the median over the run's trials.

use crate::paths::{gate, Ctx};
use crate::Samples;
use dramctrl::{DramCtrl, FaultModel};
use dramctrl_bench::runner::{ras_for_job, JOB_TICK_BUDGET};
use dramctrl_bench::{
    ev_cfg, gen_for_job, job_fingerprint, job_metrics, run_job, run_job_slice, std_tester,
    SliceOutcome,
};
use dramctrl_campaign::{
    merge_journals, run_campaign, Campaign, CampaignJournal, ExecutorConfig, JobMetrics, JobSpec,
    Model,
};
use dramctrl_kernel::fsio::write_atomic;
use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::{presets, ActivityStats, CommonStats, Controller, MemCmd, MemRequest};
use dramctrl_mem::{MemResponse, MemSpec, Rejected};
use dramctrl_serve::wire::Value;
use dramctrl_system::MultiChannel;
use dramctrl_traffic::{TestRun, TestSummary, TrafficGen};
use std::cell::Cell;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The daemon's default preemption quantum, in injected requests.
const QUANTUM: u64 = 1_000;

/// Records committed one by one (one fsync each) per campaign when
/// timing `CampaignJournal::commit`.
const SINGLE_COMMITS: usize = 64;

/// Records per `CampaignJournal::commit_batch` call.
const BATCH: usize = 64;

/// Requests simulated per trial by the slice comparison (whole jobs,
/// at most [`SLICE_JOBS`] of them).
const SLICE_REQUESTS: u64 = 400_000;
const SLICE_JOBS: usize = 16;

/// One tester step in this many is timed, layer by layer; the others
/// run the wrappers' untimed branch. Per-request figures are per timed
/// step. The counter runs across jobs, so short jobs are sampled at
/// every position, not only at their first request.
const SAMPLE_EVERY: u64 = 16;

thread_local! {
    /// Whether the wrappers time the current call.
    static TIMING: Cell<bool> = const { Cell::new(false) };
}

fn timing() -> bool {
    TIMING.with(Cell::get)
}

fn set_timing(on: bool) {
    TIMING.with(|t| t.set(on));
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Runs `f`, adding its duration to `cell` when timing is on.
fn timed<R>(cell: &Cell<u64>, f: impl FnOnce() -> R) -> R {
    if !timing() {
        return f();
    }
    let start = Instant::now();
    let r = f();
    add(cell, ns(start));
    r
}

/// Time spent in, and calls made to, one controller.
#[derive(Debug, Default)]
struct CtrlTime {
    advance: Cell<u64>,
    try_send: Cell<u64>,
    next_event: Cell<u64>,
    drain: Cell<u64>,
    try_send_calls: Cell<u64>,
}

impl CtrlTime {
    /// Time in the calls a tester step makes (all but `drain`).
    fn in_step(&self) -> u64 {
        self.advance.get() + self.try_send.get() + self.next_event.get()
    }

    fn absorb(&self, o: &CtrlTime) {
        for (a, b) in [
            (&self.advance, &o.advance),
            (&self.try_send, &o.try_send),
            (&self.next_event, &o.next_event),
            (&self.drain, &o.drain),
            (&self.try_send_calls, &o.try_send_calls),
        ] {
            a.set(a.get() + b.get());
        }
    }
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

/// A controller whose simulation calls are timed while [`TIMING`] is
/// on and counted always. Everything else passes straight through.
#[derive(Debug)]
struct Timed<C> {
    inner: C,
    t: CtrlTime,
}

impl<C> Timed<C> {
    fn new(inner: C) -> Self {
        Self {
            inner,
            t: CtrlTime::default(),
        }
    }
}

impl<C: Controller> Controller for Timed<C> {
    fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), Rejected> {
        add(&self.t.try_send_calls, 1);
        let inner = &mut self.inner;
        timed(&self.t.try_send, || inner.try_send(req, now))
    }

    fn can_accept(&self, cmd: MemCmd, addr: u64, size: u32) -> bool {
        self.inner.can_accept(cmd, addr, size)
    }

    fn next_event(&self) -> Option<Tick> {
        timed(&self.t.next_event, || self.inner.next_event())
    }

    fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
        let inner = &mut self.inner;
        timed(&self.t.advance, || inner.advance_to(limit, out));
    }

    fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
        let inner = &mut self.inner;
        timed(&self.t.drain, || inner.drain(out))
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn spec(&self) -> &MemSpec {
        self.inner.spec()
    }

    fn common_stats(&self) -> CommonStats {
        self.inner.common_stats()
    }

    fn activity(&mut self, now: Tick) -> ActivityStats {
        self.inner.activity(now)
    }

    fn report(&self, prefix: &str, now: Tick) -> dramctrl_stats::Report {
        self.inner.report(prefix, now)
    }
}

impl<C: SnapState> SnapState for Timed<C> {
    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_state(r)
    }
}

/// A traffic generator whose `next_request` calls are timed while
/// [`TIMING`] is on.
struct TimedGen<G> {
    inner: G,
    ns: Cell<u64>,
}

impl<G: TrafficGen> TrafficGen for TimedGen<G> {
    fn next_request(&mut self) -> Option<(Tick, MemRequest)> {
        let inner = &mut self.inner;
        timed(&self.ns, || inner.next_request())
    }
}

/// Per-layer totals over the jobs of one traced pass.
#[derive(Debug, Default)]
struct Tally {
    injected: u64,
    /// Tester steps taken, and those timed.
    steps: u64,
    timed_steps: u64,
    /// Channel controllers (the event controller itself).
    core: CtrlTime,
    /// The controller the tester drives: the channel itself, or the
    /// crossbar over the channels.
    outer: CtrlTime,
    /// Timed steps of multi-channel jobs, and the crossbar's own time
    /// in them.
    multi_timed: u64,
    xbar_self: u64,
    /// Timed steps of RAS-armed jobs, and the channels' advance time in
    /// them.
    ras_timed: u64,
    ras_advance: u64,
    gen: u64,
    step: u64,
    finish: u64,
    setup: u64,
    build: u64,
}

/// Sums every channel's RAS counters into the job metrics, as the
/// runner does.
fn add_ras_metrics<'a>(m: &mut JobMetrics, fms: impl Iterator<Item = &'a FaultModel>) {
    let mut sums = std::collections::BTreeMap::new();
    let mut any = false;
    for fm in fms {
        any = true;
        for (name, v) in fm.stats().entries() {
            *sums.entry(name).or_insert(0u64) += v;
        }
    }
    if any {
        for (name, v) in sums {
            m.set(name, v as f64);
        }
    }
}

/// The tester loop of `run_job`, with every [`SAMPLE_EVERY`]th step
/// and the run's finish (drain and metric conversion) timed. Returns
/// the metrics and the number of requests injected.
fn drive<G: TrafficGen, C: Controller>(
    gen: &mut TimedGen<G>,
    ctrl: &mut Timed<C>,
    tl: &mut Tally,
) -> (JobMetrics, u64) {
    let mut run = std_tester().begin();
    loop {
        tl.steps += 1;
        let more = if tl.steps % SAMPLE_EVERY == 0 {
            set_timing(true);
            let start = Instant::now();
            let more = run.step(gen, ctrl, Tick::MAX);
            tl.step += ns(start);
            tl.timed_steps += 1;
            set_timing(false);
            more
        } else {
            run.step(gen, ctrl, Tick::MAX)
        };
        if !more {
            break;
        }
    }
    let injected = run.injected();
    set_timing(true);
    let start = Instant::now();
    let m = job_metrics(&run.finish(ctrl));
    tl.finish += ns(start);
    set_timing(false);
    (m, injected)
}

/// One job the way `run_job` runs it (same controller reuse, same
/// construction), with every layer's calls timed.
fn traced_job(job: &JobSpec, cache: &mut Option<DramCtrl>, tl: &mut Tally) -> JobMetrics {
    assert_eq!(job.model, Model::Event, "the workloads are event-model");
    let setup = Instant::now();
    let spec = presets::by_name(&job.device).expect("workload devices are presets");
    let mut gen = TimedGen {
        inner: gen_for_job(job, &spec),
        ns: Cell::new(0),
    };
    let channels = job.channels.max(1);
    let mut cfg = ev_cfg(spec, job.policy, job.sched, job.mapping, channels);
    cfg.ras = ras_for_job(job);
    let armed = cfg.ras.is_some();
    let timed_before = tl.timed_steps;
    let build = Instant::now();
    let (m, injected, core) = if channels == 1 {
        let mut ctrl = match cache.take() {
            Some(mut c) if *c.config() == cfg => {
                c.reset();
                c
            }
            _ => DramCtrl::new(cfg).expect("valid config"),
        };
        ctrl.set_tick_budget(Some(JOB_TICK_BUDGET));
        tl.build += ns(build);
        let mut ctrl = Timed::new(ctrl);
        tl.setup += ns(setup);
        let (mut m, injected) = drive(&mut gen, &mut ctrl, tl);
        add_ras_metrics(&mut m, ctrl.inner.fault_model().into_iter());
        tl.outer.absorb(&ctrl.t);
        *cache = Some(ctrl.inner);
        (m, injected, ctrl.t)
    } else {
        let chans = (0..channels)
            .map(|_| {
                let mut c = DramCtrl::new(cfg.clone()).expect("valid config");
                c.set_tick_budget(Some(JOB_TICK_BUDGET));
                Timed::new(c)
            })
            .collect();
        let xbar = MultiChannel::new(chans, 0).expect("valid crossbar");
        let mut xbar = Timed::new(xbar.with_mapping(job.mapping));
        tl.build += ns(build);
        tl.setup += ns(setup);
        let (mut m, injected) = drive(&mut gen, &mut xbar, tl);
        let (chans, _) = xbar.inner.into_parts();
        add_ras_metrics(&mut m, chans.iter().filter_map(|c| c.inner.fault_model()));
        let core = CtrlTime::default();
        for c in &chans {
            core.absorb(&c.t);
        }
        tl.xbar_self += xbar.t.in_step().saturating_sub(core.in_step());
        tl.multi_timed += tl.timed_steps - timed_before;
        tl.outer.absorb(&xbar.t);
        (m, injected, core)
    };
    if armed {
        tl.ras_timed += tl.timed_steps - timed_before;
        tl.ras_advance += core.advance.get();
    }
    tl.core.absorb(&core);
    tl.gen += gen.ns.get();
    tl.injected += injected;
    m
}

/// Checkpoint costs at the daemon's pause points.
#[derive(Debug, Default)]
struct SnapTally {
    pauses: u64,
    bytes: u64,
    save: u64,
    write: u64,
    restore: u64,
}

fn restore_all<G: SnapState, C: SnapState>(
    bytes: &[u8],
    fp: u64,
    run: &mut TestRun,
    gen: &mut G,
    ctrl: &mut C,
) -> Result<(), SnapError> {
    let mut r = SnapReader::new(bytes, fp)?;
    run.restore_state(&mut r)?;
    gen.restore_state(&mut r)?;
    ctrl.restore_state(&mut r)?;
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(SnapError::Corrupt("trailing bytes".into()))
    }
}

/// Runs a job in daemon-sized slices: at every pause point the state is
/// saved and written as `run_job_slice` does, then restored into fresh
/// objects as the next slice does, with each step timed.
fn sliced<G, C>(
    mk_gen: impl Fn() -> G,
    mk: impl Fn() -> C,
    fp: u64,
    path: &std::path::Path,
    st: &mut SnapTally,
) -> (TestSummary, C)
where
    G: TrafficGen + SnapState,
    C: Controller + SnapState,
{
    let (mut gen, mut ctrl, mut run) = (mk_gen(), mk(), std_tester().begin());
    let mut target = QUANTUM;
    while run.step(&mut gen, &mut ctrl, Tick::MAX) {
        if run.injected() < target {
            continue;
        }
        let start = Instant::now();
        let mut w = SnapWriter::new(fp);
        run.save_state(&mut w);
        gen.save_state(&mut w);
        ctrl.save_state(&mut w);
        let bytes = w.into_bytes();
        st.save += ns(start);
        let start = Instant::now();
        write_atomic(path, &bytes).expect("writing a checkpoint");
        st.write += ns(start);
        st.pauses += 1;
        st.bytes += bytes.len() as u64;
        target = run.injected() + QUANTUM;

        (gen, ctrl, run) = (mk_gen(), mk(), std_tester().begin());
        let bytes = std::fs::read(path).expect("reading the checkpoint back");
        let start = Instant::now();
        restore_all(&bytes, fp, &mut run, &mut gen, &mut ctrl).expect("restoring a checkpoint");
        st.restore += ns(start);
    }
    (run.finish(&mut ctrl), ctrl)
}

fn sliced_job(job: &JobSpec, path: &std::path::Path, st: &mut SnapTally) -> JobMetrics {
    let spec = presets::by_name(&job.device).expect("workload devices are presets");
    let fp = job_fingerprint(job);
    let channels = job.channels.max(1);
    let mut cfg = ev_cfg(spec.clone(), job.policy, job.sched, job.mapping, channels);
    cfg.ras = ras_for_job(job);
    let mk_gen = || gen_for_job(job, &spec);
    let mk_ctrl = || {
        let mut c = DramCtrl::new(cfg.clone()).expect("valid config");
        c.set_tick_budget(Some(JOB_TICK_BUDGET));
        c
    };
    if channels == 1 {
        let (s, ctrl) = sliced(mk_gen, mk_ctrl, fp, path, st);
        let mut m = job_metrics(&s);
        add_ras_metrics(&mut m, ctrl.fault_model().into_iter());
        m
    } else {
        let mk = || {
            let chans = (0..channels).map(|_| mk_ctrl()).collect();
            let xbar = MultiChannel::new(chans, 0).expect("valid crossbar");
            xbar.with_mapping(job.mapping)
        };
        let (s, xbar) = sliced(mk_gen, mk, fp, path, st);
        let (chans, _) = xbar.into_parts();
        let mut m = job_metrics(&s);
        add_ras_metrics(&mut m, chans.iter().filter_map(DramCtrl::fault_model));
        m
    }
}

/// Chains `run_job_slice` at the daemon quantum until the job is done;
/// returns the metrics and the number of slices.
fn chained_slices(job: &JobSpec, path: &std::path::Path) -> (JobMetrics, u64) {
    let _ = std::fs::remove_file(path);
    let mut target = QUANTUM;
    let mut slices = 0;
    loop {
        slices += 1;
        match run_job_slice(job, path, Some(target)) {
            SliceOutcome::Done(m) => {
                let _ = std::fs::remove_file(path);
                return (m, slices);
            }
            SliceOutcome::Paused { injected } => target = injected + QUANTUM,
        }
    }
}

/// Up to [`SLICE_JOBS`] jobs spread evenly over `jobs`, holding about
/// [`SLICE_REQUESTS`] requests.
fn slice_sample(jobs: &[JobSpec]) -> Vec<&JobSpec> {
    let avg = jobs.iter().map(|j| j.requests).sum::<u64>() / jobs.len().max(1) as u64;
    let want = ((SLICE_REQUESTS / avg.max(1)) as usize).clamp(1, SLICE_JOBS.min(jobs.len()));
    let stride = jobs.len() / want;
    (0..want).map(|i| &jobs[i * stride]).collect()
}

/// A GET over the daemon's HTTP socket; returns the body.
fn http_get(sock: &str, path: &str) -> Result<String, String> {
    let err = |e: std::io::Error| format!("GET {path} from {sock}: {e}");
    let mut s = std::os::unix::net::UnixStream::connect(sock).map_err(err)?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .map_err(err)?;
    let mut text = String::new();
    s.read_to_string(&mut text).map_err(err)?;
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("GET {path} from {sock}: {head}"));
    }
    Ok(body.to_owned())
}

/// The sum over every series of `name` whose labels contain `label`, in
/// a Prometheus text exposition.
fn prom(text: &str, name: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| {
            let (n, labels) = series.split_once('{').unwrap_or((series, ""));
            n == name && labels.contains(label)
        })
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum()
}

/// The first sample of metric family `name` in `sweep --metrics-json`
/// output.
fn family<'a>(m: &'a Value, name: &str) -> Result<&'a Value, String> {
    m.get("families")
        .and_then(Value::as_arr)
        .and_then(|fs| {
            fs.iter()
                .find(|f| f.get("name").and_then(Value::as_str) == Some(name))
        })
        .and_then(|f| f.get("samples")?.as_arr()?.first())
        .ok_or_else(|| format!("executor metrics lack {name}"))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("executor metric sample lacks {key}"))
}

/// Runs traced trials until `deadline` (at least one).
pub fn run(
    ctx: &Ctx,
    deadline: Instant,
    samples: &mut Samples,
    attempted: &mut u64,
) -> Result<Vec<String>, String> {
    crate::trials(deadline, |t, reference| {
        one_trial(ctx, t, reference, samples, attempted)
    })
}

fn one_trial(
    ctx: &Ctx,
    t: usize,
    reference: Option<&[String]>,
    samples: &mut Samples,
    attempted: &mut u64,
) -> Result<Vec<String>, String> {
    let campaigns: Vec<Campaign> = ctx.wl.defs.iter().map(|d| d.campaign(ctx.seed)).collect();
    let jobs: Vec<JobSpec> = campaigns.iter().flat_map(Campaign::expand).collect();
    simulator(&jobs, samples, attempted)?;
    preemption(ctx, t, &jobs, samples, attempted)?;
    let inproc = campaign_layer(ctx, t, &campaigns, samples, attempted)?;
    // Every later pass is gated against this trial's in-process report,
    // which must itself repeat the first trial's.
    let reference = reference.unwrap_or(&inproc);
    gate("in-process run_campaign", reference, &inproc)?;
    service(ctx, t, &campaigns, reference, samples, attempted)?;
    Ok(inproc)
}

/// Simulator layers: untraced and traced passes over the same jobs, on
/// this thread, in the same order.
fn simulator(jobs: &[JobSpec], samples: &mut Samples, attempted: &mut u64) -> Result<(), String> {
    let n = jobs.len() as f64;
    let start = Instant::now();
    let plain: Vec<JobMetrics> = jobs.iter().map(run_job).collect();
    let untraced = start.elapsed();
    let mut tl = Tally::default();
    let mut cache = None;
    let start = Instant::now();
    for (job, want) in jobs.iter().zip(&plain) {
        if traced_job(job, &mut cache, &mut tl) != *want {
            let label = job.label();
            return Err(format!("traced metrics of job {label} differ from run_job"));
        }
    }
    let traced = start.elapsed();
    *attempted += 2 * jobs.len() as u64;
    samples.add(
        "trace_overhead_frac",
        traced.as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );
    let per = |v: u64, count: u64| {
        if count == 0 {
            0.0
        } else {
            v as f64 / count as f64
        }
    };
    let (core, outer, steps) = (&tl.core, &tl.outer, tl.timed_steps);
    samples.add("core.advance_ns_per_req", per(core.advance.get(), steps));
    samples.add("core.try_send_ns_per_req", per(core.try_send.get(), steps));
    samples.add(
        "core.next_event_ns_per_req",
        per(core.next_event.get(), steps),
    );
    samples.add("core.drain_us_per_job", core.drain.get() as f64 / n / 1e3);
    samples.add("core.build_us_per_job", tl.build as f64 / n / 1e3);
    samples.add("traffic.gen_ns_per_req", per(tl.gen, steps));
    let tester = tl.step.saturating_sub(tl.gen + outer.in_step());
    samples.add("traffic.tester_ns_per_req", per(tester, steps));
    let attempts = per(outer.try_send_calls.get(), tl.injected);
    samples.add("traffic.send_attempts_per_req", attempts);
    let finish = tl.finish.saturating_sub(outer.drain.get());
    samples.add("traffic.finish_us_per_job", finish as f64 / n / 1e3);
    samples.add(
        "system.xbar_self_ns_per_req",
        per(tl.xbar_self, tl.multi_timed),
    );
    samples.add("ras.advance_ns_per_req", per(tl.ras_advance, tl.ras_timed));
    samples.add("bench.setup_us_per_job", tl.setup as f64 / n / 1e3);
    Ok(())
}

/// Preemption: chained `run_job_slice` against `run_job`, and the
/// checkpoint steps of each pause, on a sample of the jobs.
fn preemption(
    ctx: &Ctx,
    t: usize,
    jobs: &[JobSpec],
    samples: &mut Samples,
    attempted: &mut u64,
) -> Result<(), String> {
    let snap = ctx.work.path(&format!("slice-{t}.snap"));
    let (mut chain, mut plain, mut slices) = (0u64, 0u64, 0u64);
    let mut st = SnapTally::default();
    for job in slice_sample(jobs) {
        let start = Instant::now();
        let want = run_job(job);
        plain += ns(start);
        let start = Instant::now();
        let (m, s) = chained_slices(job, &snap);
        chain += ns(start);
        slices += s;
        if m != want || sliced_job(job, &snap, &mut st) != want {
            let label = job.label();
            return Err(format!("sliced metrics of job {label} differ from run_job"));
        }
        *attempted += 3;
    }
    let _ = std::fs::remove_file(&snap);
    let overhead = chain.saturating_sub(plain) as f64 / slices as f64 / 1e3;
    samples.add("bench.slice_overhead_us", overhead);
    let pauses = st.pauses.max(1) as f64;
    samples.add("bench.checkpoint_bytes", st.bytes as f64 / pauses);
    samples.add("kernel.snap_save_us", st.save as f64 / pauses / 1e3);
    samples.add("kernel.snap_restore_us", st.restore as f64 / pauses / 1e3);
    samples.add("kernel.write_atomic_us", st.write as f64 / pauses / 1e3);
    Ok(())
}

/// Campaign layer, in-process: the executor, record rendering and
/// journal commits. Returns the in-process reports.
fn campaign_layer(
    ctx: &Ctx,
    t: usize,
    campaigns: &[Campaign],
    samples: &mut Samples,
    attempted: &mut u64,
) -> Result<Vec<String>, String> {
    let err = |e: &dyn std::fmt::Display| format!("journal: {e}");
    let (mut exec_over, mut render, mut commit, mut commits, mut batch) = (0f64, 0, 0, 0, 0);
    let mut reports = Vec::new();
    for (i, c) in campaigns.iter().enumerate() {
        let busy = AtomicU64::new(0);
        let cfg = ExecutorConfig::default().with_workers(ctx.workers);
        let start = Instant::now();
        let report = run_campaign(c, &cfg, |job| {
            let start = Instant::now();
            let m = run_job(job);
            // A statistic only: it publishes no other data.
            busy.fetch_add(ns(start), Ordering::Relaxed);
            m
        });
        let wall = start.elapsed().as_nanos() as f64;
        exec_over += wall * ctx.workers as f64 - busy.load(Ordering::Relaxed) as f64;
        *attempted += report.records.len() as u64;
        for r in &report.records {
            let start = Instant::now();
            std::hint::black_box(r.render(&report.name));
            render += ns(start);
        }
        let path = ctx.work.path(&format!("commit-{t}-{i}.jsonl"));
        let mut j = CampaignJournal::create(&path, c).map_err(|e| err(&e))?;
        for r in report.records.iter().take(SINGLE_COMMITS) {
            let start = Instant::now();
            j.commit(r).map_err(|e| err(&e))?;
            commit += ns(start);
            commits += 1;
        }
        let path = ctx.work.path(&format!("batch-{t}-{i}.jsonl"));
        let mut j = CampaignJournal::create(&path, c).map_err(|e| err(&e))?;
        for chunk in report.records.chunks(BATCH) {
            let start = Instant::now();
            j.commit_batch(chunk.iter().map(|r| (&r.job, &r.outcome)))
                .map_err(|e| err(&e))?;
            batch += ns(start);
        }
        let jsonl = report.to_jsonl();
        let journal = std::fs::read_to_string(&path).map_err(|e| err(&e))?;
        if !journal.ends_with(&jsonl) {
            return Err("batch-committed journal records differ from the report".into());
        }
        reports.push(jsonl);
    }
    let n = campaigns.iter().map(Campaign::len).sum::<usize>() as f64;
    samples.add("campaign.exec_overhead_us_per_job", exec_over / n / 1e3);
    samples.add("campaign.render_us_per_record", render as f64 / n / 1e3);
    let per_commit = commit as f64 / commits as f64 / 1e3;
    samples.add("campaign.commit_us_per_record", per_commit);
    samples.add(
        "campaign.batch_commit_us_per_record",
        batch as f64 / n / 1e3,
    );
    Ok(reports)
}

/// The shipped binary's executor metrics, a daemon with its metrics
/// endpoint on, and the fleet: each path's reports gated against
/// `reference`.
fn service(
    ctx: &Ctx,
    t: usize,
    campaigns: &[Campaign],
    reference: &[String],
    samples: &mut Samples,
    attempted: &mut u64,
) -> Result<(), String> {
    let jobs = ctx.jobs();
    let n = jobs as f64;
    let (_, reports) = ctx.sweep(&format!("tm-{t}"), ctx.workers, true, true)?;
    *attempted += jobs;
    gate("sweep --metrics-json", reference, &reports)?;
    let (mut batches, mut batched, mut busy, mut idle) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..campaigns.len() {
        let path = ctx.work.path(&format!("tm-{t}-{i}.metrics.json"));
        let bad = |e: String| format!("{}: {e}", path.display());
        let text = std::fs::read_to_string(&path).map_err(|e| bad(e.to_string()))?;
        let m = Value::parse(&text).map_err(bad)?;
        let b = family(&m, "dramctrl_executor_batch_records")?;
        batches += num(b, "count")?;
        batched += num(b, "sum")?;
        busy += num(
            family(&m, "dramctrl_executor_worker_busy_seconds_total")?,
            "value",
        )?;
        idle += num(
            family(&m, "dramctrl_executor_worker_idle_seconds_total")?,
            "value",
        )?;
    }
    samples.add("campaign.batch_records", batched / batches);
    samples.add("campaign.worker_busy_frac", busy / (busy + idle));

    let (daemons, _) = ctx.spawn_daemons(&format!("tt{t}"), true)?;
    let watched = ctx.daemon_jobs(&daemons[0])?;
    *attempted += jobs;
    let reports: Vec<String> = watched.iter().map(|w| w.report.clone()).collect();
    gate("daemon watch", reference, &reports)?;
    let mut gaps = Vec::new();
    for w in &watched {
        samples.add("serve.submit_ms", w.submit.as_secs_f64() * 1e3);
        let us = |p: &[Duration]| (p[1] - p[0]).as_secs_f64() * 1e6;
        gaps.extend(w.arrivals.windows(2).map(us));
    }
    samples.add("serve.record_gap_us", crate::median(&mut gaps));
    let http = daemons[0]
        .http
        .as_deref()
        .expect("the traced daemon serves HTTP");
    let text = http_get(http, "/metrics")?;
    let units = prom(&text, "dramctrl_units_total", "");
    let waits = prom(&text, "dramctrl_sched_wait_seconds_count", "");
    let commit = "op=\"commit\"";
    let fsyncs = prom(&text, "dramctrl_store_fsync_seconds_count", commit);
    if units != n || waits == 0.0 || fsyncs == 0.0 {
        return Err(format!("daemon metrics count {units} units of {n}"));
    }
    let wait = prom(&text, "dramctrl_sched_wait_seconds_sum", "");
    samples.add("serve.queue_wait_ms", wait / waits * 1e3);
    let preemptions = prom(&text, "dramctrl_sched_preemptions_total", "");
    samples.add("serve.preemptions_per_unit", preemptions / units);
    let fsync = prom(&text, "dramctrl_store_fsync_seconds_sum", commit);
    samples.add("serve.commit_fsync_us", fsync / fsyncs * 1e6);
    let streamed = prom(&text, "dramctrl_streamed_bytes_total", "");
    samples.add("serve.streamed_bytes_per_record", streamed / n);

    let fleet = ctx.dispatch(&format!("tf-{t}"), [&daemons[1], &daemons[2]])?;
    *attempted += jobs;
    gate("dispatch", reference, &fleet.reports)?;
    let assignments = fleet.count("shard assigned")
        + fleet.count("shard re-dispatched")
        + fleet.count("shard hedged");
    let per_shard = assignments as f64 / fleet.shards().max(1) as f64;
    samples.add("dispatch.assignments_per_shard", per_shard);
    let mut merge = Duration::ZERO;
    let mut merged = Vec::new();
    for (c, dir) in campaigns.iter().zip(&fleet.workdirs) {
        let mut journals: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| Some(e.ok()?.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        journals.sort();
        let start = Instant::now();
        let report = merge_journals(c, &journals).map_err(|e| format!("merging shards: {e}"))?;
        merge += start.elapsed();
        merged.push(report.to_jsonl());
    }
    gate("merge_journals", reference, &merged)?;
    samples.add("dispatch.merge_ms", merge.as_secs_f64() * 1e3);
    Ok(())
}
