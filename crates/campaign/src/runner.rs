//! The canonical job runner: wires a declarative [`JobSpec`] to real
//! controllers, traffic generators and the [`Tester`] run loop.
//!
//! Every simulation — a campaign job, a preemptible daemon slice, an
//! observed job and the CLI's `run`/`replay` — goes through one
//! [`Backend`]: the controller stack for a model × channel count, chosen
//! once per run by [`Backend::build`], with one checkpointing drive loop
//! ([`Backend::drive`]) generic over the concrete stack, so the
//! per-request loop stays monomorphic and a [`NoProbe`] compiles away.

use crate::{JobMetrics, JobSpec, Model, TrafficPattern};
use dramctrl::{CtrlConfig, DramCtrl, EccMode, FaultModel, PagePolicy, RasConfig, SchedPolicy};
use dramctrl_cycle::{CycleConfig, CycleCtrl, CyclePagePolicy, CycleSched};
use dramctrl_kernel::fsio::write_atomic;
use dramctrl_kernel::snap::{fingerprint, SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::{presets, ActivityStats, AddrMapping, Controller, MemSpec};
use dramctrl_obs::{ChromeTracer, EpochRecorder, NoProbe, Probe};
use dramctrl_stats::Report;
use dramctrl_system::MultiChannel;
use dramctrl_traffic::{
    DramAwareGen, LinearGen, RandomGen, SnapGen, TestRun, TestSummary, Tester, TrafficGen,
};
use std::cell::RefCell;
use std::convert::Infallible;
use std::path::Path;

thread_local! {
    /// One retired event-model controller per worker thread, reused via
    /// [`DramCtrl::reset`] when the next job wants an identical
    /// configuration — the common case in a campaign sweeping traffic
    /// axes over a fixed device. Keyed by config equality, so any config
    /// change falls back to a fresh build.
    static EV_CTRL_CACHE: RefCell<Option<DramCtrl>> = const { RefCell::new(None) };
}

/// A controller for `cfg`: the worker's cached one, reset, when its
/// configuration matches; a freshly built one otherwise.
fn cached_ev_ctrl(cfg: CtrlConfig) -> DramCtrl {
    match EV_CTRL_CACHE.with(|c| c.borrow_mut().take()) {
        Some(mut ctrl) if *ctrl.config() == cfg => {
            ctrl.reset();
            ctrl
        }
        _ => DramCtrl::new(cfg).expect("valid config"),
    }
}

/// Retires a finished controller into the worker's cache for the next
/// job. Its queues, event heap and group arena keep their allocations.
fn retire_ev_ctrl(ctrl: DramCtrl) {
    EV_CTRL_CACHE.with(|c| *c.borrow_mut() = Some(ctrl));
}

/// The event-model configuration for a (policy, scheduler, mapping,
/// channels) tuple.
pub fn ev_cfg(
    spec: MemSpec,
    policy: PagePolicy,
    sched: SchedPolicy,
    mapping: AddrMapping,
    channels: u32,
) -> CtrlConfig {
    let mut cfg = CtrlConfig::new(spec);
    cfg.page_policy = policy;
    cfg.mapping = mapping;
    cfg.channels = channels;
    cfg.scheduling = sched;
    cfg
}

/// The matching cycle-baseline configuration.
pub fn cy_cfg(
    spec: MemSpec,
    policy: PagePolicy,
    sched: SchedPolicy,
    mapping: AddrMapping,
    channels: u32,
) -> CycleConfig {
    let mut cfg = CycleConfig::new(spec);
    cfg.page_policy = if policy.is_open() {
        CyclePagePolicy::Open
    } else {
        CyclePagePolicy::Closed
    };
    cfg.mapping = mapping;
    cfg.channels = channels;
    cfg.scheduling = match sched {
        SchedPolicy::Fcfs => CycleSched::Fcfs,
        SchedPolicy::FrFcfs => CycleSched::FrFcfs,
    };
    // Model comparisons must service the same burst stream on both sides,
    // so give the baseline the event model's write snooping too.
    cfg.write_snooping = true;
    cfg
}

/// The tester configuration shared by the campaign runner and the
/// ablation binaries: 200 µs latency cap, 1 000 histogram buckets.
pub fn std_tester() -> Tester {
    Tester::new(200_000, 1_000)
}

/// Builds the seeded traffic generator described by `job`. The box is a
/// [`SnapGen`], so the generator's stream position participates in job
/// checkpoints.
pub fn gen_for_job(job: &JobSpec, spec: &MemSpec) -> Box<dyn SnapGen> {
    let rd = job.read_pct;
    let n = job.requests;
    match job.traffic {
        TrafficPattern::Linear { range, block } => {
            Box::new(LinearGen::new(0, range, block, rd, 0, n, job.seed))
        }
        TrafficPattern::Random { range, block } => {
            Box::new(RandomGen::new(0, range, block, rd, 0, n, job.seed))
        }
        TrafficPattern::DramAware { stride, banks } => Box::new(DramAwareGen::new(
            spec.org,
            job.mapping,
            job.channels,
            0,
            stride,
            banks,
            rd,
            0,
            n,
            job.seed,
        )),
    }
}

/// The RAS configuration a job's `error_rate` axis implies: `None` at
/// rate 0 (byte-identical to a build without the RAS subsystem), else a
/// SEC-DED fault model seeded with the job seed.
pub fn ras_for_job(job: &JobSpec) -> Option<RasConfig> {
    (job.error_rate > 0.0)
        .then(|| RasConfig::from_error_rate(job.error_rate, job.seed).with_ecc(EccMode::SecDed))
}

/// Tick budget armed on every event-model campaign controller: one hour
/// of simulated time, orders of magnitude beyond any job in this
/// repository. A controller that sails past it is stuck in a scheduling
/// or retry livelock, and the watchdog turns that into a loud
/// [`JobOutcome::Failed`](crate::JobOutcome) instead of a silent
/// never-ending worker.
pub const JOB_TICK_BUDGET: Tick = 3_600_000_000_000_000;

/// Converts a run's [`TestSummary`] into campaign metrics.
pub fn job_metrics(s: &TestSummary) -> JobMetrics {
    let mut m = JobMetrics::new();
    m.set("reads", s.reads_completed as f64);
    m.set("writes", s.writes_completed as f64);
    m.set("dropped", s.dropped as f64);
    m.set("duration_ticks", s.duration as f64);
    m.set("bus_util", s.bus_util);
    m.set("bandwidth_gbps", s.bandwidth_gbps);
    m.set("avg_read_lat_ns", s.read_lat_ns.mean());
    if let Some(p95) = s.read_lat_ns.quantile(0.95) {
        m.set("p95_read_lat_ns", p95 as f64);
    }
    m.set("row_hit_rate", s.ctrl.page_hit_rate());
    m.set("activates", s.ctrl.activates as f64);
    m
}

/// The controller stack one run drives: either model, one channel or
/// several behind a [`MultiChannel`] crossbar, every channel carrying a
/// probe `P`.
///
/// Built once per run by [`Backend::build`]; each method dispatches on
/// the variant once and then runs code monomorphic in the concrete stack.
// One backend lives per run, on the stack: boxing the large event
// controller would cost an allocation per job to save a memcpy.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Backend<P: Probe = NoProbe> {
    /// One event-based controller.
    Event(DramCtrl<P>),
    /// One cycle-based controller.
    Cycle(CycleCtrl<P>),
    /// Several event-based channels behind a crossbar.
    EventChannels(MultiChannel<DramCtrl<P>>),
    /// Several cycle-based channels behind a crossbar.
    CycleChannels(MultiChannel<CycleCtrl<P>>),
}

/// Runs `$body` with `$c` bound to whichever controller stack the
/// backend holds, monomorphised per variant.
macro_rules! each {
    ($backend:expr, $c:ident => $body:expr) => {
        match $backend {
            Backend::Event($c) => $body,
            Backend::Cycle($c) => $body,
            Backend::EventChannels($c) => $body,
            Backend::CycleChannels($c) => $body,
        }
    };
}

/// When a driven run snapshots and pauses. Snapshots and pauses happen
/// only at request boundaries, the legal checkpoints of every model,
/// channel count and RAS configuration.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Fingerprint stamped into every snapshot (see [`Backend::resume`]).
    pub fp: u64,
    /// Snapshot every `every` injected requests (`0`: never).
    pub every: u64,
    /// Pause at the first request boundary at or past this many
    /// injections — unless every request of the run is already injected,
    /// when only the drain is left and a pause would buy nothing.
    pub pause_after: Option<u64>,
    /// Requests the run's generator yields in total.
    pub requests: u64,
}

/// How a [`Backend::drive`] call ended.
// The paused run goes straight back to its owner; boxing it would cost
// an allocation per pause to save a memcpy.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Driven {
    /// The run completed; here is its summary.
    Done(Box<TestSummary>),
    /// The run paused at a request boundary. The live run comes back so
    /// the caller can continue it later or [`snapshot`](Backend::snapshot)
    /// it.
    Paused {
        /// Requests injected so far.
        injected: u64,
        /// The paused run.
        run: TestRun,
    },
}

impl<P: Probe> Backend<P> {
    /// Builds the stack for `model` over `channels` channels — the one
    /// place the model × channel-count decision is made. `event` and
    /// `cycle` build the controller of channel `ch`; several channels are
    /// joined by a zero-latency crossbar interleaving on `mapping`.
    ///
    /// # Errors
    /// The first error a channel constructor returns.
    pub fn build<E>(
        model: Model,
        channels: u32,
        mapping: AddrMapping,
        mut event: impl FnMut(u32) -> Result<DramCtrl<P>, E>,
        mut cycle: impl FnMut(u32) -> Result<CycleCtrl<P>, E>,
    ) -> Result<Self, E> {
        fn xbar<C: Controller, E>(
            ctrls: impl Iterator<Item = Result<C, E>>,
            mapping: AddrMapping,
        ) -> Result<MultiChannel<C>, E> {
            let ctrls = ctrls.collect::<Result<Vec<_>, E>>()?;
            Ok(MultiChannel::new(ctrls, 0)
                .expect("valid crossbar")
                .with_mapping(mapping))
        }
        Ok(match (model, channels) {
            (Model::Event, 0 | 1) => Self::Event(event(0)?),
            (Model::Cycle, 0 | 1) => Self::Cycle(cycle(0)?),
            (Model::Event, n) => Self::EventChannels(xbar((0..n).map(event), mapping)?),
            (Model::Cycle, n) => Self::CycleChannels(xbar((0..n).map(cycle), mapping)?),
        })
    }

    /// Restores `(run, gen, controllers)` — the fixed snapshot component
    /// order — from snapshot bytes written by [`snapshot`](Self::snapshot)
    /// or [`drive`](Self::drive) under the same fingerprint `fp`.
    ///
    /// # Errors
    /// A fingerprint mismatch, a torn or corrupt snapshot, or trailing
    /// bytes after the controller state.
    pub fn resume<G: SnapState>(
        &mut self,
        run: &mut TestRun,
        gen: &mut G,
        bytes: &[u8],
        fp: u64,
    ) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes, fp)?;
        run.restore_state(&mut r)?;
        gen.restore_state(&mut r)?;
        each!(self, c => c.restore_state(&mut r))?;
        if !r.is_exhausted() {
            return Err(SnapError::Corrupt(
                "checkpoint has trailing bytes after the controller state".into(),
            ));
        }
        Ok(())
    }

    /// Snapshot bytes of `(run, gen, controllers)` stamped with `fp` —
    /// what [`resume`](Self::resume) restores.
    pub fn snapshot<G: SnapState>(&self, run: &TestRun, gen: &G, fp: u64) -> Vec<u8> {
        each!(self, c => snapshot_of(fp, run, gen, c))
    }

    /// Drives `run` to completion or to the pause point of `plan`,
    /// handing every periodic snapshot the plan asks for to `save`.
    ///
    /// # Errors
    /// The first error `save` returns.
    pub fn drive<G, E>(
        &mut self,
        run: TestRun,
        gen: &mut G,
        plan: &Plan,
        save: impl FnMut(Vec<u8>) -> Result<(), E>,
    ) -> Result<Driven, E>
    where
        G: TrafficGen + SnapState,
    {
        each!(self, c => drive_loop(c, run, gen, plan, save))
    }

    /// The run's full statistics report: `ctrl.*` for one channel,
    /// `system.*` for a crossbar.
    pub fn report(&self, now: Tick) -> Report {
        match self {
            Self::Event(c) => c.report("ctrl", now),
            Self::Cycle(c) => c.report("ctrl", now),
            Self::EventChannels(x) => x.report("system", now),
            Self::CycleChannels(x) => x.report("system", now),
        }
    }

    /// Activity summary for the power model over `[0, now]`.
    pub fn activity(&mut self, now: Tick) -> ActivityStats {
        each!(self, c => c.activity(now))
    }

    /// Every channel's fault model (empty without RAS).
    pub fn fault_models(&self) -> Vec<&FaultModel> {
        match self {
            Self::Event(c) => c.fault_model().into_iter().collect(),
            Self::Cycle(c) => c.fault_model().into_iter().collect(),
            Self::EventChannels(x) => (0..x.channels() as usize)
                .filter_map(|i| x.channel(i).fault_model())
                .collect(),
            Self::CycleChannels(x) => (0..x.channels() as usize)
                .filter_map(|i| x.channel(i).fault_model())
                .collect(),
        }
    }

    /// Panics with the stall diagnostic if an event controller tripped
    /// its watchdog (the campaign executor records the panic as a failed
    /// job).
    fn assert_no_stall(&self) {
        let check = |c: &DramCtrl<P>| {
            if let Err(stall) = c.check_stall() {
                panic!("{stall}");
            }
        };
        match self {
            Self::Event(c) => check(c),
            Self::EventChannels(x) => (0..x.channels() as usize).for_each(|i| check(x.channel(i))),
            Self::Cycle(_) | Self::CycleChannels(_) => {}
        }
    }

    /// Campaign metrics of a finished run: the summary's figures plus
    /// the RAS counters summed over every channel's fault model.
    fn metrics(&self, s: &TestSummary) -> JobMetrics {
        self.assert_no_stall();
        let mut m = job_metrics(s);
        let fms = self.fault_models();
        if !fms.is_empty() {
            let mut sums = std::collections::BTreeMap::new();
            for fm in fms {
                for (name, v) in fm.stats().entries() {
                    *sums.entry(name).or_insert(0) += v;
                }
            }
            for (name, v) in sums {
                m.set(name, v as f64);
            }
        }
        m
    }

    /// The channel probes, in channel order.
    pub fn into_probes(self) -> Vec<P> {
        match self {
            Self::Event(c) => vec![c.into_probe()],
            Self::Cycle(c) => vec![c.into_probe()],
            Self::EventChannels(x) => x
                .into_parts()
                .0
                .into_iter()
                .map(DramCtrl::into_probe)
                .collect(),
            Self::CycleChannels(x) => x
                .into_parts()
                .0
                .into_iter()
                .map(CycleCtrl::into_probe)
                .collect(),
        }
    }
}

/// Snapshot bytes in the fixed component order: run, generator,
/// controller stack.
fn snapshot_of<C, G>(fp: u64, run: &TestRun, gen: &G, ctrl: &C) -> Vec<u8>
where
    C: SnapState,
    G: SnapState + ?Sized,
{
    let mut w = SnapWriter::new(fp);
    run.save_state(&mut w);
    gen.save_state(&mut w);
    ctrl.save_state(&mut w);
    w.into_bytes()
}

/// The tester loop every run goes through, monomorphic in the
/// controller stack `C` and the generator `G`.
fn drive_loop<C, G, E>(
    ctrl: &mut C,
    mut run: TestRun,
    gen: &mut G,
    plan: &Plan,
    mut save: impl FnMut(Vec<u8>) -> Result<(), E>,
) -> Result<Driven, E>
where
    C: Controller + SnapState,
    G: TrafficGen + SnapState,
{
    while run.step(gen, ctrl, Tick::MAX) {
        let injected = run.injected();
        if plan
            .pause_after
            .is_some_and(|n| injected >= n && injected < plan.requests)
        {
            return Ok(Driven::Paused { injected, run });
        }
        if plan.every > 0 && injected % plan.every == 0 {
            save(snapshot_of(plan.fp, &run, gen, ctrl))?;
        }
    }
    Ok(Driven::Done(Box::new(run.finish(ctrl))))
}

/// The canonical runner for [`run_campaign`](crate::run_campaign):
/// simulates one [`JobSpec`] end to end and returns its metrics.
///
/// Deterministic in the spec: the traffic generator is seeded with
/// `job.seed` and the simulation itself contains no other randomness,
/// so the same spec always yields the same metrics.
///
/// # Panics
/// Panics on an unknown device preset or an invalid configuration —
/// under the campaign executor these become
/// [`JobOutcome::Failed`](crate::JobOutcome) records rather than
/// aborting the sweep.
pub fn run_job(job: &JobSpec) -> JobMetrics {
    run_job_resumable(job, None, 0, None).expect("an unpaused run always completes")
}

/// Fingerprint of a job's full specification — the compatibility guard
/// stamped into job checkpoints, so a snapshot of one job can never be
/// restored into a differently configured simulation.
#[must_use]
pub fn job_fingerprint(job: &JobSpec) -> u64 {
    fingerprint(format!("{job:?}").as_bytes())
}

/// [`run_job`] with deterministic checkpoint/restore.
///
/// When `checkpoint` names a file that exists, the run *resumes* from it
/// (the snapshot must carry [`job_fingerprint`]`(job)` — anything else
/// panics loudly). While running, a snapshot of the tester run, the
/// traffic generator and the controller is written atomically to
/// `checkpoint` every `every` injected requests (`0` disables periodic
/// checkpointing), and — when `pause_after` is `Some(n)` — the run stops
/// at the first request boundary at or past `n` injections (unless every
/// request is already injected), writes a final checkpoint and returns
/// `None`.
///
/// Restoring a checkpoint into a fresh process and running to completion
/// yields metrics byte-identical to an uninterrupted [`run_job`]: request
/// boundaries are legal checkpoints for every model, channel count and
/// RAS configuration.
///
/// # Panics
/// Panics like [`run_job`], and additionally on checkpoint I/O errors or
/// a checkpoint that does not match the job (wrong fingerprint, torn or
/// corrupt state) — under the campaign executor these become failed-job
/// records.
pub fn run_job_resumable(
    job: &JobSpec,
    checkpoint: Option<&Path>,
    every: u64,
    pause_after: Option<u64>,
) -> Option<JobMetrics> {
    match run_job_slice_inner(job, checkpoint, every, pause_after) {
        SliceOutcome::Done(m) => Some(m),
        SliceOutcome::Paused { .. } => None,
    }
}

/// What one bounded slice of a job produced.
///
/// Returned by [`run_job_slice`] and [`Resident::slice`]; `Paused`
/// carries the injection count at the pause point so a preemptive
/// scheduler can set the *next* slice's pause target relative to actual
/// progress (`injected + quantum`) instead of guessing.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceOutcome {
    /// The job ran to completion; here are its metrics.
    Done(JobMetrics),
    /// The job paused at a request boundary.
    Paused {
        /// Requests injected so far (monotonic across slices).
        injected: u64,
    },
}

/// Runs one preemptible slice of `job`: resume from `checkpoint` if it
/// exists, simulate until either the job completes or the first request
/// boundary at or past `pause_after` injections, and checkpoint on pause.
/// A slice that has injected every request runs on to completion rather
/// than pausing before the drain.
///
/// This is [`run_job_resumable`] shaped for a scheduler: the quantum is
/// expressed as an absolute injection target, the pause point reports how
/// far the job actually got, and chaining slices to completion yields
/// metrics byte-identical to an uninterrupted [`run_job`] — preemption is
/// invisible in the results. `pause_after: None` runs to completion
/// (returning `Done`) while still resuming any checkpoint left by an
/// earlier slice.
///
/// # Panics
/// Panics like [`run_job_resumable`].
pub fn run_job_slice(job: &JobSpec, checkpoint: &Path, pause_after: Option<u64>) -> SliceOutcome {
    run_job_slice_inner(job, Some(checkpoint), 0, pause_after)
}

/// The device preset a job names.
fn job_spec(job: &JobSpec) -> MemSpec {
    presets::by_name(&job.device)
        .unwrap_or_else(|| panic!("unknown device preset '{}'", job.device))
}

fn run_job_slice_inner(
    job: &JobSpec,
    checkpoint: Option<&Path>,
    every: u64,
    pause_after: Option<u64>,
) -> SliceOutcome {
    let mut resident = match checkpoint.filter(|p| p.exists()) {
        Some(path) => {
            let bytes = std::fs::read(path)
                .unwrap_or_else(|e| panic!("reading checkpoint {}: {e}", path.display()));
            Resident::resume(job.clone(), &bytes)
                .unwrap_or_else(|e| panic!("restoring checkpoint {}: {e}", path.display()))
        }
        None => Resident::new(job.clone()),
    };
    let mut write = |bytes: Vec<u8>| {
        let path = checkpoint.expect("pausing a run requires a checkpoint path");
        write_atomic(path, bytes)
            .unwrap_or_else(|e| panic!("writing checkpoint {}: {e}", path.display()));
    };
    let every = if checkpoint.is_some() { every } else { 0 };
    let out = resident.drive(every, pause_after, &mut write);
    match out {
        SliceOutcome::Paused { .. } => write(resident.snapshot()),
        SliceOutcome::Done(_) => resident.retire(),
    }
    out
}

/// Unwraps a result that cannot be an error.
fn infallible<T>(r: Result<T, Infallible>) -> T {
    r.unwrap_or_else(|e| match e {})
}

/// The probe every channel of an observed run carries: a Perfetto
/// tracer and an epoch recorder.
pub type ObsProbe = (ChromeTracer, EpochRecorder);

/// A job in flight, held in memory between slices: its controller
/// stack, tester run and traffic generator.
///
/// A preemptive scheduler parks a paused `Resident` and continues it
/// with the next [`slice`](Self::slice) — no snapshot, no restore. A
/// [`snapshot`](Self::snapshot) is taken only when the caller wants the
/// state on disk, and [`resume`](Self::resume) rebuilds a `Resident`
/// from one. Chaining slices, with or without a snapshot/resume round
/// trip in between, yields metrics byte-identical to [`run_job`].
pub struct Resident<P: Probe = NoProbe> {
    job: JobSpec,
    /// [`job_fingerprint`], computed on first use: only durable
    /// snapshots need it.
    fp: Option<u64>,
    backend: Backend<P>,
    gen: Box<dyn SnapGen>,
    /// The tester run; `None` once the job has finished.
    run: Option<TestRun>,
    /// Simulated end of the finished run.
    end: Tick,
}

impl<P: Probe> std::fmt::Debug for Resident<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resident")
            .field("job", &self.job.label())
            .field("injected", &self.injected())
            .finish_non_exhaustive()
    }
}

impl<P: Probe> Resident<P> {
    /// The stack for `job`, each channel carrying `probe(ch)`. `event`
    /// turns a channel's configuration into its controller, so the
    /// plain path can take a worker's cached one.
    fn build(
        job: JobSpec,
        probe: impl Fn(u32) -> P,
        mut event: impl FnMut(CtrlConfig, u32) -> DramCtrl<P>,
    ) -> Self {
        let spec = job_spec(&job);
        let ras = ras_for_job(&job);
        let ch_total = job.channels.max(1);
        let backend = infallible(Backend::build(
            job.model,
            job.channels,
            job.mapping,
            |ch| {
                let mut cfg = ev_cfg(spec.clone(), job.policy, job.sched, job.mapping, ch_total);
                cfg.ras = ras.clone();
                let mut ctrl = event(cfg, ch);
                ctrl.set_tick_budget(Some(JOB_TICK_BUDGET));
                Ok(ctrl)
            },
            |ch| {
                let mut cfg = cy_cfg(spec.clone(), job.policy, job.sched, job.mapping, ch_total);
                cfg.ras = ras.clone();
                Ok(CycleCtrl::with_probe(cfg, probe(ch)).expect("valid config"))
            },
        ));
        Self {
            gen: gen_for_job(&job, &spec),
            job,
            fp: None,
            backend,
            run: Some(std_tester().begin()),
            end: 0,
        }
    }

    /// Requests injected so far.
    pub fn injected(&self) -> u64 {
        self.run
            .as_ref()
            .map_or(self.job.requests, TestRun::injected)
    }

    /// Runs until the job completes or the first request boundary at or
    /// past `pause_after` injections (see [`Plan::pause_after`]), handing
    /// a snapshot to `save` every `every` injections (`0`: never).
    ///
    /// Only this crate instantiates it: the public `slice` methods are
    /// concrete per probe type, so a caller in another crate does not
    /// compile its own copy of the tester loop.
    fn drive(
        &mut self,
        every: u64,
        pause_after: Option<u64>,
        save: &mut dyn FnMut(Vec<u8>),
    ) -> SliceOutcome {
        let plan = Plan {
            fp: if every > 0 { self.fingerprint() } else { 0 },
            every,
            pause_after,
            requests: self.job.requests,
        };
        let run = self.run.take().expect("slicing a finished job");
        let save = |bytes| {
            save(bytes);
            Ok::<(), Infallible>(())
        };
        match infallible(self.backend.drive(run, &mut self.gen, &plan, save)) {
            Driven::Paused { injected, run } => {
                self.run = Some(run);
                SliceOutcome::Paused { injected }
            }
            Driven::Done(s) => {
                self.end = s.duration;
                SliceOutcome::Done(self.backend.metrics(&s))
            }
        }
    }

    fn fingerprint(&mut self) -> u64 {
        *self.fp.get_or_insert_with(|| job_fingerprint(&self.job))
    }
}

impl Resident {
    /// A fresh, unobserved run of `job`. A single-channel event job takes
    /// the worker thread's cached controller (see
    /// [`retire`](Self::retire)) instead of rebuilding queues and arenas
    /// — the campaign hot path.
    ///
    /// # Panics
    /// On an unknown device preset or an invalid configuration.
    pub fn new(job: JobSpec) -> Self {
        let single = job.channels <= 1;
        Self::build(
            job,
            |_| NoProbe,
            |cfg, _| {
                if single {
                    cached_ev_ctrl(cfg)
                } else {
                    DramCtrl::new(cfg).expect("valid config")
                }
            },
        )
    }

    /// Rebuilds a paused run of `job` from [`snapshot`](Self::snapshot)
    /// bytes.
    ///
    /// # Errors
    /// A snapshot of another job, or a torn or corrupt one.
    ///
    /// # Panics
    /// Like [`new`](Self::new).
    pub fn resume(job: JobSpec, bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = Self::new(job);
        let fp = r.fingerprint();
        let run = r.run.as_mut().expect("a fresh run");
        r.backend.resume(run, &mut r.gen, bytes, fp)?;
        Ok(r)
    }

    /// Runs until the job completes or the first request boundary at or
    /// past `pause_after` injections (see [`Plan::pause_after`]). A
    /// paused resident continues with the next call.
    ///
    /// # Panics
    /// If the job has already finished, or on a controller stall.
    pub fn slice(&mut self, pause_after: Option<u64>) -> SliceOutcome {
        self.drive(0, pause_after, &mut |_| {})
    }

    /// Snapshot bytes of the paused job — run, generator, controllers,
    /// stamped with [`job_fingerprint`] — byte-identical to the
    /// checkpoint [`run_job_slice`] writes at the same pause point.
    ///
    /// # Panics
    /// If the job has already finished.
    pub fn snapshot(&mut self) -> Vec<u8> {
        let fp = self.fingerprint();
        let run = self.run.as_ref().expect("snapshotting a finished job");
        self.backend.snapshot(run, &self.gen, fp)
    }

    /// Drops the resident, retiring a single-channel event controller
    /// into the worker thread's cache for the next job.
    pub fn retire(self) {
        if let Backend::Event(ctrl) = self.backend {
            retire_ev_ctrl(ctrl);
        }
    }
}

impl Resident<ObsProbe> {
    /// A fresh run of `job` with every channel observed: a
    /// [`ChromeTracer`] and an [`EpochRecorder`] binning at
    /// `epoch_interval` ticks.
    ///
    /// # Panics
    /// On an unknown device preset or an invalid configuration.
    pub fn observed(job: JobSpec, epoch_interval: Tick) -> Self {
        let probe = |ch: u32| {
            (
                ChromeTracer::for_channel(ch),
                EpochRecorder::new(epoch_interval),
            )
        };
        Self::build(job, probe, |cfg, ch| {
            DramCtrl::with_probe(cfg, probe(ch)).expect("valid config")
        })
    }

    /// [`Resident::slice`] for an observed run.
    ///
    /// # Panics
    /// If the job has already finished, or on a controller stall.
    pub fn slice(&mut self, pause_after: Option<u64>) -> SliceOutcome {
        self.drive(0, pause_after, &mut |_| {})
    }

    /// The rendered artifacts of a finished observed run.
    ///
    /// # Panics
    /// If the job has not finished.
    pub fn artifacts(self) -> JobArtifacts {
        assert!(self.run.is_none(), "artifacts of an unfinished job");
        let report = self.backend.report(self.end);
        let mut merged = None;
        let mut tracers = Vec::new();
        for (tracer, mut epochs) in self.backend.into_probes() {
            epochs.finish(self.end);
            merged
                .get_or_insert_with(|| EpochRecorder::new(epochs.interval()))
                .absorb(&epochs);
            tracers.push(tracer);
        }
        let merged = merged.expect("every stack has a channel");
        JobArtifacts {
            perfetto_json: ChromeTracer::combined_json(&tracers),
            epochs_csv: merged.to_csv(),
            epochs_jsonl: merged.to_jsonl(),
            stats_json: report.to_json(),
        }
    }
}

/// Observability artifacts produced by [`run_job_observed`], ready to be
/// written next to the campaign report.
#[derive(Debug, Clone)]
pub struct JobArtifacts {
    /// Chrome trace-event JSON of every DRAM command, request flow and
    /// power-state residency (all channels merged; load at
    /// <https://ui.perfetto.dev>).
    pub perfetto_json: String,
    /// Epoch time-series CSV (per-channel recorders summed per epoch).
    pub epochs_csv: String,
    /// The same epoch series as JSON lines — the streaming form the
    /// simulation service forwards to clients record by record.
    pub epochs_jsonl: String,
    /// Stable machine-readable statistics report
    /// ([`Report::to_json`]).
    pub stats_json: String,
}

/// [`run_job`] with live instrumentation: every channel carries a
/// [`ChromeTracer`] and an [`EpochRecorder`] binning at `epoch_interval`
/// ticks, and the returned metrics come with the rendered artifacts.
///
/// The probes are pure observers, so the metrics are identical to an
/// unobserved [`run_job`] of the same spec — the zero-perturbation
/// property the differential harness asserts controller-by-controller.
pub fn run_job_observed(job: &JobSpec, epoch_interval: Tick) -> (JobMetrics, JobArtifacts) {
    let mut r = Resident::observed(job.clone(), epoch_interval);
    let SliceOutcome::Done(m) = r.slice(None) else {
        unreachable!("an unpaused run always completes")
    };
    (m, r.artifacts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Campaign;

    #[test]
    fn run_job_is_deterministic() {
        let jobs = Campaign::new("det", 77)
            .traffic([TrafficPattern::DramAware {
                stride: 4,
                banks: 8,
            }])
            .read_pcts([50])
            .requests([500])
            .expand();
        assert_eq!(run_job(&jobs[0]), run_job(&jobs[0]));
    }

    #[test]
    fn run_job_covers_models_and_channels() {
        let jobs = Campaign::new("cov", 3)
            .models([Model::Event, Model::Cycle])
            .channels([1, 2])
            .requests([300])
            .expand();
        for job in &jobs {
            let m = run_job(job);
            assert_eq!(m.get("reads"), Some(300.0), "{}", job.label());
            assert!(m.get("bus_util").unwrap() > 0.0);
        }
    }

    #[test]
    fn observed_run_matches_plain_run_and_renders_artifacts() {
        let jobs = Campaign::new("obs", 9)
            .models([Model::Event, Model::Cycle])
            .channels([1, 2])
            .requests([300])
            .expand();
        for job in &jobs {
            let (m, art) = run_job_observed(job, 1_000_000);
            // Zero perturbation all the way up: observed metrics equal the
            // unobserved run's bit for bit.
            assert_eq!(m, run_job(job), "{}", job.label());
            dramctrl_obs::json::validate(&art.perfetto_json).expect("loadable trace");
            assert!(art.perfetto_json.contains("\"ACT\""), "{}", job.label());
            assert!(art.epochs_csv.lines().count() > 1, "{}", job.label());
            dramctrl_obs::json::validate(&art.stats_json).expect("valid stats JSON");
        }
    }

    #[test]
    fn faulty_jobs_complete_with_ras_metrics_on_both_models() {
        let jobs = Campaign::new("ras", 21)
            .models([Model::Event, Model::Cycle])
            .channels([1, 2])
            .read_pcts([70])
            .requests([400])
            .error_rates([2e11])
            .expand();
        for job in &jobs {
            let m = run_job(job);
            assert_eq!(
                m.get("reads").unwrap() + m.get("writes").unwrap() + m.get("dropped").unwrap(),
                400.0,
                "{}",
                job.label()
            );
            assert!(
                m.get("ras_corrected").unwrap() + m.get("ras_transient_faults").unwrap() >= 0.0,
                "RAS counters missing: {}",
                job.label()
            );
            // Silent events can only be the multi-symbol syndrome alias.
            assert!(
                m.get("ras_silent").unwrap() <= m.get("ras_rank_failures").unwrap(),
                "single-symbol fault escaped SEC-DED: {}",
                job.label()
            );
            // Determinism across repeated runs, RAS counters included.
            assert_eq!(m, run_job(job), "{}", job.label());
        }
        // Fault-free jobs carry no ras_* metrics at all.
        let mut clean = jobs[0].clone();
        clean.error_rate = 0.0;
        assert_eq!(run_job(&clean).get("ras_corrected"), None);
    }

    #[test]
    fn controller_reuse_is_invisible_in_metrics() {
        // Alternating specs on one thread exercises both cache paths —
        // config-match reset and config-change rebuild — and every run
        // must match a cache-cold run of the same job on a fresh thread.
        let jobs = Campaign::new("reuse", 5)
            .read_pcts([30, 80])
            .requests([200, 500])
            .expand();
        let warm: Vec<JobMetrics> = jobs.iter().chain(jobs.iter()).map(run_job).collect();
        for (job, m) in jobs.iter().chain(jobs.iter()).zip(&warm) {
            let cold = std::thread::scope(|s| s.spawn(|| run_job(job)).join().unwrap());
            assert_eq!(m, &cold, "{}", job.label());
        }
    }

    #[test]
    fn a_slice_never_pauses_once_every_request_is_injected() {
        let dir = std::env::temp_dir().join(format!("dramctrl-last-pause-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("job.snap");
        let _ = std::fs::remove_file(&snap);
        let jobs = Campaign::new("chain", 13).requests([3_000]).expand();
        // Chained at targets 1 000, 2 000, 3 000: the third slice has
        // injected the last request at its target and drains instead of
        // pausing, so the job pauses twice, not three times.
        let mut pauses = 0;
        let mut target = 1_000;
        let m = loop {
            match run_job_slice(&jobs[0], &snap, Some(target)) {
                SliceOutcome::Paused { injected } => {
                    assert_eq!(injected, target);
                    pauses += 1;
                    target += 1_000;
                }
                SliceOutcome::Done(m) => break m,
            }
        };
        assert_eq!(pauses, 2);
        assert_eq!(m, run_job(&jobs[0]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resident_snapshots_equal_the_checkpoints_chained_slices_write() {
        let dir = std::env::temp_dir().join(format!("dramctrl-resident-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("job.snap");
        let _ = std::fs::remove_file(&snap);
        let jobs = Campaign::new("resident", 17)
            .channels([1, 2])
            .requests([3_000])
            .expand();
        for job in &jobs {
            // One resident run paused at the same targets as a chain of
            // disk-checkpointed slices: every snapshot must match the
            // checkpoint bytes, and both must finish like run_job.
            let mut resident = Resident::new(job.clone());
            let mut target = 1_000;
            let (m, chained) = loop {
                let chained = run_job_slice(job, &snap, Some(target));
                match resident.slice(Some(target)) {
                    SliceOutcome::Paused { injected } => {
                        assert_eq!(chained, SliceOutcome::Paused { injected });
                        assert_eq!(resident.injected(), injected);
                        assert_eq!(resident.snapshot(), std::fs::read(&snap).unwrap());
                        target = injected + 1_000;
                    }
                    SliceOutcome::Done(m) => break (m, chained),
                }
            };
            assert_eq!(chained, SliceOutcome::Done(m.clone()), "{}", job.label());
            assert_eq!(m, run_job(job), "{}", job.label());
            std::fs::remove_file(&snap).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_resumed_resident_finishes_like_an_uninterrupted_run() {
        let jobs = Campaign::new("resume", 23)
            .models([Model::Event, Model::Cycle])
            .requests([2_000])
            .error_rates([0.0, 2e11])
            .expand();
        for job in &jobs {
            let mut first = Resident::new(job.clone());
            assert_eq!(
                first.slice(Some(700)),
                SliceOutcome::Paused { injected: 700 }
            );
            let mut resumed = Resident::resume(job.clone(), &first.snapshot()).unwrap();
            assert_eq!(resumed.injected(), 700);
            assert_eq!(
                resumed.slice(None),
                SliceOutcome::Done(run_job(job)),
                "{}",
                job.label()
            );
            // A snapshot never restores into another job.
            let mut other = job.clone();
            other.seed ^= 1;
            assert!(Resident::resume(other, &first.snapshot()).is_err());
        }
    }

    #[test]
    fn a_sliced_observed_run_matches_the_whole_observed_run() {
        let jobs = Campaign::new("obs-slice", 9)
            .channels([1, 2])
            .requests([1_500])
            .expand();
        for job in &jobs {
            let (want_m, want) = run_job_observed(job, 100_000);
            let mut r = Resident::observed(job.clone(), 100_000);
            let mut target = 400;
            let m = loop {
                match r.slice(Some(target)) {
                    SliceOutcome::Paused { injected } => target = injected + 400,
                    SliceOutcome::Done(m) => break m,
                }
            };
            let got = r.artifacts();
            assert_eq!(m, want_m, "{}", job.label());
            assert_eq!(got.stats_json, want.stats_json, "{}", job.label());
            assert_eq!(got.epochs_jsonl, want.epochs_jsonl, "{}", job.label());
            assert_eq!(got.perfetto_json, want.perfetto_json, "{}", job.label());
        }
    }

    #[test]
    #[should_panic(expected = "unknown device preset")]
    fn unknown_device_panics() {
        let mut jobs = Campaign::new("bad", 1).requests([10]).expand();
        jobs[0].device = "SDRAM-66-x16".to_owned();
        let _ = run_job(&jobs[0]);
    }
}
