//! The untraced run: trials of every user-facing path, repeated until
//! the run's time is spent; each end-to-end metric is the median over
//! the run's trials. Every timed path is bracketed by a calibration and
//! its time rescaled to the reference host speed (see [`crate::calib`]).

use crate::calib::Clock;
use crate::paths::{gate, Ctx};
use crate::Samples;
use std::time::{Duration, Instant};

/// Extra spawn-until-hello samples taken before the first trial, so
/// `setup_s` rests on more samples than there are trials.
const EXTRA_SETUPS: usize = 10;

/// Runs trials until `deadline` (at least one), adding every sample to
/// `samples`. Returns the sweep_1w reports, the reference every other
/// path is gated against.
pub fn run(
    ctx: &Ctx,
    deadline: Instant,
    samples: &mut Samples,
    attempted: &mut u64,
    clock: &mut Clock,
) -> Result<Vec<String>, String> {
    for i in 0..EXTRA_SETUPS {
        let dir = format!("w{i}");
        ctx.work.mkdir(&dir)?;
        ctx.work.settle()?;
        let (daemons, took) = ctx.spawn_daemons(&format!("{dir}/w"), false)?;
        drop(daemons);
        samples.add("setup_s", took.as_secs_f64() * clock.factor());
        ctx.work.remove(&dir)?;
    }
    crate::trials(deadline, |t, reference| {
        one_trial(ctx, t, reference, samples, attempted, clock)
    })
}

fn one_trial(
    ctx: &Ctx,
    t: usize,
    reference: Option<&[String]>,
    samples: &mut Samples,
    attempted: &mut u64,
    clock: &mut Clock,
) -> Result<Vec<String>, String> {
    let jobs = ctx.jobs();
    let dir = format!("t{t}");
    let mut log = Vec::new();
    ctx.work.mkdir(&dir)?;
    ctx.work.settle()?;
    let (took, one) = ctx.sweep(&format!("{dir}/s1"), 1, false, false)?;
    let f = clock.factor();
    *attempted += jobs;
    // Every trial's sweep_1w must repeat the first one's bytes.
    let reference = reference.unwrap_or(&one);
    gate("sweep_1w", reference, &one)?;
    record(samples, &mut log, "sweep_1w_s", took, f, clock.stolen);

    ctx.work.settle()?;
    let (took, reports) = ctx.sweep(&format!("{dir}/sn"), ctx.workers, false, false)?;
    let f = clock.factor();
    *attempted += jobs;
    gate("sweep_nw", reference, &reports)?;
    record(samples, &mut log, "sweep_nw_s", took, f, clock.stolen);

    ctx.work.settle()?;
    let (took, reports) = ctx.sweep(&format!("{dir}/sj"), ctx.workers, true, false)?;
    let f = clock.factor();
    *attempted += jobs;
    gate("sweep_journal", reference, &reports)?;
    record(samples, &mut log, "sweep_journal_s", took, f, clock.stolen);

    ctx.work.settle()?;
    let (daemons, took) = ctx.spawn_daemons(&format!("{dir}/t"), false)?;
    let f = clock.factor();
    record(samples, &mut log, "setup_s", took, f, clock.stolen);

    ctx.work.settle()?;
    let watched = ctx.daemon_jobs(&daemons[0])?;
    let f = clock.factor();
    *attempted += jobs;
    let reports: Vec<String> = watched.iter().map(|w| w.report.clone()).collect();
    gate("daemon watch", reference, &reports)?;
    // One sample per trial: the mean over the tenants' jobs. The two
    // mixed-rw tenants differ systematically, and a median over both
    // would sit in the gap between them.
    let tenants = watched.len() as u32;
    let done = watched.iter().map(|w| w.done).sum::<Duration>() / tenants;
    let first = watched.iter().map(|w| w.first_record).sum::<Duration>() / tenants;
    record(samples, &mut log, "daemon_job_s", done, f, clock.stolen);
    record(
        samples,
        &mut log,
        "daemon_first_record_s",
        first,
        f,
        clock.stolen,
    );
    let hwm = daemons[0]
        .vm_hwm_kb()
        .ok_or("reading the daemon's VmHWM from /proc")?;
    samples.add("daemon_rss_mb", hwm as f64 / 1024.0);

    ctx.work.settle()?;
    let fleet = ctx.dispatch(&format!("{dir}/f"), [&daemons[1], &daemons[2]])?;
    let f = clock.factor();
    *attempted += jobs;
    gate("dispatch", reference, &fleet.reports)?;
    record(
        samples,
        &mut log,
        "fleet_job_s",
        fleet.took,
        f,
        clock.stolen,
    );
    eprintln!("perfbench: trial {t}: {}", log.join(" "));
    drop(daemons);
    ctx.work.remove(&dir)?;
    Ok(one)
}

/// Adds a path's time, rescaled by `f`, to `samples`, and notes it in
/// the trial's log line as `name=rescaled/raw/stolen`, `stolen` being
/// the share of the path's wanted CPU time the hypervisor took.
fn record(
    samples: &mut Samples,
    log: &mut Vec<String>,
    name: &'static str,
    took: Duration,
    f: f64,
    stolen: f64,
) {
    let raw = took.as_secs_f64();
    samples.add(name, raw * f);
    log.push(format!("{name}={:.4}/{raw:.4}/{stolen:.3}", raw * f));
}
