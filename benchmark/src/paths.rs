//! The user-facing paths of the shipped `dramctrl` binary, each driven
//! the way a user drives it and each returning its JSONL reports (one
//! per campaign of the workload) for the correctness gate.

use crate::procs::{run_timed, Daemon, Work};
use crate::workload::Workload;
use dramctrl_serve::wire::Value;
use dramctrl_serve::{record_data, Client};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Per-read deadline on daemon connections: a wedged daemon fails the
/// run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a daemon may take to answer its first `hello`.
const READY_TIMEOUT: Duration = Duration::from_secs(10);

/// What a run needs to drive one workload through `dramctrl`.
#[derive(Debug)]
pub struct Ctx {
    pub bin: PathBuf,
    pub work: Work,
    pub wl: Workload,
    pub seed: u64,
    /// `available_parallelism`: the N of `sweep --workers N`.
    pub workers: usize,
}

impl Ctx {
    /// Jobs in one pass over the workload's campaigns.
    pub fn jobs(&self) -> u64 {
        self.wl
            .defs
            .iter()
            .map(|d| d.campaign(self.seed).len() as u64)
            .sum()
    }

    fn read(&self, path: &Path) -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
    }

    /// `dramctrl sweep` over every campaign, one process each; returns
    /// the summed process wall time and the reports. `journal` adds
    /// `--journal DIR` (fsync'd commits) and `metrics` adds
    /// `--metrics-json FILE`.
    pub fn sweep(
        &self,
        tag: &str,
        workers: usize,
        journal: bool,
        metrics: bool,
    ) -> Result<(Duration, Vec<String>), String> {
        let mut took = Duration::ZERO;
        let mut reports = Vec::new();
        for (i, def) in self.wl.defs.iter().enumerate() {
            let out = self.work.path(&format!("{tag}-{i}.jsonl"));
            let mut args = vec!["sweep".to_owned()];
            args.extend(def.flags(self.seed));
            args.extend([
                "--workers".to_owned(),
                workers.to_string(),
                "--quiet".to_owned(),
                "--jsonl".to_owned(),
                out.display().to_string(),
            ]);
            if journal {
                let dir = self.work.path(&format!("{tag}-{i}.journal"));
                args.extend(["--journal".to_owned(), format!("{}/", dir.display())]);
            }
            if metrics {
                let m = self.work.path(&format!("{tag}-{i}.metrics.json"));
                args.extend(["--metrics-json".to_owned(), m.display().to_string()]);
            }
            took += run_timed(
                &self.bin,
                &args,
                &self.work.path(&format!("{tag}-{i}.stderr")),
            )?;
            reports.push(self.read(&out)?);
        }
        Ok((took, reports))
    }

    /// `dramctrl dispatch --peer A --peer B --json` over every campaign,
    /// one coordinator process each, timed by this process's clock.
    /// Returns the wall time, the reports, and per campaign the shard
    /// journal directory and the `--json` event log.
    pub fn dispatch(&self, tag: &str, peers: [&Daemon; 2]) -> Result<Fleet, String> {
        let mut fleet = Fleet::default();
        for (i, def) in self.wl.defs.iter().enumerate() {
            let out = self.work.path(&format!("{tag}-{i}.jsonl"));
            let workdir = self.work.path(&format!("{tag}-{i}.shards"));
            let events = self.work.path(&format!("{tag}-{i}.events"));
            let mut args = vec!["dispatch".to_owned()];
            args.extend(def.flags(self.seed));
            for p in peers {
                args.extend(["--peer".to_owned(), p.addr.clone()]);
            }
            args.extend([
                "--json".to_owned(),
                "--workdir".to_owned(),
                workdir.display().to_string(),
                "--jsonl".to_owned(),
                out.display().to_string(),
            ]);
            fleet.took += run_timed(&self.bin, &args, &events)?;
            fleet.reports.push(self.read(&out)?);
            fleet.workdirs.push(workdir);
            fleet.events.push(self.read(&events)?);
        }
        Ok(fleet)
    }

    /// Spawns the three daemons of a trial (one for the daemon path, two
    /// for the fleet; the first serves `--http` when `http` is set) and
    /// waits until each answers `hello`. Returns them and that wait.
    pub fn spawn_daemons(&self, tag: &str, http: bool) -> Result<(Vec<Daemon>, Duration), String> {
        let start = Instant::now();
        let mut daemons = (0..3)
            .map(|i| {
                Daemon::spawn(
                    &self.bin,
                    &self.work,
                    &format!("{tag}-d{i}"),
                    http && i == 0,
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("spawning a daemon: {e}"))?;
        for d in &mut daemons {
            d.wait_ready(READY_TIMEOUT)?;
        }
        Ok((daemons, start.elapsed()))
    }

    /// Every campaign submitted to `daemon` at once, one tenant and one
    /// client connection per campaign, each watched to its `done` event.
    pub fn daemon_jobs(&self, daemon: &Daemon) -> Result<Vec<Watched>, String> {
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .wl
                .defs
                .iter()
                .map(|def| {
                    let (addr, campaign) = (daemon.addr.as_str(), def.campaign(self.seed));
                    s.spawn(move || watch_job(addr, def.tenant, &campaign))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect::<Result<Vec<_>, String>>()
        })
        .map_err(|e| {
            format!(
                "{e}\ndaemon stderr:\n{}",
                crate::procs::tail(&daemon.stderr, 20)
            )
        })
    }
}

/// One fleet pass: see [`Ctx::dispatch`].
#[derive(Debug, Default)]
pub struct Fleet {
    pub took: Duration,
    pub reports: Vec<String>,
    pub workdirs: Vec<PathBuf>,
    pub events: Vec<String>,
}

impl Fleet {
    /// Lines of the `--json` event logs whose `msg` is `msg`.
    pub fn count(&self, msg: &str) -> usize {
        let needle = format!("\"msg\":\"{msg}\"");
        self.events
            .iter()
            .flat_map(|e| e.lines())
            .filter(|l| l.contains(&needle))
            .count()
    }

    /// Shards per campaign, summed, from the `campaign partitioned`
    /// events.
    pub fn shards(&self) -> usize {
        self.events
            .iter()
            .flat_map(|e| e.lines())
            .filter(|l| l.contains("\"msg\":\"campaign partitioned\""))
            .filter_map(|l| Value::parse(l).ok())
            .filter_map(|v| v.get("shards")?.as_str()?.parse::<usize>().ok())
            .sum()
    }
}

/// A job submitted to a daemon and watched to completion.
#[derive(Debug)]
pub struct Watched {
    /// `Client::submit` round trip.
    pub submit: Duration,
    /// From submit to the first streamed `record`.
    pub first_record: Duration,
    /// From submit to the `done` event.
    pub done: Duration,
    /// Arrival times (from submit) of every `record` event.
    pub arrivals: Vec<Duration>,
    /// The watched records in campaign order: what `watch --jsonl`
    /// writes.
    pub report: String,
}

fn watch_job(
    addr: &str,
    tenant: &str,
    campaign: &dramctrl_campaign::Campaign,
) -> Result<Watched, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    client
        .set_io_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("arming the client deadline: {e}"))?;
    let start = Instant::now();
    let (id, total) = client
        .submit(tenant, 0, campaign)
        .map_err(|e| format!("submit ({tenant}): {e}"))?;
    let submit = start.elapsed();
    let mut records = BTreeMap::new();
    let mut arrivals = Vec::with_capacity(total);
    let summary = client
        .watch(&id, |v, line| {
            if v.get("event").and_then(Value::as_str) == Some("record") {
                arrivals.push(start.elapsed());
                let index = v.get("index").and_then(Value::as_u64).unwrap_or(u64::MAX);
                if let Some(data) = record_data(line) {
                    records.insert(index, data.to_owned());
                }
            }
        })
        .map_err(|e| format!("watch {id} ({tenant}): {e}"))?;
    let done = start.elapsed();
    if summary.failed > 0 || summary.ok != total || records.len() != total {
        return Err(format!(
            "job {id} ({tenant}): {} ok, {} failed, {} records of {total}",
            summary.ok,
            summary.failed,
            records.len()
        ));
    }
    Ok(Watched {
        submit,
        first_record: *arrivals.first().ok_or("a job streamed no record")?,
        done,
        arrivals,
        report: records.into_values().map(|l| l + "\n").collect(),
    })
}

/// The correctness gate: `got` must be byte-identical to the reference
/// reports. Names the first differing line otherwise.
pub fn gate(path: &str, reference: &[String], got: &[String]) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err(format!(
            "{path}: {} reports, the reference has {}",
            got.len(),
            reference.len()
        ));
    }
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        if r == g {
            continue;
        }
        let line = r
            .lines()
            .zip(g.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| r.lines().count().min(g.lines().count()));
        return Err(format!(
            "{path}: report of campaign {i} differs from sweep_1w at line {} \
             ({} vs {} bytes)",
            line + 1,
            g.len(),
            r.len()
        ));
    }
    Ok(())
}
