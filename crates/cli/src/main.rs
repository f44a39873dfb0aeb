//! `dramctrl` — command-line front end to the simulator family.
//!
//! ```text
//! dramctrl devices
//! dramctrl run --device ddr3-1600 --gen random --reads 70 --requests 100000
//! dramctrl record --gen linear --requests 10000 -o trace.txt
//! dramctrl replay trace.txt --device lpddr3 --policy closed
//! dramctrl sweep --policies open,closed --reads 0,50,100 --jsonl report.jsonl
//! ```

mod args;

use args::{
    parse_device, parse_duration, parse_ecc, parse_mapping, parse_policy, parse_ras_rate,
    parse_sched, parse_size, ArgError, Args,
};
use dramctrl::{CtrlConfig, DramCtrl, FaultModel, RasConfig};
use dramctrl_campaign::runner::{cy_cfg, ev_cfg, Backend, Driven, Plan};
use dramctrl_campaign::Model;
use dramctrl_cycle::CycleCtrl;
use dramctrl_kernel::fsio::write_atomic;
use dramctrl_kernel::snap::{fingerprint, SnapState};
use dramctrl_kernel::Tick;
use dramctrl_mem::{presets, MemSpec};
use dramctrl_obs::{ChromeTracer, EpochRecorder, Probe};
use dramctrl_power::{drampower_energy, micron_power};
use dramctrl_stats::Report;
use dramctrl_traffic::{
    DramAwareGen, LinearGen, RandomGen, SnapGen, TestSummary, Tester, TraceEntry, TraceGen,
    TrafficGen,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
dramctrl — event-based DRAM controller simulator (ISPASS 2014 reproduction)

USAGE:
    dramctrl devices                          list device presets
    dramctrl run [OPTIONS]                    run a synthetic workload
    dramctrl record [OPTIONS] -o FILE         write a request trace file
                                              (alias: trace-record)
    dramctrl replay FILE [OPTIONS]            replay a trace file
    dramctrl sweep [OPTIONS]                  run a parallel parameter-sweep campaign
    dramctrl serve --listen ADDR --store DIR  run the always-up simulation service
    dramctrl submit --to ADDR [AXES]          submit a sweep to a running service
    dramctrl watch ID --to ADDR [OPTIONS]     stream a submitted job's results
    dramctrl status --to ADDR                 show a service's job table
    dramctrl dispatch --peer ADDR... [AXES]   fan a sweep out to a daemon fleet,
                                              surviving dead/slow/lying peers
    dramctrl version                          print crate/protocol/format versions

RUN / RECORD OPTIONS:
    --device NAME        device preset (default ddr3-1600-x64)
    --model event|cycle  controller model (default event)
    --gen linear|random|dram-aware   traffic pattern (default linear)
    --reads PCT          read percentage 0..100 (default 100)
    --requests N         number of requests (default 100000)
    --period DUR         inter-transaction time, e.g. 10ns (default 0 = saturate)
    --range SIZE         address range, e.g. 256MiB (default 256MiB)
    --block SIZE         request size in bytes (default 64)
    --stride N           dram-aware: sequential bursts per row (default 8)
    --banks N            dram-aware: banks targeted (default 4)
    --policy P           open|open-adaptive|closed|closed-adaptive (default open)
    --sched S            fcfs|frfcfs (default frfcfs)
    --mapping M          RoRaBaCoCh|RoRaBaChCo|RoCoRaBaCh (default RoRaBaCoCh)
    --seed N             RNG seed (default 1)
    --powerdown DUR      enable power-down after this idle time
    --energy             also print the DRAMPower-style energy breakdown

RAS OPTIONS (run and replay; faults are seeded and deterministic):
    --ras RATE           inject faults at RATE transient upsets per
                         gigabit-hour (e.g. 2e11); derived stuck-row,
                         rank-failure and link-error rates scale with it
    --ecc MODE           none|secded|chipkill (default secded;
                         requires --ras)

CHECKPOINT OPTIONS (run; snapshots are deterministic — resuming in a
fresh process is byte-identical to never having stopped):
    --checkpoint FILE    write a state snapshot to FILE and stop once
                         --checkpoint-at requests have been injected
    --checkpoint-at N    injection count at which to pause (requires
                         --checkpoint)
    --restore FILE       resume a run from a snapshot; the command line
                         must describe the same simulation that wrote it
                         (a mismatch is refused)

OBSERVABILITY OPTIONS (run and replay):
    --perfetto FILE      write a Chrome/Perfetto trace of every DRAM command
                         (open the file at https://ui.perfetto.dev)
    --epochs DUR         record an epoch time-series at this interval
                         (e.g. 1us; written to --epochs-out)
    --epochs-out FILE    epoch output path; .jsonl writes JSON lines,
                         anything else CSV (default epochs.csv)
    --stats-json FILE    write the full statistics report as JSON

SWEEP OPTIONS (comma-separated lists become campaign axes; their
Cartesian product runs in parallel with per-job deterministic seeds):
    --devices A,B        device presets (default ddr3-1333-x64)
    --models L           event,cycle (default event)
    --policies L         page policies (default open)
    --scheds L           schedulers (default frfcfs)
    --mappings L         address mappings (default RoRaBaCoCh)
    --channels L         channel counts (default 1)
    --gens L             linear,random,dram-aware (default linear)
    --reads L            read percentages (default 100)
    --requests L         request counts (default 10000)
    --range SIZE         linear/random address range (default 256MiB)
    --block N            request size in bytes (default 64)
    --stride N           dram-aware stride in bursts (default 8)
    --banks N            dram-aware banks (default 4)
    --ras L              fault-rate axis, faults per gigabit-hour
                         (default 0 = fault-free; e.g. 0,1e11,2e11)
    --seed N             campaign seed (default 1)
    --workers N          worker threads, 0 = all cores (default 0)
    --retries N          attempts per job before it is recorded failed (default 2)
    --jsonl FILE         also write the deterministic JSON-lines report
    --md FILE            also write the result table as markdown
    --csv                print the result table as CSV
    --quiet              suppress the stderr progress line
    --obs-dir DIR        per-job observability artifacts: DIR/job-<index>
                         gets .trace.json (Perfetto), .epochs.csv and
                         .stats.json
    --journal PATH       write-ahead journal: every finished job is
                         fsync'd to PATH (a directory gets journal.jsonl)
                         before it counts as done
    --resume PATH        resume a killed sweep from its journal: verifies
                         the campaign matches, skips journaled jobs, runs
                         the rest; merged reports are byte-identical to an
                         uninterrupted run's
    --checkpoint-every N checkpoint each running job every N injected
                         requests (requires --journal/--resume; snapshots
                         live beside the journal and are removed when the
                         sweep completes)
    --shard I/N          run only jobs with index % N == I (requires
                         --journal/--resume); N cooperating processes
                         given shards 0/N..N-1/N partition the campaign,
                         and --merge recombines their journals
    --merge P1,P2,...    merge shard journals into the full report (with
                         the same axis flags the shards ran); no
                         simulation happens, and the merged --jsonl/--md
                         are byte-identical to an unsharded run's
    --metrics-json FILE  write executor operational metrics (units/s,
                         worker busy/idle, journal batch sizes, retries)
                         as JSON when the sweep finishes

SERVICE OPTIONS:
    serve:
      --listen ADDR      socket to listen on: a path (Unix socket) or
                         host:port (TCP); port 0 picks one (announced on
                         stderr)
      --store DIR        durable job store; a killed daemon restarted on
                         the same store resumes every in-flight job
      --max-jobs N       admission bound: reject submits at N unfinished
                         jobs (default 8)
      --quantum N        preemption quantum in injected requests: long
                         jobs pause at request boundaries so tenants
                         share the simulator fairly; a paused unit stays
                         in memory and is checkpointed to the store
                         every 50 quanta (default 1000)
      --http ADDR        also serve read-only HTTP observability
                         endpoints on ADDR (path or host:port):
                         /metrics (Prometheus), /metrics.json, /healthz
                         (503 when the store is unwritable), /jobs
      --log-level LEVEL  stderr log threshold: error|warn|info|debug|trace
                         (default info; lines are structured key=\"value\")
      --client-timeout D per-connection read/write deadline; idle or
                         non-reading clients are evicted after D
                         (e.g. 30s, 250ms; 0 disables; default 30s)
      --subscriber-buffer N
                         outbound event-buffer depth per watcher; a
                         watcher that stops reading is evicted once its
                         buffer fills (default 1024)
      --retain N         garbage-collect the store: keep at most N
                         finished jobs (oldest evicted first, at startup
                         and on every completion; running and queued jobs
                         are never touched; default: keep everything)
    submit (takes the same axis flags as sweep, plus):
      --to ADDR          the service to submit to
      --tenant NAME      tenant for fair scheduling (default cli)
      --epochs DUR       request observed units: epoch series binned at
                         this interval streamed to watchers (e.g. 1ms)
    watch:
      --to ADDR          the service to connect to
      --jsonl FILE       write streamed records as a JSON-lines report
                         (byte-identical to the same campaign's
                         `sweep --jsonl` output)
      --obs-dir DIR      write streamed stats/epoch artifacts per unit
      --reconnect        survive daemon restarts: retry with exponential
                         backoff and resume the stream gap- and dup-free
                         from the last-seen record
    status:
      --to ADDR          the service to query
      --peer ADDR        (repeatable) query a whole fleet instead: one
                         row per peer with a reachability column and
                         aggregated job counts
      --json             print the raw status event (one JSON line with
                         per-job and per-tenant detail) instead of tables;
                         with --peer, one JSON line per peer
    dispatch (takes the same axis flags as sweep, plus):
      --peer ADDR        (repeatable) a daemon to dispatch shards to
      --peers-file FILE  additional peers, one address per line
                         (# comments and blank lines ignored)
      --workdir DIR      where shard journals accumulate (default: a
                         fresh directory under the system temp dir)
      --tenant NAME      tenant submitted to every peer (default dispatch)
      --timeout D        per-read streaming deadline; a connected peer
                         silent for this long fails its shard and the
                         shard is re-dispatched (e.g. 30s; 0 disables;
                         default 60s)
      --rounds N         assignment rounds before giving up with an
                         `incomplete` error (default 10)
      --no-hedge         don't re-issue slow shards to idle peers
      --json             emit progress events (shard assigned /
                         re-dispatched / hedged / merged) as JSON lines
                         on stderr instead of logfmt
      --jsonl/--md/--csv as sweep; the merged report is byte-identical
                         to a local `dramctrl sweep` of the same flags
";

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }
    let cmd = argv.remove(0);
    let result = match cmd.as_str() {
        "devices" => devices(),
        "run" => run(argv),
        "record" | "trace-record" => record(argv),
        "replay" => replay(argv),
        "sweep" => sweep(argv),
        "serve" => serve(argv),
        "submit" => submit(argv),
        "watch" => watch(argv),
        "status" => status(argv),
        "dispatch" => dispatch(argv),
        "version" | "--version" | "-V" => {
            print_version();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(ArgError(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One line, actionable, and the conventional usage-error code
            // (2) so scripts can tell bad invocations from failed runs.
            // Service commands emit the line through the structured logger
            // so daemon/client stderr stays machine-parseable end to end.
            if matches!(
                cmd.as_str(),
                "serve" | "submit" | "watch" | "status" | "dispatch"
            ) {
                dramctrl_obs::log_error!(
                    cmd.as_str(), e;
                    "hint" => "run `dramctrl help` for usage"
                );
            } else {
                eprintln!("error: {e} (run `dramctrl help` for usage)");
            }
            ExitCode::from(2)
        }
    }
}

fn devices() -> Result<(), ArgError> {
    println!(
        "{:<18} {:>9} {:>6} {:>6} {:>9} {:>10} {:>11}",
        "device", "bus bits", "banks", "ranks", "burst B", "peak GB/s", "capacity"
    );
    for spec in presets::all() {
        println!(
            "{:<18} {:>9} {:>6} {:>6} {:>9} {:>10.2} {:>8} MiB",
            spec.name,
            spec.org.bus_width_bits(),
            spec.org.banks,
            spec.org.ranks,
            spec.org.burst_bytes(),
            spec.peak_bandwidth_gbps(),
            spec.org.capacity_bytes() >> 20,
        );
    }
    Ok(())
}

const RUN_OPTS: &[&str] = &[
    "device",
    "model",
    "gen",
    "reads",
    "requests",
    "period",
    "range",
    "block",
    "stride",
    "banks",
    "policy",
    "sched",
    "mapping",
    "seed",
    "powerdown",
    "energy",
    "ras",
    "ecc",
    "o",
    "perfetto",
    "epochs",
    "epochs-out",
    "stats-json",
    "checkpoint",
    "checkpoint-at",
    "restore",
];

/// The CLI's run-time-selected probe: each sink is present only when its
/// flag was given. `(None, None)` observes nothing.
type CliProbe = (Option<ChromeTracer>, Option<EpochRecorder>);

/// Observability outputs requested on the command line.
struct ObsOpts {
    perfetto: Option<String>,
    epochs_out: Option<String>,
    interval: Tick,
    stats_json: Option<String>,
}

impl ObsOpts {
    fn parse(a: &Args) -> Result<Self, ArgError> {
        let interval = parse_duration(a.get("epochs").unwrap_or("1us"))?;
        if interval == 0 {
            return Err(ArgError("--epochs interval must be non-zero".into()));
        }
        // --epochs alone picks the default output path; --epochs-out alone
        // uses the default 1 us interval.
        let epochs_out = match (a.get("epochs-out"), a.get("epochs")) {
            (Some(path), _) => Some(path.to_owned()),
            (None, Some(_)) => Some("epochs.csv".to_owned()),
            (None, None) => None,
        };
        Ok(Self {
            perfetto: a.get("perfetto").map(str::to_owned),
            epochs_out,
            interval,
            stats_json: a.get("stats-json").map(str::to_owned),
        })
    }

    /// Builds the probe pair matching the requested sinks.
    fn probe(&self) -> CliProbe {
        (
            self.perfetto.as_ref().map(|_| ChromeTracer::new()),
            self.epochs_out
                .as_ref()
                .map(|_| EpochRecorder::new(self.interval)),
        )
    }

    /// Writes every requested output of a finished single-channel run:
    /// the statistics report, then the trace and epoch files.
    fn write_outputs(&self, backend: Backend<CliProbe>, end: Tick) -> Result<(), ArgError> {
        self.write_stats(&backend.report(end))?;
        let probe = backend.into_probes().remove(0);
        let write = |path: &str, text: String| {
            write_atomic(path, text).map_err(|e| ArgError(format!("writing {path:?}: {e}")))
        };
        if let (Some(path), Some(tracer)) = (&self.perfetto, probe.0) {
            write(path, tracer.to_json())?;
            eprintln!(
                "wrote Perfetto trace ({} events) to {path} — open at https://ui.perfetto.dev",
                tracer.event_count()
            );
        }
        if let (Some(path), Some(mut epochs)) = (&self.epochs_out, probe.1) {
            epochs.finish(end);
            let text = if path.ends_with(".jsonl") {
                epochs.to_jsonl()
            } else {
                epochs.to_csv()
            };
            write(path, text)?;
            eprintln!("wrote {} epochs to {path}", epochs.rows().len());
        }
        Ok(())
    }

    /// Writes the machine-readable statistics report, when requested.
    fn write_stats(&self, report: &Report) -> Result<(), ArgError> {
        if let Some(path) = &self.stats_json {
            write_atomic(path, report.to_json())
                .map_err(|e| ArgError(format!("writing {path:?}: {e}")))?;
            eprintln!("wrote {} statistics to {path}", report.len());
        }
        Ok(())
    }
}

/// Builds the optional fault model config from `--ras` / `--ecc`.
/// `--ecc` alone is rejected: an ECC mode without a fault rate has no
/// observable effect, so the contradiction is surfaced instead of
/// silently ignored.
fn parse_ras_config(a: &Args) -> Result<Option<RasConfig>, ArgError> {
    match (a.get("ras"), a.get("ecc")) {
        (None, None) => Ok(None),
        (None, Some(_)) => Err(ArgError(
            "--ecc has no effect without --ras RATE; add --ras or drop --ecc".into(),
        )),
        (Some(rate), ecc) => {
            let seed: u64 = a.parse_or("seed", 1u64)?;
            let mut ras = RasConfig::from_error_rate(parse_ras_rate(rate)?, seed);
            if let Some(mode) = ecc {
                ras = ras.with_ecc(parse_ecc(mode)?);
            }
            Ok(Some(ras))
        }
    }
}

/// Prints the RAS summary line for an armed run; no-op when `--ras` was
/// not given.
fn print_ras(fm: Option<&FaultModel>) {
    let Some(fm) = fm else { return };
    let stats = fm.stats();
    let get = |name: &str| {
        stats
            .entries()
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    println!(
        "RAS                : {} corrected, {} uncorrectable, {} silent, {} retries, {} row remaps, {} rank(s) offlined",
        get("ras_corrected"),
        get("ras_uncorrected"),
        get("ras_silent"),
        get("ras_retries"),
        get("ras_row_remaps"),
        get("ras_ranks_offlined"),
    );
}

struct WorkloadSpec {
    spec: MemSpec,
    gen: Box<dyn SnapGen>,
    /// Canonical description of every parameter that shapes the request
    /// stream — one input to the checkpoint fingerprint.
    desc: String,
    /// Requests the generator yields.
    requests: u64,
}

fn build_workload(a: &Args) -> Result<WorkloadSpec, ArgError> {
    let spec = parse_device(a.get("device").unwrap_or("ddr3-1600-x64"))?;
    let reads: u8 = a.parse_or("reads", 100u8)?;
    if reads > 100 {
        return Err(ArgError("--reads must be 0..=100".into()));
    }
    let requests: u64 = a.parse_or("requests", 100_000u64)?;
    let period = parse_duration(a.get("period").unwrap_or("0"))?;
    let range = parse_size(a.get("range").unwrap_or("256MiB"))?;
    let block: u32 = a.parse_or("block", 64u32)?;
    let seed: u64 = a.parse_or("seed", 1u64)?;
    let mapping = parse_mapping(a.get("mapping").unwrap_or("rorabacoch"))?;
    let gen_name = a.get("gen").unwrap_or("linear");
    let gen: Box<dyn SnapGen> = match gen_name {
        "linear" => Box::new(LinearGen::new(
            0, range, block, reads, period, requests, seed,
        )),
        "random" => Box::new(RandomGen::new(
            0, range, block, reads, period, requests, seed,
        )),
        "dram-aware" | "dram_aware" => {
            let stride: u64 = a.parse_or("stride", 8u64)?;
            let banks: u32 = a.parse_or("banks", 4u32)?;
            Box::new(DramAwareGen::new(
                spec.org, mapping, 1, 0, stride, banks, reads, period, requests, seed,
            ))
        }
        other => return Err(ArgError(format!("unknown generator {other:?}"))),
    };
    let stride: u64 = a.parse_or("stride", 8u64)?;
    let banks: u32 = a.parse_or("banks", 4u32)?;
    let desc = format!(
        "device={} gen={gen_name} reads={reads} requests={requests} period={period} \
         range={range} block={block} stride={stride} banks={banks} seed={seed} \
         mapping={mapping:?}",
        spec.name
    );
    Ok(WorkloadSpec {
        spec,
        gen,
        desc,
        requests,
    })
}

/// Checkpoint/restore options for `run`.
struct RunCkpt {
    checkpoint: Option<String>,
    at: Option<u64>,
    restore: Option<String>,
}

impl RunCkpt {
    fn parse(a: &Args) -> Result<Self, ArgError> {
        let ck = Self {
            checkpoint: a.get("checkpoint").map(str::to_owned),
            at: a
                .get("checkpoint-at")
                .map(str::parse)
                .transpose()
                .map_err(|_| ArgError("--checkpoint-at: cannot parse injection count".into()))?,
            restore: a.get("restore").map(str::to_owned),
        };
        match (&ck.checkpoint, ck.at) {
            (Some(_), None) => Err(ArgError(
                "--checkpoint needs --checkpoint-at N (where to pause)".into(),
            )),
            (None, Some(_)) => Err(ArgError(
                "--checkpoint-at needs --checkpoint FILE (where to write)".into(),
            )),
            _ => Ok(ck),
        }
    }
}

/// Drives a `run`/`replay` simulation with optional restore-on-entry and
/// pause-at-checkpoint. Returns `None` when the run paused (the snapshot
/// was written and the caller should exit without printing a summary).
fn simulate<P: Probe>(
    backend: &mut Backend<P>,
    gen: &mut (impl TrafficGen + SnapState),
    fp: u64,
    ck: &RunCkpt,
    requests: u64,
) -> Result<Option<TestSummary>, ArgError> {
    let mut run = Tester::new(1_000_000, 10_000).begin();
    if let Some(path) = &ck.restore {
        let bytes = std::fs::read(path)
            .map_err(|e| ArgError(format!("reading checkpoint {path:?}: {e}")))?;
        backend
            .resume(&mut run, gen, &bytes, fp)
            .map_err(|e| ArgError(format!("cannot restore checkpoint {path:?}: {e}")))?;
        eprintln!(
            "restored checkpoint {path} ({} requests already injected)",
            run.injected()
        );
    }
    let plan = Plan {
        fp,
        every: 0,
        pause_after: ck.at,
        requests,
    };
    match backend.drive(run, &mut *gen, &plan, |_| Ok::<(), ArgError>(()))? {
        Driven::Done(summary) => Ok(Some(*summary)),
        Driven::Paused { injected, run } => {
            // `RunCkpt::parse` pairs --checkpoint-at with --checkpoint, so
            // a run that can pause always has a path.
            let path = ck.checkpoint.as_deref().unwrap_or_default();
            write_atomic(path, backend.snapshot(&run, &*gen, fp))
                .map_err(|e| ArgError(format!("writing checkpoint {path:?}: {e}")))?;
            eprintln!(
                "checkpoint written to {path} at {injected} injected requests; \
                 continue with --restore {path}"
            );
            Ok(None)
        }
    }
}

fn print_summary(s: &TestSummary, spec: &MemSpec) {
    println!(
        "requests completed : {}",
        s.reads_completed + s.writes_completed
    );
    println!(
        "  reads / writes   : {} / {}",
        s.reads_completed, s.writes_completed
    );
    println!("simulated time     : {:.3} us", s.duration as f64 / 1e6);
    println!(
        "bandwidth          : {:.2} GB/s of {:.2} GB/s peak ({:.1}% bus)",
        s.bandwidth_gbps,
        spec.peak_bandwidth_gbps(),
        s.bus_util * 100.0
    );
    println!(
        "read latency       : mean {:.1} ns, p50 {} ns, p95 {} ns, p99 {} ns",
        s.read_lat_ns.mean(),
        s.read_lat_ns.quantile(0.5).unwrap_or(0),
        s.read_lat_ns.quantile(0.95).unwrap_or(0),
        s.read_lat_ns.quantile(0.99).unwrap_or(0),
    );
    println!(
        "row-hit rate       : {:.1}%",
        s.ctrl.page_hit_rate() * 100.0
    );
}

fn run(argv: Vec<String>) -> Result<(), ArgError> {
    let a = Args::parse(argv, &["energy"])?;
    a.ensure_known(RUN_OPTS)?;
    let WorkloadSpec {
        spec,
        mut gen,
        desc,
        requests,
    } = build_workload(&a)?;
    let policy = parse_policy(a.get("policy").unwrap_or("open"))?;
    let sched = parse_sched(a.get("sched").unwrap_or("frfcfs"))?;
    let mapping = parse_mapping(a.get("mapping").unwrap_or("rorabacoch"))?;
    let obs = ObsOpts::parse(&a)?;
    let ras = parse_ras_config(&a)?;
    let ck = RunCkpt::parse(&a)?;
    let model_name = a.get("model").unwrap_or("event");
    // The fingerprint covers everything that shapes the simulation, so a
    // snapshot can only be restored by the command line that matches it.
    let fp = fingerprint(
        format!(
            "run model={model_name} policy={policy:?} sched={sched:?} ras={ras:?} \
             powerdown={} {desc}",
            a.get("powerdown").unwrap_or("0")
        )
        .as_bytes(),
    );
    let (model, title) = match model_name {
        "event" => (Model::Event, "event-based model"),
        "cycle" => (Model::Cycle, "cycle-based baseline"),
        other => return Err(ArgError(format!("unknown model {other:?}"))),
    };
    let mut backend = Backend::build(
        model,
        1,
        mapping,
        |_| {
            let mut cfg = ev_cfg(spec.clone(), policy, sched, mapping, 1);
            cfg.ras = ras.clone();
            if let Some(pd) = a.get("powerdown") {
                cfg.powerdown_idle = parse_duration(pd)?;
            }
            DramCtrl::with_probe(cfg, obs.probe()).map_err(|e| ArgError(e.to_string()))
        },
        |_| {
            // `run` drives the plain DRAMSim2-style baseline, without the
            // write snooping that model comparisons switch on.
            let mut cfg = cy_cfg(spec.clone(), policy, sched, mapping, 1);
            cfg.write_snooping = false;
            cfg.ras = ras.clone();
            CycleCtrl::with_probe(cfg, obs.probe()).map_err(|e| ArgError(e.to_string()))
        },
    )?;
    let Some(summary) = simulate(&mut backend, &mut gen, fp, &ck, requests)? else {
        return Ok(());
    };
    println!("== {} ({title}) ==", spec.name);
    print_summary(&summary, &spec);
    print_ras(backend.fault_models().first().copied());
    let act = backend.activity(summary.duration);
    println!(
        "DRAM power         : {:.1} mW",
        micron_power(&spec, &act).total_mw()
    );
    if model == Model::Event && a.switch("energy") {
        println!();
        print!("{}", drampower_energy(&spec, &act).report("energy"));
    }
    obs.write_outputs(backend, summary.duration)
}

const SWEEP_OPTS: &[&str] = &[
    "devices",
    "models",
    "policies",
    "scheds",
    "mappings",
    "channels",
    "gens",
    "reads",
    "requests",
    "range",
    "block",
    "stride",
    "banks",
    "ras",
    "seed",
    "workers",
    "retries",
    "jsonl",
    "md",
    "csv",
    "quiet",
    "obs-dir",
    "journal",
    "resume",
    "checkpoint-every",
    "shard",
    "merge",
    "metrics-json",
];

/// Resolves `--journal`/`--resume` PATH: a directory (existing, or a
/// trailing separator) means `PATH/journal.jsonl`.
fn journal_path(p: &str) -> PathBuf {
    let path = PathBuf::from(p);
    if path.is_dir() || p.ends_with('/') {
        path.join("journal.jsonl")
    } else {
        path
    }
}

/// Builds the campaign the sweep/submit axis flags describe. The name is
/// fixed (`sweep`) so a campaign submitted to a service produces records
/// byte-comparable with a local `sweep` run of the same flags.
fn campaign_from_args(a: &Args) -> Result<dramctrl_campaign::Campaign, ArgError> {
    use dramctrl_campaign::{Campaign, Model, TrafficPattern};

    let list = |name: &str, default: &str| -> Result<Vec<String>, ArgError> {
        let items: Vec<String> = a
            .get(name)
            .unwrap_or(default)
            .split(',')
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .collect();
        if items.is_empty() {
            return Err(ArgError(format!("--{name}: list must not be empty")));
        }
        Ok(items)
    };

    let devices = list("devices", "ddr3-1333-x64")?
        .iter()
        .map(|d| parse_device(d).map(|s| s.name.to_owned()))
        .collect::<Result<Vec<_>, _>>()?;
    let models = list("models", "event")?
        .iter()
        .map(|m| m.parse::<Model>().map_err(ArgError))
        .collect::<Result<Vec<_>, _>>()?;
    let policies = list("policies", "open")?
        .iter()
        .map(|p| parse_policy(p))
        .collect::<Result<Vec<_>, _>>()?;
    let scheds = list("scheds", "frfcfs")?
        .iter()
        .map(|s| parse_sched(s))
        .collect::<Result<Vec<_>, _>>()?;
    let mappings = list("mappings", "rorabacoch")?
        .iter()
        .map(|m| parse_mapping(m))
        .collect::<Result<Vec<_>, _>>()?;
    let channels = list("channels", "1")?
        .iter()
        .map(|c| {
            c.parse::<u32>()
                .map_err(|_| ArgError(format!("--channels: cannot parse {c:?}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let reads = list("reads", "100")?
        .iter()
        .map(|r| {
            r.parse::<u8>()
                .ok()
                .filter(|r| *r <= 100)
                .ok_or_else(|| ArgError(format!("--reads: {r:?} is not 0..=100")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let requests = list("requests", "10000")?
        .iter()
        .map(|n| {
            n.parse::<u64>()
                .map_err(|_| ArgError(format!("--requests: cannot parse {n:?}")))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let range = parse_size(a.get("range").unwrap_or("256MiB"))?;
    let block: u32 = a.parse_or("block", 64u32)?;
    let stride: u64 = a.parse_or("stride", 8u64)?;
    let banks: u32 = a.parse_or("banks", 4u32)?;
    let traffic = list("gens", "linear")?
        .iter()
        .map(|g| match g.as_str() {
            "linear" => Ok(TrafficPattern::Linear { range, block }),
            "random" => Ok(TrafficPattern::Random { range, block }),
            "dram-aware" | "dram_aware" => Ok(TrafficPattern::DramAware { stride, banks }),
            other => Err(ArgError(format!("unknown generator {other:?}"))),
        })
        .collect::<Result<Vec<_>, _>>()?;

    let error_rates = list("ras", "0")?
        .iter()
        .map(|r| parse_ras_rate(r))
        .collect::<Result<Vec<_>, _>>()?;

    let seed: u64 = a.parse_or("seed", 1u64)?;
    Ok(Campaign::new("sweep", seed)
        .devices(devices)
        .models(models)
        .policies(policies)
        .scheds(scheds)
        .mappings(mappings)
        .channels(channels)
        .traffic(traffic)
        .read_pcts(reads)
        .requests(requests)
        .error_rates(error_rates))
}

/// Parses `--shard I/N` into `(index, count)`.
fn parse_shard(s: &str) -> Result<(u32, u32), ArgError> {
    let bad = || ArgError(format!("--shard: expected I/N with I < N, got {s:?}"));
    let (i, n) = s.split_once('/').ok_or_else(bad)?;
    let i: u32 = i.trim().parse().map_err(|_| bad())?;
    let n: u32 = n.trim().parse().map_err(|_| bad())?;
    if n == 0 || i >= n {
        return Err(bad());
    }
    Ok((i, n))
}

fn sweep(argv: Vec<String>) -> Result<(), ArgError> {
    use dramctrl_campaign::runner::{run_job, run_job_resumable};
    use dramctrl_campaign::{
        merge_journals, run_campaign, run_campaign_journaled, run_campaign_shard, CampaignJournal,
        ExecutorConfig, JobMetrics, JobSpec, Progress,
    };

    let a = Args::parse(argv, &["csv", "quiet"])?;
    a.ensure_known(SWEEP_OPTS)?;
    let campaign = campaign_from_args(&a)?;
    let seed = campaign.seed;

    // --merge: recombine shard journals into the full report. Pure file
    // work — no simulation, no executor.
    if let Some(m) = a.get("merge") {
        for conflict in ["journal", "resume", "shard", "obs-dir", "checkpoint-every"] {
            if a.get(conflict).is_some() {
                return Err(ArgError(format!(
                    "--merge only reads journals; drop --{conflict}"
                )));
            }
        }
        let paths: Vec<PathBuf> = m.split(',').map(|p| journal_path(p.trim())).collect();
        let report = merge_journals(&campaign, &paths)
            .map_err(|e| ArgError(format!("merging journals: {e}")))?;
        return finish_report(&a, &report, &report.summary());
    }

    // Opt-in operational metrics: the registry outlives the run so the
    // final JSON export sees every sample. Metrics never touch report or
    // journal bytes (the executor guarantees it).
    let metrics_out = a.get("metrics-json").map(|p| {
        let registry = dramctrl_obs::Registry::new();
        let m = dramctrl_campaign::ExecMetrics::register(&registry);
        (p.to_owned(), registry, m)
    });
    let cfg = ExecutorConfig {
        workers: a.parse_or("workers", 0usize)?,
        max_attempts: {
            let retries: u32 = a.parse_or("retries", 2u32)?;
            if retries == 0 {
                return Err(ArgError("--retries must be at least 1".into()));
            }
            retries
        },
        progress: if a.switch("quiet") {
            Progress::Silent
        } else {
            Progress::Stderr
        },
        metrics: metrics_out.as_ref().map(|(_, _, m)| m.clone()),
        ..ExecutorConfig::default()
    };
    // Durable journal: --journal starts one, --resume picks an existing
    // one back up (verifying it matches this campaign).
    let mut journal = match (a.get("journal"), a.get("resume")) {
        (Some(_), Some(_)) => {
            return Err(ArgError(
                "--journal and --resume are mutually exclusive; --resume \
                 already knows its journal"
                    .into(),
            ))
        }
        (Some(p), None) => {
            let path = journal_path(p);
            if let Some(parent) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)
                    .map_err(|e| ArgError(format!("creating {}: {e}", parent.display())))?;
            }
            Some(
                CampaignJournal::create(&path, &campaign)
                    .map_err(|e| ArgError(format!("creating journal {}: {e}", path.display())))?,
            )
        }
        (None, Some(p)) => {
            let path = journal_path(p);
            let j = CampaignJournal::resume(&path, &campaign)
                .map_err(|e| ArgError(format!("resuming {}: {e}", path.display())))?;
            eprintln!(
                "resuming: {} of {} jobs already journaled",
                j.completed().len(),
                campaign.len()
            );
            Some(j)
        }
        (None, None) => None,
    };

    let shard = a.get("shard").map(parse_shard).transpose()?;
    if shard.is_some() && journal.is_none() {
        return Err(ArgError(
            "--shard needs --journal or --resume: shards meet again only \
             through their journals"
                .into(),
        ));
    }
    let every: u64 = a.parse_or("checkpoint-every", 0u64)?;
    if every > 0 {
        if journal.is_none() {
            return Err(ArgError(
                "--checkpoint-every needs --journal or --resume (snapshots \
                 live beside the journal)"
                    .into(),
            ));
        }
        if a.get("obs-dir").is_some() {
            return Err(ArgError(
                "--checkpoint-every cannot be combined with --obs-dir".into(),
            ));
        }
    }
    // Snapshots live beside the journal; remember the directory even when
    // this invocation doesn't checkpoint, so a plain `--resume` still
    // cleans up snapshots left by an interrupted `--checkpoint-every` run.
    let ckpt_dir = journal
        .as_ref()
        .map(|j| j.path().parent().unwrap_or(Path::new(".")).to_path_buf());
    let job_ckpt =
        move |dir: &Path, job: &JobSpec| dir.join(format!("ckpt-job-{:04}.snap", job.index));

    match shard {
        Some((i, n)) => eprintln!(
            "sweep: shard {i}/{n} of {} jobs, seed {}",
            campaign.len(),
            seed
        ),
        None => eprintln!("sweep: {} jobs, seed {}", campaign.len(), seed),
    }
    let runner: Box<dyn Fn(&JobSpec) -> JobMetrics + Sync> = match a.get("obs-dir") {
        Some(dir) => {
            use dramctrl_campaign::runner::run_job_observed;
            std::fs::create_dir_all(dir).map_err(|e| ArgError(format!("creating {dir:?}: {e}")))?;
            let dir = PathBuf::from(dir);
            Box::new(move |job| {
                let (metrics, art) = run_job_observed(job, 1_000_000);
                let base = dir.join(format!("job-{:04}", job.index));
                // A failed write panics so the executor records the job as
                // failed instead of silently dropping the artifact.
                let write = |ext: &str, text: &str| {
                    let path = base.with_extension(ext);
                    write_atomic(&path, text)
                        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
                };
                write("trace.json", &art.perfetto_json);
                write("epochs.csv", &art.epochs_csv);
                write("stats.json", &art.stats_json);
                metrics
            })
        }
        None => match &ckpt_dir {
            Some(dir) => {
                let dir = dir.clone();
                Box::new(move |job| {
                    run_job_resumable(job, Some(&job_ckpt(&dir, job)), every, None)
                        .expect("an unpaused job run always completes")
                })
            }
            None => Box::new(run_job),
        },
    };
    let report = match (&mut journal, shard) {
        (Some(j), Some(s)) => run_campaign_shard(&campaign, &cfg, j, s, runner),
        (Some(j), None) => run_campaign_journaled(&campaign, &cfg, j, runner),
        (None, _) => run_campaign(&campaign, &cfg, runner),
    };
    // A finished sweep no longer needs its per-job snapshots. (Shards
    // only tried to remove their own jobs' snapshots plus already-absent
    // paths, so cross-shard cleanup is a harmless no-op.)
    if let Some(dir) = &ckpt_dir {
        for job in campaign.expand() {
            let _ = std::fs::remove_file(job_ckpt(dir, &job));
        }
    }
    if shard.is_some() {
        eprintln!(
            "shard report covers {} of {} jobs; merge the shard journals \
             with --merge for the full report",
            report.records.len(),
            campaign.len()
        );
    }
    if let Some((path, registry, _)) = &metrics_out {
        write_atomic(path, registry.render_json())
            .map_err(|e| ArgError(format!("writing {path:?}: {e}")))?;
        eprintln!("wrote executor metrics to {path}");
    }
    finish_report(&a, &report, &report.summary())
}

/// Writes the report outputs (`--jsonl`, `--md`, the printed table and
/// the `summary` line) and turns failed jobs into a non-zero exit.
fn finish_report(
    a: &Args,
    report: &dramctrl_campaign::CampaignReport,
    summary: &str,
) -> Result<(), ArgError> {
    if let Some(path) = a.get("jsonl") {
        write_atomic(path, report.to_jsonl())
            .map_err(|e| ArgError(format!("writing {path:?}: {e}")))?;
        eprintln!("wrote {} JSONL records to {path}", report.records.len());
    }
    let table = report.table(&[
        "bus_util",
        "bandwidth_gbps",
        "avg_read_lat_ns",
        "row_hit_rate",
    ]);
    if let Some(path) = a.get("md") {
        write_atomic(path, table.render())
            .map_err(|e| ArgError(format!("writing {path:?}: {e}")))?;
        eprintln!("wrote result table to {path}");
    }
    table.print();
    eprintln!("{summary}");
    if report.failed() > 0 {
        return Err(ArgError(format!("{} job(s) failed", report.failed())));
    }
    Ok(())
}

/// Prints the version tuple a service handshake exchanges: crate,
/// protocol, snapshot format, journal format. Scripts parse this to
/// check that a client and a daemon binary will interoperate.
fn print_version() {
    println!(
        "dramctrl {} (proto {}, snap {}, journal {})",
        env!("CARGO_PKG_VERSION"),
        dramctrl_serve::PROTO_VERSION,
        dramctrl_kernel::snap::SNAP_VERSION,
        dramctrl_campaign::JOURNAL_VERSION,
    );
}

const SERVE_OPTS: &[&str] = &[
    "listen",
    "store",
    "max-jobs",
    "quantum",
    "http",
    "log-level",
    "client-timeout",
    "subscriber-buffer",
    "retain",
];

fn serve(argv: Vec<String>) -> Result<(), ArgError> {
    use dramctrl_serve::{serve_http, Listener, ServeConfig, Server};
    let a = Args::parse(argv, &[])?;
    a.ensure_known(SERVE_OPTS)?;
    if let Some(level) = a.get("log-level") {
        dramctrl_obs::log::set_level(dramctrl_obs::log::parse_level(level).map_err(ArgError)?);
    }
    let listen = a
        .get("listen")
        .ok_or_else(|| ArgError("serve needs --listen ADDR (a path or host:port)".into()))?;
    let store = a
        .get("store")
        .ok_or_else(|| ArgError("serve needs --store DIR (the durable job store)".into()))?;
    let mut cfg = ServeConfig::new(store);
    cfg.max_jobs = a.parse_or("max-jobs", cfg.max_jobs)?;
    cfg.quantum = a.parse_or("quantum", cfg.quantum)?;
    if cfg.quantum == 0 {
        return Err(ArgError("--quantum must be at least 1".into()));
    }
    if let Some(t) = a.get("client-timeout") {
        // `parse_duration` yields picoseconds; the deadline is wall
        // clock, so convert. `0` disables the deadline entirely.
        let ps = parse_duration(t)?;
        if ps > 0 && ps < 1_000_000_000 {
            return Err(ArgError("--client-timeout below 1ms is not usable".into()));
        }
        cfg.client_timeout = (ps > 0).then(|| std::time::Duration::from_nanos(ps / 1_000));
    }
    cfg.subscriber_buffer = a.parse_or("subscriber-buffer", cfg.subscriber_buffer)?;
    if cfg.subscriber_buffer == 0 {
        return Err(ArgError("--subscriber-buffer must be at least 1".into()));
    }
    cfg.retain = a
        .get("retain")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| ArgError(format!("--retain: cannot parse {v:?}")))
        })
        .transpose()?;
    let (quantum, max_jobs) = (cfg.quantum, cfg.max_jobs);
    let server =
        Server::open(cfg).map_err(|e| ArgError(format!("opening store {store:?}: {e}")))?;
    server.start_scheduler();
    let listener =
        Listener::bind(listen).map_err(|e| ArgError(format!("binding {listen:?}: {e}")))?;
    // Read-only observability endpoints on a second listener, served from
    // a background thread so a slow scrape never blocks job clients.
    if let Some(http) = a.get("http") {
        let http_listener =
            Listener::bind(http).map_err(|e| ArgError(format!("binding {http:?}: {e}")))?;
        dramctrl_obs::log_info!(
            "serve", "http listening";
            "addr" => http_listener.local_addr()
        );
        let http_server = server.clone();
        std::thread::Builder::new()
            .name("dramctrl-http".into())
            .spawn(move || {
                if let Err(e) = serve_http(&http_server, &http_listener) {
                    dramctrl_obs::log_error!("serve", "http accept loop failed"; "error" => e);
                }
            })
            .expect("spawning the http thread");
    }
    // The resolved address matters when --listen used port 0.
    dramctrl_obs::log_info!(
        "serve", "listening";
        "addr" => listener.local_addr(),
        "store" => store,
        "quantum" => quantum,
        "max_jobs" => max_jobs
    );
    server
        .serve(&listener)
        .map_err(|e| ArgError(format!("accept loop failed: {e}")))
}

/// Axis flags shared with sweep, plus the service-client flags.
const SUBMIT_OPTS: &[&str] = &[
    "devices", "models", "policies", "scheds", "mappings", "channels", "gens", "reads", "requests",
    "range", "block", "stride", "banks", "ras", "seed", "to", "tenant", "epochs",
];

fn submit(argv: Vec<String>) -> Result<(), ArgError> {
    let a = Args::parse(argv, &[])?;
    a.ensure_known(SUBMIT_OPTS)?;
    let to = a
        .get("to")
        .ok_or_else(|| ArgError("submit needs --to ADDR (a running `dramctrl serve`)".into()))?;
    let campaign = campaign_from_args(&a)?;
    let epochs = match a.get("epochs") {
        Some(d) => {
            let ticks = parse_duration(d)?;
            if ticks == 0 {
                return Err(ArgError("--epochs interval must be non-zero".into()));
            }
            ticks
        }
        None => 0,
    };
    let tenant = a.get("tenant").unwrap_or("cli");
    let mut client = connect(to)?;
    let (id, total) = client
        .submit(tenant, epochs, &campaign)
        .map_err(|e| ArgError(e.to_string()))?;
    println!("accepted {id} ({total} units)");
    dramctrl_obs::log_info!(
        "submit", "accepted";
        "job" => id, "units" => total, "watch" => format!("dramctrl watch {id} --to {to}")
    );
    Ok(())
}

/// Connects to a service, refusing version-mismatched daemons.
fn connect(addr: &str) -> Result<dramctrl_serve::Client, ArgError> {
    dramctrl_serve::Client::connect(addr)
        .map_err(|e| ArgError(format!("connecting to {addr:?}: {e}")))
}

const WATCH_OPTS: &[&str] = &["to", "jsonl", "obs-dir", "reconnect"];

fn watch(argv: Vec<String>) -> Result<(), ArgError> {
    use dramctrl_serve::wire::Value;
    let a = Args::parse(argv, &["reconnect"])?;
    a.ensure_known(WATCH_OPTS)?;
    let [id] = a.positional() else {
        return Err(ArgError("watch needs exactly one job id".into()));
    };
    let to = a
        .get("to")
        .ok_or_else(|| ArgError("watch needs --to ADDR (a running `dramctrl serve`)".into()))?;
    let obs_dir = a.get("obs-dir").map(PathBuf::from);
    if let Some(dir) = &obs_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| ArgError(format!("creating {}: {e}", dir.display())))?;
    }

    let mut records: std::collections::BTreeMap<usize, String> = Default::default();
    let mut on_event = |v: &Value, line: &str| {
        let index = || v.get("index").and_then(Value::as_u64).unwrap_or(0) as usize;
        match v.get("event").and_then(Value::as_str) {
            Some("record") => {
                if let Some(data) = dramctrl_serve::record_data(line) {
                    records.insert(index(), data.to_owned());
                }
            }
            Some("progress") => {
                let done = v.get("done").and_then(Value::as_u64).unwrap_or(0);
                let total = v.get("total").and_then(Value::as_u64).unwrap_or(0);
                eprint!("\r[{id}] {done}/{total} units committed  ");
            }
            Some(event @ ("stats" | "epochs")) => {
                if let (Some(dir), Some(text)) = (&obs_dir, v.get("text").and_then(Value::as_str)) {
                    let ext = if event == "stats" {
                        "stats.json"
                    } else {
                        "epochs.jsonl"
                    };
                    let path = dir.join(format!("unit-{:06}.{ext}", index()));
                    write_atomic(&path, text)
                        .unwrap_or_else(|e| panic!("writing artifact {}: {e}", path.display()));
                }
            }
            _ => {}
        }
    };
    let summary = if a.switch("reconnect") {
        // Rides through daemon restarts: retryable transport errors
        // reconnect with backoff, and the replayed history is deduped by
        // unit index, so the collected records stay gap- and dup-free.
        dramctrl_serve::Client::watch_with_reconnect(to, id, &mut on_event)
    } else {
        connect(to)?.watch(id, &mut on_event)
    }
    .map_err(|e| ArgError(e.to_string()))?;
    eprintln!();

    if let Some(path) = a.get("jsonl") {
        // Records keyed by index render in campaign order — the same
        // bytes `sweep --jsonl` writes for this campaign.
        let jsonl: String = records.into_values().map(|l| l + "\n").collect();
        write_atomic(path, jsonl).map_err(|e| ArgError(format!("writing {path:?}: {e}")))?;
        dramctrl_obs::log_info!("watch", "wrote JSONL report"; "path" => path);
    }
    println!("{id}: {} ok, {} failed", summary.ok, summary.failed);
    if summary.failed > 0 {
        return Err(ArgError(format!("{} unit(s) failed", summary.failed)));
    }
    Ok(())
}

/// Axis flags shared with sweep, plus the fleet-coordinator flags.
const DISPATCH_OPTS: &[&str] = &[
    "devices",
    "models",
    "policies",
    "scheds",
    "mappings",
    "channels",
    "gens",
    "reads",
    "requests",
    "range",
    "block",
    "stride",
    "banks",
    "ras",
    "seed",
    "peer",
    "peers-file",
    "workdir",
    "tenant",
    "timeout",
    "rounds",
    "no-hedge",
    "json",
    "log-level",
    "jsonl",
    "md",
    "csv",
];

fn dispatch(argv: Vec<String>) -> Result<(), ArgError> {
    use dramctrl_serve::dispatch::DispatchConfig;
    let a = Args::parse_with_repeats(argv, &["csv", "json", "no-hedge"], &["peer"])?;
    a.ensure_known(DISPATCH_OPTS)?;
    if a.switch("json") {
        dramctrl_obs::log::set_format(dramctrl_obs::log::Format::Json);
    }
    if let Some(level) = a.get("log-level") {
        dramctrl_obs::log::set_level(dramctrl_obs::log::parse_level(level).map_err(ArgError)?);
    }
    let mut peers: Vec<String> = a.get_all("peer").to_vec();
    if let Some(file) = a.get("peers-file") {
        let text = std::fs::read_to_string(file)
            .map_err(|e| ArgError(format!("reading {file:?}: {e}")))?;
        peers.extend(
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_owned),
        );
    }
    if peers.is_empty() {
        return Err(ArgError(
            "dispatch needs at least one --peer ADDR (or --peers-file)".into(),
        ));
    }
    let campaign = campaign_from_args(&a)?;
    let workdir = a.get("workdir").map_or_else(
        || {
            std::env::temp_dir().join(format!(
                "dramctrl-dispatch-{}-{}",
                std::process::id(),
                campaign.seed
            ))
        },
        PathBuf::from,
    );
    let mut cfg = DispatchConfig::new(&workdir);
    if let Some(tenant) = a.get("tenant") {
        cfg.tenant = tenant.to_owned();
    }
    if let Some(t) = a.get("timeout") {
        let ps = parse_duration(t)?;
        if ps > 0 && ps < 1_000_000_000 {
            return Err(ArgError("--timeout below 1ms is not usable".into()));
        }
        cfg.io_timeout = (ps > 0).then(|| std::time::Duration::from_nanos(ps / 1_000));
    }
    cfg.hedge = !a.switch("no-hedge");
    cfg.max_rounds = a.parse_or("rounds", cfg.max_rounds)?;
    if cfg.max_rounds == 0 {
        return Err(ArgError("--rounds must be at least 1".into()));
    }
    let started = std::time::Instant::now();
    let (report, stats) =
        dramctrl_serve::dispatch(&campaign, &peers, &cfg).map_err(|e| ArgError(e.to_string()))?;
    let wall = started.elapsed().as_secs_f64();
    dramctrl_obs::log_info!(
        "dispatch", "campaign complete";
        "jobs" => report.records.len(), "shards" => stats.shards,
        "rounds" => stats.rounds, "redispatches" => stats.redispatches,
        "hedges" => stats.hedges, "peers_lost" => stats.peers_lost
    );
    // The merged report has no executor of its own (its wall time and
    // worker count are 0), so the summary is the coordinator's.
    let summary = format!(
        "dispatch '{}': {} jobs ({} ok, {} failed) in {wall:.2}s wall over {} peers \
         ({} lost), {} shards, {} rounds, {} re-dispatches, {} hedges",
        report.name,
        report.records.len(),
        report.completed(),
        report.failed(),
        peers.len(),
        stats.peers_lost,
        stats.shards,
        stats.rounds,
        stats.redispatches,
        stats.hedges,
    );
    finish_report(&a, &report, &summary)
}

fn status(argv: Vec<String>) -> Result<(), ArgError> {
    use dramctrl_serve::wire::Value;
    let a = Args::parse_with_repeats(argv, &["json"], &["peer"])?;
    a.ensure_known(&["to", "json", "peer"])?;
    if !a.get_all("peer").is_empty() {
        if a.get("to").is_some() {
            return Err(ArgError(
                "status takes either --to ADDR or --peer ADDR..., not both".into(),
            ));
        }
        return fleet_status(&a);
    }
    let to = a
        .get("to")
        .ok_or_else(|| ArgError("status needs --to ADDR (or --peer ADDR...)".into()))?;
    let mut client = connect(to)?;
    let table = client.status().map_err(|e| ArgError(e.to_string()))?;
    if a.switch("json") {
        // The raw status event: one JSON line with the full per-job and
        // per-tenant detail, for scripts.
        println!("{}", table.encode());
        return Ok(());
    }
    let jobs = table.get("jobs").and_then(Value::as_arr).unwrap_or(&[]);
    println!(
        "{:<10} {:<12} {:>6} {:>7} {:>6}  state",
        "job", "tenant", "done", "failed", "total"
    );
    for j in jobs {
        let s = |k: &str| j.get(k).and_then(Value::as_str).unwrap_or("?").to_owned();
        let n = |k: &str| j.get(k).and_then(Value::as_u64).unwrap_or(0);
        println!(
            "{:<10} {:<12} {:>6} {:>7} {:>6}  {}",
            s("id"),
            s("tenant"),
            n("done"),
            n("failed"),
            n("total"),
            s("state")
        );
    }
    let tenants = table.get("tenants").and_then(Value::as_arr).unwrap_or(&[]);
    if !tenants.is_empty() {
        println!();
        println!(
            "{:<12} {:>6} {:>6} {:>7} {:>7} {:>8}  running",
            "tenant", "queued", "jobs", "served", "failed", "rejected"
        );
        for t in tenants {
            let s = |k: &str| t.get(k).and_then(Value::as_str).unwrap_or("?").to_owned();
            let n = |k: &str| t.get(k).and_then(Value::as_u64).unwrap_or(0);
            let running = t
                .get("running")
                .and_then(|r| {
                    let job = r.get("job").and_then(Value::as_str)?;
                    let unit = r.get("unit").and_then(Value::as_u64)?;
                    Some(format!("{job}#{unit}"))
                })
                .unwrap_or_else(|| "-".into());
            println!(
                "{:<12} {:>6} {:>6} {:>7} {:>7} {:>8}  {}",
                s("tenant"),
                n("queued"),
                n("active_jobs"),
                n("served"),
                n("failed"),
                n("rejected"),
                running
            );
        }
    }
    dramctrl_obs::log_info!("status", "queried"; "to" => to, "jobs" => jobs.len());
    Ok(())
}

/// `status --peer A --peer B ...`: one row per peer with a reachability
/// column and job tallies, plus a fleet summary line. Unreachable peers
/// are reported, not fatal — unless *no* peer answers.
fn fleet_status(a: &Args) -> Result<(), ArgError> {
    use dramctrl_serve::wire::Value;
    let peers = a.get_all("peer");
    let json = a.switch("json");
    if !json {
        println!(
            "{:<32} {:<9} {:>5} {:>6} {:>7}",
            "peer", "reachable", "jobs", "done", "failed"
        );
    }
    let (mut reachable, mut jobs_total, mut done_total, mut failed_total) = (0usize, 0, 0, 0);
    for peer in peers {
        let reply = dramctrl_serve::Client::connect(peer).and_then(|mut c| c.status());
        match reply {
            Ok(table) => {
                reachable += 1;
                let jobs = table.get("jobs").and_then(Value::as_arr).unwrap_or(&[]);
                let sum = |k: &str| {
                    jobs.iter()
                        .map(|j| j.get(k).and_then(Value::as_u64).unwrap_or(0))
                        .sum::<u64>()
                };
                let (done, failed) = (sum("done"), sum("failed"));
                jobs_total += jobs.len();
                done_total += done;
                failed_total += failed;
                if json {
                    println!(
                        "{{\"peer\":{},\"reachable\":true,\"status\":{}}}",
                        Value::Str(peer.clone()).encode(),
                        table.encode()
                    );
                } else {
                    println!(
                        "{:<32} {:<9} {:>5} {:>6} {:>7}",
                        peer,
                        "yes",
                        jobs.len(),
                        done,
                        failed
                    );
                }
            }
            Err(e) => {
                if json {
                    println!(
                        "{{\"peer\":{},\"reachable\":false,\"error\":{}}}",
                        Value::Str(peer.clone()).encode(),
                        Value::Str(e.to_string()).encode()
                    );
                } else {
                    println!("{:<32} {:<9} {e}", peer, "no");
                }
            }
        }
    }
    dramctrl_obs::log_info!(
        "status", "fleet queried";
        "peers" => peers.len(), "reachable" => reachable,
        "jobs" => jobs_total, "done" => done_total, "failed" => failed_total
    );
    if !json {
        println!(
            "fleet: {reachable}/{} peers reachable, {jobs_total} jobs \
             ({done_total} units done, {failed_total} failed)",
            peers.len()
        );
    }
    if reachable == 0 {
        return Err(ArgError("no reachable peers".into()));
    }
    Ok(())
}

fn record(argv: Vec<String>) -> Result<(), ArgError> {
    let a = Args::parse(argv, &[])?;
    a.ensure_known(RUN_OPTS)?;
    let out_path = a
        .get("o")
        .ok_or_else(|| ArgError("record needs -o/--o FILE".into()))?
        .to_owned();
    let WorkloadSpec { mut gen, .. } = build_workload(&a)?;
    let mut entries = Vec::new();
    while let Some((tick, req)) = gen.next_request() {
        entries.push(TraceEntry {
            tick,
            cmd: req.cmd,
            addr: req.addr,
            size: req.size,
        });
    }
    write_atomic(&out_path, TraceGen::to_text(&entries))
        .map_err(|e| ArgError(format!("writing {out_path:?}: {e}")))?;
    println!("wrote {} requests to {}", entries.len(), out_path);
    Ok(())
}

fn replay(argv: Vec<String>) -> Result<(), ArgError> {
    let a = Args::parse(argv, &["energy"])?;
    a.ensure_known(RUN_OPTS)?;
    let [path] = a.positional() else {
        return Err(ArgError("replay needs exactly one trace file".into()));
    };
    // Validate the flag set before touching the filesystem so a
    // contradictory invocation is diagnosed as such even when the trace
    // path is also bad.
    let ras = parse_ras_config(&a)?;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path:?}: {e}")))?;
    let mut trace: TraceGen = text.parse().map_err(|e| ArgError(format!("{e}")))?;
    let spec = parse_device(a.get("device").unwrap_or("ddr3-1600-x64"))?;
    let obs = ObsOpts::parse(&a)?;
    let mut cfg = CtrlConfig::new(spec.clone());
    cfg.page_policy = parse_policy(a.get("policy").unwrap_or("open"))?;
    cfg.scheduling = parse_sched(a.get("sched").unwrap_or("frfcfs"))?;
    cfg.mapping = parse_mapping(a.get("mapping").unwrap_or("rorabacoch"))?;
    cfg.ras = ras;
    let ck = RunCkpt::parse(&a)?;
    // The trace *contents* (not the file name) are part of the replay
    // fingerprint: restoring against an edited trace is refused.
    let fp = fingerprint(
        format!(
            "replay trace={:#018x} device={} policy={:?} sched={:?} mapping={:?} ras={:?}",
            fingerprint(text.as_bytes()),
            spec.name,
            cfg.page_policy,
            cfg.scheduling,
            cfg.mapping,
            cfg.ras,
        )
        .as_bytes(),
    );
    let mut backend = Backend::Event(
        DramCtrl::with_probe(cfg, obs.probe()).map_err(|e| ArgError(e.to_string()))?,
    );
    let requests = trace.len() as u64;
    let Some(summary) = simulate(&mut backend, &mut trace, fp, &ck, requests)? else {
        return Ok(());
    };
    println!("== replay of {} on {} ==", path, spec.name);
    print_summary(&summary, &spec);
    print_ras(backend.fault_models().first().copied());
    obs.write_outputs(backend, summary.duration)
}
