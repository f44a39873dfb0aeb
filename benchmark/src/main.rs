//! `perfbench` — the repository's benchmark. Builds the shipped
//! `dramctrl` binary from the checkout it runs in, drives one workload
//! through every user-facing path (`sweep` at 1 and N workers, journaled
//! `sweep`, `serve` + `submit` + `watch`, `dispatch` over two local
//! daemons) and prints the end-to-end metrics, or with `--trace 1` the
//! per-layer breakdown from a traced in-process run. Every run gates
//! every path's report against the 1-worker sweep's bytes.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload long-sim --seed 1 --seconds 35 --trace 0
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --self-test
//! ```
//!
//! Run it from the repository root. The last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it records the run's provenance.

mod calib;
mod e2e;
mod paths;
mod procs;
mod traced;
mod workload;

use paths::Ctx;
use procs::Work;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::Size;

/// End-to-end metrics (untraced runs): name and unit.
const E2E: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sweep_1w_s", "s"),
    ("sweep_nw_s", "s"),
    ("sweep_journal_s", "s"),
    ("daemon_job_s", "s"),
    ("daemon_first_record_s", "s"),
    ("fleet_job_s", "s"),
    ("daemon_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs): name and unit.
const PER_LAYER: [(&str, &str); 32] = [
    ("core.advance_ns_per_req", "ns"),
    ("core.try_send_ns_per_req", "ns"),
    ("core.next_event_ns_per_req", "ns"),
    ("core.drain_us_per_job", "us"),
    ("core.build_us_per_job", "us"),
    ("traffic.gen_ns_per_req", "ns"),
    ("traffic.tester_ns_per_req", "ns"),
    ("traffic.send_attempts_per_req", "ratio"),
    ("traffic.finish_us_per_job", "us"),
    ("system.xbar_self_ns_per_req", "ns"),
    ("ras.advance_ns_per_req", "ns"),
    ("bench.setup_us_per_job", "us"),
    ("bench.slice_overhead_us", "us"),
    ("bench.checkpoint_bytes", "bytes"),
    ("kernel.snap_save_us", "us"),
    ("kernel.snap_restore_us", "us"),
    ("kernel.write_atomic_us", "us"),
    ("campaign.render_us_per_record", "us"),
    ("campaign.commit_us_per_record", "us"),
    ("campaign.batch_commit_us_per_record", "us"),
    ("campaign.batch_records", "count"),
    ("campaign.worker_busy_frac", "ratio"),
    ("campaign.exec_overhead_us_per_job", "us"),
    ("serve.submit_ms", "ms"),
    ("serve.record_gap_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.preemptions_per_unit", "count"),
    ("serve.commit_fsync_us", "us"),
    ("serve.streamed_bytes_per_record", "bytes"),
    ("dispatch.assignments_per_shard", "count"),
    ("dispatch.merge_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
];

/// A run must end within this long after the build, whatever happens.
const RUN_LIMIT: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: perfbench --workload long-sim|many-short|mixed-rw --seed N \
                     --seconds S --trace 0|1\n       perfbench --self-test";

/// Samples per metric over a run's trials.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }
}

/// The median of `v` (NaN when empty).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Runs `trial(index, reference)` until `deadline`, at least once: a
/// trial starts only if one more of the last one's length still fits.
/// The first trial's reports become the reference later trials are
/// gated against; they are returned.
pub fn trials(
    deadline: Instant,
    mut trial: impl FnMut(usize, Option<&[String]>) -> Result<Vec<String>, String>,
) -> Result<Vec<String>, String> {
    let mut reference: Option<Vec<String>> = None;
    let mut n = 0;
    loop {
        let start = Instant::now();
        let reports = trial(n, reference.as_deref())?;
        reference.get_or_insert(reports);
        n += 1;
        if Instant::now() + start.elapsed() > deadline {
            break;
        }
    }
    eprintln!("perfbench: {n} trial(s)");
    Ok(reference.expect("at least one trial ran"))
}

#[derive(Debug)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut kv = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        if kv.insert(key, v.as_str()).is_some() {
            return Err(format!("{k} given twice"));
        }
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing --{k}"));
    let opts = Opts {
        workload: take("workload")?.to_owned(),
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
        },
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    Ok(opts)
}

/// Builds the shipped `dramctrl` binary from the checkout in the
/// current directory and returns its path.
fn build() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/cli").is_dir() {
        return Err("run from the repository root (no Cargo.toml/crates here)".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    procs::run_quiet(Command::new(cargo).args([
        "build",
        "--release",
        "--quiet",
        "-p",
        "dramctrl-cli",
        "--bin",
        "dramctrl",
    ]))?;
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("dramctrl");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("the build left no {}", bin.display()))
    }
}

/// What one run measured.
#[derive(Debug)]
struct Outcome {
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    provenance: String,
    reference: Vec<String>,
}

fn run(bin: &Path, o: &Opts, size: Size) -> Result<Outcome, (String, u64)> {
    let wl = workload::by_name(&o.workload, size)
        .ok_or_else(|| (format!("unknown workload {:?}\n{USAGE}", o.workload), 0))?;
    let work = Work::new().map_err(|e| (format!("creating the scratch directory: {e}"), 0))?;
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let mut ctx = Ctx {
        bin: bin.to_owned(),
        work,
        wl,
        seed: o.seed,
        workers,
    };
    let deadline = Instant::now() + Duration::from_secs(o.seconds);
    let mut samples = Samples::default();
    let mut attempted = 0;
    let mut clock = calib::Clock::new();
    let result = if o.trace {
        traced::run(&ctx, deadline, &mut samples, &mut attempted)
    } else {
        e2e::run(&ctx, deadline, &mut samples, &mut attempted, &mut clock)
    };
    let reference = match result {
        Ok(r) => r,
        Err(e) => {
            ctx.work.keep();
            return Err((e, attempted));
        }
    };
    let table: &[(&'static str, &'static str)] = if o.trace { &PER_LAYER } else { &E2E };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let mut v = samples.0.remove(name).unwrap_or_default();
        let n = v.len();
        let value = median(&mut v);
        if !value.is_finite() {
            return Err((format!("metric {name} was not measured"), attempted));
        }
        eprintln!("perfbench: {name:<38} {value:>14.4} {unit:<6} (median of {n})");
        metrics.push((name, unit, value));
    }
    Ok(Outcome {
        metrics,
        attempted,
        provenance: provenance(&ctx, o, &reference, median(&mut clock.kernel_s)),
        reference,
    })
}

/// FNV-1a, 64-bit.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A digest of the sources the benchmark built: every file under
/// `crates/` plus the workspace manifest and lock file, in path order.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    files.iter().fold(FNV_SEED, |h, p| {
        let h = fnv(h, p.display().to_string().as_bytes());
        fnv(h, &std::fs::read(p).unwrap_or_default())
    })
}

/// The git commit, when the checkout is a git work tree of its own.
fn git_commit() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The type of the filesystem holding `dir`, from the longest matching
/// mount point in `/proc/self/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_owned());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then_some((point.len(), fstype.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(ctx: &Ctx, o: &Opts, reference: &[String], kernel_s: f64) -> String {
    let nproc = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |t| {
        t.lines().filter(|l| l.starts_with("processor")).count()
    });
    let digests: Vec<String> = reference
        .iter()
        .map(|r| json_str(&format!("{:016x}", fnv(FNV_SEED, r.as_bytes()))))
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": {}, \"source_digest\": \"{:016x}\", \"nproc\": {nproc}, \
         \"available_parallelism\": {}, \"store_filesystem\": {}, \
         \"calibration_kernel_s\": {kernel_s}, \"reference_kernel_s\": {}, \
         \"sweep_1w_report_fnv64\": [{}], \"note\": {}}}}}",
        json_str(&o.workload),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        git_commit().map_or_else(|| "null".into(), |c| json_str(&c)),
        source_digest(),
        ctx.workers,
        json_str(&filesystem_of(&ctx.work.dir)),
        calib::REF_KERNEL_S,
        digests.join(", "),
        json_str("model unvalidated against hardware; no error figure"),
    )
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let m: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        m.join(", ")
    )
}

/// Checks a run's printed result: every metric of `table`, by name and
/// unit, in the JSON line and in `BENCHMARK.json`.
fn check_metrics(line: &str, table: &[(&str, &str)], manifest: &str) -> Result<(), String> {
    for (name, unit) in table {
        let printed = format!("{}: {{\"value\": ", json_str(name));
        let unit_json = format!("\"unit\": {}}}", json_str(unit));
        let at = line
            .find(&printed)
            .ok_or_else(|| format!("{name} not printed"))?;
        if !line[at..].contains(&unit_json) {
            return Err(format!("{name} printed without unit {unit}"));
        }
        let declared = format!("\"name\": {}, \"unit\": {}", json_str(name), json_str(unit));
        if !manifest.contains(&declared) {
            return Err(format!("BENCHMARK.json does not declare {name} in {unit}"));
        }
    }
    Ok(())
}

/// Runs all three workloads at tiny size, traced and untraced, and
/// asserts that every metric is printed with its unit, that the
/// correctness gate passes, and that an altered report is caught.
fn self_test(bin: &Path) -> Result<(), String> {
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    for name in workload::NAMES {
        for trace in [false, true] {
            let o = Opts {
                workload: name.to_owned(),
                seed: 7,
                seconds: 0,
                trace,
            };
            let out = run(bin, &o, Size::Tiny).map_err(|(e, _)| format!("{name}: {e}"))?;
            let line = result_line(true, out.attempted, 0, &out.metrics);
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &E2E };
            check_metrics(&line, table, &manifest).map_err(|e| format!("{name}: {e}"))?;
            // Flip one byte of one record: the gate must refuse it.
            let mut altered = out.reference.clone();
            let flipped: String =
                altered[0].replacen("\"outcome\":\"ok\"", "\"outcome\":\"ko\"", 1);
            if flipped == altered[0] {
                return Err(format!("{name}: the report has no record to alter"));
            }
            altered[0] = flipped;
            if paths::gate("altered", &out.reference, &altered).is_ok() {
                return Err(format!("{name}: the gate accepted an altered report"));
            }
            eprintln!("perfbench: self-test {name} trace={} ok", u8::from(trace));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 1 && args[0] == "--self-test" {
        return match build().and_then(|bin| self_test(&bin)) {
            Ok(()) => {
                println!("self-test passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: self-test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bin = match build() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    procs::arm_watchdog(RUN_LIMIT);
    match run(&bin, &opts, Size::Full) {
        Ok(out) => {
            println!("{}", out.provenance);
            println!("{}", result_line(true, out.attempted, 0, &out.metrics));
            ExitCode::SUCCESS
        }
        Err((e, attempted)) => {
            eprintln!("perfbench: run failed: {e}");
            println!("{}", result_line(false, attempted, attempted.max(1), &[]));
            ExitCode::FAILURE
        }
    }
}
