//! Child-process hygiene: a per-run scratch directory, daemons that are
//! always killed and reaped (on success, on error, on panic and on the
//! watchdog), and timed one-shot `dramctrl` invocations.

use dramctrl_serve::Client;
use std::fs::File;
use std::io;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pids of every live child, so the watchdog can stop them all.
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn syncfs(fd: i32) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: i32 = 9;

fn children() -> std::sync::MutexGuard<'static, Vec<u32>> {
    // A panic while holding the lock leaves a plain pid list, valid at
    // every step, so the guard is safe to recover.
    CHILDREN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Spawns `cmd` so that it dies with this process even if this process
/// is killed before it can clean up, and registers it for the watchdog.
/// Call from the main thread only: the kernel delivers the death signal
/// when the *spawning thread* exits.
fn spawn(cmd: &mut Command) -> io::Result<Child> {
    // SAFETY: the closure runs in the forked child before exec and only
    // makes the async-signal-safe `prctl` system call.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0) != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        });
    }
    let child = cmd.spawn()?;
    children().push(child.id());
    Ok(child)
}

fn reap(mut child: Child) -> io::Result<std::process::ExitStatus> {
    let status = child.wait();
    children().retain(|&p| p != child.id());
    status
}

/// Kills every registered child, reaps them and exits: the last resort
/// when a run overruns its deadline.
fn kill_all_and_exit(why: &str) -> ! {
    let pids: Vec<u32> = children().clone();
    for &pid in &pids {
        let pid = pid as i32;
        // SAFETY: plain system calls on pids this process spawned and has
        // not reaped (reaped pids are removed from the registry first).
        unsafe {
            kill(pid, SIGKILL);
            waitpid(pid, std::ptr::null_mut(), 0);
        }
    }
    eprintln!("perfbench: {why}; stopped {} child process(es)", pids.len());
    std::process::exit(1);
}

/// Starts a thread that stops every child and exits non-zero once
/// `limit` has passed.
pub fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        kill_all_and_exit(&format!("run exceeded {}s", limit.as_secs()));
    });
}

/// A fresh per-run scratch directory, relative to the checkout root so
/// that socket paths stay short. Removed when dropped unless the run
/// failed, in which case it keeps the daemons' stderr for inspection.
#[derive(Debug)]
pub struct Work {
    pub dir: PathBuf,
    keep: bool,
}

impl Work {
    pub fn new() -> io::Result<Self> {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = PathBuf::from(".bench_work").join(format!("{}-{stamp}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir, keep: false })
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Creates the subdirectory `name` (one trial's files).
    pub fn mkdir(&self, name: &str) -> Result<(), String> {
        std::fs::create_dir_all(self.path(name)).map_err(|e| format!("creating {name}: {e}"))
    }

    /// Removes the subdirectory `name` once its trial has passed the
    /// gate, so that every trial starts on the same filesystem state.
    pub fn remove(&self, name: &str) -> Result<(), String> {
        std::fs::remove_dir_all(self.path(name)).map_err(|e| format!("removing {name}: {e}"))
    }

    /// Writes back every dirty page of the filesystem holding the
    /// directory, so that a timed path does not pay for the writeback of
    /// files an earlier path left behind.
    pub fn settle(&self) -> Result<(), String> {
        use std::os::fd::AsRawFd;
        let dir = File::open(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))?;
        // SAFETY: a plain system call on a descriptor this function owns.
        if unsafe { syncfs(dir.as_raw_fd()) } != 0 {
            return Err(format!("syncfs: {}", io::Error::last_os_error()));
        }
        Ok(())
    }

    /// Keeps the directory (and its stderr logs) after the run.
    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        if self.keep || std::thread::panicking() {
            eprintln!("perfbench: kept {} for inspection", self.dir.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// The last `n` lines of a log file, for error messages.
pub fn tail(path: &Path, n: usize) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(n)..].join("\n")
}

/// A running `dramctrl serve`, killed and reaped when dropped.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
    pub http: Option<String>,
    pub stderr: PathBuf,
}

impl Daemon {
    /// Starts a daemon on a fresh store and socket under `work`.
    pub fn spawn(bin: &Path, work: &Work, name: &str, http: bool) -> io::Result<Self> {
        let addr = work.path(&format!("{name}.sock")).display().to_string();
        let store = work.path(&format!("{name}.store"));
        let stderr = work.path(&format!("{name}.stderr"));
        let http = http.then(|| {
            work.path(&format!("{name}.http.sock"))
                .display()
                .to_string()
        });
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--listen")
            .arg(&addr)
            .arg("--store")
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(&stderr)?);
        if let Some(h) = &http {
            cmd.arg("--http").arg(h);
        }
        let child = spawn(&mut cmd)?;
        Ok(Self {
            child: Some(child),
            addr,
            http,
            stderr,
        })
    }

    /// Polls until the daemon answers `hello`.
    pub fn wait_ready(&mut self, timeout: Duration) -> Result<(), String> {
        let start = Instant::now();
        loop {
            if Client::connect(&self.addr).is_ok() {
                return Ok(());
            }
            let child = self.child.as_mut().expect("a live daemon has a child");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!(
                    "daemon {} exited ({status}) before answering hello:\n{}",
                    self.addr,
                    tail(&self.stderr, 20)
                ));
            }
            if start.elapsed() > timeout {
                return Err(format!("daemon {} never answered hello", self.addr));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The daemon's peak resident set (`VmHWM`), in kB.
    pub fn vm_hwm_kb(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = reap(child);
        }
    }
}

/// Runs `dramctrl ARGS` to completion with stdout discarded and stderr
/// captured to `stderr`; returns the wall time from spawn to exit.
pub fn run_timed(bin: &Path, args: &[String], stderr: &Path) -> Result<Duration, String> {
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(File::create(stderr).map_err(|e| format!("{}: {e}", stderr.display()))?);
    let start = Instant::now();
    let child = spawn(&mut cmd).map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let status = reap(child).map_err(|e| format!("waiting for dramctrl: {e}"))?;
    let took = start.elapsed();
    if !status.success() {
        return Err(format!(
            "`dramctrl {}` failed ({status}):\n{}",
            args.first().map_or("", String::as_str),
            tail(stderr, 20)
        ));
    }
    Ok(took)
}

/// Runs a build step (`cargo ...`), inheriting stderr.
pub fn run_quiet(cmd: &mut Command) -> Result<(), String> {
    let child = spawn(cmd.stdin(Stdio::null()).stdout(Stdio::null()))
        .map_err(|e| format!("spawning {cmd:?}: {e}"))?;
    let status = reap(child).map_err(|e| format!("waiting for {cmd:?}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{cmd:?} failed ({status})"))
    }
}
