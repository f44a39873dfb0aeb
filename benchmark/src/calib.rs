//! Host-speed calibration. The shared host's speed drifts by 20–40%
//! over tens of seconds, far more than the changes the benchmark must
//! see, so every timed path is bracketed by a fixed calibration kernel
//! and its time is rescaled to a reference host speed. The host slows a
//! path in two ways, and each is measured on its own:
//!
//! - its CPUs run slower (contention for a shared core or cache): the
//!   kernel's *CPU* time, which the guest kernel keeps free of steal,
//!   rises above [`REF_KERNEL_S`];
//! - the hypervisor takes CPU time away (steal): `/proc/stat` counts
//!   the stolen share of the time the CPUs wanted.
//!
//! The kernel is the benchmark's own code, so a change to the program
//! under test moves the rescaled times by exactly as much as the raw
//! ones.
//!
//! The kernel is a serial integer chain with no memory traffic. On a
//! 2-vCPU VM it tracked the drift of back-to-back 1-worker sweeps best:
//! over 20 s windows the IQR of the sweep's window medians fell from
//! 0.18 to 0.07 of the median. Kernels that walk a 1 MiB table or chase
//! pointers through 16 MiB were themselves too noisy (0.15–0.18).

use std::hint::black_box;

/// The kernel's CPU time on the reference host; a rescaled time is in
/// seconds at this speed, with nothing stolen.
pub const REF_KERNEL_S: f64 = 0.005;

/// Kernel repetitions per CPU and calibration; the median is taken.
const REPS: usize = 3;

/// CPUs a `cpu_set_t` mask of this many words can name.
const MASK_WORDS: usize = 16;

/// Busy CPU time, in `/proc/stat` ticks (10 ms), below which a path's
/// steal share is too coarse to use and the path is not corrected for
/// steal.
const MIN_BUSY_TICKS: u64 = 20;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// The calling thread's CPU time in seconds.
fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that the call fills in.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The calling thread's CPU affinity mask, or `None` if it cannot be read.
fn affinity() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the kernel writes at most `size` bytes into `mask`, which
    // is exactly that long; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc >= 0).then_some(mask)
}

/// Restricts the calling thread to the CPUs in `mask`.
fn set_affinity(mask: &[u64; MASK_WORDS]) -> bool {
    // SAFETY: the kernel reads `size` bytes from `mask`, which is exactly
    // that long; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// Steps of the kernel's integer chain: about 5 ms on a 2-vCPU VM.
const STEPS: u64 = 2_000_000;

/// One pass of the kernel: a xorshift chain folded through a multiply,
/// each step depending on the one before.
fn kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    for _ in 0..black_box(STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(0x2545_f491_4f6c_dd1d));
    }
    black_box(acc)
}

/// Tracks host speed through a run: each [`Clock::factor`] call runs the
/// kernel and returns the scale for the path timed since the previous
/// call.
#[derive(Debug)]
pub struct Clock {
    last: f64,
    /// Per-CPU `/proc/stat` ticks when the current path began.
    ticks: Option<Vec<CpuTicks>>,
    /// Every calibration's kernel time, for the run's provenance.
    pub kernel_s: Vec<f64>,
    /// The stolen share of the last path's wanted CPU time.
    pub stolen: f64,
}

impl Clock {
    /// A clock calibrated once, ready to bracket the first path.
    pub fn new() -> Self {
        let mut c = Self {
            last: 0.0,
            ticks: None,
            kernel_s: Vec::new(),
            stolen: 0.0,
        };
        c.last = c.calibrate();
        c.ticks = cpu_ticks();
        c
    }

    /// The kernel's CPU time in seconds: on each CPU this thread may run on,
    /// the median over [`REPS`] repetitions pinned to that CPU; then the
    /// mean over the CPUs. Host contention differs between the vCPUs,
    /// and a timed child process may run on any of them.
    fn calibrate(&mut self) -> f64 {
        let median_of_reps = || {
            let mut t: Vec<f64> = (0..REPS)
                .map(|_| {
                    let start = thread_cpu_s();
                    kernel();
                    thread_cpu_s() - start
                })
                .collect();
            crate::median(&mut t)
        };
        let mut per_cpu = Vec::new();
        if let Some(all) = affinity() {
            for cpu in 0..MASK_WORDS * 64 {
                let (word, bit) = (cpu / 64, 1u64 << (cpu % 64));
                if all[word] & bit == 0 {
                    continue;
                }
                let mut one = [0u64; MASK_WORDS];
                one[word] = bit;
                if set_affinity(&one) {
                    per_cpu.push(median_of_reps());
                }
            }
            set_affinity(&all);
        }
        if per_cpu.is_empty() {
            per_cpu.push(median_of_reps());
        }
        let k = per_cpu.iter().sum::<f64>() / per_cpu.len() as f64;
        self.kernel_s.push(k);
        k
    }

    /// Calibrates now and returns the factor that rescales a time
    /// measured since the previous call to the reference host speed:
    /// [`REF_KERNEL_S`] over the mean kernel time at either end, times
    /// the share of the path's wanted CPU time that was not stolen.
    pub fn factor(&mut self) -> f64 {
        self.stolen = match (&self.ticks, cpu_ticks()) {
            (Some(from), Some(to)) => stolen_share(from, &to).unwrap_or(0.0),
            _ => 0.0,
        };
        let now = self.calibrate();
        let f = REF_KERNEL_S / ((self.last + now) / 2.0) * (1.0 - self.stolen);
        self.last = now;
        self.ticks = cpu_ticks();
        f
    }
}

/// One CPU's `/proc/stat` ticks: stolen by the hypervisor, and busy
/// (user, nice, system, irq and softirq).
#[derive(Debug, Clone, Copy)]
struct CpuTicks {
    stolen: u64,
    busy: u64,
}

/// Every CPU's ticks, from the `cpuN` lines of `/proc/stat`.
fn cpu_ticks() -> Option<Vec<CpuTicks>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpus: Vec<CpuTicks> = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .filter_map(|l| {
            let f: Vec<u64> = l
                .split_whitespace()
                .skip(1)
                .map(|f| f.parse().unwrap_or(0))
                .collect();
            // user nice system idle iowait irq softirq steal ...
            let &[user, nice, system, _idle, _iowait, irq, softirq, stolen, ..] = f.as_slice()
            else {
                return None;
            };
            Some(CpuTicks {
                stolen,
                busy: user + nice + system + irq + softirq,
            })
        })
        .collect();
    (!cpus.is_empty()).then_some(cpus)
}

/// The stolen share of the CPU time wanted between two readings: each
/// CPU's stolen share of its own busy-or-stolen ticks, weighted by its
/// busy ticks. A mostly idle CPU that lost its few ticks thus counts
/// less than the one that ran a single-threaded path. `None` when the
/// CPUs were busy for fewer than [`MIN_BUSY_TICKS`].
fn stolen_share(from: &[CpuTicks], to: &[CpuTicks]) -> Option<f64> {
    let mut busy_total = 0;
    let mut weighted = 0.0;
    for (a, b) in from.iter().zip(to) {
        let stolen = b.stolen.saturating_sub(a.stolen);
        let busy = b.busy.saturating_sub(a.busy);
        if busy + stolen > 0 {
            busy_total += busy;
            weighted += busy as f64 * stolen as f64 / (busy + stolen) as f64;
        }
    }
    (busy_total >= MIN_BUSY_TICKS).then(|| weighted / busy_total as f64)
}
