//! Shared harness code for the figure/table regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index and `EXPERIMENTS.md` for recorded
//! results):
//!
//! ```text
//! cargo run --release -p dramctrl-bench --bin fig3
//! ```

#![warn(missing_docs)]

/// The job runner, which lives in `dramctrl-campaign` next to the
/// [`JobSpec`](dramctrl_campaign::JobSpec) it runs.
pub use dramctrl_campaign::runner;

pub use runner::{
    cy_cfg, ev_cfg, gen_for_job, job_fingerprint, job_metrics, run_job, run_job_observed,
    run_job_resumable, run_job_slice, std_tester, JobArtifacts, SliceOutcome,
};

use std::time::Instant;

use dramctrl::{DramCtrl, PagePolicy, SchedPolicy};
use dramctrl_cycle::CycleCtrl;
use dramctrl_mem::{AddrMapping, MemSpec};

/// Builds an event-based controller with the validation defaults
/// (FR-FCFS scheduling; see [`ev_ctrl_with`] for the general form).
pub fn ev_ctrl(spec: MemSpec, policy: PagePolicy, mapping: AddrMapping, channels: u32) -> DramCtrl {
    ev_ctrl_with(spec, policy, SchedPolicy::FrFcfs, mapping, channels)
}

/// Builds the matching cycle-based baseline (paper Section III: matched
/// timing, matched policies, unified queue architecture; see
/// [`cy_ctrl_with`] for the general form).
pub fn cy_ctrl(
    spec: MemSpec,
    policy: PagePolicy,
    mapping: AddrMapping,
    channels: u32,
) -> CycleCtrl {
    cy_ctrl_with(spec, policy, SchedPolicy::FrFcfs, mapping, channels)
}

/// Builds an event-based controller with an explicit scheduler (the
/// general form of [`ev_ctrl`]).
pub fn ev_ctrl_with(
    spec: MemSpec,
    policy: PagePolicy,
    sched: SchedPolicy,
    mapping: AddrMapping,
    channels: u32,
) -> DramCtrl {
    DramCtrl::new(ev_cfg(spec, policy, sched, mapping, channels)).expect("valid config")
}

/// Builds the matching cycle-based baseline with an explicit scheduler
/// (the general form of [`cy_ctrl`]).
pub fn cy_ctrl_with(
    spec: MemSpec,
    policy: PagePolicy,
    sched: SchedPolicy,
    mapping: AddrMapping,
    channels: u32,
) -> CycleCtrl {
    CycleCtrl::new(cy_cfg(spec, policy, sched, mapping, channels)).expect("valid config")
}

/// Runs `f`, returning its result and the host wall-clock seconds spent.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

pub use dramctrl_stats::Table;

/// The bus-utilisation sweeps behind paper Figures 3–5.
pub mod sweep {
    use super::*;
    use dramctrl_traffic::{DramAwareGen, Tester};

    /// One point of a bandwidth sweep.
    #[derive(Debug, Clone, Copy)]
    pub struct BwPoint {
        /// Sequential stride in bursts.
        pub stride: u64,
        /// Banks targeted.
        pub banks: u32,
        /// Event-based model bus utilisation.
        pub ev_util: f64,
        /// Cycle-based baseline bus utilisation.
        pub cy_util: f64,
    }

    /// Sweeps stride × banks with the DRAM-aware generator on both models.
    pub fn bandwidth(
        spec: &MemSpec,
        policy: PagePolicy,
        mapping: AddrMapping,
        read_pct: u8,
        strides: &[u64],
        banks: &[u32],
        requests: u64,
    ) -> Vec<BwPoint> {
        let mut points = Vec::new();
        let tester = Tester::new(100_000, 1_000);
        for &b in banks {
            for &s in strides {
                let gen =
                    || DramAwareGen::new(spec.org, mapping, 1, 0, s, b, read_pct, 0, requests, 7);
                let ev = tester.run(&mut gen(), &mut ev_ctrl(spec.clone(), policy, mapping, 1));
                let cy = tester.run(&mut gen(), &mut cy_ctrl(spec.clone(), policy, mapping, 1));
                points.push(BwPoint {
                    stride: s,
                    banks: b,
                    ev_util: ev.bus_util,
                    cy_util: cy.bus_util,
                });
            }
        }
        points
    }

    /// Prints a sweep as the figure's table.
    pub fn print_points(title: &str, points: &[BwPoint]) {
        println!("{title}\n");
        let mut t = Table::new(["banks", "stride (bursts)", "event util", "cycle util"]);
        for p in points {
            t.row([
                p.banks.to_string(),
                p.stride.to_string(),
                f3(p.ev_util),
                f3(p.cy_util),
            ]);
        }
        t.print();
        println!();
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controllers_build_for_all_presets() {
        for spec in dramctrl_mem::presets::all() {
            let _ = ev_ctrl(spec.clone(), PagePolicy::Open, AddrMapping::RoRaBaCoCh, 1);
            let _ = cy_ctrl(spec, PagePolicy::Closed, AddrMapping::RoCoRaBaCh, 1);
        }
    }

    #[test]
    fn timed_measures_something() {
        let (v, secs) = timed(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
