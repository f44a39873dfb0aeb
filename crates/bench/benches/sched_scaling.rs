//! sched_scaling — scheduler cost vs queue depth: the indexed controller
//! against the linear-scan reference model (`DramCtrl::new_reference`).
//!
//! The controller is driven saturated: requests are offered back-to-back
//! and the simulation only advances when a queue refuses one, so every
//! scheduling decision runs against full queues. That makes the measured
//! requests/second track exactly the cost the indices remove — the
//! per-decision O(depth) scans, the O(depth) `VecDeque` removal and the
//! per-burst O(depth) occupancy and snoop scans.
//!
//! Results land in `BENCH_sched_scaling.json` at the repository root (the
//! tracked perf-trajectory file; override with `--json <path>`), together
//! with an abbreviated model-speed (`speed`) measurement.
//!
//! Flags:
//! * `--short` — CI-sized run (fewer depths, fewer requests);
//! * `--check` — also assert indexed/reference equivalence on random
//!   workloads before timing anything;
//! * `--json <path>` — write the JSON somewhere else.
//!
//! Exits non-zero if the indexed controller is not faster than the
//! reference at depth 256 — the regression gate CI enforces.

use std::io::Write as _;

use dramctrl::diff;
use dramctrl::{CtrlConfig, DramCtrl, PagePolicy, SchedPolicy};
use dramctrl_bench::{cy_ctrl, ev_ctrl, f1, timed, Table};
use dramctrl_kernel::rng::Rng;
use dramctrl_kernel::Tick;
use dramctrl_mem::{presets, AddrMapping, MemRequest, ReqId};
use dramctrl_traffic::{RandomGen, Tester};

const READ_PCT: u64 = 67;

fn build(depth: usize, reference: bool) -> DramCtrl {
    let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
    cfg.page_policy = PagePolicy::OpenAdaptive;
    cfg.scheduling = SchedPolicy::FrFcfs;
    cfg.read_buffer_size = depth;
    cfg.write_buffer_size = depth;
    if reference {
        DramCtrl::new_reference(cfg).expect("valid config")
    } else {
        DramCtrl::new(cfg).expect("valid config")
    }
}

/// Offers `requests` 64-byte requests as fast as flow control allows,
/// advancing simulated time only when a queue is full — the queues sit at
/// capacity for essentially the whole run.
fn drive(ctrl: &mut DramCtrl, requests: u64) {
    let mut rng = Rng::seed_from_u64(0x5CA1E);
    let mut out = Vec::with_capacity(256);
    let mut now: Tick = 0;
    for i in 0..requests {
        let addr = rng.gen_range(0..(512 << 20) / 64) * 64;
        let req = if rng.gen_range(0..100) < READ_PCT {
            MemRequest::read(ReqId(i), addr, 64)
        } else {
            MemRequest::write(ReqId(i), addr, 64)
        };
        loop {
            match ctrl.try_send(req, now) {
                Ok(()) => break,
                Err(_) => {
                    let t = ctrl.next_event().expect("full queues imply pending work");
                    ctrl.advance_to(t, &mut out);
                    out.clear();
                    now = now.max(t);
                }
            }
        }
    }
    ctrl.drain(&mut out);
}

/// Best requests/second over `iters` runs.
fn measure_rps(depth: usize, reference: bool, requests: u64, iters: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..iters {
        let mut ctrl = build(depth, reference);
        let ((), secs) = timed(|| drive(&mut ctrl, requests));
        best = best.max(requests as f64 / secs);
    }
    best
}

struct DepthResult {
    depth: usize,
    indexed_rps: f64,
    reference_rps: f64,
}

fn main() {
    let mut short = false;
    let mut check = false;
    let mut json_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sched_scaling.json"
    )
    .to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--short" => short = true,
            "--check" => check = true,
            "--json" => json_path = args.next().expect("--json needs a path"),
            // `cargo bench` passes --bench through to the binary.
            "--bench" => {}
            other => panic!("unknown argument {other:?}"),
        }
    }

    let depths: &[usize] = if short {
        &[16, 256]
    } else {
        &[16, 64, 256, 1024]
    };
    let requests: u64 = if short { 6_000 } else { 30_000 };
    let iters = if short { 1 } else { 3 };

    if check {
        // Equivalence first: a fast wrong scheduler is not an optimisation.
        for seed in 0..8u64 {
            let wl = diff::random_workload(0xC0DE + seed, 120, 4);
            let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
            cfg.page_policy = PagePolicy::OpenAdaptive;
            cfg.scheduling = SchedPolicy::FrFcfs;
            cfg.read_buffer_size = 256;
            cfg.write_buffer_size = 256;
            cfg.qos_priorities = vec![0, 1, 3, 7];
            diff::assert_equivalent(&cfg, &wl);
        }
        println!("check: indexed == reference on 8 random workloads at depth 256\n");
    }

    println!(
        "sched_scaling: saturated Open-Adaptive + FR-FCFS, {requests} requests, \
         {READ_PCT}% reads, best of {iters}\n"
    );
    let mut table = Table::new(["depth", "indexed req/s", "reference req/s", "speedup"]);
    let mut results = Vec::new();
    for &depth in depths {
        let indexed_rps = measure_rps(depth, false, requests, iters);
        let reference_rps = measure_rps(depth, true, requests, iters);
        table.row([
            depth.to_string(),
            f1(indexed_rps),
            f1(reference_rps),
            format!("{:.2}x", indexed_rps / reference_rps),
        ]);
        results.push(DepthResult {
            depth,
            indexed_rps,
            reference_rps,
        });
    }
    table.print();

    // Abbreviated model-speed number (the `speed` binary's headline).
    let n_speed: u64 = if short { 10_000 } else { 50_000 };
    let t = Tester::new(100_000, 1_000);
    let (_, ev_s) = timed(|| {
        let mut g = RandomGen::new(0, 256 << 20, 64, 67, 0, n_speed, 2);
        t.run(
            &mut g,
            &mut ev_ctrl(
                presets::ddr3_1333_x64(),
                PagePolicy::Open,
                AddrMapping::RoRaBaCoCh,
                1,
            ),
        )
    });
    let (_, cy_s) = timed(|| {
        let mut g = RandomGen::new(0, 256 << 20, 64, 67, 0, n_speed, 2);
        t.run(
            &mut g,
            &mut cy_ctrl(
                presets::ddr3_1333_x64(),
                PagePolicy::Open,
                AddrMapping::RoRaBaCoCh,
                1,
            ),
        )
    });
    println!(
        "\nspeed: event {:.3}s, cycle {:.3}s ({:.1}x) on {n_speed} random mixed requests",
        ev_s,
        cy_s,
        cy_s / ev_s
    );

    // The tracked perf-trajectory file (hand-rolled JSON; no deps).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"sched_scaling\",\n  \"schema\": 1,\n");
    json.push_str(&format!(
        "  \"config\": {{\"device\": \"DDR3-1333-x64\", \"policy\": \"open-adaptive\", \
         \"sched\": \"fr-fcfs\", \"read_pct\": {READ_PCT}, \"requests\": {requests}, \
         \"short\": {short}}},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"depth\": {}, \"reference_rps\": {:.0}, \"indexed_rps\": {:.0}, \
             \"speedup\": {:.2}}}{}\n",
            r.depth,
            r.reference_rps,
            r.indexed_rps,
            r.indexed_rps / r.reference_rps,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speed\": {{\"requests\": {n_speed}, \"event_s\": {ev_s:.3}, \
         \"cycle_s\": {cy_s:.3}, \"speedup\": {:.2}}}\n",
        cy_s / ev_s
    ));
    json.push_str("}\n");
    let mut f = std::fs::File::create(&json_path)
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    f.write_all(json.as_bytes()).expect("write json");
    println!("\nwrote {json_path}");

    // Regression gate: the indices must beat the scans at depth 256.
    let gate = results
        .iter()
        .find(|r| r.depth == 256)
        .expect("depth 256 is always measured");
    if gate.indexed_rps <= gate.reference_rps {
        eprintln!(
            "REGRESSION: indexed ({:.0} req/s) not faster than reference ({:.0} req/s) at depth 256",
            gate.indexed_rps, gate.reference_rps
        );
        std::process::exit(1);
    }
}
