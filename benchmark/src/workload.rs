//! The benchmark's workloads: each is one or more campaigns, described
//! once in typed form and rendered both as an in-process [`Campaign`]
//! and as the `dramctrl` axis flags that describe the same campaign.

use dramctrl::{PagePolicy, SchedPolicy};
use dramctrl_campaign::{Campaign, TrafficPattern};
use dramctrl_mem::AddrMapping;

/// How large a run's campaigns are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size, scaled so a trial of every path fits several
    /// times into one run.
    Full,
    /// A few-second size for the self-test.
    Tiny,
}

/// The traffic generators, with the `dramctrl` CLI's default parameters.
#[derive(Debug, Clone, Copy)]
pub enum Gen {
    Linear,
    Random,
    DramAware,
}

impl Gen {
    fn pattern(self) -> TrafficPattern {
        match self {
            Gen::Linear => TrafficPattern::Linear {
                range: 256 << 20,
                block: 64,
            },
            Gen::Random => TrafficPattern::Random {
                range: 256 << 20,
                block: 64,
            },
            Gen::DramAware => TrafficPattern::DramAware {
                stride: 8,
                banks: 4,
            },
        }
    }

    fn flag(self) -> &'static str {
        match self {
            Gen::Linear => "linear",
            Gen::Random => "random",
            Gen::DramAware => "dram-aware",
        }
    }
}

/// One campaign: the axes of a `dramctrl sweep`, and the tenant that
/// submits it to the daemon.
#[derive(Debug, Clone)]
pub struct Def {
    pub tenant: &'static str,
    pub devices: Vec<&'static str>,
    pub policies: Vec<PagePolicy>,
    pub scheds: Vec<SchedPolicy>,
    pub mappings: Vec<AddrMapping>,
    pub channels: Vec<u32>,
    pub gens: Vec<Gen>,
    pub reads: Vec<u8>,
    pub requests: Vec<u64>,
    pub ras: Vec<f64>,
}

impl Def {
    /// The campaign as the CLI builds it from [`Def::flags`].
    pub fn campaign(&self, seed: u64) -> Campaign {
        Campaign::new("sweep", seed)
            .devices(self.devices.iter().copied())
            .policies(self.policies.iter().copied())
            .scheds(self.scheds.iter().copied())
            .mappings(self.mappings.iter().copied())
            .channels(self.channels.iter().copied())
            .traffic(self.gens.iter().map(|g| g.pattern()))
            .read_pcts(self.reads.iter().copied())
            .requests(self.requests.iter().copied())
            .error_rates(self.ras.iter().copied())
    }

    /// The `dramctrl sweep`/`dispatch` axis flags for this campaign.
    pub fn flags(&self, seed: u64) -> Vec<String> {
        fn join<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
            items.iter().map(f).collect::<Vec<_>>().join(",")
        }
        let policy = |p: &PagePolicy| {
            match p {
                PagePolicy::Open => "open",
                PagePolicy::OpenAdaptive => "open-adaptive",
                PagePolicy::Closed => "closed",
                PagePolicy::ClosedAdaptive => "closed-adaptive",
            }
            .to_owned()
        };
        let sched = |s: &SchedPolicy| {
            match s {
                SchedPolicy::Fcfs => "fcfs",
                SchedPolicy::FrFcfs => "frfcfs",
            }
            .to_owned()
        };
        [
            ("--devices", join(&self.devices, |d| (*d).to_owned())),
            ("--policies", join(&self.policies, policy)),
            ("--scheds", join(&self.scheds, sched)),
            ("--mappings", join(&self.mappings, |m| format!("{m:?}"))),
            ("--channels", join(&self.channels, u32::to_string)),
            ("--gens", join(&self.gens, |g| g.flag().to_owned())),
            ("--reads", join(&self.reads, u8::to_string)),
            ("--requests", join(&self.requests, u64::to_string)),
            ("--ras", join(&self.ras, f64::to_string)),
            ("--models", "event".to_owned()),
            ("--seed", seed.to_string()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_owned(), v])
        .collect()
    }
}

/// A named workload: the campaigns one run drives through every path.
#[derive(Debug, Clone)]
pub struct Workload {
    pub defs: Vec<Def>,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["long-sim", "many-short", "mixed-rw"];

const ALL_MAPPINGS: [AddrMapping; 3] = [
    AddrMapping::RoRaBaCoCh,
    AddrMapping::RoRaBaChCo,
    AddrMapping::RoCoRaBaCh,
];

/// The workload called `name`, at `size`.
pub fn by_name(name: &str, size: Size) -> Option<Workload> {
    let tiny = size == Size::Tiny;
    let defs = match name {
        // Few, long single-channel jobs: the per-request path is nearly
        // all of the time, and every daemon unit crosses the preemption
        // quantum 100 times.
        "long-sim" => vec![Def {
            tenant: "long",
            devices: vec!["DDR3-1600-x64", "DDR4-2400-x64"],
            policies: vec![PagePolicy::OpenAdaptive],
            scheds: vec![SchedPolicy::FrFcfs],
            mappings: vec![AddrMapping::RoRaBaCoCh],
            channels: vec![1],
            gens: vec![Gen::Linear, Gen::Random],
            reads: vec![67],
            requests: vec![if tiny { 5_000 } else { 100_000 }],
            ras: vec![0.0],
        }],
        // Thousands of tiny jobs: per-job work (setup, finish, render,
        // handoff, commit, stream) dominates and no unit is preempted.
        "many-short" => vec![Def {
            tenant: "short",
            devices: if tiny {
                vec!["DDR3-1600-x64"]
            } else {
                vec!["DDR3-1600-x64", "DDR4-2400-x64", "LPDDR3-1600-x32"]
            },
            policies: vec![
                PagePolicy::Open,
                PagePolicy::OpenAdaptive,
                PagePolicy::Closed,
                PagePolicy::ClosedAdaptive,
            ],
            scheds: vec![SchedPolicy::Fcfs, SchedPolicy::FrFcfs],
            mappings: ALL_MAPPINGS.to_vec(),
            channels: vec![1],
            gens: vec![Gen::Linear, Gen::Random, Gen::DramAware],
            reads: if tiny { vec![50] } else { vec![0, 33, 67, 100] },
            requests: vec![16, 72],
            ras: vec![0.0],
        }],
        // Write-heavy, multi-channel, RAS-armed jobs a few quanta long,
        // submitted to the daemon by two tenants at once (one per read
        // mix).
        "mixed-rw" => [(0u8, "writer"), (33, "mixed")]
            .into_iter()
            .map(|(reads, tenant)| Def {
                tenant,
                devices: vec!["DDR3-1600-x64"],
                policies: vec![
                    PagePolicy::Closed,
                    PagePolicy::ClosedAdaptive,
                    PagePolicy::OpenAdaptive,
                ],
                scheds: vec![SchedPolicy::Fcfs, SchedPolicy::FrFcfs],
                mappings: vec![AddrMapping::RoRaBaCoCh],
                channels: vec![1, 2, 4],
                gens: vec![Gen::Random, Gen::DramAware],
                reads: vec![reads],
                requests: vec![if tiny { 1_500 } else { 3_000 }],
                ras: vec![0.0, 1e11],
            })
            .collect(),
        _ => return None,
    };
    Some(Workload { defs })
}
