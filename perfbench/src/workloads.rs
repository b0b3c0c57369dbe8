//! The benchmark workloads. Every one is the Gaia trace at 15 %
//! oversubscription; they differ in which layers of the simulator do the
//! work (see `README.md` for the rationale and the counts each produced).
//!
//! A run of a workload simulates an ensemble of `members` traces whose
//! seeds derive from the workload seed. One trace is a small sample of a
//! bursty cluster: its overload count, and with it the run time, varies by
//! a factor of two or more between seeds. The ensemble averages that out,
//! so runs made with different seeds measure comparable amounts of work.

use std::time::Instant;

use mpr_power::telemetry::SensorFaultConfig;
use mpr_power::{GridFaultPlan, TopologySpec};
use mpr_sim::{
    Algorithm, DurabilityPlan, FaultPlan, FsyncPolicy, NetPlan, SimConfig, TelemetryConfig,
};
use mpr_workload::{ClusterSpec, Trace, TraceGenerator};

use crate::spans::Tracer;

/// The repository's example power tree.
pub const TREE_JSON: &str = include_str!("../../examples/tree.json");

/// The `SimConfig` default seed, used when no `--seed` is given.
pub const DEFAULT_SEED: u64 = 0x6d70_7221;

/// Oversubscription level of every workload, percent.
const OVERSUB_PCT: f64 = 15.0;

/// Seed of the `tree-gridfault` infrastructure fault schedule.
const GRID_FAULT_SEED: u64 = 7;

/// Fraction of the arrival span after which `wal-recover` kills the
/// manager.
const KILL_FRAC: f64 = 1.0 / 3.0;

/// Odd stride separating the seeds of ensemble members.
const MEMBER_SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Trace span of each member, days.
    pub days: f64,
    /// Traces simulated per run.
    pub members: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "flat-stat",
        days: 92.0,
        members: 16,
    },
    Workload {
        name: "int-lossy",
        days: 7.0,
        members: 4,
    },
    Workload {
        name: "tree-gridfault",
        days: 14.0,
        members: 16,
    },
    Workload {
        name: "wal-recover",
        days: 7.0,
        members: 4,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One simulation of the ensemble: what the program receives.
pub struct Member {
    pub trace: Trace,
    pub config: SimConfig,
}

/// The ensemble of one set-up and what it took.
pub struct Setup {
    pub members: Vec<Member>,
    /// Seconds each member's set-up took.
    pub member_secs: Vec<f64>,
    /// The share of them spent generating traces, seconds.
    pub generate_s: f64,
}

/// The sensor fault mix of `wal-recover`.
pub fn wal_sensor() -> SensorFaultConfig {
    SensorFaultConfig {
        noise_sigma_frac: 0.02,
        dropout_prob: 0.2,
        ..SensorFaultConfig::default()
    }
}

/// The infrastructure fault plan of `tree-gridfault`.
pub fn grid_plan() -> GridFaultPlan {
    GridFaultPlan {
        seed: GRID_FAULT_SEED,
        ..GridFaultPlan::ups_outage(0.5)
    }
}

/// Parses the benchmark's power tree.
///
/// # Panics
///
/// Panics if the checked-in tree does not parse (a broken benchmark).
pub fn tree() -> TopologySpec {
    TopologySpec::parse(TREE_JSON).expect("the benchmark's tree.json parses")
}

impl Workload {
    /// The seed of ensemble member `i`; member 0 uses the workload seed
    /// itself.
    pub fn member_seed(seed: u64, i: usize) -> u64 {
        seed.wrapping_add((i as u64).wrapping_mul(MEMBER_SEED_STRIDE))
    }

    /// Generates the traces, parses the topology and builds the configs:
    /// the set-up the benchmark times as `setup_s`. Each step runs in a span
    /// of `tr`.
    pub fn setup(&self, seed: u64, tr: &mut Tracer) -> Setup {
        let mut generate_s = 0.0;
        let mut member_secs = Vec::with_capacity(self.members);
        let members = (0..self.members)
            .map(|i| {
                let start = Instant::now();
                let member_seed = Self::member_seed(seed, i);
                let (trace, g) = tr.leaf("workload.generate", || self.generate(member_seed));
                generate_s += g;
                let (topology, _) = tr.leaf("topology.parse", || self.topology());
                let (config, _) = tr.leaf("config.build", || self.config(member_seed, topology));
                member_secs.push(start.elapsed().as_secs_f64());
                Member { trace, config }
            })
            .collect();
        Setup {
            members,
            member_secs,
            generate_s,
        }
    }

    /// One member's trace.
    pub fn generate(&self, seed: u64) -> Trace {
        let spec = ClusterSpec::gaia().with_span_days(self.days);
        TraceGenerator::new(spec).with_seed(seed).generate()
    }

    /// The power tree, for the workload that clears over one.
    pub fn topology(&self) -> Option<TopologySpec> {
        (self.name == "tree-gridfault").then(tree)
    }

    /// The slot at which `wal-recover` kills the manager.
    fn kill_slot(&self) -> u64 {
        (self.days * 86_400.0 / 60.0 * KILL_FRAC).round() as u64
    }

    /// The workload's configuration for one member.
    pub fn config(&self, seed: u64, topology: Option<TopologySpec>) -> SimConfig {
        let stat = SimConfig::new(Algorithm::MprStat, OVERSUB_PCT).with_seed(seed);
        match (self.name, topology) {
            ("int-lossy", _) => SimConfig::new(Algorithm::MprInt, OVERSUB_PCT)
                .with_seed(seed)
                .with_faults(FaultPlan::unresponsive_and_crash(0.1, 0.0))
                .with_net(NetPlan::lossy(0.2)),
            (_, Some(spec)) => stat.with_topology(spec).with_grid_faults(grid_plan()),
            ("wal-recover", _) => stat
                .with_telemetry(TelemetryConfig::with_faults(wal_sensor()))
                .with_durability(DurabilityPlan {
                    fsync: FsyncPolicy::Always,
                    ..DurabilityPlan::kill_at(self.kill_slot())
                }),
            _ => stat,
        }
    }
}
