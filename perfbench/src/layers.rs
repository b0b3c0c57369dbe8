//! The traced run: the workload once more with spans around every public
//! call, then each layer timed from outside by replaying its public
//! functions on member 0's inputs: the market instance at every
//! Declare/Escalate of its report, and the per-slot power of its timeline.
//!
//! Instances are rebuilt from the jobs the trace has running at the
//! event's time (nominal start and end). The engine's own active set also
//! reflects deferrals and slowdowns, so replayed instances are close to,
//! not equal to, the ones the run cleared. Every timed layer is replayed
//! on every workload, so each per-layer time is a measurement; a layer the
//! workload's config does not enable is still timed but is not subtracted
//! from `engine.other_s`. That includes the `int-lossy` exchange: a sample
//! of the instances is also cleared by MPR-INT over a lossy `SimNet`
//! through the MPR-INT-NET -> MPR-STAT -> EQL chain (`net_replay.*`).

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mpr_apps::{AppProfile, ProfileCost};
use mpr_core::bidding::StaticStrategy;
use mpr_core::{
    BiddingAgent, ChainLevel, CostModel, EqlCappingMechanism, FallbackChain, InteractiveConfig,
    MarketInstance, MclrMechanism, Mechanism, NetGainAgent, ParticipantSpec, ResilientConfig,
    ScaledCost, SimNet, TransportedInteractiveMechanism, UnresponsiveAgent, Watts,
};
use mpr_power::telemetry::{
    EstimatorConfig, FaultySensor, PowerSensor, RobustEstimator, SensorFaultConfig,
};
use mpr_power::{EmergencyConfig, EmergencyController, HierarchicalMarket, TopologyState};
use mpr_sim::{
    Algorithm, DurabilityPlan, EmergencyEventKind, LedgerEvent, MarketLedger, SimConfig, SimReport,
    Simulation, TransportTotals,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::spans::Tracer;
use crate::workloads::{self, Member, Workload};
use crate::{e2e, host, median, Metric, Outcome};

/// Empty waves timed per thread count for `rayon.wave_spawn_us`.
const WAVES: usize = 200;

/// Host-speed kernel runs timed for `host.calibration_ms`.
const KERNEL_SAMPLES: usize = 16;

/// Market events cleared over the lossy network at most, spread evenly
/// over member 0's events: one such clear takes tens of milliseconds.
const NET_CLEARS: usize = 48;

/// Seeds the network of a replayed transported clear apart from its agent
/// faults.
const NET_SEED_XOR: u64 = 0x6e65_745f_7265_706c;

/// Where the span file goes, inside the benchmark's directory.
fn trace_path(w: &Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("trace-out")
        .join(format!("{}-{seed}.json", w.name))
}

/// The `p`-quantile (nearest rank) of a sample, 0 when it is empty.
fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A job's market row, prepared once as the engine does at job start.
struct Row {
    cores: f64,
    unit_dynamic_w: f64,
    cost: Arc<ScaledCost<ProfileCost>>,
    /// Cooperative static bid `(delta_max, bid)`, when constructible.
    supply: Option<(f64, f64)>,
}

/// The profile assignment of `Simulation`: one uniform draw per job from
/// a ChaCha8 stream seeded with the config seed.
fn rows(m: &Member) -> Vec<Row> {
    let mut rng = ChaCha8Rng::seed_from_u64(m.config.seed);
    let profiles = &m.config.profiles;
    m.trace
        .jobs()
        .iter()
        .filter_map(|job| {
            let profile: &Arc<AppProfile> = profiles.get(rng.gen_range(0..profiles.len()))?;
            let cores = f64::from(job.cores);
            let cost = Arc::new(ScaledCost::new(profile.cost_model(m.config.alpha), cores));
            let supply = StaticStrategy::Cooperative
                .supply_for(cost.as_ref())
                .ok()
                .map(|s| (s.delta_max(), s.bid()));
            Some(Row {
                cores,
                unit_dynamic_w: profile.unit_dynamic_power_w(),
                cost,
                supply,
            })
        })
        .collect()
}

/// The market instance over `active` jobs, shaped like the engine's for
/// the config's algorithm.
fn instance(cfg: &SimConfig, rows: &[Row], active: &[usize]) -> MarketInstance {
    active
        .iter()
        .filter_map(|&i| {
            let r = rows.get(i)?;
            let spec =
                |delta: f64| ParticipantSpec::new(i as u64, delta, Watts::new(r.unit_dynamic_w));
            match cfg.algorithm {
                Algorithm::MprStat => r.supply.map(|(delta, bid)| spec(delta).with_bid(bid)),
                Algorithm::Eql => Some(spec(r.cost.delta_max()).with_cores(r.cores)),
                _ => Some(spec(r.cost.delta_max()).with_cost(r.cost.clone())),
            }
        })
        .collect()
}

/// Times one empty same-depth wave of the rayon shim, µs (median).
fn wave_spawn_us(threads: &str) -> f64 {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let mut samples = Vec::with_capacity(WAVES);
    for _ in 0..WAVES {
        let t = Instant::now();
        let out: Vec<usize> = (0..2usize).into_par_iter().map(black_box).collect();
        black_box(out);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    std::env::set_var("RAYON_NUM_THREADS", crate::THREADS);
    median(&samples).unwrap_or(0.0)
}

/// Sums a per-report count over an ensemble.
fn sum(reports: &[SimReport], f: impl Fn(&SimReport) -> usize) -> f64 {
    reports.iter().map(f).sum::<usize>() as f64
}

/// Replay timings of the market layers over member 0's events.
#[derive(Default)]
struct MarketReplay {
    rows: Vec<f64>,
    build_us: Vec<f64>,
    clear_us: Vec<f64>,
    fed_us: Vec<f64>,
    state_at_us: Vec<f64>,
    prune_us: Vec<f64>,
    net: NetReplay,
}

/// The `int-lossy` exchange replayed on a sample of the instances.
#[derive(Default)]
struct NetReplay {
    clear_us: Vec<f64>,
    transport: TransportTotals,
    iterations: usize,
    static_fallbacks: usize,
    quarantined: usize,
}

impl NetReplay {
    /// Clears the jobs `active` of an event over the lossy network of
    /// `net_cfg`, with that config's agent faults, through the
    /// MPR-INT-NET -> MPR-STAT -> EQL chain, and records the clear.
    fn clear(
        &mut self,
        tr: &mut Tracer,
        net_cfg: &SimConfig,
        rows: &[Row],
        active: &[usize],
        target: Watts,
        event: u64,
    ) {
        let (Some(net), Some(faults)) = (net_cfg.net_plan, net_cfg.fault_plan) else {
            return;
        };
        let seed = net_cfg.seed ^ event.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let resilient = ResilientConfig {
            interactive: InteractiveConfig {
                max_iterations: net_cfg.int_max_iterations,
                ..InteractiveConfig::default()
            },
            max_retries: faults.max_retries,
            watchdog_window: faults.watchdog_window,
            divergence_min_change: faults.divergence_min_change,
        };
        let mut level0 = TransportedInteractiveMechanism::new(
            resilient,
            net.transport_config(seed),
            SimNet::new(net.fault_config(), seed ^ NET_SEED_XOR),
        );
        for &i in active {
            let Some(r) = rows.get(i) else { continue };
            let agent = NetGainAgent::new(i as u64, r.cost.clone(), Watts::new(r.unit_dynamic_w));
            let agent: Box<dyn BiddingAgent> = if rng.gen::<f64>() < faults.unresponsive_frac {
                Box::new(UnresponsiveAgent::new(agent, 0))
            } else {
                Box::new(agent)
            };
            level0.register(agent, r.supply.map(|(_, bid)| bid));
        }
        if level0.is_empty() {
            return;
        }
        let inst = level0.instance();
        let mut chain = FallbackChain::new()
            .stage(ChainLevel::Interactive, level0)
            .stage(ChainLevel::StaticFallback, MclrMechanism::best_effort())
            .stage(ChainLevel::EqlCapping, EqlCappingMechanism);
        let (clearing, secs) = tr.leaf("net_replay.clear", || chain.clear(&inst, target));
        self.clear_us.push(secs * 1e6);
        let Ok(clearing) = clearing else { return };
        let d = clearing.diagnostics();
        self.iterations += d.iterations;
        self.quarantined += d.quarantined.len();
        if d.chain_level == Some(ChainLevel::StaticFallback) {
            self.static_fallbacks += 1;
        }
        if let Some(t) = d.transport.as_ref() {
            self.transport.absorb(t);
            self.transport.set_channel_totals(t.channel);
        }
    }
}

fn replay_markets(tr: &mut Tracer, m: &Member, report: &SimReport) -> MarketReplay {
    let cfg = &m.config;
    let rows = rows(m);
    let spec = workloads::tree();
    let plan = workloads::grid_plan();
    let rack_ids = spec.rack_ids();
    let static_w = cfg.power_model.static_w_per_core();
    let root_cap = TopologyState::healthy(&spec).derated_capacity(0).get();
    let jobs = m.trace.jobs();
    let net_cfg = workloads::by_name("int-lossy")
        .map(|w| w.config(cfg.seed, None))
        .unwrap_or_else(|| cfg.clone());
    let events: Vec<_> = report
        .events
        .iter()
        .filter(|e| e.kind != EmergencyEventKind::Lift)
        .collect();
    let net_stride = events.len().div_ceil(NET_CLEARS).max(1);
    let mut out = MarketReplay::default();
    for (n, e) in events.into_iter().enumerate() {
        let active: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.start_secs <= e.t_secs && j.end_secs() > e.t_secs)
            .map(|(i, _)| i)
            .collect();
        let (inst, build) = tr.leaf("instance.build", || instance(cfg, &rows, &active));
        if inst.is_empty() {
            continue;
        }
        out.rows.push(inst.len() as f64);
        out.build_us.push(build * 1e6);
        let target = Watts::new(e.target_watts);
        let (_, clear) = tr.leaf("mechanism.clear", || {
            black_box(mpr_sim::mechanism::for_algorithm(cfg).clear(&inst, target))
        });
        out.clear_us.push(clear * 1e6);
        if n % net_stride == 0 {
            out.net
                .clear(tr, &net_cfg, &rows, &active, target, n as u64 + 1);
        }

        // The federated path over the healthy tree, scaled as the engine
        // scales it: the root's deficit is the event's target.
        let mut load = vec![0.0f64; spec.nodes.len()];
        let assignment: Vec<usize> = inst
            .ids()
            .iter()
            .map(|id| {
                let rack = rack_ids[(*id as usize) % rack_ids.len()];
                if let Some(r) = rows.get(*id as usize) {
                    load[rack] += r.cores * (static_w + r.unit_dynamic_w);
                }
                rack
            })
            .collect();
        let total: f64 = load.iter().sum();
        let scale = (total - e.target_watts).max(total * 1e-3).max(1e-6) / root_cap;
        let Ok(mut hierarchy) = spec.to_hierarchy_scaled(scale) else {
            continue;
        };
        for &rack in &rack_ids {
            let _ = hierarchy.set_load(rack, Watts::new(load[rack]));
        }
        let (_, fed) = tr.leaf("federated.clear", || {
            HierarchicalMarket::new(&hierarchy, assignment).map(|market| {
                black_box(market.clear(&inst, || mpr_sim::mechanism::for_algorithm(cfg)))
            })
        });
        out.fed_us.push(fed * 1e6);

        let (state, state_at) = tr.leaf("gridfault.state_at", || plan.state_at(&spec, e.t_secs));
        out.state_at_us.push(state_at * 1e6);
        let (_, prune) = tr.leaf("gridfault.prune", || {
            black_box(state.to_hierarchy_scaled(scale))
        });
        out.prune_us.push(prune * 1e6);
    }
    out
}

/// Replays the telemetry pipeline and the emergency FSM over member 0's
/// per-slot power. Returns (telemetry s, emergency s, slots).
fn replay_slot_layers(
    tr: &mut Tracer,
    m: &Member,
    timeline: &mpr_sim::Timeline,
) -> (f64, f64, f64) {
    let cfg = &m.config;
    let (sensor, estimator): (SensorFaultConfig, EstimatorConfig) = cfg
        .telemetry
        .map_or((workloads::wal_sensor(), EstimatorConfig::default()), |t| {
            (t.sensor, t.estimator)
        });
    let slot = timeline.slot_secs;
    let (_, telemetry) = tr.leaf("telemetry.observe", || {
        let mut s = FaultySensor::new(sensor, cfg.seed);
        let mut est = RobustEstimator::new(estimator);
        for (i, p) in timeline.power_w.iter().enumerate() {
            let t = i as f64 * slot;
            let reading = s.sample(t, Watts::new(*p));
            black_box(est.observe(t, reading));
        }
    });
    let (_, emergency) = tr.leaf("emergency.step", || {
        let first = timeline.capacity_w.first().copied().unwrap_or(0.0);
        let mut c = EmergencyController::new(EmergencyConfig {
            capacity: Watts::new(first),
            buffer_frac: cfg.buffer_frac,
            min_overload_secs: 0.0,
            cooldown_secs: cfg.cooldown_secs,
        });
        let series = timeline
            .power_w
            .iter()
            .zip(&timeline.capacity_w)
            .zip(&timeline.reduction_w);
        for (i, ((p, cap), red)) in series.enumerate() {
            c.set_capacity(Watts::new(*cap));
            black_box(c.step(i as f64 * slot, Watts::new(*p)));
            if c.phase().is_active() {
                c.record_delivered(Watts::new(*red));
            }
        }
    });
    (telemetry, emergency, timeline.power_w.len() as f64)
}

/// Durable-path measurements on member 0.
struct LedgerReplay {
    records: f64,
    payments: f64,
    bytes: f64,
    append_s: f64,
    scan_s: f64,
    records_replayed: f64,
    overhead_s: f64,
    checkpoint_s: f64,
    recover_s: f64,
}

fn replay_ledger(tr: &mut Tracer, m: &Member, slots: usize) -> Result<LedgerReplay, String> {
    let mut plain_cfg = m.config.clone();
    plain_cfg.durability = None;
    let base = m.config.durability.unwrap_or_default();
    let kill_at = base
        .kill_at_slot
        .unwrap_or_else(|| (slots as u64 / 3).max(1));
    let with = |plan: DurabilityPlan| {
        let mut c = plain_cfg.clone();
        c.durability = Some(plan);
        c
    };
    let durable = |c: SimConfig| mpr_sim::run_durable(&m.trace, c).map_err(|e| e.to_string());
    let (_, plain_s) = tr.leaf("ledger.plain_run", || {
        black_box(Simulation::new(&m.trace, plain_cfg.clone()).run())
    });
    let no_kill = DurabilityPlan {
        kill_at_slot: None,
        ..base
    };
    let (clean, clean_s) = tr.leaf("ledger.durable_run", || durable(with(no_kill)));
    let clean = clean?;
    let (_, single_s) = tr.leaf("ledger.single_checkpoint_run", || {
        durable(with(DurabilityPlan {
            checkpoint_every: u64::MAX,
            ..no_kill
        }))
    });
    let (killed, killed_s) = tr.leaf("ledger.kill_recover_run", || {
        durable(with(DurabilityPlan {
            kill_at_slot: Some(kill_at),
            ..base
        }))
    });
    let killed = killed?;
    let (scan, scan_s) = tr.leaf("recover.scan", || {
        mpr_durable::scan(&clean.wal_image, Some(m.config.seed))
    });

    // Re-journal the decoded events slot by slot into a fresh ledger.
    let mut slots_events: Vec<(u64, Vec<LedgerEvent>)> = Vec::new();
    let mut pending = Vec::new();
    for r in &scan.records {
        match LedgerEvent::decode(r.kind, &r.payload) {
            Some(LedgerEvent::SlotCommit { slot }) => {
                slots_events.push((slot, std::mem::take(&mut pending)));
            }
            Some(e) => pending.push(e),
            None => break,
        }
    }
    let ledger_cfg = with(no_kill);
    let (appended, append_s) = tr.leaf("ledger.journal_slot", || {
        let mut ledger = MarketLedger::create(&ledger_cfg);
        for (slot, events) in &slots_events {
            ledger.journal_slot(*slot, events);
        }
        ledger.records_journaled()
    });
    let totals = clean.report.durability.unwrap_or_default();
    Ok(LedgerReplay {
        records: totals.records_journaled as f64,
        payments: totals.payments_journaled as f64,
        bytes: clean.wal_image.len() as f64,
        append_s: ratio(append_s, appended as f64),
        scan_s,
        records_replayed: killed
            .report
            .durability
            .map_or(0.0, |d| d.records_replayed as f64),
        overhead_s: clean_s - plain_s,
        checkpoint_s: clean_s - single_s,
        recover_s: killed_s - clean_s,
    })
}

/// The traced run: per-layer metrics.
pub fn run(w: &Workload, seed: u64) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let (setup, _) = tr.span("setup", |tr| w.setup(seed, tr));
    let (members, generate_s) = (setup.members, setup.generate_s);

    let (untraced, _) = tr.leaf("run.untraced", || {
        e2e::pass(&members, &mut Tracer::off(), false)
    });
    let (traced, _) = tr.span("run.traced", |tr| e2e::pass(&members, tr, false));
    let (two_threads, _) = tr.leaf("run.2threads", || {
        std::env::set_var("RAYON_NUM_THREADS", crate::PARALLEL_THREADS);
        let p = e2e::pass(&members, &mut Tracer::off(), false);
        std::env::set_var("RAYON_NUM_THREADS", crate::THREADS);
        p
    });
    let passes = vec![
        traced.reports.clone(),
        untraced.reports.clone(),
        two_threads.reports.clone(),
    ];
    let verdicts = e2e::judge(w, &members, &passes);
    for (name, v) in ["traced", "untraced", "2-thread"].iter().zip(&verdicts) {
        if !v.is_empty() {
            eprintln!("{name} pass failed: {}", v.join("; "));
        }
    }
    let failed = verdicts.iter().filter(|v| !v.is_empty()).count();
    let reports = traced.reports.clone()?;
    let m0 = members.first().ok_or("no members")?;
    let r0 = reports.first().ok_or("no reports")?;

    let (layers, _) = tr.span("replay", |tr| {
        let (timeline_report, _) = tr.leaf("replay.timeline", || {
            let mut c = m0.config.clone();
            c.durability = None;
            Simulation::new(&m0.trace, c.with_timeline()).run()
        });
        let timeline = timeline_report.timeline.unwrap_or_default();
        let slot_layers = replay_slot_layers(tr, m0, &timeline);
        let markets = replay_markets(tr, m0, r0);
        let (waves, _) = tr.leaf("rayon.wave", || {
            (wave_spawn_us(crate::PARALLEL_THREADS), wave_spawn_us("1"))
        });
        let (ledger, _) = tr.span("replay.ledger", |tr| replay_ledger(tr, m0, r0.total_slots));
        let (kernel, _) = tr.leaf("host.calibrate", || {
            (0..KERNEL_SAMPLES)
                .map(|_| host::sample())
                .collect::<Vec<_>>()
        });
        (slot_layers, markets, waves, ledger, kernel)
    });
    let ((telemetry_s, emergency_s, timeline_slots), markets, (wave2, wave1), ledger, kernel) =
        layers;
    let ledger = ledger?;

    // Counts over the ensemble, straight from the reports.
    let declares = sum(&reports, |r| {
        r.events
            .iter()
            .filter(|e| e.kind == EmergencyEventKind::Declare)
            .count()
    });
    let escalations = sum(&reports, |r| {
        r.events
            .iter()
            .filter(|e| e.kind == EmergencyEventKind::Escalate)
            .count()
    });
    let lifts = sum(&reports, |r| {
        r.events
            .iter()
            .filter(|e| e.kind == EmergencyEventKind::Lift)
            .count()
    });
    let slots = sum(&reports, |r| r.total_slots);
    let tel = |f: fn(&mpr_power::TelemetryHealth) -> usize| {
        sum(&reports, |r| r.telemetry.as_ref().map_or(0, f))
    };
    let net = |f: fn(&mpr_sim::TransportTotals) -> usize| {
        sum(&reports, |r| r.transport.as_ref().map_or(0, f))
    };
    let fed = |f: fn(&mpr_sim::report::FederatedStats) -> usize| {
        sum(&reports, |r| r.federated.as_ref().map_or(0, f))
    };

    // Layer time member 0's run spent outside the replayed layers.
    let cfg0 = &m0.config;
    let clears: f64 = if cfg0.is_federated() {
        markets.fed_us.iter().sum()
    } else {
        markets.clear_us.iter().sum()
    };
    let mut layer_s = emergency_s + (markets.build_us.iter().sum::<f64>() + clears) * 1e-6;
    if cfg0.telemetry.is_some() {
        layer_s += telemetry_s;
    }
    if cfg0.active_grid_fault().is_some() {
        layer_s +=
            (markets.state_at_us.iter().sum::<f64>() + markets.prune_us.iter().sum::<f64>()) * 1e-6;
    }
    if cfg0.durability.is_some() {
        layer_s += ledger.append_s * ledger.records;
    }
    let member0_s = traced.member_secs.first().copied().unwrap_or(0.0);
    let flat_clear: f64 = markets.clear_us.iter().sum();

    let metrics = vec![
        Metric::new("workload.generate_s", generate_s, "s"),
        Metric::new(
            "workload.jobs",
            members.iter().map(|m| m.trace.len()).sum::<usize>() as f64,
            "count",
        ),
        Metric::new("engine.slots", slots, "count"),
        Metric::new(
            "engine.overload_slots",
            sum(&reports, |r| r.overload_slots),
            "count",
        ),
        Metric::new(
            "engine.jobs_deferred",
            sum(&reports, |r| r.jobs_deferred),
            "count",
        ),
        Metric::new("engine.us_per_slot", ratio(traced.secs * 1e6, slots), "us"),
        Metric::new("engine.other_s", member0_s - layer_s, "s"),
        Metric::new(
            "telemetry.observe_ns",
            ratio(telemetry_s * 1e9, timeline_slots),
            "ns",
        ),
        Metric::new(
            "telemetry.samples_missed",
            tel(|h| h.samples_missed),
            "count",
        ),
        Metric::new(
            "telemetry.outliers_rejected",
            tel(|h| h.outliers_rejected),
            "count",
        ),
        Metric::new("telemetry.stale_polls", tel(|h| h.stale_polls), "count"),
        Metric::new(
            "emergency.step_ns",
            ratio(emergency_s * 1e9, timeline_slots),
            "ns",
        ),
        Metric::new("emergency.declares", declares, "count"),
        Metric::new("emergency.escalations", escalations, "count"),
        Metric::new("emergency.lifts", lifts, "count"),
        Metric::new(
            "emergency.unmet_frac",
            ratio(
                sum(&reports, |r| r.unmet_emergencies),
                declares + escalations,
            ),
            "ratio",
        ),
        Metric::new(
            "instance.rows_mean",
            ratio(markets.rows.iter().sum(), markets.rows.len() as f64),
            "rows",
        ),
        Metric::new(
            "instance.rows_max",
            markets.rows.iter().copied().fold(0.0, f64::max),
            "rows",
        ),
        Metric::new(
            "instance.build_us",
            median(&markets.build_us).unwrap_or(0.0),
            "us",
        ),
        Metric::new("clear.count", declares + escalations, "count"),
        Metric::new("clear.us_p50", quantile(&markets.clear_us, 0.5), "us"),
        Metric::new("clear.us_p90", quantile(&markets.clear_us, 0.9), "us"),
        Metric::new(
            "int.iterations_per_event",
            ratio(
                sum(&reports, |r| r.int_iterations_total),
                sum(&reports, |r| r.overload_events),
            ),
            "count",
        ),
        Metric::new("transport.rounds", net(|t| t.rounds), "count"),
        Metric::new("transport.retransmits", net(|t| t.retransmits), "count"),
        Metric::new(
            "transport.messages_dropped",
            net(|t| t.messages_dropped),
            "count",
        ),
        Metric::new(
            "transport.straggler_rounds",
            net(|t| t.straggler_rounds),
            "count",
        ),
        Metric::new(
            "transport.accept_frac",
            ratio(net(|t| t.replies_accepted), net(|t| t.announces)),
            "ratio",
        ),
        Metric::new(
            "chain.static_fallbacks",
            sum(&reports, |r| r.degradation.static_fallbacks),
            "count",
        ),
        Metric::new(
            "chain.rounds_retried",
            sum(&reports, |r| r.degradation.rounds_retried),
            "count",
        ),
        Metric::new(
            "chain.quarantined",
            sum(&reports, |r| r.degradation.participants_quarantined),
            "count",
        ),
        Metric::new(
            "net_replay.clear_us_p50",
            quantile(&markets.net.clear_us, 0.5),
            "us",
        ),
        Metric::new(
            "net_replay.clear_us_p90",
            quantile(&markets.net.clear_us, 0.9),
            "us",
        ),
        Metric::new(
            "net_replay.clears",
            markets.net.clear_us.len() as f64,
            "count",
        ),
        Metric::new(
            "net_replay.iterations_per_clear",
            ratio(
                markets.net.iterations as f64,
                markets.net.clear_us.len() as f64,
            ),
            "count",
        ),
        Metric::new(
            "net_replay.rounds",
            markets.net.transport.rounds as f64,
            "count",
        ),
        Metric::new(
            "net_replay.retransmits",
            markets.net.transport.retransmits as f64,
            "count",
        ),
        Metric::new(
            "net_replay.messages_dropped",
            markets.net.transport.messages_dropped as f64,
            "count",
        ),
        Metric::new(
            "net_replay.accept_frac",
            ratio(
                markets.net.transport.replies_accepted as f64,
                markets.net.transport.announces as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "net_replay.static_fallbacks",
            markets.net.static_fallbacks as f64,
            "count",
        ),
        Metric::new(
            "net_replay.quarantined",
            markets.net.quarantined as f64,
            "count",
        ),
        Metric::new(
            "federated.clear_us_p50",
            quantile(&markets.fed_us, 0.5),
            "us",
        ),
        Metric::new(
            "federated.clear_us_p90",
            quantile(&markets.fed_us, 0.9),
            "us",
        ),
        Metric::new(
            "federated.markets_per_event",
            ratio(fed(|f| f.markets), fed(|f| f.events)),
            "count",
        ),
        Metric::new("federated.rounds", fed(|f| f.rounds), "count"),
        Metric::new(
            "federated.partition_tax",
            ratio(markets.fed_us.iter().sum(), flat_clear),
            "ratio",
        ),
        Metric::new("federated.run_s_1t", untraced.secs, "s"),
        Metric::new("federated.run_s_2t", two_threads.secs, "s"),
        Metric::new("rayon.wave_spawn_us", wave2, "us"),
        Metric::new("rayon.wave_spawn_us_1t", wave1, "us"),
        Metric::new(
            "gridfault.state_at_us",
            median(&markets.state_at_us).unwrap_or(0.0),
            "us",
        ),
        Metric::new(
            "gridfault.prune_us",
            median(&markets.prune_us).unwrap_or(0.0),
            "us",
        ),
        Metric::new(
            "gridfault.fault_slots",
            fed(|f| f.grid_fault_slots),
            "count",
        ),
        Metric::new("gridfault.fenced_nodes", fed(|f| f.fenced_nodes), "count"),
        Metric::new(
            "gridfault.reassigned_jobs",
            fed(|f| f.reassigned_jobs),
            "count",
        ),
        Metric::new("ledger.records", ledger.records, "count"),
        Metric::new("ledger.payments", ledger.payments, "count"),
        Metric::new("ledger.bytes", ledger.bytes, "bytes"),
        Metric::new("ledger.append_ns", ledger.append_s * 1e9, "ns"),
        Metric::new("recover.scan_ms", ledger.scan_s * 1e3, "ms"),
        Metric::new("recover.records_replayed", ledger.records_replayed, "count"),
        Metric::new("durable.overhead_s", ledger.overhead_s, "s"),
        Metric::new("checkpoint.cost_s", ledger.checkpoint_s, "s"),
        Metric::new("recover.cost_s", ledger.recover_s, "s"),
        Metric::new("trace.overhead_s", traced.secs - untraced.secs, "s"),
        Metric::new(
            "host.calibration_ms",
            median(&kernel).unwrap_or(0.0) * 1e3,
            "ms",
        ),
    ];
    for m in &metrics {
        tr.counter(m.name, m.value);
    }
    let path = trace_path(w, seed);
    let meta = [
        ("workload", format!("\"{}\"", w.name)),
        ("seed", seed.to_string()),
        ("members", w.members.to_string()),
        ("rayon_num_threads", crate::THREADS.to_owned()),
        (
            "rayon_num_threads_2t_pass",
            crate::PARALLEL_THREADS.to_owned(),
        ),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
    ];
    tr.write(&path, &meta)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(Outcome {
        attempted: passes.len(),
        failed,
        metrics,
    })
}
