//! Command implementations for the `mpr` CLI.

use std::io::Write;
use std::path::Path;

use std::sync::Arc;

use mpr_core::bidding::StaticStrategy;
use mpr_core::json;
use mpr_core::{
    CoreHours, Cores, CostModel, EqlMechanism, FallbackChain, InteractiveConfig,
    InteractiveMechanism, MarketInstance, MclrMechanism, Mechanism, OptMechanism, OptMethod,
    ParticipantSpec, ScaledCost, VcgMechanism, Watts,
};
use mpr_power::telemetry::SensorFaultConfig;
use mpr_proto::{Experiment, ExperimentConfig};
use mpr_sim::{
    CheckpointPlan, DurabilityPlan, FsyncPolicy, LedgerEvent, SimConfig, Simulation,
    TelemetryConfig,
};
use mpr_workload::TraceGenerator;

use crate::args::{
    spec_by_name, ChaosArgs, LedgerAction, LedgerArgs, LintArgs, MarketArgs, SimulateArgs, SwfArgs,
};

/// Runs `mpr lint`: the workspace static-analysis pass (L1–L8), with the
/// incremental cache at `target/mpr-lint.cache` unless `--no-cache`.
///
/// Returns `Ok(true)` when the workspace is clean and within the exemption
/// budget, `Ok(false)` otherwise (the caller maps that to a nonzero exit).
///
/// # Errors
///
/// Propagates I/O failures from scanning the workspace or writing `out`.
pub fn lint(args: &LintArgs, out: &mut dyn Write) -> Result<bool, Box<dyn std::error::Error>> {
    let root = match &args.root {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir()?;
            mpr_lint::find_workspace_root(&cwd)
                .ok_or_else(|| format!("no workspace Cargo.toml found above {}", cwd.display()))?
        }
    };
    let cache_path = (!args.no_cache).then(|| root.join("target/mpr-lint.cache"));
    let (report, stats) = mpr_lint::analyze_workspace_cached(&root, cache_path.as_deref())?;
    if args.sarif {
        write!(out, "{}", mpr_lint::to_sarif(&report))?;
    } else if args.json {
        write!(out, "{}", mpr_lint::to_json(&report))?;
    } else {
        for v in &report.violations {
            writeln!(out, "{}:{}: [{}] {}", v.file, v.line, v.rule, v.message)?;
        }
        if !report.violations.is_empty() {
            writeln!(out)?;
        }
        writeln!(
            out,
            "mpr-lint: {} file(s) scanned ({} cached, {} analyzed), {} violation(s), \
             {} exemption(s) used (budget {})",
            report.files_scanned,
            stats.reused,
            stats.analyzed,
            report.violations.len(),
            report.exemptions_used.len(),
            mpr_lint::MAX_EXEMPTIONS
        )?;
        for e in &report.exemptions_used {
            writeln!(
                out,
                "  exempt {}:{} [{}] — {}",
                e.file, e.line, e.rule, e.reason
            )?;
        }
    }
    Ok(report.ok())
}

/// Runs `mpr simulate`, writing the report to `out`.
///
/// # Errors
///
/// Returns [`crate::args::UsageError`] for unknown traces; I/O errors are propagated as
/// boxed errors.
pub fn simulate(
    args: &SimulateArgs,
    out: &mut dyn Write,
) -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec_by_name(&args.trace)?.with_span_days(args.days);
    let trace = TraceGenerator::new(spec).with_seed(args.seed).generate();
    let mut config = SimConfig::new(args.algorithm, args.oversub_pct)
        .with_participation(args.participation)
        .with_seed(args.seed);
    let plan = args.fault_plan();
    if plan.is_active() {
        config = config.with_faults(plan);
    }
    let net = args.net_plan();
    if net.is_active() {
        config = config.with_net(net);
    }
    let sensor = SensorFaultConfig {
        noise_sigma_frac: args.sensor_noise,
        dropout_prob: args.sensor_dropout,
        delay_polls: args.sensor_stale,
        ..SensorFaultConfig::default()
    };
    if sensor.is_active() {
        config = config.with_telemetry(TelemetryConfig::with_faults(sensor));
    }
    if let Some(path) = &args.topology {
        let text = std::fs::read_to_string(path).map_err(|e| format!("--topology {path}: {e}"))?;
        let spec =
            mpr_power::TopologySpec::parse(&text).map_err(|e| format!("--topology {path}: {e}"))?;
        config = config.with_topology(spec);
        let mut grid = mpr_power::GridFaultPlan {
            ups_failure_prob: args.tree_fault_ups,
            ats_derate_prob: args.tree_fault_ats,
            pdu_trip_prob: args.tree_fault_pdu,
            derate_prob: args.tree_fault_derate,
            ..mpr_power::GridFaultPlan::default()
        };
        if args.tree_fault_seed != 0 {
            grid.seed = args.tree_fault_seed;
        }
        if args.tree_fault_repair_secs > 0.0 {
            grid.repair_secs = args.tree_fault_repair_secs;
        }
        if grid.is_active() {
            config = config.with_grid_faults(grid);
        }
    }
    let r = if let Some(wal_path) = &args.wal {
        config = config.with_durability(DurabilityPlan {
            fsync: args.wal_fsync.unwrap_or(FsyncPolicy::Always),
            ..DurabilityPlan::default()
        });
        let run = mpr_sim::run_durable(&trace, config)?;
        // The ledger image gets the same crash-durable write discipline as
        // checkpoints: temp file + fsync + rename.
        mpr_durable::fsio::atomic_replace(Path::new(wal_path), &run.wal_image)?;
        run.report
    } else {
        let sim = Simulation::new(&trace, config);
        let ckpt_plan = args
            .checkpoint_path
            .as_ref()
            .map(|p| CheckpointPlan::every(p, args.checkpoint_every));
        match (&args.resume_from, &ckpt_plan) {
            (Some(from), Some(ckpt_plan)) => sim
                .resume_with_checkpoints(Path::new(from), ckpt_plan)?
                .into_report()
                .expect("no kill point configured"),
            (Some(from), None) => sim.resume(Path::new(from))?,
            (None, Some(ckpt_plan)) => sim
                .run_with_checkpoints(ckpt_plan)?
                .into_report()
                .expect("no kill point configured"),
            (None, None) => sim.run(),
        }
    };
    if args.csv {
        // Column unit tokens come from the unit newtypes, not hand-written
        // strings: `_w` from `Watts::SUFFIX`, `_ch` from `CoreHours::SUFFIX`.
        let w = Watts::SUFFIX.trim().to_ascii_lowercase();
        let ch = CoreHours::SUFFIX.trim().to_ascii_lowercase();
        writeln!(
            out,
            "trace,algorithm,oversub_pct,days,jobs,overload_pct,overload_events,\
             reduction_{ch},cost_{ch},reward_{ch},avg_runtime_increase_pct,\
             jobs_affected_pct,rounds_retried,quarantined,chain_level,residual_overload_{w},\
             sensor_samples_missed,sensor_outliers_rejected,sensor_stale_polls,\
             net_rounds,net_retransmits,net_straggler_rounds,net_messages_dropped,\
             fed_markets,fed_rounds,fed_residual_{w},\
             fed_grid_fault_slots,fed_fenced_nodes,fed_derated_nodes,\
             fed_reassigned_jobs,fed_quarantined_jobs,fed_dead_cleared_{w},\
             fed_derate_excess_{w},fed_post_repair_events"
        )?;
        writeln!(
            out,
            "{},{},{},{},{},{:.4},{},{:.3},{:.3},{:.3},{:.4},{:.3},{},{},{},{:.3},{},{},{},{},{},{},{},{},{},{:.3},{},{},{},{},{},{:.3},{:.6},{}",
            r.trace_name,
            r.algorithm,
            r.oversubscription_pct,
            args.days,
            r.jobs_total,
            r.overload_time_pct(),
            r.overload_events,
            r.reduction_core_hours,
            r.cost_core_hours,
            r.reward_core_hours,
            r.avg_runtime_increase_pct,
            r.jobs_affected_pct(),
            r.degradation.rounds_retried,
            r.degradation.participants_quarantined,
            r.degradation
                .deepest_chain_level
                .map_or_else(|| "none".to_owned(), |l| l.to_string()),
            r.degradation.residual_overload_watts,
            r.telemetry.map_or(0, |h| h.samples_missed),
            r.telemetry.map_or(0, |h| h.outliers_rejected),
            r.telemetry.map_or(0, |h| h.stale_polls),
            r.transport.map_or(0, |t| t.rounds),
            r.transport.map_or(0, |t| t.retransmits),
            r.transport.map_or(0, |t| t.straggler_rounds),
            r.transport.map_or(0, |t| t.messages_dropped),
            r.federated.as_ref().map_or(0, |f| f.markets),
            r.federated.as_ref().map_or(0, |f| f.rounds),
            r.federated.as_ref().map_or(0.0, |f| f.residual_watts),
            r.federated.as_ref().map_or(0, |f| f.grid_fault_slots),
            r.federated.as_ref().map_or(0, |f| f.fenced_nodes),
            r.federated.as_ref().map_or(0, |f| f.derated_nodes),
            r.federated.as_ref().map_or(0, |f| f.reassigned_jobs),
            r.federated.as_ref().map_or(0, |f| f.quarantined_jobs),
            r.federated.as_ref().map_or(0.0, |f| f.dead_cleared_watts),
            r.federated.as_ref().map_or(0.0, |f| f.derate_excess_watts),
            r.federated.as_ref().map_or(0, |f| f.post_repair_events),
        )?;
    } else {
        writeln!(
            out,
            "{} | {} | {}% oversubscription | {} days",
            r.trace_name, r.algorithm, r.oversubscription_pct, args.days
        )?;
        writeln!(out, "  jobs:                {}", r.jobs_total)?;
        writeln!(
            out,
            "  overloaded:          {:.2}% of time, {} emergencies",
            r.overload_time_pct(),
            r.overload_events
        )?;
        writeln!(
            out,
            "  resource reduction:  {:.1}",
            CoreHours::new(r.reduction_core_hours)
        )?;
        writeln!(
            out,
            "  performance cost:    {:.1}",
            CoreHours::new(r.cost_core_hours)
        )?;
        writeln!(
            out,
            "  rewards paid:        {:.1}{}",
            CoreHours::new(r.reward_core_hours),
            r.reward_pct_of_cost()
                .map_or_else(String::new, |p| format!(" ({p:.0}% of cost)"))
        )?;
        writeln!(
            out,
            "  runtime increase:    {:.2}% (affected jobs: {:.1}%)",
            r.avg_runtime_increase_pct,
            r.jobs_affected_pct()
        )?;
        if plan.is_active() || r.degradation.any_degradation() {
            let d = &r.degradation;
            writeln!(
                out,
                "  degradation:         {} rounds retried, {} quarantined, \
                 {} static fallbacks, {} EQL cappings, deepest level {}, \
                 residual overload {:.1}",
                d.rounds_retried,
                d.participants_quarantined,
                d.static_fallbacks,
                d.eql_cappings,
                d.deepest_chain_level
                    .map_or_else(|| "none".to_owned(), |l| l.to_string()),
                Watts::new(d.residual_overload_watts),
            )?;
        }
        if let Some(h) = r.telemetry {
            writeln!(
                out,
                "  telemetry:           {} samples delivered, {} missed, \
                 {} outliers rejected, {} stale polls",
                h.samples_delivered, h.samples_missed, h.outliers_rejected, h.stale_polls,
            )?;
        }
        if let Some(t) = r.transport {
            writeln!(
                out,
                "  transport:           {} rounds over {} clearings, \
                 {} retransmits, {} straggler rounds, {} quarantined by deadline, \
                 {} messages dropped, {} duplicated",
                t.rounds,
                t.clearings,
                t.retransmits,
                t.straggler_rounds,
                t.deadline_quarantines,
                t.messages_dropped,
                t.messages_duplicated,
            )?;
        }
        if let Some(d) = r.durability {
            writeln!(
                out,
                "  ledger:              {} records journaled ({} payments), \
                 commit slot {}, ledger rewards {:.1}{}",
                d.records_journaled,
                d.payments_journaled,
                d.recovered_commit_slot
                    .map_or_else(|| "none".to_owned(), |s| s.to_string()),
                CoreHours::new(d.ledger_reward_core_hours),
                if d.ledger_wedged { " [WEDGED]" } else { "" },
            )?;
        }
        if let Some(f) = &r.federated {
            writeln!(
                out,
                "  federated:           {} subtree markets over {} clearings, \
                 {} rounds, residual {:.1}, {} infeasible",
                f.markets,
                f.events,
                f.rounds,
                Watts::new(f.residual_watts),
                f.infeasible_events,
            )?;
            if f.grid_fault_slots > 0 {
                writeln!(
                    out,
                    "  grid faults:         {} faulted slots, {} node-slots fenced, \
                     {} derated, {} jobs reassigned, {} quarantined, \
                     {} post-repair clearings",
                    f.grid_fault_slots,
                    f.fenced_nodes,
                    f.derated_nodes,
                    f.reassigned_jobs,
                    f.quarantined_jobs,
                    f.post_repair_events,
                )?;
            }
            // Levels print root-first: by depth, then by node name.
            let mut levels: Vec<_> = f.levels.iter().collect();
            levels.sort_by_key(|(name, lv)| (lv.depth, (*name).clone()));
            for (name, lv) in levels {
                writeln!(
                    out,
                    "    {:<12} depth {} | {} markets | target {:.1} | \
                     cleared {:.1} | residual {:.1}",
                    name,
                    lv.depth,
                    lv.markets,
                    Watts::new(lv.target_watts),
                    Watts::new(lv.cleared_watts),
                    Watts::new(lv.residual_watts),
                )?;
            }
        }
    }
    Ok(())
}

/// Runs `mpr ledger`: offline inspection and repair of a WAL image written
/// by `mpr simulate --wal` (or recovered from a crashed manager).
///
/// # Errors
///
/// `verify` returns an error — nonzero exit — when the log has a corrupt
/// tail; all actions propagate I/O errors and `truncate` refuses a log
/// whose segment header is unreadable.
pub fn ledger(args: &LedgerArgs, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    let bytes = std::fs::read(&args.path)?;
    let report = mpr_durable::scan(&bytes, None);
    match args.action {
        LedgerAction::Dump => {
            if args.json {
                writeln!(out, "{{")?;
                writeln!(
                    out,
                    "  \"stream_id\": {},",
                    report
                        .stream_id
                        .map_or_else(|| "null".to_owned(), |s| s.to_string())
                )?;
                writeln!(out, "  \"records\": [")?;
                for (i, rec) in report.records.iter().enumerate() {
                    let event = LedgerEvent::decode(rec.kind, &rec.payload)
                        .map_or_else(|| "undecodable".to_owned(), |e| e.describe());
                    writeln!(
                        out,
                        "    {{\"seq\": {}, \"kind\": {}, \"event\": \"{}\"}}{}",
                        rec.seq,
                        rec.kind,
                        json::escape(&event),
                        if i + 1 < report.records.len() {
                            ","
                        } else {
                            ""
                        }
                    )?;
                }
                writeln!(out, "  ],")?;
                writeln!(out, "  \"valid_len\": {},", report.valid_len)?;
                writeln!(out, "  \"truncated_bytes\": {},", report.truncated_bytes)?;
                writeln!(
                    out,
                    "  \"corruption\": {}",
                    report.corruption.as_ref().map_or_else(
                        || "null".to_owned(),
                        |c| format!("\"{}\"", json::escape(&c.to_string()))
                    )
                )?;
                writeln!(out, "}}")?;
            } else {
                writeln!(
                    out,
                    "{}: {} record(s), stream {}, {} valid byte(s)",
                    args.path,
                    report.records.len(),
                    report
                        .stream_id
                        .map_or_else(|| "?".to_owned(), |s| format!("{s:#x}")),
                    report.valid_len,
                )?;
                for rec in &report.records {
                    let event = LedgerEvent::decode(rec.kind, &rec.payload).map_or_else(
                        || {
                            format!(
                                "kind {} ({} bytes, undecodable)",
                                rec.kind,
                                rec.payload.len()
                            )
                        },
                        |e| e.describe(),
                    );
                    writeln!(out, "  {:>6}  {event}", rec.seq)?;
                }
                if let Some(c) = &report.corruption {
                    writeln!(
                        out,
                        "  CORRUPT TAIL: {c} ({} byte(s) beyond the valid prefix)",
                        report.truncated_bytes
                    )?;
                }
            }
            Ok(())
        }
        LedgerAction::Verify => {
            let ok = report.corruption.is_none();
            if args.json {
                writeln!(
                    out,
                    "{{\"path\": \"{}\", \"ok\": {ok}, \"records\": {}, \
                     \"valid_len\": {}, \"truncated_bytes\": {}, \"corruption\": {}}}",
                    json::escape(&args.path),
                    report.records.len(),
                    report.valid_len,
                    report.truncated_bytes,
                    report.corruption.as_ref().map_or_else(
                        || "null".to_owned(),
                        |c| format!("\"{}\"", json::escape(&c.to_string()))
                    ),
                )?;
            } else {
                writeln!(
                    out,
                    "{}: {} record(s), {} valid byte(s), {}",
                    args.path,
                    report.records.len(),
                    report.valid_len,
                    report.corruption.as_ref().map_or_else(
                        || "tail clean".to_owned(),
                        |c| format!("CORRUPT: {c} ({} byte(s) lost)", report.truncated_bytes)
                    ),
                )?;
            }
            if ok {
                Ok(())
            } else {
                Err(format!("{}: corrupt tail", args.path).into())
            }
        }
        LedgerAction::Truncate => {
            let at = args.at.expect("validated by the parser");
            let Some(stream) = report.stream_id else {
                return Err(
                    format!("{}: segment header unreadable; nothing to keep", args.path).into(),
                );
            };
            let mut image = mpr_durable::wal::encode_segment_header(stream);
            let mut kept = 0u64;
            for rec in report.records.iter().filter(|r| r.seq < at) {
                image.extend_from_slice(&mpr_durable::wal::encode_frame(
                    rec.seq,
                    rec.kind,
                    &rec.payload,
                ));
                kept += 1;
            }
            mpr_durable::fsio::atomic_replace(Path::new(&args.path), &image)?;
            writeln!(
                out,
                "{}: kept {kept} of {} record(s) (seq < {at}), wrote {} byte(s){}",
                args.path,
                report.records.len(),
                image.len(),
                report
                    .corruption
                    .as_ref()
                    .map_or_else(String::new, |c| { format!(", dropped corrupt tail ({c})") }),
            )?;
            Ok(())
        }
    }
}

/// The strict mechanism behind one `--mechanism` choice: infeasible targets
/// are reported as errors, not silently capped. The chain is the exception
/// by design — demonstrating graceful degradation is its whole point.
fn market_mechanism(choice: crate::args::MarketMechanism) -> Box<dyn Mechanism> {
    use crate::args::MarketMechanism as M;
    match choice {
        M::MprStat => Box::new(MclrMechanism::strict()),
        M::MprInt => Box::new(InteractiveMechanism::strict(InteractiveConfig::default())),
        M::Opt => Box::new(OptMechanism::strict(OptMethod::Auto)),
        M::Eql => Box::new(EqlMechanism),
        M::Vcg => Box::new(VcgMechanism::strict(OptMethod::Auto)),
        M::Chain => Box::new(FallbackChain::degradation(
            InteractiveMechanism::best_effort(InteractiveConfig::default()),
        )),
    }
}

/// Runs `mpr market`: clears one synthetic market instance through the
/// selected [`Mechanism`] and prints the outcome.
///
/// # Errors
///
/// Propagates market errors (e.g. infeasible targets).
pub fn market(args: &MarketArgs, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    let profiles = mpr_apps::cpu_profiles();
    let w = 125.0;
    // One shared instance carries everything any mechanism needs: the
    // cooperative standing bid (MPR-STAT), the cost curve (MPR-INT, OPT,
    // VCG) and the core count (EQL).
    let instance: MarketInstance = (0..args.jobs)
        .map(|i| {
            let cost = Arc::new(ScaledCost::new(
                profiles[i % profiles.len()].cost_model(1.0),
                8.0,
            ));
            let supply = StaticStrategy::Cooperative
                .supply_for(cost.as_ref())
                .expect("catalog costs are valid");
            ParticipantSpec::new(i as u64, cost.delta_max(), Watts::new(w))
                .with_bid(supply.bid())
                .with_cores(8.0)
                .with_cost(cost)
        })
        .collect();
    writeln!(
        out,
        "{} jobs, attainable reduction {:.0}, target {:.0}",
        args.jobs,
        instance.attainable_watts(),
        Watts::new(args.target_watts)
    )?;
    let mut mechanism = market_mechanism(args.mechanism);
    let clearing = mechanism.clear(&instance, Watts::new(args.target_watts))?;
    let d = clearing.diagnostics();
    if d.price_trace.is_empty() {
        writeln!(
            out,
            "{} cleared at q' = {:.4}",
            mechanism.name(),
            clearing.price()
        )?;
    } else {
        writeln!(
            out,
            "{} cleared at q' = {:.4} after {} iterations (converged: {})",
            mechanism.name(),
            clearing.price(),
            clearing.iterations(),
            d.converged
        )?;
    }
    if let Some(level) = d.chain_level {
        writeln!(
            out,
            "degradation chain settled at level {level} after {} stage(s)",
            d.levels_tried
        )?;
    }
    writeln!(
        out,
        "total reduction {:.2}, payoff {:.2}{}/h",
        Cores::new(clearing.total_reduction()),
        clearing.total_payment_rate().get(),
        CoreHours::SUFFIX
    )?;
    Ok(())
}

/// Runs `mpr swf`: generates a trace and writes it as SWF text.
///
/// # Errors
///
/// Returns usage errors for unknown traces; I/O errors are propagated.
pub fn swf(args: &SwfArgs, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec_by_name(&args.trace)?.with_span_days(args.days);
    let trace = TraceGenerator::new(spec).with_seed(args.seed).generate();
    out.write_all(mpr_workload::swf::write_swf(&trace).as_bytes())?;
    Ok(())
}

/// Runs `mpr calibrate`: parses `allocation,performance` CSV lines from
/// `input`, fits a monotone profile and prints its points plus market
/// parameters.
///
/// # Errors
///
/// Returns calibration/parse errors with line context.
pub fn calibrate(
    input: &mut dyn std::io::BufRead,
    out: &mut dyn Write,
) -> Result<(), Box<dyn std::error::Error>> {
    use mpr_core::bidding::StaticStrategy;
    use mpr_core::CostModel;
    use std::io::BufRead as _;

    let mut samples = Vec::new();
    for (lineno, line) in (&mut *input).lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(',');
        let (Some(a), Some(p)) = (parts.next(), parts.next()) else {
            return Err(format!("line {}: expected `allocation,performance`", lineno + 1).into());
        };
        samples.push((a.trim().parse::<f64>()?, p.trim().parse::<f64>()?));
    }
    let profile = std::sync::Arc::new(mpr_apps::profile_from_samples(
        "calibrated",
        mpr_apps::DeviceKind::Cpu,
        &samples,
        125.0,
    )?);
    writeln!(
        out,
        "calibrated profile ({} levels):",
        profile.points().len()
    )?;
    for &(alloc, perf) in profile.points() {
        writeln!(
            out,
            "  allocation {alloc:.3} -> performance {:.1}%",
            100.0 * perf
        )?;
    }
    let cost = profile.cost_model(1.0);
    let supply = StaticStrategy::Cooperative.supply_for(&cost)?;
    writeln!(
        out,
        "market parameters: Δ = {:.3} per core, cooperative bid b = {:.4}",
        cost.delta_max(),
        supply.bid()
    )?;
    Ok(())
}

/// Runs `mpr traces`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn traces(out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
        "{:<12} {:>7} {:>10} {:>10} {:>9}",
        "name", "cores", "span days", "mean util", "jobs/day"
    )?;
    for name in ["gaia", "pik", "ricc", "metacentrum"] {
        let spec = spec_by_name(name).expect("builtin");
        // Jobs/day estimate from the spec's calibration targets.
        let per_day = spec.total_cores as f64 * spec.mean_util * 24.0
            / (spec.mean_job_cores * spec.mean_job_runtime_hours);
        writeln!(
            out,
            "{:<12} {:>7} {:>10} {:>10.2} {:>9.0}",
            spec.name, spec.total_cores, spec.span_days, spec.mean_util, per_day
        )?;
    }
    Ok(())
}

/// Runs `mpr apps`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn apps(out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
        "{:<14} {:>4} {:>6} {:>10} {:>12}",
        "name", "kind", "Δ", "W/unit", "sensitivity"
    )?;
    for p in mpr_apps::cpu_profiles()
        .into_iter()
        .chain(mpr_apps::gpu_profiles())
    {
        writeln!(
            out,
            "{:<14} {:>4} {:>6.2} {:>10.0} {:>12.3}",
            p.name(),
            p.kind().to_string(),
            p.delta_max(),
            p.unit_dynamic_power_w(),
            p.sensitivity()
        )?;
    }
    Ok(())
}

/// Runs `mpr prototype`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn prototype(with_mpr: bool, out: &mut dyn Write) -> std::io::Result<()> {
    let r = Experiment::new(ExperimentConfig {
        with_mpr,
        ..ExperimentConfig::default()
    })
    .run();
    writeln!(
        out,
        "prototype 30-minute run ({}): mean power {:.1} W, {:.1}% above cap, {} emergencies",
        if with_mpr { "with MPR" } else { "without MPR" },
        r.mean_power_watts(),
        100.0 * r.overload_fraction,
        r.emergencies
    )?;
    for a in &r.apps {
        writeln!(
            out,
            "  {:<8} avg reduction {:.2} cores, avg freq {:.2} GHz",
            a.name, a.avg_reduction_cores, a.avg_freq_ghz
        )?;
    }
    Ok(())
}

/// Runs `mpr chaos`: a fuzzing campaign, or an artifact replay with
/// `--replay`.
///
/// # Errors
///
/// Returns an error — and `main` exits nonzero, which is what CI keys on —
/// when any safety invariant was violated (campaign mode), when the replay
/// does not reproduce, or on I/O and artifact-parse failures.
pub fn chaos(args: &ChaosArgs, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = &args.replay {
        let text = std::fs::read_to_string(path)?;
        let plan = mpr_chaos::campaign::parse_artifact(&text)?;
        writeln!(
            out,
            "replaying {path}: oracle [{}] over {} day(s)\n  scenario: {}",
            plan.oracle,
            plan.days,
            plan.scenario.describe()
        )?;
        let outcome = mpr_chaos::campaign::replay(&plan);
        for v in &outcome.violations {
            writeln!(out, "  violation [{}] {}", v.oracle, v.message)?;
        }
        if outcome.reproduced {
            writeln!(out, "REPRODUCED: oracle [{}] fired again", plan.oracle)?;
            return Ok(());
        }
        return Err(format!(
            "replay did not reproduce oracle [{}] (found {} other violation(s))",
            plan.oracle,
            outcome.violations.len()
        )
        .into());
    }

    let cc = mpr_chaos::CampaignConfig {
        runs: args.runs,
        seed: args.seed,
        days: args.days,
        emergency_disabled: args.disable_emergency,
        wal_fsync_never: args.wal_fsync_never,
        tree_fault_ups: args.tree_fault_ups,
        shrink: !args.no_shrink,
        artifact_dir: args.artifact_dir.as_ref().map(Into::into),
    };
    let report = mpr_chaos::run(&cc)?;
    if args.csv {
        write!(out, "{}", report.to_csv())?;
    } else if args.json {
        writeln!(out, "{}", report.to_json())?;
    } else {
        write!(out, "{}", report.summary())?;
    }
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "{} safety-invariant violation(s) in {} run(s)",
            report.violation_count(),
            report.failures.len()
        )
        .into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{parse, Command};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn simulate_csv_has_header_and_row() {
        let Command::Simulate(a) = parse(&argv("simulate --days 1 --oversub 10 --csv")).unwrap()
        else {
            panic!()
        };
        let mut buf = Vec::new();
        simulate(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("trace,algorithm"));
        assert!(lines[1].starts_with("Gaia,MPR-STAT,10,1"));
    }

    #[test]
    fn simulate_human_readable() {
        let Command::Simulate(a) = parse(&argv("simulate --days 1")).unwrap() else {
            panic!()
        };
        let mut buf = Vec::new();
        simulate(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("performance cost"));
        assert!(text.contains("Gaia"));
    }

    #[test]
    fn simulate_with_faults_reports_degradation() {
        let Command::Simulate(a) = parse(&argv(
            "simulate --days 1 --oversub 15 --alg mpr-int \
             --fault-unresponsive 0.3 --fault-crash 0.1",
        ))
        .unwrap() else {
            panic!()
        };
        let mut buf = Vec::new();
        simulate(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("degradation:"));
    }

    #[test]
    fn simulate_with_lossy_net_reports_transport() {
        let Command::Simulate(a) = parse(&argv(
            "simulate --days 1 --oversub 15 --alg mpr-int --net-drop 0.3",
        ))
        .unwrap() else {
            panic!()
        };
        let mut buf = Vec::new();
        simulate(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("transport:"),
            "missing transport line: {text}"
        );

        // The CSV carries the transport columns too.
        let Command::Simulate(csv) = parse(&argv(
            "simulate --days 1 --oversub 15 --alg mpr-int --net-drop 0.3 --csv",
        ))
        .unwrap() else {
            panic!()
        };
        let mut buf = Vec::new();
        simulate(&csv, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.first().is_some_and(|h| h
            .contains("net_rounds,net_retransmits,net_straggler_rounds,net_messages_dropped")
            && h.contains("fed_markets,fed_rounds,fed_residual_w")));
    }

    #[test]
    fn simulate_with_sensor_faults_reports_telemetry() {
        let Command::Simulate(a) = parse(&argv(
            "simulate --days 1 --oversub 15 --sensor-noise 0.02 --sensor-dropout 0.3",
        ))
        .unwrap() else {
            panic!()
        };
        let mut buf = Vec::new();
        simulate(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("telemetry:"),
            "missing telemetry line: {text}"
        );
    }

    #[test]
    fn simulate_checkpoint_then_resume_matches_plain_run() {
        let path = std::env::temp_dir().join(format!("mpr_cli_{}.ckpt", std::process::id()));
        let ckpt = path.to_str().unwrap();

        let Command::Simulate(plain) = parse(&argv("simulate --days 1 --oversub 15")).unwrap()
        else {
            panic!()
        };
        let mut plain_buf = Vec::new();
        simulate(&plain, &mut plain_buf).unwrap();

        // A checkpointed run leaves a resumable file behind...
        let Command::Simulate(a) = parse(&argv(&format!(
            "simulate --days 1 --oversub 15 --checkpoint-every 300 --checkpoint-path {ckpt}"
        )))
        .unwrap() else {
            panic!()
        };
        let mut buf = Vec::new();
        simulate(&a, &mut buf).unwrap();
        assert_eq!(buf, plain_buf, "checkpointing must not perturb the run");
        assert!(path.exists(), "checkpoint file must be written");

        // ...and resuming from it reproduces the uninterrupted output.
        let Command::Simulate(res) = parse(&argv(&format!(
            "simulate --days 1 --oversub 15 --resume-from {ckpt}"
        )))
        .unwrap() else {
            panic!()
        };
        let mut resumed = Vec::new();
        simulate(&res, &mut resumed).unwrap();
        assert_eq!(resumed, plain_buf, "resume must reproduce the full run");

        // Resuming under a different config is refused, not silently wrong.
        let Command::Simulate(bad) = parse(&argv(&format!(
            "simulate --days 1 --oversub 20 --resume-from {ckpt}"
        )))
        .unwrap() else {
            panic!()
        };
        assert!(simulate(&bad, &mut Vec::new()).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simulate_federated_reports_per_level_markets() {
        let tree = std::env::temp_dir().join(format!("mpr_cli_{}_tree.json", std::process::id()));
        std::fs::write(&tree, include_str!("../../../examples/tree.json")).unwrap();
        let spec = tree.to_str().unwrap();

        let Command::Simulate(a) = parse(&argv(&format!(
            "simulate --days 1 --oversub 15 --topology {spec} --federated"
        )))
        .unwrap() else {
            panic!()
        };
        let mut buf = Vec::new();
        simulate(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("federated:"),
            "missing federated line: {text}"
        );
        assert!(text.contains("depth"), "missing per-level rows: {text}");
        assert!(text.contains("residual"), "{text}");

        // The CSV carries the federated columns.
        let Command::Simulate(csv) = parse(&argv(&format!(
            "simulate --days 1 --oversub 15 --topology {spec} --federated --csv"
        )))
        .unwrap() else {
            panic!()
        };
        let mut buf = Vec::new();
        simulate(&csv, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].ends_with("fed_derate_excess_w,fed_post_repair_events"));
        assert!(lines[0].contains("fed_markets,fed_rounds,fed_residual_w"));
        assert!(lines[0].contains("fed_grid_fault_slots,fed_fenced_nodes"));
        let markets: usize = lines[1]
            .split(',')
            .nth_back(10)
            .and_then(|v| v.parse().ok())
            .expect("fed_markets column");
        assert!(markets > 0, "federated run must clear subtree markets");

        // A federated checkpoint only resumes under the same topology.
        let ckpt = std::env::temp_dir().join(format!("mpr_cli_{}_fed.ckpt", std::process::id()));
        let ckpt_s = ckpt.to_str().unwrap();
        let Command::Simulate(w) = parse(&argv(&format!(
            "simulate --days 1 --oversub 15 --topology {spec} --federated \
             --checkpoint-every 300 --checkpoint-path {ckpt_s}"
        )))
        .unwrap() else {
            panic!()
        };
        simulate(&w, &mut Vec::new()).unwrap();
        let Command::Simulate(ok) = parse(&argv(&format!(
            "simulate --days 1 --oversub 15 --topology {spec} --federated --resume-from {ckpt_s}"
        )))
        .unwrap() else {
            panic!()
        };
        let mut resumed = Vec::new();
        simulate(&ok, &mut resumed).unwrap();
        assert!(String::from_utf8(resumed).unwrap().contains("federated:"));
        let Command::Simulate(bad) = parse(&argv(&format!(
            "simulate --days 1 --oversub 15 --resume-from {ckpt_s}"
        )))
        .unwrap() else {
            panic!()
        };
        assert!(
            simulate(&bad, &mut Vec::new()).is_err(),
            "a flat resume must be fenced off a federated checkpoint"
        );
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(&tree);
    }

    #[test]
    fn simulate_tree_faults_fence_and_report() {
        let tree = std::env::temp_dir().join(format!("mpr_cli_{}_gtree.json", std::process::id()));
        std::fs::write(&tree, include_str!("../../../examples/tree.json")).unwrap();
        let spec = tree.to_str().unwrap();

        let Command::Simulate(a) = parse(&argv(&format!(
            "simulate --days 1 --oversub 15 --topology {spec} --federated \
             --tree-fault-ups 1.0 --tree-fault-seed 7 --tree-fault-repair-secs 1800"
        )))
        .unwrap() else {
            panic!()
        };
        let mut buf = Vec::new();
        simulate(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("grid faults:"),
            "missing grid-fault line: {text}"
        );

        // The CSV carries the fault counters, and the run is deterministic:
        // two invocations of the same command are byte-identical.
        let Command::Simulate(csv) = parse(&argv(&format!(
            "simulate --days 1 --oversub 15 --topology {spec} --federated \
             --tree-fault-ups 1.0 --tree-fault-seed 7 --tree-fault-repair-secs 1800 --csv"
        )))
        .unwrap() else {
            panic!()
        };
        let mut first = Vec::new();
        simulate(&csv, &mut first).unwrap();
        let mut second = Vec::new();
        simulate(&csv, &mut second).unwrap();
        assert_eq!(
            first, second,
            "faulted federated runs must be deterministic"
        );
        let text = String::from_utf8(first).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let slots: usize = lines[1]
            .split(',')
            .nth_back(7)
            .and_then(|v| v.parse().ok())
            .expect("fed_grid_fault_slots column");
        assert!(slots > 0, "an always-on UPS plan must fault some slots");
        let _ = std::fs::remove_file(&tree);
    }

    #[test]
    fn simulate_wal_then_ledger_dump_verify_truncate() {
        let path = std::env::temp_dir().join(format!("mpr_cli_{}.wal", std::process::id()));
        let wal = path.to_str().unwrap();

        // A durable run writes an inspectable ledger and reports on it.
        let Command::Simulate(a) = parse(&argv(&format!(
            "simulate --days 1 --oversub 15 --alg mpr-int --wal {wal}"
        )))
        .unwrap() else {
            panic!()
        };
        let mut buf = Vec::new();
        simulate(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("ledger:"), "missing ledger line: {text}");
        assert!(path.exists(), "WAL image must be written");

        // The journaled ledger must not perturb the market outcome.
        let Command::Simulate(plain) =
            parse(&argv("simulate --days 1 --oversub 15 --alg mpr-int")).unwrap()
        else {
            panic!()
        };
        let mut plain_buf = Vec::new();
        simulate(&plain, &mut plain_buf).unwrap();
        let plain_text = String::from_utf8(plain_buf).unwrap();
        let stripped: Vec<&str> = text.lines().filter(|l| !l.contains("ledger:")).collect();
        assert_eq!(
            stripped,
            plain_text.lines().collect::<Vec<_>>(),
            "journaling must not perturb the run"
        );

        // dump decodes typed market events from the image...
        let ledger_args = |s: &str| {
            let Command::Ledger(a) = parse(&argv(s)).unwrap() else {
                panic!("expected ledger");
            };
            a
        };
        let mut buf = Vec::new();
        ledger(&ledger_args(&format!("ledger dump {wal}")), &mut buf).unwrap();
        let dump = String::from_utf8(buf).unwrap();
        assert!(dump.contains("record(s)"), "{dump}");
        assert!(
            dump.contains("slot-commit") || dump.contains("price-announce"),
            "{dump}"
        );
        assert!(!dump.contains("CORRUPT"), "{dump}");

        // ...dump --json emits the machine-readable form...
        let mut buf = Vec::new();
        ledger(&ledger_args(&format!("ledger dump {wal} --json")), &mut buf).unwrap();
        let dump_json = String::from_utf8(buf).unwrap();
        assert!(dump_json.contains("\"records\": ["), "{dump_json}");
        assert!(dump_json.contains("\"corruption\": null"), "{dump_json}");

        // ...verify passes on the intact log...
        let mut buf = Vec::new();
        ledger(&ledger_args(&format!("ledger verify {wal}")), &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("tail clean"));

        // ...truncate keeps a prefix, which still verifies...
        let mut buf = Vec::new();
        ledger(
            &ledger_args(&format!("ledger truncate {wal} --at 5")),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("kept 5 of"));
        let mut buf = Vec::new();
        ledger(&ledger_args(&format!("ledger verify {wal}")), &mut buf).unwrap();

        // ...and a torn tail fails verify with a nonzero exit.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xde, 0xad]);
        std::fs::write(&path, &bytes).unwrap();
        let err = ledger(
            &ledger_args(&format!("ledger verify {wal}")),
            &mut Vec::new(),
        )
        .expect_err("torn tail must fail verify");
        assert!(err.to_string().contains("corrupt tail"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ledger_verify_json_escapes_control_characters_in_the_path() {
        let path = std::env::temp_dir().join(format!("mpr_cli_{}\ttab.wal", std::process::id()));
        std::fs::write(&path, mpr_durable::wal::encode_segment_header(7)).unwrap();
        let wal = path.to_str().unwrap().to_owned();
        let argv = ["ledger", "verify", &wal, "--json"].map(String::from);
        let Command::Ledger(a) = parse(&argv).unwrap() else {
            panic!("expected ledger");
        };
        let mut buf = Vec::new();
        ledger(&a, &mut buf).unwrap();
        let _ = std::fs::remove_file(&path);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("tab.wal"), "{text}");
        assert!(
            text.contains("\\ttab.wal"),
            "a tab is written as \\t: {text}"
        );
        let doc = json::parse(&text).expect("verify --json is valid JSON");
        let obj = doc.as_obj().expect("object");
        assert_eq!(
            json::field(obj, "path").unwrap().as_str(),
            Some(wal.as_str())
        );
        assert_eq!(json::field_bool(obj, "ok"), Ok(true));
    }

    #[test]
    fn ledger_missing_file_errors() {
        let Command::Ledger(a) = parse(&argv("ledger dump /nonexistent/no.wal")).unwrap() else {
            panic!()
        };
        assert!(ledger(&a, &mut Vec::new()).is_err());
    }

    fn chaos_args(s: &str) -> ChaosArgs {
        let Command::Chaos(a) = parse(&argv(s)).unwrap() else {
            panic!("expected chaos");
        };
        a
    }

    #[test]
    fn chaos_healthy_campaign_passes() {
        let mut buf = Vec::new();
        chaos(
            &chaos_args("chaos --runs 4 --seed 42 --days 0.25"),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("PASS"), "{text}");
        assert!(text.contains("chaos campaign: 4 runs"), "{text}");
    }

    #[test]
    fn chaos_seeded_violation_fails_shrinks_and_replays() {
        let dir = std::env::temp_dir().join("mpr-cli-chaos-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut buf = Vec::new();
        let err = chaos(
            &chaos_args(&format!(
                "chaos --runs 2 --seed 7 --days 0.25 --disable-emergency \
                 --artifact-dir {}",
                dir.display()
            )),
            &mut buf,
        )
        .expect_err("disabled FSM must fail the campaign");
        assert!(err.to_string().contains("violation"));
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("reproduce: cargo run -p mpr-cli"), "{text}");

        // The printed artifact replays and reproduces.
        let artifact = dir.join("chaos-repro-0.json");
        let mut buf = Vec::new();
        chaos(
            &chaos_args(&format!("chaos --replay {}", artifact.display())),
            &mut buf,
        )
        .expect("replay reproduces");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("REPRODUCED"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_planted_fsync_bug_fails_the_campaign() {
        let mut buf = Vec::new();
        let err = chaos(
            &chaos_args("chaos --runs 4 --seed 21 --days 0.25 --wal-fsync-never --no-shrink"),
            &mut buf,
        )
        .expect_err("fsync=never must lose acknowledged commits");
        assert!(err.to_string().contains("violation"), "{err}");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("durability-commit"), "{text}");
    }

    #[test]
    fn chaos_csv_and_json_modes() {
        let mut buf = Vec::new();
        chaos(
            &chaos_args("chaos --runs 3 --seed 1 --days 0.25 --csv"),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4, "{text}");
        assert!(text.starts_with("index,algorithm,"), "{text}");

        let mut buf = Vec::new();
        chaos(
            &chaos_args("chaos --runs 3 --seed 1 --days 0.25 --json"),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"passed\": true"), "{text}");
    }

    fn market_args(mechanism: crate::args::MarketMechanism) -> crate::args::MarketArgs {
        crate::args::MarketArgs {
            jobs: 20,
            target_watts: 2000.0,
            mechanism,
        }
    }

    #[test]
    fn market_static_and_interactive() {
        use crate::args::MarketMechanism;
        let mut buf = Vec::new();
        market(&market_args(MarketMechanism::MprStat), &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("MPR-STAT cleared"));

        let mut buf = Vec::new();
        market(&market_args(MarketMechanism::MprInt), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("MPR-INT cleared"));
        assert!(text.contains("iterations"));
    }

    #[test]
    fn market_every_mechanism_clears() {
        use crate::args::MarketMechanism;
        for m in [
            MarketMechanism::MprStat,
            MarketMechanism::MprInt,
            MarketMechanism::Opt,
            MarketMechanism::Eql,
            MarketMechanism::Vcg,
            MarketMechanism::Chain,
        ] {
            let mut buf = Vec::new();
            market(&market_args(m), &mut buf).unwrap_or_else(|e| panic!("{m:?}: {e}"));
            let text = String::from_utf8(buf).unwrap();
            assert!(text.contains("cleared at q'"), "{m:?}: {text}");
            assert!(text.contains("total reduction"), "{m:?}: {text}");
        }
        // The chain reports which degradation level produced the clearing.
        let mut buf = Vec::new();
        market(&market_args(MarketMechanism::Chain), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("degradation chain settled"), "{text}");
    }

    #[test]
    fn market_infeasible_target_errors() {
        use crate::args::MarketMechanism;
        // Every strict mechanism refuses an unreachable target...
        for m in [
            MarketMechanism::MprStat,
            MarketMechanism::MprInt,
            MarketMechanism::Opt,
            MarketMechanism::Vcg,
        ] {
            let mut args = market_args(m);
            args.jobs = 2;
            args.target_watts = 1e9;
            assert!(market(&args, &mut Vec::new()).is_err(), "{m:?}");
        }
        // ...while the degradation chain degrades to capping instead.
        let mut args = market_args(MarketMechanism::Chain);
        args.jobs = 2;
        args.target_watts = 1e9;
        let mut buf = Vec::new();
        market(&args, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("EQL"));
    }

    #[test]
    fn swf_emits_parseable_output() {
        let mut buf = Vec::new();
        swf(
            &SwfArgs {
                trace: "metacentrum".into(),
                days: 0.5,
                seed: 2,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = mpr_workload::swf::parse_swf(&text, "rt", None).unwrap();
        assert!(!parsed.is_empty());
        assert_eq!(parsed.total_cores(), 528);
    }

    #[test]
    fn calibrate_reads_csv_and_reports_bid() {
        let csv = "# alloc,perf\n0.3,35\n0.5,55\n0.7,75\n1.0,100\n";
        let mut input = std::io::BufReader::new(csv.as_bytes());
        let mut buf = Vec::new();
        calibrate(&mut input, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("4 levels"));
        assert!(text.contains("cooperative bid"));
        // Garbage input errors out with context.
        let mut bad = std::io::BufReader::new("not-a-number,1\n".as_bytes());
        assert!(calibrate(&mut bad, &mut Vec::new()).is_err());
    }

    #[test]
    fn listing_commands() {
        let mut buf = Vec::new();
        traces(&mut buf).unwrap();
        let t = String::from_utf8(buf).unwrap();
        assert!(t.contains("Gaia") && t.contains("PIK"));

        let mut buf = Vec::new();
        apps(&mut buf).unwrap();
        let t = String::from_utf8(buf).unwrap();
        assert!(t.contains("XSBench") && t.contains("Jacobi"));
    }

    #[test]
    fn prototype_both_modes() {
        let mut buf = Vec::new();
        prototype(true, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("with MPR"));
        let mut buf = Vec::new();
        prototype(false, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("without MPR"));
    }
}
