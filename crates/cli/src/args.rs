//! Hand-rolled argument parsing for the `mpr` CLI (no external parser — the
//! interface is small and the workspace stays within its approved
//! dependency set).

use std::fmt;

use mpr_sim::{Algorithm, FaultPlan, FsyncPolicy, NetPlan};
use mpr_workload::ClusterSpec;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `mpr simulate …` — run a trace-driven simulation. (Boxed: the
    /// argument struct dwarfs every other variant.)
    Simulate(Box<SimulateArgs>),
    /// `mpr market …` — clear one ad-hoc market.
    Market(MarketArgs),
    /// `mpr traces` — list the built-in cluster workloads.
    Traces,
    /// `mpr apps` — list the application profiles.
    Apps,
    /// `mpr prototype [--without-mpr]` — run the prototype experiment.
    Prototype {
        /// Disable MPR to show the uncontrolled baseline.
        with_mpr: bool,
    },
    /// `mpr swf …` — emit a generated trace as SWF text on stdout.
    Swf(SwfArgs),
    /// `mpr calibrate` — build a profile from `allocation,performance` CSV
    /// lines on stdin.
    Calibrate,
    /// `mpr chaos …` — run a fuzzing campaign or replay a repro artifact.
    Chaos(ChaosArgs),
    /// `mpr ledger …` — inspect or repair a write-ahead ledger file.
    Ledger(LedgerArgs),
    /// `mpr lint …` — run the workspace static-analysis pass.
    Lint(LintArgs),
    /// `mpr help` or `--help`.
    Help,
}

/// Arguments of `mpr lint`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintArgs {
    /// Emit the hand-rolled JSON report instead of human-readable text.
    pub json: bool,
    /// Emit a SARIF 2.1.0 log instead of human-readable text.
    pub sarif: bool,
    /// Skip the incremental cache (always re-parse and re-analyze).
    pub no_cache: bool,
    /// Workspace root to lint (defaults to the root above the cwd).
    pub root: Option<String>,
}

/// Action of `mpr ledger`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerAction {
    /// Decode and print every intact record.
    Dump,
    /// Check framing integrity; nonzero exit on a corrupt tail.
    Verify,
    /// Rewrite the file keeping only records below a sequence number
    /// (also discards any corrupt tail).
    Truncate,
}

/// Arguments of `mpr ledger`.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerArgs {
    /// What to do with the ledger file.
    pub action: LedgerAction,
    /// Path to the WAL image (e.g. written by `mpr simulate --wal`).
    pub path: String,
    /// `truncate` only: first sequence number to drop.
    pub at: Option<u64>,
    /// Emit JSON instead of the human-readable listing.
    pub json: bool,
}

/// Arguments of `mpr chaos`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosArgs {
    /// Number of campaign runs.
    pub runs: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Trace span per run, days.
    pub days: f64,
    /// Plant the test-only emergency-FSM-disabled knob into every scenario
    /// (proves the oracles catch a real safety failure).
    pub disable_emergency: bool,
    /// Skip counterexample shrinking.
    pub no_shrink: bool,
    /// Directory for repro artifacts (one JSON per failing run).
    pub artifact_dir: Option<String>,
    /// Plant the test-only unsound `fsync=never` journaling policy (plus a
    /// mid-run kill) into every scenario (proves the `durability-commit`
    /// oracle catches acknowledgement loss).
    pub wal_fsync_never: bool,
    /// Plant a permanent UPS failure with subtree fencing disabled into
    /// every scenario (proves the `grid-fencing` oracle catches power
    /// flowing through dead infrastructure).
    pub tree_fault_ups: bool,
    /// Replay a repro artifact instead of running a campaign.
    pub replay: Option<String>,
    /// Emit the per-run CSV instead of the human summary.
    pub csv: bool,
    /// Emit the JSON campaign summary instead of the human summary.
    pub json: bool,
}

/// Arguments of `mpr simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateArgs {
    /// Cluster preset name (`gaia`, `pik`, `ricc`, `metacentrum`).
    pub trace: String,
    /// Overload-handling algorithm.
    pub algorithm: Algorithm,
    /// Oversubscription percentage.
    pub oversub_pct: f64,
    /// Simulated span in days.
    pub days: f64,
    /// Trace seed.
    pub seed: u64,
    /// Market participation fraction.
    pub participation: f64,
    /// Fraction of bidders that stop responding during MPR-INT clearings.
    pub fault_unresponsive: f64,
    /// Fraction of bidders that crash permanently during MPR-INT clearings.
    pub fault_crash: f64,
    /// Fraction of bidders that replay stale bids during MPR-INT clearings.
    pub fault_stale: f64,
    /// Fraction of bidders that bid adversarially during MPR-INT clearings.
    pub fault_byzantine: f64,
    /// Probability a bid-transport message is dropped (MPR-INT only).
    pub net_drop: f64,
    /// Probability a delivered transport message is duplicated.
    pub net_duplicate: f64,
    /// Maximum in-flight message latency, virtual ticks.
    pub net_delay: u64,
    /// Per-announcement probability an agent is partitioned away.
    pub net_partition: f64,
    /// Per-round bid-collection deadline, virtual ticks (0 keeps default).
    pub net_deadline: u64,
    /// Per-agent per-round announcement attempts (0 keeps default).
    pub net_retries: usize,
    /// Gaussian sensor noise as a fraction of the true reading (σ/P).
    pub sensor_noise: f64,
    /// Probability that a sensor poll returns no reading.
    pub sensor_dropout: f64,
    /// Sensor reporting delay in polls (stale readings).
    pub sensor_stale: usize,
    /// Checkpoint cadence in slots (0 disables checkpointing).
    pub checkpoint_every: usize,
    /// Checkpoint file path (required when `checkpoint_every > 0`).
    pub checkpoint_path: Option<String>,
    /// Resume the run from this checkpoint file instead of starting fresh.
    pub resume_from: Option<String>,
    /// Journal every market event to a write-ahead ledger and write the
    /// final WAL image to this file (inspect it with `mpr ledger`).
    pub wal: Option<String>,
    /// WAL fsync policy; `None` (flag absent) means [`FsyncPolicy::Always`].
    pub wal_fsync: Option<FsyncPolicy>,
    /// Path to a power-topology spec (JSON) for federated clearing.
    pub topology: Option<String>,
    /// Clear overloads through the hierarchical federated market.
    pub federated: bool,
    /// Per-UPS outage probability for the infrastructure fault plan.
    pub tree_fault_ups: f64,
    /// Per-ATS degraded-transfer probability.
    pub tree_fault_ats: f64,
    /// Per-PDU breaker-trip probability.
    pub tree_fault_pdu: f64,
    /// Per-node gradual-derate probability.
    pub tree_fault_derate: f64,
    /// Infrastructure fault-plan RNG seed (0 keeps the plan default).
    pub tree_fault_seed: u64,
    /// Repair time after a fault window, seconds (0 keeps the plan default).
    pub tree_fault_repair_secs: f64,
    /// Emit CSV instead of a human-readable summary.
    pub csv: bool,
}

impl SimulateArgs {
    /// The agent-fault plan the `--fault-*` flags describe.
    #[must_use]
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan {
            unresponsive_frac: self.fault_unresponsive,
            crash_frac: self.fault_crash,
            stale_frac: self.fault_stale,
            byzantine_frac: self.fault_byzantine,
            ..FaultPlan::default()
        }
    }

    /// The message-layer plan the `--net-*` flags describe.
    #[must_use]
    pub fn net_plan(&self) -> NetPlan {
        let mut net = NetPlan {
            drop_prob: self.net_drop,
            duplicate_prob: self.net_duplicate,
            partition_prob: self.net_partition,
            ..NetPlan::default()
        };
        if self.net_delay > 0 {
            net.max_delay_ticks = self.net_delay.max(net.min_delay_ticks);
        }
        if self.net_deadline > 0 {
            net.deadline_ticks = self.net_deadline;
        }
        if self.net_retries > 0 {
            net.max_attempts = self.net_retries;
        }
        net
    }
}

/// Arguments of `mpr swf`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfArgs {
    /// Cluster preset name.
    pub trace: String,
    /// Span in days.
    pub days: f64,
    /// Generator seed.
    pub seed: u64,
}

/// The clearing mechanism of `mpr market`. A superset of the simulator's
/// [`Algorithm`] choices: the ad-hoc market can also demonstrate the
/// degradation chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MarketMechanism {
    /// MPR-STAT: one MClr solve over cooperative standing bids.
    #[default]
    MprStat,
    /// MPR-INT: the iterative price/bid exchange.
    MprInt,
    /// The centralized OPT benchmark.
    Opt,
    /// The performance-oblivious EQL benchmark.
    Eql,
    /// The truthful VCG pivot auction.
    Vcg,
    /// The MPR-INT → MPR-STAT → EQL-capping degradation chain.
    Chain,
}

/// Arguments of `mpr market`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketArgs {
    /// Number of synthetic jobs.
    pub jobs: usize,
    /// Power-reduction target, watts.
    pub target_watts: f64,
    /// The clearing mechanism to run.
    pub mechanism: MarketMechanism,
}

/// A CLI usage error with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// The help text.
pub const USAGE: &str = "\
mpr — market-based power reduction for oversubscribed HPC systems

USAGE:
    mpr simulate  [--trace gaia|pik|ricc|metacentrum]
                  [--mechanism opt|eql|mpr-stat|mpr-int|vcg]  (--alg is a synonym)
                  [--oversub PCT] [--days N] [--seed N] [--participation F] [--csv]
                  [--fault-unresponsive F] [--fault-crash F]
                  [--fault-stale F] [--fault-byzantine F]   (MPR-INT fault injection)
                  [--net-drop F] [--net-duplicate F] [--net-delay TICKS]
                  [--net-partition F] [--net-deadline TICKS]
                  [--net-retries N]                         (MPR-INT lossy bid transport)
                  [--sensor-noise F] [--sensor-dropout F]
                  [--sensor-stale POLLS]                    (telemetry fault injection)
                  [--checkpoint-every SLOTS --checkpoint-path FILE]
                  [--resume-from FILE]                      (crash-safe checkpointing)
                  [--wal FILE] [--wal-fsync always|every=<n>|never]
                                                            (write-ahead market ledger)
                  [--topology FILE --federated]             (hierarchical power-tree markets;
                                                             FILE is a JSON topology spec)
                  [--tree-fault-ups F] [--tree-fault-ats F]
                  [--tree-fault-pdu F] [--tree-fault-derate F]
                  [--tree-fault-seed N] [--tree-fault-repair-secs S]
                                                            (infrastructure fault injection
                                                             over the federated power tree)
    mpr market    [--jobs N] [--target-watts W]
                  [--mechanism mpr-stat|mpr-int|opt|eql|vcg|chain]
                  [--interactive]                  (synonym for --mechanism mpr-int)
    mpr chaos     [--runs N] [--seed N] [--days N]
                  [--artifact-dir DIR] [--no-shrink]
                  [--disable-emergency]        (seeded-violation self-test)
                  [--wal-fsync-never]          (seeded durability-bug self-test)
                  [--tree-fault-ups]           (seeded grid-fencing-bug self-test)
                  [--csv | --json]
    mpr chaos     --replay FILE               (re-run a repro artifact)
    mpr ledger    dump FILE [--json]          (decode a WAL written by --wal)
    mpr ledger    verify FILE [--json]        (framing check; nonzero exit if corrupt)
    mpr ledger    truncate FILE --at SEQ      (drop records from SEQ on, atomically)
    mpr lint      [--json | --sarif] [--no-cache] [--root DIR]
                  (static analysis: L1 unit-hygiene … L8 parallel-determinism;
                   warm runs reuse target/mpr-lint.cache)
    mpr prototype [--without-mpr]
    mpr swf       [--trace NAME] [--days N] [--seed N]   (SWF text on stdout)
    mpr calibrate                                        (CSV samples on stdin)
    mpr traces
    mpr apps
    mpr help
";

/// Parses a full argument list (excluding the program name).
///
/// # Errors
///
/// Returns [`UsageError`] on unknown subcommands, unknown flags or
/// malformed values.
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "simulate" => parse_simulate(rest).map(|a| Command::Simulate(Box::new(a))),
        "market" => parse_market(rest).map(Command::Market),
        "swf" => parse_swf_args(rest).map(Command::Swf),
        "calibrate" => expect_no_args(rest, Command::Calibrate),
        "chaos" => parse_chaos(rest).map(Command::Chaos),
        "ledger" => parse_ledger(rest).map(Command::Ledger),
        "lint" => parse_lint(rest).map(Command::Lint),
        "traces" => expect_no_args(rest, Command::Traces),
        "apps" => expect_no_args(rest, Command::Apps),
        "prototype" => match rest {
            [] => Ok(Command::Prototype { with_mpr: true }),
            [flag] if flag == "--without-mpr" => Ok(Command::Prototype { with_mpr: false }),
            _ => Err(UsageError(format!("unexpected arguments: {rest:?}"))),
        },
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(UsageError(format!("unknown command `{other}`"))),
    }
}

fn parse_lint(rest: &[String]) -> Result<LintArgs, UsageError> {
    let mut out = LintArgs::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => out.json = true,
            "--sarif" => out.sarif = true,
            "--no-cache" => out.no_cache = true,
            "--root" => out.root = Some(take_value(flag, &mut it)?.to_owned()),
            other => return Err(UsageError(format!("unknown lint flag `{other}`"))),
        }
    }
    Ok(out)
}

fn expect_no_args(rest: &[String], ok: Command) -> Result<Command, UsageError> {
    if rest.is_empty() {
        Ok(ok)
    } else {
        Err(UsageError(format!("unexpected arguments: {rest:?}")))
    }
}

fn take_value<'a>(
    flag: &str,
    it: &mut std::slice::Iter<'a, String>,
) -> Result<&'a str, UsageError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| UsageError(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, UsageError> {
    v.parse()
        .map_err(|_| UsageError(format!("{flag}: `{v}` is not a valid number")))
}

fn parse_fraction(flag: &str, v: &str) -> Result<f64, UsageError> {
    let f: f64 = parse_num(flag, v)?;
    if (0.0..=1.0).contains(&f) {
        Ok(f)
    } else {
        Err(UsageError(format!("{flag}: `{v}` is not in 0..=1")))
    }
}

fn parse_algorithm(flag: &str, v: &str) -> Result<Algorithm, UsageError> {
    match v {
        "opt" => Ok(Algorithm::Opt),
        "eql" => Ok(Algorithm::Eql),
        "mpr-stat" => Ok(Algorithm::MprStat),
        "mpr-int" => Ok(Algorithm::MprInt),
        "vcg" => Ok(Algorithm::Vcg),
        other => Err(UsageError(format!(
            "{flag}: `{other}` is not one of opt|eql|mpr-stat|mpr-int|vcg"
        ))),
    }
}

fn parse_simulate(rest: &[String]) -> Result<SimulateArgs, UsageError> {
    let mut out = SimulateArgs {
        trace: "gaia".into(),
        algorithm: Algorithm::MprStat,
        oversub_pct: 15.0,
        days: 30.0,
        seed: 0x4d50_5221,
        participation: 1.0,
        fault_unresponsive: 0.0,
        fault_crash: 0.0,
        fault_stale: 0.0,
        fault_byzantine: 0.0,
        net_drop: 0.0,
        net_duplicate: 0.0,
        net_delay: 0,
        net_partition: 0.0,
        net_deadline: 0,
        net_retries: 0,
        sensor_noise: 0.0,
        sensor_dropout: 0.0,
        sensor_stale: 0,
        checkpoint_every: 0,
        checkpoint_path: None,
        resume_from: None,
        wal: None,
        wal_fsync: None,
        topology: None,
        federated: false,
        tree_fault_ups: 0.0,
        tree_fault_ats: 0.0,
        tree_fault_pdu: 0.0,
        tree_fault_derate: 0.0,
        tree_fault_seed: 0,
        tree_fault_repair_secs: 0.0,
        csv: false,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace" => {
                let v = take_value(flag, &mut it)?;
                spec_by_name(v)?; // validate early
                out.trace = v.to_owned();
            }
            "--alg" | "--mechanism" => {
                out.algorithm = parse_algorithm(flag, take_value(flag, &mut it)?)?;
            }
            "--oversub" => out.oversub_pct = parse_num(flag, take_value(flag, &mut it)?)?,
            "--days" => out.days = parse_num(flag, take_value(flag, &mut it)?)?,
            "--seed" => out.seed = parse_num(flag, take_value(flag, &mut it)?)?,
            "--participation" => {
                out.participation = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--fault-unresponsive" => {
                out.fault_unresponsive = parse_fraction(flag, take_value(flag, &mut it)?)?;
            }
            "--fault-crash" => out.fault_crash = parse_fraction(flag, take_value(flag, &mut it)?)?,
            "--fault-stale" => out.fault_stale = parse_fraction(flag, take_value(flag, &mut it)?)?,
            "--fault-byzantine" => {
                out.fault_byzantine = parse_fraction(flag, take_value(flag, &mut it)?)?;
            }
            "--net-drop" => out.net_drop = parse_fraction(flag, take_value(flag, &mut it)?)?,
            "--net-duplicate" => {
                out.net_duplicate = parse_fraction(flag, take_value(flag, &mut it)?)?;
            }
            "--net-delay" => out.net_delay = parse_num(flag, take_value(flag, &mut it)?)?,
            "--net-partition" => {
                out.net_partition = parse_fraction(flag, take_value(flag, &mut it)?)?;
            }
            "--net-deadline" => out.net_deadline = parse_num(flag, take_value(flag, &mut it)?)?,
            "--net-retries" => out.net_retries = parse_num(flag, take_value(flag, &mut it)?)?,
            "--sensor-noise" => {
                out.sensor_noise = parse_fraction(flag, take_value(flag, &mut it)?)?;
            }
            "--sensor-dropout" => {
                out.sensor_dropout = parse_fraction(flag, take_value(flag, &mut it)?)?;
            }
            "--sensor-stale" => out.sensor_stale = parse_num(flag, take_value(flag, &mut it)?)?,
            "--checkpoint-every" => {
                out.checkpoint_every = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--checkpoint-path" => {
                out.checkpoint_path = Some(take_value(flag, &mut it)?.to_owned());
            }
            "--resume-from" => out.resume_from = Some(take_value(flag, &mut it)?.to_owned()),
            "--topology" => out.topology = Some(take_value(flag, &mut it)?.to_owned()),
            "--federated" => out.federated = true,
            "--tree-fault-ups" => {
                out.tree_fault_ups = parse_fraction(flag, take_value(flag, &mut it)?)?;
            }
            "--tree-fault-ats" => {
                out.tree_fault_ats = parse_fraction(flag, take_value(flag, &mut it)?)?;
            }
            "--tree-fault-pdu" => {
                out.tree_fault_pdu = parse_fraction(flag, take_value(flag, &mut it)?)?;
            }
            "--tree-fault-derate" => {
                out.tree_fault_derate = parse_fraction(flag, take_value(flag, &mut it)?)?;
            }
            "--tree-fault-seed" => {
                out.tree_fault_seed = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--tree-fault-repair-secs" => {
                out.tree_fault_repair_secs = parse_num(flag, take_value(flag, &mut it)?)?;
            }
            "--wal" => out.wal = Some(take_value(flag, &mut it)?.to_owned()),
            "--wal-fsync" => {
                let v = take_value(flag, &mut it)?;
                out.wal_fsync =
                    Some(FsyncPolicy::parse(v).map_err(|e| UsageError(format!("{flag}: {e}")))?);
            }
            "--csv" => out.csv = true,
            other => return Err(UsageError(format!("unknown flag `{other}`"))),
        }
    }
    if out.checkpoint_every > 0 && out.checkpoint_path.is_none() {
        return Err(UsageError(
            "--checkpoint-every needs --checkpoint-path FILE".into(),
        ));
    }
    if out.checkpoint_every == 0 && out.checkpoint_path.is_some() {
        return Err(UsageError(
            "--checkpoint-path needs --checkpoint-every SLOTS".into(),
        ));
    }
    if out.wal_fsync.is_some() && out.wal.is_none() {
        return Err(UsageError("--wal-fsync needs --wal FILE".into()));
    }
    if out.federated && out.topology.is_none() {
        return Err(UsageError("--federated needs --topology FILE".into()));
    }
    if out.topology.is_some() && !out.federated {
        return Err(UsageError("--topology needs --federated".into()));
    }
    // MPR-INT's fault-tolerant exchange clears one flat market, so the
    // federated tree would be ignored without a word.
    if out.federated
        && out.algorithm == Algorithm::MprInt
        && (out.fault_plan().is_active() || out.net_plan().is_active())
    {
        return Err(UsageError(
            "--federated with --alg mpr-int excludes active --fault-*/--net-* plans \
             (the fault-tolerant exchange clears flat)"
                .into(),
        ));
    }
    let tree_faults = out.tree_fault_ups > 0.0
        || out.tree_fault_ats > 0.0
        || out.tree_fault_pdu > 0.0
        || out.tree_fault_derate > 0.0
        || out.tree_fault_seed != 0
        || out.tree_fault_repair_secs != 0.0;
    if tree_faults && out.topology.is_none() {
        return Err(UsageError(
            "--tree-fault-* needs --topology FILE --federated".into(),
        ));
    }
    if !out.tree_fault_repair_secs.is_finite() || out.tree_fault_repair_secs < 0.0 {
        return Err(UsageError(
            "--tree-fault-repair-secs must be finite and non-negative".into(),
        ));
    }
    if out.wal.is_some() && (out.checkpoint_path.is_some() || out.resume_from.is_some()) {
        return Err(UsageError(
            "--wal excludes --checkpoint-path/--resume-from \
             (the durable run checkpoints in memory)"
                .into(),
        ));
    }
    Ok(out)
}

fn parse_ledger(rest: &[String]) -> Result<LedgerArgs, UsageError> {
    let mut it = rest.iter();
    let action = match it.next().map(String::as_str) {
        Some("dump") => LedgerAction::Dump,
        Some("verify") => LedgerAction::Verify,
        Some("truncate") => LedgerAction::Truncate,
        Some(other) => {
            return Err(UsageError(format!(
                "unknown ledger action `{other}` (expected dump|verify|truncate)"
            )))
        }
        None => {
            return Err(UsageError(
                "ledger needs an action: dump|verify|truncate".into(),
            ))
        }
    };
    let mut path: Option<String> = None;
    let mut at: Option<u64> = None;
    let mut json = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--at" => at = Some(parse_num(arg, take_value(arg, &mut it)?)?),
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                return Err(UsageError(format!("unknown flag `{flag}`")))
            }
            file => {
                if path.replace(file.to_owned()).is_some() {
                    return Err(UsageError("ledger takes exactly one WAL file".into()));
                }
            }
        }
    }
    let Some(path) = path else {
        return Err(UsageError("ledger needs a WAL file".into()));
    };
    match action {
        LedgerAction::Truncate => {
            if at.is_none() {
                return Err(UsageError("ledger truncate needs --at SEQ".into()));
            }
            if json {
                return Err(UsageError("ledger truncate takes no --json".into()));
            }
        }
        LedgerAction::Dump | LedgerAction::Verify => {
            if at.is_some() {
                return Err(UsageError("--at only applies to ledger truncate".into()));
            }
        }
    }
    Ok(LedgerArgs {
        action,
        path,
        at,
        json,
    })
}

fn parse_chaos(rest: &[String]) -> Result<ChaosArgs, UsageError> {
    let mut out = ChaosArgs {
        runs: 100,
        seed: 0x4d50_5221,
        days: 1.0,
        disable_emergency: false,
        wal_fsync_never: false,
        tree_fault_ups: false,
        no_shrink: false,
        artifact_dir: None,
        replay: None,
        csv: false,
        json: false,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--runs" => out.runs = parse_num(flag, take_value(flag, &mut it)?)?,
            "--seed" => out.seed = parse_num(flag, take_value(flag, &mut it)?)?,
            "--days" => out.days = parse_num(flag, take_value(flag, &mut it)?)?,
            "--disable-emergency" => out.disable_emergency = true,
            "--wal-fsync-never" => out.wal_fsync_never = true,
            "--tree-fault-ups" => out.tree_fault_ups = true,
            "--no-shrink" => out.no_shrink = true,
            "--artifact-dir" => out.artifact_dir = Some(take_value(flag, &mut it)?.to_owned()),
            "--replay" => out.replay = Some(take_value(flag, &mut it)?.to_owned()),
            "--csv" => out.csv = true,
            "--json" => out.json = true,
            other => return Err(UsageError(format!("unknown flag `{other}`"))),
        }
    }
    if out.csv && out.json {
        return Err(UsageError("--csv and --json are mutually exclusive".into()));
    }
    if out.replay.is_some()
        && (out.disable_emergency
            || out.wal_fsync_never
            || out.tree_fault_ups
            || out.csv
            || out.json)
    {
        return Err(UsageError(
            "--replay takes no campaign flags (only the artifact file)".into(),
        ));
    }
    if out.runs == 0 {
        return Err(UsageError("--runs must be at least 1".into()));
    }
    if !out.days.is_finite() || out.days <= 0.0 {
        return Err(UsageError("--days must be positive".into()));
    }
    Ok(out)
}

fn parse_swf_args(rest: &[String]) -> Result<SwfArgs, UsageError> {
    let mut out = SwfArgs {
        trace: "gaia".into(),
        days: 7.0,
        seed: 0x4d50_5221,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace" => {
                let v = take_value(flag, &mut it)?;
                spec_by_name(v)?;
                out.trace = v.to_owned();
            }
            "--days" => out.days = parse_num(flag, take_value(flag, &mut it)?)?,
            "--seed" => out.seed = parse_num(flag, take_value(flag, &mut it)?)?,
            other => return Err(UsageError(format!("unknown flag `{other}`"))),
        }
    }
    Ok(out)
}

fn parse_market(rest: &[String]) -> Result<MarketArgs, UsageError> {
    let mut out = MarketArgs {
        jobs: 100,
        target_watts: 10_000.0,
        mechanism: MarketMechanism::MprStat,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--jobs" => out.jobs = parse_num(flag, take_value(flag, &mut it)?)?,
            "--target-watts" => out.target_watts = parse_num(flag, take_value(flag, &mut it)?)?,
            "--mechanism" => {
                out.mechanism = match take_value(flag, &mut it)? {
                    "mpr-stat" => MarketMechanism::MprStat,
                    "mpr-int" => MarketMechanism::MprInt,
                    "opt" => MarketMechanism::Opt,
                    "eql" => MarketMechanism::Eql,
                    "vcg" => MarketMechanism::Vcg,
                    "chain" => MarketMechanism::Chain,
                    other => {
                        return Err(UsageError(format!(
                            "--mechanism: `{other}` is not one of \
                             mpr-stat|mpr-int|opt|eql|vcg|chain"
                        )))
                    }
                };
            }
            "--interactive" => out.mechanism = MarketMechanism::MprInt,
            other => return Err(UsageError(format!("unknown flag `{other}`"))),
        }
    }
    Ok(out)
}

/// Resolves a cluster preset by name.
///
/// # Errors
///
/// Returns [`UsageError`] for unknown names.
pub fn spec_by_name(name: &str) -> Result<ClusterSpec, UsageError> {
    match name {
        "gaia" => Ok(ClusterSpec::gaia()),
        "pik" => Ok(ClusterSpec::pik()),
        "ricc" => Ok(ClusterSpec::ricc()),
        "metacentrum" => Ok(ClusterSpec::metacentrum()),
        other => Err(UsageError(format!(
            "unknown trace `{other}` (expected gaia|pik|ricc|metacentrum)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn simulate_defaults() {
        let Command::Simulate(a) = parse(&argv("simulate")).unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(a.trace, "gaia");
        assert_eq!(a.algorithm, Algorithm::MprStat);
        assert_eq!(a.oversub_pct, 15.0);
        assert_eq!(a.fault_unresponsive, 0.0);
        assert_eq!(a.fault_crash, 0.0);
        assert!(!a.csv);
    }

    #[test]
    fn simulate_full_flags() {
        let Command::Simulate(a) = parse(&argv(
            "simulate --trace ricc --alg mpr-int --oversub 20 --days 7 --seed 9 --participation 0.5 --csv",
        ))
        .unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(a.trace, "ricc");
        assert_eq!(a.algorithm, Algorithm::MprInt);
        assert_eq!(a.oversub_pct, 20.0);
        assert_eq!(a.days, 7.0);
        assert_eq!(a.seed, 9);
        assert_eq!(a.participation, 0.5);
        assert!(a.csv);
    }

    #[test]
    fn simulate_fault_flags() {
        let Command::Simulate(a) = parse(&argv(
            "simulate --alg mpr-int --fault-unresponsive 0.3 --fault-crash 0.1 \
             --fault-stale 0.05 --fault-byzantine 0.02",
        ))
        .unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(a.fault_unresponsive, 0.3);
        assert_eq!(a.fault_crash, 0.1);
        assert_eq!(a.fault_stale, 0.05);
        assert_eq!(a.fault_byzantine, 0.02);
    }

    #[test]
    fn simulate_net_flags() {
        let Command::Simulate(a) = parse(&argv(
            "simulate --alg mpr-int --net-drop 0.3 --net-duplicate 0.1 --net-delay 4 \
             --net-partition 0.05 --net-deadline 32 --net-retries 5",
        ))
        .unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(a.net_drop, 0.3);
        assert_eq!(a.net_duplicate, 0.1);
        assert_eq!(a.net_delay, 4);
        assert_eq!(a.net_partition, 0.05);
        assert_eq!(a.net_deadline, 32);
        assert_eq!(a.net_retries, 5);
        // Defaults leave the plan idle.
        let Command::Simulate(b) = parse(&argv("simulate")).unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(b.net_drop, 0.0);
        assert_eq!(b.net_delay, 0);
        // Probabilities are fractions; ticks are integers.
        assert!(parse(&argv("simulate --net-drop 1.5")).is_err());
        assert!(parse(&argv("simulate --net-partition -0.1")).is_err());
        assert!(parse(&argv("simulate --net-delay soon")).is_err());
    }

    #[test]
    fn simulate_telemetry_and_checkpoint_flags() {
        let Command::Simulate(a) = parse(&argv(
            "simulate --sensor-noise 0.02 --sensor-dropout 0.3 --sensor-stale 2 \
             --checkpoint-every 500 --checkpoint-path run.ckpt",
        ))
        .unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(a.sensor_noise, 0.02);
        assert_eq!(a.sensor_dropout, 0.3);
        assert_eq!(a.sensor_stale, 2);
        assert_eq!(a.checkpoint_every, 500);
        assert_eq!(a.checkpoint_path.as_deref(), Some("run.ckpt"));
        assert_eq!(a.resume_from, None);

        let Command::Simulate(b) = parse(&argv("simulate --resume-from run.ckpt")).unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(b.resume_from.as_deref(), Some("run.ckpt"));
    }

    #[test]
    fn simulate_rejects_inconsistent_checkpoint_flags() {
        assert!(parse(&argv("simulate --checkpoint-every 500")).is_err());
        assert!(parse(&argv("simulate --checkpoint-path run.ckpt")).is_err());
        assert!(parse(&argv("simulate --sensor-noise 1.5")).is_err());
        assert!(parse(&argv("simulate --sensor-dropout -0.1")).is_err());
        assert!(parse(&argv("simulate --sensor-stale often")).is_err());
        assert!(parse(&argv("simulate --resume-from")).is_err());
    }

    #[test]
    fn simulate_rejects_bad_values() {
        assert!(parse(&argv("simulate --alg magic")).is_err());
        assert!(parse(&argv("simulate --trace nowhere")).is_err());
        assert!(parse(&argv("simulate --days soon")).is_err());
        assert!(parse(&argv("simulate --oversub")).is_err());
        assert!(parse(&argv("simulate --frobnicate")).is_err());
        assert!(parse(&argv("simulate --fault-crash 1.5")).is_err());
        assert!(parse(&argv("simulate --fault-unresponsive -0.1")).is_err());
    }

    #[test]
    fn market_parsing() {
        let Command::Market(m) =
            parse(&argv("market --jobs 500 --target-watts 2500 --interactive")).unwrap()
        else {
            panic!("expected market");
        };
        assert_eq!(m.jobs, 500);
        assert_eq!(m.target_watts, 2500.0);
        assert_eq!(m.mechanism, MarketMechanism::MprInt);
    }

    #[test]
    fn market_mechanism_flag() {
        for (name, want) in [
            ("mpr-stat", MarketMechanism::MprStat),
            ("mpr-int", MarketMechanism::MprInt),
            ("opt", MarketMechanism::Opt),
            ("eql", MarketMechanism::Eql),
            ("vcg", MarketMechanism::Vcg),
            ("chain", MarketMechanism::Chain),
        ] {
            let Command::Market(m) = parse(&argv(&format!("market --mechanism {name}"))).unwrap()
            else {
                panic!("expected market");
            };
            assert_eq!(m.mechanism, want, "--mechanism {name}");
        }
        assert_eq!(
            parse(&argv("market")).map(|c| match c {
                Command::Market(m) => m.mechanism,
                _ => panic!("expected market"),
            }),
            Ok(MarketMechanism::MprStat),
            "default stays MPR-STAT"
        );
        assert!(parse(&argv("market --mechanism magic")).is_err());
    }

    #[test]
    fn simulate_mechanism_flag_is_an_alg_synonym() {
        for (name, want) in [
            ("opt", Algorithm::Opt),
            ("eql", Algorithm::Eql),
            ("mpr-stat", Algorithm::MprStat),
            ("mpr-int", Algorithm::MprInt),
            ("vcg", Algorithm::Vcg),
        ] {
            for flag in ["--alg", "--mechanism"] {
                let Command::Simulate(a) =
                    parse(&argv(&format!("simulate {flag} {name}"))).unwrap()
                else {
                    panic!("expected simulate");
                };
                assert_eq!(a.algorithm, want, "{flag} {name}");
            }
        }
        assert!(parse(&argv("simulate --mechanism chain")).is_err());
    }

    #[test]
    fn prototype_flag() {
        assert_eq!(
            parse(&argv("prototype")).unwrap(),
            Command::Prototype { with_mpr: true }
        );
        assert_eq!(
            parse(&argv("prototype --without-mpr")).unwrap(),
            Command::Prototype { with_mpr: false }
        );
        assert!(parse(&argv("prototype --bogus")).is_err());
    }

    #[test]
    fn swf_parsing() {
        let Command::Swf(a) = parse(&argv("swf --trace ricc --days 3 --seed 5")).unwrap() else {
            panic!("expected swf");
        };
        assert_eq!(a.trace, "ricc");
        assert_eq!(a.days, 3.0);
        assert_eq!(a.seed, 5);
        assert!(parse(&argv("swf --trace mars")).is_err());
    }

    #[test]
    fn bare_subcommands() {
        assert_eq!(parse(&argv("calibrate")).unwrap(), Command::Calibrate);
        assert_eq!(parse(&argv("traces")).unwrap(), Command::Traces);
        assert_eq!(parse(&argv("apps")).unwrap(), Command::Apps);
        assert!(parse(&argv("traces extra")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
    }

    #[test]
    fn chaos_parsing() {
        let Command::Chaos(a) = parse(&argv("chaos")).unwrap() else {
            panic!("expected chaos");
        };
        assert_eq!(a.runs, 100);
        assert_eq!(a.seed, 0x4d50_5221);
        assert_eq!(a.days, 1.0);
        assert!(!a.disable_emergency && !a.wal_fsync_never && !a.tree_fault_ups);
        assert!(!a.no_shrink && !a.csv && !a.json);
        assert_eq!(a.artifact_dir, None);
        assert_eq!(a.replay, None);

        let Command::Chaos(a) = parse(&argv("chaos --wal-fsync-never")).unwrap() else {
            panic!("expected chaos");
        };
        assert!(a.wal_fsync_never);

        let Command::Chaos(a) = parse(&argv("chaos --tree-fault-ups")).unwrap() else {
            panic!("expected chaos");
        };
        assert!(a.tree_fault_ups);
        assert!(parse(&argv("chaos --replay r.json --tree-fault-ups")).is_err());

        let Command::Chaos(a) = parse(&argv(
            "chaos --runs 1000 --seed 42 --days 0.5 --disable-emergency \
             --no-shrink --artifact-dir out --csv",
        ))
        .unwrap() else {
            panic!("expected chaos");
        };
        assert_eq!(a.runs, 1000);
        assert_eq!(a.seed, 42);
        assert_eq!(a.days, 0.5);
        assert!(a.disable_emergency && a.no_shrink && a.csv);
        assert_eq!(a.artifact_dir.as_deref(), Some("out"));

        let Command::Chaos(a) = parse(&argv("chaos --replay repro.json")).unwrap() else {
            panic!("expected chaos");
        };
        assert_eq!(a.replay.as_deref(), Some("repro.json"));
    }

    #[test]
    fn simulate_wal_flags() {
        let Command::Simulate(a) =
            parse(&argv("simulate --wal run.wal --wal-fsync every=8")).unwrap()
        else {
            panic!("expected simulate");
        };
        assert_eq!(a.wal.as_deref(), Some("run.wal"));
        assert_eq!(a.wal_fsync, Some(FsyncPolicy::EveryRecords(8)));
        for policy in [
            ("always", FsyncPolicy::Always),
            ("never", FsyncPolicy::Never),
        ] {
            let Command::Simulate(a) =
                parse(&argv(&format!("simulate --wal w --wal-fsync {}", policy.0))).unwrap()
            else {
                panic!("expected simulate");
            };
            assert_eq!(a.wal_fsync, Some(policy.1));
        }
        // The policy defaults (to always) only when --wal is present.
        let Command::Simulate(a) = parse(&argv("simulate --wal run.wal")).unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(a.wal_fsync, None);

        assert!(parse(&argv("simulate --wal-fsync always")).is_err());
        assert!(parse(&argv("simulate --wal w --wal-fsync sometimes")).is_err());
        assert!(parse(&argv("simulate --wal w --wal-fsync every=0")).is_err());
        assert!(parse(&argv("simulate --wal w --resume-from c.ckpt")).is_err());
        assert!(parse(&argv(
            "simulate --wal w --checkpoint-every 10 --checkpoint-path c.ckpt"
        ))
        .is_err());
    }

    #[test]
    fn simulate_federated_flags() {
        let Command::Simulate(a) =
            parse(&argv("simulate --topology tree.json --federated")).unwrap()
        else {
            panic!("expected simulate");
        };
        assert_eq!(a.topology.as_deref(), Some("tree.json"));
        assert!(a.federated);
        // Defaults leave federated clearing off.
        let Command::Simulate(b) = parse(&argv("simulate")).unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(b.topology, None);
        assert!(!b.federated);
        // The flags come as a pair.
        assert!(parse(&argv("simulate --federated")).is_err());
        assert!(parse(&argv("simulate --topology tree.json")).is_err());
        assert!(parse(&argv("simulate --topology")).is_err());
    }

    #[test]
    fn federated_mpr_int_rejects_fault_and_net_plans() {
        let fed = "simulate --topology t.json --federated --alg mpr-int";
        for plan in [
            "--fault-unresponsive 0.3",
            "--fault-crash 0.1",
            "--fault-stale 0.2",
            "--fault-byzantine 0.1",
            "--net-drop 0.2",
            "--net-duplicate 0.1",
            "--net-partition 0.05",
            "--net-delay 50",
        ] {
            let err = parse(&argv(&format!("{fed} {plan}"))).unwrap_err();
            assert!(err.0.contains("--federated"), "{plan}: {err}");
        }
        // Without an active plan federated MPR-INT runs; other algorithms
        // never consult the plans, and flat MPR-INT composes them.
        assert!(parse(&argv(fed)).is_ok());
        assert!(parse(&argv(&format!("{fed} --net-deadline 9"))).is_ok());
        assert!(parse(&argv(
            "simulate --topology t.json --federated --alg mpr-stat --fault-crash 0.1"
        ))
        .is_ok());
        assert!(parse(&argv(
            "simulate --alg mpr-int --fault-crash 0.1 --net-drop 0.2"
        ))
        .is_ok());
    }

    #[test]
    fn simulate_tree_fault_flags() {
        let Command::Simulate(a) = parse(&argv(
            "simulate --topology tree.json --federated --tree-fault-ups 0.4 \
             --tree-fault-ats 0.3 --tree-fault-pdu 0.2 --tree-fault-derate 0.1 \
             --tree-fault-seed 7 --tree-fault-repair-secs 900",
        ))
        .unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(a.tree_fault_ups, 0.4);
        assert_eq!(a.tree_fault_ats, 0.3);
        assert_eq!(a.tree_fault_pdu, 0.2);
        assert_eq!(a.tree_fault_derate, 0.1);
        assert_eq!(a.tree_fault_seed, 7);
        assert_eq!(a.tree_fault_repair_secs, 900.0);
        // Defaults leave the plan idle.
        let Command::Simulate(b) = parse(&argv("simulate")).unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(b.tree_fault_ups, 0.0);
        assert_eq!(b.tree_fault_seed, 0);
        // Fault probabilities are fractions.
        assert!(parse(&argv(
            "simulate --topology t.json --federated --tree-fault-ups 1.5"
        ))
        .is_err());
        // Every tree-fault flag needs the federated power tree.
        for flag in [
            "--tree-fault-ups 0.5",
            "--tree-fault-ats 0.5",
            "--tree-fault-pdu 0.5",
            "--tree-fault-derate 0.5",
            "--tree-fault-seed 9",
            "--tree-fault-repair-secs 60",
        ] {
            assert!(parse(&argv(&format!("simulate {flag}"))).is_err(), "{flag}");
        }
        // Repair times are finite and non-negative.
        assert!(parse(&argv(
            "simulate --topology t.json --federated --tree-fault-repair-secs -5"
        ))
        .is_err());
        assert!(parse(&argv(
            "simulate --topology t.json --federated --tree-fault-repair-secs inf"
        ))
        .is_err());
    }

    #[test]
    fn ledger_parsing() {
        let Command::Ledger(a) = parse(&argv("ledger dump run.wal")).unwrap() else {
            panic!("expected ledger");
        };
        assert_eq!(a.action, LedgerAction::Dump);
        assert_eq!(a.path, "run.wal");
        assert!(!a.json && a.at.is_none());

        let Command::Ledger(a) = parse(&argv("ledger verify run.wal --json")).unwrap() else {
            panic!("expected ledger");
        };
        assert_eq!(a.action, LedgerAction::Verify);
        assert!(a.json);

        let Command::Ledger(a) = parse(&argv("ledger truncate run.wal --at 42")).unwrap() else {
            panic!("expected ledger");
        };
        assert_eq!(a.action, LedgerAction::Truncate);
        assert_eq!(a.at, Some(42));
    }

    #[test]
    fn ledger_rejects_bad_combinations() {
        assert!(parse(&argv("ledger")).is_err());
        assert!(parse(&argv("ledger dump")).is_err());
        assert!(parse(&argv("ledger frobnicate run.wal")).is_err());
        assert!(parse(&argv("ledger dump a.wal b.wal")).is_err());
        assert!(parse(&argv("ledger dump run.wal --at 5")).is_err());
        assert!(parse(&argv("ledger truncate run.wal")).is_err());
        assert!(parse(&argv("ledger truncate run.wal --at 5 --json")).is_err());
        assert!(parse(&argv("ledger truncate run.wal --at soon")).is_err());
        assert!(parse(&argv("ledger dump run.wal --frobnicate")).is_err());
    }

    #[test]
    fn chaos_rejects_bad_combinations() {
        assert!(parse(&argv("chaos --csv --json")).is_err());
        assert!(parse(&argv("chaos --replay r.json --csv")).is_err());
        assert!(parse(&argv("chaos --replay r.json --disable-emergency")).is_err());
        assert!(parse(&argv("chaos --replay r.json --wal-fsync-never")).is_err());
        assert!(parse(&argv("chaos --runs 0")).is_err());
        assert!(parse(&argv("chaos --days 0")).is_err());
        assert!(parse(&argv("chaos --days -1")).is_err());
        assert!(parse(&argv("chaos --runs many")).is_err());
        assert!(parse(&argv("chaos --frobnicate")).is_err());
    }

    #[test]
    fn spec_lookup() {
        assert_eq!(spec_by_name("gaia").unwrap().name, "Gaia");
        assert_eq!(spec_by_name("pik").unwrap().name, "PIK");
        assert!(spec_by_name("x").is_err());
    }
}
