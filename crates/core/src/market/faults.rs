//! Fault injection and graceful degradation for the interactive market.
//!
//! MPR-INT (Section III-B) assumes every user agent answers every price
//! announcement, yet overloads are time-critical: a stalled or misbehaving
//! bidder must never leave `P(t) > C` standing (Section III-E). This module
//! provides both halves of the robustness story:
//!
//! * **Fault injection** — composable adapters wrapping any
//!   [`BiddingAgent`]: [`UnresponsiveAgent`] (misses round deadlines),
//!   [`StaleAgent`] (replays an old bid), [`CrashAgent`] (fails permanently
//!   mid-negotiation) and [`ByzantineAgent`] (over/under-bids by a factor,
//!   optionally oscillating). All are deterministic given their seeds, so
//!   simulations reproduce bit-for-bit.
//! * **Graceful degradation** — the settings ([`ResilientConfig`]),
//!   diagnostics ([`Quarantine`], [`ChainLevel`]) and
//!   [`ConvergenceWatchdog`] of the fault-tolerant exchange. The exchange
//!   ([`ResilientInteractiveMechanism`](crate::mechanism::ResilientInteractiveMechanism))
//!   bounds each round with a retry budget (the synchronous stand-in for a
//!   response deadline with backoff), quarantines defaulting participants
//!   and re-clears MClr over the survivors, and detects price oscillation
//!   with the watchdog;
//!   [`FallbackChain::degradation`](crate::mechanism::FallbackChain::degradation)
//!   then walks an explicit degradation chain:
//!
//!   1. **MPR-INT** over the responsive agents;
//!   2. **MPR-STAT** over *all* agents, pricing quarantined jobs at their
//!      last-known or registered cooperative bid (bid 0 — manager-side
//!      forced capping — when neither exists);
//!   3. **EQL**-style uniform capping, the terminal guarantee: every job is
//!      reduced by the same fraction of its `Δ`, so any physically
//!      attainable reduction target `P(t) − 0.99·C` is met exactly.

use crate::error::MarketError;
use crate::market::interactive::{BiddingAgent, InteractiveConfig};
use crate::mechanism::JobId;

// ---------------------------------------------------------------------------
// Deterministic seeding
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny, dependency-free deterministic generator — the one
/// used for agent fault phases, transport jitter and sensor fault
/// processes. A single `u64` of state, trivially snapshottable; not
/// cryptographic, but statistically ample for fault sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    /// Current generator state. Public so checkpoints can capture and
    /// restore the stream exactly.
    pub state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard-normal draw (Box–Muller, no caching so the per-draw state
    /// advance is fixed).
    pub fn next_gaussian(&mut self) -> f64 {
        // 1 − u ∈ (0, 1] keeps the log argument away from zero.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

// ---------------------------------------------------------------------------
// Faulty-agent adapters
// ---------------------------------------------------------------------------

/// An agent that stops answering after a number of successful rounds: every
/// later [`respond`](BiddingAgent::respond) returns
/// [`MarketError::AgentTimeout`], modelling a user whose client misses the
/// round deadline indefinitely (network partition, dead session).
///
/// `healthy_rounds = 0` makes the agent unresponsive from the first
/// announcement.
#[derive(Debug)]
pub struct UnresponsiveAgent<A> {
    inner: A,
    healthy_rounds: usize,
    round: usize,
}

impl<A: BiddingAgent> UnresponsiveAgent<A> {
    /// Wraps `inner`, answering the first `healthy_rounds` announcements
    /// normally and timing out forever after.
    #[must_use]
    pub fn new(inner: A, healthy_rounds: usize) -> Self {
        Self {
            inner,
            healthy_rounds,
            round: 0,
        }
    }
}

impl<A: BiddingAgent> BiddingAgent for UnresponsiveAgent<A> {
    fn job_id(&self) -> JobId {
        self.inner.job_id()
    }
    fn watts_per_unit(&self) -> f64 {
        self.inner.watts_per_unit()
    }
    fn delta_max(&self) -> f64 {
        self.inner.delta_max()
    }
    fn respond(&mut self, price: f64) -> Result<f64, MarketError> {
        self.round += 1;
        if self.round > self.healthy_rounds {
            return Err(MarketError::AgentTimeout {
                job: self.inner.job_id(),
                round: self.round,
            });
        }
        self.inner.respond(price)
    }
}

/// An agent whose state froze: after `fresh_rounds` live answers it replays
/// its most recent bid forever, regardless of the announced price (stuck
/// client-side cache, wedged event loop that still ACKs).
///
/// Staleness is not an error — the market sees a syntactically valid bid —
/// which is precisely why it needs the convergence watchdog rather than the
/// retry path.
#[derive(Debug)]
pub struct StaleAgent<A> {
    inner: A,
    fresh_rounds: usize,
    round: usize,
    last_bid: Option<f64>,
}

impl<A: BiddingAgent> StaleAgent<A> {
    /// Wraps `inner`, answering live for `fresh_rounds` rounds and replaying
    /// the last live bid afterwards. With `fresh_rounds = 0` the agent
    /// replays an initial zero bid (it never computed anything).
    #[must_use]
    pub fn new(inner: A, fresh_rounds: usize) -> Self {
        Self {
            inner,
            fresh_rounds,
            round: 0,
            last_bid: None,
        }
    }
}

impl<A: BiddingAgent> BiddingAgent for StaleAgent<A> {
    fn job_id(&self) -> JobId {
        self.inner.job_id()
    }
    fn watts_per_unit(&self) -> f64 {
        self.inner.watts_per_unit()
    }
    fn delta_max(&self) -> f64 {
        self.inner.delta_max()
    }
    fn respond(&mut self, price: f64) -> Result<f64, MarketError> {
        self.round += 1;
        if self.round <= self.fresh_rounds {
            let bid = self.inner.respond(price)?;
            self.last_bid = Some(bid);
            return Ok(bid);
        }
        Ok(self.last_bid.unwrap_or(0.0))
    }
}

/// An agent that fails permanently after a number of rounds: every
/// [`respond`](BiddingAgent::respond) from then on returns
/// [`MarketError::AgentCrashed`]. Unlike [`UnresponsiveAgent`] the error is
/// terminal by contract — retrying is futile — so resilient drivers
/// quarantine the job without spending the retry budget.
#[derive(Debug)]
pub struct CrashAgent<A> {
    inner: A,
    healthy_rounds: usize,
    round: usize,
}

impl<A: BiddingAgent> CrashAgent<A> {
    /// Wraps `inner`, crashing permanently after `healthy_rounds` rounds.
    #[must_use]
    pub fn new(inner: A, healthy_rounds: usize) -> Self {
        Self {
            inner,
            healthy_rounds,
            round: 0,
        }
    }
}

impl<A: BiddingAgent> BiddingAgent for CrashAgent<A> {
    fn job_id(&self) -> JobId {
        self.inner.job_id()
    }
    fn watts_per_unit(&self) -> f64 {
        self.inner.watts_per_unit()
    }
    fn delta_max(&self) -> f64 {
        self.inner.delta_max()
    }
    fn respond(&mut self, price: f64) -> Result<f64, MarketError> {
        self.round += 1;
        if self.round > self.healthy_rounds {
            return Err(MarketError::AgentCrashed {
                job: self.inner.job_id(),
                round: self.round,
            });
        }
        self.inner.respond(price)
    }
}

/// A non-rational agent that distorts its true best response by a factor,
/// either constantly or alternating over/under each round (the oscillating
/// variant destabilizes the price exchange and is the canonical watchdog
/// trigger). The starting phase of the oscillation is drawn from the seed,
/// so fleets of byzantine agents do not bid in lockstep.
#[derive(Debug)]
pub struct ByzantineAgent<A> {
    inner: A,
    factor: f64,
    oscillate: bool,
    over: bool,
}

impl<A: BiddingAgent> ByzantineAgent<A> {
    /// Wraps `inner`, multiplying every bid by `factor` (must be positive
    /// and finite; values are clamped into `[1e-6, 1e6]`).
    ///
    /// With `oscillate = true` the agent alternates between `factor` and
    /// `1/factor` each round; the seed picks which comes first.
    #[must_use]
    pub fn new(inner: A, factor: f64, oscillate: bool, seed: u64) -> Self {
        let factor = if factor.is_finite() && factor > 0.0 {
            factor.clamp(1e-6, 1e6)
        } else {
            1.0
        };
        let over = SplitMix64::new(seed).next_u64() & 1 == 0;
        Self {
            inner,
            factor,
            oscillate,
            over,
        }
    }
}

impl<A: BiddingAgent> BiddingAgent for ByzantineAgent<A> {
    fn job_id(&self) -> JobId {
        self.inner.job_id()
    }
    fn watts_per_unit(&self) -> f64 {
        self.inner.watts_per_unit()
    }
    fn delta_max(&self) -> f64 {
        self.inner.delta_max()
    }
    fn respond(&mut self, price: f64) -> Result<f64, MarketError> {
        let honest = self.inner.respond(price)?;
        let f = if self.over {
            self.factor
        } else {
            1.0 / self.factor
        };
        if self.oscillate {
            self.over = !self.over;
        }
        Ok(honest * f)
    }
}

// ---------------------------------------------------------------------------
// Convergence watchdog
// ---------------------------------------------------------------------------

/// Sliding-window divergence detector over the relative price change per
/// round.
///
/// Divergence is declared when a full window of rounds all moved by at
/// least `min_change` *and* the oscillation is not contracting (the mean
/// change over the newer half of the window is at least 80 % of the older
/// half's). A healthy exchange contracts geometrically, so its window never
/// satisfies both conditions; a byzantine-driven oscillation holds its
/// amplitude and trips the watchdog within one window of rounds.
#[derive(Debug, Clone)]
pub struct ConvergenceWatchdog {
    window: Vec<f64>,
    capacity: usize,
    min_change: f64,
}

impl ConvergenceWatchdog {
    /// Creates a watchdog over the last `window` rounds, ignoring relative
    /// changes below `min_change` (those count as converging).
    #[must_use]
    pub fn new(window: usize, min_change: f64) -> Self {
        Self {
            window: Vec::with_capacity(window.max(2)),
            capacity: window.max(2),
            min_change: min_change.max(0.0),
        }
    }

    /// Records one round's relative price change; returns `true` when the
    /// trajectory is diverging.
    pub fn observe(&mut self, rel_change: f64) -> bool {
        if self.window.len() == self.capacity {
            self.window.remove(0);
        }
        self.window.push(rel_change.abs());
        if self.window.len() < self.capacity {
            return false;
        }
        if self.window.iter().any(|&c| c < self.min_change) {
            return false;
        }
        let half = self.capacity / 2;
        let (old_half, new_half) = self.window.split_at(half);
        let older: f64 = old_half.iter().sum::<f64>() / half as f64;
        let newer: f64 = new_half.iter().sum::<f64>() / (self.capacity - half) as f64;
        newer >= 0.8 * older
    }
}

// ---------------------------------------------------------------------------
// The resilient market
// ---------------------------------------------------------------------------

/// How far down the degradation chain a clearing had to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChainLevel {
    /// The interactive exchange converged over the responsive agents and
    /// met the target — the clean case.
    Interactive,
    /// Interactive failed (quarantine losses, divergence, or an unmet
    /// target); one static MClr solve over last-known/cooperative bids met
    /// the target.
    StaticFallback,
    /// Even the static solve under-delivered; uniform forced capping was
    /// applied. Meets any physically attainable target exactly.
    EqlCapping,
}

impl std::fmt::Display for ChainLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainLevel::Interactive => write!(f, "MPR-INT"),
            ChainLevel::StaticFallback => write!(f, "MPR-STAT"),
            ChainLevel::EqlCapping => write!(f, "EQL"),
        }
    }
}

/// Why a participant was quarantined.
#[derive(Debug, Clone, PartialEq)]
pub struct Quarantine {
    /// The quarantined job.
    pub id: JobId,
    /// The 1-based round in which the participant defaulted.
    pub round: usize,
    /// The error that exhausted the retry budget.
    pub error: MarketError,
}

/// Tuning knobs for the fault-tolerant exchanges
/// ([`ResilientInteractiveMechanism`](crate::mechanism::ResilientInteractiveMechanism),
/// [`TransportedInteractiveMechanism`](crate::mechanism::TransportedInteractiveMechanism)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientConfig {
    /// The underlying interactive-market configuration.
    pub interactive: InteractiveConfig,
    /// Retries granted per agent per round before quarantine. Each retry
    /// models one deadline extension with backoff; crashes
    /// ([`MarketError::AgentCrashed`]) skip the budget — they are terminal
    /// by contract.
    pub max_retries: usize,
    /// Watchdog window length in rounds.
    pub watchdog_window: usize,
    /// Relative price change below which a round counts as converging for
    /// the watchdog (distinct from — and much larger than — the clearing
    /// `tolerance`).
    pub divergence_min_change: f64,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        Self {
            interactive: InteractiveConfig::default(),
            max_retries: 2,
            watchdog_window: 8,
            divergence_min_change: 0.05,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidding::cooperative_bid;
    use crate::cost::QuadraticCost;
    use crate::market::interactive::NetGainAgent;
    use crate::mechanism::{
        Clearing, FallbackChain, MarketInstance, Mechanism, MechanismError,
        ResilientInteractiveMechanism,
    };
    use crate::units::{Price, Watts};

    const WPU: f64 = 125.0;

    fn rational(id: JobId, alpha: f64) -> NetGainAgent<QuadraticCost> {
        NetGainAgent::new(id, QuadraticCost::new(alpha, 1.0), Watts::new(WPU))
    }

    fn resilient_over(agents: Vec<Box<dyn BiddingAgent>>) -> ResilientInteractiveMechanism {
        let mut m = ResilientInteractiveMechanism::new(ResilientConfig::default());
        for a in agents {
            m.register(a, None);
        }
        m
    }

    /// Clears the registered agents through the degradation chain.
    fn clear(level0: ResilientInteractiveMechanism, target: f64) -> Clearing {
        let instance = level0.instance();
        FallbackChain::degradation(level0)
            .clear(&instance, Watts::new(target))
            .unwrap()
    }

    fn level(c: &Clearing) -> ChainLevel {
        c.diagnostics().chain_level.unwrap()
    }

    fn quarantined_ids(c: &Clearing) -> Vec<JobId> {
        c.diagnostics().quarantined.iter().map(|q| q.id).collect()
    }

    fn reduction_of(c: &Clearing, id: JobId) -> f64 {
        let row = c.ids().iter().position(|&i| i == id).unwrap();
        c.reductions()[row]
    }

    #[test]
    fn fault_rng_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<f64> = (0..100).map(|_| a.next_f64()).collect();
        let ys: Vec<f64> = (0..100).map(|_| b.next_f64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn never_bidding_stale_agent_supplies_at_zero_bid() {
        let mut stale = StaleAgent::new(rational(0, 1.0), 0);
        assert_eq!(stale.respond(0.5).unwrap(), 0.0);
        assert_eq!(stale.respond(2.0).unwrap(), 0.0);
        assert_eq!(stale.job_id(), 0);
        assert_eq!(stale.delta_max(), 1.0);
        assert_eq!(stale.watts_per_unit(), WPU);
    }

    #[test]
    fn byzantine_constant_factor_biases_bids() {
        let mut honest = rational(0, 1.0);
        let mut byz = ByzantineAgent::new(rational(0, 1.0), 4.0, false, 3);
        let h = honest.respond(0.8).unwrap();
        let b = byz.respond(0.8).unwrap();
        assert!(
            (b - 4.0 * h).abs() < 1e-12 || (b - h / 4.0).abs() < 1e-12,
            "byzantine bid {b} must be 4x off the honest {h}"
        );
        // Constant variant keeps the same factor across rounds.
        let b2 = byz.respond(0.8).unwrap();
        assert!((b2 - b).abs() < 1e-12);
        // Degenerate factors are sanitized.
        let mut id_byz = ByzantineAgent::new(rational(1, 1.0), f64::NAN, false, 3);
        let mut honest2 = rational(1, 1.0);
        assert_eq!(id_byz.respond(0.8).unwrap(), honest2.respond(0.8).unwrap());
    }

    #[test]
    fn watchdog_ignores_contracting_trajectories() {
        let mut w = ConvergenceWatchdog::new(6, 0.01);
        // Geometric contraction: never diverges.
        let mut change = 0.5;
        for _ in 0..30 {
            assert!(!w.observe(change));
            change *= 0.7;
        }
        // Sustained oscillation: diverges once the window fills.
        let mut w = ConvergenceWatchdog::new(6, 0.01);
        let mut fired = false;
        for _ in 0..6 {
            fired = w.observe(0.4);
        }
        assert!(
            fired,
            "constant-amplitude oscillation must trip the watchdog"
        );
    }

    #[test]
    fn chain_level_ordering_and_display() {
        assert!(ChainLevel::Interactive < ChainLevel::StaticFallback);
        assert!(ChainLevel::StaticFallback < ChainLevel::EqlCapping);
        assert_eq!(ChainLevel::Interactive.to_string(), "MPR-INT");
        assert_eq!(ChainLevel::StaticFallback.to_string(), "MPR-STAT");
        assert_eq!(ChainLevel::EqlCapping.to_string(), "EQL");
    }

    #[test]
    fn healthy_agents_clear_at_interactive_level() {
        let agents: Vec<Box<dyn BiddingAgent>> = (0..4)
            .map(|i| Box::new(rational(i, 1.0 + i as f64)) as _)
            .collect();
        let c = clear(resilient_over(agents), 200.0);
        let d = c.diagnostics();
        assert_eq!(level(&c), ChainLevel::Interactive);
        assert!(d.converged && !d.diverged);
        assert!(d.quarantined.is_empty());
        assert_eq!(d.levels_tried, 1);
        assert_eq!(d.retries, 0);
        assert!(c.met_target());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn zero_target_and_empty_market_edge_cases() {
        let c = clear(resilient_over(vec![Box::new(rational(0, 1.0))]), 0.0);
        assert!(c.diagnostics().converged);
        assert_eq!(level(&c), ChainLevel::Interactive);
        assert_eq!(c.price(), Price::ZERO);

        let empty = ResilientInteractiveMechanism::new(ResilientConfig::default());
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        let instance = MarketInstance::from_specs(std::iter::empty());
        assert!(matches!(
            FallbackChain::degradation(empty).clear(&instance, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
    }

    #[test]
    fn unresponsive_agents_are_quarantined_with_timeout_errors() {
        let mut agents: Vec<Box<dyn BiddingAgent>> = (0..6)
            .map(|i| Box::new(rational(i, 1.0 + i as f64)) as _)
            .collect();
        agents.push(Box::new(UnresponsiveAgent::new(rational(6, 1.0), 0)));
        // Target within the survivors' capability.
        let c = clear(resilient_over(agents), 300.0);
        let d = c.diagnostics();
        assert_eq!(quarantined_ids(&c), vec![6]);
        assert!(matches!(
            d.quarantined[0].error,
            MarketError::AgentTimeout { job: 6, .. }
        ));
        // Two retries were burned before quarantine.
        assert_eq!(d.retries, 2);
        assert!(c.met_target());
        assert_eq!(level(&c), ChainLevel::Interactive);
        // The quarantined job contributes nothing at the interactive level.
        assert_eq!(reduction_of(&c, 6), 0.0);
    }

    #[test]
    fn crashes_skip_the_retry_budget() {
        let mut agents: Vec<Box<dyn BiddingAgent>> =
            vec![Box::new(rational(0, 1.0)), Box::new(rational(1, 2.0))];
        agents.push(Box::new(CrashAgent::new(rational(2, 1.0), 1)));
        let c = clear(resilient_over(agents), 150.0);
        assert_eq!(quarantined_ids(&c), vec![2]);
        assert!(matches!(
            c.diagnostics().quarantined[0].error,
            MarketError::AgentCrashed { job: 2, round: 2 }
        ));
        assert_eq!(c.diagnostics().retries, 0, "crashes must not burn retries");
        assert!(c.met_target());
    }

    #[test]
    fn fallback_recovers_capacity_of_quarantined_jobs() {
        // Two rational jobs can deliver at most 2 Δ · 125 W = 250 W; the
        // target of 420 W is only attainable with the two silent jobs'
        // capacity, priced at their registered cooperative bids.
        let coop = cooperative_bid(&QuadraticCost::new(1.0, 1.0)).unwrap();
        let mut m = ResilientInteractiveMechanism::new(ResilientConfig::default());
        m.register(Box::new(rational(0, 1.0)), Some(coop));
        m.register(Box::new(rational(1, 2.0)), Some(coop));
        m.register(
            Box::new(UnresponsiveAgent::new(rational(2, 1.0), 0)),
            Some(coop),
        );
        m.register(
            Box::new(UnresponsiveAgent::new(rational(3, 1.0), 0)),
            Some(coop),
        );
        let c = clear(m, 420.0);
        assert_eq!(quarantined_ids(&c), vec![2, 3]);
        assert_eq!(level(&c), ChainLevel::StaticFallback);
        assert!(c.met_target(), "chain must meet the target");
        assert_eq!(c.residual(), Watts::ZERO);
        // Quarantined jobs now carry nonzero reductions.
        for id in [2u64, 3] {
            assert!(
                reduction_of(&c, id) > 0.0,
                "job {id} must supply in the fallback"
            );
        }
    }

    #[test]
    fn oscillating_byzantine_triggers_watchdog_and_falls_back() {
        let cfg = ResilientConfig {
            interactive: InteractiveConfig {
                max_iterations: 100,
                ..InteractiveConfig::default()
            },
            ..ResilientConfig::default()
        };
        let mut m = ResilientInteractiveMechanism::new(cfg);
        m.register(Box::new(rational(0, 1.0)), None);
        m.register(Box::new(rational(1, 2.0)), None);
        // A large byzantine participant oscillating 8x over/under swings
        // the clearing price every round.
        let big = NetGainAgent::new(2, QuadraticCost::new(0.5, 8.0), Watts::new(WPU));
        m.register(Box::new(ByzantineAgent::new(big, 8.0, true, 7)), None);
        let c = clear(m, 800.0);
        let d = c.diagnostics();
        assert!(d.diverged, "watchdog must detect the oscillation");
        assert!(!d.converged);
        assert!(
            c.iterations() < 100,
            "must abort well before max_iterations, used {}",
            c.iterations()
        );
        assert!(level(&c) > ChainLevel::Interactive);
        assert!(c.met_target(), "fallback must still meet the target");
    }

    #[test]
    fn stale_agent_does_not_prevent_clearing() {
        let mut agents: Vec<Box<dyn BiddingAgent>> =
            vec![Box::new(rational(0, 1.0)), Box::new(rational(1, 2.0))];
        agents.push(Box::new(StaleAgent::new(rational(2, 1.5), 1)));
        let c = clear(resilient_over(agents), 250.0);
        // Staleness is silent: nobody is quarantined and the exchange still
        // settles (the stale bid is just a constant supply).
        assert!(c.diagnostics().quarantined.is_empty());
        assert!(c.met_target());
    }

    #[test]
    fn terminal_eql_capping_meets_barely_attainable_targets() {
        // Every agent silent: the static level clears at the price ceiling,
        // but a target inside the last 0.1 % of attainable power can still
        // fall short there — the EQL level must close it exactly.
        let mut m = ResilientInteractiveMechanism::new(ResilientConfig::default());
        for i in 0..4u64 {
            m.register(
                Box::new(UnresponsiveAgent::new(rational(i, 1.0), 0)),
                Some(0.3),
            );
        }
        // Attainable: 4 jobs · Δ=1 · 125 W = 500 W. Ask for all of it.
        let c = clear(m, 500.0);
        assert_eq!(c.diagnostics().quarantined.len(), 4);
        assert!(level(&c) > ChainLevel::Interactive);
        assert!(
            c.total_power_reduction().get() >= 500.0 * (1.0 - 1e-6),
            "terminal level must deliver the attainable maximum, got {}",
            c.total_power_reduction()
        );
        assert!(c.residual().get() <= 1e-6);
    }

    #[test]
    fn infeasible_target_caps_everything_and_reports_residual() {
        let m = resilient_over(vec![
            Box::new(rational(0, 1.0)) as Box<dyn BiddingAgent>,
            Box::new(rational(1, 1.0)),
        ]);
        // Attainable 250 W; ask for 1000 W.
        let c = clear(m, 1000.0);
        assert_eq!(level(&c), ChainLevel::EqlCapping);
        assert!((c.total_power_reduction().get() - 250.0).abs() < 1e-6);
        assert!((c.residual().get() - 750.0).abs() < 1e-6);
        // Forced capping pays nothing.
        assert_eq!(c.price(), Price::ZERO);
    }

    #[test]
    fn unresponsive_after_some_rounds_uses_last_known_bid_in_fallback() {
        // The agent answers round 1 then goes silent: its round-1 bid is
        // the last-known bid the static fallback prices it at.
        let coop = cooperative_bid(&QuadraticCost::new(1.0, 1.0)).unwrap();
        let mut m = ResilientInteractiveMechanism::new(ResilientConfig::default());
        m.register(Box::new(rational(0, 1.0)), Some(coop));
        m.register(
            Box::new(UnresponsiveAgent::new(rational(1, 1.0), 1)),
            Some(coop),
        );
        // 240 W needs both jobs (each caps at 125 W).
        let c = clear(m, 240.0);
        assert_eq!(quarantined_ids(&c), vec![1]);
        assert!(c.met_target());
        assert!(reduction_of(&c, 1) > 0.0);
    }
}
