//! MPR-INT over an asynchronous, deadline-bounded message [`Transport`]
//! (DESIGN.md §12).
//!
//! Each round the manager broadcasts a
//! [`PriceAnnounce`](crate::market::transport::PriceAnnounce) to every
//! live agent endpoint and collects
//! [`BidReply`](crate::market::transport::BidReply)s until the round
//! deadline, retransmitting to silent agents on a capped
//! exponential-backoff schedule with jitter. Replies are deduplicated by
//! `(agent, round, msg_id)`; late and duplicate replies are counted and
//! dropped. When the deadline expires the round clears with **last-known
//! bids** (straggler policy), and an agent that misses
//! [`TransportConfig::quarantine_after_misses`] consecutive rounds is
//! quarantined exactly like a defaulting agent in the PR-1 resilient
//! exchange. Over a [`PerfectTransport`](crate::market::transport::PerfectTransport)
//! the exchange is bit-for-bit identical to the synchronous
//! [`InteractiveMechanism`](crate::mechanism::InteractiveMechanism).
//!
//! Like [`ResilientInteractiveMechanism`](crate::mechanism::ResilientInteractiveMechanism),
//! this is a chain level 0: transport faults never become errors — a failed
//! exchange returns an **unaccepted** [`Clearing`] carrying observed bids
//! for the next [`FallbackChain`](crate::mechanism::FallbackChain) stage.

use crate::error::MarketError;
use crate::market::faults::{ConvergenceWatchdog, FaultRng, Quarantine, ResilientConfig};
use crate::market::interactive::BiddingAgent;
use crate::market::transport::{
    BidReply, PriceAnnounce, Tick, Transport, TransportConfig, TransportDiagnostics, TransportError,
};
use crate::mclr;
use crate::mechanism::resilient::{
    slots_instance, slots_observed_bids, slots_survivor_participants, slots_survivor_reductions,
    AgentSlot,
};
use crate::mechanism::{
    Clearing, Diagnostics, InstanceView, MarketInstance, Mechanism, MechanismError,
};
use crate::units::{Price, Watts};

/// Per-slot state of one collection round.
#[derive(Debug, Clone)]
struct RoundState {
    /// The slot was broadcast to this round.
    live: bool,
    /// Still waiting for a valid reply.
    pending: bool,
    /// Announcement ids sent this round (dedup universe).
    sent: Vec<u64>,
    /// Announcement attempts made.
    attempts: usize,
    /// Virtual time of the next retransmit.
    retry_at: Tick,
}

impl RoundState {
    fn idle() -> Self {
        Self {
            live: false,
            pending: false,
            sent: Vec::new(),
            attempts: 0,
            retry_at: Tick::MAX,
        }
    }
}

/// The deadline-bounded interactive exchange over an abstract [`Transport`].
///
/// The mechanism owns its agents (quarantine and miss-streak state persist
/// across clearings) and its channel (virtual time is monotone across
/// clearings, so late replies from a previous clearing surface — and are
/// discarded — deterministically).
pub struct TransportedInteractiveMechanism<T: Transport> {
    slots: Vec<AgentSlot>,
    /// Consecutive missed rounds per slot (straggler → quarantine policy).
    miss_streak: Vec<usize>,
    /// Terminal endpoint crash observed for the slot, if any.
    crashed: Vec<Option<MarketError>>,
    /// Idempotency cache: the bid already computed for `(round)`, so
    /// retransmits and duplicate deliveries never re-invoke the agent.
    answered: Vec<Option<(usize, f64)>>,
    config: ResilientConfig,
    transport_config: TransportConfig,
    transport: T,
    /// The exchange's virtual clock, monotone over the mechanism's life.
    now: Tick,
    msg_seq: u64,
    jitter: FaultRng,
}

impl<T: Transport> std::fmt::Debug for TransportedInteractiveMechanism<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportedInteractiveMechanism")
            .field("agents", &self.slots.len())
            .field("transport", &self.transport.name())
            .field("config", &self.config)
            .field("transport_config", &self.transport_config)
            .finish()
    }
}

impl<T: Transport> TransportedInteractiveMechanism<T> {
    /// Creates an empty mechanism over `transport`.
    #[must_use]
    pub fn new(config: ResilientConfig, transport_config: TransportConfig, transport: T) -> Self {
        Self {
            slots: Vec::new(),
            miss_streak: Vec::new(),
            crashed: Vec::new(),
            answered: Vec::new(),
            config,
            transport_config,
            transport,
            now: 0,
            msg_seq: 0,
            jitter: FaultRng::new(transport_config.jitter_seed),
        }
    }

    /// Registers an agent endpoint together with its submission-time
    /// cooperative bid (ignored unless finite and non-negative).
    pub fn register(&mut self, agent: Box<dyn BiddingAgent>, fallback_bid: Option<f64>) {
        self.slots.push(AgentSlot::new(agent, fallback_bid));
        self.miss_streak.push(0);
        self.crashed.push(None);
        self.answered.push(None);
    }

    /// Number of registered agents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no agents are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The resilient (exchange) configuration in use.
    #[must_use]
    pub fn config(&self) -> ResilientConfig {
        self.config
    }

    /// The deadline/retry/quarantine policy in use.
    #[must_use]
    pub fn transport_config(&self) -> TransportConfig {
        self.transport_config
    }

    /// The underlying channel (for its counters).
    #[must_use]
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Builds the [`MarketInstance`] matching the registered agents, in
    /// registration order (bids are the registered fallback bids).
    #[must_use]
    pub fn instance(&self) -> MarketInstance {
        slots_instance(&self.slots)
    }

    /// Runs one deadline-bounded collection round: broadcast, gather until
    /// the deadline (retransmitting on the backoff schedule), then apply the
    /// straggler/quarantine policy. Returns `false` when no live agents
    /// remain.
    #[allow(clippy::too_many_lines)]
    fn run_round(
        &mut self,
        round: usize,
        announced: Price,
        quarantined: &mut Vec<Quarantine>,
        diag: &mut TransportDiagnostics,
    ) -> bool {
        let retry = self.transport_config.retry;
        let deadline = self
            .now
            .saturating_add(self.transport_config.deadline_ticks);
        let mut rs: Vec<RoundState> = (0..self.slots.len()).map(|_| RoundState::idle()).collect();
        let mut outstanding = 0usize;

        // Broadcast.
        for (i, ((slot, st), crash)) in self
            .slots
            .iter()
            .zip(rs.iter_mut())
            .zip(self.crashed.iter())
            .enumerate()
        {
            if slot.quarantined || crash.is_some() {
                continue;
            }
            self.msg_seq += 1;
            let id = self.msg_seq;
            self.transport.send(
                i,
                PriceAnnounce {
                    round,
                    msg_id: id,
                    price: announced,
                    attempt: 1,
                },
                self.now,
            );
            diag.announces += 1;
            st.live = true;
            st.pending = true;
            st.sent.push(id);
            st.attempts = 1;
            st.retry_at = if retry.max_attempts > 1 {
                self.now.saturating_add(retry.backoff(1, &mut self.jitter))
            } else {
                Tick::MAX
            };
            outstanding += 1;
        }
        if outstanding == 0 {
            return false;
        }

        // Deadline-bounded collection, jumping the virtual clock between
        // events (next in-flight delivery, next retransmit, the deadline).
        while outstanding > 0 {
            let mut next = deadline;
            for st in rs.iter().filter(|s| s.pending) {
                if st.attempts < retry.max_attempts {
                    next = next.min(st.retry_at);
                }
            }
            if let Some(due) = self.transport.next_due() {
                next = next.min(due);
            }
            self.now = next.max(self.now);

            // Deliver everything due; endpoints answer from their
            // idempotency cache so an agent computes at most one bid per
            // round no matter how often the announcement arrives.
            let slots = &mut self.slots;
            let answered = &mut self.answered;
            let crashed = &mut self.crashed;
            let invalid = &mut diag.invalid_replies;
            let errors = &mut diag.errors;
            let replies = self.transport.advance(self.now, &mut |i, msg| {
                let slot = slots.get_mut(i)?;
                if let Some((r, bid)) = answered.get(i).copied().flatten() {
                    if r == msg.round {
                        return Some(BidReply {
                            agent: slot.agent.job_id(),
                            round: msg.round,
                            in_reply_to: msg.msg_id,
                            bid,
                        });
                    }
                }
                match slot.agent.respond(msg.price.get()) {
                    Ok(bid) if bid.is_finite() => {
                        let bid = bid.max(0.0);
                        if let Some(cache) = answered.get_mut(i) {
                            *cache = Some((msg.round, bid));
                        }
                        Some(BidReply {
                            agent: slot.agent.job_id(),
                            round: msg.round,
                            in_reply_to: msg.msg_id,
                            bid,
                        })
                    }
                    Ok(_) => {
                        *invalid += 1;
                        errors.push(TransportError::InvalidReply {
                            agent: slot.agent.job_id(),
                            round: msg.round,
                        });
                        None
                    }
                    Err(err @ MarketError::AgentCrashed { .. }) => {
                        if let Some(c) = crashed.get_mut(i) {
                            if c.is_none() {
                                *c = Some(err);
                            }
                        }
                        None
                    }
                    Err(_) => None,
                }
            });
            for (i, reply) in replies {
                match rs.get_mut(i) {
                    Some(st)
                        if st.pending
                            && reply.round == round
                            && st.sent.contains(&reply.in_reply_to) =>
                    {
                        st.pending = false;
                        outstanding -= 1;
                        diag.replies_accepted += 1;
                        if let Some(slot) = self.slots.get_mut(i) {
                            slot.last_bid = Some(reply.bid);
                        }
                    }
                    Some(st) if !st.pending && st.live && reply.round == round => {
                        diag.duplicates_ignored += 1;
                    }
                    _ => diag.late_replies_ignored += 1,
                }
            }
            if outstanding == 0 || self.now >= deadline {
                break;
            }

            // Retransmit to silent agents whose backoff expired.
            for (i, st) in rs.iter_mut().enumerate() {
                if !st.pending || st.attempts >= retry.max_attempts || st.retry_at > self.now {
                    continue;
                }
                st.attempts += 1;
                self.msg_seq += 1;
                let id = self.msg_seq;
                self.transport.send(
                    i,
                    PriceAnnounce {
                        round,
                        msg_id: id,
                        price: announced,
                        attempt: st.attempts,
                    },
                    self.now,
                );
                st.sent.push(id);
                diag.retransmits += 1;
                st.retry_at = self
                    .now
                    .saturating_add(retry.backoff(st.attempts, &mut self.jitter));
            }
        }

        // Round close: straggler and quarantine policy.
        for (((st, slot), streak), crash) in rs
            .iter()
            .zip(self.slots.iter_mut())
            .zip(self.miss_streak.iter_mut())
            .zip(self.crashed.iter())
        {
            if !st.live {
                continue;
            }
            if !st.pending {
                *streak = 0;
                continue;
            }
            diag.straggler_rounds += 1;
            *streak += 1;
            let id = slot.agent.job_id();
            if let Some(err) = crash {
                slot.quarantined = true;
                diag.errors
                    .push(TransportError::EndpointCrashed { agent: id, round });
                quarantined.push(Quarantine {
                    id,
                    round,
                    error: err.clone(),
                });
            } else if *streak >= self.transport_config.quarantine_after_misses.max(1) {
                slot.quarantined = true;
                diag.deadline_quarantines += 1;
                let terr = TransportError::DeadlineExpired {
                    agent: id,
                    round,
                    attempts: st.attempts,
                };
                diag.errors.push(terr.clone());
                quarantined.push(Quarantine {
                    id,
                    round,
                    error: terr.into(),
                });
            }
        }
        true
    }
}

impl<T: Transport> Mechanism for TransportedInteractiveMechanism<T> {
    fn name(&self) -> &'static str {
        "MPR-INT-NET"
    }

    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        if self.slots.is_empty() {
            return Err(MechanismError::DegenerateInstance {
                reason: "no agents are registered with the transported exchange",
            });
        }
        // Row layout must match the registered agents; fall back to our own
        // view when a caller hands us a foreign window.
        let own;
        let own_view;
        let layout: &InstanceView<'_> = if view.len() == self.slots.len() {
            view
        } else {
            own = self.instance();
            own_view = own.view();
            &own_view
        };
        let target_watts = target.get();
        if target_watts <= 0.0 {
            let diagnostics = Diagnostics {
                iterations: 0,
                price_trace: vec![0.0],
                observed_bids: Some(slots_observed_bids(&self.slots)),
                ..Diagnostics::default()
            };
            return Ok(Clearing::build(
                layout,
                Watts::new(target_watts.max(0.0)),
                Price::ZERO,
                vec![0.0; layout.len()],
                None,
                None,
                diagnostics,
            ));
        }

        let cfg = self.config;
        let icfg = cfg.interactive;
        let mut price = icfg.initial_price.max(1e-9);
        let mut trace = vec![price];
        let mut watchdog = ConvergenceWatchdog::new(cfg.watchdog_window, cfg.divergence_min_change);
        let mut quarantined: Vec<Quarantine> = Vec::new();
        let mut converged = false;
        let mut diverged = false;
        let mut rounds = 0usize;
        let mut tdiag = TransportDiagnostics::default();
        let started_at = self.now;
        // Fresh per-round bid caches for this clearing.
        for cache in &mut self.answered {
            *cache = None;
        }

        'rounds: for round in 1..=icfg.max_iterations {
            rounds = round;
            if !self.run_round(round, Price::new(price), &mut quarantined, &mut tdiag) {
                break 'rounds;
            }
            let participants = slots_survivor_participants(&self.slots);
            if participants.is_empty() {
                break 'rounds;
            }
            let sol = mclr::clear_best_effort(&participants, target);
            let next = (1.0 - icfg.damping) * price + icfg.damping * sol.price.get();
            let rel_change = (next - price).abs() / price.abs().max(1e-9);
            price = next;
            trace.push(price);
            if rel_change <= icfg.tolerance {
                converged = true;
                break 'rounds;
            }
            if watchdog.observe(rel_change) {
                diverged = true;
                break 'rounds;
            }
        }

        // Final solve: replace the damped announcement with the price that
        // actually clears the surviving supplies.
        let survivors = slots_survivor_participants(&self.slots);
        let healthy = converged && !diverged && !survivors.is_empty();
        let (clearing_price, reductions) = if healthy {
            let sol = mclr::clear_best_effort(&survivors, target);
            (sol.price, slots_survivor_reductions(&self.slots, sol.price))
        } else {
            // Nothing usable from the exchange; the chain's next stage
            // re-clears from the observed bids.
            (Price::ZERO, vec![0.0; self.slots.len()])
        };

        tdiag.rounds = rounds;
        tdiag.virtual_ticks = self.now.saturating_sub(started_at);
        tdiag.channel = self.transport.stats();
        let diagnostics = Diagnostics {
            iterations: rounds,
            converged,
            diverged,
            retries: tdiag.retransmits,
            quarantined,
            price_trace: trace,
            accepted: healthy,
            observed_bids: Some(slots_observed_bids(&self.slots)),
            transport: Some(tdiag),
            ..Diagnostics::default()
        };
        Ok(Clearing::build(
            layout,
            target,
            clearing_price,
            reductions,
            None,
            None,
            diagnostics,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::QuadraticCost;
    use crate::market::interactive::{InteractiveConfig, NetGainAgent};
    use crate::market::transport::{NetFaultConfig, PerfectTransport, SimNet, TransportStats};
    use crate::mechanism::{InteractiveMechanism, ParticipantSpec};
    use std::sync::Arc;

    fn rational(id: u64, alpha: f64) -> NetGainAgent<QuadraticCost> {
        NetGainAgent::new(id, QuadraticCost::new(alpha, 1.0), Watts::new(125.0))
    }

    fn mech_with<T: Transport>(transport: T) -> TransportedInteractiveMechanism<T> {
        let mut m = TransportedInteractiveMechanism::new(
            ResilientConfig::default(),
            TransportConfig::default(),
            transport,
        );
        for (i, a) in [1.0, 2.0, 4.0].iter().enumerate() {
            m.register(Box::new(rational(i as u64, *a)), Some(0.2));
        }
        m
    }

    #[test]
    fn perfect_transport_matches_the_synchronous_market_bit_for_bit() {
        let mut net = mech_with(PerfectTransport::new());
        let inst = net.instance();
        let c_net = net.clear(&inst, Watts::new(150.0)).unwrap();

        let sync_instance: MarketInstance = [1.0, 2.0, 4.0]
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                ParticipantSpec::new(i as u64, 1.0, Watts::new(125.0))
                    .with_cost(Arc::new(QuadraticCost::new(a, 1.0)))
            })
            .collect();
        let c_sync = InteractiveMechanism::strict(InteractiveConfig::default())
            .clear(&sync_instance, Watts::new(150.0))
            .unwrap();

        assert_eq!(c_net.price(), c_sync.price());
        assert_eq!(c_net.iterations(), c_sync.iterations());
        assert_eq!(
            c_net.diagnostics().price_trace,
            c_sync.diagnostics().price_trace
        );
        assert_eq!(
            c_net.reductions(),
            c_sync.reductions(),
            "reductions must be identical"
        );
        let t = c_net.diagnostics().transport.as_ref().unwrap();
        assert_eq!(t.virtual_ticks, 0, "perfect transport never advances time");
        assert_eq!(t.retransmits, 0);
        assert_eq!(t.straggler_rounds, 0);
        assert_eq!(t.channel.dropped, 0);
    }

    #[test]
    fn total_blackout_aborts_round_one_unaccepted() {
        // With every message dropped no agent ever bids, so the exchange
        // has no survivors after round 1 and aborts — the chain's next
        // stage re-clears from the registered cooperative bids.
        let mut m = TransportedInteractiveMechanism::new(
            ResilientConfig::default(),
            TransportConfig::default(),
            SimNet::new(NetFaultConfig::lossy(1.0), 3),
        );
        for (i, a) in [1.0, 2.0].iter().enumerate() {
            m.register(Box::new(rational(i as u64, *a)), Some(0.2));
        }
        let inst = m.instance();
        let c = m.clear(&inst, Watts::new(100.0)).unwrap();
        assert!(!c.diagnostics().accepted);
        assert_eq!(c.price(), Price::ZERO);
        let t = c.diagnostics().transport.as_ref().unwrap();
        assert_eq!(t.rounds, 1);
        assert_eq!(t.straggler_rounds, 2);
        assert!(t.retransmits > 0, "backoff schedule must have fired");
        assert!(t.channel.dropped > 0);
        // Observed bids fall back to the cooperative registration bids, so
        // a chain can still recover.
        assert_eq!(
            c.diagnostics().observed_bids.as_deref(),
            Some(&[0.2, 0.2][..])
        );
    }

    /// Wraps [`PerfectTransport`] but black-holes every announcement to one
    /// agent — a deterministic single-endpoint outage.
    struct BlackholeTo {
        inner: PerfectTransport,
        victim: usize,
        eaten: usize,
    }

    impl Transport for BlackholeTo {
        fn name(&self) -> &'static str {
            "blackhole"
        }
        fn send(&mut self, to: usize, msg: PriceAnnounce, now: Tick) {
            if to == self.victim {
                self.eaten += 1;
            } else {
                self.inner.send(to, msg, now);
            }
        }
        fn advance(
            &mut self,
            now: Tick,
            endpoint: &mut dyn FnMut(usize, &PriceAnnounce) -> Option<BidReply>,
        ) -> Vec<(usize, BidReply)> {
            self.inner.advance(now, endpoint)
        }
        fn next_due(&self) -> Option<Tick> {
            self.inner.next_due()
        }
        fn stats(&self) -> TransportStats {
            let mut s = self.inner.stats();
            s.dropped += self.eaten;
            s
        }
    }

    #[test]
    fn silent_agent_is_quarantined_after_k_misses_and_exchange_recovers() {
        let mut m = TransportedInteractiveMechanism::new(
            ResilientConfig::default(),
            TransportConfig {
                quarantine_after_misses: 2,
                ..TransportConfig::default()
            },
            BlackholeTo {
                inner: PerfectTransport::new(),
                victim: 2,
                eaten: 0,
            },
        );
        for (i, a) in [1.0, 2.0, 4.0].iter().enumerate() {
            m.register(Box::new(rational(i as u64, *a)), Some(0.2));
        }
        let inst = m.instance();
        let c = m.clear(&inst, Watts::new(150.0)).unwrap();
        // The two responsive agents carry the clearing.
        assert!(c.diagnostics().accepted, "diag: {:?}", c.diagnostics());
        assert!(c.met_target());
        assert_eq!(c.diagnostics().quarantined.len(), 1);
        assert_eq!(c.diagnostics().quarantined.first().map(|q| q.id), Some(2));
        assert!(matches!(
            c.diagnostics().quarantined.first().map(|q| &q.error),
            Some(MarketError::AgentTimeout { job: 2, .. })
        ));
        let t = c.diagnostics().transport.as_ref().unwrap();
        assert_eq!(t.deadline_quarantines, 1);
        assert_eq!(t.straggler_rounds, 2, "quarantined on the 2nd miss");
        assert!(t.retransmits > 0);
        // The quarantined row supplies nothing.
        assert_eq!(c.reductions().get(2), Some(&0.0));
    }

    #[test]
    fn light_loss_converges_with_retransmits() {
        let mut m = TransportedInteractiveMechanism::new(
            ResilientConfig::default(),
            TransportConfig::default(),
            SimNet::new(NetFaultConfig::lossy(0.2), 11),
        );
        for (i, a) in [1.0, 2.0, 4.0, 8.0].iter().enumerate() {
            m.register(Box::new(rational(i as u64, *a)), Some(0.2));
        }
        let inst = m.instance();
        let c = m.clear(&inst, Watts::new(200.0)).unwrap();
        assert!(c.diagnostics().accepted, "diag: {:?}", c.diagnostics());
        assert!(c.met_target());
        let t = c.diagnostics().transport.as_ref().unwrap();
        assert!(t.channel.dropped > 0, "20% drop must lose something");
        assert!(t.virtual_ticks > 0);
    }

    #[test]
    fn foreign_instance_falls_back_to_own_layout() {
        let mut m = mech_with(PerfectTransport::new());
        let foreign = MarketInstance::from_specs(std::iter::empty());
        // Degenerate foreign instance: cleared against own layout instead.
        let c = m.clear(&foreign, Watts::new(150.0)).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.met_target());
    }

    #[test]
    fn empty_mechanism_is_degenerate_and_zero_target_clears_empty() {
        let mut empty: TransportedInteractiveMechanism<PerfectTransport> =
            TransportedInteractiveMechanism::new(
                ResilientConfig::default(),
                TransportConfig::default(),
                PerfectTransport::new(),
            );
        let inst = MarketInstance::from_specs(std::iter::empty());
        assert!(matches!(
            empty.clear(&inst, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));

        let mut m = mech_with(PerfectTransport::new());
        let inst = m.instance();
        let c = m.clear(&inst, Watts::ZERO).unwrap();
        assert!(c.met_target());
        assert_eq!(c.price(), Price::ZERO);
    }
}
