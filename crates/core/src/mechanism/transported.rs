//! Round collection over an asynchronous, deadline-bounded message
//! [`Transport`] for the fault-tolerant exchange (DESIGN.md §12):
//! [`TransportedInteractiveMechanism`].
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
//! quarantined exactly like a defaulting agent of the in-process
//! collector. Over a [`PerfectTransport`](crate::market::transport::PerfectTransport)
//! the exchange is bit-for-bit identical to the synchronous
//! [`InteractiveMechanism`](crate::mechanism::InteractiveMechanism).

use crate::error::MarketError;
use crate::market::faults::{Quarantine, ResilientConfig, SplitMix64};
use crate::market::transport::{
    BidReply, PriceAnnounce, Tick, Transport, TransportConfig, TransportDiagnostics, TransportError,
};
use crate::mechanism::exchange::{AgentSlot, FaultTolerantExchange, RoundCollector};
use crate::units::Price;

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

/// Per-agent endpoint state, kept across rounds and clearings.
#[derive(Debug, Clone, Default)]
struct Endpoint {
    /// Consecutive missed rounds (straggler → quarantine policy).
    miss_streak: usize,
    /// Terminal endpoint crash observed, if any.
    crashed: Option<MarketError>,
    /// Idempotency cache: `(round, bid)` for the last round the agent
    /// answered, replayed to retransmits and duplicates of that round
    /// while it is being collected.
    answered: Option<(usize, f64)>,
}

/// The deadline-bounded round collector over a [`Transport`].
///
/// It owns the channel: virtual time is monotone across clearings, so late
/// replies from a previous clearing surface — and are discarded —
/// deterministically.
pub struct TransportRounds<T> {
    endpoints: Vec<Endpoint>,
    config: TransportConfig,
    transport: T,
    /// The exchange's virtual clock, monotone over the collector's life.
    now: Tick,
    msg_seq: u64,
    jitter: SplitMix64,
    /// The current clearing's counters (taken by `finish`) and its start
    /// time.
    diag: TransportDiagnostics,
    started_at: Tick,
}

impl<T: Transport> std::fmt::Debug for TransportRounds<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportRounds")
            .field("transport", &self.transport.name())
            .field("config", &self.config)
            .finish()
    }
}

/// The fault-tolerant interactive exchange over an abstract [`Transport`].
pub type TransportedInteractiveMechanism<T> = FaultTolerantExchange<TransportRounds<T>>;

impl<T: Transport> FaultTolerantExchange<TransportRounds<T>> {
    /// Creates an empty mechanism over `transport`.
    #[must_use]
    pub fn new(config: ResilientConfig, transport_config: TransportConfig, transport: T) -> Self {
        Self::with_collector(
            config,
            TransportRounds {
                endpoints: Vec::new(),
                config: transport_config,
                transport,
                now: 0,
                msg_seq: 0,
                jitter: SplitMix64::new(transport_config.jitter_seed),
                diag: TransportDiagnostics::default(),
                started_at: 0,
            },
        )
    }

    /// The deadline/retry/quarantine policy in use.
    #[must_use]
    pub fn transport_config(&self) -> TransportConfig {
        self.collector.config
    }

    /// The underlying channel (for its counters).
    #[must_use]
    pub fn transport(&self) -> &T {
        &self.collector.transport
    }
}

impl<T: Transport> RoundCollector for TransportRounds<T> {
    const NAME: &'static str = "MPR-INT-NET";
    const EMPTY: &'static str = "no agents are registered with the transported exchange";

    fn begin(&mut self, agents: usize) {
        self.endpoints.resize_with(agents, Endpoint::default);
        // Fresh per-round bid caches for this clearing.
        for endpoint in &mut self.endpoints {
            endpoint.answered = None;
        }
        self.started_at = self.now;
    }

    /// Runs one deadline-bounded collection round: broadcast, gather until
    /// the deadline (retransmitting on the backoff schedule), then apply the
    /// straggler/quarantine policy.
    #[allow(clippy::too_many_lines)]
    fn collect(
        &mut self,
        slots: &mut [AgentSlot],
        _config: &ResilientConfig,
        round: usize,
        announced: Price,
        quarantined: &mut Vec<Quarantine>,
    ) -> bool {
        let retry = self.config.retry;
        let deadline = self.now.saturating_add(self.config.deadline_ticks);
        let mut rs: Vec<RoundState> = (0..slots.len()).map(|_| RoundState::idle()).collect();
        let mut outstanding = 0usize;

        // Broadcast.
        for (i, ((slot, st), endpoint)) in slots
            .iter()
            .zip(rs.iter_mut())
            .zip(self.endpoints.iter())
            .enumerate()
        {
            if slot.quarantined || endpoint.crashed.is_some() {
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
            self.diag.announces += 1;
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

            // Deliver everything due. Only an announcement of the round
            // being collected reaches the agent: a stale one, from an
            // earlier round or clearing, gets no reply. Endpoints answer a
            // repeat of the round they already answered from their
            // idempotency cache, so an agent is asked once per round.
            let endpoints = &mut self.endpoints;
            let invalid = &mut self.diag.invalid_replies;
            let errors = &mut self.diag.errors;
            let current = &rs;
            let replies = self.transport.advance(self.now, &mut |i, msg| {
                if !current.get(i)?.sent.contains(&msg.msg_id) {
                    return None;
                }
                let slot = slots.get_mut(i)?;
                let endpoint = endpoints.get_mut(i)?;
                let agent = slot.agent.job_id();
                let reply = |bid| BidReply {
                    agent,
                    round: msg.round,
                    in_reply_to: msg.msg_id,
                    bid,
                };
                if let Some((r, bid)) = endpoint.answered {
                    if r == msg.round {
                        return Some(reply(bid));
                    }
                }
                match slot.agent.respond(msg.price.get()) {
                    Ok(bid) if bid.is_finite() => {
                        let bid = bid.max(0.0);
                        endpoint.answered = Some((msg.round, bid));
                        Some(reply(bid))
                    }
                    Ok(_) => {
                        *invalid += 1;
                        errors.push(TransportError::InvalidReply {
                            agent,
                            round: msg.round,
                        });
                        None
                    }
                    Err(err @ MarketError::AgentCrashed { .. }) => {
                        if endpoint.crashed.is_none() {
                            endpoint.crashed = Some(err);
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
                        self.diag.replies_accepted += 1;
                        if let Some(slot) = slots.get_mut(i) {
                            slot.last_bid = Some(reply.bid);
                        }
                    }
                    Some(st) if !st.pending && st.live && reply.round == round => {
                        self.diag.duplicates_ignored += 1;
                    }
                    _ => self.diag.late_replies_ignored += 1,
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
                self.diag.retransmits += 1;
                st.retry_at = self
                    .now
                    .saturating_add(retry.backoff(st.attempts, &mut self.jitter));
            }
        }

        // Round close: straggler and quarantine policy.
        for ((st, slot), endpoint) in rs
            .iter()
            .zip(slots.iter_mut())
            .zip(self.endpoints.iter_mut())
        {
            if !st.live {
                continue;
            }
            if !st.pending {
                endpoint.miss_streak = 0;
                continue;
            }
            self.diag.straggler_rounds += 1;
            endpoint.miss_streak += 1;
            let id = slot.agent.job_id();
            if let Some(err) = &endpoint.crashed {
                slot.quarantined = true;
                self.diag
                    .errors
                    .push(TransportError::EndpointCrashed { agent: id, round });
                quarantined.push(Quarantine {
                    id,
                    round,
                    error: err.clone(),
                });
            } else if endpoint.miss_streak >= self.config.quarantine_after_misses.max(1) {
                slot.quarantined = true;
                self.diag.deadline_quarantines += 1;
                let terr = TransportError::DeadlineExpired {
                    agent: id,
                    round,
                    attempts: st.attempts,
                };
                self.diag.errors.push(terr.clone());
                quarantined.push(Quarantine {
                    id,
                    round,
                    error: terr.into(),
                });
            }
        }
        true
    }

    fn finish(&mut self, rounds: usize) -> (usize, Option<TransportDiagnostics>) {
        let mut diag = std::mem::take(&mut self.diag);
        diag.rounds = rounds;
        diag.virtual_ticks = self.now.saturating_sub(self.started_at);
        diag.channel = self.transport.stats();
        (diag.retransmits, Some(diag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::QuadraticCost;
    use crate::market::faults::CrashAgent;
    use crate::market::interactive::BiddingAgent;
    use crate::market::interactive::{InteractiveConfig, NetGainAgent};
    use crate::market::transport::{NetFaultConfig, PerfectTransport, SimNet, TransportStats};
    use crate::mechanism::{
        InteractiveMechanism, MarketInstance, Mechanism, MechanismError, ParticipantSpec,
    };
    use crate::units::Watts;
    use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// Counts every `respond` call its inner agent receives.
    struct Counting<A> {
        inner: A,
        calls: Arc<AtomicUsize>,
    }

    impl<A: BiddingAgent> BiddingAgent for Counting<A> {
        fn job_id(&self) -> u64 {
            self.inner.job_id()
        }
        fn watts_per_unit(&self) -> f64 {
            self.inner.watts_per_unit()
        }
        fn delta_max(&self) -> f64 {
            self.inner.delta_max()
        }
        fn respond(&mut self, price: f64) -> Result<f64, MarketError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.respond(price)
        }
    }

    /// Duplicates and reorders, never drops: every announcement of a
    /// round reaches its agent, some of them after the round closed.
    fn dup_reorder(seed: u64) -> SimNet {
        SimNet::new(
            NetFaultConfig {
                duplicate_prob: 0.4,
                min_delay_ticks: 1,
                max_delay_ticks: 6,
                ..NetFaultConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn each_agent_is_asked_once_per_round_it_answers() {
        for seed in 0..20 {
            let calls = Arc::new(AtomicUsize::new(0));
            let mut m = TransportedInteractiveMechanism::new(
                ResilientConfig::default(),
                TransportConfig::default(),
                dup_reorder(seed),
            );
            for (i, a) in [1.0, 2.0, 4.0, 8.0].iter().enumerate() {
                let inner = rational(i as u64, *a);
                let calls = Arc::clone(&calls);
                m.register(Box::new(Counting { inner, calls }), Some(0.2));
            }
            let inst = m.instance();
            let mut answered = 0;
            // Announcements of the first clearing still in flight surface
            // during the second.
            for target in [250.0, 300.0] {
                let c = m.clear(&inst, Watts::new(target)).unwrap();
                let t = c.diagnostics().transport.as_ref().unwrap();
                assert_eq!(t.replies_accepted, 4 * t.rounds, "seed {seed}");
                answered += t.replies_accepted;
            }
            assert_eq!(calls.load(Ordering::Relaxed), answered, "seed {seed}");
        }
    }

    #[test]
    fn a_crash_is_quarantined_whenever_it_is_raised() {
        for seed in 0..20 {
            for healthy in 1..8 {
                let calls = Arc::new(AtomicUsize::new(0));
                let mut m = TransportedInteractiveMechanism::new(
                    ResilientConfig::default(),
                    TransportConfig::default(),
                    dup_reorder(seed),
                );
                for (i, a) in [1.0, 2.0, 4.0].iter().enumerate() {
                    m.register(Box::new(rational(i as u64, *a)), Some(0.2));
                }
                let inner = CrashAgent::new(rational(3, 1.5), healthy);
                let counted = Counting {
                    inner,
                    calls: Arc::clone(&calls),
                };
                m.register(Box::new(counted), Some(0.3));
                let inst = m.instance();
                let mut quarantined = false;
                for target in [250.0, 300.0] {
                    let c = m.clear(&inst, Watts::new(target)).unwrap();
                    quarantined |= c.diagnostics().quarantined.iter().any(|q| q.id == 3);
                    let crashed = calls.load(Ordering::Relaxed) > healthy;
                    assert_eq!(
                        crashed, quarantined,
                        "seed {seed}, {healthy} healthy rounds, {target} W"
                    );
                }
            }
        }
    }
}
