//! Deadline-bounded asynchronous bid transport for MPR-INT (DESIGN.md §12).
//!
//! The paper's interactive market is a message exchange between the HPC
//! manager and remote user agents: each round the manager broadcasts a
//! [`PriceAnnounce`] and collects [`BidReply`]s until a deadline. In a real
//! deployment that channel is lossy, laggy and reordered, so the runtime is
//! built over an abstract [`Transport`] with two implementations:
//!
//! * [`PerfectTransport`] — in-process, zero-latency, lossless. The
//!   exchange over it is bit-for-bit identical to the synchronous
//!   [`InteractiveMechanism`](crate::mechanism::InteractiveMechanism).
//! * [`SimNet`] — a FoundationDB-style deterministic network simulator in
//!   **virtual time** (integer [`Tick`]s, never the wall clock): every
//!   drop/delay/duplicate/reorder/partition fault is drawn from a seeded
//!   `ChaCha8Rng`, so a run replays exactly from `(config, seed)`.
//!
//! The manager-side round collector (see
//! [`TransportRounds`](crate::mechanism::TransportRounds))
//! adds per-agent retransmits with capped exponential backoff plus jitter
//! ([`RetryPolicy`]), idempotent dedup of duplicate and late replies keyed
//! by `(agent, round, msg_id)`, and a straggler policy: after the deadline
//! the round clears with last-known bids, and agents missing
//! [`TransportConfig::quarantine_after_misses`] consecutive rounds are
//! quarantined (PR-1 semantics).

use std::collections::BTreeMap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::error::MarketError;
use crate::market::faults::SplitMix64;
use crate::mechanism::JobId;
use crate::units::Price;

/// Virtual time, in abstract ticks. One tick is "one scheduling quantum" of
/// the simulated network — no relation to the wall clock (lint rule L4).
pub type Tick = u64;

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// The manager → agent broadcast opening (or re-opening) a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceAnnounce {
    /// Market round this announcement belongs to (1-based).
    pub round: usize,
    /// Globally unique message id; every retransmit gets a fresh one so
    /// replies can be attributed to `(agent, round, msg_id)` exactly.
    pub msg_id: u64,
    /// The announced clearing-price candidate.
    pub price: Price,
    /// Delivery attempt for this round, 1-based (1 = original send).
    pub attempt: usize,
}

/// The agent → manager response to a [`PriceAnnounce`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BidReply {
    /// The replying agent's job id.
    pub agent: JobId,
    /// Round the reply answers.
    pub round: usize,
    /// `msg_id` of the announcement being answered (dedup key).
    pub in_reply_to: u64,
    /// The bid parameter `b` (finite, non-negative by construction).
    pub bid: f64,
}

// ---------------------------------------------------------------------------
// The transport abstraction
// ---------------------------------------------------------------------------

/// Channel-level message counters, accumulated over a transport's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportStats {
    /// Messages handed to the channel (both directions).
    pub sent: usize,
    /// Messages delivered to a receiver.
    pub delivered: usize,
    /// Messages lost to drop faults or partitions.
    pub dropped: usize,
    /// Extra copies created by duplication faults.
    pub duplicated: usize,
}

/// An asynchronous, possibly faulty channel between the manager and its
/// agent endpoints.
///
/// The manager owns virtual time: it calls [`Transport::send`] to enqueue
/// announcements and [`Transport::advance`] to move the clock forward,
/// delivering every message due by then. Agent endpoints are driven *by the
/// transport* through the `endpoint` callback (delivery order is the
/// channel's business, not the caller's), and their replies travel back
/// through the same faulty channel.
pub trait Transport: Send {
    /// Short channel name for diagnostics (e.g. `"perfect"`, `"simnet"`).
    fn name(&self) -> &'static str;

    /// Enqueues an announcement for agent endpoint `to` at virtual time
    /// `now`.
    fn send(&mut self, to: usize, msg: PriceAnnounce, now: Tick);

    /// Advances virtual time to `now`, delivering every in-flight message
    /// due by then. Announcements are handed to `endpoint(agent_index,
    /// &msg)`; a returned reply is sent back through the channel (subject
    /// to the same faults) and, once it arrives, is included — tagged with
    /// the agent index — in the returned batch, in delivery order.
    fn advance(
        &mut self,
        now: Tick,
        endpoint: &mut dyn FnMut(usize, &PriceAnnounce) -> Option<BidReply>,
    ) -> Vec<(usize, BidReply)>;

    /// Virtual due-time of the earliest in-flight message, `None` when the
    /// channel is idle. The manager uses it to jump the clock between
    /// events instead of ticking.
    fn next_due(&self) -> Option<Tick>;

    /// Message counters since construction.
    fn stats(&self) -> TransportStats;
}

// ---------------------------------------------------------------------------
// PerfectTransport
// ---------------------------------------------------------------------------

/// The ideal in-process channel: zero latency, lossless, FIFO.
///
/// Every message sent is delivered by the next [`Transport::advance`] call
/// regardless of the clock, so the exchange degenerates to the synchronous
/// round loop of the plain interactive market — bit for bit.
#[derive(Debug, Default)]
pub struct PerfectTransport {
    inbox: Vec<(usize, PriceAnnounce)>,
    stats: TransportStats,
}

impl PerfectTransport {
    /// Creates an idle perfect channel.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for PerfectTransport {
    fn name(&self) -> &'static str {
        "perfect"
    }

    fn send(&mut self, to: usize, msg: PriceAnnounce, _now: Tick) {
        self.stats.sent += 1;
        self.inbox.push((to, msg));
    }

    fn advance(
        &mut self,
        _now: Tick,
        endpoint: &mut dyn FnMut(usize, &PriceAnnounce) -> Option<BidReply>,
    ) -> Vec<(usize, BidReply)> {
        let mut out = Vec::with_capacity(self.inbox.len());
        for (to, msg) in self.inbox.drain(..) {
            self.stats.delivered += 1;
            if let Some(reply) = endpoint(to, &msg) {
                self.stats.sent += 1;
                self.stats.delivered += 1;
                out.push((to, reply));
            }
        }
        out
    }

    fn next_due(&self) -> Option<Tick> {
        if self.inbox.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// SimNet
// ---------------------------------------------------------------------------

/// Fault mix of a [`SimNet`] channel. All probabilities are per message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultConfig {
    /// Probability a message is silently lost.
    pub drop_prob: f64,
    /// Probability a message is delivered twice (independent delays, so
    /// duplication also reorders).
    pub duplicate_prob: f64,
    /// Minimum per-hop latency, ticks.
    pub min_delay_ticks: Tick,
    /// Maximum per-hop latency, ticks. Latency jitter in
    /// `[min, max]` is what reorders messages.
    pub max_delay_ticks: Tick,
    /// Probability, per announcement, that the destination agent drops
    /// into a partition (both directions black-holed).
    pub partition_prob: f64,
    /// How long a partition lasts, ticks.
    pub partition_ticks: Tick,
}

impl Default for NetFaultConfig {
    fn default() -> Self {
        Self {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            min_delay_ticks: 1,
            max_delay_ticks: 1,
            partition_prob: 0.0,
            partition_ticks: 64,
        }
    }
}

impl NetFaultConfig {
    /// A lossy channel: messages dropped with probability `p`, unit
    /// latency otherwise.
    #[must_use]
    pub fn lossy(p: f64) -> Self {
        Self {
            drop_prob: p.clamp(0.0, 1.0),
            ..Self::default()
        }
    }

    /// `true` when the channel can lose messages (drops or partitions).
    #[must_use]
    pub fn is_lossy(&self) -> bool {
        self.drop_prob > 0.0 || self.partition_prob > 0.0
    }
}

/// One in-flight message.
#[derive(Debug, Clone)]
enum Flight {
    Announce { to: usize, msg: PriceAnnounce },
    Reply { from: usize, msg: BidReply },
}

/// A deterministic virtual-time network simulator.
///
/// Every fault decision (drop, latency draw, duplication, partition onset)
/// is taken at send time from one seeded `ChaCha8Rng`, and in-flight
/// messages live in a `BTreeMap` keyed by `(due_tick, sequence)` — so a
/// `SimNet` run is a pure function of `(NetFaultConfig, seed)` and the
/// caller's send schedule. No wall clock anywhere (lint rule L4).
#[derive(Debug)]
pub struct SimNet {
    cfg: NetFaultConfig,
    rng: ChaCha8Rng,
    queue: BTreeMap<(Tick, u64), Flight>,
    seq: u64,
    partitioned_until: Vec<Tick>,
    stats: TransportStats,
}

impl SimNet {
    /// Creates a simulated network with the given fault mix and seed.
    #[must_use]
    pub fn new(cfg: NetFaultConfig, seed: u64) -> Self {
        Self {
            cfg,
            rng: ChaCha8Rng::seed_from_u64(seed),
            queue: BTreeMap::new(),
            seq: 0,
            partitioned_until: Vec::new(),
            stats: TransportStats::default(),
        }
    }

    /// The fault mix in force.
    #[must_use]
    pub fn config(&self) -> NetFaultConfig {
        self.cfg
    }

    fn partition_end(&self, agent: usize) -> Tick {
        self.partitioned_until.get(agent).copied().unwrap_or(0)
    }

    fn set_partition_end(&mut self, agent: usize, until: Tick) {
        if self.partitioned_until.len() <= agent {
            self.partitioned_until.resize(agent + 1, 0);
        }
        if let Some(slot) = self.partitioned_until.get_mut(agent) {
            *slot = until;
        }
    }

    fn delay(&mut self) -> Tick {
        let lo = self.cfg.min_delay_ticks.min(self.cfg.max_delay_ticks);
        let hi = self.cfg.min_delay_ticks.max(self.cfg.max_delay_ticks);
        if lo == hi {
            lo
        } else {
            self.rng.gen_range(lo..=hi)
        }
    }

    fn enqueue(&mut self, due: Tick, flight: Flight) {
        self.seq += 1;
        self.queue.insert((due, self.seq), flight);
    }

    /// Runs the fault pipeline for one message addressed to / sent by
    /// `agent` and enqueues the surviving copies.
    fn submit(&mut self, agent: usize, now: Tick, flight: Flight, may_partition: bool) {
        self.stats.sent += 1;
        if now < self.partition_end(agent) {
            self.stats.dropped += 1;
            return;
        }
        if may_partition && self.cfg.partition_prob > 0.0 {
            let u: f64 = self.rng.gen();
            if u < self.cfg.partition_prob {
                let until = now.saturating_add(self.cfg.partition_ticks.max(1));
                self.set_partition_end(agent, until);
                self.stats.dropped += 1;
                return;
            }
        }
        if self.cfg.drop_prob > 0.0 {
            let u: f64 = self.rng.gen();
            if u < self.cfg.drop_prob {
                self.stats.dropped += 1;
                return;
            }
        }
        let due = now.saturating_add(self.delay());
        if self.cfg.duplicate_prob > 0.0 {
            let u: f64 = self.rng.gen();
            if u < self.cfg.duplicate_prob {
                let dup_due = now.saturating_add(self.delay());
                self.stats.duplicated += 1;
                self.enqueue(dup_due, flight.clone());
            }
        }
        self.enqueue(due, flight);
    }
}

impl Transport for SimNet {
    fn name(&self) -> &'static str {
        "simnet"
    }

    fn send(&mut self, to: usize, msg: PriceAnnounce, now: Tick) {
        self.submit(to, now, Flight::Announce { to, msg }, true);
    }

    fn advance(
        &mut self,
        now: Tick,
        endpoint: &mut dyn FnMut(usize, &PriceAnnounce) -> Option<BidReply>,
    ) -> Vec<(usize, BidReply)> {
        let mut out = Vec::new();
        // Replies generated during delivery may themselves fall due within
        // `now`; loop until nothing due remains.
        while let Some((&key, _)) = self.queue.range(..=(now, u64::MAX)).next() {
            let Some(flight) = self.queue.remove(&key) else {
                break;
            };
            let (at, _) = key;
            match flight {
                Flight::Announce { to, msg } => {
                    // A partition that started after this message was sent
                    // still black-holes it on arrival.
                    if at < self.partition_end(to) {
                        self.stats.dropped += 1;
                        continue;
                    }
                    self.stats.delivered += 1;
                    if let Some(reply) = endpoint(to, &msg) {
                        self.submit(
                            to,
                            at,
                            Flight::Reply {
                                from: to,
                                msg: reply,
                            },
                            false,
                        );
                    }
                }
                Flight::Reply { from, msg } => {
                    if at < self.partition_end(from) {
                        self.stats.dropped += 1;
                        continue;
                    }
                    self.stats.delivered += 1;
                    out.push((from, msg));
                }
            }
        }
        out
    }

    fn next_due(&self) -> Option<Tick> {
        self.queue.keys().next().map(|&(due, _)| due)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// Manager-side policy types
// ---------------------------------------------------------------------------

/// Retransmit schedule: capped exponential backoff plus uniform jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Announcement attempts per agent per round (1 = no retransmits).
    pub max_attempts: usize,
    /// Backoff before the first retransmit, ticks.
    pub base_ticks: Tick,
    /// Cap on the exponential backoff, ticks.
    pub cap_ticks: Tick,
    /// Maximum uniform jitter added to each backoff, ticks.
    pub jitter_ticks: Tick,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_ticks: 2,
            cap_ticks: 8,
            jitter_ticks: 1,
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempt + 1` (i.e. after the `attempt`-th
    /// send), in ticks: `min(cap, base · 2^(attempt−1))` plus a jitter draw
    /// in `[0, jitter_ticks]`.
    #[must_use]
    pub fn backoff(&self, attempt: usize, jitter: &mut SplitMix64) -> Tick {
        let shift = attempt.saturating_sub(1).min(32) as u32;
        let exp = self
            .base_ticks
            .max(1)
            .saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX))
            .min(self.cap_ticks.max(1));
        let j = if self.jitter_ticks == 0 {
            0
        } else {
            jitter.next_u64() % (self.jitter_ticks + 1)
        };
        exp.saturating_add(j)
    }
}

/// Deadline, retry and quarantine policy of the transported exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Per-round reply deadline, ticks. After it expires the round clears
    /// with last-known bids (straggler policy).
    pub deadline_ticks: Tick,
    /// Retransmit schedule within a round.
    pub retry: RetryPolicy,
    /// Consecutive missed rounds before an agent is quarantined.
    pub quarantine_after_misses: usize,
    /// Seed of the manager's (deterministic) backoff-jitter stream.
    pub jitter_seed: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            deadline_ticks: 16,
            retry: RetryPolicy::default(),
            quarantine_after_misses: 3,
            jitter_seed: 0x6d70_7221,
        }
    }
}

// ---------------------------------------------------------------------------
// Typed transport errors and diagnostics
// ---------------------------------------------------------------------------

/// What went wrong on the wire, per agent — surfaced through
/// [`Diagnostics`](crate::mechanism::Diagnostics) and convertible into the
/// [`MarketError`] a quarantine records.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TransportError {
    /// No valid reply arrived before the round deadline, across all
    /// retransmit attempts.
    DeadlineExpired {
        /// The silent agent.
        agent: JobId,
        /// Round whose deadline expired.
        round: usize,
        /// Announcement attempts made that round.
        attempts: usize,
    },
    /// The agent endpoint crashed terminally while answering.
    EndpointCrashed {
        /// The crashed agent.
        agent: JobId,
        /// Round the crash surfaced in.
        round: usize,
    },
    /// The agent answered with a non-finite bid; the reply was discarded.
    InvalidReply {
        /// The misbehaving agent.
        agent: JobId,
        /// Round of the garbage reply.
        round: usize,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::DeadlineExpired {
                agent,
                round,
                attempts,
            } => write!(
                f,
                "agent {agent} missed the round-{round} deadline after {attempts} attempt(s)"
            ),
            TransportError::EndpointCrashed { agent, round } => {
                write!(f, "agent {agent} endpoint crashed in round {round}")
            }
            TransportError::InvalidReply { agent, round } => {
                write!(f, "agent {agent} sent a non-finite bid in round {round}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<TransportError> for MarketError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::DeadlineExpired { agent, round, .. } => {
                MarketError::AgentTimeout { job: agent, round }
            }
            TransportError::EndpointCrashed { agent, round } => {
                MarketError::AgentCrashed { job: agent, round }
            }
            TransportError::InvalidReply { agent: _, round: _ } => MarketError::InvalidParameter {
                name: "bid",
                value: f64::NAN,
                constraint: "agent replied with a non-finite bid",
            },
        }
    }
}

/// Message-level counters of one transported clearing, attached to its
/// [`Diagnostics`](crate::mechanism::Diagnostics).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransportDiagnostics {
    /// Rounds the exchange ran.
    pub rounds: usize,
    /// Original price announcements broadcast.
    pub announces: usize,
    /// Retransmitted announcements (backoff schedule).
    pub retransmits: usize,
    /// Replies accepted into the clearing.
    pub replies_accepted: usize,
    /// Duplicate replies discarded by the `(agent, round, msg_id)` dedup.
    pub duplicates_ignored: usize,
    /// Replies for past rounds (or unknown msg ids) discarded.
    pub late_replies_ignored: usize,
    /// Non-finite bids discarded at the endpoint.
    pub invalid_replies: usize,
    /// Agent-rounds that ended as stragglers (deadline expired, last-known
    /// bid used).
    pub straggler_rounds: usize,
    /// Agents quarantined for missing consecutive deadlines.
    pub deadline_quarantines: usize,
    /// Virtual ticks the exchange consumed.
    pub virtual_ticks: Tick,
    /// Typed per-agent transport failures (quarantine causes).
    pub errors: Vec<TransportError>,
    /// Channel-level counters from the [`Transport`].
    pub channel: TransportStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn announce(round: usize, msg_id: u64) -> PriceAnnounce {
        PriceAnnounce {
            round,
            msg_id,
            price: Price::new(0.5),
            attempt: 1,
        }
    }

    fn echo(agent: usize, msg: &PriceAnnounce) -> Option<BidReply> {
        Some(BidReply {
            agent: agent as u64,
            round: msg.round,
            in_reply_to: msg.msg_id,
            bid: 0.25,
        })
    }

    #[test]
    fn perfect_transport_is_lossless_and_immediate() {
        let mut t = PerfectTransport::new();
        for i in 0..4 {
            t.send(i, announce(1, i as u64 + 1), 0);
        }
        assert_eq!(t.next_due(), Some(0));
        let replies = t.advance(0, &mut echo);
        assert_eq!(replies.len(), 4);
        assert_eq!(t.next_due(), None);
        let s = t.stats();
        assert_eq!(s.dropped, 0);
        assert_eq!(s.duplicated, 0);
        assert_eq!(s.delivered, 8); // 4 announces + 4 replies
    }

    #[test]
    fn simnet_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let cfg = NetFaultConfig {
                drop_prob: 0.3,
                duplicate_prob: 0.2,
                min_delay_ticks: 1,
                max_delay_ticks: 5,
                partition_prob: 0.05,
                partition_ticks: 8,
            };
            let mut net = SimNet::new(cfg, seed);
            let mut got = Vec::new();
            for round in 1..=5usize {
                let now = (round as Tick - 1) * 10;
                for i in 0..8 {
                    net.send(i, announce(round, (round * 100 + i) as u64), now);
                }
                got.extend(net.advance(now + 9, &mut echo));
            }
            (got, net.stats())
        };
        let (a, sa) = run(42);
        let (b, sb) = run(42);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = run(43);
        assert_ne!(a, c, "different seeds should fault differently");
    }

    #[test]
    fn lossless_simnet_delivers_everything_within_max_delay() {
        let cfg = NetFaultConfig {
            min_delay_ticks: 1,
            max_delay_ticks: 4,
            duplicate_prob: 0.5,
            ..NetFaultConfig::default()
        };
        let mut net = SimNet::new(cfg, 7);
        for i in 0..10 {
            net.send(i, announce(1, i as u64 + 1), 0);
        }
        // Announce (≤4) + reply (≤4) round trip completes by tick 8.
        let replies = net.advance(8, &mut echo);
        // Dedup is the manager's job: with duplication the channel may
        // deliver more than 10 replies, never fewer.
        assert!(replies.len() >= 10, "only {} replies", replies.len());
        assert_eq!(net.stats().dropped, 0);
    }

    #[test]
    fn partitioned_agent_is_black_holed_for_the_duration() {
        let cfg = NetFaultConfig {
            partition_prob: 1.0, // first announce partitions the agent
            partition_ticks: 10,
            ..NetFaultConfig::default()
        };
        let mut net = SimNet::new(cfg, 1);
        net.send(0, announce(1, 1), 0);
        assert!(net.advance(5, &mut echo).is_empty());
        assert_eq!(net.stats().dropped, 1);
        // After the partition lifts the agent is reachable again — but the
        // partition draw applies to the fresh announce too, so use a net
        // with the fault disabled to check recovery.
        let mut calm = SimNet::new(NetFaultConfig::default(), 1);
        calm.send(0, announce(2, 2), 20);
        assert_eq!(calm.advance(25, &mut echo).len(), 1);
    }

    #[test]
    fn retry_backoff_is_capped_and_jittered() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_ticks: 2,
            cap_ticks: 8,
            jitter_ticks: 0,
        };
        let mut rng = SplitMix64::new(9);
        assert_eq!(p.backoff(1, &mut rng), 2);
        assert_eq!(p.backoff(2, &mut rng), 4);
        assert_eq!(p.backoff(3, &mut rng), 8);
        assert_eq!(p.backoff(4, &mut rng), 8, "capped");
        assert_eq!(p.backoff(64, &mut rng), 8, "huge attempts stay capped");

        let jittery = RetryPolicy {
            jitter_ticks: 3,
            ..p
        };
        let mut rng = SplitMix64::new(9);
        for _ in 0..32 {
            let b = jittery.backoff(1, &mut rng);
            assert!((2..=5).contains(&b), "backoff {b} outside [2, 5]");
        }
    }

    #[test]
    fn transport_errors_convert_to_market_errors() {
        let e = TransportError::DeadlineExpired {
            agent: 7,
            round: 3,
            attempts: 3,
        };
        assert_eq!(
            MarketError::from(e.clone()),
            MarketError::AgentTimeout { job: 7, round: 3 }
        );
        assert!(e.to_string().contains("deadline"));
        let c = TransportError::EndpointCrashed { agent: 1, round: 2 };
        assert_eq!(
            MarketError::from(c),
            MarketError::AgentCrashed { job: 1, round: 2 }
        );
        let i = TransportError::InvalidReply { agent: 1, round: 2 };
        assert!(matches!(
            MarketError::from(i),
            MarketError::InvalidParameter { .. }
        ));
    }
}
