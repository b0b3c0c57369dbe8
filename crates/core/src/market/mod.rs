//! The market's participant-side primitives. Clearing itself goes through
//! the [`Mechanism`](crate::mechanism::Mechanism) trait; the types here are
//! what those mechanisms exchange with users and with the network.
//!
//! * [`interactive`] — the [`BiddingAgent`](interactive::BiddingAgent)
//!   contract, the rational [`NetGainAgent`](interactive::NetGainAgent),
//!   the MPR-INT tuning knobs and its oscillation detector.
//! * [`faults`] — deterministic faulty-agent adapters
//!   (unresponsive/crashing/stale/byzantine), the convergence watchdog, and
//!   the retry/quarantine settings and outcomes of the
//!   MPR-INT → MPR-STAT → EQL degradation chain
//!   ([`FallbackChain::degradation`](crate::mechanism::FallbackChain::degradation)).
//! * [`transport`] — the deadline-bounded asynchronous message layer
//!   (PriceAnnounce/BidReply over [`transport::Transport`]) that MPR-INT
//!   runs on in a distributed deployment.
//! * [`payment`] — the idempotent per-slot payment log.

pub mod faults;
pub mod interactive;
pub mod payment;
pub mod transport;
