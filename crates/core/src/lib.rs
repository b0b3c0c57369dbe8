//! # mpr-core — Market-based Power Reduction for oversubscribed HPC systems
//!
//! This crate implements the core contribution of *"Market Mechanism-Based
//! User-in-the-Loop Scalable Power Oversubscription for HPC Systems"*
//! (HPCA 2023): a supply-function bidding market — **MPR** — through which
//! HPC users sell resource reduction of their running jobs to the HPC
//! manager during a power overload, in exchange for core-hour rewards.
//!
//! The building blocks map one-to-one onto the paper:
//!
//! * [`SupplyFunction`] — the parameterized supply `δ(q) = [Δ − b/q]⁺`
//!   (Eqn. 3) through which a user expresses how much resource it is willing
//!   to shed at a given unit price `q`.
//! * [`CostModel`] — the user-perceived cost of performance loss
//!   `C(δ)` (Eqn. 6) with linear, quadratic, logarithmic-fit and power-law
//!   implementations.
//! * [`bidding`] — the user-side strategies: the *cooperative* /
//!   *conservative* / *deficient* static bids of Fig. 4(a) and the net-gain
//!   maximizing best response of Fig. 4(b) (Eqn. 7).
//! * [`mechanism`] — the one clearing API. Every scheme solves the **MClr**
//!   problem (Eqns. 4–5) or its benchmarks over a shared structure-of-arrays
//!   [`MarketInstance`] through the [`Mechanism`] trait
//!   (`clear(&MarketInstance, target) -> Clearing`):
//!   [`MclrMechanism`] (MPR-STAT: one bisection over bids fixed at job
//!   submission, read straight from the instance's `Δ`, bid and
//!   watts-per-unit columns), [`InteractiveMechanism`] (MPR-INT: the
//!   iterative price/bid exchange that converges to a Nash equilibrium with
//!   socially optimal cost), [`OptMechanism`], [`EqlMechanism`] and
//!   [`VcgMechanism`], plus the composable [`FallbackChain`] degradation
//!   ladder over the fault-tolerant exchanges.
//! * [`OptMechanism`] — the centralized **OPT** benchmark (Eqns. 1–2)
//!   minimizing total performance-loss cost subject to the power-reduction
//!   constraint; the crate's one OPT solver, which [`VcgMechanism`]'s pivot
//!   payments and [`analysis::evaluate`] also run.
//! * [`EqlMechanism`] — the performance-oblivious **EQL** benchmark that
//!   slows every core down uniformly.
//! * [`mclr`] — [`mclr::solve_supplies`], MClr over any [`Supply`] curve,
//!   with which the supply-function ablation clears linear bids. The MClr
//!   bisection over bid columns is crate-private; [`MclrMechanism`] is its
//!   public entry.
//! * [`market`] — the participant side: bidding agents, fault adapters,
//!   the bid transport and the payment log.
//! * [`json`] and [`codec`] — the workspace's one JSON codec and one
//!   little-endian record codec with its FNV-1a hash, shared by every
//!   crate that reads or writes a format.
//!
//! # Quick example
//!
//! Clear a static market over three jobs that must jointly shed 500 W:
//!
//! ```
//! use mpr_core::{MarketInstance, MclrMechanism, Mechanism, ParticipantSpec, Watts};
//!
//! # fn main() -> Result<(), mpr_core::MechanismError> {
//! let instance: MarketInstance = [(4.0, 0.8), (8.0, 0.4), (2.0, 2.0)]
//!     .iter()
//!     .zip(0..)
//!     .map(|(&(delta, bid), id)| ParticipantSpec::new(id, delta, Watts::new(125.0)).with_bid(bid))
//!     .collect();
//! let clearing = MclrMechanism::strict().clear(&instance, Watts::new(500.0))?;
//! assert!(clearing.total_power_reduction() >= Watts::new(500.0 * 0.999));
//! for (i, id) in clearing.ids().iter().enumerate() {
//!     println!("job {id} sheds {:.3} cores, reward {:.3} core-hours/h",
//!              clearing.reductions()[i], clearing.payment(i).get());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bidding;
pub mod codec;
pub mod cost;
pub mod error;
pub mod json;
pub mod market;
pub mod mclr;
pub mod mechanism;
pub mod numeric;
pub mod supply;
pub mod units;

pub use cost::{CostModel, LinearCost, LogFitCost, PowerLawCost, QuadraticCost, ScaledCost};
pub use error::MarketError;
pub use market::faults::{
    ByzantineAgent, ChainLevel, ConvergenceWatchdog, CrashAgent, Quarantine, ResilientConfig,
    SplitMix64, StaleAgent, UnresponsiveAgent,
};
pub use market::interactive::{is_oscillating, BiddingAgent, InteractiveConfig, NetGainAgent};
pub use market::payment::{PaymentKey, PaymentLog};
pub use market::transport::{
    NetFaultConfig, PerfectTransport, RetryPolicy, SimNet, Tick, Transport, TransportConfig,
    TransportDiagnostics, TransportError, TransportStats,
};
pub use mechanism::{
    Clearing, EqlCappingMechanism, EqlMechanism, FallbackChain, InteractiveMechanism,
    MarketInstance, MclrMechanism, Mechanism, MechanismError, OptMechanism, OptMethod,
    ParticipantSpec, ResilientInteractiveMechanism, TransportedInteractiveMechanism, VcgMechanism,
};
pub use supply::{LinearSupply, Supply, SupplyFunction};
pub use units::{CoreHours, Cores, Price, Watts};
