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
//!   submission), [`InteractiveMechanism`] (MPR-INT: the iterative
//!   price/bid exchange that converges to a Nash equilibrium with socially
//!   optimal cost), [`OptMechanism`], [`EqlMechanism`] and
//!   [`VcgMechanism`], plus the composable [`FallbackChain`] degradation
//!   ladder over the fault-tolerant exchanges.
//! * [`opt`] — the centralized **OPT** benchmark (Eqns. 1–2) minimizing total
//!   performance-loss cost subject to the power-reduction constraint.
//! * [`eql`] — the performance-oblivious **EQL** benchmark that slows every
//!   core down uniformly.
//! * [`market`] — the participant side: bidding agents, fault adapters,
//!   the bid transport and the payment log.
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
pub mod cost;
pub mod eql;
pub mod error;
pub mod market;
pub mod mclr;
pub mod mechanism;
pub mod numeric;
pub mod opt;
pub mod participant;
pub mod supply;
pub mod units;
pub mod vcg;

/// Convenience re-exports for downstream users: `use mpr_core::prelude::*`
/// pulls in everything a typical market integration touches.
pub mod prelude {
    pub use crate::bidding::{best_response, cooperative_bid, net_gain, StaticStrategy};
    pub use crate::cost::{CostModel, LinearCost, PowerLawCost, QuadraticCost, ScaledCost};
    pub use crate::error::MarketError;
    pub use crate::market::faults::{
        ByzantineAgent, ChainLevel, CrashAgent, ResilientConfig, StaleAgent, UnresponsiveAgent,
    };
    pub use crate::market::interactive::{
        is_oscillating, BiddingAgent, InteractiveConfig, NetGainAgent,
    };
    pub use crate::market::transport::{
        NetFaultConfig, PerfectTransport, RetryPolicy, SimNet, Transport, TransportConfig,
        TransportDiagnostics, TransportError,
    };
    pub use crate::mechanism::{
        Clearing, EqlCappingMechanism, EqlMechanism, FallbackChain, InteractiveMechanism,
        MarketInstance, MclrMechanism, Mechanism, MechanismError, OptMechanism, ParticipantSpec,
        ResilientInteractiveMechanism, TransportedInteractiveMechanism, VcgMechanism,
    };
    pub use crate::participant::Participant;
    pub use crate::supply::{LinearSupply, Supply, SupplyFunction};
    pub use crate::units::{CoreHours, Cores, Price, Watts};
}

pub use cost::{CostModel, LinearCost, LogFitCost, PowerLawCost, QuadraticCost, ScaledCost};
pub use error::MarketError;
pub use market::faults::{
    ByzantineAgent, ChainLevel, ConvergenceWatchdog, CrashAgent, FaultRng, Quarantine,
    ResilientConfig, StaleAgent, UnresponsiveAgent,
};
pub use market::interactive::{is_oscillating, BiddingAgent, InteractiveConfig, NetGainAgent};
pub use market::payment::{PaymentKey, PaymentLog};
pub use market::transport::{
    NetFaultConfig, PerfectTransport, RetryPolicy, SimNet, Tick, Transport, TransportConfig,
    TransportDiagnostics, TransportError, TransportStats,
};
pub use mclr::ClearingIndex;
pub use mechanism::{
    Clearing, EqlCappingMechanism, EqlMechanism, FallbackChain, InteractiveMechanism,
    MarketInstance, MclrMechanism, Mechanism, MechanismError, OptMechanism, ParticipantSpec,
    ResilientInteractiveMechanism, TransportedInteractiveMechanism, VcgMechanism,
};
pub use opt::OptMethod;
pub use participant::Participant;
pub use supply::{LinearSupply, Supply, SupplyFunction};
pub use units::{CoreHours, Cores, Price, Watts};
