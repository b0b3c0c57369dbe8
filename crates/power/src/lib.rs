//! # mpr-power — the HPC power substrate
//!
//! Everything MPR needs to know about the physical power side of an
//! oversubscribed HPC data center (Sections II and III-E of the paper):
//!
//! * [`PowerModel`] — the job-attributed power model
//!   `Power = Power_static + Utilization · Power_dynamic` with the paper's
//!   25 W / 125 W per-core split (Section IV-A);
//! * [`Oversubscription`] — capacity arithmetic: at `x %` oversubscription
//!   the infrastructure capacity is `100/(100+x)` of the system's peak
//!   demand;
//! * [`hierarchy`] — the ATS → UPS → PDU → rack tree of Fig. 1(a) with
//!   per-level capacity checks;
//! * [`breaker`] — the long-delay inverse-time trip characteristic that
//!   makes *reactive* overload handling safe: moderate overloads take tens
//!   of minutes to trip a breaker (Section I);
//! * [`EmergencyController`] — the detect / reduce / cool-down / resume
//!   state machine of Section III-E, with the paper's 1 % reduction buffer
//!   and 10-minute cool-down;
//! * [`telemetry`] — sensor-fault-tolerant power measurement: seeded
//!   fault adapters (noise, dropout, stuck, delay, spikes) over true
//!   power, and the [`RobustEstimator`] whose conservative upper bound —
//!   not raw power — should drive the emergency controller;
//! * [`gridfault`] — seeded infrastructure fault injection over the power
//!   tree: UPS failures, ATS transfers at derated capacity, PDU breaker
//!   trips and gradual deratings with scheduled repairs, evaluated as a
//!   pure [`TopologyState`] over the immutable [`TopologySpec`] so
//!   federated clearing can fence dead subtrees deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod emergency;
pub mod error;
pub mod federated;
pub mod gridfault;
pub mod hierarchy;
pub mod model;
pub mod oversubscription;
pub mod policy;
pub mod telemetry;
pub mod topology;
pub mod ups;

pub use breaker::{BreakerState, TripCurve};
pub use emergency::{
    ControllerState, EmergencyAction, EmergencyConfig, EmergencyController, EmergencyPhase,
};
pub use error::PowerError;
pub use federated::{FederatedError, FederatedOutcome, HierarchicalMarket, LevelReport};
pub use gridfault::{
    CompiledGridFaults, GridFault, GridFaultKind, GridFaultPlan, GridSnapshot, TopologyState,
};
pub use hierarchy::{HierarchyError, LevelKind, PowerHierarchy};
pub use model::PowerModel;
pub use oversubscription::Oversubscription;
pub use policy::{CapacityPolicy, FixedCapacity};
pub use telemetry::{
    EstimatorConfig, FaultySensor, PowerEstimate, PowerSensor, RobustEstimator, SensorFaultConfig,
    SensorReading, TelemetryHealth, TrueSensor,
};
pub use topology::{NodeSpec, TopologyError, TopologySpec};
pub use ups::UpsBattery;
