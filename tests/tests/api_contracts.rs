//! API-contract tests across the workspace: thread-safety markers
//! (C-SEND-SYNC), error-type behaviour (C-GOOD-ERR) and trait-object
//! usability (C-OBJECT) for the public surface.

fn assert_send_sync<T: Send + Sync>() {}
fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}

#[test]
fn public_types_are_send_and_sync() {
    assert_send_sync::<mpr_core::SupplyFunction>();
    assert_send_sync::<mpr_core::LinearSupply>();
    assert_send_sync::<mpr_core::Participant>();
    assert_send_sync::<mpr_core::Clearing>();
    assert_send_sync::<mpr_core::MarketInstance>();
    assert_send_sync::<mpr_core::ClearingIndex>();
    assert_send_sync::<mpr_core::QuadraticCost>();
    assert_send_sync::<mpr_apps::AppProfile>();
    assert_send_sync::<mpr_apps::ProfileCost>();
    assert_send_sync::<mpr_power::EmergencyController>();
    assert_send_sync::<mpr_power::PowerModel>();
    assert_send_sync::<mpr_power::UpsBattery>();
    assert_send_sync::<mpr_workload::Trace>();
    assert_send_sync::<mpr_workload::TraceGenerator>();
    assert_send_sync::<mpr_sim::SimConfig>();
    assert_send_sync::<mpr_sim::SimReport>();
    assert_send_sync::<mpr_grid::CarbonIntensitySignal>();
    assert_send_sync::<mpr_grid::DrSchedule>();
    assert_send_sync::<mpr_sched::ScheduleOutcome>();
    assert_send_sync::<mpr_proto::DvfsApp>();
}

#[test]
fn error_types_behave() {
    assert_error::<mpr_core::MarketError>();
    assert_error::<mpr_apps::ProfileError>();
    assert_error::<mpr_power::HierarchyError>();
    // SWF errors wrap io::Error, which is Send + Sync.
    assert_error::<mpr_workload::swf::SwfError>();
    // Messages are lowercase and non-empty (C-GOOD-ERR).
    let msgs = [
        mpr_core::MarketError::NoParticipants.to_string(),
        mpr_apps::ProfileError::TooFewPoints.to_string(),
        mpr_power::HierarchyError::UnknownNode(1).to_string(),
    ];
    for m in msgs {
        assert!(!m.is_empty());
        assert!(m.starts_with(char::is_lowercase), "message: {m}");
        assert!(!m.ends_with('.'), "no trailing punctuation: {m}");
    }
}

#[test]
fn key_traits_are_object_safe() {
    // CostModel, Supply, BiddingAgent and CapacityPolicy are used as trait
    // objects throughout the stack.
    let _cost: Box<dyn mpr_core::CostModel> = Box::new(mpr_core::QuadraticCost::new(1.0, 1.0));
    let _supply: Box<dyn mpr_core::Supply> =
        Box::new(mpr_core::SupplyFunction::new(1.0, 0.1).unwrap());
    let _agent: Box<dyn mpr_core::BiddingAgent> = Box::new(mpr_core::NetGainAgent::new(
        0,
        mpr_core::QuadraticCost::new(1.0, 1.0),
        mpr_core::Watts::new(125.0),
    ));
    let _policy: Box<dyn mpr_power::CapacityPolicy> =
        Box::new(mpr_power::FixedCapacity(mpr_core::Watts::new(1.0)));
}

#[test]
fn cost_models_compose_through_smart_pointers() {
    use mpr_core::CostModel;
    use std::sync::Arc;
    let arc: Arc<dyn CostModel> = Arc::new(mpr_core::QuadraticCost::new(2.0, 1.0));
    // Arc<dyn CostModel> itself implements CostModel (forwarding impls),
    // so it can be scaled like any concrete model.
    let scaled = mpr_core::ScaledCost::new(arc, 4.0);
    assert!((scaled.cost(2.0) - 4.0 * 2.0 * 0.25).abs() < 1e-12);
}
