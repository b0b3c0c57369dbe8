//! Byte-level pins for the MPR-STAT, MPR-INT, OPT, VCG and EQL mechanisms.
//!
//! Each case clears one instance (or a `select`ed / `partition_by` view of
//! it) at one or more targets, under every mechanism, and pins
//! FNV-1a-64 of the `Debug` rendering of each
//! `Result<Clearing, MechanismError>`: the price, every per-row column, the
//! residual, every diagnostics field and the exact error variant. A change
//! to the baselines' arithmetic (summation order, tolerances, the overshoot
//! trim, the concave greedy, the pivot payments, the uniform fraction or
//! the best-effort capping) or to MClr's price search (the row filter, the
//! seeded bisection, the unguarded path, the price ceiling) that moves any
//! bit fails here. A second test
//! pins `Debug` of [`analysis::evaluate`]'s welfare for an MPR-STAT, an
//! MPR-INT and an EQL clearing.

use std::sync::Arc;

use mpr_core::analysis;
use mpr_core::bidding::StaticStrategy;
use mpr_core::mechanism::{Clearing, GroupId, InstanceView};
use mpr_core::{
    CostModel, EqlMechanism, InteractiveConfig, InteractiveMechanism, LinearCost, LogFitCost,
    MarketInstance, MclrMechanism, Mechanism, MechanismError, OptMechanism, OptMethod,
    ParticipantSpec, QuadraticCost, VcgMechanism, Watts,
};

const WPU: f64 = 125.0;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A cost model whose cost and marginal are NaN everywhere.
#[derive(Debug)]
struct NanCost;

impl CostModel for NanCost {
    fn cost(&self, _delta: f64) -> f64 {
        f64::NAN
    }
    fn delta_max(&self) -> f64 {
        2.0
    }
    fn marginal(&self, _delta: f64) -> f64 {
        f64::NAN
    }
}

fn row(id: u64, cost: Arc<dyn CostModel>) -> ParticipantSpec {
    ParticipantSpec::new(id, cost.delta_max(), Watts::new(WPU)).with_cost(cost)
}

fn cohort(costs: Vec<Arc<dyn CostModel>>) -> MarketInstance {
    costs
        .into_iter()
        .zip(0..)
        .map(|(c, id)| row(id, c))
        .collect()
}

fn quadratic(alphas: &[f64], delta_max: f64) -> MarketInstance {
    cohort(
        alphas
            .iter()
            .map(|&a| Arc::new(QuadraticCost::new(a, delta_max)) as Arc<dyn CostModel>)
            .collect(),
    )
}

fn concave() -> MarketInstance {
    cohort(
        [0.1, 0.5, 2.0, 1.0]
            .iter()
            .map(|&a| Arc::new(LogFitCost::new(a, 20.0, 1.0)) as Arc<dyn CostModel>)
            .collect(),
    )
}

fn tied_linear() -> MarketInstance {
    cohort(
        (0..4)
            .map(|_| Arc::new(LinearCost::new(2.0, 1.0)) as Arc<dyn CostModel>)
            .collect(),
    )
}

/// Cost-bearing rows interleaved with bid-only rows, with spread cores so
/// EQL's uniform core fraction pushes some rows past their `Δ_m`.
fn mixed() -> MarketInstance {
    vec![
        row(0, Arc::new(QuadraticCost::new(1.0, 2.0))).with_cores(4.0),
        ParticipantSpec::new(1, 1.5, Watts::new(100.0))
            .with_bid(0.3)
            .with_cores(2.0),
        row(2, Arc::new(QuadraticCost::new(3.0, 1.0))).with_cores(8.0),
        ParticipantSpec::new(3, 0.5, Watts::new(80.0)).with_cores(1.0),
        row(4, Arc::new(LinearCost::new(0.5, 0.5))).with_cores(0.5),
    ]
    .into_iter()
    .collect()
}

/// Removing the one big supplier leaves the target out of reach.
fn monopolist() -> MarketInstance {
    cohort(vec![
        Arc::new(QuadraticCost::new(1.0, 10.0)),
        Arc::new(QuadraticCost::new(1.0, 0.1)),
    ])
}

/// The convex cohort, each row also bidding its cooperative static bid.
fn cooperative() -> MarketInstance {
    [1.0, 2.0, 4.0, 8.0]
        .iter()
        .zip(0..)
        .map(|(&a, id)| {
            let cost = QuadraticCost::new(a, 1.0);
            let bid = StaticStrategy::Cooperative
                .supply_for(&cost)
                .expect("a quadratic cost has a cooperative bid")
                .bid();
            row(id, Arc::new(cost)).with_bid(bid)
        })
        .collect()
}

/// Cost-bearing rows with the given static bids.
fn bidding(bids: &[f64]) -> MarketInstance {
    bids.iter()
        .zip(0..)
        .map(|(&b, id)| row(id, Arc::new(QuadraticCost::new(1.0 + id as f64, 1.0))).with_bid(b))
        .collect()
}

/// Bidding rows next to a row whose `Δ_m` is negative and one whose `Δ_m`
/// is NaN; MClr drops both.
fn bad_delta() -> MarketInstance {
    vec![
        row(0, Arc::new(QuadraticCost::new(1.0, 1.0))).with_bid(0.2),
        ParticipantSpec::new(1, -1.0, Watts::new(WPU)).with_bid(0.3),
        row(2, Arc::new(QuadraticCost::new(2.0, 1.0))).with_bid(0.5),
        ParticipantSpec::new(3, f64::NAN, Watts::new(WPU)).with_bid(0.1),
    ]
    .into_iter()
    .collect()
}

/// Bidding rows with a zero and a negative power yield: their supply is
/// not monotone in the price, so MClr takes its unguarded path.
fn nonpositive_yield() -> MarketInstance {
    vec![
        row(0, Arc::new(QuadraticCost::new(1.0, 1.0))).with_bid(0.2),
        ParticipantSpec::new(1, 1.0, Watts::new(0.0)).with_bid(0.3),
        row(2, Arc::new(QuadraticCost::new(2.0, 1.0))).with_bid(0.4),
        ParticipantSpec::new(3, 0.5, Watts::new(-50.0)).with_bid(0.1),
    ]
    .into_iter()
    .collect()
}

fn nan_marginal() -> MarketInstance {
    cohort(vec![
        Arc::new(NanCost),
        Arc::new(QuadraticCost::new(1.0, 4.0)),
    ])
}

/// How a case hands its instance to the mechanism.
#[derive(Clone, Copy)]
enum Window {
    Full,
    Select(&'static [u32]),
    Partition(&'static [GroupId]),
}

struct Case {
    name: &'static str,
    instance: fn() -> MarketInstance,
    window: Window,
    targets: &'static [f64],
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "convex",
            instance: || quadratic(&[1.0, 2.0, 4.0, 8.0], 1.0),
            window: Window::Full,
            targets: &[50.0, 150.0, 300.0, 500.0],
        },
        Case {
            name: "concave",
            instance: concave,
            window: Window::Full,
            targets: &[60.0, 125.0, 310.0],
        },
        Case {
            name: "tied-linear",
            instance: tied_linear,
            window: Window::Full,
            targets: &[100.0, 250.0, 500.0],
        },
        Case {
            name: "mixed-cost-rows",
            instance: mixed,
            window: Window::Full,
            targets: &[120.0, 300.0, 1000.0],
        },
        Case {
            name: "bid-only-rows",
            instance: || {
                (0..3)
                    .map(|id| {
                        ParticipantSpec::new(id, 1.0, Watts::new(WPU))
                            .with_bid(0.2 + 0.1 * id as f64)
                            .with_cores(2.0)
                    })
                    .collect()
            },
            window: Window::Full,
            targets: &[100.0, 0.0],
        },
        Case {
            name: "zero-target",
            instance: || quadratic(&[1.0, 2.0], 1.0),
            window: Window::Full,
            targets: &[0.0, -5.0],
        },
        Case {
            name: "infeasible",
            instance: || quadratic(&[1.0, 2.0], 1.0),
            window: Window::Full,
            targets: &[250.0 * (1.0 + 5e-10), 251.0, 1e6],
        },
        Case {
            name: "vcg-monopolist",
            instance: monopolist,
            window: Window::Full,
            targets: &[500.0, 10.0],
        },
        Case {
            name: "single-row",
            instance: || quadratic(&[2.0], 1.0),
            window: Window::Full,
            targets: &[50.0],
        },
        Case {
            name: "nan-marginal",
            instance: nan_marginal,
            window: Window::Full,
            targets: &[100.0, 400.0],
        },
        Case {
            name: "empty",
            instance: || MarketInstance::from_specs(std::iter::empty()),
            window: Window::Full,
            targets: &[10.0, 0.0],
        },
        Case {
            name: "select",
            instance: || quadratic(&[1.0, 2.0, 4.0, 8.0, 0.5], 1.0),
            window: Window::Select(&[4, 1, 3]),
            targets: &[100.0, 200.0],
        },
        Case {
            name: "partition",
            instance: mixed,
            window: Window::Partition(&[1, 0, 1, 0, 1]),
            targets: &[90.0, 400.0],
        },
        Case {
            name: "cooperative-convex",
            instance: cooperative,
            window: Window::Full,
            targets: &[50.0, 150.0, 300.0, 500.0],
        },
        Case {
            name: "zero-bids",
            instance: || bidding(&[0.0, 0.0, 0.0]),
            window: Window::Full,
            targets: &[100.0, 375.0],
        },
        Case {
            name: "one-nan-bid",
            instance: || bidding(&[0.2, f64::NAN, 0.4]),
            window: Window::Full,
            targets: &[60.0, 200.0, 300.0],
        },
        Case {
            name: "bad-delta-bid",
            instance: bad_delta,
            window: Window::Full,
            targets: &[60.0, 200.0, 300.0],
        },
        Case {
            name: "nonpositive-yield",
            instance: nonpositive_yield,
            window: Window::Full,
            targets: &[50.0, 200.0, 300.0],
        },
        Case {
            name: "just-above-attainable",
            instance: cooperative,
            window: Window::Full,
            targets: &[500.0 * (1.0 + 5e-10), 500.0 * (1.0 - 1e-12)],
        },
    ]
}

/// The mechanisms under every constructor the library offers.
fn mechanisms() -> Vec<(&'static str, Box<dyn Mechanism>)> {
    vec![
        ("mpr-stat-strict", Box::new(MclrMechanism::strict())),
        ("mpr-stat-best", Box::new(MclrMechanism::best_effort())),
        (
            "mpr-int-strict",
            Box::new(InteractiveMechanism::strict(InteractiveConfig::default())),
        ),
        (
            "mpr-int-best",
            Box::new(InteractiveMechanism::best_effort(
                InteractiveConfig::default(),
            )),
        ),
        (
            "opt-strict-auto",
            Box::new(OptMechanism::strict(OptMethod::Auto)),
        ),
        (
            "opt-strict-water",
            Box::new(OptMechanism::strict(OptMethod::WaterFilling)),
        ),
        (
            "opt-strict-greedy",
            Box::new(OptMechanism::strict(OptMethod::ConcaveGreedy)),
        ),
        (
            "opt-best-auto",
            Box::new(OptMechanism::best_effort(OptMethod::Auto)),
        ),
        (
            "opt-best-water",
            Box::new(OptMechanism::best_effort(OptMethod::WaterFilling)),
        ),
        (
            "opt-best-greedy",
            Box::new(OptMechanism::best_effort(OptMethod::ConcaveGreedy)),
        ),
        (
            "vcg-strict",
            Box::new(VcgMechanism::strict(OptMethod::Auto)),
        ),
        (
            "vcg-best",
            Box::new(VcgMechanism::best_effort(OptMethod::Auto)),
        ),
        ("eql", Box::new(EqlMechanism)),
    ]
}

fn views<'a>(inst: &'a MarketInstance, window: Window) -> Vec<InstanceView<'a>> {
    match window {
        Window::Full => vec![inst.view()],
        Window::Select(rows) => vec![inst.select(rows)],
        Window::Partition(groups) => inst.partition_by(groups),
    }
}

fn hash(mech: &mut dyn Mechanism, case: &Case) -> u64 {
    let inst = (case.instance)();
    let mut out = String::new();
    for view in views(&inst, case.window) {
        for &t in case.targets {
            let r: Result<Clearing, MechanismError> = mech.clear_view(&view, Watts::new(t));
            out.push_str(&format!("{r:?}\n"));
        }
    }
    fnv1a64(out.as_bytes())
}

/// `(mechanism/case, hash)`. The OPT, VCG and EQL rows were recorded on the
/// solver modules those mechanisms used to translate into and out of; the
/// MPR-STAT and MPR-INT rows on MClr's row-copying `Participant` layer.
const PINNED: &[(&str, u64)] = &[
    ("mpr-stat-strict/convex", 0x5b9ff30d82c16be5),
    ("mpr-stat-strict/concave", 0xf106b2a16707abaf),
    ("mpr-stat-strict/tied-linear", 0xf106b2a16707abaf),
    ("mpr-stat-strict/mixed-cost-rows", 0xd53e68c8f62f7987),
    ("mpr-stat-strict/bid-only-rows", 0x4590733a7fa7fe17),
    ("mpr-stat-strict/zero-target", 0x2848298aecb6aa45),
    ("mpr-stat-strict/infeasible", 0xf106b2a16707abaf),
    ("mpr-stat-strict/vcg-monopolist", 0x2848298aecb6aa45),
    ("mpr-stat-strict/single-row", 0x7b26329462ea9ecf),
    ("mpr-stat-strict/nan-marginal", 0x2848298aecb6aa45),
    ("mpr-stat-strict/empty", 0xfe8cca43d4ee001f),
    ("mpr-stat-strict/select", 0x2848298aecb6aa45),
    ("mpr-stat-strict/partition", 0xae06f1601fa012ce),
    ("mpr-stat-strict/cooperative-convex", 0xec3fa85e8b742282),
    ("mpr-stat-strict/zero-bids", 0xd1b07e91fcca1c03),
    ("mpr-stat-strict/one-nan-bid", 0x37a1b15703f0dec6),
    ("mpr-stat-strict/bad-delta-bid", 0x0e228d6f9aaddd5b),
    ("mpr-stat-strict/nonpositive-yield", 0xbc1146a3dc65c8cc),
    ("mpr-stat-strict/just-above-attainable", 0xb89b19c626770c44),
    ("mpr-stat-best/convex", 0x5b9ff30d82c16be5),
    ("mpr-stat-best/concave", 0xf106b2a16707abaf),
    ("mpr-stat-best/tied-linear", 0xf106b2a16707abaf),
    ("mpr-stat-best/mixed-cost-rows", 0xebbc1c2a400e78e0),
    ("mpr-stat-best/bid-only-rows", 0x4590733a7fa7fe17),
    ("mpr-stat-best/zero-target", 0x2848298aecb6aa45),
    ("mpr-stat-best/infeasible", 0xf106b2a16707abaf),
    ("mpr-stat-best/vcg-monopolist", 0x2848298aecb6aa45),
    ("mpr-stat-best/single-row", 0x7b26329462ea9ecf),
    ("mpr-stat-best/nan-marginal", 0x2848298aecb6aa45),
    ("mpr-stat-best/empty", 0xfe8cca43d4ee001f),
    ("mpr-stat-best/select", 0x2848298aecb6aa45),
    ("mpr-stat-best/partition", 0x76841b6603f75b57),
    ("mpr-stat-best/cooperative-convex", 0xdc989a0a198bd0ea),
    ("mpr-stat-best/zero-bids", 0xd1b07e91fcca1c03),
    ("mpr-stat-best/one-nan-bid", 0x01ed8f15d1a38a27),
    ("mpr-stat-best/bad-delta-bid", 0x9dc42500157c1db5),
    ("mpr-stat-best/nonpositive-yield", 0xf7f6ae385a868278),
    ("mpr-stat-best/just-above-attainable", 0xa8bafbf51213ce2a),
    ("mpr-int-strict/convex", 0xf6024334bcd8faad),
    ("mpr-int-strict/concave", 0x4ff8a33a1ae127d6),
    ("mpr-int-strict/tied-linear", 0x8c3bd0770cd4d210),
    ("mpr-int-strict/mixed-cost-rows", 0xfd382e1ef6c32331),
    ("mpr-int-strict/bid-only-rows", 0x2848298aecb6aa45),
    ("mpr-int-strict/zero-target", 0x78f5e788a1b388c3),
    ("mpr-int-strict/infeasible", 0x53ded83151189953),
    ("mpr-int-strict/vcg-monopolist", 0xe43bd3239deea54f),
    ("mpr-int-strict/single-row", 0xd8567a8f5dd257aa),
    ("mpr-int-strict/nan-marginal", 0xe3ad34358a2e5afe),
    ("mpr-int-strict/empty", 0xfe8cca43d4ee001f),
    ("mpr-int-strict/select", 0xd77d4e6754ad0633),
    ("mpr-int-strict/partition", 0x762eb3e390ee9983),
    ("mpr-int-strict/cooperative-convex", 0xf6024334bcd8faad),
    ("mpr-int-strict/zero-bids", 0xf23c1e8955355580),
    ("mpr-int-strict/one-nan-bid", 0xba328403f6211f26),
    ("mpr-int-strict/bad-delta-bid", 0x5ed3553805444809),
    ("mpr-int-strict/nonpositive-yield", 0xceab16026e98def9),
    ("mpr-int-strict/just-above-attainable", 0x8e363adac5b33415),
    ("mpr-int-best/convex", 0xf6024334bcd8faad),
    ("mpr-int-best/concave", 0x4ff8a33a1ae127d6),
    ("mpr-int-best/tied-linear", 0x8c3bd0770cd4d210),
    ("mpr-int-best/mixed-cost-rows", 0x8a663f74fc42e426),
    ("mpr-int-best/bid-only-rows", 0x2848298aecb6aa45),
    ("mpr-int-best/zero-target", 0x78f5e788a1b388c3),
    ("mpr-int-best/infeasible", 0x05d9f65e22d548cd),
    ("mpr-int-best/vcg-monopolist", 0xe43bd3239deea54f),
    ("mpr-int-best/single-row", 0xd8567a8f5dd257aa),
    ("mpr-int-best/nan-marginal", 0xe3ad34358a2e5afe),
    ("mpr-int-best/empty", 0xfe8cca43d4ee001f),
    ("mpr-int-best/select", 0xd77d4e6754ad0633),
    ("mpr-int-best/partition", 0x762eb3e390ee9983),
    ("mpr-int-best/cooperative-convex", 0xf6024334bcd8faad),
    ("mpr-int-best/zero-bids", 0xf23c1e8955355580),
    ("mpr-int-best/one-nan-bid", 0xba328403f6211f26),
    ("mpr-int-best/bad-delta-bid", 0xfa23f6e98b085613),
    ("mpr-int-best/nonpositive-yield", 0x2850099a1a6e1c30),
    ("mpr-int-best/just-above-attainable", 0x8e363adac5b33415),
    ("opt-strict-auto/convex", 0x185fa9a1c7a95f38),
    ("opt-strict-auto/concave", 0x9aeeb005b3bc2aff),
    ("opt-strict-auto/tied-linear", 0x756a7fd82f9e91fe),
    ("opt-strict-auto/mixed-cost-rows", 0x2d37b8a9c30bdc94),
    ("opt-strict-auto/bid-only-rows", 0x2848298aecb6aa45),
    ("opt-strict-auto/zero-target", 0x529a125ec09af5e7),
    ("opt-strict-auto/infeasible", 0x37c5b29677b1c98d),
    ("opt-strict-auto/vcg-monopolist", 0xc52f0e037017051e),
    ("opt-strict-auto/single-row", 0x35f29d82f1db63be),
    ("opt-strict-auto/nan-marginal", 0x68d5b21e94ed2d75),
    ("opt-strict-auto/empty", 0xfe8cca43d4ee001f),
    ("opt-strict-auto/select", 0x2808649393b2f7d3),
    ("opt-strict-auto/partition", 0x60ad71363fbae53c),
    ("opt-strict-auto/cooperative-convex", 0x185fa9a1c7a95f38),
    ("opt-strict-auto/zero-bids", 0xa7d88807cde47cb8),
    ("opt-strict-auto/one-nan-bid", 0xade6b22e74a33b9d),
    ("opt-strict-auto/bad-delta-bid", 0xb0d29ec424293843),
    ("opt-strict-auto/nonpositive-yield", 0x2cbbf1569b1f8f1f),
    ("opt-strict-auto/just-above-attainable", 0xb459b35cdbf9bb81),
    ("opt-strict-water/convex", 0x185fa9a1c7a95f38),
    ("opt-strict-water/concave", 0x7df43dda2e3e291c),
    ("opt-strict-water/tied-linear", 0x756a7fd82f9e91fe),
    ("opt-strict-water/mixed-cost-rows", 0x2d37b8a9c30bdc94),
    ("opt-strict-water/bid-only-rows", 0x2848298aecb6aa45),
    ("opt-strict-water/zero-target", 0x529a125ec09af5e7),
    ("opt-strict-water/infeasible", 0x37c5b29677b1c98d),
    ("opt-strict-water/vcg-monopolist", 0xc52f0e037017051e),
    ("opt-strict-water/single-row", 0x35f29d82f1db63be),
    ("opt-strict-water/nan-marginal", 0x68d5b21e94ed2d75),
    ("opt-strict-water/empty", 0xfe8cca43d4ee001f),
    ("opt-strict-water/select", 0x2808649393b2f7d3),
    ("opt-strict-water/partition", 0x60ad71363fbae53c),
    ("opt-strict-water/cooperative-convex", 0x185fa9a1c7a95f38),
    ("opt-strict-water/zero-bids", 0xa7d88807cde47cb8),
    ("opt-strict-water/one-nan-bid", 0xade6b22e74a33b9d),
    ("opt-strict-water/bad-delta-bid", 0xb0d29ec424293843),
    ("opt-strict-water/nonpositive-yield", 0x2cbbf1569b1f8f1f),
    ("opt-strict-water/just-above-attainable", 0xb459b35cdbf9bb81),
    ("opt-strict-greedy/convex", 0x43337c752e3d2fca),
    ("opt-strict-greedy/concave", 0x9aeeb005b3bc2aff),
    ("opt-strict-greedy/tied-linear", 0xb2372f54405a278c),
    ("opt-strict-greedy/mixed-cost-rows", 0x979900e5130484a8),
    ("opt-strict-greedy/bid-only-rows", 0x2848298aecb6aa45),
    ("opt-strict-greedy/zero-target", 0x529a125ec09af5e7),
    ("opt-strict-greedy/infeasible", 0x37c5b29677b1c98d),
    ("opt-strict-greedy/vcg-monopolist", 0x249ccf7553660509),
    ("opt-strict-greedy/single-row", 0x35f29d82f1db63be),
    ("opt-strict-greedy/nan-marginal", 0x2bbb8ec9dd08f053),
    ("opt-strict-greedy/empty", 0xfe8cca43d4ee001f),
    ("opt-strict-greedy/select", 0x710725e5715542b6),
    ("opt-strict-greedy/partition", 0x60ad71363fbae53c),
    ("opt-strict-greedy/cooperative-convex", 0x43337c752e3d2fca),
    ("opt-strict-greedy/zero-bids", 0xe7486617565af997),
    ("opt-strict-greedy/one-nan-bid", 0x8c37a0ece25e2e4a),
    ("opt-strict-greedy/bad-delta-bid", 0x37bad18c86e71beb),
    ("opt-strict-greedy/nonpositive-yield", 0xf65973df68566d33),
    (
        "opt-strict-greedy/just-above-attainable",
        0xb459b35cdbf9bb81,
    ),
    ("opt-best-auto/convex", 0x185fa9a1c7a95f38),
    ("opt-best-auto/concave", 0x9aeeb005b3bc2aff),
    ("opt-best-auto/tied-linear", 0x756a7fd82f9e91fe),
    ("opt-best-auto/mixed-cost-rows", 0xb82aee5777c7e589),
    ("opt-best-auto/bid-only-rows", 0x2848298aecb6aa45),
    ("opt-best-auto/zero-target", 0x529a125ec09af5e7),
    ("opt-best-auto/infeasible", 0x4eefcdbec0713447),
    ("opt-best-auto/vcg-monopolist", 0xc52f0e037017051e),
    ("opt-best-auto/single-row", 0x35f29d82f1db63be),
    ("opt-best-auto/nan-marginal", 0x5029ca1dff4d3cce),
    ("opt-best-auto/empty", 0xfe8cca43d4ee001f),
    ("opt-best-auto/select", 0x2808649393b2f7d3),
    ("opt-best-auto/partition", 0x60ad71363fbae53c),
    ("opt-best-auto/cooperative-convex", 0x185fa9a1c7a95f38),
    ("opt-best-auto/zero-bids", 0xa7d88807cde47cb8),
    ("opt-best-auto/one-nan-bid", 0xade6b22e74a33b9d),
    ("opt-best-auto/bad-delta-bid", 0xa505a8e396fac26d),
    ("opt-best-auto/nonpositive-yield", 0x57e43c0523b20124),
    ("opt-best-auto/just-above-attainable", 0xb459b35cdbf9bb81),
    ("opt-best-water/convex", 0x185fa9a1c7a95f38),
    ("opt-best-water/concave", 0x7df43dda2e3e291c),
    ("opt-best-water/tied-linear", 0x756a7fd82f9e91fe),
    ("opt-best-water/mixed-cost-rows", 0xb82aee5777c7e589),
    ("opt-best-water/bid-only-rows", 0x2848298aecb6aa45),
    ("opt-best-water/zero-target", 0x529a125ec09af5e7),
    ("opt-best-water/infeasible", 0x4eefcdbec0713447),
    ("opt-best-water/vcg-monopolist", 0xc52f0e037017051e),
    ("opt-best-water/single-row", 0x35f29d82f1db63be),
    ("opt-best-water/nan-marginal", 0x5029ca1dff4d3cce),
    ("opt-best-water/empty", 0xfe8cca43d4ee001f),
    ("opt-best-water/select", 0x2808649393b2f7d3),
    ("opt-best-water/partition", 0x60ad71363fbae53c),
    ("opt-best-water/cooperative-convex", 0x185fa9a1c7a95f38),
    ("opt-best-water/zero-bids", 0xa7d88807cde47cb8),
    ("opt-best-water/one-nan-bid", 0xade6b22e74a33b9d),
    ("opt-best-water/bad-delta-bid", 0xa505a8e396fac26d),
    ("opt-best-water/nonpositive-yield", 0x57e43c0523b20124),
    ("opt-best-water/just-above-attainable", 0xb459b35cdbf9bb81),
    ("opt-best-greedy/convex", 0x43337c752e3d2fca),
    ("opt-best-greedy/concave", 0x9aeeb005b3bc2aff),
    ("opt-best-greedy/tied-linear", 0xb2372f54405a278c),
    ("opt-best-greedy/mixed-cost-rows", 0xd2d938141212e29d),
    ("opt-best-greedy/bid-only-rows", 0x2848298aecb6aa45),
    ("opt-best-greedy/zero-target", 0x529a125ec09af5e7),
    ("opt-best-greedy/infeasible", 0x4eefcdbec0713447),
    ("opt-best-greedy/vcg-monopolist", 0x249ccf7553660509),
    ("opt-best-greedy/single-row", 0x35f29d82f1db63be),
    ("opt-best-greedy/nan-marginal", 0x5029ca1dff4d3cce),
    ("opt-best-greedy/empty", 0xfe8cca43d4ee001f),
    ("opt-best-greedy/select", 0x710725e5715542b6),
    ("opt-best-greedy/partition", 0x60ad71363fbae53c),
    ("opt-best-greedy/cooperative-convex", 0x43337c752e3d2fca),
    ("opt-best-greedy/zero-bids", 0xe7486617565af997),
    ("opt-best-greedy/one-nan-bid", 0x8c37a0ece25e2e4a),
    ("opt-best-greedy/bad-delta-bid", 0x23521350f0439bf5),
    ("opt-best-greedy/nonpositive-yield", 0x22a6b85375426078),
    ("opt-best-greedy/just-above-attainable", 0xb459b35cdbf9bb81),
    ("vcg-strict/convex", 0xf56b40548b381607),
    ("vcg-strict/concave", 0x92c01fd01668ba10),
    ("vcg-strict/tied-linear", 0xb731ea7a28353ade),
    ("vcg-strict/mixed-cost-rows", 0x84469f3f955cb3c3),
    ("vcg-strict/bid-only-rows", 0x2848298aecb6aa45),
    ("vcg-strict/zero-target", 0x529a125ec09af5e7),
    ("vcg-strict/infeasible", 0x988cc4bea46c528c),
    ("vcg-strict/vcg-monopolist", 0x249db0e831ceae12),
    ("vcg-strict/single-row", 0xdb2f894098269b41),
    ("vcg-strict/nan-marginal", 0x68d5b21e94ed2d75),
    ("vcg-strict/empty", 0xfe8cca43d4ee001f),
    ("vcg-strict/select", 0x94fac7758715650d),
    ("vcg-strict/partition", 0x31407938dbf92d84),
    ("vcg-strict/cooperative-convex", 0xf56b40548b381607),
    ("vcg-strict/zero-bids", 0xbbdddd3e334cee86),
    ("vcg-strict/one-nan-bid", 0xab50c9825a33b7bb),
    ("vcg-strict/bad-delta-bid", 0x83bce2f87b5c3a56),
    ("vcg-strict/nonpositive-yield", 0x17107b4bc30bb9c2),
    ("vcg-strict/just-above-attainable", 0x52449e0d2a71f6d5),
    ("vcg-best/convex", 0x2bc32362ad43cd54),
    ("vcg-best/concave", 0x92c01fd01668ba10),
    ("vcg-best/tied-linear", 0x2bb37f4eceb35ecf),
    ("vcg-best/mixed-cost-rows", 0xe2cbc792caef338b),
    ("vcg-best/bid-only-rows", 0x2848298aecb6aa45),
    ("vcg-best/zero-target", 0x529a125ec09af5e7),
    ("vcg-best/infeasible", 0xccf8893c73985229),
    ("vcg-best/vcg-monopolist", 0xfa2bfd54300fb57d),
    ("vcg-best/single-row", 0x3e09ede17fc7912c),
    ("vcg-best/nan-marginal", 0x10fb9af6e372e03c),
    ("vcg-best/empty", 0xfe8cca43d4ee001f),
    ("vcg-best/select", 0x94fac7758715650d),
    ("vcg-best/partition", 0x41e77a2d0e8f49ab),
    ("vcg-best/cooperative-convex", 0x2bc32362ad43cd54),
    ("vcg-best/zero-bids", 0xabb3c88bff6e9a8d),
    ("vcg-best/one-nan-bid", 0xd9601fd227a6a278),
    ("vcg-best/bad-delta-bid", 0xb2f9f5d01adc56ee),
    ("vcg-best/nonpositive-yield", 0xebb285f1bfc86390),
    ("vcg-best/just-above-attainable", 0xcd388087c5b4a883),
    ("eql/convex", 0x704ffeb4454727dc),
    ("eql/concave", 0xa4a61d56180c8704),
    ("eql/tied-linear", 0x66fc3f4fa5bb6f0f),
    ("eql/mixed-cost-rows", 0x003448d4d6d51a4f),
    ("eql/bid-only-rows", 0x662bffc729290cb0),
    ("eql/zero-target", 0x529a125ec09af5e7),
    ("eql/infeasible", 0x4eefcdbec0713447),
    ("eql/vcg-monopolist", 0xb2656af74766b83f),
    ("eql/single-row", 0x35f29d82f1db63be),
    ("eql/nan-marginal", 0x94d54ac8b47f4176),
    ("eql/empty", 0xfe8cca43d4ee001f),
    ("eql/select", 0x2d7eb30c24780a91),
    ("eql/partition", 0x4eb2bdb969840e25),
    ("eql/cooperative-convex", 0x704ffeb4454727dc),
    ("eql/zero-bids", 0xcfb2e08304fd580c),
    ("eql/one-nan-bid", 0x2d51c785208cc9d7),
    ("eql/bad-delta-bid", 0x7b59cb5dc1506f0b),
    ("eql/nonpositive-yield", 0xe23db598959bec4e),
    ("eql/just-above-attainable", 0x164df528d91edd5b),
];

#[test]
fn baseline_clearings_match_the_pinned_hashes() {
    let mut mismatches = Vec::new();
    for (mname, mut mech) in mechanisms() {
        for case in cases() {
            let name = format!("{mname}/{}", case.name);
            let h = hash(mech.as_mut(), &case);
            if PINNED.iter().find(|(n, _)| *n == name) != Some(&(name.as_str(), h)) {
                mismatches.push(format!("    (\"{name}\", {h:#018x}),"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "clearings differ from the pinned hashes:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn welfare_of_stat_int_and_eql_clearings_matches_the_pin() {
    let costs: Vec<QuadraticCost> = [1.0, 2.0, 4.0, 8.0]
        .iter()
        .map(|&a| QuadraticCost::new(a, 1.0))
        .collect();
    let inst: MarketInstance = costs
        .iter()
        .zip(0..)
        .map(|(c, id)| {
            let bid = StaticStrategy::Cooperative
                .supply_for(c)
                .expect("a quadratic cost has a cooperative bid")
                .bid();
            ParticipantSpec::new(id, c.delta_max(), Watts::new(WPU))
                .with_bid(bid)
                .with_cost(Arc::new(*c))
                .with_cores(2.0)
        })
        .collect();
    let wpu = vec![WPU; costs.len()];
    let mut mechs: Vec<Box<dyn Mechanism>> = vec![
        Box::new(MclrMechanism::strict()),
        Box::new(InteractiveMechanism::strict(InteractiveConfig::default())),
        Box::new(EqlMechanism),
    ];
    let mut out = String::new();
    for mech in &mut mechs {
        for t in [0.0, 120.0, 250.0, 400.0] {
            let clearing = mech
                .clear(&inst, Watts::new(t))
                .expect("every target is attainable");
            out.push_str(&format!(
                "{} {t}: {:?}\n",
                mech.name(),
                analysis::evaluate(&clearing, &costs, &wpu)
            ));
        }
    }
    let h = fnv1a64(out.as_bytes());
    assert_eq!(
        h, 0x5fe0_4021_0c8f_329a,
        "welfare differs from the pin: {h:#018x}\n{out}"
    );
}
