//! Byte-level pins for the fault-tolerant MPR-INT exchange.
//!
//! Each case clears a freshly built level-0 exchange once on its own and
//! once through [`FallbackChain::degradation`], and pins FNV-1a-64 of the
//! `Debug` rendering of each result: the price, every per-row column, the
//! residual and every [`Diagnostics`](mpr_core::mechanism::Diagnostics)
//! field, quarantine errors and transport counters included. A change to
//! the exchange's round loop, its in-process or transport round
//! collection, or the damped price update that moves any bit of a
//! clearing fails here.

use mpr_core::mechanism::Clearing;
use mpr_core::{
    BiddingAgent, ByzantineAgent, CrashAgent, FallbackChain, InteractiveConfig, MarketError,
    MarketInstance, Mechanism, MechanismError, NetFaultConfig, NetGainAgent, PerfectTransport,
    QuadraticCost, ResilientConfig, ResilientInteractiveMechanism, SimNet, StaleAgent,
    TransportConfig, TransportedInteractiveMechanism, UnresponsiveAgent, Watts,
};

const WPU: f64 = 125.0;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn rational(id: u64, alpha: f64) -> NetGainAgent<QuadraticCost> {
    NetGainAgent::new(id, QuadraticCost::new(alpha, 1.0), Watts::new(WPU))
}

/// Answers with a NaN bid for its first `bad` responses, then honestly.
struct NanAgent {
    inner: NetGainAgent<QuadraticCost>,
    bad: usize,
}

impl BiddingAgent for NanAgent {
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
        if self.bad > 0 {
            self.bad -= 1;
            return Ok(f64::NAN);
        }
        self.inner.respond(price)
    }
}

/// A cohort's agents with their registered cooperative bids.
type Cohort = Vec<(Box<dyn BiddingAgent>, Option<f64>)>;

fn clean(alphas: &[f64]) -> Cohort {
    alphas
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            (
                Box::new(rational(i as u64, a)) as Box<dyn BiddingAgent>,
                Some(0.2),
            )
        })
        .collect()
}

/// Four healthy agents plus one of each in-process fault the transport
/// also has to survive: silent, crashing and non-finite.
fn faulty() -> Cohort {
    let mut cohort = clean(&[1.0, 2.0, 4.0, 8.0]);
    cohort.push((
        Box::new(UnresponsiveAgent::new(rational(4, 1.5), 1)),
        Some(0.3),
    ));
    cohort.push((Box::new(CrashAgent::new(rational(5, 2.5), 2)), None));
    cohort.push((
        Box::new(NanAgent {
            inner: rational(6, 3.0),
            bad: usize::MAX,
        }),
        Some(0.25),
    ));
    cohort
}

fn resilient(cohort: Cohort, config: ResilientConfig) -> ResilientInteractiveMechanism {
    let mut m = ResilientInteractiveMechanism::new(config);
    for (agent, bid) in cohort {
        m.register(agent, bid);
    }
    m
}

fn net(
    cohort: Cohort,
    faults: NetFaultConfig,
    seed: u64,
) -> TransportedInteractiveMechanism<SimNet> {
    let mut m = TransportedInteractiveMechanism::new(
        ResilientConfig::default(),
        TransportConfig::default(),
        SimNet::new(faults, seed),
    );
    for (agent, bid) in cohort {
        m.register(agent, bid);
    }
    m
}

fn shapes() -> [(&'static str, NetFaultConfig); 4] {
    [
        ("lossy", NetFaultConfig::lossy(0.3)),
        (
            "dup-reorder",
            NetFaultConfig {
                duplicate_prob: 0.4,
                min_delay_ticks: 1,
                max_delay_ticks: 6,
                ..NetFaultConfig::default()
            },
        ),
        (
            "partition",
            NetFaultConfig {
                partition_prob: 0.2,
                partition_ticks: 8,
                ..NetFaultConfig::default()
            },
        ),
        ("blackout", NetFaultConfig::lossy(1.0)),
    ]
}

/// How a case hands its instance to the exchange.
#[derive(Clone, Copy)]
enum Layout {
    Own,
    Foreign,
}

/// One pinned case: a builder for a fresh exchange, its layout and the
/// targets it clears in sequence (state carries across them).
struct Case {
    name: String,
    build: Box<dyn Fn() -> Box<dyn Exchange>>,
    layout: Layout,
    targets: Vec<f64>,
    /// Agents registered after the first clear of the level-0-alone run.
    late: Option<fn() -> Cohort>,
}

/// The two exchanges' shared surface, so one driver runs every case.
trait Exchange: Mechanism {
    fn rows(&self) -> MarketInstance;
    fn enroll(&mut self, cohort: Cohort);
}

impl Exchange for ResilientInteractiveMechanism {
    fn rows(&self) -> MarketInstance {
        self.instance()
    }
    fn enroll(&mut self, cohort: Cohort) {
        for (agent, bid) in cohort {
            self.register(agent, bid);
        }
    }
}

impl<T: mpr_core::Transport> Exchange for TransportedInteractiveMechanism<T> {
    fn rows(&self) -> MarketInstance {
        self.instance()
    }
    fn enroll(&mut self, cohort: Cohort) {
        for (agent, bid) in cohort {
            self.register(agent, bid);
        }
    }
}

fn instance_for(m: &dyn Exchange, layout: Layout) -> MarketInstance {
    match layout {
        Layout::Own => m.rows(),
        Layout::Foreign => MarketInstance::from_specs(std::iter::empty()),
    }
}

fn cases() -> Vec<Case> {
    let byzantine = || {
        let cfg = ResilientConfig {
            interactive: InteractiveConfig {
                max_iterations: 100,
                ..InteractiveConfig::default()
            },
            ..ResilientConfig::default()
        };
        let big = NetGainAgent::new(2, QuadraticCost::new(0.5, 8.0), Watts::new(WPU));
        let mut cohort = clean(&[1.0, 2.0]);
        cohort.push((Box::new(ByzantineAgent::new(big, 8.0, true, 7)), None));
        (cohort, cfg)
    };
    let mut out: Vec<Case> = vec![
        Case {
            name: "resilient/clean".into(),
            build: Box::new(|| {
                Box::new(resilient(
                    clean(&[1.0, 2.0, 4.0, 8.0]),
                    ResilientConfig::default(),
                ))
            }),
            layout: Layout::Own,
            late: None,
            targets: vec![200.0],
        },
        Case {
            name: "resilient/unresponsive".into(),
            build: Box::new(|| {
                let mut cohort = clean(&[1.0, 2.0, 3.0]);
                cohort.push((
                    Box::new(UnresponsiveAgent::new(rational(3, 1.0), 0)),
                    Some(0.3),
                ));
                cohort.push((Box::new(UnresponsiveAgent::new(rational(4, 1.5), 2)), None));
                Box::new(resilient(cohort, ResilientConfig::default()))
            }),
            layout: Layout::Own,
            late: None,
            targets: vec![300.0, 450.0],
        },
        Case {
            name: "resilient/crash".into(),
            build: Box::new(|| {
                let mut cohort = clean(&[1.0, 2.0]);
                cohort.push((Box::new(CrashAgent::new(rational(2, 1.0), 1)), Some(0.3)));
                Box::new(resilient(cohort, ResilientConfig::default()))
            }),
            layout: Layout::Own,
            late: None,
            targets: vec![150.0, 300.0],
        },
        Case {
            name: "resilient/stale".into(),
            build: Box::new(|| {
                let mut cohort = clean(&[1.0, 2.0]);
                cohort.push((Box::new(StaleAgent::new(rational(2, 1.5), 1)), None));
                Box::new(resilient(cohort, ResilientConfig::default()))
            }),
            layout: Layout::Own,
            late: None,
            targets: vec![250.0],
        },
        Case {
            name: "resilient/byzantine-oscillating".into(),
            build: Box::new(move || {
                let (cohort, cfg) = byzantine();
                Box::new(resilient(cohort, cfg))
            }),
            layout: Layout::Own,
            late: None,
            targets: vec![800.0],
        },
        Case {
            name: "resilient/non-finite-retried".into(),
            build: Box::new(|| {
                let mut cohort = clean(&[1.0, 2.0]);
                cohort.push((
                    Box::new(NanAgent {
                        inner: rational(2, 1.5),
                        bad: 2,
                    }),
                    None,
                ));
                Box::new(resilient(cohort, ResilientConfig::default()))
            }),
            layout: Layout::Own,
            late: None,
            targets: vec![200.0],
        },
        Case {
            name: "resilient/non-finite-quarantined".into(),
            build: Box::new(|| Box::new(resilient(faulty(), ResilientConfig::default()))),
            layout: Layout::Own,
            late: None,
            targets: vec![400.0, 600.0],
        },
    ];
    for (shape, faults) in shapes() {
        out.push(Case {
            name: format!("net/{shape}"),
            build: Box::new(move || Box::new(net(clean(&[1.0, 2.0, 4.0, 8.0]), faults, 42))),
            layout: Layout::Own,
            late: None,
            targets: vec![250.0, 300.0],
        });
        out.push(Case {
            name: format!("net/{shape}+faults"),
            build: Box::new(move || Box::new(net(faulty(), faults, 7))),
            layout: Layout::Own,
            late: None,
            targets: vec![400.0, 500.0],
        });
    }
    // Targets at the edges of the shell, on both exchanges.
    let edges: [(&str, Layout, [f64; 2]); 3] = [
        ("zero-target", Layout::Own, [0.0, 300.0]),
        ("infeasible", Layout::Own, [2000.0, 300.0]),
        ("foreign-layout", Layout::Foreign, [250.0, 0.0]),
    ];
    for (edge, layout, target) in edges {
        out.push(Case {
            name: format!("resilient/{edge}"),
            build: Box::new(|| Box::new(resilient(faulty(), ResilientConfig::default()))),
            layout,
            late: None,
            targets: target.to_vec(),
        });
        out.push(Case {
            name: format!("net/{edge}"),
            build: Box::new(|| Box::new(net(faulty(), NetFaultConfig::lossy(0.2), 3))),
            layout,
            late: None,
            targets: target.to_vec(),
        });
    }
    // Agents joining a live exchange after its first clear.
    out.push(Case {
        name: "resilient/late-registration".into(),
        build: Box::new(|| {
            Box::new(resilient(
                clean(&[1.0, 2.0, 4.0]),
                ResilientConfig::default(),
            ))
        }),
        layout: Layout::Own,
        late: Some(faulty),
        targets: vec![200.0, 600.0],
    });
    out.push(Case {
        name: "net/late-registration".into(),
        build: Box::new(|| Box::new(net(clean(&[1.0, 2.0, 4.0]), NetFaultConfig::lossy(0.2), 5))),
        layout: Layout::Own,
        late: Some(faulty),
        targets: vec![200.0, 600.0],
    });
    out
}

/// Clears `case` at level 0 alone and through the chain, hashing each
/// clearing (or error) in target order.
fn hashes(case: &Case) -> (u64, u64) {
    let mut alone = String::new();
    let mut m = (case.build)();
    for (i, &t) in case.targets.iter().enumerate() {
        if let (1, Some(late)) = (i, case.late) {
            m.enroll(late());
        }
        let inst = instance_for(m.as_ref(), case.layout);
        alone.push_str(&format!("{:?}\n", m.clear(&inst, Watts::new(t))));
    }
    let mut chained = String::new();
    let level0 = (case.build)();
    let inst = instance_for(level0.as_ref(), case.layout);
    let mut chain = FallbackChain::degradation(level0);
    for &t in &case.targets {
        let r: Result<Clearing, MechanismError> = chain.clear(&inst, Watts::new(t));
        chained.push_str(&format!("{r:?}\n"));
    }
    (fnv1a64(alone.as_bytes()), fnv1a64(chained.as_bytes()))
}

/// `(case, level 0 alone, through the degradation chain)`, recorded on
/// the separate resilient and transported exchange loops before they were
/// merged into one. The two `net/dup-reorder` cases were re-recorded when
/// stale-round announcements stopped reaching agents: their transport
/// counters moved (no late replies to stale rounds, so a different
/// `SimNet` draw sequence), their prices and reductions did not.
const PINNED: &[(&str, u64, u64)] = &[
    ("resilient/clean", 0xb64ed45bd410c745, 0x3bec13e438e2c8a2),
    (
        "resilient/unresponsive",
        0xe7e24dee1f5fb002,
        0xd45e3bef0622dffa,
    ),
    ("resilient/crash", 0x1d584605c1108608, 0x6ffcf7bfeb367503),
    ("resilient/stale", 0x35fc72380ed3c64a, 0x5fb28df69af1e319),
    (
        "resilient/byzantine-oscillating",
        0xd91a533fa6a96663,
        0x40c93001881b04b2,
    ),
    (
        "resilient/non-finite-retried",
        0x55a54e9d696baf3f,
        0x50842481c9905e4e,
    ),
    (
        "resilient/non-finite-quarantined",
        0x9c9db54c27735e70,
        0x00ac56fb7afb63f6,
    ),
    ("net/lossy", 0x7453b764044fb393, 0xce21d0d2246b3c7d),
    ("net/lossy+faults", 0x82715217307388f8, 0xcb3f967e1b13b472),
    ("net/dup-reorder", 0xf0008f399cc5f272, 0xb6eb236eddfaa24e),
    (
        "net/dup-reorder+faults",
        0x93ce9b7b8bcc40ca,
        0x43f8a633805282e6,
    ),
    ("net/partition", 0xfdcb4f62b44bfb5c, 0x4d5ebe7c33e2c051),
    (
        "net/partition+faults",
        0x09c3f0f174bc9cbe,
        0xc835e0415088ec84,
    ),
    ("net/blackout", 0x161e83b8fce37f5d, 0x1c651fe05249d6d3),
    (
        "net/blackout+faults",
        0xbd69341ac2d0ff65,
        0xbecc8a80e7a5c78b,
    ),
    (
        "resilient/zero-target",
        0x23983abfbb4e488c,
        0xf39ccfd31ec11d80,
    ),
    ("net/zero-target", 0x33088b7b13ff02eb, 0xa6b5c38174131999),
    (
        "resilient/infeasible",
        0xc189e1e3d71adeed,
        0x08c7d4ecfd2ccc3b,
    ),
    ("net/infeasible", 0xc944dc251f904be9, 0x54304b624f6b04e8),
    (
        "resilient/foreign-layout",
        0x327a9f2ecfe3d6b1,
        0xfe8cca43d4ee001f,
    ),
    ("net/foreign-layout", 0x1bd0d8ec05c83e4c, 0xfe8cca43d4ee001f),
    (
        "resilient/late-registration",
        0x09e3ceee47e33d77,
        0x33efab0007444ab1,
    ),
    (
        "net/late-registration",
        0x0d8de67a8a0e787f,
        0x2f131578528ddc8a,
    ),
];

#[test]
fn exchange_clearings_match_the_pinned_hashes() {
    let mut mismatches = Vec::new();
    for case in cases() {
        let (alone, chained) = hashes(&case);
        let pinned = PINNED.iter().find(|(n, ..)| *n == case.name);
        if pinned != Some(&(case.name.as_str(), alone, chained)) {
            mismatches.push(format!(
                "    (\"{}\", {alone:#018x}, {chained:#018x}),",
                case.name
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "exchange clearings differ from the pinned hashes:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn resilient_and_perfect_transport_exchanges_clear_identically() {
    let alphas = [1.0, 2.0, 4.0, 8.0];
    for target in [50.0, 150.0, 300.0, 374.0, 1000.0] {
        let sync = resilient(clean(&alphas), ResilientConfig::default());
        let mut over = TransportedInteractiveMechanism::new(
            ResilientConfig::default(),
            TransportConfig::default(),
            PerfectTransport::new(),
        );
        for (agent, bid) in clean(&alphas) {
            over.register(agent, bid);
        }
        let inst = sync.instance();
        let a = FallbackChain::degradation(sync)
            .clear(&inst, Watts::new(target))
            .expect("the chain clears best-effort");
        let b = FallbackChain::degradation(over)
            .clear(&inst, Watts::new(target))
            .expect("the chain clears best-effort");
        assert_eq!(a.price(), b.price(), "{target} W: price");
        assert_eq!(a.reductions(), b.reductions(), "{target} W: reductions");
        assert_eq!(
            a.participant_prices(),
            b.participant_prices(),
            "{target} W: participant prices"
        );
        assert_eq!(a.residual(), b.residual(), "{target} W: residual");
        assert!(b.diagnostics().transport.is_some());
        let mut db = b.diagnostics().clone();
        db.transport = None;
        assert_eq!(a.diagnostics(), &db, "{target} W: diagnostics");
    }
}
