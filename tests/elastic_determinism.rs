//! The elastic-pool contract: autoscaling is *deterministic*. A scenario
//! with a [`Pool`] — controller ticks, cold starts, scale-out spawns,
//! drain-and-retire scale-in — is a pure function of (scenario, arrival
//! seed): same inputs reproduce the **entire** `ScenarioReport` bit for
//! bit, per-pool scaling counters and the `node_seconds` cost metric
//! included. Chaos interoperates: a crashed
//! pool member retires and the controller replaces it on its next tick.
//!
//! The property tests push the same claims through random scale policies,
//! cold-start latencies, and burst shapes.

use proptest::prelude::*;
use sod::net::MS;
use sod::preprocess::preprocess_sod;
use sod::runtime::NodeConfig;
use sod::scenario::{Chaos, Fleet, Plan, Pool, Scenario, When};
use sod::vm::value::Value;
use sod::workloads::programs::fib_class;
use sod::{ArrivalSchedule, ScalePolicy, ScenarioReport};

const FLEET: usize = 60;
const BASE: usize = 1;
const MAX: usize = 8;

/// The reference elastic fleet: Fib(14) bursts on two edges offloading
/// onto an autoscaled worker pool, with CPU contention on so co-located
/// sessions actually queue.
fn elastic_fleet(arrival_seed: u64, policy: ScalePolicy) -> ScenarioReport {
    let class = preprocess_sod(&fib_class()).expect("preprocess fib");
    Scenario::new()
        .slice_ns(10_000)
        .cpu_contention(true)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&class)
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&class)
        .pool(
            Pool::new("workers")
                .base(BASE)
                .max(MAX)
                .scale_policy(policy)
                .cold_start(2 * MS),
        )
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(14)])
                .programs(FLEET)
                .across(&["edge0", "edge1"])
                .arrivals(
                    ArrivalSchedule::bursty(20, 15 * MS).with_jitter(MS),
                    arrival_seed,
                )
                .migrate(When::OnCpuSliceBudget(3), Plan::top_to("workers", 1)),
        )
        .run()
        .expect("elastic fleet runs")
}

fn reference() -> ScenarioReport {
    elastic_fleet(42, ScalePolicy::QueueDepth { high: 2, low: 1 })
}

/// Invariants every elastic run must satisfy: all programs terminated,
/// the pool respected its bounds, retirement drained the pool back to
/// base, and the cost metric covers every node that ever lived.
fn assert_elastic_invariants(label: &str, r: &ScenarioReport) {
    let cl = &r.cluster;
    assert_eq!(
        cl.completed + cl.failed,
        cl.launched,
        "{label}: every program must complete or fail typed"
    );
    assert_eq!(cl.pools.len(), 1, "{label}: one pool declared");
    let pool = &cl.pools[0];
    assert_eq!(pool.name, "workers", "{label}");
    assert!(
        pool.peak <= MAX as u64,
        "{label}: peak {} exceeds max {MAX}",
        pool.peak
    );
    assert_eq!(
        pool.final_size, BASE as u64,
        "{label}: the pool must drain back to base once the fleet is done"
    );
    // Every node that ever existed — declared, base, or spawned — has a
    // per-node row, and each spawned member accounts node lifetime.
    assert_eq!(
        cl.per_node.len() as u64,
        2 + BASE as u64 + pool.spawns,
        "{label}: per-node rows must cover spawned members"
    );
    assert!(cl.node_ns > 0, "{label}: node-seconds must accrue");
    for n in &cl.per_node {
        assert!(
            n.busy_ns <= n.lifetime_ns,
            "{label}: node {} busier than it was alive",
            n.name
        );
    }
}

#[test]
fn same_seed_replays_bit_identically() {
    let a = reference();
    let b = reference();
    assert_eq!(
        a, b,
        "same arrival seed must reproduce the full report, scaling included"
    );
    assert_eq!(a.cluster.pools, b.cluster.pools);
    assert_elastic_invariants("reference", &a);

    // The burst actually forced the pool open and back shut.
    let pool = &a.cluster.pools[0];
    assert!(pool.spawns > 0, "the burst must scale the pool out");
    assert!(pool.drains > 0, "cool-down must drain members back");
    assert!(
        pool.peak > BASE as u64,
        "peak size must exceed base during the burst"
    );
    assert_eq!(a.cluster.completed, FLEET as u64);
    assert_eq!(a.cluster.failed, 0);
}

#[test]
fn different_seed_diverges() {
    let a = reference();
    let b = elastic_fleet(43, ScalePolicy::QueueDepth { high: 2, low: 1 });
    assert_ne!(a, b, "a different arrival seed must perturb the run");
    assert_elastic_invariants("reseeded", &b);
}

/// Chaos interop: crash an initial pool member mid-burst. The member
/// retires permanently; the controller's next tick tops the pool back up
/// to base, and the run still terminates with a replayable report.
#[test]
fn crashed_pool_member_is_replaced() {
    let run = || {
        let class = preprocess_sod(&fib_class()).expect("preprocess fib");
        Scenario::new()
            .slice_ns(10_000)
            .cpu_contention(true)
            .node("edge0", NodeConfig::cluster("edge0"))
            .deploys(&class)
            .node("edge1", NodeConfig::cluster("edge1"))
            .deploys(&class)
            .pool(Pool::new("workers").base(2).max(6).cold_start(MS))
            .fleet(
                Fleet::new("Fib", "main", vec![Value::Int(14)])
                    .programs(30)
                    .across(&["edge0", "edge1"])
                    .arrivals(ArrivalSchedule::bursty(15, 10 * MS).with_jitter(MS), 42)
                    .migrate(When::OnCpuSliceBudget(3), Plan::top_to("workers", 1)),
            )
            .chaos(Chaos::new().seed(5).crash_at(8 * MS, "workers-0"))
            .run()
            .expect("chaotic elastic fleet runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "chaos + elastic must replay bit-identically");

    let cl = &a.cluster;
    assert_eq!(cl.chaos.crashes, 1, "the member crash fired");
    assert_eq!(
        cl.completed + cl.failed,
        cl.launched,
        "crash recovery must leave no hangs"
    );
    let pool = &cl.pools[0];
    assert!(
        pool.spawns > 0,
        "the controller must spawn a replacement for the crashed member"
    );
    assert_eq!(
        pool.final_size, 2,
        "the pool must end at base despite losing a member"
    );
}

// ---------------------------------------------------------------------------
// Property tests: random policies, cold starts, and burst shapes.
// ---------------------------------------------------------------------------

fn random_elastic_fleet(
    policy_sel: u8,
    knob: u64,
    cold_start_us: u64,
    burst: usize,
    programs: usize,
    seed: u64,
) -> ScenarioReport {
    let policy = match policy_sel % 3 {
        0 => ScalePolicy::QueueDepth {
            high: 1 + knob % 4,
            low: 1,
        },
        1 => ScalePolicy::P99Breach {
            budget_ns: (1 + knob % 20) * MS,
        },
        _ => ScalePolicy::StepLoad {
            per_node: 1 + knob % 4,
        },
    };
    let class = preprocess_sod(&fib_class()).expect("preprocess fib");
    Scenario::new()
        .slice_ns(10_000)
        .cpu_contention(true)
        .node("edge", NodeConfig::cluster("edge"))
        .deploys(&class)
        .pool(
            Pool::new("workers")
                .base(1)
                .max(6)
                .scale_policy(policy)
                .cold_start(cold_start_us * 1_000),
        )
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(12)])
                .programs(programs)
                .arrivals(ArrivalSchedule::bursty(burst, 8 * MS).with_jitter(MS), seed)
                .migrate(When::OnCpuSliceBudget(2), Plan::top_to("workers", 1)),
        )
        .run()
        .expect("random elastic fleet runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_policies_terminate_and_replay(
        policy_sel in 0u8..3,
        knob in 0u64..100,
        cold_start_us in 0u64..5_000,
        burst in 1usize..20,
        programs in 1usize..41,
        seed in 0u64..1_000_000,
    ) {
        let run = || random_elastic_fleet(
            policy_sel, knob, cold_start_us, burst, programs, seed,
        );
        let first = run();

        // Same seed ⇒ bit-identical replay, scaling counters included.
        let again = run();
        prop_assert_eq!(&first, &again, "elastic replay diverged");

        // Termination and pool bounds, for an arbitrary policy.
        let cl = &first.cluster;
        prop_assert_eq!(cl.completed, programs as u64);
        prop_assert_eq!(cl.failed, 0);
        let pool = &cl.pools[0];
        prop_assert!(pool.peak <= 6, "peak {} exceeds max", pool.peak);
        prop_assert!(pool.min >= 1, "live size dipped below base without chaos");
        prop_assert_eq!(pool.final_size, 1, "pool must drain back to base");
        prop_assert_eq!(
            cl.per_node.len() as u64,
            2 + pool.spawns,
            "per-node rows must cover spawned members"
        );
    }
}
