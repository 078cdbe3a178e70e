//! Fleet-path determinism and scale: the multi-tenant analogue of the
//! scenario-equivalence suite's byte-identical philosophy. A fleet run is
//! a pure function of (scenario, seed) — same inputs must reproduce the
//! *entire* `ScenarioReport`, `ClusterReport` included, bit for bit — and
//! a 100+ program fleet must run to completion with every request served,
//! ordered latency percentiles (p50 ≤ p95 ≤ p99 ≤ max) and every node
//! doing work.

use sod::net::MS;
use sod::preprocess::preprocess_sod;
use sod::runtime::NodeConfig;
use sod::scenario::{Chaos, Fleet, Plan, Scenario, When};
use sod::vm::value::Value;
use sod::workloads::programs::fib_class;
use sod::{ArrivalSchedule, CodeShipping, NetBytes, ScenarioReport};

const FLEET: usize = 120;

/// Fib(16) requests arriving in three bursts with jittered offsets on
/// two edge nodes, each offloading its top frame to the shared cloud node
/// once it has burned three execution slices at home.
fn fleet_scenario_sized(seed: u64, programs: usize, shipping: CodeShipping) -> ScenarioReport {
    let class = preprocess_sod(&fib_class()).expect("preprocess fib");
    Scenario::new()
        // 10 µs slices: Fib(16) spans many slices, so the 3-slice CPU
        // budget below trips on every request.
        .slice_ns(10_000)
        .code_shipping(shipping)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&class)
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&class)
        .node("cloud", NodeConfig::cloud("cloud"))
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(16)])
                .programs(programs)
                .across(&["edge0", "edge1"])
                .arrivals(ArrivalSchedule::bursty(40, 20 * MS).with_jitter(MS), seed)
                .migrate(When::OnCpuSliceBudget(3), Plan::top_to("cloud", 1)),
        )
        .run()
        .expect("fleet runs")
}

fn fleet_scenario(seed: u64) -> ScenarioReport {
    fleet_scenario_sized(seed, FLEET, CodeShipping::default())
}

#[test]
fn same_seed_reproduces_the_cluster_report_exactly() {
    let a = fleet_scenario(42);
    let b = fleet_scenario(42);
    assert_eq!(a.cluster, b.cluster, "ClusterReports must be identical");
    assert_eq!(a, b, "full ScenarioReports must be identical");
    // A different seed shifts arrivals, which must show up in the report
    // (guards against the schedule silently ignoring the seed).
    let c = fleet_scenario(43);
    assert_ne!(a.cluster, c.cluster);
}

#[test]
fn hundred_plus_program_fleet_completes_with_percentiles() {
    let r = fleet_scenario(42);
    let cl = &r.cluster;
    assert_eq!(cl.launched, FLEET as u64);
    assert_eq!(cl.completed, FLEET as u64, "every request must complete");
    assert_eq!(cl.failed, 0);

    // Nearest-rank percentiles over real latencies: non-zero and ordered.
    assert!(cl.p50_latency_ns > 0);
    assert!(cl.p50_latency_ns <= cl.p95_latency_ns);
    assert!(cl.p95_latency_ns <= cl.p99_latency_ns);
    assert!(cl.p99_latency_ns <= cl.max_latency_ns);
    assert!(cl.mean_latency_ns > 0);
    assert!(cl.throughput_millirps > 0);
    assert!(cl.makespan_ns > 0);

    // All three nodes worked: the edges ran home slices, the cloud ran
    // the offloaded segments.
    assert_eq!(cl.per_node.len(), 3);
    for n in &cl.per_node {
        assert!(n.slices > 0, "node {} never ran a slice", n.name);
        assert!(n.instructions > 0, "node {} retired nothing", n.name);
        assert!(n.busy_ns > 0, "node {} has no busy time", n.name);
    }

    // The slice-budget trigger actually fired fleet-wide.
    let migrated = r
        .programs()
        .iter()
        .filter(|p| !p.report.migrations.is_empty())
        .count();
    assert_eq!(migrated, FLEET, "every request should offload once");
    // Per-program accounting: each report carries its own instructions,
    // not a global counter (the pre-fleet bug charged every program for
    // everyone's work); `run` checks that they partition the node totals.
    assert!(r.programs().iter().all(|p| p.report.instructions > 0));
    // Sanity: results are correct under heavy interleaving.
    assert!(r.programs().iter().all(|p| p.report.result == Some(987)));
}

/// Byte conservation with fault injection: a fault-free fleet loses
/// nothing; under seeded loss the dropped payloads move *into* `lost`
/// instead of leaking out of the ledger (`Scenario::run` checks that
/// `sent = accounted + lost` closes, per category).
#[test]
fn dropped_bytes_land_in_the_lost_bucket_not_the_void() {
    let clean = fleet_scenario_sized(42, 30, CodeShipping::default());
    let lost = clean.cluster.total_lost();
    assert_eq!(lost, NetBytes::default(), "no chaos ⇒ nothing lost");

    // Lossy: the same fleet under 8% seeded loss. Some payloads drop;
    // they must be credited to `lost`.
    let class_def = preprocess_sod(&fib_class()).expect("preprocess fib");
    let lossy = Scenario::new()
        .slice_ns(10_000)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&class_def)
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&class_def)
        .node("cloud", NodeConfig::cloud("cloud"))
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(16)])
                .programs(30)
                .across(&["edge0", "edge1"])
                .arrivals(ArrivalSchedule::bursty(40, 20 * MS).with_jitter(MS), 42)
                .migrate(When::OnCpuSliceBudget(3), Plan::top_to("cloud", 1)),
        )
        .chaos(Chaos::new().seed(5).loss(80))
        .run()
        .expect("lossy fleet runs");
    assert!(
        lossy.cluster.chaos.dropped_msgs > 0,
        "8% loss over 30 programs must drop something"
    );
    let lost = lossy.cluster.total_lost();
    assert_ne!(lost, NetBytes::default(), "drops must be credited as lost");
}

#[test]
fn bit_identical_under_each_code_shipping_policy() {
    // The cache-aware shipping layer must not cost determinism: under
    // every policy, same seed ⇒ byte-identical ScenarioReport. A smaller
    // fleet keeps the 8 runs cheap; the policies still diverge from each
    // other (different bundles ⇒ different transfer timings).
    let mut reports = Vec::new();
    for policy in [
        CodeShipping::BundleTop,
        CodeShipping::BundleAlways,
        CodeShipping::BundleReachable,
        CodeShipping::Never,
    ] {
        let a = fleet_scenario_sized(42, 30, policy);
        let b = fleet_scenario_sized(42, 30, policy);
        assert_eq!(a, b, "{policy:?} must be bit-identical per seed");
        assert_eq!(a.cluster.completed, 30, "{policy:?} must serve the fleet");
        assert!(
            a.programs().iter().all(|p| p.report.result == Some(987)),
            "{policy:?} must compute the same results"
        );
        reports.push(a);
    }
    // Warm-worker savings: the peer-tracked default ships strictly fewer
    // class bytes than the pre-cache always-bundle baseline.
    let top = reports[0].cluster.total_sent();
    let always = reports[1].cluster.total_sent();
    assert!(
        top.class < always.class,
        "BundleTop ({}) must undercut BundleAlways ({})",
        top.class,
        always.class
    );
    // Identical guest work regardless of shipping policy.
    assert_eq!(top.state, always.state);
}
