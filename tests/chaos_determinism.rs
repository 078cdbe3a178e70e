//! The chaos harness contract: fault injection is *deterministic*. A
//! scenario with a `Chaos` plan — crashes, partitions, seeded loss — is a
//! pure function of (scenario, arrival seed, chaos seed): same inputs
//! reproduce the **entire** `ScenarioReport` bit for bit, failure sets
//! and chaos counters included. Different chaos seeds must perturb the
//! run, the injected faults must happen and be observed, and each retry
//! policy must do its part (re-ships under `Retry`, thaws under
//! `FallbackToHome`).
//!
//! Every run here also passes the checks `Scenario::run` applies to every
//! run (`SodSim::check_idle`): no program hangs, failures are typed, the
//! byte ledger balances with the `lost` bucket per category, and nothing
//! of the work is left on any node.
//!
//! The property tests push the same claims through random fleets (2–16
//! nodes) under random chaos plans.

use proptest::prelude::*;
use sod::net::MS;
use sod::preprocess::preprocess_sod;
use sod::runtime::{NodeConfig, RetryPolicy};
use sod::scenario::{Chaos, Fleet, Plan, Scenario, When};
use sod::vm::value::Value;
use sod::workloads::programs::fib_class;
use sod::{ArrivalSchedule, NetBytes, ScenarioReport};

const FLEET: usize = 60;

/// The reference chaos fleet: Fib(14) bursts on two edges offloading to a
/// shared cloud node, under 5% seeded loss, an edge0 ↔ cloud partition
/// window, and an edge1 crash/restart pair.
fn chaos_fleet(
    arrival_seed: u64,
    chaos_seed: u64,
    loss_permille: u32,
    policy: RetryPolicy,
) -> ScenarioReport {
    let class = preprocess_sod(&fib_class()).expect("preprocess fib");
    Scenario::new()
        .slice_ns(10_000)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&class)
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&class)
        .node("cloud", NodeConfig::cloud("cloud"))
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(14)])
                .programs(FLEET)
                .across(&["edge0", "edge1"])
                .arrivals(
                    ArrivalSchedule::bursty(20, 15 * MS).with_jitter(MS),
                    arrival_seed,
                )
                .migrate(When::OnCpuSliceBudget(3), Plan::top_to("cloud", 1)),
        )
        .chaos(
            Chaos::new()
                .seed(chaos_seed)
                .loss(loss_permille)
                .partition_at(5 * MS, "edge0", "cloud")
                .heal_at(12 * MS, "edge0", "cloud")
                .crash_at(20 * MS, "edge1")
                .restart_at(30 * MS, "edge1")
                .retry(policy),
        )
        .run()
        .expect("chaos fleet runs (fleet failures are recorded, not fatal)")
}

fn reference() -> ScenarioReport {
    chaos_fleet(42, 7, 50, RetryPolicy::FallbackToHome)
}

#[test]
fn same_seeds_replay_bit_identically() {
    let a = reference();
    let b = reference();
    assert_eq!(
        a, b,
        "same (arrival seed, chaos seed) must reproduce the full report"
    );
    // The replay includes the failure set and the chaos counters, not
    // just the happy-path aggregates.
    assert_eq!(a.cluster.chaos, b.cluster.chaos);

    // The injected faults actually happened and were observed.
    assert_eq!(a.cluster.chaos.crashes, 1);
    assert_eq!(a.cluster.chaos.restarts, 1);
    assert_eq!(a.cluster.chaos.partitions, 1);
    assert_eq!(a.cluster.chaos.heals, 1);
    assert!(
        a.cluster.chaos.dropped_msgs > 0,
        "5% loss over a 60-program fleet must drop messages"
    );
    assert!(
        a.cluster.failed > 0,
        "the edge1 crash must fail the programs homed there"
    );
    let crashed: Vec<_> = errors_of(&a);
    assert!(
        crashed.iter().any(|e| e.contains("crashed")),
        "home-crash failures must carry the typed error: {crashed:?}"
    );
    assert!(
        a.cluster.total_lost() != NetBytes::default(),
        "drops must surface in the lost bucket, not vanish"
    );
}

fn errors_of(r: &ScenarioReport) -> Vec<String> {
    r.programs()
        .iter()
        .filter_map(|p| p.error.clone())
        .collect()
}

#[test]
fn different_chaos_seed_diverges() {
    let a = reference();
    let b = chaos_fleet(42, 8, 50, RetryPolicy::FallbackToHome);
    assert_ne!(
        a, b,
        "a different chaos seed must reshuffle the loss stream"
    );
}

#[test]
fn retry_policy_recovers_lost_episodes() {
    let r = chaos_fleet(42, 7, 50, RetryPolicy::Retry { max_attempts: 3 });
    assert!(
        r.cluster.chaos.timeouts > 0,
        "5% loss must strand some migration episode past its deadline"
    );
    assert!(
        r.cluster.chaos.retries > 0,
        "the Retry policy must re-ship timed-out episodes"
    );
    // And the same run under FallbackToHome resolves the same episodes by
    // thawing the home stack instead.
    let f = reference();
    assert!(
        f.cluster.chaos.fallbacks > 0,
        "FallbackToHome must thaw timed-out episodes"
    );
}

// ---------------------------------------------------------------------------
// Property tests: random chaos plans over random fleets.
// ---------------------------------------------------------------------------

/// A random fleet under a random chaos plan: `nodes` cluster nodes,
/// scattered crash/restart pairs, a partition window between the first
/// and last node, and seeded loss.
#[allow(clippy::too_many_arguments)]
fn random_chaos_fleet(
    nodes: usize,
    programs: usize,
    loss_permille: u32,
    crashes: usize,
    partition: bool,
    policy_retry: bool,
    seed: u64,
) -> ScenarioReport {
    let class = preprocess_sod(&fib_class()).expect("preprocess fib");
    let names: Vec<String> = (0..nodes).map(|i| format!("n{i}")).collect();
    let mut scenario = Scenario::new().slice_ns(10_000);
    for name in &names {
        scenario = scenario
            .node(name.clone(), NodeConfig::cluster(name.clone()))
            .deploys(&class);
    }
    let across: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut chaos = Chaos::new()
        .seed(seed)
        .loss(loss_permille)
        .scatter_crashes(crashes, 40 * MS);
    if partition {
        chaos = chaos
            .partition_at(3 * MS, names[0].clone(), names[nodes - 1].clone())
            .heal_at(9 * MS, names[0].clone(), names[nodes - 1].clone());
    }
    if policy_retry {
        chaos = chaos.retry(RetryPolicy::Retry { max_attempts: 2 });
    }
    scenario
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(12)])
                .programs(programs)
                .across(&across)
                .arrivals(ArrivalSchedule::uniform(MS).with_jitter(MS / 2), seed)
                .migrate(
                    When::OnCpuSliceBudget(2),
                    Plan::top_to(names[nodes - 1].clone(), 1),
                ),
        )
        .chaos(chaos)
        .run()
        .expect("random chaos fleet runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_chaos_plans_terminate_and_replay(
        nodes in 2usize..17,
        programs in 1usize..61,
        loss_permille in 0u32..80,
        crashes in 0usize..4,
        partition in any::<bool>(),
        policy_retry in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        // `run` checked the run: no hangs, typed errors only, a balanced
        // byte ledger, nothing left on any node — for an arbitrary plan.
        let run = || random_chaos_fleet(
            nodes, programs, loss_permille, crashes, partition, policy_retry, seed,
        );
        // Same seed ⇒ bit-identical replay, chaos and failures included.
        prop_assert_eq!(run(), run(), "chaos replay diverged");
    }
}
