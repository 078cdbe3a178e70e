//! Same-seed replay, under the test names this suite has long had (from
//! when the simulator had two event queues). Each test asserts facts of
//! corpus rows (`corpus.rs`), which runs every row's relations.

use crate::{self as corpus, committed, field, outcome, report};
use proptest::prelude::*;

#[test]
fn single_migration_is_scheduler_equivalent() {
    assert_eq!(outcome(report("single_migration")), (Some(987), 1));
}

#[test]
fn chained_segments_are_scheduler_equivalent() {
    assert_eq!(outcome(report("chain")), (Some(987), 2));
}

#[test]
fn whole_stack_migration_is_scheduler_equivalent() {
    assert_eq!(outcome(report("whole_stack")), (Some(987), 2));
}

#[test]
fn roaming_over_wan_grid_is_scheduler_equivalent() {
    assert_eq!(outcome(report("roaming")), (Some(3), 3));
}

#[test]
fn on_oom_offload_is_scheduler_equivalent() {
    assert_eq!(outcome(report("on_oom")), (Some(2_000_000), 1));
}

#[test]
fn every_arrival_schedule_is_scheduler_equivalent() {
    for r in [
        report("arrivals_uniform"),
        report("arrivals_bursty"),
        report("arrivals_ramp"),
    ] {
        assert_eq!(r.cluster.completed, 40);
        assert!(r.cluster.p50_latency_ns > 0);
    }
}

/// Shipping policy changes transfers, never results.
#[test]
fn every_code_shipping_policy_is_scheduler_equivalent() {
    for r in [
        report("shipping_top"),
        report("shipping_always"),
        report("shipping_reachable"),
        report("shipping_never"),
    ] {
        assert_eq!(r.cluster.completed, 30);
        assert!(r.programs().iter().all(|p| p.report.result == Some(987)));
    }
}

#[test]
fn client_requests_are_scheduler_equivalent() {
    assert_eq!(outcome(report("client_requests")), (Some(5), 0));
}

/// Per-node event counts are part of every `==`; a fleet's are not zero.
#[test]
fn per_node_event_counts_are_populated_and_equal() {
    for name in ["arrivals_uniform", "arrivals_bursty", "arrivals_ramp"] {
        let events = field(committed(name), "events");
        assert!(events.split(',').all(|n| !n.ends_with(":0")), "{name}");
    }
}

/// The single migration's exact per-node deliveries: a change to routing
/// or tie-breaking that moves one delivery trips this by name.
#[test]
fn per_node_event_counts_are_pinned_across_schedulers() {
    let events = field(committed("single_migration"), "events");
    assert_eq!(events, "home:15,worker:5");
}

/// Under loss, a partition and a crash, every program still ends.
#[test]
fn chaos_profiles_are_scheduler_equivalent() {
    for name in ["chaos_fallback", "chaos_retry"] {
        let cl = &report(name).cluster;
        assert_eq!((cl.launched, cl.completed + cl.failed), (60, 60), "{name}");
    }
}

#[test]
fn elastic_pools_are_scheduler_equivalent() {
    for r in [report("pool_p99"), report("pool_step_load")] {
        assert_eq!(r.cluster.completed, 60);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random fleets (2–16 nodes, up to 300 programs) replay, compute
    /// Fib(12) = 144 everywhere and lose nothing.
    #[test]
    fn random_fleets_are_scheduler_equivalent(
        nodes in 2usize..17,
        programs in 1usize..301,
        trigger in 0u8..4,
        schedule in 0u8..3,
        latency_us in 10u64..2_000,
        seed in 0u64..1_000_000,
    ) {
        let build = || corpus::random_fleet(nodes, programs, trigger, schedule, latency_us, seed);
        let (r, _) = corpus::stepped("random fleet", build());
        prop_assert_eq!(&r, &build().run().expect("random fleet runs"));
        prop_assert_eq!(r.cluster.completed, programs as u64);
        prop_assert!(r.programs().iter().all(|p| p.report.result == Some(144)));
        prop_assert_eq!(r.cluster.total_lost(), sod::NetBytes::default());
    }
}
