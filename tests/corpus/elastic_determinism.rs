//! Autoscaling is deterministic, under the test names this suite has long
//! had: controller ticks, cold starts, scale-out and drains are a pure
//! function of the scenario and seed, pool counters and node-seconds
//! included. A burst opens the pool and the cool-down drains it; with CPU
//! contention no node is busier than it was alive; a crashed member is
//! replaced.

use crate::{self as corpus, report};
use proptest::prelude::*;

/// Node-seconds accrue, and no node is busier than it was alive.
fn assert_contended(r: &sod::ScenarioReport) {
    assert!(r.cluster.node_ns > 0);
    for n in &r.cluster.per_node {
        assert!(n.busy_ns <= n.lifetime_ns, "{} busier than alive", n.name);
    }
}

#[test]
fn same_seed_replays_bit_identically() {
    let r = report("pool_queue_depth");
    assert_contended(r);
    let pool = &r.cluster.pools[0];
    assert!(
        pool.spawns > 0 && pool.drains > 0 && pool.peak > 1,
        "{pool:?}"
    );
    assert_eq!((r.cluster.completed, r.cluster.failed), (60, 0));
}

#[test]
fn different_seed_diverges() {
    let (r, moved) = corpus::reseeded("pool_queue_depth", 43);
    assert!(moved, "a different arrival seed must perturb the run");
    assert_contended(&r);
}

/// A member crashed mid-burst retires; the controller's next tick tops the
/// pool back up.
#[test]
fn crashed_pool_member_is_replaced() {
    let cl = &report("pool_crashed_member").cluster;
    assert_eq!(cl.chaos.crashes, 1);
    assert!(cl.pools[0].spawns > 0, "a replacement is spawned");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random policies, cold starts and bursts end, replay, match the
    /// reference VM, serve every program and never dip below base.
    #[test]
    fn random_policies_terminate_and_replay(
        policy in 0u8..3,
        knob in 0u64..100,
        cold_start_us in 0u64..5_000,
        burst in 1usize..20,
        programs in 1usize..41,
        seed in 0u64..1_000_000,
    ) {
        let r = corpus::relations("random pool", || {
            corpus::random_pool(policy, knob, cold_start_us, burst, programs, seed)
        });
        prop_assert_eq!(r.cluster.completed, programs as u64);
        prop_assert!(r.cluster.pools[0].min >= 1, "live size dipped below base");
    }
}
