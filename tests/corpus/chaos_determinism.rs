//! Fault injection is deterministic, under the test names this suite has
//! long had: crashes, partitions and seeded loss are a pure function of
//! the scenario and its seeds, failure sets and chaos counters included.
//! The faults happen and are seen, and each retry policy does its part.

use crate::{self as corpus, report};
use proptest::prelude::*;

#[test]
fn same_seeds_replay_bit_identically() {
    let r = report("chaos_fallback");
    let chaos = &r.cluster.chaos;
    assert_eq!(
        (chaos.crashes, chaos.restarts, chaos.partitions, chaos.heals),
        (1, 1, 1, 1)
    );
    assert!(chaos.dropped_msgs > 0 && chaos.fallbacks > 0, "{chaos:?}");
    // The edge1 crash fails the programs homed there, with a typed error,
    // and the dropped bytes land in `lost`.
    let mut errors = r.programs().iter().filter_map(|p| p.error.as_deref());
    assert!(r.cluster.failed > 0 && errors.any(|e| e.contains("crashed")));
    assert_ne!(r.cluster.total_lost(), sod::NetBytes::default());
}

#[test]
fn different_chaos_seed_diverges() {
    assert!(
        corpus::reseeded("chaos_fallback", 8).1,
        "the loss stream must move"
    );
}

#[test]
fn retry_policy_recovers_lost_episodes() {
    let chaos = &report("chaos_retry").cluster.chaos;
    assert!(
        chaos.timeouts > 0 && chaos.retries > 0,
        "Retry re-ships: {chaos:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random fleets (2–16 nodes) under random chaos plans end, replay
    /// and match the reference VM.
    #[test]
    fn random_chaos_plans_terminate_and_replay(
        nodes in 2usize..17,
        programs in 1usize..61,
        loss in 0u32..80,
        crashes in 0usize..4,
        partition in any::<bool>(),
        retry in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        corpus::relations("random chaos", || {
            corpus::random_chaos_fleet(nodes, programs, loss, crashes, partition, retry, seed)
        });
    }
}
