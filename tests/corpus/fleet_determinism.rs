//! Fleets are deterministic and complete, under the test names this suite
//! has long had: a 120-program fleet serves every request with ordered
//! percentiles and busy nodes, every code-shipping policy serves the same
//! work, and dropped bytes land in the `lost` bucket.

use crate::{self as corpus, committed, counts, field, report};

#[test]
fn same_seed_reproduces_the_cluster_report_exactly() {
    assert!(
        corpus::reseeded("fleet_120", 43).1,
        "the seed must shift arrivals"
    );
}

#[test]
fn hundred_plus_program_fleet_completes_with_percentiles() {
    let r = report("fleet_120");
    let cl = &r.cluster;
    assert_eq!((cl.launched, cl.completed, cl.failed), (120, 120, 0));
    let percentiles = [
        cl.p50_latency_ns,
        cl.p95_latency_ns,
        cl.p99_latency_ns,
        cl.max_latency_ns,
    ];
    assert!(
        percentiles[0] > 0 && percentiles.is_sorted(),
        "{percentiles:?}"
    );
    assert!(cl.mean_latency_ns > 0 && cl.throughput_millirps > 0 && cl.makespan_ns > 0);
    assert_eq!(cl.per_node.len(), 3);
    for n in &cl.per_node {
        assert!(
            n.slices > 0 && n.instructions > 0 && n.busy_ns > 0,
            "{} idle",
            n.name
        );
    }
    // Every request offloads once, is charged its own instructions and
    // computes Fib(16) under heavy interleaving.
    for p in r.programs() {
        assert_eq!((p.report.result, p.report.migrations.len()), (Some(987), 1));
        assert!(p.report.instructions > 0);
    }
}

/// A clean fleet loses nothing; under 8% seeded loss the dropped payloads
/// move into `lost` (`Scenario::run` checks sent = accounted + lost).
#[test]
fn dropped_bytes_land_in_the_lost_bucket_not_the_void() {
    assert_eq!(field(committed("shipping_top"), "lost"), "0/0/0");
    let r = report("fleet_lossy");
    assert!(r.cluster.chaos.dropped_msgs > 0);
    assert_ne!(r.cluster.total_lost(), sod::NetBytes::default());
}

/// Every code-shipping policy serves the fleet with the same state bytes
/// (the corpus runs their relations); the peer-tracked default ships
/// fewer class bytes than always bundling.
#[test]
fn bit_identical_under_each_code_shipping_policy() {
    let policies = [
        "shipping_top",
        "shipping_always",
        "shipping_reachable",
        "shipping_never",
    ];
    let sent = policies.map(|name| counts(name, "sent"));
    assert!(
        sent[0][1] < sent[1][1],
        "BundleTop {:?} vs BundleAlways {:?}",
        sent[0],
        sent[1]
    );
    for (name, sent) in policies.iter().zip(sent) {
        assert_eq!(field(committed(name), "done"), "30/30", "{name}");
        assert_eq!(
            sent[0],
            counts("shipping_top", "sent")[0],
            "{name}: state bytes"
        );
    }
}
