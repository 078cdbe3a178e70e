//! The `codecache` ablation: code-shipping policies on a warm-worker fleet.
//!
//! Not a paper table — the paper ships the top frame's class with *every*
//! migration — but the measurement behind this repo's cache-aware
//! code-shipping layer: a fleet of identical requests round-robins over
//! two edge nodes and offloads its compute frame to one shared cloud
//! node, so after the first few migrations the cloud provably holds every
//! class the workload can ship. The ablation sweeps
//! [`sod::CodeShipping`]:
//!
//! * `BundleAlways` — the pre-cache baseline (top class with every state);
//! * `BundleTop` — top class unless the peer cache proves it redundant;
//! * `BundleReachable` — the static class closure, peer-cache filtered;
//! * `Never` — everything on demand.
//!
//! Rows report total class/state/object bytes on the wire (from the
//! per-node [`sod::NetBytes`] breakdown), on-demand class requests, and
//! latency — with identical program results across all policies.

use std::fmt::Write as _;

use sod::net::{ns_to_ms_string, MS};
use sod::preprocess::preprocess_sod;
use sod::runtime::NodeConfig;
use sod::scenario::{Fleet, Plan, Scenario, When};
use sod::vm::value::Value;
use sod::workloads::programs::{handler_fleet_classes, handler_fleet_expected};
use sod::{ArrivalSchedule, ClusterReport, CodeShipping};

/// Fleet size of the shipped ablation (enough round-robin repeats that
/// warm-worker redundancy dominates the class traffic).
pub const CODECACHE_FLEET: usize = 40;
/// Per-request problem size (`Gateway.main(n)`).
pub const CODECACHE_N: i64 = 5_000;
/// Arrival-jitter seed (runs are deterministic per seed).
pub const CODECACHE_SEED: u64 = 17;

/// The sweep order: baseline first, then the cache-aware policies.
pub const POLICIES: [CodeShipping; 4] = [
    CodeShipping::BundleAlways,
    CodeShipping::BundleTop,
    CodeShipping::BundleReachable,
    CodeShipping::Never,
];

/// One finished ablation row.
#[derive(Clone, Debug)]
pub struct CodecacheRow {
    pub cluster: ClusterReport,
    /// Sum of `RunReport::classes_shipped` (on-demand class requests).
    pub on_demand_classes: u64,
    /// Programs whose result matched the expected handler output.
    pub correct: usize,
}

/// Run the warm-worker fleet under one code-shipping policy.
pub fn run_codecache_fleet(policy: CodeShipping, programs: usize, seed: u64) -> CodecacheRow {
    let classes: Vec<_> = handler_fleet_classes()
        .iter()
        .map(|c| preprocess_sod(c).expect("preprocess handler class"))
        .collect();
    // Both edges hold the full application; the cloud starts cold and
    // warms up as the round-robin fleet keeps offloading to it.
    let report = {
        // 10 µs slices so the 2-slice CPU budget trips mid-kernel.
        let mut sc = Scenario::new()
            .slice_ns(10_000)
            .code_shipping(policy)
            .node("edge0", NodeConfig::cluster("edge0"));
        for c in &classes {
            sc = sc.deploys(c);
        }
        sc = sc.node("edge1", NodeConfig::cluster("edge1"));
        for c in &classes {
            sc = sc.deploys(c);
        }
        sc.node("cloud", NodeConfig::cloud("cloud"))
            .fleet(
                Fleet::new("Gateway", "main", vec![Value::Int(CODECACHE_N)])
                    .programs(programs)
                    .across(&["edge0", "edge1"])
                    .arrivals(ArrivalSchedule::uniform(2 * MS).with_jitter(MS), seed)
                    .migrate(When::OnCpuSliceBudget(2), Plan::top_to("cloud", 1)),
            )
            .run()
            .expect("codecache fleet runs")
    };
    let expected = handler_fleet_expected(CODECACHE_N);
    let correct = report
        .programs()
        .iter()
        .filter(|p| p.report.result == Some(expected))
        .count();
    let on_demand_classes = report
        .programs()
        .iter()
        .map(|p| p.report.classes_shipped)
        .sum();
    CodecacheRow {
        cluster: report.cluster.clone(),
        on_demand_classes,
        correct,
    }
}

/// The shipped ablation (one row per policy) as a table (simulates it).
pub fn codecache_table() -> String {
    let mut out = String::from(
        "TABLE CODECACHE. CODE-SHIPPING ABLATION (warm-worker fleet; bytes on the wire)\n\
         policy          class(B)  ondemand state(B)  object(B) p50(ms)  makespan(ms) ok\n",
    );
    for policy in POLICIES {
        let r = run_codecache_fleet(policy, CODECACHE_FLEET, CODECACHE_SEED);
        let sent = r.cluster.total_sent();
        let _ = writeln!(
            out,
            "{:<15} {:<9} {:<8} {:<9} {:<9} {:<8} {:<12} {}/{}",
            format!("{policy:?}"),
            sent.class,
            r.on_demand_classes,
            sent.state,
            sent.object,
            ns_to_ms_string(r.cluster.p50_latency_ns),
            ns_to_ms_string(r.cluster.makespan_ns),
            r.correct,
            r.cluster.launched,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_aware_bundling_ships_strictly_fewer_class_bytes() {
        let small = 12;
        let always = run_codecache_fleet(CodeShipping::BundleAlways, small, CODECACHE_SEED);
        let top = run_codecache_fleet(CodeShipping::BundleTop, small, CODECACHE_SEED);
        let a = always.cluster.total_sent().class;
        let t = top.cluster.total_sent().class;
        assert!(
            t < a,
            "peer tracking must beat always-bundle on a warm fleet ({t} vs {a})"
        );
        // The acceptance bar: identical results, every request served.
        assert_eq!(always.correct, small);
        assert_eq!(top.correct, small);
        assert_eq!(always.cluster.failed, 0);
        assert_eq!(top.cluster.failed, 0);
    }
}
