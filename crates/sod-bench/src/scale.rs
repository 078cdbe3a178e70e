//! The `scale` table: fleet-size sweep with latency percentiles.
//!
//! Not a paper table — the paper evaluates one program at a time — but the
//! ROADMAP's cloud-elasticity direction: sweep the number of concurrent
//! programs, serve them open-loop across two edge nodes with an
//! `OnCpuSliceBudget` offload policy to a shared cloud node, and report
//! nearest-rank latency percentiles, throughput, and per-node utilization
//! from the [`sod::ClusterReport`]. Every column is virtual time or a
//! count, so a sweep prints the same bytes on every host and every run.
//! The same fleet at 2 000 programs is the repo benchmark's
//! `fleet-compute` workload.

use std::fmt::Write as _;

use sod::net::{ns_to_ms_string, MS};
use sod::preprocess::preprocess_sod;
use sod::runtime::NodeConfig;
use sod::scenario::{Fleet, Plan, Scenario, When};
use sod::vm::value::Value;
use sod::workloads::programs::fib_class;
use sod::{ArrivalSchedule, ClusterReport};

/// Fleet sizes the shipped table sweeps (kept cheap: tier-1 runs it).
pub const SCALE_SWEEP: [usize; 3] = [10, 100, 500];
/// Seed for the sweep's arrival jitter (any fixed value works; runs are
/// deterministic per seed).
pub const SCALE_SEED: u64 = 42;

/// Run one fleet of `programs` Fib(16) requests and aggregate it.
pub fn run_scale_fleet(programs: usize, seed: u64) -> ClusterReport {
    let class = preprocess_sod(&fib_class()).expect("preprocess fib");
    let report = Scenario::new()
        // 10 µs slices so the 3-slice CPU budget trips mid-computation.
        .slice_ns(10_000)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&class)
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&class)
        .node("cloud", NodeConfig::cloud("cloud"))
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(16)])
                .programs(programs)
                .across(&["edge0", "edge1"])
                .arrivals(ArrivalSchedule::uniform(2 * MS).with_jitter(MS), seed)
                .migrate(When::OnCpuSliceBudget(3), Plan::top_to("cloud", 1)),
        )
        .run()
        .expect("scale fleet runs");
    report.cluster
}

/// The shipped sweep (10/100/500 programs) as a table (simulates it).
pub fn scale_table() -> String {
    let mut out = String::from(
        "TABLE SCALE. FLEET SWEEP (open-loop, OnCpuSliceBudget offload; \
         nearest-rank percentiles)\n\
         programs ok    fail p50(ms)  p95(ms)  p99(ms)  mean(ms) makespan(ms) req/s    cloud-instr%\n",
    );
    for programs in SCALE_SWEEP {
        let r = run_scale_fleet(programs, SCALE_SEED);
        let total_instr: u64 = r.per_node.iter().map(|u| u.instructions).sum();
        let cloud_instr = r
            .per_node
            .iter()
            .find(|u| u.name == "cloud")
            .map(|u| u.instructions)
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "{:<8} {:<5} {:<4} {:<8} {:<8} {:<8} {:<8} {:<12} {:<8.1} {:.1}",
            programs,
            r.completed,
            r.failed,
            ns_to_ms_string(r.p50_latency_ns),
            ns_to_ms_string(r.p95_latency_ns),
            ns_to_ms_string(r.p99_latency_ns),
            ns_to_ms_string(r.mean_latency_ns),
            ns_to_ms_string(r.makespan_ns),
            r.throughput_millirps as f64 / 1000.0,
            cloud_instr as f64 * 100.0 / total_instr.max(1) as f64,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_fleet_completes_and_offloads() {
        let r = run_scale_fleet(10, SCALE_SEED);
        assert_eq!(r.completed, 10);
        assert_eq!(r.failed, 0);
        assert!(r.p50_latency_ns > 0 && r.p50_latency_ns <= r.p99_latency_ns);
        let cloud = r.per_node.iter().find(|u| u.name == "cloud").unwrap();
        assert!(cloud.instructions > 0, "offload must reach the cloud");
    }
}
