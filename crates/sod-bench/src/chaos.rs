//! The `chaos` sweep: fault tolerance under seeded message loss.
//!
//! Not a paper table — the paper's testbed never drops a packet — but the
//! measurement behind this repo's fault-injection harness: the reference
//! chaos fleet (Fib requests bursting on two edges, offloading to a shared
//! cloud node) runs under increasing seeded loss rates and both
//! [`sod::RetryPolicy`]s, and every row reports what the deadline
//! machinery did about it: drops, timeouts, retries, fallbacks, failed
//! programs, and lost bytes. Because the chaos layer is deterministic, the
//! sweep is a pure function of its constants — rerunning it reproduces
//! every row bit for bit.

use std::fmt::Write as _;

use sod::net::{ns_to_ms_string, MS};
use sod::preprocess::preprocess_sod;
use sod::runtime::NodeConfig;
use sod::scenario::{Chaos, Fleet, Plan, Scenario, When};
use sod::vm::value::Value;
use sod::workloads::programs::fib_class;
use sod::{ArrivalSchedule, ClusterReport, RetryPolicy};

/// Fleet size of the shipped sweep (enough migrations that a few-percent
/// loss rate reliably strands some episodes).
pub const CHAOS_FLEET: usize = 40;
/// Arrival seed (rows are deterministic per seed pair).
pub const CHAOS_ARRIVAL_SEED: u64 = 42;
/// Chaos seed driving the loss stream.
pub const CHAOS_SEED: u64 = 7;

/// The swept loss rates, in permille (0 = the fault-free baseline row).
pub const LOSS_RATES: [u32; 4] = [0, 20, 50, 100];
/// The swept recovery policies.
pub const POLICIES: [RetryPolicy; 2] = [
    RetryPolicy::FallbackToHome,
    RetryPolicy::Retry { max_attempts: 3 },
];

/// One finished sweep row.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    pub cluster: ClusterReport,
    /// Programs that finished with the correct Fib result.
    pub correct: usize,
}

/// Run the reference chaos fleet under one (loss rate, policy) cell.
pub fn run_chaos_fleet(loss_permille: u32, policy: RetryPolicy, programs: usize) -> ChaosRow {
    let class = preprocess_sod(&fib_class()).expect("preprocess fib");
    let report = Scenario::new()
        // 10 µs slices: Fib(14) spans many slices, so the 3-slice CPU
        // budget below trips on every request.
        .slice_ns(10_000)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&class)
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&class)
        .node("cloud", NodeConfig::cloud("cloud"))
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(14)])
                .programs(programs)
                .across(&["edge0", "edge1"])
                .arrivals(
                    ArrivalSchedule::bursty(20, 15 * MS).with_jitter(MS),
                    CHAOS_ARRIVAL_SEED,
                )
                .migrate(When::OnCpuSliceBudget(3), Plan::top_to("cloud", 1)),
        )
        .chaos(
            Chaos::new()
                .seed(CHAOS_SEED)
                .loss(loss_permille)
                .retry(policy),
        )
        .run()
        .expect("chaos fleet runs (failures are recorded, not fatal)");
    let correct = report
        .programs()
        .iter()
        .filter(|p| p.report.result == Some(377))
        .count();
    ChaosRow {
        cluster: report.cluster.clone(),
        correct,
    }
}

fn policy_name(p: RetryPolicy) -> String {
    match p {
        RetryPolicy::FallbackToHome => "FallbackToHome".into(),
        RetryPolicy::Retry { max_attempts } => format!("Retry({max_attempts})"),
    }
}

/// The shipped sweep (loss rate × policy) as a table (simulates it).
pub fn chaos_table() -> String {
    let mut out = String::from(
        "TABLE CHAOS. FAULT-TOLERANCE SWEEP (seeded loss x recovery policy)\n\
         policy          loss(permille) ok     dropped timeouts retries fallbacks lost(B) p50(ms)  makespan(ms)\n",
    );
    for policy in POLICIES {
        for loss in LOSS_RATES {
            let r = run_chaos_fleet(loss, policy, CHAOS_FLEET);
            let ch = &r.cluster.chaos;
            let _ = writeln!(
                out,
                "{:<15} {:<14} {:<6} {:<7} {:<8} {:<7} {:<9} {:<7} {:<8} {}",
                policy_name(policy),
                loss,
                format!("{}/{}", r.correct, r.cluster.launched),
                ch.dropped_msgs,
                ch.timeouts,
                ch.retries,
                ch.fallbacks,
                r.cluster.total_lost().total(),
                ns_to_ms_string(r.cluster.p50_latency_ns),
                ns_to_ms_string(r.cluster.makespan_ns),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_exercises_the_recovery_machinery() {
        let small = 12;
        let clean = run_chaos_fleet(0, RetryPolicy::FallbackToHome, small);
        assert_eq!(clean.cluster.chaos.dropped_msgs, 0, "no loss, no drops");
        assert_eq!(clean.correct, small, "fault-free baseline serves everyone");

        let lossy = run_chaos_fleet(100, RetryPolicy::FallbackToHome, small);
        assert!(lossy.cluster.chaos.dropped_msgs > 0, "10% loss must drop");
    }
}
