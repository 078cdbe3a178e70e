//! A node holds only the work in flight on it. Finished sessions and
//! threads are reclaimed where they finish — the session leaves its node's
//! map, the thread's owner entry goes, its slot is released for the next
//! spawn or restore — so memory, and the contention count that walks a
//! node's threads once per slice, follow what is running, not everything
//! the node ever ran.
//!
//! What this suite still checks itself: a lossy, retrying, scaling run
//! loses shipped state and ends with every program's value, and a node's
//! thread table does not grow with the programs it has run. That nothing
//! is left at idle and that the byte ledger closes, `Scenario::run` checks
//! after every run (`SodSim::check_idle`).
//!
//! The fleet is the repo benchmark's `stack-churn` shape at test size:
//! whole stacks of a recursive guest migrate to an autoscaled pool under
//! message loss with retries, CPU contention on.

use sod_net::MS;
use sod_runtime::{NodeConfig, RetryPolicy, ScalePolicy};
use sod_vm::value::Value;

mod common;
use common::deep_class;
use sod::scenario::{Chaos, Fleet, Plan, Pool, Scenario, When};
use sod::{ArrivalSchedule, ScenarioReport};

/// Recursion depth: a 33-frame stack, deep enough that its value stack
/// outgrows a spawn's and is kept for the next tenant of its slot.
const DEPTH: i64 = 32;

/// What a run leaves behind: its report and the length of every node's
/// thread table.
struct Run {
    report: ScenarioReport,
    table_lens: Vec<usize>,
}

/// `programs` stack-churn programs arriving 20 per 15 ms burst, lossy
/// (`loss_permille`) with up to three shipping attempts.
fn churn(programs: usize, loss_permille: u32) -> Run {
    let class = deep_class();
    let mut table_lens = Vec::new();
    let report = Scenario::new()
        .slice_ns(2_000)
        .cpu_contention(true)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&class)
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&class)
        .pool(
            Pool::new("workers")
                .base(1)
                .max(8)
                .scale_policy(ScalePolicy::QueueDepth { high: 2, low: 1 })
                .cold_start(2 * MS),
        )
        .fleet(
            Fleet::new("Deep", "down", vec![Value::Int(DEPTH), Value::Int(400)])
                .programs(programs)
                .across(&["edge0", "edge1"])
                .arrivals(ArrivalSchedule::bursty(20, 15 * MS).with_jitter(MS), 42)
                .migrate(When::OnCpuSliceBudget(3), Plan::whole_stack_to("workers")),
        )
        .chaos(
            Chaos::new()
                .seed(5)
                .loss(loss_permille)
                .retry(RetryPolicy::Retry { max_attempts: 3 }),
        )
        .run_with(|sim| {
            sim.run();
            let nodes = &sim.sim.world.nodes;
            table_lens = nodes.iter().map(|n| n.vm.threads.len()).collect();
        })
        .expect("fleet runs, and leaves nothing behind");
    for p in report.programs() {
        assert_eq!(p.error, None, "{}", p.name);
        assert_eq!(p.report.result, Some(DEPTH + 1), "{}", p.name);
    }
    Run { report, table_lens }
}

#[test]
fn at_idle_no_node_holds_anything_of_the_work_it_ran() {
    let run = churn(300, 30);
    let c = &run.report.cluster;
    assert!(c.chaos.dropped_msgs > 0, "nothing was dropped");
    assert!(c.chaos.retries > 0, "no migration was retried");
    assert!(c.pools[0].spawns > 0, "the pool never scaled out");
    assert!(c.total_lost().state > 0, "no shipped state was lost");
}

/// A node's thread table is as long as the most threads it ever held at
/// once, so ten times the programs at the same arrival rate leave every
/// table as it was — and the contention count, which visits a node's
/// threads in flight once per slice, visits no more than that.
#[test]
fn thread_tables_do_not_grow_with_the_programs_a_node_has_run() {
    let short = churn(200, 0);
    let long = churn(2_000, 0);
    // The two edges and the pool's base member live through either run;
    // the members a burst spawns retire after it.
    assert_eq!(short.table_lens[..3], long.table_lens[..3]);
    let longest = |run: &Run| run.table_lens.iter().copied().max();
    assert_eq!(longest(&short), longest(&long));
    assert!(longest(&long) < Some(40), "{:?}", long.table_lens);
}
