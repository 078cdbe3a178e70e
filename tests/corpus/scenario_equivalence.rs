//! The builder against the engine: a `Scenario`-built run produces the
//! `RunReport` — result, timings, fault and byte counts — of the same
//! experiment wired by hand (`Node` + `Cluster` + `SodSim`), on the
//! corpus's Fib rows (`corpus.rs`): one more relation, over the rows it
//! can build. This is the only place outside `sod-runtime` that wires
//! `Cluster::new`/`SodSim::new` by hand.

use crate as corpus;

use sod::net::{Topology, US};
use sod::runtime::engine::{Cluster, SodSim};
use sod::runtime::metrics::RunReport;
use sod::runtime::msg::MigrationPlan;
use sod::runtime::node::{Node, NodeConfig};
use sod::scenario::When;
use sod::vm::value::Value;

/// The row's run through the builder.
fn built(name: &str) -> &'static RunReport {
    corpus::report(name).first()
}

/// Fib(16) at home beside `workers`, wired by hand, moved by `plan` at
/// 50 µs: the corpus's `fib_on_home`.
fn hand_wired(workers: &[&str], plan: Option<MigrationPlan>) -> RunReport {
    let mut home = Node::new(NodeConfig::cluster("home"));
    home.deploy(&corpus::fib()).unwrap();
    let mut nodes = vec![home];
    nodes.extend(workers.iter().map(|&n| Node::new(NodeConfig::cluster(n))));
    let n = nodes.len();
    let mut cluster = Cluster::new(nodes);
    cluster.slice_ns = 10_000;
    let pid = cluster.add_program(0, "Fib", "main", vec![Value::Int(16)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(n));
    sim.start_program(0, pid);
    if let Some(plan) = plan {
        sim.migrate(pid, When::At(50 * US), plan);
    }
    sim.run();
    assert_eq!(sim.program(pid).error(), None);
    sim.report(pid).clone()
}

#[test]
fn quickstart_scenario_is_byte_identical_to_manual_wiring() {
    let wired = hand_wired(&["worker"], Some(MigrationPlan::top_to(1, 2)));
    assert_eq!(&wired, built("single_migration"));
    assert_eq!((wired.result, wired.migrations.len()), (Some(987), 1));
}

/// Fig. 1c: the top frame to w0, the next two to w1.
#[test]
fn workflow_scenario_is_byte_identical_to_manual_wiring() {
    let wired = hand_wired(&["w0", "w1"], Some(MigrationPlan::chain(&[(1, 1), (2, 2)])));
    assert_eq!(&wired, built("chain"));
    assert_eq!(wired.migrations.len(), 2);
}

/// The program a migration must not change: at home, it computes Fib(16).
#[test]
fn no_migration_scenario_is_byte_identical_to_manual_wiring() {
    let wired = hand_wired(&["worker"], None);
    assert_eq!(&wired, built("home_only"));
    assert_eq!((wired.result, wired.migrations.len()), (Some(987), 0));
}
