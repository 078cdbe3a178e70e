//! Equivalence: a `Scenario`-built run must produce a byte-identical
//! `RunReport` — result, timings, fault counts, byte counts — to the
//! legacy manual wiring (`Node` + `Cluster` + `SodSim`) it replaces.
//!
//! This is the only place outside `sod-runtime` that is allowed to wire
//! `Cluster::new`/`SodSim::new` by hand: it pins the builder to the
//! engine, event for event.

use sod::asm::builder::ClassBuilder;
use sod::net::{Topology, MS};
use sod::preprocess::preprocess_sod;
use sod::runtime::engine::{Cluster, SodSim};
use sod::runtime::metrics::RunReport;
use sod::runtime::msg::MigrationPlan;
use sod::runtime::node::{Node, NodeConfig};
use sod::scenario::{Plan, Scenario, When};
use sod::vm::class::ClassDef;
use sod::vm::instr::Cmp;
use sod::vm::value::Value;

/// The quickstart program: `work(n)` sums 0..n, `main(n)` calls it.
fn quickstart_class() -> ClassDef {
    let c = ClassBuilder::new("App")
        .method("work", &["n"], |m| {
            m.line();
            m.pushi(0).store("acc");
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("n").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("acc").load("i").add().store("acc");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("acc").retv();
        })
        .method("main", &["n"], |m| {
            m.line();
            m.load("n").invoke("App", "work", 1).store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .unwrap();
    preprocess_sod(&c).unwrap()
}

const N: i64 = 2_000_000;

/// Legacy wiring: three cluster nodes, one program, one plan at 2 ms.
fn legacy_run(class: &ClassDef, plan: MigrationPlan) -> RunReport {
    let mut home = Node::new(NodeConfig::cluster("home"));
    home.deploy(class).unwrap();
    let n1 = Node::new(NodeConfig::cluster("n1"));
    let n2 = Node::new(NodeConfig::cluster("n2"));
    let mut cluster = Cluster::new(vec![home, n1, n2]);
    let pid = cluster.add_program(0, "App", "main", vec![Value::Int(N)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(3));
    sim.start_program(0, pid);
    sim.migrate(pid, When::At(2 * MS), plan);
    sim.run();
    assert_eq!(sim.program(pid).error(), None);
    sim.report(pid).clone()
}

/// The same experiment through the builder.
fn scenario_run(class: &ClassDef, plan: Plan) -> RunReport {
    Scenario::new()
        .node("home", NodeConfig::cluster("home"))
        .deploys(class)
        .node("n1", NodeConfig::cluster("n1"))
        .node("n2", NodeConfig::cluster("n2"))
        .program("App", "main", vec![Value::Int(N)])
        .on("home")
        .migrate(When::At(2 * MS), plan)
        .run()
        .unwrap()
        .first()
        .clone()
}

#[test]
fn quickstart_scenario_is_byte_identical_to_manual_wiring() {
    let class = quickstart_class();
    let legacy = legacy_run(&class, MigrationPlan::top_to(1, 1));
    let built = scenario_run(&class, Plan::top_to("n1", 1));
    // `RunReport` derives full `PartialEq`: result, instruction counts,
    // every migration timing, fault/byte counters, stack height.
    assert_eq!(legacy, built);
    assert_eq!(legacy.result, Some((0..N).sum::<i64>()));
    assert_eq!(legacy.migrations.len(), 1);
}

#[test]
fn workflow_scenario_is_byte_identical_to_manual_wiring() {
    let class = quickstart_class();
    // Fig. 1c: top frame to n1, residual stack to n2.
    let legacy = legacy_run(&class, MigrationPlan::chain(&[(1, 1), (2, 8)]));
    let built = scenario_run(&class, Plan::chain(&[("n1", 1), ("n2", 8)]));
    assert_eq!(legacy, built);
    assert_eq!(legacy.result, Some((0..N).sum::<i64>()));
    assert_eq!(legacy.migrations.len(), 2);
}

#[test]
fn no_migration_scenario_is_byte_identical_to_manual_wiring() {
    let class = quickstart_class();
    let legacy = {
        let mut home = Node::new(NodeConfig::cluster("home"));
        home.deploy(&class).unwrap();
        let worker = Node::new(NodeConfig::cluster("worker"));
        let mut cluster = Cluster::new(vec![home, worker]);
        let pid = cluster.add_program(0, "App", "main", vec![Value::Int(N)]);
        let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
        sim.start_program(0, pid);
        sim.run();
        sim.report(pid).clone()
    };
    let built = Scenario::new()
        .node("home", NodeConfig::cluster("home"))
        .deploys(&class)
        .node("worker", NodeConfig::cluster("worker"))
        .program("App", "main", vec![Value::Int(N)])
        .run()
        .unwrap()
        .first()
        .clone();
    assert_eq!(legacy, built);
    assert!(legacy.migrations.is_empty());
}
