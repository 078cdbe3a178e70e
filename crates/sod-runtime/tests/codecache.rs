//! The cache-aware code-shipping layer: warm-worker migrations ship zero
//! redundant classes, and every `CodeShipping` policy computes identical
//! results while trading eager bytes against on-demand round trips. (That
//! byte accounting is conserved across the engine's protocol modules,
//! `Scenario::run` checks after every run.)

use sod::net::MS;
use sod::preprocess::preprocess_sod;
use sod::scenario::{Plan, Scenario, When};
use sod::{CodeShipping, ScenarioReport};
use sod_asm::builder::ClassBuilder;
use sod_net::SEC;
use sod_runtime::node::NodeConfig;
use sod_vm::class::ClassDef;
use sod_vm::instr::Cmp;
use sod_vm::value::{TypeOf, Value};

/// A worker-bound compute class whose `work` frame writes a heap object,
/// so migrations also exercise object faults and write-back flushes.
fn app_class() -> ClassDef {
    let c = ClassBuilder::new("App")
        .field("count", TypeOf::Int)
        .method("work", &["n", "box"], |m| {
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
            m.load("box").load("acc").putfield("count");
            m.line();
            m.load("acc").retv();
        })
        .method("main", &["n"], |m| {
            m.line();
            m.new_obj("App").store("box");
            m.line();
            m.load("n").load("box").invoke("App", "work", 2).store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .unwrap();
    preprocess_sod(&c).unwrap()
}

fn expected(n: i64) -> i64 {
    (0..n).sum::<i64>()
}

/// Two identical programs on one home, offloading to the same worker one
/// after the other — the smallest warm-worker fleet.
fn two_program_scenario(policy: CodeShipping) -> ScenarioReport {
    let class = app_class();
    let n = 1_000_000i64;
    Scenario::new()
        .code_shipping(policy)
        .node("home", NodeConfig::cluster("home"))
        .deploys(&class)
        .node("worker", NodeConfig::cluster("worker"))
        .program("App", "main", vec![Value::Int(n)])
        .migrate(When::At(MS), Plan::top_to("worker", 1))
        // The second program starts long after the first one's classes
        // landed on the worker, so its migration meets a warm peer cache.
        .program("App", "main", vec![Value::Int(n)])
        .starts_at(SEC)
        .migrate(When::At(SEC + MS), Plan::top_to("worker", 1))
        .run()
        .unwrap()
}

#[test]
fn warm_worker_remigration_ships_zero_redundant_classes() {
    let report = two_program_scenario(CodeShipping::BundleTop);
    let n = 1_000_000i64;
    for p in report.programs() {
        assert_eq!(p.report.result, Some(expected(n)));
        assert_eq!(p.report.migrations.len(), 1);
    }
    let cold = report.report(0);
    let warm = report.report(1);
    // The cold migration pays for the class once...
    assert!(
        cold.migrations[0].class_bytes > 0 || cold.classes_shipped > 0,
        "first migration must ship code somehow"
    );
    assert!(cold.class_bytes > 0);
    // ...and the warm one provably re-ships nothing.
    assert_eq!(warm.migrations[0].class_bytes, 0, "no redundant bundle");
    assert_eq!(warm.classes_shipped, 0, "no on-demand requests either");
    assert_eq!(warm.class_bytes, 0);
    // The pre-cache baseline pays the bundle both times.
    let baseline = two_program_scenario(CodeShipping::BundleAlways);
    assert!(baseline.report(1).migrations[0].class_bytes > 0);
    assert_eq!(baseline.report(1).result, Some(expected(n)));
}

/// A multi-segment plan whose segments share a destination must not
/// bundle the same class once per segment: the peer cache is credited at
/// staging time, so within one total migration every class ships at most
/// once.
#[test]
fn whole_stack_plan_bundles_each_class_once() {
    use sod::vm::wire::class_wire_bytes;
    use sod::workloads::programs::{handler_fleet_classes, handler_fleet_expected};
    let classes: Vec<_> = handler_fleet_classes()
        .iter()
        .map(|c| preprocess_sod(c).unwrap())
        .collect();
    let each_once: u64 = classes.iter().map(class_wire_bytes).sum();
    let n = 400_000i64;
    let mut sc = Scenario::new()
        .code_shipping(CodeShipping::BundleReachable)
        .node("home", NodeConfig::cluster("home"));
    for c in &classes {
        sc = sc.deploys(c);
    }
    let report = sc
        .node("worker", NodeConfig::cluster("worker"))
        .program("Gateway", "main", vec![Value::Int(n)])
        // Fig. 1b: both segments go to the worker; their reachable
        // closures overlap in Kernel and Mix.
        .migrate(When::At(MS), Plan::whole_stack_to("worker"))
        .run()
        .unwrap();
    let r = report.first();
    assert_eq!(r.result, Some(handler_fleet_expected(n)));
    assert_eq!(r.migrations.len(), 2, "both segments restore");
    let bundled: u64 = r.migrations.iter().map(|m| m.class_bytes).sum();
    assert_eq!(
        bundled, each_once,
        "overlapping closures must not re-bundle shared classes"
    );
    assert_eq!(r.classes_shipped, 0, "nothing left for the on-demand path");
}

/// A class the home repository does not hold is a *typed* program
/// failure — `ScenarioError::Program` (and `ProgramRun.error` for fleet
/// members) — not an engine panic, on both sides of the class protocol:
/// the home node's lazy load and the worker's on-demand `ClassRequest`.
#[test]
fn missing_classes_fail_the_program_not_the_engine() {
    use sod::scenario::ScenarioError;
    use sod::workloads::programs::handler_fleet_classes;
    let classes: Vec<_> = handler_fleet_classes()
        .iter()
        .map(|c| preprocess_sod(c).unwrap())
        .collect();
    let deploy_without_mix = |mut sc: Scenario| -> Scenario {
        for c in classes.iter().filter(|c| c.name != "Mix") {
            sc = sc.deploys(c);
        }
        sc
    };

    // Home side: `Kernel.work` finishes its loop at home and invokes the
    // missing `Mix` — the lazy local load fails the program.
    let err = deploy_without_mix(Scenario::new().node("home", NodeConfig::cluster("home")))
        .program("Gateway", "main", vec![Value::Int(100)])
        .run()
        .unwrap_err();
    match err {
        ScenarioError::Program { error, .. } => {
            assert!(error.contains("class not found"), "got: {error}")
        }
        other => panic!("expected a typed program failure, got {other:?}"),
    }

    // Worker side: the migrated frame requests `Mix` from a home that
    // does not have it — the `ClassRequest` endpoint fails the program
    // instead of panicking with `home node missing class`.
    let err = deploy_without_mix(Scenario::new().node("home", NodeConfig::cluster("home")))
        .node("worker", NodeConfig::cluster("worker"))
        .program("Gateway", "main", vec![Value::Int(400_000)])
        .migrate(When::At(MS), Plan::top_to("worker", 1))
        .run()
        .unwrap_err();
    match err {
        ScenarioError::Program { error, .. } => {
            assert!(error.contains("missing class"), "got: {error}")
        }
        other => panic!("expected a typed program failure, got {other:?}"),
    }
}

/// A plan whose segments all request zero frames migrates nothing: the
/// thread resumes where it stopped and the program completes normally —
/// the engine must not abort at capture (no-abort fleet semantics).
#[test]
fn zero_frame_plan_is_a_no_op_not_an_abort() {
    let class = app_class();
    let n = 100_000i64;
    let report = Scenario::new()
        .node("home", NodeConfig::cluster("home"))
        .deploys(&class)
        .node("worker", NodeConfig::cluster("worker"))
        .program("App", "main", vec![Value::Int(n)])
        .migrate(When::At(MS), Plan::top_to("worker", 0))
        .run()
        .unwrap();
    let r = report.first();
    assert_eq!(r.result, Some(expected(n)));
    assert!(r.migrations.is_empty(), "nothing must actually migrate");
}

/// A chained plan whose *lower* segment fails — its class request is
/// served by a home that cannot provide the class — must record a typed
/// failure and silently drop the surviving upper segment's return, not
/// panic the engine when that return reaches the retired session.
#[test]
fn chained_return_to_a_failed_session_is_dropped() {
    use sod::net::Topology;
    use sod::workloads::programs::handler_fleet_classes;
    use sod_runtime::engine::{Cluster, SodSim};
    use sod_runtime::{MigrationPlan, Node};
    let classes: Vec<_> = handler_fleet_classes()
        .iter()
        .map(|c| preprocess_sod(c).unwrap())
        .collect();
    let mut home = Node::new(NodeConfig::cluster("home"));
    // Load everything into the home VM but publish only Kernel and Mix in
    // the repository: Gateway runs at home yet can never be served out.
    for c in &classes {
        home.vm.load_class(c).unwrap();
        if c.name != "Gateway" {
            home.stage(c);
        }
    }
    let w1 = Node::new(NodeConfig::cluster("w1"));
    let w2 = Node::new(NodeConfig::cluster("w2"));
    let mut cluster = Cluster::new(vec![home, w1, w2]);
    let pid = cluster.add_program(0, "Gateway", "main", vec![Value::Int(200_000)]);
    let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(3));
    sim.start_program(0, pid);
    // Top frame (Kernel.work) to w1; residual (Gateway.main) to w2, whose
    // arrival requests Gateway from home and fails. w1 still completes and
    // returns into the dead chained session.
    sim.migrate(pid, When::At(MS), MigrationPlan::chain(&[(1, 1), (2, 1)]));
    sim.run();
    let p = sim.program(pid);
    assert!(
        p.is_done(),
        "the failed chain must still finish the program"
    );
    let err = p.error().expect("typed failure recorded");
    assert!(err.contains("missing class"), "got: {err}");
}

/// One multi-class program (Gateway -> Kernel -> Mix) migrating its
/// compute frame: every policy computes the same result while the eager
/// versus on-demand split moves exactly as documented.
#[test]
fn code_shipping_policies_trade_bundles_for_round_trips() {
    use sod::workloads::programs::{handler_fleet_classes, handler_fleet_expected};
    let n = 200_000i64;
    let run = |policy: CodeShipping| -> (Option<i64>, u64, u64, u64) {
        let classes: Vec<_> = handler_fleet_classes()
            .iter()
            .map(|c| preprocess_sod(c).unwrap())
            .collect();
        let mut sc = Scenario::new()
            .code_shipping(policy)
            .node("home", NodeConfig::cluster("home"));
        for c in &classes {
            sc = sc.deploys(c);
        }
        let report = sc
            .node("worker", NodeConfig::cluster("worker"))
            .program("Gateway", "main", vec![Value::Int(n)])
            .migrate(When::At(MS), Plan::top_to("worker", 1))
            .run()
            .unwrap();
        let r = report.first();
        (
            r.result,
            r.migrations[0].class_bytes,
            r.classes_shipped,
            r.class_bytes,
        )
    };

    let (top_res, top_bundle, top_on_demand, top_total) = run(CodeShipping::BundleTop);
    let (never_res, never_bundle, never_on_demand, never_total) = run(CodeShipping::Never);
    let (reach_res, reach_bundle, reach_on_demand, reach_total) =
        run(CodeShipping::BundleReachable);

    let want = Some(handler_fleet_expected(n));
    assert_eq!(top_res, want);
    assert_eq!(never_res, want);
    assert_eq!(reach_res, want);

    // BundleTop: Kernel travels with the state; Mix goes on demand.
    assert!(top_bundle > 0);
    assert_eq!(top_on_demand, 1);
    // Never: nothing eager, both Kernel and Mix on demand.
    assert_eq!(never_bundle, 0);
    assert_eq!(never_on_demand, 2);
    assert!(never_total > 0, "on-demand replies still count bytes");
    // BundleReachable: Kernel *and* Mix eager, no round trips at all.
    assert!(reach_bundle > top_bundle);
    assert_eq!(reach_on_demand, 0);
    assert!(reach_total >= top_total);
}
