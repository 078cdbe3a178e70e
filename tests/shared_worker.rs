//! Regression test for the worker object cache's key.
//!
//! Object ids are per-heap, so the same id names different objects on
//! different home nodes. When several homes offload to one shared worker,
//! the worker's cache must key a copy by *(origin home, home id)*: keyed
//! by the id alone, a program faulting on its home's object 7 was handed
//! the cached copy of another home's object 7 — a wrong sum, silently, and
//! fewer faults than objects. The write-back must respect the same
//! boundary: a finishing session flushes its own home's dirty copies, not
//! every dirty object on the shared heap — and not the worker's own masters
//! either, when the worker is a home too.

use sod::asm::builder::ClassBuilder;
use sod::net::US;
use sod::preprocess::preprocess_sod;
use sod::runtime::{FetchPolicy, NodeConfig};
use sod::scenario::{Fleet, Plan, Scenario, When};
use sod::vm::class::ClassDef;
use sod::vm::instr::Cmp;
use sod::vm::value::{TypeOf, Value};
use sod::ArrivalSchedule;

const HOMES: usize = 4;
const PROGRAMS_PER_HOME: usize = 5;
/// Spin iterations between building the list and walking it, so the CPU
/// slice budget trips after the build and before the first remote read.
const SPIN: i64 = 3000;

/// `main(n, spin)` builds an n-node list holding 0..n at home, then calls
/// `walk`, which spins (the migration point), sums the list and overwrites
/// each node after reading it — so every fetched copy is flushed back.
fn list_walk_class() -> ClassDef {
    let class = ClassBuilder::new("Walk")
        .field("val", TypeOf::Int)
        .field("next", TypeOf::Ref)
        .method("walk", &["head", "spin"], |m| {
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label("spin");
            m.load("i").load("spin").if_cmp(Cmp::Ge, "start");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("spin");
            m.line();
            m.label("start");
            m.pushi(0).store("sum");
            m.line();
            m.load("head").store("cur");
            m.line();
            m.label("next");
            m.load("cur").ifnull("end");
            m.line();
            m.load("cur").getfield("val").store("v");
            m.line();
            m.load("sum").load("v").add().store("sum");
            m.line();
            m.load("cur").load("v").pushi(100).add().putfield("val");
            m.line();
            m.load("cur").getfield("next").store("cur").goto("next");
            m.line();
            m.label("end");
            m.load("sum").retv();
        })
        .method("main", &["n", "spin"], |m| {
            m.line();
            m.pushnull().store("head");
            m.line();
            m.pushi(0).store("k");
            m.line();
            m.label("grow");
            m.load("k").load("n").if_cmp(Cmp::Ge, "grown");
            m.line();
            m.new_obj("Walk").store("node");
            m.line();
            m.load("node").load("k").putfield("val");
            m.line();
            m.load("node").load("head").putfield("next");
            m.line();
            m.load("node").store("head");
            m.line();
            m.load("k").pushi(1).add().store("k").goto("grow");
            m.line();
            m.label("grown");
            m.load("head")
                .load("spin")
                .invoke("Walk", "walk", 2)
                .store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .expect("list-walk guest verifies");
    preprocess_sod(&class).expect("list-walk guest preprocesses")
}

/// List length of `home`'s programs: different per home, so a copy served
/// across homes carries a visibly wrong value.
fn nodes_of(home: usize) -> i64 {
    24 + 4 * home as i64
}

#[test]
fn homes_sharing_one_worker_keep_their_objects_apart() {
    let class = list_walk_class();
    let mut sc = Scenario::new().slice_ns(5_000);
    for home in 0..HOMES {
        let name = format!("edge{home}");
        sc = sc
            .node(name.clone(), NodeConfig::cluster(name))
            .deploys(&class);
    }
    sc = sc.node("cloud", NodeConfig::cloud("cloud"));
    for home in 0..HOMES {
        let name = format!("edge{home}");
        sc = sc.fleet(
            Fleet::new(
                "Walk",
                "main",
                vec![Value::Int(nodes_of(home)), Value::Int(SPIN)],
            )
            .programs(PROGRAMS_PER_HOME)
            .across(&[name.as_str()])
            // Tight arrivals: sessions of all four homes interleave
            // on the shared worker.
            .arrivals(ArrivalSchedule::uniform(40 * US), 7 + home as u64)
            .fetch_policy(FetchPolicy::Shallow)
            .migrate(When::OnCpuSliceBudget(6), Plan::top_to("cloud", 1)),
        );
    }
    let report = sc.run().expect("shared-worker fleet runs");

    let programs = report.programs();
    assert_eq!(programs.len(), HOMES * PROGRAMS_PER_HOME);
    for (i, p) in programs.iter().enumerate() {
        // Fleets register in declaration order, one home each.
        let n = nodes_of(i / PROGRAMS_PER_HOME);
        assert_eq!(p.error, None, "program {i}");
        assert_eq!(p.report.migrations.len(), 1, "program {i} offloads once");
        assert_eq!(
            p.report.result,
            Some(n * (n - 1) / 2),
            "program {i} summed another home's objects"
        );
        assert_eq!(
            p.report.object_faults, n as u64,
            "program {i} must fault in exactly its own {n} list nodes"
        );
    }
}

/// Regression: a node that is both a home and a worker flushed its own
/// masters to a foreign home. The flush of a finishing session admitted
/// every object without a home elsewhere, so `a`'s dirty masters shipped to
/// `b` as objects `b`'s segment had created, and `b` allocated masters
/// nothing references. Now a flush carries only what the finishing home's
/// sessions fetched or created.
#[test]
fn a_home_that_is_also_a_worker_flushes_none_of_its_masters() {
    let class = list_walk_class();
    let run = |with_neighbour: bool| {
        let mut sc = Scenario::new()
            .slice_ns(5_000)
            .node("a", NodeConfig::cluster("a"))
            .deploys(&class)
            .node("b", NodeConfig::cluster("b"))
            .deploys(&class);
        if with_neighbour {
            // Homed on `a`: builds and writes 50 masters there, never moves.
            sc = sc
                .program("Walk", "main", vec![Value::Int(50), Value::Int(SPIN)])
                .on("a");
        }
        // Homed on `b`: an empty list, so its segment on `a` touches no
        // object at all.
        let report = sc
            .program("Walk", "main", vec![Value::Int(0), Value::Int(SPIN)])
            .on("b")
            .starts_at(200 * US)
            .migrate(When::OnCpuSliceBudget(2), Plan::top_to("a", 1))
            .run()
            .expect("mixed-role run");
        let b = report.cluster.per_node[1].clone();
        let visitor = report.programs().last().expect("b's program").clone();
        (visitor, b.heap_objects, b.heap_entries)
    };
    let (alone, alone_objects, alone_entries) = run(false);
    let (beside, beside_objects, beside_entries) = run(true);
    assert_eq!(beside.error, None);
    assert_eq!(
        beside.report.migrations.len(),
        1,
        "b's program offloads to a"
    );
    assert_eq!(beside.report.result, Some(0));
    assert_eq!(
        beside.report.object_bytes, 0,
        "a's masters were flushed to b"
    );
    // `a`'s neighbour changes nothing about `b`'s program or heap.
    assert_eq!(beside.report, alone.report);
    assert_eq!(
        (beside_objects, beside_entries),
        (alone_objects, alone_entries)
    );
}
