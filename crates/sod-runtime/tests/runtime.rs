//! Integration tests for the SODEE runtime: the paper's execution patterns
//! (Fig. 1a/b/c), object faulting across nodes, roaming, exception-driven
//! offload, NFS locality, and device-profile migrations.
//!
//! All scenarios are described through the `sod::scenario` builder (the
//! facade crate is a dev-dependency); engine-level wiring is covered by
//! `tests/triggers.rs` and the unit tests in `src/`.

use sod::scenario::{Fleet, Plan, Scenario, When};
use sod_asm::builder::ClassBuilder;
use sod_net::{LinkSpec, Topology, MS, SEC, US};
use sod_preprocess::preprocess_sod;
use sod_runtime::node::{Node, NodeConfig};
use sod_runtime::{Cluster, FetchPolicy, MigrationPlan, SodSim};
use sod_vm::class::ClassDef;
use sod_vm::instr::Cmp;
use sod_vm::value::{TypeOf, Value};

/// App.main(n): r = work(n) + 5 where work loops n times accumulating i and
/// writing a counter object field (so migration leaves heap state behind).
fn app_class() -> ClassDef {
    let c = ClassBuilder::new("App")
        .field("count", TypeOf::Int)
        .static_field("last", TypeOf::Int)
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
            m.load("acc").putstatic("App", "last");
            m.line();
            m.load("acc").retv();
        })
        .method("main", &["n"], |m| {
            m.line();
            m.new_obj("App").store("box");
            m.line();
            m.load("n").load("box").invoke("App", "work", 2).store("r");
            m.line();
            m.load("box").getfield("count").store("chk");
            m.line();
            m.load("r").load("chk").add().load("r").sub().store("same"); // == r
            m.line();
            m.load("same").pushi(5).add().retv();
        })
        .build()
        .unwrap();
    preprocess_sod(&c).unwrap()
}

fn expected(n: i64) -> i64 {
    (0..n).sum::<i64>() + 5
}

/// `n0` holds the application; workers receive classes on demand.
fn scenario_of(n_nodes: usize, class: &ClassDef) -> Scenario {
    let mut sc = Scenario::new();
    for i in 0..n_nodes {
        sc = sc.node(format!("n{i}"), NodeConfig::cluster(format!("n{i}")));
        if i == 0 {
            sc = sc.deploys(class);
        }
    }
    sc
}

#[test]
fn no_migration_baseline() {
    let class = app_class();
    let report = scenario_of(2, &class)
        .program("App", "main", vec![Value::Int(100_000)])
        .run()
        .unwrap();
    let r = report.first();
    assert_eq!(r.result, Some(expected(100_000)));
    assert!(r.migrations.is_empty());
    assert_eq!(r.object_faults, 0);
    assert!(r.finished_at_ns > 0);
}

#[test]
fn fig1a_top_segment_returns_home() {
    let class = app_class();
    let n = 1_000_000i64;
    let report = scenario_of(2, &class)
        .program("App", "main", vec![Value::Int(n)])
        .migrate(When::At(2 * MS), Plan::top_to("n1", 1))
        .run()
        .unwrap();
    let r = report.first();
    assert_eq!(r.result, Some(expected(n)));
    assert_eq!(r.migrations.len(), 1);
    let m = &r.migrations[0];
    assert!(m.capture_ns > 0, "capture must cost time");
    assert!(m.transfer_state_ns > 0, "transfer must cost time");
    assert!(m.restore_ns > 0, "restore must cost time");
    // The worker wrote box.count via PutField: the object faulted in and
    // the dirty value flushed home (checked via the program result, which
    // reads box.count at home after return).
    assert!(r.object_faults >= 1, "worker must fault on `box`");
    // On-demand class shipping happened (worker had nothing preloaded).
    assert!(r.migrations[0].class_bytes > 0 || r.classes_shipped > 0);
}

/// `Wide.sum(n)` keeps ten accumulators beside `n` and `i`: twelve locals,
/// so its restoration handler (one `RestoreLocal` each, 300 ns while the
/// restore runs interpreted) outlasts a 2 µs slice.
fn wide_class() -> ClassDef {
    let c = ClassBuilder::new("Wide")
        .method("sum", &["n"], |m| {
            m.line();
            for k in 0..10 {
                m.pushi(k).store(&format!("a{k}"));
            }
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("n").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("a0").load("i").add().store("a0");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("a0");
            for k in 1..10 {
                m.load(&format!("a{k}")).add();
            }
            m.retv();
        })
        .build()
        .unwrap();
    preprocess_sod(&c).unwrap()
}

#[test]
fn handler_restore_spans_a_slice_boundary_inside_the_top_handler() {
    // Every frame is "restored" once the top frame's breakpoint fired, but
    // its handler is still re-installing locals when the slice ends: the
    // captured values must outlive that slice.
    let class = wide_class();
    let n = 200_000i64;
    let report = scenario_of(2, &class)
        .slice_ns(2_000)
        .program("Wide", "sum", vec![Value::Int(n)])
        .migrate(When::At(MS), Plan::top_to("n1", 1))
        .run()
        .unwrap();
    let r = report.first();
    assert_eq!(r.result, Some((0..n).sum::<i64>() + (1..10).sum::<i64>()));
    assert_eq!(r.migrations.len(), 1);
}

#[test]
fn fig1b_total_migration_continues_at_dest() {
    let class = app_class();
    let n = 1_000_000i64;
    // Both frames (work + main) leave in one plan: top frame to node 1 and
    // the residual frame also to node 1 (restore-ahead), i.e. a total
    // migration: after `work` pops, execution continues on node 1.
    let report = scenario_of(2, &class)
        .program("App", "main", vec![Value::Int(n)])
        .migrate(When::At(2 * MS), Plan::chain(&[("n1", 1), ("n1", 8)]))
        .run()
        .unwrap();
    let r = report.first();
    assert_eq!(r.result, Some(expected(n)));
    assert_eq!(r.migrations.len(), 2, "two segments shipped");
}

#[test]
fn fig1c_workflow_three_nodes() {
    let class = app_class();
    let n = 1_000_000i64;
    // Top frame to node 1; residual to node 2; control flows 0 → 1 → 2 → 0.
    let report = scenario_of(3, &class)
        .program("App", "main", vec![Value::Int(n)])
        .migrate(When::At(2 * MS), Plan::chain(&[("n1", 1), ("n2", 8)]))
        .run()
        .unwrap();
    let r = report.first();
    assert_eq!(r.result, Some(expected(n)));
    assert_eq!(r.migrations.len(), 2);
}

#[test]
fn migration_overhead_is_modest() {
    // The headline claim: SOD migration costs little relative to execution.
    let class = app_class();
    let n = 4_000_000i64;
    let run = |migrate: bool| -> u64 {
        let mut sc = scenario_of(2, &class).program("App", "main", vec![Value::Int(n)]);
        if migrate {
            sc = sc.migrate(When::At(2 * MS), Plan::top_to("n1", 1));
        }
        let report = sc.run().unwrap();
        assert_eq!(report.first().result, Some(expected(n)));
        report.first().finished_at_ns
    };
    let plain = run(false);
    let migrated = run(true);
    let overhead = migrated.saturating_sub(plain);
    assert!(overhead > 0, "migration is not free");
    // Paper Table III: SOD overhead is small (well under 10% for
    // compute-heavy workloads; absolute tens of ms).
    assert!(
        overhead < plain / 5,
        "overhead {overhead} too large vs exec {plain}"
    );
}

#[test]
fn roaming_hops_across_nodes() {
    // A task that asks to move to node 1, then node 2, then finishes.
    let c = ClassBuilder::new("Roam")
        .method("tour", &[], |m| {
            m.line();
            m.pushi(0).store("acc");
            m.line();
            m.pushi(1).native("sod_move", 1).pop();
            m.line();
            m.load("acc").native("node_id", 0).add().store("acc");
            m.line();
            m.pushi(2).native("sod_move", 1).pop();
            m.line();
            m.load("acc").native("node_id", 0).add().store("acc");
            m.line();
            m.load("acc").retv();
        })
        .method("main", &[], |m| {
            m.line();
            m.invoke("Roam", "tour", 0).store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .unwrap();
    let class = preprocess_sod(&c).unwrap();
    // The first hop is requested by the program itself via sod_move.
    let report = scenario_of(3, &class)
        .program("Roam", "main", vec![])
        .run()
        .unwrap();
    let r = report.first();
    // acc = node_id(1) + node_id(2) = 3 — proves the code really ran on
    // nodes 1 and 2.
    assert_eq!(r.result, Some(3));
    assert_eq!(r.migrations.len(), 2, "two roaming hops");
}

#[test]
fn exception_driven_offload_to_cloud() {
    // The device cannot allocate a 2M-element array; the cloud can. The
    // rescue is a declarative policy: `When::OnOom`.
    let c = ClassBuilder::new("Big")
        .method("alloc", &["n"], |m| {
            m.line();
            m.load("n").newarr().store("a");
            m.line();
            m.load("a").arrlen().retv();
        })
        .method("main", &["n"], |m| {
            m.line();
            m.load("n").invoke("Big", "alloc", 1).store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .unwrap();
    let class = preprocess_sod(&c).unwrap();

    let mut phone = NodeConfig::device("phone");
    phone.mem_limit = Some(4 << 20); // 4 MB heap: the 16 MB array cannot fit
    let report = Scenario::new()
        .node("phone", phone)
        .deploys(&class)
        .node("cloud", NodeConfig::cloud("cloud"))
        .link("phone", "cloud", LinkSpec::wifi_kbps(764))
        .program("Big", "main", vec![Value::Int(2_000_000)])
        .migrate(When::OnOom, Plan::whole_stack_to("cloud"))
        .run()
        .expect("offload must rescue the OOM");
    let r = report.first();
    assert_eq!(r.result, Some(2_000_000));
    assert_eq!(r.migrations.len(), 1);
}

#[test]
fn nfs_locality_improves_with_migration() {
    // Paper Table VI: a document search reads a large file over NFS;
    // migrating to the file server makes the read local.
    let search = |hint: bool| -> ClassDef {
        let mut b = ClassBuilder::new("Search");
        b = b.method("main", &[], move |m| {
            m.line();
            if hint {
                m.pushi(1).native("sod_move", 1).pop();
                m.line();
            }
            m.pushstr("/srv/data/doc.txt")
                .pushstr("beach")
                .native("fs_search", 2)
                .store("pos");
            m.line();
            m.load("pos").retv();
        });
        preprocess_sod(&b.build().unwrap()).unwrap()
    };

    let run = |class: &ClassDef| -> (u64, Option<i64>) {
        let report = Scenario::new()
            .node("client", NodeConfig::cluster("client"))
            .deploys(class)
            .mounts("/srv/", "server")
            .node("server", NodeConfig::cluster("server"))
            .file("/srv/data/doc.txt", 64 << 20, Some(1234))
            .program("Search", "main", vec![])
            .run()
            .unwrap();
        (report.first().finished_at_ns, report.first().result)
    };
    // With the hint the search runs on the server (local disk read);
    // without it the same bytes cross the network.
    let (with_mig, r1) = run(&search(true));
    assert_eq!(r1, Some(1234));
    let (no_mig, r2) = run(&search(false));
    assert_eq!(r2, Some(1234));
    assert!(
        with_mig < no_mig,
        "locality should win: with={with_mig} without={no_mig}"
    );
}

#[test]
fn device_migration_latency_grows_as_bandwidth_shrinks() {
    // Paper Table VII: state transfer dominates at low bandwidth; capture
    // and restore are bandwidth-independent.
    let class = app_class();
    let mut results = Vec::new();
    for kbps in [50u64, 128, 384, 764] {
        let report = Scenario::new()
            .node("server", NodeConfig::cluster("server"))
            .deploys(&class)
            .node("phone", NodeConfig::device("phone"))
            .link("server", "phone", LinkSpec::wifi_kbps(kbps))
            .program("App", "main", vec![Value::Int(2_000_000)])
            .migrate(When::At(2 * MS), Plan::top_to("phone", 1))
            .run()
            .unwrap_or_else(|e| panic!("kbps={kbps}: {e}"));
        let r = report.first();
        assert_eq!(r.result, Some(expected(2_000_000)));
        assert_eq!(r.migrations.len(), 1);
        results.push((kbps, r.migrations[0]));
    }
    // Transfer monotonically decreases with bandwidth.
    for w in results.windows(2) {
        let (k0, m0) = w[0];
        let (k1, m1) = w[1];
        assert!(
            m0.transfer_state_ns + m0.transfer_class_ns
                > m1.transfer_state_ns + m1.transfer_class_ns,
            "{k0} vs {k1}"
        );
        // Capture barely changes with bandwidth.
        let c0 = m0.capture_ns as f64;
        let c1 = m1.capture_ns as f64;
        assert!((c0 - c1).abs() / c0 < 0.05);
    }
    // Portable capture path (no JVMTI at dest) is much slower than JVMTI
    // capture on the cluster (Table VII ~14 ms vs ~0.4 ms).
    assert!(results[0].1.capture_ns > 5 * MS);
    assert!(results.iter().all(|(_, m)| m.latency_ns() < 60 * SEC));
}

#[test]
fn deep_fetch_reduces_fault_count() {
    // A linked list walked after migration: shallow faults once per node,
    // deep prefetches the closure.
    let c = ClassBuilder::new("L")
        .field("val", TypeOf::Int)
        .field("next", TypeOf::Ref)
        .method("build", &["n"], |m| {
            m.line();
            m.pushnull().store("head");
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("n").if_cmp(Cmp::Ge, "done");
            m.line();
            m.new_obj("L").store("node");
            m.line();
            m.load("node").load("i").putfield("val");
            m.line();
            m.load("node").load("head").putfield("next");
            m.line();
            m.load("node").store("head");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("head").retv();
        })
        .method("sum", &["head", "spin"], |m| {
            // Busy loop first so the migration point lands before the walk.
            m.line();
            m.pushi(0).store("j");
            m.line();
            m.label("spinl");
            m.load("j").load("spin").if_cmp(Cmp::Ge, "walk");
            m.line();
            m.load("j").pushi(1).add().store("j").goto("spinl");
            m.line();
            m.label("walk");
            m.pushi(0).store("acc");
            m.line();
            m.label("loop");
            m.load("head").ifnull("done");
            m.line();
            m.load("acc")
                .load("head")
                .getfield("val")
                .add()
                .store("acc");
            m.line();
            m.load("head").getfield("next").store("head");
            m.goto("loop");
            m.line();
            m.label("done");
            m.load("acc").retv();
        })
        .method("main", &["n", "spin"], |m| {
            m.line();
            m.load("n").invoke("L", "build", 1).store("h");
            m.line();
            m.load("h").load("spin").invoke("L", "sum", 2).store("s");
            m.line();
            m.load("s").retv();
        })
        .build()
        .unwrap();
    let class = preprocess_sod(&c).unwrap();
    let run = |deep: bool| -> (u64, Option<i64>) {
        let mut sc = scenario_of(2, &class)
            .program("L", "main", vec![Value::Int(40), Value::Int(400_000)])
            .migrate(When::At(2 * MS), Plan::top_to("n1", 1));
        if deep {
            sc = sc.fetch_policy(FetchPolicy::Deep);
        }
        let report = sc.run().unwrap();
        (report.first().object_faults, report.first().result)
    };
    let (shallow_faults, r1) = run(false);
    let (deep_faults, r2) = run(true);
    assert_eq!(r1, Some((0..40).sum()));
    assert_eq!(r2, r1);
    assert!(
        shallow_faults > deep_faults,
        "shallow={shallow_faults} deep={deep_faults}"
    );
    assert!(
        shallow_faults >= 40,
        "one fault per list node, got {shallow_faults}"
    );
}

/// Regression: a chain plan deeper than the live stack used to wire the
/// last live segment's return target at a pre-allocated session for the
/// empty tail segment — a session that was never created, so the return
/// panicked at `expect("chained session")`. Empty segments are now
/// filtered before session ids are allocated, and the last *live* segment
/// returns `Home`.
#[test]
fn chain_plan_deeper_than_stack_returns_home() {
    let class = app_class();
    let n = 500_000i64;
    // Stack height at the MSP inside `work` is 2 (main + work), but the
    // plan asks for four single-frame segments across three nodes.
    let report = scenario_of(4, &class)
        .program("App", "main", vec![Value::Int(n)])
        .migrate(
            When::At(2 * MS),
            Plan::chain(&[("n1", 1), ("n2", 1), ("n3", 1), ("n1", 1)]),
        )
        .run()
        .unwrap();
    let r = report.first();
    assert_eq!(r.result, Some(expected(n)));
    // Only the two live segments shipped and restored.
    assert_eq!(r.migrations.len(), 2, "empty tail segments must be dropped");
}

/// Server guest: accept `nreq` requests, folding each payload's length
/// into a base-100 digit so the result encodes the exact service order.
fn order_probe_class(nreq: i64) -> ClassDef {
    let c = ClassBuilder::new("Srv")
        .method("main", &[], |m| {
            m.line();
            m.pushi(0).store("acc");
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").pushi(nreq).if_cmp(Cmp::Ge, "done");
            m.line();
            m.native("sock_accept", 0).store("req");
            m.line();
            m.load("acc")
                .pushi(100)
                .mul()
                .load("req")
                .native("str_len", 1)
                .add()
                .store("acc");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("acc").retv();
        })
        .build()
        .unwrap();
    preprocess_sod(&c).unwrap()
}

/// The accept queue delivers queued client requests strictly FIFO
/// (pinned while moving `sock_queue` from `Vec::remove(0)` to a
/// `VecDeque`): payloads of lengths 1..=3 injected in order must fold to
/// 10203, any reordering yields a different digit string.
#[test]
fn sock_queue_serves_requests_fifo() {
    let report = scenario_of(1, &order_probe_class(3))
        .program("Srv", "main", vec![])
        .client_request_at(0, "n0", "a")
        .client_request_at(0, "n0", "bb")
        .client_request_at(0, "n0", "ccc")
        .run()
        .unwrap();
    assert_eq!(report.first().result, Some(10203));
}

/// Parked accept loops are also served FIFO: with two server programs
/// parked in `sock_accept`, the first one to park gets the first request.
#[test]
fn sock_waiters_are_served_in_park_order() {
    let class = order_probe_class(1);
    let report = scenario_of(1, &class)
        .program("Srv", "main", vec![])
        .program("Srv", "main", vec![])
        .client_request_at(5 * MS, "n0", "x")
        .client_request_at(5 * MS, "n0", "yy")
        .run()
        .unwrap();
    // Program 0 starts (and parks) first, so it serves the length-1
    // payload; program 1 the length-2 payload.
    assert_eq!(report.report(0).result, Some(1));
    assert_eq!(report.report(1).result, Some(2));
}

/// Failed programs carry the same final stats as successes: instructions
/// accrue per slice and the stack height is snapshotted on failure, so
/// fleet aggregates over mixed outcomes stay comparable.
#[test]
fn failed_program_reports_instructions_and_height() {
    let class = ClassBuilder::new("Alloc")
        .method("grow", &["n"], |m| {
            m.line();
            m.load("n").newarr().arrlen().retv();
        })
        .method("main", &["n"], |m| {
            m.line();
            m.load("n").invoke("Alloc", "grow", 1).store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .unwrap();
    let class = preprocess_sod(&class).unwrap();
    let tiny = NodeConfig {
        mem_limit: Some(64),
        ..NodeConfig::cluster("tiny")
    };
    // A fleet member's failure is recorded instead of aborting the run.
    let report = Scenario::new()
        .node("tiny", tiny)
        .deploys(&class)
        .fleet(sod::scenario::Fleet::new(
            "Alloc",
            "main",
            vec![Value::Int(1_000)],
        ))
        .run()
        .unwrap();
    let p = &report.programs()[0];
    assert!(p.error.as_deref().unwrap().contains("OutOfMemory"));
    assert!(p.report.instructions > 0, "instructions must be recorded");
    assert!(
        p.report.max_stack_height >= 2,
        "main + grow were live at the fault"
    );
    assert!(p.report.finished_at_ns > 0);
    assert_eq!(report.cluster.failed, 1);
}

/// A guest that trips a `VmError` — here unbounded recursion, past the
/// VM's stack ceiling — ends its own program with a typed error at the
/// instant the slice stopped; its sibling finishes. Once with the
/// overflow on the program's own root thread, once after its top frame
/// migrated (the overflow then happens on a worker session's thread).
#[test]
fn guest_stack_overflow_fails_its_program_not_the_fleet() {
    let rec = ClassBuilder::new("Rec")
        .method("down", &["n"], |m| {
            m.line();
            m.load("n")
                .pushi(1)
                .add()
                .invoke("Rec", "down", 1)
                .store("r");
            m.line();
            m.load("r").retv();
        })
        .method("main", &["n"], |m| {
            m.line();
            m.load("n").invoke("Rec", "down", 1).store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .unwrap();
    let rec = preprocess_sod(&rec).unwrap();
    let app = app_class();
    for migrate in [false, true] {
        let mut runaway = Fleet::new("Rec", "main", vec![Value::Int(0)]);
        if migrate {
            runaway = runaway.migrate(When::At(50 * US), Plan::top_to("n1", 1));
        }
        let report = Scenario::new()
            .node("n0", NodeConfig::cluster("n0"))
            .deploys(&app)
            .deploys(&rec)
            .node("n1", NodeConfig::cluster("n1"))
            .fleet(runaway)
            .fleet(Fleet::new("App", "main", vec![Value::Int(1_000)]))
            .run()
            .unwrap();
        let [bad, good] = report.programs() else {
            panic!("two programs");
        };
        let error = bad.error.as_deref().expect("typed error");
        assert!(
            error.contains("stack overflow"),
            "migrate={migrate}: {error}"
        );
        assert_eq!(bad.report.migrations.len(), usize::from(migrate));
        assert!(bad.report.finished_at_ns > 0 && bad.report.instructions > 0);
        assert_eq!(good.error, None, "migrate={migrate}");
        assert_eq!(good.report.result, Some(expected(1_000)));
        assert_eq!(report.cluster.failed, 1);
        assert_eq!(report.cluster.completed, 1);
    }
}

/// The one many-events-per-instant cross-home case. Eight long programs,
/// two per home, ship their top frame to the next home at once, so nearly
/// all their work runs on a foreign node. Meanwhile a burst of 132 short
/// programs starts every 470 us (off the 100 us slice grid, so bursts land
/// at every phase of the long programs' slices) for as long as the long
/// programs run. Every program computes its value, and a same-seed
/// replay delivers it identically.
#[test]
fn burst_fleet_replays_bit_identically() {
    const HOMES: usize = 4;
    let class = app_class();
    let run = || {
        let nodes = (0..HOMES)
            .map(|i| {
                let mut n = Node::new(NodeConfig::cluster(format!("n{i}")));
                n.deploy(&class).unwrap();
                n
            })
            .collect();
        let mut cluster = Cluster::new(nodes);
        let long: Vec<_> = (0..2 * HOMES)
            .map(|i| cluster.add_program(i % HOMES, "App", "main", vec![Value::Int(300_000)]))
            .collect();
        let short: Vec<_> = (0..24 * 132)
            .map(|i| cluster.add_program(i % HOMES, "App", "main", vec![Value::Int(10)]))
            .collect();
        let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(HOMES));
        for (i, &pid) in long.iter().enumerate() {
            sim.start_program(0, pid);
            sim.migrate(pid, When::At(0), MigrationPlan::top_to((i + 1) % HOMES, 1));
        }
        for (i, &pid) in short.iter().enumerate() {
            sim.start_program((i / 132) as u64 * 470 * US, pid);
        }
        let finished_at = sim.run();
        let reports: Vec<_> = long
            .iter()
            .chain(&short)
            .map(|&p| sim.report(p).clone())
            .collect();
        (finished_at, sim.cluster_report(), reports)
    };
    let first = run();
    for (i, r) in first.2.iter().enumerate() {
        let n = if i < 2 * HOMES { 300_000 } else { 10 };
        assert_eq!(r.result, Some(expected(n)), "program {i}");
        assert_eq!(
            r.migrations.len(),
            usize::from(i < 2 * HOMES),
            "program {i}"
        );
    }
    assert_eq!(run(), first);
}

#[test]
fn overlapping_handler_restores_on_one_worker_keep_their_reports() {
    // Two tenants ship their top frame to the same worker at the same
    // moment, so their handler-protocol restores interleave slice by
    // slice, each with a breakpoint armed while the other runs. Neither
    // may see the other's breakpoint: the reports are pinned to what the
    // engine produced when breakpoints were checked VM-wide.
    let class = wide_class();
    let n = 200_000i64;
    let report = scenario_of(2, &class)
        .slice_ns(2_000)
        .fleet(
            Fleet::new("Wide", "sum", vec![Value::Int(n)])
                .programs(2)
                .migrate(When::At(MS), Plan::top_to("n1", 1)),
        )
        .run()
        .unwrap();
    let seen: Vec<_> = report
        .programs()
        .iter()
        .map(|p| {
            assert_eq!(p.error, None);
            let r = &p.report;
            assert_eq!(r.result, Some((0..n).sum::<i64>() + (1..10).sum::<i64>()));
            assert_eq!(r.migrations.len(), 1);
            let m = &r.migrations[0];
            (r.finished_at_ns, r.instructions, m.capture_ns, m.restore_ns)
        })
        .collect();
    // (finished_at_ns, instructions, capture_ns, restore_ns)
    let pinned = [
        (10_974_010, 2_400_060, 612_000, 4_297_930),
        (11_090_874, 2_400_060, 612_000, 3_397_265),
    ];
    assert_eq!(seen, pinned);
}

/// `Host.time_<call>()`: the virtual ns between two `clock_ns` readings
/// around one host call `call` with one string argument, `payload`.
fn host_call_class(calls: &[&str], payload: &str) -> ClassDef {
    let class = calls.iter().fold(ClassBuilder::new("Host"), |class, call| {
        class.method(&format!("time_{call}"), &[], |m| {
            m.line();
            m.native("clock_ns", 0).store("t0");
            m.line();
            m.pushstr(payload).native(call, 1).pop();
            m.line();
            m.native("clock_ns", 0).load("t0").sub().retv();
        })
    });
    preprocess_sod(&class.build().unwrap()).unwrap()
}

/// Three host calls that no figure runs are charged exactly their
/// `cost_table!` rows (`sod_vm::costs`): the virtual time around each, less
/// the time around `node_id` (charged nothing) in the same place, is the
/// row's charge. The rows' own values are written out too, so doubling a
/// row fails here and not only in `COST_MODEL.md`.
#[test]
fn fs_size_fs_list_and_sock_send_charge_their_rows() {
    use sod_vm::costs::{FS_LIST, FS_SIZE, SOCK_SEND};
    const PAYLOAD: &str = "response";
    let calls = ["node_id", "fs_size", "fs_list", "sock_send"];
    let class = host_call_class(&calls, PAYLOAD);
    let timed = |call: &str| {
        let mut home = Node::new(NodeConfig::cluster("home"));
        home.deploy(&class).unwrap();
        let mut cluster = Cluster::new(vec![home]);
        let p = cluster.add_program(0, "Host", format!("time_{call}"), vec![]);
        let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(1));
        sim.start_program(0, p);
        sim.run();
        assert_eq!(sim.program(p).error(), None, "{call}");
        match sim.report(p).result {
            Some(ns) => ns as u64,
            None => panic!("{call} returned nothing"),
        }
    };
    let free = timed("node_id");
    let charged: Vec<u64> = calls[1..].iter().map(|&c| timed(c) - free).collect();
    let bytes = PAYLOAD.len() as u64;
    let rows = [FS_SIZE.fixed, FS_LIST.fixed, SOCK_SEND.of(bytes)];
    assert_eq!(charged, rows);
    assert_eq!(charged, [50_000, 200_000, 100_000 + 8 * bytes]);
}
