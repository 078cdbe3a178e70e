//! An object fault costs the host no heap allocation of its own.
//!
//! Heap-on-demand pulls a migrated segment's objects across one fault at a
//! time, so what one fault round trip (request, encode, deliver, decode,
//! install, resume — and later the dirty write-back) costs the host decides
//! how fine-grained a segment can afford to be. It used to cost ≈ 20
//! allocations: an outbox per delivered event, the class name copied three
//! times, a `Vec` of decoded values on each side of each codec call, a
//! fresh buffer per flush frame, an exception message per fault. Objects
//! travel between heap and wire with nothing in between (`sod_vm::wire`,
//! "Objects"), and an object's slots are a span of its heap's one slot
//! arena, not an allocation of their own (`sod_vm::heap`, "Slots"): the
//! master's fields are written there by `New`, the cached copy's decoded
//! there, the flush applied there. What remains per object is the growth
//! steps of the heaps' and the buffers' own tables, amortised.
//!
//! This file pins the count, not a speed, the way `migration_allocs.rs`
//! does for stacks: the `object-storm` shape — a worker walks and dirties
//! an *N*-node list that lives at home, and flushes it back at completion
//! — runs at *N* = 64 and *N* = 256 under a counting allocator, and each of
//! the 192 extra nodes may cost at most 0.5 allocations, everything from
//! building it at home to writing it back included (it read 2.0 when each
//! object owned its slots, 20 before the direct codec). The same bound
//! holds per object shipped when one `Deep` fault fetches the whole list.
//!
//! It also pins what the heaps hold, per node, from the report's
//! `heap_objects` (the model's allocations) and `heap_entries` (what the
//! host keeps). Each object a `Shallow` fault fetches is two allocations in
//! the model — its cached copy and the `NullPointerException` that
//! detected it — but the worker keeps one entry: the fault handler pops
//! the exception unread, so it is counted, never held (it held 2.0 while
//! every exception was kept). The model's counts are written out exactly:
//! they are what every virtual number is computed from.
//!
//! Beside them it pins the host's bytes for what each heap holds
//! (`Heap::held_bytes`, read from the cluster through `Scenario::run_with`:
//! a figure of the host's layout, so no report carries it). A fetched
//! list node is one 32-byte entry and two 16-byte slots, 64 bytes: an entry
//! holds indexes into its heap's name table and arenas, no owner (it was
//! 80 while an entry held its class name as an `Arc<str>` and was 48
//! bytes). And installing a fetched instance of a class the VM has not
//! loaded, or a fetched string, allocates nothing per object: the name is
//! interned once per heap and the text copied into the heap's text arena
//! (each cost one `Arc<str>` or one `String` before).

use crate::counted;
use sod::asm::builder::ClassBuilder;
use sod::net::US;
use sod::preprocess::preprocess_sod;
use sod::runtime::{FetchPolicy, NodeConfig};
use sod::scenario::{Fleet, Plan, Scenario, When};
use sod::vm::capture::CapturedValue;
use sod::vm::class::ClassDef;
use sod::vm::instr::Cmp;
use sod::vm::interp::Vm;
use sod::vm::value::{ObjId, TypeOf, Value};
use sod::vm::wire::{encode_object, WireObjBody, WireObject};
use sod::ArrivalSchedule;

const PROGRAMS: usize = 8;
/// Spin iterations between building the list and walking it: the CPU
/// budget trips inside them at either list length, so the walk — and with
/// it every fault — happens at the worker.
const SPIN: i64 = 3_000;

/// The repo benchmark's `object-storm` guest: `main(n, spin)` builds an
/// `n`-node list; `sum(head, spin)` spins, then walks the list reading and
/// rewriting every node's value.
fn list_class() -> ClassDef {
    let class = ClassBuilder::new("L")
        .field("val", TypeOf::Int)
        .field("next", TypeOf::Ref)
        .method("sum", &["head", "spin"], |m| {
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label("spin");
            m.load("i").load("spin").if_cmp(Cmp::Ge, "walk");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("spin");
            m.line();
            m.label("walk");
            m.pushi(0).store("acc");
            m.line();
            m.load("head").store("cur");
            m.line();
            m.label("loop");
            m.load("cur").ifnull("done");
            m.line();
            m.load("cur").getfield("val").store("v");
            m.line();
            m.load("acc").load("v").add().store("acc");
            m.line();
            m.load("cur").load("v").pushi(1).add().putfield("val");
            m.line();
            m.load("cur").getfield("next").store("cur").goto("loop");
            m.line();
            m.label("done");
            m.load("acc").retv();
        })
        .method("main", &["n", "spin"], |m| {
            m.line();
            m.pushnull().store("head");
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label("build");
            m.load("i").load("n").if_cmp(Cmp::Ge, "built");
            m.line();
            m.new_obj("L").store("node");
            m.line();
            m.load("node").load("i").putfield("val");
            m.line();
            m.load("node").load("head").putfield("next");
            m.line();
            m.load("node").store("head");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("build");
            m.line();
            m.label("built");
            m.load("head").load("spin").invoke("L", "sum", 2).store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .expect("list guest verifies");
    preprocess_sod(&class).expect("list guest preprocesses")
}

/// What one node's heap holds at the end of a run: the model's
/// allocations, the host's entries and the host's bytes for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Held {
    objects: u64,
    entries: u64,
    bytes: u64,
}

/// Run the fleet over `nodes`-node lists; returns how many allocations
/// building and running it took, and what the home's (`edge`) and the
/// worker's (`cloud`) heaps held.
fn storm(class: &ClassDef, nodes: i64, policy: FetchPolicy) -> (u64, [Held; 2]) {
    let mut bytes = [0; 2];
    let (report, spent, _) = counted(|| {
        Scenario::new()
            .slice_ns(5_000)
            .node("edge", NodeConfig::cluster("edge"))
            .deploys(class)
            .node("cloud", NodeConfig::cloud("cloud"))
            .fleet(
                Fleet::new("L", "main", vec![Value::Int(nodes), Value::Int(SPIN)])
                    .programs(PROGRAMS)
                    .across(&["edge"])
                    .arrivals(ArrivalSchedule::uniform(250 * US), 42)
                    .fetch_policy(policy)
                    .migrate(When::OnCpuSliceBudget(6), Plan::top_to("cloud", 1)),
            )
            .run_with(|sim| {
                sim.run();
                for (held, node) in bytes.iter_mut().zip(&sim.sim.world.nodes) {
                    *held = node.vm.heap.held_bytes();
                }
            })
            .expect("fleet runs")
    });
    // One fault per node when each is fetched alone, one for the whole
    // list when the first fault fetches the closure.
    let faults = match policy {
        FetchPolicy::Shallow => nodes as u64,
        FetchPolicy::Deep => 1,
    };
    for p in report.programs() {
        assert_eq!(p.error, None, "{} with {nodes} nodes", p.name);
        assert_eq!(p.report.result, Some(nodes * (nodes - 1) / 2), "{}", p.name);
        assert_eq!(p.report.object_faults, faults, "{}", p.name);
    }
    // Every node travelled both ways — fetched, dirtied, flushed — at more
    // than 30 bytes a trip. (Fleet-wide: one completion flushes whatever
    // its home's sessions have dirtied, so the per-program split varies.)
    let moved: u64 = report
        .programs()
        .iter()
        .map(|p| p.report.object_bytes)
        .sum();
    assert!(
        moved >= 2 * 30 * (nodes as u64) * PROGRAMS as u64,
        "{moved} B"
    );
    let held = |i: usize| {
        let n = &report.cluster.per_node[i];
        Held {
            objects: n.heap_objects,
            entries: n.heap_entries,
            bytes: bytes[i],
        }
    };
    (spent, [held(0), held(1)])
}

#[test]
fn an_object_fault_and_its_flush_cost_a_handful_of_allocations() {
    let class = list_class();
    for policy in [FetchPolicy::Shallow, FetchPolicy::Deep] {
        // Warm whatever the first run alone would pay for (lazy statics).
        storm(&class, 64, policy);

        let (short, held_short) = storm(&class, 64, policy);
        let (long, held_long) = storm(&class, 256, policy);
        // Same fleet, same seeds: the runs differ in nothing but the 192
        // extra nodes each program builds, ships and writes back.
        let per_object = long.saturating_sub(short) as f64 / (192 * PROGRAMS) as f64;
        println!("{policy:?}: {per_object:.2} allocations per object ({short} -> {long})");
        assert!(
            per_object <= 0.5,
            "{policy:?}: each extra object cost {per_object:.2} allocations \
             ({short} with 64 nodes, {long} with 256, {PROGRAMS} programs)"
        );

        // The heaps, per node, and Open 11's budget row for them: the
        // worker's model allocates a cached copy and an NPE for every
        // node (a `Deep` prefetch answers the fault locally, but the NPE
        // still fires), and the host keeps the copies only.
        let per_extra = |long: u64, short: u64| (long - short) as f64 / (192 * PROGRAMS) as f64;
        let objects = per_extra(held_long[1].objects, held_short[1].objects);
        let entries = per_extra(held_long[1].entries, held_short[1].entries);
        let bytes = per_extra(held_long[1].bytes, held_short[1].bytes);
        println!(
            "{policy:?}: the worker allocates {objects:.2} and holds {entries:.2} entries \
             and {bytes:.1} bytes per object"
        );
        assert_eq!(
            objects, 2.0,
            "{policy:?}: the model's allocations per object"
        );
        assert!(
            entries <= 1.0,
            "{policy:?}: the worker holds {entries:.2} entries per fetched object"
        );
        // One 32-byte entry and two 16-byte slots per fetched node.
        assert_eq!(
            bytes, 64.0,
            "{policy:?}: the worker's held bytes per fetched object"
        );
        // Exactly: the home makes the masters, one per node of each list;
        // the worker also allocates the restoration handler's exception,
        // one per program, and keeps no text.
        let held = |objects, entries| Held {
            objects,
            entries,
            bytes: entries * 64,
        };
        assert_eq!(held_short, [held(512, 512), held(1032, 512)], "{policy:?}");
        assert_eq!(
            held_long,
            [held(2048, 2048), held(4104, 2048)],
            "{policy:?}"
        );
    }
}

/// Install `n` fetched instances of class `Unloaded` (two slots each) and
/// `n` fetched strings into a fresh VM that has loaded no class; returns
/// the allocations that took.
fn install_fetched(n: u32) -> u64 {
    let frames: Vec<_> = (0..n)
        .flat_map(|i| {
            let instance = WireObject {
                home_id: 2 * i as ObjId,
                body: WireObjBody::Obj {
                    class: "Unloaded".into(),
                    fields: vec![CapturedValue::Int(i.into()), CapturedValue::Null],
                },
            };
            let string = WireObject {
                home_id: 2 * i as ObjId + 1,
                body: WireObjBody::Str(format!("string {i}")),
            };
            [instance, string]
        })
        .map(|obj| encode_object(&obj).expect("encodes"))
        .collect();
    let mut vm = Vm::new();
    let ((), spent, _) = counted(|| {
        for frame in &frames {
            vm.install_fetched(1, frame).expect("installs");
        }
    });
    assert_eq!(vm.heap.len(), 2 * n as usize);
    spent
}

#[test]
fn a_fetched_instance_of_an_unloaded_class_and_a_fetched_string_allocate_nothing() {
    install_fetched(64);
    let (short, long) = (install_fetched(64), install_fetched(256));
    // What 192 more of each cost: the tables' growth steps alone.
    let per_object = long.saturating_sub(short) as f64 / (2 * 192) as f64;
    println!("{per_object:.3} allocations per fetched object ({short} -> {long})");
    assert!(
        per_object <= 0.05,
        "each fetched object cost {per_object:.3} allocations ({short} with 64 of each, \
         {long} with 256)"
    );
}
