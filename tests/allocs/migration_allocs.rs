//! A migrated stack costs the host a number of heap allocations that does
//! not grow with its depth.
//!
//! The engine used to pay about eight allocations per *frame* per
//! migration — two name `String`s and a locals `Vec` on capture, the same
//! again on decode, more for the retry-retained copy. In memory a segment
//! is now three arrays (names per run of frames, a head per frame, one
//! value array), each sized once where it is built, and a restored thread
//! reserves its stack once, so a segment costs a handful of allocations
//! however many frames it has. This file pins that property, not a speed:
//! the same lossy whole-stack fleet runs with a 17-frame and a 129-frame
//! guest under a counting allocator, and the extra frames may add at most
//! 6 allocations per migration. They add 6 (264 over 42 migrations), most
//! of them the home thread's own frame and value stacks doubling as the
//! guest recurses deeper, which no form of the segment changes. A released
//! thread's grown stacks go to the next thread in its slot, which then
//! grows nothing; this fleet's second burst spawns while the first is
//! still frozen at home, so few deep slots turn over, and the reuse saves
//! more in the shallow run (63 allocations) than in the deep one (22). The
//! per-frame form added ≈ 900, the shared-window form 9 (the decoded value
//! array and the restored stack grew by doubling), and the three-array
//! form before slots were reused 5.

use crate::counted;
use sod::asm::builder::ClassBuilder;
use sod::net::MS;
use sod::preprocess::preprocess_sod;
use sod::runtime::{NodeConfig, RetryPolicy};
use sod::scenario::{Chaos, Fleet, Plan, Scenario, When};
use sod::vm::class::ClassDef;
use sod::vm::instr::Cmp;
use sod::vm::value::Value;
use sod::{ArrivalSchedule, ScenarioReport};

const PROGRAMS: usize = 20;
/// Spin iterations at the bottom of the recursion: long enough that the
/// 3-slice budget trips there at either depth, with the whole stack built.
const SPIN: i64 = 4_000;

/// The repo benchmark's `stack-churn` guest: `down(d, spin)` recurses `d`
/// deep, spins at the bottom, and returns `d + 1` through every frame.
fn deep_class() -> ClassDef {
    let class = ClassBuilder::new("Deep")
        .method("down", &["d", "spin"], |m| {
            m.line();
            m.load("d").ifz(Cmp::Le, "bottom");
            m.line();
            m.load("d")
                .pushi(1)
                .sub()
                .load("spin")
                .invoke("Deep", "down", 2)
                .store("r");
            m.line();
            m.load("r").pushi(1).add().retv();
            m.line();
            m.label("bottom");
            m.pushi(0).store("i");
            m.line();
            m.label("spin");
            m.load("i").load("spin").if_cmp(Cmp::Ge, "out");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("spin");
            m.line();
            m.label("out");
            m.pushi(1).retv();
        })
        .build()
        .expect("deep guest verifies");
    preprocess_sod(&class).expect("deep guest preprocesses")
}

/// Run the fleet at recursion depth `depth`; returns the report and how
/// many allocations building and running it took.
fn churn(class: &ClassDef, depth: i64) -> (ScenarioReport, u64) {
    let (report, spent, _) = counted(|| {
        Scenario::new()
            .slice_ns(2_000)
            .node("edge0", NodeConfig::cluster("edge0"))
            .deploys(class)
            .node("edge1", NodeConfig::cluster("edge1"))
            .deploys(class)
            .node("cloud", NodeConfig::cloud("cloud"))
            .fleet(
                Fleet::new("Deep", "down", vec![Value::Int(depth), Value::Int(SPIN)])
                    .programs(PROGRAMS)
                    .across(&["edge0", "edge1"])
                    .arrivals(ArrivalSchedule::bursty(10, 15 * MS).with_jitter(MS), 42)
                    .migrate(When::OnCpuSliceBudget(3), Plan::whole_stack_to("cloud")),
            )
            .chaos(
                Chaos::new()
                    .seed(5)
                    // One delivery in ten: enough that twenty programs see
                    // the retained shipment re-shipped (asserted below).
                    .loss(100)
                    .retry(RetryPolicy::Retry { max_attempts: 3 }),
            )
            .run()
            .expect("fleet runs")
    });

    for p in report.programs() {
        assert_eq!(p.error, None, "{} at depth {depth}", p.name);
        assert_eq!(p.report.result, Some(depth + 1), "{}", p.name);
        assert_eq!(p.report.max_stack_height as i64, depth + 1, "{}", p.name);
        // The whole stack left home: its top frame and everything below.
        let frames: Vec<u64> = p.report.migrations.iter().map(|m| m.state_bytes).collect();
        assert!(frames.len() >= 2, "{} shipped {frames:?}", p.name);
    }
    (report, spent)
}

fn migrations(report: &ScenarioReport) -> u64 {
    let per_program = report.programs().iter().map(|p| p.report.migrations.len());
    per_program.sum::<usize>() as u64
}

#[test]
fn allocations_per_migration_do_not_grow_with_stack_depth() {
    let class = deep_class();
    // Warm whatever the first run alone would pay for (lazy statics).
    churn(&class, 16);

    let (shallow, allocs_16) = churn(&class, 16);
    let (deep, allocs_128) = churn(&class, 128);
    // Same fleet, same seeds, same message sequence: the two runs differ
    // in nothing but the depth of the stacks they ship.
    assert_eq!(migrations(&shallow), migrations(&deep));
    assert!(deep.cluster.chaos.retries > 0, "no re-ship was exercised");

    let per_migration = allocs_128.saturating_sub(allocs_16) / migrations(&deep);
    assert!(
        per_migration <= 6,
        "112 more frames cost {per_migration} more allocations per migration \
         ({allocs_16} at depth 16, {allocs_128} at depth 128, {} migrations)",
        migrations(&deep)
    );
}
