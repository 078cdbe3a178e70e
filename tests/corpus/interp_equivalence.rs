//! The fast interpreter against the reference VM, under the test names
//! this suite has long had: the fast path (inline caches, fused window
//! rows, interned literals) changes host time only, so every report field
//! is `==` under `slow_resolve`. Each test asserts facts of corpus rows
//! (`corpus.rs`), which runs every row's relations. The last pins at the
//! VM layer that a warmed inline cache is not part of the wire image.

use crate::{self as corpus, outcome, report};
use proptest::prelude::*;
use sod::vm::value::Value;

#[test]
fn single_migration_is_resolve_equivalent() {
    assert_eq!(outcome(report("single_migration")), (Some(987), 1));
}

#[test]
fn chained_segments_are_resolve_equivalent() {
    assert_eq!(outcome(report("chain")), (Some(987), 2));
}

#[test]
fn whole_stack_migration_is_resolve_equivalent() {
    assert_eq!(outcome(report("whole_stack")), (Some(987), 2));
}

/// OOM timing is the sharpest heap-shape probe: one extra allocation on
/// the fast path moves the OOM point and every later timestamp.
#[test]
fn on_oom_offload_is_resolve_equivalent() {
    assert_eq!(outcome(report("on_oom")), (Some(2_000_000), 1));
}

/// `New`, `GetField`, `PutField`, `InvokeVirtual` and `PushStr` all sit on
/// cacheable sites here.
#[test]
fn field_and_virtual_call_loop_is_resolve_equivalent() {
    let r = report("counter_loop");
    assert_eq!(
        (r.report(0).result, r.report(1).result),
        (Some(200), Some(300))
    );
}

/// The fault RNG draws in delivery order, so the loss pattern itself is
/// part of the equivalence.
#[test]
fn chaos_profile_fleet_is_resolve_equivalent() {
    assert_eq!(report("chaos_loss_partition").cluster.completed, 40);
}

/// Scaling decisions sample latency percentiles: one shifted nanosecond
/// shows in the pool's counters.
#[test]
fn elastic_pool_is_resolve_equivalent() {
    assert_eq!(report("pool_queue_depth").cluster.completed, 60);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_fleets_are_resolve_equivalent(
        nodes in 2usize..17,
        programs in 1usize..301,
        trigger in 0u8..4,
        schedule in 0u8..3,
        latency_us in 10u64..2_000,
        seed in 0u64..1_000_000,
    ) {
        let build = || corpus::random_fleet(nodes, programs, trigger, schedule, latency_us, seed);
        let fast = build().run().expect("random fleet runs");
        let slow = build().slow_resolve(true).run().expect("reference runs");
        corpus::assert_same(&fast, &slow, "reference: random fleet");
        prop_assert_eq!(fast.cluster.completed as usize, programs);
    }
}

/// Warm the inline caches by running fib on a source VM, capture the
/// whole stack at a migration-safe point, ship it through the wire
/// encoding and restore it into a fresh VM: its caches start cold (cache
/// state is not part of the wire image), and it runs to the right result,
/// rewarming as it goes.
#[test]
fn warmed_ic_survives_migration_cold() {
    use sod::vm::capture::{capture_segment, restore_segment_direct};
    use sod::vm::interp::{RunMode, StepOutcome, Vm};
    use sod::vm::tooling::ToolingPath;
    use sod::vm::wire::{decode_state, encode_state};

    fn warm_sites(vm: &Vm) -> usize {
        vm.classes.iter().map(|c| c.ic_warm_count()).sum()
    }

    let class = corpus::fib();
    let mut src = Vm::new();
    src.load_class(&class).expect("load on source");
    let tid = src.spawn("Fib", "main", &[Value::Int(16)]).expect("spawn");

    // Run deep enough to recurse (warming the invoke cache), then walk to
    // the next migration-safe point.
    let (out, _) = src.run(tid, 5_000, RunMode::Normal).expect("warm-up run");
    assert_eq!(out, StepOutcome::Continue, "must still be mid-flight");
    assert!(warm_sites(&src) > 0, "source caches must be warm");
    let (out, _) = src
        .run(tid, u64::MAX, RunMode::StopAtMsp)
        .expect("walk to MSP");
    assert!(matches!(out, StepOutcome::AtMsp { .. }), "got {out:?}");

    let height = src.thread(tid).expect("thread").frames.len();
    let (state, _) = capture_segment(&mut src, tid, height, ToolingPath::Jvmti).expect("capture");
    let shipped = decode_state(encode_state(&state).expect("wire encode")).expect("wire roundtrip");

    let mut dst = Vm::new();
    dst.load_class(&class).expect("load on destination");
    let new_tid = restore_segment_direct(&mut dst, &shipped).expect("restore");
    assert_eq!(
        warm_sites(&dst),
        0,
        "restored segment must start with cold caches: the wire image \
         carries no pre-resolved state"
    );

    let resume = |dst: &mut Vm| {
        dst.run(new_tid, u64::MAX, RunMode::Normal)
            .expect("resume")
            .0
    };
    let mut out = resume(&mut dst);
    while out == StepOutcome::Continue {
        out = resume(&mut dst);
    }
    assert_eq!(
        out,
        StepOutcome::Returned(Some(Value::Int(987))),
        "migrated fib(16)"
    );
    assert!(warm_sites(&dst) > 0, "destination must rewarm by executing");
}
