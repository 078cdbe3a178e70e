//! Engine hardening under fault injection: the regression suite for the
//! failure paths the chaos harness can reach. Before the harness existed,
//! a crashed destination or a lost `State` message left the home side
//! frozen forever (or tripped an `expect(..)`); these tests pin the typed
//! recovery behaviour — `FallbackToHome` resumes the retained home stack,
//! `Retry` re-ships the retained segments, and returns addressed to a
//! crashed home are dropped with the failure recorded, never a panic.

use sod::asm::builder::ClassBuilder;
use sod::net::{MS, SEC, US};
use sod::preprocess::preprocess_sod;
use sod::scenario::{Chaos, Fleet, Plan, Scenario, When};
use sod::vm::class::ClassDef;
use sod::vm::instr::Cmp;
use sod::vm::value::{TypeOf, Value};
use sod::workloads::programs::fib_class;
use sod::ScenarioReport;
use sod_runtime::engine::{HomeView, TEMP_ID_BASE};
use sod_runtime::msg::ReturnTarget;
use sod_runtime::node::NodeConfig;
use sod_runtime::{Msg, RetryPolicy, SessionId, SodSim};
use sod_vm::capture::CapturedValue;
use sod_vm::wire::{encode_object, FrameBatch, WireObjBody, WireObject};

/// One Fib(16) program homed on `home`, migrating its top frames to
/// `worker` at 50 µs, declared as a fleet-of-one so failures are recorded
/// on the report instead of aborting the run.
fn offload_scenario(chaos: Chaos) -> ScenarioReport {
    offload(chaos)
        .run()
        .expect("hardened engine must never panic under chaos")
}

/// The scenario `offload_scenario` runs.
fn offload(chaos: Chaos) -> Scenario {
    let class = preprocess_sod(&fib_class()).expect("preprocess fib");
    Scenario::new()
        .slice_ns(10_000)
        .node("home", NodeConfig::cluster("home"))
        .deploys(&class)
        .node("worker", NodeConfig::cluster("worker"))
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(16)])
                .programs(1)
                .migrate(When::At(50 * US), Plan::top_to("worker", 2)),
        )
        .chaos(chaos)
}

#[test]
fn destination_crash_mid_migration_falls_back_to_home() {
    // The worker is dead before the shipped segment arrives and never
    // comes back: the State message is dropped at delivery. The home
    // side kept its frames (capture does not truncate), so the episode
    // deadline thaws the stack and the program completes locally.
    let r = offload_scenario(
        Chaos::new()
            .crash_at(0, "worker")
            .migration_timeout(2 * MS)
            .retry(RetryPolicy::FallbackToHome),
    );
    let p = &r.programs()[0];
    assert_eq!(p.error, None, "fallback must rescue the program");
    assert_eq!(p.report.result, Some(987), "recomputed at home");
    assert!(
        p.report.migrations.is_empty(),
        "the segment never restored anywhere"
    );
    assert_eq!(r.cluster.chaos.crashes, 1);
    assert_eq!(r.cluster.chaos.timeouts, 1);
    assert_eq!(r.cluster.chaos.fallbacks, 1);
    assert_eq!(r.cluster.chaos.retries, 0);
    assert!(
        r.cluster.total_lost().state > 0,
        "the dropped State payload must be credited as lost"
    );
    assert_eq!(r.cluster.completed, 1);
}

#[test]
fn destination_crash_with_retry_recovers_after_restart() {
    // Same crash, but the worker restarts before the deadline and the
    // policy is Retry: the first shipped State is dropped at the dead
    // worker, the deadline fires once, and the retained segments re-ship
    // under fresh session ids — the migration completes remotely on the
    // second attempt. The restart (8 ms) sits after the first State's
    // arrival and the deadline (20 ms) clears the real restore latency,
    // so exactly one attempt is lost and exactly one succeeds.
    let r = offload_scenario(
        Chaos::new()
            .crash_at(0, "worker")
            .restart_at(8 * MS, "worker")
            .migration_timeout(20 * MS)
            .retry(RetryPolicy::Retry { max_attempts: 3 }),
    );
    let p = &r.programs()[0];
    assert_eq!(p.error, None);
    assert_eq!(p.report.result, Some(987));
    assert_eq!(
        p.report.migrations.len(),
        1,
        "the retry must actually restore on the worker"
    );
    assert_eq!(r.cluster.chaos.crashes, 1);
    assert_eq!(r.cluster.chaos.restarts, 1);
    assert_eq!(r.cluster.chaos.dropped_msgs, 1, "attempt 1's State drops");
    assert_eq!(r.cluster.chaos.timeouts, 1);
    assert_eq!(r.cluster.chaos.retries, 1);
    assert_eq!(r.cluster.chaos.fallbacks, 0);
    assert!(
        r.cluster.total_lost().state > 0,
        "the dropped first shipment must be credited as lost"
    );
}

#[test]
fn exhausted_retries_still_fall_back_instead_of_hanging() {
    // The worker never restarts: every retry times out too. After
    // `max_attempts` the engine must give up and thaw the home stack —
    // the program ends with a result, never frozen forever.
    let r = offload_scenario(
        Chaos::new()
            .crash_at(0, "worker")
            .migration_timeout(2 * MS)
            .retry(RetryPolicy::Retry { max_attempts: 2 }),
    );
    let p = &r.programs()[0];
    assert_eq!(p.error, None);
    assert_eq!(p.report.result, Some(987));
    assert_eq!(r.cluster.chaos.retries, 1, "attempt 2 is the last");
    assert_eq!(r.cluster.chaos.timeouts, 2);
    assert_eq!(r.cluster.chaos.fallbacks, 1, "then the episode falls back");
}

#[test]
fn partitioned_destination_times_out_and_falls_back() {
    // A partition (not a crash) cuts home ↔ worker before the segment
    // ships and never heals: the State drop is `Partitioned`, and the
    // same deadline machinery recovers the program.
    let r = offload_scenario(
        Chaos::new()
            .partition_at(0, "home", "worker")
            .migration_timeout(2 * MS),
    );
    let p = &r.programs()[0];
    assert_eq!(p.error, None);
    assert_eq!(p.report.result, Some(987));
    assert_eq!(r.cluster.chaos.partitions, 1);
    assert_eq!(r.cluster.chaos.fallbacks, 1);
    assert!(r.cluster.chaos.dropped_msgs > 0);
}

#[test]
fn home_crash_fails_the_program_typed_and_drops_the_chained_return() {
    // The segment chain executes remotely when the *home* crashes: the
    // program must fail immediately with a typed error naming the crash,
    // and the workers' eventual SegmentReturn to the dead home is dropped
    // (or rejected as stale after the restart) — never delivered into a
    // freed stack, never a panic, never a hang.
    let class = preprocess_sod(&fib_class()).expect("preprocess fib");
    let r = Scenario::new()
        .slice_ns(10_000)
        .node("home", NodeConfig::cluster("home"))
        .deploys(&class)
        .node("w0", NodeConfig::cluster("w0"))
        .node("w1", NodeConfig::cluster("w1"))
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(16)])
                .programs(1)
                .migrate(When::At(50 * US), Plan::chain(&[("w0", 1), ("w1", 2)])),
        )
        .chaos(
            Chaos::new()
                .crash_at(100 * US, "home")
                .restart_at(20 * MS, "home"),
        )
        .run()
        .expect("home crash must not panic the run");
    let p = &r.programs()[0];
    assert_eq!(p.report.result, None);
    let err = p.error.as_deref().expect("typed failure recorded");
    assert!(
        err.contains("crashed"),
        "error must name the crash, got: {err}"
    );
    assert_eq!(r.cluster.failed, 1);
    assert_eq!(r.cluster.completed, 0);
    assert_eq!(r.cluster.chaos.crashes, 1);
}

/// `main(n)` counts to `n` twice, in two calls of `spin(n)`, and returns
/// the sum.
fn twice_class() -> ClassDef {
    let class = ClassBuilder::new("Twice")
        .method("spin", &["n"], |m| {
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("n").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("i").retv();
        })
        .method("main", &["n"], |m| {
            m.line();
            m.load("n").invoke("Twice", "spin", 1).store("a");
            m.line();
            m.load("n").invoke("Twice", "spin", 1).store("b");
            m.line();
            m.load("a").load("b").add().retv();
        })
        .build()
        .expect("guest verifies");
    preprocess_sod(&class).expect("guest preprocesses")
}

/// 3 ms of guest time per call of `spin`.
const SPIN: i64 = 400_000;

/// A deadline that outlives its episode does nothing, whatever episode is
/// open when it fires. One program migrates its top frame twice to a
/// worker without JVMTI, whose portable capture freezes the home for
/// 12 ms: the first episode ships at ≈ 13 ms and its value is home at
/// ≈ 22 ms; the second freezes from 23 ms to ≈ 35 ms, across the first
/// episode's deadline (≈ 28 ms). Nothing is lost — the partition cuts two
/// nodes nobody uses — so no deadline may act. The stamp used to be
/// counted at ship time, so the first deadline matched the second episode
/// while it froze: it abandoned it (`FallbackToHome`), or re-shipped the
/// empty shipment kept from the first and left the second's states to be
/// dropped as superseded (`Retry`).
#[test]
fn a_deadline_outliving_its_episode_does_nothing() {
    let class = twice_class();
    let portable = NodeConfig {
        has_jvmti: false,
        ..NodeConfig::cluster("worker")
    };
    for policy in [
        RetryPolicy::FallbackToHome,
        RetryPolicy::Retry { max_attempts: 3 },
    ] {
        let r = Scenario::new()
            .slice_ns(10_000)
            .node("home", NodeConfig::cluster("home"))
            .deploys(&class)
            .node("worker", portable.clone())
            .node("u0", NodeConfig::cluster("u0"))
            .node("u1", NodeConfig::cluster("u1"))
            .fleet(
                Fleet::new("Twice", "main", vec![Value::Int(SPIN)])
                    .programs(1)
                    .migrate(When::At(MS), Plan::top_to("worker", 1))
                    .migrate(When::At(23 * MS), Plan::top_to("worker", 1)),
            )
            .chaos(
                Chaos::new()
                    .partition_at(0, "u0", "u1")
                    .migration_timeout(15 * MS)
                    .retry(policy),
            )
            .run()
            .expect("runs");
        let p = &r.programs()[0];
        assert_eq!(p.error, None, "{policy:?}");
        assert_eq!(p.report.result, Some(2 * SPIN), "{policy:?}");
        assert_eq!(p.report.migrations.len(), 2, "{policy:?}");
        let c = r.cluster.chaos;
        assert_eq!(c.dropped_msgs, 0, "{policy:?}");
        assert_eq!(
            (c.timeouts, c.retries, c.fallbacks),
            (0, 0, 0),
            "{policy:?}"
        );
    }
}

/// `main(n)` makes a box and returns `work(n, box)`, which counts to `n`
/// and only then writes the box: migrated, `work` faults it in from the
/// home at the end of its count.
fn boxed_class() -> ClassDef {
    let class = ClassBuilder::new("Boxed")
        .field("count", TypeOf::Int)
        .method("work", &["n", "box"], |m| {
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("n").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("box").load("i").putfield("count");
            m.line();
            m.load("i").retv();
        })
        .method("main", &["n"], |m| {
            m.line();
            m.new_obj("Boxed").store("box");
            m.line();
            m.load("n")
                .load("box")
                .invoke("Boxed", "work", 2)
                .store("r");
            m.line();
            m.load("r").retv();
        })
        .build()
        .expect("guest verifies");
    preprocess_sod(&class).expect("guest preprocesses")
}

/// A program whose home crashes retires the sessions its episode shipped,
/// wherever they run (ROADMAP Open 4(a)). The top frame restores on the
/// worker by ≈ 8 ms and counts for ≈ 30 ms; the home crashes for good at
/// 20 ms, failing the program; the count would end in an object fault
/// whose request reaches nobody. The session used to stay parked on that
/// fault at idle, its thread and owner entry with it.
#[test]
fn a_home_crash_retires_the_sessions_it_stranded() {
    // `run` fails with `ScenarioError::Invariant` if anything is left.
    let r = Scenario::new()
        .slice_ns(10_000)
        .node("home", NodeConfig::cluster("home"))
        .deploys(&boxed_class())
        .node("worker", NodeConfig::cluster("worker"))
        .fleet(
            Fleet::new("Boxed", "main", vec![Value::Int(4_000_000)])
                .programs(1)
                .migrate(When::At(MS), Plan::top_to("worker", 1)),
        )
        .chaos(Chaos::new().crash_at(20 * MS, "home"))
        .run()
        .expect("a home crash must not panic the run or strand a session");
    let p = &r.programs()[0];
    let err = p.error.as_deref().expect("typed failure recorded");
    assert!(err.contains("crashed"), "{err}");
    assert_eq!(p.report.migrations.len(), 1, "the session restored first");
}

/// `offload`'s program with recovery armed (its chaos plan's one entry
/// falls after the run), stepped until `ready` holds; then `misroute`,
/// addressed to the worker's session (0 before there is one), is injected
/// at the worker and the run goes on. Nothing moves but the one event the
/// worker counted.
fn misrouted_at_the_worker(ready: fn(&SodSim) -> bool, misroute: fn(SessionId) -> Msg) {
    let armed = || Chaos::new().restart_at(10 * SEC, "worker");
    let mut expected = offload_scenario(armed());
    let report = offload(armed())
        .run_with(|sim: &mut SodSim| {
            while !ready(sim) {
                assert!(sim.sim.step(), "the run never got ready");
            }
            let session = sim.sim.world.hosted(1).first().map_or(0, |h| h.0);
            let now = sim.sim.now();
            sim.sim.inject(now, 1, misroute(session));
            sim.run();
        })
        .expect("a misrouted message is dropped");
    expected.cluster.per_node[1].events += 1;
    assert!(report == expected, "a misrouted message changed the run");
    let p = &report.programs()[0];
    assert_eq!((p.error.as_deref(), p.report.result), (None, Some(987)));
}

/// The segment lives on the worker.
fn restored(sim: &SodSim) -> bool {
    !sim.sim.world.hosted(1).is_empty()
}

/// The home stack is frozen and its segment staged, not yet shipped.
fn frozen(sim: &SodSim) -> bool {
    matches!(
        sim.sim.world.home_side(0),
        HomeView::Frozen { sessions: [], .. }
    )
}

#[test]
fn a_deadline_delivered_away_from_home_is_dropped() {
    // It used to fail a debug assertion, and in release thaw thread `tid`
    // on the worker, where the program's root thread does not live.
    misrouted_at_the_worker(restored, |_| Msg::MigrationTimeout {
        program: 0,
        episode: 1,
    });
    // The freeze timer at the worker used to ship the staged segment
    // early.
    misrouted_at_the_worker(frozen, |_| Msg::CaptureDone { program: 0 });
}

#[test]
fn a_home_return_delivered_away_from_home_is_dropped() {
    // It used to fail a debug assertion, and in release close the episode
    // with the live session's value and resume the home from the worker.
    misrouted_at_the_worker(restored, |session| Msg::SegmentReturn {
        program: 0,
        session,
        target: ReturnTarget::Home,
        retval: Some(CapturedValue::Int(1)),
        pop_frames: 1,
    });
    // An object request used to be served from the worker's heap, and a
    // flush written into it.
    misrouted_at_the_worker(restored, |session| Msg::ObjectRequest {
        session,
        requester: 1,
        home_id: 0,
        program: 0,
    });
    misrouted_at_the_worker(restored, |session| {
        let created = WireObject {
            home_id: TEMP_ID_BASE + 1,
            body: WireObjBody::Str("forged".into()),
        };
        let mut batch = FrameBatch::new();
        batch.push(encode_object(&created).expect("a string frame encodes"));
        Msg::Flush {
            program: 0,
            batch,
            ack_to: Some((1, session)),
        }
    });
}
