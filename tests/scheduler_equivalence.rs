//! Same-seed replay of every scenario shape the repository knows — single
//! migration, multi-segment chains, WAN roaming, exception-driven OnOom
//! offload, client requests, chaos profiles, elastic pools, every
//! `ArrivalSchedule`, every `CodeShipping` policy: building and running a
//! scenario twice must produce **bit-identical** `ScenarioReport`s
//! (results, timings, migrations, cluster aggregates, per-node
//! utilization and event counts). A delivery order, tie-break or
//! accounting that depends on anything but the scenario — iteration order
//! of a hashed map, an address, a clock — fails loudly here.
//!
//! The suite used to compare two event queues; the simulator now has one
//! (README, "Why there is one event queue"), and the `*_scheduler_*` test
//! names are kept from that time so their history stays traceable.
//!
//! The property test at the bottom pushes the same claim through random
//! fleets (node count 2–16, up to 300 programs, random triggers, links,
//! schedules, and seeds), plus `Fib(12) == 144` with nothing lost (every
//! run also passes `Scenario::run`'s own checks, byte ledger included).

use proptest::prelude::*;
use sod::asm::builder::ClassBuilder;
use sod::net::{LinkSpec, MS, US};
use sod::preprocess::preprocess_sod;
use sod::runtime::NodeConfig;
use sod::scenario::{Fleet, Plan, Preset, Scenario, ScenarioReport, When};
use sod::vm::class::ClassDef;
use sod::vm::value::Value;
use sod::workloads::apps::search_class;
use sod::workloads::programs::fib_class;
use sod::{ArrivalSchedule, CodeShipping, NetBytes};

/// Build and run the scenario twice and require the full reports to
/// compare `==`.
fn assert_equivalent(label: &str, build: impl Fn() -> Scenario) -> ScenarioReport {
    let run = || {
        build()
            .run()
            .unwrap_or_else(|e| panic!("{label}: run failed: {e}"))
    };
    let first = run();
    assert_eq!(first, run(), "{label}: a same-seed replay diverged");
    first
}

fn fib() -> ClassDef {
    preprocess_sod(&fib_class()).expect("preprocess fib")
}

#[test]
fn single_migration_is_scheduler_equivalent() {
    let report = assert_equivalent("single migration", || {
        Scenario::new()
            .slice_ns(10_000)
            .node("home", NodeConfig::cluster("home"))
            .deploys(&fib())
            .node("worker", NodeConfig::cluster("worker"))
            .program("Fib", "main", vec![Value::Int(16)])
            .on("home")
            .migrate(When::At(50 * US), Plan::top_to("worker", 2))
    });
    assert_eq!(report.first().result, Some(987));
    assert_eq!(report.first().migrations.len(), 1);
}

#[test]
fn chained_segments_are_scheduler_equivalent() {
    let report = assert_equivalent("chain", || {
        Scenario::new()
            .slice_ns(10_000)
            .node("home", NodeConfig::cluster("home"))
            .deploys(&fib())
            .node("w0", NodeConfig::cluster("w0"))
            .node("w1", NodeConfig::cluster("w1"))
            .program("Fib", "main", vec![Value::Int(16)])
            .on("home")
            .migrate(When::At(50 * US), Plan::chain(&[("w0", 1), ("w1", 2)]))
    });
    assert_eq!(report.first().result, Some(987));
    assert!(!report.first().migrations.is_empty());
}

#[test]
fn whole_stack_migration_is_scheduler_equivalent() {
    let report = assert_equivalent("whole stack", || {
        Scenario::new()
            .slice_ns(10_000)
            .node("home", NodeConfig::cluster("home"))
            .deploys(&fib())
            .node("worker", NodeConfig::cluster("worker"))
            .program("Fib", "main", vec![Value::Int(14)])
            .on("home")
            .migrate(When::At(50 * US), Plan::whole_stack_to("worker"))
    });
    assert_eq!(report.first().result, Some(377));
}

/// The roaming shape (paper §IV.C, trimmed): a search task hops across
/// WAN file servers instead of pulling their files over NFS.
#[test]
fn roaming_over_wan_grid_is_scheduler_equivalent() {
    let nfiles = 3usize;
    let report = assert_equivalent("roaming", || {
        let class = preprocess_sod(&search_class()).expect("preprocess search");
        let mut scenario = Scenario::new()
            .topology(Preset::WanGrid)
            .node("client", NodeConfig::cluster("client"))
            .deploys(&class);
        for i in 0..nfiles {
            scenario = scenario
                .node(format!("srv{i}"), NodeConfig::cluster(format!("srv{i}")))
                .file(format!("/srv/{i}/doc.txt"), 1 << 20, Some(9));
        }
        for i in 0..nfiles {
            let prefix = format!("/srv/{i}/");
            let server = format!("srv{i}");
            scenario = scenario.mount_on("client", &prefix, &server);
            for j in 0..nfiles {
                if j != i {
                    scenario = scenario.mount_on(format!("srv{j}"), &prefix, &server);
                }
            }
        }
        scenario
            .program(
                "Search",
                "main",
                vec![Value::Int(nfiles as i64), Value::Int(1), Value::Int(1)],
            )
            .on("client")
    });
    assert!(
        !report.first().migrations.is_empty(),
        "the task must actually roam"
    );
}

/// Exception-driven offload: the allocation overflows a small device
/// heap, `When::OnOom` rescues the whole stack onto the cloud.
#[test]
fn on_oom_offload_is_scheduler_equivalent() {
    let report = assert_equivalent("OnOom offload", || {
        let class = ClassBuilder::new("Big")
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
            .expect("valid class");
        let class = preprocess_sod(&class).expect("preprocess");
        let mut phone = NodeConfig::device("phone");
        phone.mem_limit = Some(4 << 20);
        Scenario::new()
            .node("phone", phone)
            .deploys(&class)
            .node("cloud", NodeConfig::cloud("cloud"))
            .link("phone", "cloud", LinkSpec::wifi_kbps(764))
            .program("Big", "main", vec![Value::Int(2_000_000)])
            .on("phone")
            .migrate(When::OnOom, Plan::whole_stack_to("cloud"))
    });
    assert_eq!(report.first().result, Some(2_000_000));
    assert_eq!(report.first().migrations.len(), 1, "the rescue hop");
}

/// A fleet under the given arrival schedule, offloading on a CPU-slice
/// budget — the shape every fleet bench and test uses.
fn fleet_scenario(schedule: ArrivalSchedule, seed: u64, shipping: CodeShipping) -> Scenario {
    Scenario::new()
        .slice_ns(10_000)
        .code_shipping(shipping)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&fib())
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&fib())
        .node("cloud", NodeConfig::cloud("cloud"))
        .fleet(
            Fleet::new("Fib", "main", vec![Value::Int(14)])
                .programs(40)
                .across(&["edge0", "edge1"])
                .arrivals(schedule, seed)
                .migrate(When::OnCpuSliceBudget(3), Plan::top_to("cloud", 1)),
        )
}

#[test]
fn every_arrival_schedule_is_scheduler_equivalent() {
    for (name, schedule) in [
        ("uniform", ArrivalSchedule::uniform(2 * MS).with_jitter(MS)),
        (
            "bursty",
            ArrivalSchedule::bursty(10, 5 * MS).with_jitter(MS),
        ),
        ("ramp", ArrivalSchedule::ramp(4 * MS, 500 * US)),
    ] {
        let report = assert_equivalent(name, || {
            fleet_scenario(schedule, 42, CodeShipping::default())
        });
        assert_eq!(report.cluster.completed, 40, "{name}: fleet must finish");
        assert!(report.cluster.p50_latency_ns > 0, "{name}");
    }
}

#[test]
fn every_code_shipping_policy_is_scheduler_equivalent() {
    for policy in [
        CodeShipping::BundleTop,
        CodeShipping::Never,
        CodeShipping::BundleReachable,
        CodeShipping::BundleAlways,
    ] {
        let report = assert_equivalent(&format!("{policy:?}"), || {
            fleet_scenario(ArrivalSchedule::uniform(MS), 7, policy)
        });
        assert_eq!(report.cluster.completed, 40, "{policy:?}");
    }
}

#[test]
fn client_requests_are_scheduler_equivalent() {
    // The photo-share accept-queue path: requests park threads on the
    // socket queue, so delivery interleaving is maximally visible here.
    let report = assert_equivalent("client requests", || {
        let server = ClassBuilder::new("Srv")
            .method("main", &["n"], |m| {
                m.line();
                m.pushi(0).store("i");
                m.pushi(0).store("acc");
                m.line();
                m.label("loop");
                m.load("i")
                    .load("n")
                    .if_cmp(sod::vm::instr::Cmp::Ge, "done");
                m.line();
                m.native("sock_accept", 0).store("req");
                m.line();
                m.load("acc").pushi(1).add().store("acc");
                m.line();
                m.load("i").pushi(1).add().store("i").goto("loop");
                m.line();
                m.label("done");
                m.load("acc").retv();
            })
            .build()
            .expect("valid server");
        let server = preprocess_sod(&server).expect("preprocess");
        Scenario::new()
            .node("srv", NodeConfig::cluster("srv"))
            .deploys(&server)
            .program("Srv", "main", vec![Value::Int(5)])
            .on("srv")
            .client_requests("srv", 5, ArrivalSchedule::uniform(MS), 3, "req-")
    });
    assert_eq!(report.first().result, Some(5));
}

/// Per-node event counts must be populated and replay (they are part of
/// the `==` above; this pins that they are not trivially zero).
#[test]
fn per_node_event_counts_are_populated_and_equal() {
    let report = assert_equivalent("event counts", || {
        fleet_scenario(ArrivalSchedule::uniform(MS), 11, CodeShipping::default())
    });
    for node in &report.cluster.per_node {
        assert!(node.events > 0, "node {} absorbed no events", node.name);
    }
}

/// Regression pin: the exact per-node delivery counts of the
/// single-migration scenario. A change to event routing or tie-breaking
/// that shifts even one delivery to another node trips this before the
/// subtler differential suites do.
#[test]
fn per_node_event_counts_are_pinned_across_schedulers() {
    let report = assert_equivalent("pinned counts", || {
        Scenario::new()
            .slice_ns(10_000)
            .node("home", NodeConfig::cluster("home"))
            .deploys(&fib())
            .node("worker", NodeConfig::cluster("worker"))
            .program("Fib", "main", vec![Value::Int(16)])
            .on("home")
            .migrate(When::At(50 * US), Plan::top_to("worker", 2))
    });
    let counts: Vec<(String, u64)> = report
        .cluster
        .per_node
        .iter()
        .map(|n| (n.name.clone(), n.events))
        .collect();
    let expect = [("home".to_string(), 15), ("worker".to_string(), 5)];
    assert_eq!(counts, expect, "pinned per-node delivery counts drifted");
}

/// Fault injection must not cost replay: the chaos RNG draws in delivery
/// order, which is total, so crashes, partitions, and seeded loss yield
/// bit-identical reports (chaos counters, failure sets, and `lost`
/// buckets included).
#[test]
fn chaos_profiles_are_scheduler_equivalent() {
    use sod::runtime::RetryPolicy;
    use sod::scenario::Chaos;

    let profiles: Vec<(&str, Chaos)> = vec![
        ("loss", Chaos::new().seed(3).loss(50)),
        (
            "partition window",
            Chaos::new()
                .partition_at(2 * MS, "edge0", "cloud")
                .heal_at(8 * MS, "edge0", "cloud"),
        ),
        (
            "crash/restart",
            Chaos::new()
                .crash_at(5 * MS, "edge1")
                .restart_at(15 * MS, "edge1"),
        ),
        (
            "the works, retrying",
            Chaos::new()
                .seed(11)
                .loss(30)
                .partition_at(2 * MS, "edge0", "cloud")
                .heal_at(6 * MS, "edge0", "cloud")
                .crash_at(10 * MS, "edge1")
                .restart_at(20 * MS, "edge1")
                .retry(RetryPolicy::Retry { max_attempts: 2 }),
        ),
    ];
    for (name, chaos) in profiles {
        assert_equivalent(name, || {
            fleet_scenario(
                ArrivalSchedule::bursty(10, 5 * MS).with_jitter(MS),
                42,
                CodeShipping::default(),
            )
            .chaos(chaos.clone())
        });
    }
}

/// Elastic pools must not cost replay either: controller ticks,
/// cold-start timers, mid-run topology growth, and drain-by-roam all ride
/// the same deterministic `(time, seq)` order, so every scale policy
/// yields bit-identical reports — scaling counters and node-seconds
/// included.
#[test]
fn elastic_pools_are_scheduler_equivalent() {
    use sod::scenario::Pool;
    use sod::ScalePolicy;

    for (name, policy) in [
        ("queue depth", ScalePolicy::QueueDepth { high: 2, low: 1 }),
        ("p99 breach", ScalePolicy::P99Breach { budget_ns: 5 * MS }),
        ("step load", ScalePolicy::StepLoad { per_node: 2 }),
    ] {
        let report = assert_equivalent(name, || {
            Scenario::new()
                .slice_ns(10_000)
                .cpu_contention(true)
                .node("edge0", NodeConfig::cluster("edge0"))
                .deploys(&fib())
                .node("edge1", NodeConfig::cluster("edge1"))
                .deploys(&fib())
                .pool(
                    Pool::new("workers")
                        .base(1)
                        .max(6)
                        .scale_policy(policy)
                        .cold_start(2 * MS),
                )
                .fleet(
                    Fleet::new("Fib", "main", vec![Value::Int(14)])
                        .programs(40)
                        .across(&["edge0", "edge1"])
                        .arrivals(ArrivalSchedule::bursty(10, 5 * MS).with_jitter(MS), 42)
                        .migrate(When::OnCpuSliceBudget(3), Plan::top_to("workers", 1)),
                )
        });
        assert_eq!(report.cluster.completed, 40, "{name}: fleet must finish");
    }
}

// ---------------------------------------------------------------------------
// Property tests: random fleets, each run twice.
// ---------------------------------------------------------------------------

/// A randomized fleet over `nodes` cluster nodes: random arrival
/// schedule, random link override, random migration trigger (or none),
/// every member homed round-robin across all nodes and offloading to the
/// last node.
fn random_fleet(
    nodes: usize,
    programs: usize,
    trigger: u8,
    schedule: u8,
    latency_us: u64,
    seed: u64,
) -> ScenarioReport {
    let class = fib();
    let names: Vec<String> = (0..nodes).map(|i| format!("n{i}")).collect();
    let mut scenario = Scenario::new().slice_ns(10_000);
    for name in &names {
        scenario = scenario
            .node(name.clone(), NodeConfig::cluster(name.clone()))
            .deploys(&class);
    }
    // One random slow link between the first and last node.
    scenario = scenario.link(
        names[0].clone(),
        names[nodes - 1].clone(),
        LinkSpec::new(latency_us * US, 100_000_000),
    );
    let schedule = match schedule % 3 {
        0 => ArrivalSchedule::uniform(MS).with_jitter(MS / 2),
        1 => ArrivalSchedule::bursty(8, 4 * MS),
        _ => ArrivalSchedule::ramp(2 * MS, 200 * US),
    };
    let across: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut fleet = Fleet::new("Fib", "main", vec![Value::Int(12)])
        .programs(programs)
        .across(&across)
        .arrivals(schedule, seed);
    let target = names[nodes - 1].clone();
    match trigger % 4 {
        0 => {} // no migration
        1 => fleet = fleet.migrate(When::At(MS + seed % MS), Plan::top_to(target, 1)),
        2 => {
            fleet = fleet.migrate(
                When::OnCpuSliceBudget(1 + seed % 3),
                Plan::top_to(target, 1),
            )
        }
        // Fib never faults on remote objects: arms but never fires, which
        // must be equivalent too.
        _ => fleet = fleet.migrate(When::OnObjectFaults(1), Plan::top_to(target, 1)),
    }
    scenario.fleet(fleet).run().expect("random fleet runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_fleets_are_scheduler_equivalent(
        nodes in 2usize..17,
        programs in 1usize..301,
        trigger in 0u8..4,
        schedule in 0u8..3,
        latency_us in 10u64..2_000,
        seed in 0u64..1_000_000,
    ) {
        let run = || random_fleet(nodes, programs, trigger, schedule, latency_us, seed);
        let report = run();
        let again = run();
        prop_assert_eq!(&report, &again, "same-seed replay diverged");

        // Every program completed and computed Fib(12); `run` checked
        // that the byte ledger balances and nothing was lost.
        prop_assert_eq!(report.cluster.completed, programs as u64);
        prop_assert!(report.programs().iter().all(|p| p.report.result == Some(144)));
        prop_assert_eq!(report.cluster.total_lost(), NetBytes::default());
    }
}
