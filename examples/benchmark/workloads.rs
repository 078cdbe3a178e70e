//! The four benchmark workloads: guest authoring, scenario construction,
//! host-computed oracles and mechanism guards.
//!
//! Each workload exists to load a different set of layers (see the `why`
//! strings and README.md): `fleet-compute` is interpreter-bound and is the
//! "no change" control for queue/codec/handler work, `fleet-parallel` is
//! the same simulated work under the threaded drain, `object-storm` is
//! message-bound through the object manager, and `stack-churn` ships few,
//! large whole-stack frames under pool scaling and message loss.

use sod::asm::builder::ClassBuilder;
use sod::net::{MS, US};
use sod::runtime::{FetchPolicy, NodeConfig};
use sod::scenario::{Chaos, Fleet, Plan, Pool, Scenario, ScenarioReport, When};
use sod::vm::class::ClassDef;
use sod::vm::instr::Cmp;
use sod::vm::value::{TypeOf, Value};
use sod::workloads::programs::fib_class;
use sod::{ArrivalSchedule, RetryPolicy, ScalePolicy, Scheduler};

use crate::stats::median_u64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    FleetCompute,
    FleetParallel,
    ObjectStorm,
    StackChurn,
}

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    /// Guest programs per rep at full size (one program = one operation).
    pub programs: usize,
    /// Guest programs per rep under `--check`.
    pub check_programs: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::FleetCompute,
        name: "fleet-compute",
        why: "2000 Fib(16) programs: the interpreter does nearly all the work, so it is the \
              no-change control for codec, handler and queue work",
        programs: 2000,
        check_programs: 40,
    },
    Workload {
        kind: Kind::FleetParallel,
        name: "fleet-parallel",
        why: "the same fleet drained on 2 threads: wall_s minus fleet-compute's is pure \
              split/absorb/merge cost, and the report must equal fleet-compute's",
        programs: 2000,
        check_programs: 40,
    },
    Workload {
        kind: Kind::ObjectStorm,
        name: "object-storm",
        why: "30000 shallow object faults plus dirty flushes: object manager, object codec, \
              event queue and worker heap do the work, the interpreter little",
        programs: STORM_PAIRS * 30,
        check_programs: STORM_PAIRS * 3,
    },
    Workload {
        kind: Kind::StackChurn,
        name: "stack-churn",
        why: "whole 129-frame stacks migrate to an autoscaled pool under 3% message loss: \
              capture/restore, state codec, pool and retry paths with few, large frames",
        programs: 2000,
        check_programs: 300,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Fib argument of the reference fleet (`sod_bench::scale::run_scale_fleet`).
const FIB_N: i64 = 16;
/// Disjoint home→worker pairs in `object-storm`. They must stay disjoint:
/// the worker's object cache is keyed by `home_id` alone
/// (`Heap::find_cached`), and ids collide across homes (see README.md).
const STORM_PAIRS: usize = 4;
/// Linked-list length each `object-storm` program builds and walks.
const STORM_NODES: i64 = 250;
/// Spin iterations before the list walk, so the 6-slice CPU budget trips
/// after the list is built and before the first remote read.
const STORM_SPIN: i64 = 3000;
/// Recursion depth of `stack-churn`'s guest (129 frames at the bottom).
const CHURN_DEPTH: i64 = 128;
/// Spin iterations at the bottom of the recursion, so the 3-slice budget
/// (two normal 2 us slices; the descent takes 2.3 us) trips with the whole
/// stack built.
const CHURN_SPIN: i64 = 400;

/// Where and how a workload's programs migrate — what the layer replays
/// need to reach the same capture point on a standalone VM.
pub struct MigrationPoint {
    pub slice_ns: u64,
    pub budget_slices: u64,
    pub whole_stack: bool,
}

fn list_class() -> ClassDef {
    ClassBuilder::new("L")
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
            // The write that makes every fetched object dirty; it lands
            // after the read, so the sum stays the oracle's.
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
        .expect("list guest verifies")
}

fn deep_class() -> ClassDef {
    ClassBuilder::new("Deep")
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
        .expect("deep guest verifies")
}

impl Workload {
    /// Author the guest class (before preprocessing).
    pub fn author(&self) -> ClassDef {
        match self.kind {
            Kind::FleetCompute | Kind::FleetParallel => fib_class(),
            Kind::ObjectStorm => list_class(),
            Kind::StackChurn => deep_class(),
        }
    }

    /// `(class, method, args)` every program of the workload runs.
    pub fn entry(&self) -> (&'static str, &'static str, Vec<Value>) {
        match self.kind {
            Kind::FleetCompute | Kind::FleetParallel => ("Fib", "main", vec![Value::Int(FIB_N)]),
            Kind::ObjectStorm => (
                "L",
                "main",
                vec![Value::Int(STORM_NODES), Value::Int(STORM_SPIN)],
            ),
            Kind::StackChurn => (
                "Deep",
                "down",
                vec![Value::Int(CHURN_DEPTH), Value::Int(CHURN_SPIN)],
            ),
        }
    }

    /// The result every program must return, computed on the host.
    pub fn oracle(&self) -> i64 {
        match self.kind {
            Kind::FleetCompute | Kind::FleetParallel => {
                let (mut a, mut b) = (0i64, 1i64);
                for _ in 0..FIB_N {
                    (a, b) = (b, a + b);
                }
                a
            }
            Kind::ObjectStorm => STORM_NODES * (STORM_NODES - 1) / 2,
            Kind::StackChurn => CHURN_DEPTH + 1,
        }
    }

    pub fn migration_point(&self) -> MigrationPoint {
        match self.kind {
            Kind::FleetCompute | Kind::FleetParallel => MigrationPoint {
                slice_ns: 10_000,
                budget_slices: 3,
                whole_stack: false,
            },
            Kind::ObjectStorm => MigrationPoint {
                slice_ns: 5_000,
                budget_slices: 6,
                whole_stack: false,
            },
            Kind::StackChurn => MigrationPoint {
                slice_ns: 2_000,
                budget_slices: 3,
                whole_stack: true,
            },
        }
    }

    /// Arrival schedule of one fleet of the workload, and how many
    /// programs each fleet holds when the rep runs `programs` in all
    /// (`object-storm` runs one fleet per home/worker pair).
    pub fn arrivals(&self, programs: usize) -> (ArrivalSchedule, usize) {
        match self.kind {
            Kind::FleetCompute | Kind::FleetParallel => {
                (ArrivalSchedule::uniform(2 * MS).with_jitter(MS), programs)
            }
            Kind::ObjectStorm => (
                ArrivalSchedule::uniform(250 * US).with_jitter(125 * US),
                programs / STORM_PAIRS,
            ),
            Kind::StackChurn => (
                ArrivalSchedule::bursty(20, 15 * MS).with_jitter(MS),
                programs,
            ),
        }
    }

    /// The scheduler the workload runs under: the default sharded queue,
    /// except `fleet-parallel`, which drains on 2 threads (never more
    /// than the host has cores).
    pub fn scheduler(&self, host_cores: usize) -> Scheduler {
        match self.kind {
            Kind::FleetParallel => Scheduler::Parallel {
                threads: host_cores.clamp(1, 2),
            },
            _ => Scheduler::Sharded,
        }
    }

    /// Build the `Scenario` value up to, not including, `run()`. Every
    /// random input (arrival jitter) derives from `seed`.
    pub fn build(
        &self,
        class: &ClassDef,
        programs: usize,
        seed: u64,
        scheduler: Scheduler,
    ) -> Scenario {
        let (cls, method, args) = self.entry();
        let mp = self.migration_point();
        let (schedule, per_fleet) = self.arrivals(programs);
        let sc = Scenario::new().slice_ns(mp.slice_ns).scheduler(scheduler);
        match self.kind {
            // The ROADMAP's reference fleet, exactly as
            // `sod_bench::scale::run_scale_fleet` builds it.
            Kind::FleetCompute | Kind::FleetParallel => sc
                .node("edge0", NodeConfig::cluster("edge0"))
                .deploys(class)
                .node("edge1", NodeConfig::cluster("edge1"))
                .deploys(class)
                .node("cloud", NodeConfig::cloud("cloud"))
                .fleet(
                    Fleet::new(cls, method, args)
                        .programs(per_fleet)
                        .across(&["edge0", "edge1"])
                        .arrivals(schedule, seed)
                        .migrate(
                            When::OnCpuSliceBudget(mp.budget_slices),
                            Plan::top_to("cloud", 1),
                        ),
                ),
            Kind::ObjectStorm => {
                let mut sc = sc;
                for pair in 0..STORM_PAIRS {
                    let (edge, cloud) = (format!("edge{pair}"), format!("cloud{pair}"));
                    sc = sc
                        .node(edge.clone(), NodeConfig::cluster(edge.clone()))
                        .deploys(class)
                        .node(cloud.clone(), NodeConfig::cloud(cloud.clone()));
                }
                for pair in 0..STORM_PAIRS {
                    let (edge, cloud) = (format!("edge{pair}"), format!("cloud{pair}"));
                    sc = sc.fleet(
                        Fleet::new(cls, method, args.clone())
                            .programs(per_fleet)
                            .across(&[edge.as_str()])
                            .arrivals(schedule, seed.wrapping_add(pair as u64))
                            .fetch_policy(FetchPolicy::Shallow)
                            .migrate(
                                When::OnCpuSliceBudget(mp.budget_slices),
                                Plan::top_to(cloud, 1),
                            ),
                    );
                }
                sc
            }
            Kind::StackChurn => sc
                .cpu_contention(true)
                .node("edge0", NodeConfig::cluster("edge0"))
                .deploys(class)
                .node("edge1", NodeConfig::cluster("edge1"))
                .deploys(class)
                .pool(
                    Pool::new("workers")
                        .base(1)
                        .max(8)
                        .scale_policy(ScalePolicy::QueueDepth { high: 2, low: 1 })
                        .cold_start(2 * MS),
                )
                .fleet(
                    Fleet::new(cls, method, args)
                        .programs(per_fleet)
                        .across(&["edge0", "edge1"])
                        .arrivals(schedule, seed)
                        .migrate(
                            When::OnCpuSliceBudget(mp.budget_slices),
                            Plan::whole_stack_to("workers"),
                        ),
                )
                .chaos(
                    Chaos::new()
                        .seed(5)
                        .loss(30)
                        .retry(RetryPolicy::Retry { max_attempts: 3 }),
                ),
        }
    }

    /// Programs of `report` that failed: a typed error, or a result that
    /// differs from the host-computed oracle.
    pub fn failed_programs(&self, report: &ScenarioReport) -> usize {
        let want = Some(self.oracle());
        report
            .programs()
            .iter()
            .filter(|p| p.error.is_some() || p.report.result != want)
            .count()
    }

    /// Mechanism guards: the workload must exercise the layers it claims
    /// to. Returns one line per violated guard.
    pub fn mechanism_violations(&self, report: &ScenarioReport, programs: usize) -> Vec<String> {
        let mut bad = Vec::new();
        let mut require = |ok: bool, what: String| {
            if !ok {
                bad.push(what);
            }
        };
        let c = &report.cluster;
        require(
            c.launched == programs as u64 && report.programs().len() == programs,
            format!("launched {} programs, expected {programs}", c.launched),
        );
        let migrated = report
            .programs()
            .iter()
            .filter(|p| !p.report.migrations.is_empty())
            .count();
        require(
            migrated == programs,
            format!("only {migrated} of {programs} programs migrated"),
        );
        match self.kind {
            Kind::FleetCompute | Kind::FleetParallel => {}
            Kind::ObjectStorm => {
                let faults: u64 = report
                    .programs()
                    .iter()
                    .map(|p| p.report.object_faults)
                    .sum();
                let want = programs as u64 * STORM_NODES as u64;
                require(
                    faults == want,
                    format!("{faults} object faults, expected programs x {STORM_NODES} = {want}"),
                );
                require(
                    report
                        .programs()
                        .iter()
                        .all(|p| p.report.object_faults == STORM_NODES as u64),
                    format!("a program did not fault in exactly {STORM_NODES} objects"),
                );
            }
            Kind::StackChurn => {
                // A whole-stack plan ships a 1-frame top segment and the
                // rest of the stack; judge each program by its largest.
                let mut largest: Vec<u64> = report
                    .programs()
                    .iter()
                    .map(|p| {
                        let sizes = p.report.migrations.iter().map(|m| m.state_bytes);
                        sizes.max().unwrap_or(0)
                    })
                    .collect();
                let median = median_u64(&mut largest);
                require(
                    median >= 3 * 1024,
                    format!("median largest state frame {median} B < 3 KiB: not whole stacks"),
                );
                require(c.chaos.dropped_msgs > 0, "no message was dropped".into());
                require(c.chaos.retries > 0, "no migration was retried".into());
                let spawns: u64 = c.pools.iter().map(|p| p.spawns).sum();
                require(spawns > 0, "the pool never scaled out".into());
            }
        }
        bad
    }
}
