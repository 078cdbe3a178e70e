//! The scenario corpus: every shape the determinism contract is checked
//! on, as one table of named rows, and the relations each row must hold.
//!
//! A migrated program computes what it would have computed at home, and
//! every run is a pure function of its scenario and seed. So each row of
//! [`ROWS`] holds three relations:
//!
//! * **replay** — a same-seed rerun is `==` (the full `ScenarioReport`:
//!   results, timings, byte ledger, per-node counts, chaos and pool
//!   counters). The rerun is stepped by hand, noting the `Msg` variant of
//!   every delivery;
//! * **reference** — the reference VM (`slow_resolve`: cold caches, no
//!   fused rows) is `==`, so the fast path changes host time only;
//! * **digest** — the run prints its committed line of
//!   `tests/corpus_digests.txt`: readable headline numbers, the variants
//!   delivered, and an FNV-64 of the report's `Debug` print.
//!
//! Each row runs once per process: [`report`] holds its first run, the
//! tests at the end of this file check every relation on every row against
//! it, and the suites that assert row facts read them from it. Those suites
//! are modules of this binary (`tests/corpus/`), so they share its runs;
//! run one with `cargo test -p sod-repro --test corpus chaos_determinism::`.

#[path = "corpus/chaos_determinism.rs"]
mod chaos_determinism;
#[path = "corpus/codec_equivalence.rs"]
mod codec_equivalence;
#[path = "corpus/elastic_determinism.rs"]
mod elastic_determinism;
#[path = "corpus/fleet_determinism.rs"]
mod fleet_determinism;
#[path = "corpus/forgery_sweep.rs"]
mod forgery_sweep;
#[path = "corpus/interp_equivalence.rs"]
mod interp_equivalence;
#[path = "corpus/objects_row.rs"]
mod objects_row;
#[path = "corpus/scenario_equivalence.rs"]
mod scenario_equivalence;
#[path = "corpus/scheduler_equivalence.rs"]
mod scheduler_equivalence;

use objects_row::objects;
use sod::asm::builder::ClassBuilder;
use sod::net::{LinkSpec, MS, SEC, US};
use sod::preprocess::preprocess_sod;
use sod::runtime::metrics::RunReport;
use sod::runtime::{FetchPolicy, Msg, NodeConfig, RetryPolicy};
use sod::scenario::{Chaos, Fleet, Plan, Pool, Preset, Scenario, ScenarioReport, When};
use sod::vm::class::ClassDef;
use sod::vm::instr::Cmp;
use sod::vm::value::{TypeOf, Value};
use sod::workloads::apps::search_class;
use sod::workloads::programs::{fib_class, handler_fleet_classes, handler_fleet_expected};
use sod::{ArrivalSchedule, CodeShipping, ScalePolicy};
use std::fmt::Debug;
use std::fs;
use std::sync::OnceLock;

/// The committed digest lines, one per row, in [`ROWS`] order.
const DIGESTS: &str = include_str!("corpus_digests.txt");

/// The one command that rewrites `tests/corpus_digests.txt`.
const REGENERATE: &str =
    "cargo test --release -p sod-repro --test corpus -- --ignored regenerate_corpus_digests";

/// A named scenario; `build` takes the seed (a row without one ignores it).
struct Row {
    name: &'static str,
    seed: Option<u64>,
    build: fn(u64) -> Scenario,
}

macro_rules! rows {
    ($($name:literal $seed:expr => $build:expr,)*) => {
        /// Every row, in digest-file order.
        const ROWS: &[Row] = &[$(Row { name: $name, seed: $seed, build: $build }),*];
    };
}

rows! {
    "home_only" None => |_| fib_on_home(&["worker"], None),
    "single_migration" None => |_| fib_on_home(&["worker"], Some(Plan::top_to("worker", 2))),
    "chain" None => |_| fib_on_home(&["w0", "w1"], Some(Plan::chain(&[("w0", 1), ("w1", 2)]))),
    "whole_stack" None => |_| fib_on_home(&["worker"], Some(Plan::whole_stack_to("worker"))),
    "roaming" None => |_| search(1),
    "nfs_pulls" None => |_| search(0),
    "on_oom" None => |_| on_oom(),
    "client_requests" None => |_| client_requests(),
    "counter_loop" None => |_| counter_loop(),
    "returned_object" None => |_| returned_object(),
    "arrivals_uniform" Some(42) => |s| fleet40(ArrivalSchedule::uniform(2 * MS).with_jitter(MS), s),
    "arrivals_bursty" Some(42) => |s| fleet40(ArrivalSchedule::bursty(10, 5 * MS).with_jitter(MS), s),
    "arrivals_ramp" Some(42) => |s| fleet40(ArrivalSchedule::ramp(4 * MS, 500 * US), s),
    "shipping_top" Some(42) => |s| fleet(s, 30, CodeShipping::BundleTop),
    "shipping_always" Some(42) => |s| fleet(s, 30, CodeShipping::BundleAlways),
    "shipping_reachable" Some(42) => |s| fleet(s, 30, CodeShipping::BundleReachable),
    "shipping_never" Some(42) => |s| fleet(s, 30, CodeShipping::Never),
    "fleet_lossy" Some(42) => |s| fleet(s, 30, CodeShipping::BundleTop).chaos(Chaos::new().seed(5).loss(80)),
    "fleet_120" Some(42) => |s| fleet(s, 120, CodeShipping::BundleTop),
    "objects_shallow" Some(42) => |s| objects(s, FetchPolicy::Shallow),
    "objects_deep" Some(42) => |s| objects(s, FetchPolicy::Deep),
    "objects_lossy" Some(42) => |s| objects(s, FetchPolicy::Shallow).chaos(Chaos::new().seed(5).loss(80)),
    "chaos_fallback" Some(7) => |s| chaos_fleet(s, RetryPolicy::FallbackToHome),
    "chaos_retry" Some(7) => |s| chaos_fleet(s, RetryPolicy::Retry { max_attempts: 3 }),
    "chaos_loss_partition" Some(42) => |s| fleet40(ArrivalSchedule::bursty(10, 5 * MS).with_jitter(MS), s)
        .chaos(Chaos::new().seed(11).loss(30).partition_at(2 * MS, "edge0", "cloud").heal_at(6 * MS, "edge0", "cloud")),
    "pool_queue_depth" Some(42) => |s| pool_fleet(s, ScalePolicy::QueueDepth { high: 2, low: 1 }),
    "pool_p99" Some(42) => |s| pool_fleet(s, ScalePolicy::P99Breach { budget_ns: 5 * MS }),
    "pool_step_load" Some(42) => |s| pool_fleet(s, ScalePolicy::StepLoad { per_node: 2 }),
    "pool_crashed_member" Some(42) => pool_crashed_member,
    "pool_burst" Some(42) => pool_burst,
    "object_walk" None => |_| object_walk(),
    "handler_mul" Some(42) => handler_mul,
}

/// The first program's result and migration count.
pub fn outcome(r: &ScenarioReport) -> (Option<i64>, usize) {
    (r.first().result, r.first().migrations.len())
}

/// The index of the row named `name` in [`ROWS`].
fn index(name: &str) -> usize {
    let i = ROWS.iter().position(|r| r.name == name);
    i.unwrap_or_else(|| panic!("no corpus row named {name:?}"))
}

/// The row's scenario at its own seed.
pub fn scenario(name: &str) -> Scenario {
    let row = &ROWS[index(name)];
    (row.build)(row.seed.unwrap_or(0))
}

/// Each row's first run, in [`ROWS`] order.
static RUNS: [OnceLock<ScenarioReport>; ROWS.len()] = [const { OnceLock::new() }; ROWS.len()];

/// Row `name`'s report: its first run in this process, which every
/// relation is checked against.
pub fn report(name: &str) -> &'static ScenarioReport {
    RUNS[index(name)].get_or_init(|| run(name, scenario(name)))
}

/// The row run at another seed, and whether its report differs from the
/// one its committed line digests.
pub fn reseeded(name: &str, seed: u64) -> (ScenarioReport, bool) {
    let row = &ROWS[index(name)];
    let report = run(name, (row.build)(seed));
    let moved = fnv_of(&report) != field(committed(name), "fnv");
    (report, moved)
}

/// Panic unless `left == right`, naming `what`, the first line at which
/// their `{:#?}` prints differ and the lines above it that open the
/// fields it sits in: its path, not two whole reports.
#[track_caller]
pub fn assert_same<T: PartialEq + Debug>(left: &T, right: &T, what: &str) {
    if left == right {
        return;
    }
    let (l, r) = (format!("{left:#?}"), format!("{right:#?}"));
    let (l, r): (Vec<&str>, Vec<&str>) = (l.lines().collect(), r.lines().collect());
    let at = l.iter().zip(&r).position(|(a, b)| a != b);
    let at = at.unwrap_or(l.len().min(r.len()));
    let indent = |line: &&str| line.len() - line.trim_start().len();
    let mut depth = l.get(at).or(r.get(at)).map_or(0, indent);
    let mut path = Vec::new();
    for line in l[..at].iter().rev() {
        if depth == 0 {
            break;
        }
        if indent(line) < depth {
            depth = indent(line);
            path.push(line.trim());
        }
    }
    path.reverse();
    let line = |side: &[&str]| side.get(at).map_or("(ended)", |l| l.trim()).to_string();
    panic!(
        "{what}: the prints first differ at line {at}, under {}:\n  left:  {}\n  right: {}",
        path.join(" "),
        line(&l),
        line(&r)
    );
}

fn run(label: &str, scenario: Scenario) -> ScenarioReport {
    let report = scenario.run();
    report.unwrap_or_else(|e| panic!("{label}: run failed: {e}"))
}

/// Replay and reference on a scenario outside the table (a property
/// test's random one). Returns the report.
pub fn relations(label: &str, build: impl Fn() -> Scenario) -> ScenarioReport {
    let first = run(label, build());
    assert_same(&first, &run(label, build()), &format!("replay: {label}"));
    let slow = run(label, build().slow_resolve(true));
    assert_same(&first, &slow, &format!("reference: {label}"));
    first
}

/// Every `Msg` variant, in [`variant`]'s order: bit `i` of a digest
/// line's `msgs=` is the `i`-th.
const MSGS: &str = "StartProgram MigrateNow RunSlice HostDone CaptureDone BeginRestore \
    MigrationTimeout PoolTick PoolReady State ClassRequest ClassReply ObjectRequest ObjectReply \
    Flush FlushAck SegmentReturn FsRead FsData ClientRequest";

/// Run `scenario` one delivery at a time, as `run` does, noting the
/// variant of each delivered message as a bit of [`MSGS`].
pub fn stepped(label: &str, scenario: Scenario) -> (ScenarioReport, u32) {
    let mut msgs = 0u32;
    let report = scenario.run_with(|sim| {
        while let Some(bit) = sim.sim.choices().first().map(|c| 1 << variant(c.msg)) {
            msgs |= bit;
            sim.sim.step();
        }
    });
    (
        report.unwrap_or_else(|e| panic!("{label}: run failed: {e}")),
        msgs,
    )
}

/// The index of `m`'s variant in [`MSGS`]. A new variant fails to compile
/// here: give it the next index, and its name at the end of [`MSGS`].
fn variant(m: &Msg) -> u32 {
    match m {
        Msg::StartProgram { .. } => 0,
        Msg::MigrateNow { .. } => 1,
        Msg::RunSlice { .. } => 2,
        Msg::HostDone { .. } => 3,
        Msg::CaptureDone { .. } => 4,
        Msg::BeginRestore { .. } => 5,
        Msg::MigrationTimeout { .. } => 6,
        Msg::PoolTick { .. } => 7,
        Msg::PoolReady { .. } => 8,
        Msg::State(_) => 9,
        Msg::ClassRequest { .. } => 10,
        Msg::ClassReply { .. } => 11,
        Msg::ObjectRequest { .. } => 12,
        Msg::ObjectReply { .. } => 13,
        Msg::Flush { .. } => 14,
        Msg::FlushAck { .. } => 15,
        Msg::SegmentReturn { .. } => 16,
        Msg::FsRead { .. } => 17,
        Msg::FsData { .. } => 18,
        Msg::ClientRequest { .. } => 19,
    }
}

/// The committed digest line of row `name`.
pub fn committed(name: &str) -> &'static str {
    let line = DIGESTS.lines().find(|l| l.split(' ').next() == Some(name));
    line.unwrap_or_else(|| panic!("{name}: no line in tests/corpus_digests.txt; {REGENERATE}"))
}

/// The value of `key=` on a digest line.
pub fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let value = line
        .split(' ')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='));
    value.unwrap_or_else(|| panic!("no {key}= on {line:?}"))
}

/// The state, class and object counts of `key=` on row `name`'s line.
pub fn counts(name: &str, key: &str) -> [u64; 3] {
    let value = field(committed(name), key);
    let mut counts = value.split('/').map(|c| c.parse().expect("a count"));
    [(); 3].map(|()| counts.next().expect("three counts"))
}

/// A row's digest line: name, seed, programs done of launched, bytes sent,
/// lost and accounted (state/class/object), object faults, p50, p99 and
/// makespan in ns, events per node, the variants delivered (bits of
/// [`MSGS`]) and the FNV-64 of the report's `Debug` print.
fn digest_line(row: &Row, r: &ScenarioReport, msgs: u32) -> String {
    let (cl, programs) = (&r.cluster, r.programs().iter().map(|p| &p.report));
    let sum = |f: fn(&RunReport) -> u64| programs.clone().map(f).sum::<u64>();
    let acc_state = sum(|p| p.migrations.iter().map(|m| m.state_bytes).sum());
    let (acc_class, acc_object) = (sum(|p| p.class_bytes), sum(|p| p.object_bytes));
    let (sent, lost) = (cl.total_sent(), cl.total_lost());
    let events: Vec<String> = cl
        .per_node
        .iter()
        .map(|n| format!("{}:{}", n.name, n.events))
        .collect();
    format!(
        "{} seed={} done={}/{} sent={}/{}/{} lost={}/{}/{} acc={acc_state}/{acc_class}/{acc_object} \
         faults={} p50={} p99={} makespan={} events={} msgs={msgs:05x} fnv={}",
        row.name, row.seed.map_or("-".into(), |s| s.to_string()), cl.completed, cl.launched,
        sent.state, sent.class, sent.object, lost.state, lost.class, lost.object,
        sum(|p| p.object_faults), cl.p50_latency_ns, cl.p99_latency_ns, cl.makespan_ns,
        events.join(","), fnv_of(r),
    )
}

/// FNV-1a, 64-bit, of the report's `Debug` print: the same hash on every
/// host and toolchain.
fn fnv_of(r: &ScenarioReport) -> String {
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    format!(
        "{:016x}",
        format!("{r:?}").bytes().fold(0xcbf2_9ce4_8422_2325, fnv)
    )
}

// ---------------------------------------------------------------------------
// Builders.
// ---------------------------------------------------------------------------

/// Recursive Fibonacci, preprocessed for SOD.
pub fn fib() -> ClassDef {
    preprocess_sod(&fib_class()).expect("preprocess fib")
}

/// A class from `build`, preprocessed for SOD.
fn sod_class(build: ClassBuilder) -> ClassDef {
    preprocess_sod(&build.build().expect("valid class")).expect("preprocess")
}

/// Fib(16) at `home` beside the `workers`, moved by `plan` at 50 µs.
fn fib_on_home(workers: &[&str], plan: Option<Plan>) -> Scenario {
    let mut sc = Scenario::new().slice_ns(10_000);
    sc = sc.node("home", NodeConfig::cluster("home")).deploys(&fib());
    for &name in workers {
        sc = sc.node(name, NodeConfig::cluster(name));
    }
    let sc = sc.program("Fib", "main", vec![Value::Int(16)]).on("home");
    match plan {
        Some(plan) => sc.migrate(When::At(50 * US), plan),
        None => sc,
    }
}

/// A search over three WAN file servers' files (paper §IV.C, trimmed):
/// `roam` 1 hops to each server in turn, 0 pulls the files over NFS.
fn search(roam: i64) -> Scenario {
    let class = preprocess_sod(&search_class()).expect("preprocess search");
    let mut sc = Scenario::new().topology(Preset::WanGrid);
    sc = sc
        .node("client", NodeConfig::cluster("client"))
        .deploys(&class);
    for i in 0..3 {
        sc = sc.node(format!("srv{i}"), NodeConfig::cluster(format!("srv{i}")));
        sc = sc.file(format!("/srv/{i}/doc.txt"), 1 << 20, Some(9));
    }
    for i in 0..3 {
        let (prefix, server) = (format!("/srv/{i}/"), format!("srv{i}"));
        sc = sc.mount_on("client", &prefix, &server);
        for j in (0..3).filter(|&j| j != i) {
            sc = sc.mount_on(format!("srv{j}"), &prefix, &server);
        }
    }
    let args = vec![Value::Int(3), Value::Int(roam), Value::Int(1)];
    sc.program("Search", "main", args).on("client")
}

/// An allocation that overflows a 4 MiB device heap: `When::OnOom`
/// rescues the whole stack onto the cloud. OOM timing depends on the exact
/// heap shape, so one extra allocation moves every later timestamp.
fn on_oom() -> Scenario {
    let class = ClassBuilder::new("Big")
        .method("alloc", &["n"], |m| {
            m.line().load("n").newarr().store("a");
            m.line().load("a").arrlen().retv();
        })
        .method("main", &["n"], |m| {
            m.line().load("n").invoke("Big", "alloc", 1).store("r");
            m.line().load("r").retv();
        });
    let mut phone = NodeConfig::device("phone");
    phone.mem_limit = Some(4 << 20);
    Scenario::new()
        .node("phone", phone)
        .deploys(&sod_class(class))
        .node("cloud", NodeConfig::cloud("cloud"))
        .link("phone", "cloud", LinkSpec::wifi_kbps(764))
        .program("Big", "main", vec![Value::Int(2_000_000)])
        .on("phone")
        .migrate(When::OnOom, Plan::whole_stack_to("cloud"))
}

/// The photo-share accept queue: five client requests park and wake the
/// server's thread, so delivery interleaving is visible in the result.
fn client_requests() -> Scenario {
    let class = ClassBuilder::new("Srv").method("main", &["n"], |m| {
        m.line().pushi(0).store("i").pushi(0).store("acc");
        m.line().label("loop");
        m.load("i").load("n").if_cmp(Cmp::Ge, "done");
        m.line().native("sock_accept", 0).store("req");
        m.line().load("acc").pushi(1).add().store("acc");
        m.line().load("i").pushi(1).add().store("i").goto("loop");
        m.line().label("done").load("acc").retv();
    });
    Scenario::new()
        .node("srv", NodeConfig::cluster("srv"))
        .deploys(&sod_class(class))
        .program("Srv", "main", vec![Value::Int(5)])
        .on("srv")
        .client_requests("srv", 5, ArrivalSchedule::uniform(MS), 3, "req-")
}

/// A counter bumped through a virtual call, with a string literal pushed
/// per iteration: one site of every inline-cache kind, on two nodes.
fn counter_loop() -> Scenario {
    let class = ClassBuilder::new("Counter")
        .field("n", TypeOf::Int)
        .vmethod("bump", &[], |m| {
            m.line().load("this").getfield("n");
            m.pushi(1).add().store("t");
            m.line().load("this").load("t").putfield("n");
            m.line().pushi(0).retv();
        })
        .method("main", &["iters"], |m| {
            m.line().new_obj("Counter").store("c");
            m.line().pushi(0).store("i");
            m.line().label("loop");
            m.load("i").load("iters").if_cmp(Cmp::Ge, "done");
            m.line().load("c").invokev("bump", 1).pop();
            m.line().pushstr("tick").pop();
            m.line().load("i").pushi(1).add().store("i").goto("loop");
            m.line().label("done").load("c").getfield("n").retv();
        });
    let class = sod_class(class);
    Scenario::new()
        .slice_ns(10_000)
        .node("home", NodeConfig::cluster("home"))
        .deploys(&class)
        .node("worker", NodeConfig::cluster("worker"))
        .deploys(&class)
        .program("Counter", "main", vec![Value::Int(200)])
        .on("worker")
        .program("Counter", "main", vec![Value::Int(300)])
        .on("home")
}

/// `build` allocates an object per iteration on the worker it was moved
/// to and returns the last: the home assigns it a master id (a flush, then
/// `FlushAck`) before the return value travels.
fn returned_object() -> Scenario {
    let class = ClassBuilder::new("Box")
        .field("v", TypeOf::Int)
        .method("build", &["n"], |m| {
            m.line().pushi(0).store("i");
            m.line().label("loop").new_obj("Box").store("o");
            m.line().load("o").load("i").putfield("v");
            m.line().load("i").pushi(1).add().store("i");
            m.load("i").load("n").if_cmp(Cmp::Lt, "loop");
            m.line().load("o").retv();
        })
        .method("main", &["n"], |m| {
            m.line().load("n").invoke("Box", "build", 1).store("o");
            m.line().load("o").getfield("v").retv();
        });
    Scenario::new()
        .slice_ns(10_000)
        .node("home", NodeConfig::cluster("home"))
        .deploys(&sod_class(class))
        .node("worker", NodeConfig::cluster("worker"))
        .program("Box", "main", vec![Value::Int(2_000)])
        .on("home")
        .migrate(When::At(50 * US), Plan::top_to("worker", 1))
}

/// `main(n)` links `n` objects holding 1..n at home; `walk` moves itself
/// to the worker (`sod_move`) and sums them there, one fault per object:
/// replies to distinct faults of one session.
fn object_walk() -> Scenario {
    let class = ClassBuilder::new("Link")
        .field("val", TypeOf::Int)
        .field("next", TypeOf::Ref)
        .method("walk", &["head"], |m| {
            m.line().pushi(1).native("sod_move", 1).pop();
            m.line().pushi(0).store("acc");
            m.line().label("loop").load("head").ifnull("done");
            m.line().load("acc").load("head").getfield("val").add();
            m.store("acc");
            m.line().load("head").getfield("next").store("head");
            m.goto("loop");
            m.line().label("done").load("acc").retv();
        })
        .method("main", &["n"], |m| {
            m.line().pushnull().store("head");
            m.line().label("loop").load("n").ifz(Cmp::Le, "done");
            m.line().new_obj("Link").store("o");
            m.line().load("o").load("n").putfield("val");
            m.line().load("o").load("head").putfield("next");
            m.line().load("o").store("head");
            m.line().load("n").pushi(1).sub().store("n").goto("loop");
            m.line()
                .label("done")
                .load("head")
                .invoke("Link", "walk", 1);
            m.retv();
        });
    Scenario::new()
        .slice_ns(10_000)
        .node("home", NodeConfig::cluster("home"))
        .deploys(&sod_class(class))
        .node("worker", NodeConfig::cluster("worker"))
        .program("Link", "main", vec![Value::Int(4)])
        .on("home")
}

/// Iterations of `Kernel.work`'s loop in [`handler_mul`].
const HANDLER_N: i64 = 2_000;

/// Four requests to the code-shipping handler (`Gateway.main` calls
/// `Kernel.work`, whose loop multiplies, then `Mix.finish`), each moving
/// `Kernel.work` to the cold cloud after two 10 µs slices at home: `Mul`
/// runs at home and on the migrated path, and the cloud fetches `Mix` on
/// demand.
fn handler_mul(seed: u64) -> Scenario {
    let mut sc = Scenario::new()
        .slice_ns(10_000)
        .node("edge0", NodeConfig::cluster("edge0"));
    for class in handler_fleet_classes() {
        sc = sc.deploys(&preprocess_sod(&class).expect("preprocess handler"));
    }
    let fleet = Fleet::new("Gateway", "main", vec![Value::Int(HANDLER_N)]).programs(4);
    let fleet = fleet
        .across(&["edge0"])
        .arrivals(ArrivalSchedule::uniform(2 * MS), seed);
    sc.node("cloud", NodeConfig::cloud("cloud"))
        .fleet(fleet.migrate(When::OnCpuSliceBudget(2), Plan::top_to("cloud", 1)))
}

/// Fib(`n`) requests on two edges, each offloading its top frame to the
/// cloud after three 10 µs slices at home.
fn edge_fleet(n: i64, programs: usize, schedule: ArrivalSchedule, seed: u64) -> Scenario {
    let fleet = Fleet::new("Fib", "main", vec![Value::Int(n)]).programs(programs);
    let fleet = fleet.across(&["edge0", "edge1"]).arrivals(schedule, seed);
    Scenario::new()
        .slice_ns(10_000)
        .node("edge0", NodeConfig::cluster("edge0"))
        .deploys(&fib())
        .node("edge1", NodeConfig::cluster("edge1"))
        .deploys(&fib())
        .node("cloud", NodeConfig::cloud("cloud"))
        .fleet(fleet.migrate(When::OnCpuSliceBudget(3), Plan::top_to("cloud", 1)))
}

/// Forty Fib(14) requests under `schedule`.
fn fleet40(schedule: ArrivalSchedule, seed: u64) -> Scenario {
    edge_fleet(14, 40, schedule, seed)
}

/// Fib(16) requests in bursts of 40 every 20 ms, shipping code by `policy`.
fn fleet(seed: u64, programs: usize, policy: CodeShipping) -> Scenario {
    let bursts = ArrivalSchedule::bursty(40, 20 * MS).with_jitter(MS);
    edge_fleet(16, programs, bursts, seed).code_shipping(policy)
}

/// Sixty Fib(14) requests under 5 % loss drawn from `chaos_seed`, an
/// edge0–cloud partition window and an edge1 crash/restart pair.
fn chaos_fleet(chaos_seed: u64, policy: RetryPolicy) -> Scenario {
    let chaos = Chaos::new().seed(chaos_seed).loss(50).retry(policy);
    let chaos = chaos.partition_at(5 * MS, "edge0", "cloud");
    let chaos = chaos.heal_at(12 * MS, "edge0", "cloud");
    let chaos = chaos
        .crash_at(20 * MS, "edge1")
        .restart_at(30 * MS, "edge1");
    let bursts = ArrivalSchedule::bursty(20, 15 * MS).with_jitter(MS);
    edge_fleet(14, 60, bursts, 42).chaos(chaos)
}

/// Fib(`n`) `fleet` from the `edges` onto the autoscaled pool `workers`
/// after `budget` slices, with CPU contention on so sessions queue.
fn pooled(edges: &[&str], pool: Pool, fleet: Fleet, budget: u64) -> Scenario {
    let mut sc = Scenario::new().slice_ns(10_000).cpu_contention(true);
    for &edge in edges {
        sc = sc.node(edge, NodeConfig::cluster(edge)).deploys(&fib());
    }
    let offload = (When::OnCpuSliceBudget(budget), Plan::top_to("workers", 1));
    sc.pool(pool)
        .fleet(fleet.across(edges).migrate(offload.0, offload.1))
}

/// Sixty Fib(14) requests in bursts of 20 onto a pool of 1–8 members.
fn pool_fleet(seed: u64, policy: ScalePolicy) -> Scenario {
    let pool = Pool::new("workers").base(1).max(8).cold_start(2 * MS);
    let pool = pool.scale_policy(policy);
    let bursts = ArrivalSchedule::bursty(20, 15 * MS).with_jitter(MS);
    let fleet = Fleet::new("Fib", "main", vec![Value::Int(14)]).programs(60);
    pooled(&["edge0", "edge1"], pool, fleet.arrivals(bursts, seed), 3)
}

/// Three Fib(14) requests in one burst onto a pool of 1–3, their classes
/// shipped on demand and their deadlines armed (the chaos plan's one
/// entry falls after the run): the forgery sweep's small row for pool,
/// class and deadline messages.
fn pool_burst(seed: u64) -> Scenario {
    let pool = Pool::new("workers").base(1).max(3).cold_start(MS);
    let pool = pool.scale_policy(ScalePolicy::QueueDepth { high: 1, low: 1 });
    let burst = ArrivalSchedule::bursty(3, 10 * MS);
    let fleet = Fleet::new("Fib", "main", vec![Value::Int(14)]).programs(3);
    let sc = pooled(&["edge0"], pool, fleet.arrivals(burst, seed), 2);
    let armed = Chaos::new().restart_at(SEC, "edge0");
    sc.code_shipping(CodeShipping::Never).chaos(armed)
}

/// Thirty requests onto a pool of 2–6 whose first member crashes at 8 ms.
fn pool_crashed_member(seed: u64) -> Scenario {
    let pool = Pool::new("workers").base(2).max(6).cold_start(MS);
    let bursts = ArrivalSchedule::bursty(15, 10 * MS).with_jitter(MS);
    let fleet = Fleet::new("Fib", "main", vec![Value::Int(14)]).programs(30);
    let sc = pooled(&["edge0", "edge1"], pool, fleet.arrivals(bursts, seed), 3);
    sc.chaos(Chaos::new().seed(5).crash_at(8 * MS, "workers-0"))
}

// ---------------------------------------------------------------------------
// Random scenarios for the property tests.
// ---------------------------------------------------------------------------

/// `nodes` cluster nodes `n0..` deploying Fib, and a Fib(12) fleet of
/// `programs` homed round-robin across them.
fn fib_nodes(nodes: usize, programs: usize) -> (Scenario, Fleet, String) {
    let names: Vec<String> = (0..nodes).map(|i| format!("n{i}")).collect();
    let mut sc = Scenario::new().slice_ns(10_000);
    for name in &names {
        sc = sc.node(name, NodeConfig::cluster(name)).deploys(&fib());
    }
    let across: Vec<&str> = names.iter().map(String::as_str).collect();
    let fleet = Fleet::new("Fib", "main", vec![Value::Int(12)]).programs(programs);
    (sc, fleet.across(&across), names[nodes - 1].clone())
}

/// A random fleet: a random arrival schedule, one slow link between the
/// first and last node, and a random trigger offloading to the last node
/// (or none). Fib never faults on remote objects, so `OnObjectFaults` arms
/// but never fires.
pub fn random_fleet(
    nodes: usize,
    programs: usize,
    trigger: u8,
    schedule: u8,
    latency_us: u64,
    seed: u64,
) -> Scenario {
    let (sc, fleet, last) = fib_nodes(nodes, programs);
    let link = LinkSpec::new(latency_us * US, 100_000_000);
    let sc = sc.link("n0", &last, link);
    let schedule = match schedule % 3 {
        0 => ArrivalSchedule::uniform(MS).with_jitter(MS / 2),
        1 => ArrivalSchedule::bursty(8, 4 * MS),
        _ => ArrivalSchedule::ramp(2 * MS, 200 * US),
    };
    let (fleet, plan) = (fleet.arrivals(schedule, seed), Plan::top_to(last, 1));
    sc.fleet(match trigger % 4 {
        0 => fleet,
        1 => fleet.migrate(When::At(MS + seed % MS), plan),
        2 => fleet.migrate(When::OnCpuSliceBudget(1 + seed % 3), plan),
        _ => fleet.migrate(When::OnObjectFaults(1), plan),
    })
}

/// A random fleet under a random chaos plan: seeded loss, scattered
/// crash/restart pairs, maybe a partition window between the first and
/// last node, either retry policy.
pub fn random_chaos_fleet(
    nodes: usize,
    programs: usize,
    loss: u32,
    crashes: usize,
    partition: bool,
    retry: bool,
    seed: u64,
) -> Scenario {
    let (sc, fleet, last) = fib_nodes(nodes, programs);
    let mut chaos = Chaos::new().seed(seed).loss(loss);
    chaos = chaos.scatter_crashes(crashes, 40 * MS);
    if partition {
        chaos = chaos.partition_at(3 * MS, "n0", &last);
        chaos = chaos.heal_at(9 * MS, "n0", &last);
    }
    if retry {
        chaos = chaos.retry(RetryPolicy::Retry { max_attempts: 2 });
    }
    let fleet = fleet.arrivals(ArrivalSchedule::uniform(MS).with_jitter(MS / 2), seed);
    sc.fleet(fleet.migrate(When::OnCpuSliceBudget(2), Plan::top_to(last, 1)))
        .chaos(chaos)
}

/// A random Fib(12) burst from one edge onto a pool of 1–6 under a random
/// scale policy and cold start.
pub fn random_pool(
    policy: u8,
    knob: u64,
    cold_start_us: u64,
    burst: usize,
    programs: usize,
    seed: u64,
) -> Scenario {
    let (k, budget_ns) = (1 + knob % 4, (1 + knob % 20) * MS);
    let policy = match policy % 3 {
        0 => ScalePolicy::QueueDepth { high: k, low: 1 },
        1 => ScalePolicy::P99Breach { budget_ns },
        _ => ScalePolicy::StepLoad { per_node: k },
    };
    let pool = Pool::new("workers").base(1).max(6).scale_policy(policy);
    let bursts = ArrivalSchedule::bursty(burst, 8 * MS).with_jitter(MS);
    let fleet = Fleet::new("Fib", "main", vec![Value::Int(12)]).programs(programs);
    let (pool, fleet) = (
        pool.cold_start(cold_start_us * US),
        fleet.arrivals(bursts, seed),
    );
    pooled(&["edge"], pool, fleet, 2)
}

// ---------------------------------------------------------------------------
// The relations on every row, and the corpus as a whole.
// ---------------------------------------------------------------------------

/// Replay and digest, on every row: a rerun stepped by hand is `==` the
/// row's run, and prints its committed line.
#[test]
fn every_other_row_replays_and_matches_its_digest() {
    for row in ROWS {
        let name = row.name;
        let (again, msgs) = stepped(name, scenario(name));
        let first = report(name);
        assert_same(first, &again, &format!("replay: {name}: a same-seed rerun"));
        let (fresh, committed) = (digest_line(row, first, msgs), committed(name));
        assert!(
            fresh == committed,
            "digest: {name}: the committed line is\n  {committed}\nbut the run prints\n  {fresh}\n\
             If the change is meant, regenerate: {REGENERATE}"
        );
    }
}

/// Reference, on every row: the reference VM's run is `==` the row's.
#[test]
fn every_other_row_matches_the_reference_vm() {
    for row in ROWS {
        let name = row.name;
        let slow = run(name, scenario(name).slow_resolve(true));
        assert_same(report(name), &slow, &format!("reference: {name}"));
    }
}

/// `handler_mul` multiplies on both sides of its migration: every program
/// ends with the handler's value after one migration, and both nodes ran
/// guest instructions (the loop is the only code long enough to span the
/// two-slice budget, so both ran `Mul`).
#[test]
fn the_handler_row_multiplies_at_home_and_on_the_migrated_path() {
    let r = report("handler_mul");
    for p in r.programs() {
        let expected = Some(handler_fleet_expected(HANDLER_N));
        assert_eq!(p.report.result, expected, "{}", p.name);
        assert_eq!(p.report.migrations.len(), 1, "{}", p.name);
    }
    let ran: Vec<u64> = r.cluster.per_node.iter().map(|n| n.instructions).collect();
    assert!(ran.iter().all(|&i| i > 0), "instructions per node: {ran:?}");
}

/// `tests/corpus_digests.txt` holds one line per row, in row order: a
/// missing, extra, orphan or reordered line fails here.
#[test]
fn every_row_has_one_digest_line() {
    let lines: Vec<&str> = DIGESTS
        .lines()
        .map(|l| l.split(' ').next().unwrap_or(""))
        .collect();
    let rows: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
    assert_eq!(
        lines, rows,
        "the digest file is out of step with ROWS: {REGENERATE}"
    );
}

/// The rows together deliver every `Msg` variant: each row's line records
/// the variants its replay delivered, and the replay pins the line.
#[test]
fn the_corpus_reaches_every_msg_variant() {
    let bits = |row: &Row| u32::from_str_radix(field(committed(row.name), "msgs"), 16);
    let reached = ROWS
        .iter()
        .fold(0, |acc, row| acc | bits(row).expect("msgs= is hex"));
    let missing: Vec<&str> = MSGS
        .split_whitespace()
        .enumerate()
        .filter_map(|(i, variant)| (reached & (1 << i) == 0).then_some(variant))
        .collect();
    assert!(missing.is_empty(), "no corpus row delivers {missing:?}");
}

/// Rewrite `tests/corpus_digests.txt` from fresh runs of every row.
#[test]
#[ignore = "rewrites tests/corpus_digests.txt"]
fn regenerate_corpus_digests() {
    let line = |row: &Row| {
        let (report, msgs) = stepped(row.name, scenario(row.name));
        digest_line(row, &report, msgs) + "\n"
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus_digests.txt");
    fs::write(path, ROWS.iter().map(line).collect::<String>()).expect("digest file writes");
}
