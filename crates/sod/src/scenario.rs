//! Declarative scenario builder: describe an elastic-execution experiment
//! — topology, nodes, programs, migration policies — and run it.
//!
//! The runtime's raw wiring (`Node::new` + `deploy`/`stage`,
//! `Cluster::new`, `SodSim::new`, hand-made `SodSim::migrate` calls) is
//! flexible but verbose, and repeats near-identically across every
//! experiment. [`Scenario`] replaces that plumbing with a fluent, typed
//! description:
//!
//! ```
//! use sod::asm::builder::ClassBuilder;
//! use sod::net::MS;
//! use sod::preprocess::preprocess_sod;
//! use sod::runtime::NodeConfig;
//! use sod::scenario::{Plan, Scenario, When};
//!
//! # fn main() -> Result<(), sod::scenario::ScenarioError> {
//! let class = ClassBuilder::new("App")
//!     .method("work", &["n"], |m| {
//!         m.line();
//!         m.load("n").pushi(3).add().retv();
//!     })
//!     .method("main", &["n"], |m| {
//!         m.line();
//!         m.load("n").invoke("App", "work", 1).store("r");
//!         m.line();
//!         m.load("r").retv();
//!     })
//!     .build()
//!     .expect("valid program");
//! let class = preprocess_sod(&class).expect("preprocess");
//!
//! let report = Scenario::new()
//!     .node("home", NodeConfig::cluster("home"))
//!     .deploys(&class)
//!     .node("worker", NodeConfig::cluster("worker"))
//!     .program("App", "main", vec![sod::vm::value::Value::Int(4)])
//!     .on("home")
//!     .migrate(When::At(MS), Plan::top_to("worker", 1))
//!     .run()?;
//! assert_eq!(report.first().result, Some(7));
//! # Ok(())
//! # }
//! ```
//!
//! Everything is named: nodes are declared once and referenced by name in
//! plans, links, and placements (indices — needed when guest *arguments*
//! encode a destination node — follow declaration order, starting at 0).
//! Builder calls never fail; all validation happens in [`Scenario::run`],
//! which returns a typed [`ScenarioError`] instead of panicking.
//!
//! Migration is expressed as *policy*, not timestamps: [`When::At`] keeps
//! the paper's fixed-time schedules, while [`When::OnOom`],
//! [`When::OnObjectFaults`] and [`When::OnCpuSliceBudget`] arm conditions
//! that the engine evaluates at migration-safe points (see
//! [`sod_runtime::trigger`] for the exact semantics).

use std::collections::HashMap;
use std::fmt;

use sod_net::{ChaosPlan, LinkSpec, Scheduler, Topology};
use sod_runtime::{
    Cluster, ClusterReport, CodeShipping, FetchPolicy, MigrationPlan, Node, NodeConfig, PoolSpec,
    PoolSpecError, Recovery, RetryPolicy, RunReport, ScalePolicy, SegmentSpec, SodSim,
    POOL_DEST_BASE,
};
use sod_vm::class::ClassDef;
use sod_vm::value::Value;
use sod_workloads::fleet::ArrivalSchedule;

pub use sod_runtime::trigger::When;

/// Built-in topologies; the node count is taken from the declared nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// The paper's testbed: Gigabit Ethernet between every pair.
    GigabitCluster,
    /// WAN links between every pair (the roaming experiment).
    WanGrid,
}

/// A migration plan over *named* nodes; resolved against the scenario's
/// node table by [`Scenario::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    segments: Vec<(String, usize)>,
}

impl Plan {
    /// Ship the top `nframes` to `node`; control returns home (Fig. 1a).
    pub fn top_to(node: impl Into<String>, nframes: usize) -> Self {
        Plan {
            segments: vec![(node.into(), nframes)],
        }
    }

    /// Multi-segment plan from `(node, nframes)` pairs, topmost first
    /// (Fig. 1b when all pairs name one node, Fig. 1c otherwise).
    pub fn chain(segments: &[(&str, usize)]) -> Self {
        Plan {
            segments: segments
                .iter()
                .map(|&(node, nframes)| (node.to_owned(), nframes))
                .collect(),
        }
    }

    /// Total migration (Fig. 1b): the whole stack moves to `node` and
    /// execution continues there.
    pub fn whole_stack_to(node: impl Into<String>) -> Self {
        let node = node.into();
        Plan {
            segments: vec![(node.clone(), 1), (node, MigrationPlan::WHOLE_STACK_FRAMES)],
        }
    }
}

#[derive(Debug)]
struct NodeDecl {
    name: String,
    cfg: NodeConfig,
    deploys: Vec<ClassDef>,
    files: Vec<(String, u64, Option<u64>)>,
    mounts: Vec<(String, String)>,
}

#[derive(Debug)]
struct ProgramDecl {
    class: String,
    method: String,
    args: Vec<Value>,
    on: Option<String>,
    start_at: u64,
    fetch_policy: FetchPolicy,
    migrations: Vec<(When, Plan)>,
    /// Fleet members tolerate failure (recorded in the report) instead of
    /// aborting the whole run.
    from_fleet: bool,
}

/// A fleet of identical programs launched open-loop: "N clients × M
/// programs with trigger policy X", declaratively.
///
/// Built with [`Fleet::new`] and handed to [`Scenario::fleet`], which
/// expands it into one program declaration per request: homes assigned
/// round-robin over [`Fleet::across`] (default: the scenario's first
/// node), start times drawn from the [`ArrivalSchedule`] with the given
/// seed, and every member armed with the same migration policies. Unlike
/// [`Scenario::program`] members, a fleet member that fails does not
/// abort the run — its error is recorded on its [`ProgramRun`] and
/// counted in the [`ClusterReport`].
#[derive(Clone, Debug)]
pub struct Fleet {
    class: String,
    method: String,
    args: Vec<Value>,
    programs: usize,
    across: Vec<String>,
    schedule: ArrivalSchedule,
    seed: u64,
    fetch_policy: FetchPolicy,
    migrations: Vec<(When, Plan)>,
}

impl Fleet {
    /// A fleet of one `class::method(args)` request (grow it with
    /// [`Fleet::programs`]). The default schedule is
    /// [`ArrivalSchedule::uniform`] at 1 ms, seed 0.
    pub fn new(class: impl Into<String>, method: impl Into<String>, args: Vec<Value>) -> Self {
        Fleet {
            class: class.into(),
            method: method.into(),
            args,
            programs: 1,
            across: Vec::new(),
            schedule: ArrivalSchedule::uniform(sod_net::MS),
            seed: 0,
            fetch_policy: FetchPolicy::default(),
            migrations: Vec::new(),
        }
    }

    /// Number of concurrent programs (requests) in the fleet.
    pub fn programs(mut self, n: usize) -> Self {
        self.programs = n;
        self
    }

    /// Home nodes, assigned round-robin in request order. Empty (the
    /// default) places every program on the scenario's first node.
    pub fn across(mut self, nodes: &[&str]) -> Self {
        self.across = nodes.iter().map(|n| (*n).to_owned()).collect();
        self
    }

    /// Arrival schedule and PRNG seed (see [`ArrivalSchedule`]).
    pub fn arrivals(mut self, schedule: ArrivalSchedule, seed: u64) -> Self {
        self.schedule = schedule;
        self.seed = seed;
        self
    }

    /// Object-fetch policy for every fleet member.
    pub fn fetch_policy(mut self, policy: FetchPolicy) -> Self {
        self.fetch_policy = policy;
        self
    }

    /// Arm a migration policy on every fleet member.
    pub fn migrate(mut self, when: When, plan: Plan) -> Self {
        self.migrations.push((when, plan));
        self
    }
}

/// A declarative fault-injection plan over *named* nodes — the facade's
/// view of [`sod_net::ChaosPlan`]. Node names are resolved against the
/// scenario's node table by [`Scenario::run`], so a chaos plan may be
/// attached before the nodes it references are declared.
///
/// Faults are scheduled at fixed virtual times (`crash_at`, `restart_at`,
/// `partition_at`, `heal_at`) or drawn from the seeded loss stream
/// (`loss`, `scatter_crashes`). Because the simulation clock
/// and the loss RNG are both deterministic, a scenario with the same
/// chaos plan and seed replays bit-identically — the chaos-determinism
/// suite pins that.
///
/// ```
/// use sod::scenario::Chaos;
/// use sod::runtime::RetryPolicy;
/// use sod::net::MS;
///
/// let chaos = Chaos::new()
///     .seed(42)
///     .crash_at(5 * MS, "worker")
///     .restart_at(9 * MS, "worker")
///     .partition_at(2 * MS, "home", "edge")
///     .heal_at(4 * MS, "home", "edge")
///     .loss(50) // 5% on every link
///     .retry(RetryPolicy::Retry { max_attempts: 3 });
/// # let _ = chaos;
/// ```
#[derive(Clone, Debug, Default)]
pub struct Chaos {
    crashes: Vec<(u64, String)>,
    restarts: Vec<(u64, String)>,
    partitions: Vec<(u64, String, String)>,
    heals: Vec<(u64, String, String)>,
    loss_permille: u32,
    scatter: Option<(usize, u64)>,
    seed: u64,
    recovery: Recovery,
}

impl Chaos {
    pub fn new() -> Self {
        Chaos::default()
    }

    /// Seed for the loss stream and any scattered crash schedule.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Crash the named node at virtual time `ns`: programs homed there
    /// fail with a typed error, sessions hosted there are killed, and
    /// every message to it is dropped until a matching `restart_at`.
    pub fn crash_at(mut self, ns: u64, node: impl Into<String>) -> Self {
        self.crashes.push((ns, node.into()));
        self
    }

    /// Bring a crashed node back (warm restart: repo and heap survive,
    /// in-flight work does not come back).
    pub fn restart_at(mut self, ns: u64, node: impl Into<String>) -> Self {
        self.restarts.push((ns, node.into()));
        self
    }

    /// Cut the link between two named nodes (both directions) at `ns`.
    pub fn partition_at(mut self, ns: u64, a: impl Into<String>, b: impl Into<String>) -> Self {
        self.partitions.push((ns, a.into(), b.into()));
        self
    }

    /// Heal a previously cut link at `ns`.
    pub fn heal_at(mut self, ns: u64, a: impl Into<String>, b: impl Into<String>) -> Self {
        self.heals.push((ns, a.into(), b.into()));
        self
    }

    /// Drop every inter-node delivery with probability `permille`/1000,
    /// drawn from the seeded stream (50 = 5%).
    pub fn loss(mut self, permille: u32) -> Self {
        self.loss_permille = permille;
        self
    }

    /// Scatter `count` crash/restart pairs across all declared nodes at
    /// seeded-random points inside `[0, window_ns)`.
    pub fn scatter_crashes(mut self, count: usize, window_ns: u64) -> Self {
        self.scatter = Some((count, window_ns));
        self
    }

    /// What the engine does when a migration episode's deadline fires
    /// (default [`RetryPolicy::FallbackToHome`]).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.recovery.policy = policy;
        self
    }

    /// Override the end-to-end migration-episode deadline (virtual ns).
    pub fn migration_timeout(mut self, ns: u64) -> Self {
        self.recovery.timeout_ns = ns;
        self
    }

    fn resolve(
        &self,
        resolve: impl Fn(&str) -> Result<usize, ScenarioError>,
        nodes: usize,
    ) -> Result<ChaosPlan, ScenarioError> {
        let mut plan = ChaosPlan::new().seed(self.seed);
        for (at, node) in &self.crashes {
            plan = plan.crash_at(*at, resolve(node)?);
        }
        for (at, node) in &self.restarts {
            plan = plan.restart_at(*at, resolve(node)?);
        }
        for (at, a, b) in &self.partitions {
            plan = plan.partition_at(*at, resolve(a)?, resolve(b)?);
        }
        for (at, a, b) in &self.heals {
            plan = plan.heal_at(*at, resolve(a)?, resolve(b)?);
        }
        plan = plan.loss_permille(self.loss_permille);
        if let Some((count, window)) = self.scatter {
            plan = plan.scatter_crashes(count, nodes, window);
        }
        Ok(plan)
    }
}

/// A declarative elastic node pool — the facade's view of
/// [`sod_runtime::PoolSpec`], handed to [`Scenario::pool`].
///
/// A pool is a named group of worker nodes, each created from
/// [`NodeConfig::cluster`] named after the pool, that the engine grows and
/// shrinks at runtime under a [`ScalePolicy`]: `base` members exist from t = 0, scale-out spawns
/// fresh nodes (placeable only after the cold-start latency), and
/// scale-in drains members back toward `base` by migrating their hosted
/// stacks off before retiring them. Migration plans may name the pool
/// like a node — the destination resolves to the
/// least-loaded live member *at capture time*, so placements always see
/// the pool's current membership.
///
/// Initial members are named `"{pool}-{i}"` (`i < base`) and may be
/// referenced from [`Chaos`] directives — crash one and the controller
/// replaces it on its next tick. Per-pool scaling counters and the
/// `node_seconds` cost metric surface in
/// [`ClusterReport::pools`](sod_runtime::PoolReport).
///
/// Builder calls never fail; validation (`1 ≤ base ≤ max`, name
/// collisions, thresholds that flap) happens in [`Scenario::run`]. Every
/// pool's controller ticks once per
/// [`POOL_TICK_NS`](sod_runtime::POOL_TICK_NS).
///
/// ```
/// use sod::net::MS;
/// use sod::runtime::ScalePolicy;
/// use sod::scenario::Pool;
///
/// let workers = Pool::new("workers")
///     .base(2)
///     .max(16)
///     .scale_policy(ScalePolicy::QueueDepth { high: 2, low: 1 })
///     .cold_start(5 * MS);
/// # let _ = workers;
/// ```
#[derive(Clone, Debug)]
pub struct Pool {
    name: String,
    base: usize,
    max: usize,
    policy: ScalePolicy,
    cold_start_ns: u64,
}

impl Pool {
    /// A pool named `name`: one base member, `max` equal to `base` (a
    /// fixed fleet — the natural baseline), queue-depth scaling armed at
    /// `high: 2, low: 1`, and zero cold start.
    pub fn new(name: impl Into<String>) -> Self {
        Pool {
            name: name.into(),
            base: 1,
            max: 1,
            policy: ScalePolicy::QueueDepth { high: 2, low: 1 },
            cold_start_ns: 0,
        }
    }

    /// Members provisioned up-front (live from t = 0) and the floor the
    /// pool drains back to. Raises `max` to `base` if it would fall
    /// below.
    pub fn base(mut self, n: usize) -> Self {
        self.base = n;
        self.max = self.max.max(n);
        self
    }

    /// Hard ceiling on concurrent members (live + provisioning).
    pub fn max(mut self, n: usize) -> Self {
        self.max = n;
        self
    }

    /// The autoscaling policy (see [`ScalePolicy`] for the variants'
    /// exact semantics). With `base == max` the policy never fires and
    /// the pool behaves as a fixed fleet.
    pub fn scale_policy(mut self, policy: ScalePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Cold-start latency: a spawned member accepts placements only
    /// after this much virtual time (default 0 — instant provisioning).
    pub fn cold_start(mut self, ns: u64) -> Self {
        self.cold_start_ns = ns;
        self
    }

    /// Add the pool to `cluster`; a spec the runtime refuses becomes
    /// [`ScenarioError::PoolSize`] or [`ScenarioError::PoolPolicy`].
    fn resolve(&self, cluster: &mut Cluster, slow_resolve: bool) -> Result<usize, ScenarioError> {
        let mut template = NodeConfig::cluster(&self.name);
        template.slow_resolve |= slow_resolve;
        let spec = PoolSpec {
            name: self.name.clone(),
            template,
            base: self.base,
            max: self.max,
            policy: self.policy,
            cold_start_ns: self.cold_start_ns,
        };
        cluster.add_pool(spec).map_err(|e| {
            let pool = self.name.clone();
            match (e, self.policy) {
                (PoolSpecError::Flap, ScalePolicy::QueueDepth { high, low }) => {
                    ScenarioError::PoolPolicy { pool, high, low }
                }
                _ => ScenarioError::PoolSize {
                    pool,
                    base: self.base,
                    max: self.max,
                },
            }
        })
    }
}

/// What went wrong while assembling or running a scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The scenario declares no nodes.
    NoNodes,
    /// The scenario declares no programs.
    NoPrograms,
    /// Two nodes share a name.
    DuplicateNode(String),
    /// A link, plan, mount, or placement names an undeclared node.
    UnknownNode(String),
    /// A node- or program-scoped directive (`deploys`, `on`, `migrate`,
    /// …) was called before any `node(..)` / `program(..)`.
    Misplaced(&'static str),
    /// A pool shares its name with a node or another pool.
    DuplicatePool(String),
    /// A pool's size bounds are inconsistent (need `1 ≤ base ≤ max`).
    PoolSize {
        pool: String,
        base: usize,
        max: usize,
    },
    /// A pool's `QueueDepth` thresholds would flap: drain a member on one
    /// tick and spawn it back on the next, under constant load (see
    /// [`ScalePolicy::QueueDepth`]).
    PoolPolicy { pool: String, high: u64, low: u64 },
    /// A `migrate(..)` directive carries a plan with no segments.
    EmptyPlan,
    /// Deploying a class onto a node failed verification/loading.
    Deploy { node: String, error: String },
    /// A program finished with a runtime error.
    Program { program: String, error: String },
    /// The finished run broke an identity every run satisfies (see
    /// [`SodSim::check_idle`]); the message names it and both numbers.
    Invariant(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NoNodes => write!(f, "scenario declares no nodes"),
            ScenarioError::NoPrograms => write!(f, "scenario declares no programs"),
            ScenarioError::DuplicateNode(n) => write!(f, "duplicate node name {n:?}"),
            ScenarioError::UnknownNode(n) => write!(f, "unknown node name {n:?}"),
            ScenarioError::Misplaced(what) => {
                write!(f, "{what} must follow the declaration it configures")
            }
            ScenarioError::DuplicatePool(n) => {
                write!(f, "pool name {n:?} collides with a node or another pool")
            }
            ScenarioError::PoolSize { pool, base, max } => write!(
                f,
                "pool {pool:?} needs 1 <= base <= max (got base={base}, max={max})"
            ),
            ScenarioError::PoolPolicy { pool, high, low } => write!(
                f,
                "pool {pool:?}'s queue-depth thresholds flap (high={high}, low={low}): \
                 need low*L <= high*(L-1) + 1 for every live size L above base"
            ),
            ScenarioError::EmptyPlan => {
                write!(f, "migration plan has no segments (nowhere to migrate)")
            }
            ScenarioError::Deploy { node, error } => {
                write!(f, "deploying onto node {node:?} failed: {error}")
            }
            ScenarioError::Program { program, error } => {
                write!(f, "program {program} failed: {error}")
            }
            ScenarioError::Invariant(what) => write!(f, "run invariant broken: {what}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Outcome of one program inside a finished scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramRun {
    /// `Class::method` of the program.
    pub name: String,
    /// The runtime's full measurement record.
    pub report: RunReport,
    /// The program's failure, if any. Always `None` for programs declared
    /// with [`Scenario::program`] (their failures abort the run); fleet
    /// members record failures here instead.
    pub error: Option<String>,
}

/// The typed result of [`Scenario::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioReport {
    /// Final virtual time of the simulation (all events drained).
    pub finished_at_ns: u64,
    /// Aggregate fleet metrics over *all* declared programs: completion
    /// latency percentiles (nearest-rank), throughput, per-node
    /// utilization. Most useful for [`Scenario::fleet`] runs but always
    /// populated.
    pub cluster: ClusterReport,
    programs: Vec<ProgramRun>,
}

impl ScenarioReport {
    /// The first program's report (every scenario has at least one).
    pub fn first(&self) -> &RunReport {
        &self.programs[0].report
    }

    /// Report of the `i`-th declared program.
    pub fn report(&self, i: usize) -> &RunReport {
        &self.programs[i].report
    }

    /// All program outcomes, in declaration order.
    pub fn programs(&self) -> &[ProgramRun] {
        &self.programs
    }
}

/// Fluent builder for an elastic-execution experiment. See the [module
/// docs](self) for a walkthrough.
///
/// Node-scoped directives (`deploys`, `file`, `mounts`) apply
/// to the most recent `node(..)`; program-scoped directives (`on`,
/// `starts_at`, `fetch_policy`, `migrate`) to the most recent
/// `program(..)`. A program without `on(..)` runs on the first declared
/// node.
#[derive(Debug, Default)]
pub struct Scenario {
    topo: Option<Preset>,
    links: Vec<(String, String, LinkSpec)>,
    nodes: Vec<NodeDecl>,
    /// Mounts addressed to a node by name (`mount_on`), resolved in `run`.
    named_mounts: Vec<(String, String, String)>,
    programs: Vec<ProgramDecl>,
    requests: Vec<(u64, String, String)>,
    pools: Vec<Pool>,
    slice_ns: Option<u64>,
    code_shipping: Option<CodeShipping>,
    chaos_plan: Option<Chaos>,
    cpu_contention: bool,
    slow_resolve: bool,
    errors: Vec<ScenarioError>,
}

impl Scenario {
    pub fn new() -> Self {
        Scenario::default()
    }

    /// Select a built-in topology (default: [`Preset::GigabitCluster`]).
    pub fn topology(mut self, preset: Preset) -> Self {
        self.topo = Some(preset);
        self
    }

    /// Override the link between two named nodes (both directions).
    pub fn link(mut self, a: impl Into<String>, b: impl Into<String>, spec: LinkSpec) -> Self {
        self.links.push((a.into(), b.into(), spec));
        self
    }

    /// Declare a node. Indices follow declaration order, starting at 0.
    pub fn node(mut self, name: impl Into<String>, cfg: NodeConfig) -> Self {
        self.nodes.push(NodeDecl {
            name: name.into(),
            cfg,
            deploys: Vec::new(),
            files: Vec::new(),
            mounts: Vec::new(),
        });
        self
    }

    fn with_last_node(mut self, what: &'static str, f: impl FnOnce(&mut NodeDecl)) -> Self {
        match self.nodes.last_mut() {
            Some(n) => f(n),
            None => self.errors.push(ScenarioError::Misplaced(what)),
        }
        self
    }

    /// Deploy a (preprocessed) class on the last declared node: loaded
    /// into its VM *and* published in its class repository.
    pub fn deploys(self, class: &ClassDef) -> Self {
        let class = class.clone();
        self.with_last_node("deploys(..)", move |n| n.deploys.push(class))
    }

    /// Create a file on the last declared node's simulated disk.
    pub fn file(self, path: impl Into<String>, bytes: u64, match_at: Option<u64>) -> Self {
        let path = path.into();
        self.with_last_node("file(..)", move |n| n.files.push((path, bytes, match_at)))
    }

    /// NFS-mount `prefix` on the last declared node, served by `server`.
    pub fn mounts(self, prefix: impl Into<String>, server: impl Into<String>) -> Self {
        let (prefix, server) = (prefix.into(), server.into());
        self.with_last_node("mounts(..)", move |n| n.mounts.push((prefix, server)))
    }

    /// NFS-mount `prefix` on the *named* node (not the last declared
    /// one), served by `server` — for meshes where every node mounts
    /// every export. Like every other name-taking directive, the names
    /// are resolved in [`Scenario::run`], so forward references to nodes
    /// declared later are fine.
    pub fn mount_on(
        mut self,
        node: impl Into<String>,
        prefix: impl Into<String>,
        server: impl Into<String>,
    ) -> Self {
        self.named_mounts
            .push((node.into(), prefix.into(), server.into()));
        self
    }

    /// Declare a program: `class::method(args)` rooted on the node named
    /// by a following `on(..)` (default: the first declared node).
    pub fn program(
        mut self,
        class: impl Into<String>,
        method: impl Into<String>,
        args: Vec<Value>,
    ) -> Self {
        self.programs.push(ProgramDecl {
            class: class.into(),
            method: method.into(),
            args,
            on: None,
            start_at: 0,
            fetch_policy: FetchPolicy::default(),
            migrations: Vec::new(),
            from_fleet: false,
        });
        self
    }

    /// Declare a [`Fleet`]: `fleet.programs` copies of one program,
    /// placed round-robin across `fleet.across`, started at the fleet's
    /// deterministic arrival times, each armed with the fleet's migration
    /// policies. Interleaves freely with `program(..)` declarations;
    /// fleet members occupy consecutive report slots in arrival order.
    pub fn fleet(mut self, fleet: Fleet) -> Self {
        let times = fleet.schedule.arrival_times(fleet.programs, fleet.seed);
        for (i, at) in times.into_iter().enumerate() {
            let on = if fleet.across.is_empty() {
                None
            } else {
                Some(fleet.across[i % fleet.across.len()].clone())
            };
            self.programs.push(ProgramDecl {
                class: fleet.class.clone(),
                method: fleet.method.clone(),
                args: fleet.args.clone(),
                on,
                start_at: at,
                fetch_policy: fleet.fetch_policy,
                migrations: fleet.migrations.clone(),
                from_fleet: true,
            });
        }
        self
    }

    fn with_last_program(mut self, what: &'static str, f: impl FnOnce(&mut ProgramDecl)) -> Self {
        match self.programs.last_mut() {
            Some(p) => f(p),
            None => self.errors.push(ScenarioError::Misplaced(what)),
        }
        self
    }

    /// Place the last declared program on the named node.
    pub fn on(self, node: impl Into<String>) -> Self {
        let node = node.into();
        self.with_last_program("on(..)", move |p| p.on = Some(node))
    }

    /// Start the last declared program at virtual time `ns` (default 0).
    pub fn starts_at(self, ns: u64) -> Self {
        self.with_last_program("starts_at(..)", move |p| p.start_at = ns)
    }

    /// Object-fetch policy for the last declared program.
    pub fn fetch_policy(self, policy: FetchPolicy) -> Self {
        self.with_last_program("fetch_policy(..)", move |p| p.fetch_policy = policy)
    }

    /// Migrate the last declared program per `plan` when `when` holds.
    pub fn migrate(self, when: When, plan: Plan) -> Self {
        self.with_last_program("migrate(..)", move |p| p.migrations.push((when, plan)))
    }

    /// Inject `count` client requests into the named node's accept queue
    /// at the schedule's deterministic arrival times; payloads are
    /// `{prefix}{i}` in arrival order (FIFO at the accept queue).
    pub fn client_requests(
        mut self,
        node: impl Into<String>,
        count: usize,
        schedule: ArrivalSchedule,
        seed: u64,
        prefix: impl Into<String>,
    ) -> Self {
        let (node, prefix) = (node.into(), prefix.into());
        for (i, at) in schedule.arrival_times(count, seed).into_iter().enumerate() {
            self.requests
                .push((at, node.clone(), format!("{prefix}{i}")));
        }
        self
    }

    /// Inject a client request into the named node's accept queue at
    /// virtual time `ns` (the photo-share scenario).
    pub fn client_request_at(
        mut self,
        ns: u64,
        node: impl Into<String>,
        payload: impl Into<String>,
    ) -> Self {
        self.requests.push((ns, node.into(), payload.into()));
        self
    }

    /// Override the execution-slice length (virtual ns per thread slice).
    pub fn slice_ns(mut self, ns: u64) -> Self {
        self.slice_ns = Some(ns);
        self
    }

    /// Cluster-wide code-shipping policy (default
    /// [`CodeShipping::BundleTop`]): what travels eagerly with migrating
    /// state versus on demand — the ablation axis of the codecache bench.
    pub fn code_shipping(mut self, policy: CodeShipping) -> Self {
        self.code_shipping = Some(policy);
        self
    }

    /// Accepts the leftover [`Scheduler`] knob and ignores it: there is
    /// one event queue.
    #[doc(hidden)]
    pub fn scheduler(self, _scheduler: Scheduler) -> Self {
        self
    }

    /// Declare an elastic node [`Pool`]: `base` members live from t = 0,
    /// grown toward `max` and drained back under the pool's
    /// [`ScalePolicy`]. Plans may name the pool like a node;
    /// chaos directives may name its initial members (`"{pool}-{i}"`).
    /// Pool indices follow declaration order; initial members occupy node
    /// indices after every declared node, in that same order.
    pub fn pool(mut self, pool: Pool) -> Self {
        self.pools.push(pool);
        self
    }

    /// Model CPU contention (default off): a thread's execution slice
    /// stretches by the hosting node's runnable-thread count, so
    /// co-located programs slow each other down. This is what makes
    /// scale-out worth its node-seconds — without it an overloaded node
    /// executes every guest at full speed.
    pub fn cpu_contention(mut self, on: bool) -> Self {
        self.cpu_contention = on;
        self
    }

    /// Pin every node's VM (declared nodes and pool members alike) to the
    /// name-resolution reference path: inline caches that never fill.
    /// Differential-testing aid — the report must be
    /// bit-identical with this on and off, a property pinned by
    /// `tests/corpus/interp_equivalence.rs`.
    pub fn slow_resolve(mut self, on: bool) -> Self {
        self.slow_resolve = on;
        self
    }

    /// Inject faults from a [`Chaos`] plan: node crashes, link
    /// partitions, and seeded message loss, replayed deterministically.
    /// Dropped and stranded bytes surface in the report's `lost` buckets
    /// and the injected/handled fault counts in
    /// [`ClusterReport::chaos`](sod_runtime::ChaosCounters).
    pub fn chaos(mut self, chaos: Chaos) -> Self {
        self.chaos_plan = Some(chaos);
        self
    }

    /// Validate the description, wire the cluster, run the simulation to
    /// idle, and collect every program's report.
    pub fn run(self) -> Result<ScenarioReport, ScenarioError> {
        self.run_with(|sim| {
            sim.run();
        })
    }

    /// [`Scenario::run`], with the driving handed to `drive`: it gets the
    /// simulator wired, every start, migration and request injected, and
    /// must leave it idle — stepping it, injecting into it and inspecting
    /// its cluster on the way as it likes. The report is collected after.
    /// For suites that reach into a run.
    #[doc(hidden)]
    pub fn run_with(
        self,
        drive: impl FnOnce(&mut SodSim),
    ) -> Result<ScenarioReport, ScenarioError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        if self.nodes.is_empty() {
            return Err(ScenarioError::NoNodes);
        }
        if self.programs.is_empty() {
            return Err(ScenarioError::NoPrograms);
        }

        // Name table (also rejects duplicates).
        let mut index: HashMap<&str, usize> = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if index.insert(n.name.as_str(), i).is_some() {
                return Err(ScenarioError::DuplicateNode(n.name.clone()));
            }
        }
        // Pool table: pool names must not collide with nodes or each
        // other; each pool's initial members ("{name}-{i}", i < base)
        // claim the node indices after the declared nodes, in pool
        // declaration order — so chaos and placement directives can
        // reference them by name.
        let declared_n = self.nodes.len();
        let mut pool_index: HashMap<&str, usize> = HashMap::new();
        let mut member_index: HashMap<String, usize> = HashMap::new();
        let mut total_nodes = declared_n;
        for (pi, pool) in self.pools.iter().enumerate() {
            if index.contains_key(pool.name.as_str())
                || pool_index.insert(pool.name.as_str(), pi).is_some()
            {
                return Err(ScenarioError::DuplicatePool(pool.name.clone()));
            }
            for i in 0..pool.base {
                let member = format!("{}-{i}", pool.name);
                if index.contains_key(member.as_str()) {
                    return Err(ScenarioError::DuplicateNode(member));
                }
                member_index.insert(member, total_nodes);
                total_nodes += 1;
            }
        }
        let resolve = |name: &str| -> Result<usize, ScenarioError> {
            index
                .get(name)
                .copied()
                .or_else(|| member_index.get(name).copied())
                .ok_or_else(|| ScenarioError::UnknownNode(name.to_owned()))
        };
        // Plan destinations additionally accept a pool name,
        // which becomes a sentinel the engine resolves to the
        // least-loaded live member at capture time.
        let resolve_dest = |name: &str| -> Result<usize, ScenarioError> {
            match pool_index.get(name) {
                Some(pi) => Ok(POOL_DEST_BASE + pi),
                None => resolve(name),
            }
        };

        // Topology: preset sized to the declared nodes plus every pool's
        // initial members, links overridden by name. Members spawned by
        // scale-out join the topology at runtime with the default link
        // profile.
        let mut topo = match self.topo.unwrap_or(Preset::GigabitCluster) {
            Preset::GigabitCluster => Topology::gigabit_cluster(total_nodes),
            Preset::WanGrid => Topology::wan_grid(total_nodes),
        };
        for (a, b, spec) in &self.links {
            topo.set_link(resolve(a)?, resolve(b)?, *spec);
        }

        // Nodes: config, deployed/staged classes, files, mounts.
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for decl in &self.nodes {
            let mut cfg = decl.cfg.clone();
            cfg.slow_resolve |= self.slow_resolve;
            let mut node = Node::new(cfg);
            for class in &decl.deploys {
                node.deploy(class).map_err(|e| ScenarioError::Deploy {
                    node: decl.name.clone(),
                    error: format!("{e:?}"),
                })?;
            }
            for (path, bytes, match_at) in &decl.files {
                node.fs.add_file(path.clone(), *bytes, *match_at);
            }
            for (prefix, server) in &decl.mounts {
                node.fs.mount(prefix.clone(), resolve(server)?);
            }
            nodes.push(node);
        }
        for (node, prefix, server) in &self.named_mounts {
            let server = resolve(server)?;
            nodes[resolve(node)?].fs.mount(prefix.clone(), server);
        }

        // Chaos resolves before placement so fleet expansion can see
        // which nodes are already down when each member spawns.
        let chaos_plan = match &self.chaos_plan {
            Some(chaos) => Some(chaos.resolve(resolve, total_nodes)?),
            None => None,
        };

        // Programs (incl. expanded fleet members): placement, fetch
        // policy, resolved migration requests.
        let mut cluster = Cluster::new(nodes);
        if let Some(ns) = self.slice_ns {
            cluster.slice_ns = ns;
        }
        if let Some(policy) = self.code_shipping {
            cluster.code_shipping = policy;
        }
        cluster.cpu_contention = self.cpu_contention;
        let resolve_plan = |plan: &Plan| -> Result<MigrationPlan, ScenarioError> {
            let mut segments = Vec::with_capacity(plan.segments.len());
            for (node, nframes) in &plan.segments {
                segments.push(SegmentSpec {
                    dest: resolve_dest(node)?,
                    nframes: *nframes,
                });
            }
            Ok(MigrationPlan { segments })
        };
        // Armed once the simulator exists, after every program's start
        // event, so a scenario-built run is event-for-event identical to
        // hand wiring.
        let mut migrations: Vec<(u32, When, MigrationPlan)> = Vec::new();
        let mut names = Vec::with_capacity(self.programs.len());
        for decl in &self.programs {
            let mut home = match &decl.on {
                Some(name) => resolve(name)?,
                None => 0,
            };
            // Fleet members skip homes that are already down when they
            // spawn: round-robin advances over the declared nodes until
            // one is up at the member's start time. If every candidate is
            // down the original placement stands — the member then fails
            // with the usual typed crash error instead of silently
            // stalling. Single `program(..)` declarations keep their
            // exact placement (a crash there is the experiment).
            if decl.from_fleet && home < declared_n && declared_n > 1 {
                if let Some(plan) = &chaos_plan {
                    if plan.is_down_at(home, decl.start_at) {
                        for step in 1..declared_n {
                            let cand = (home + step) % declared_n;
                            if !plan.is_down_at(cand, decl.start_at) {
                                home = cand;
                                break;
                            }
                        }
                    }
                }
            }
            let pid = cluster.add_program(home, &*decl.class, &*decl.method, decl.args.clone());
            cluster.programs[pid as usize].fetch_policy = decl.fetch_policy;
            names.push(format!("{}::{}", decl.class, decl.method));
            for (when, plan) in &decl.migrations {
                let plan = resolve_plan(plan)?;
                // A plan with no segments can never migrate anywhere (and
                // would leave the engine suspended waiting on zero
                // segments): reject it up front.
                if plan.segments.is_empty() {
                    return Err(ScenarioError::EmptyPlan);
                }
                migrations.push((pid, *when, plan));
            }
        }

        // Pools join after every declared node so member indices line up
        // with the name table built above.
        for pool in &self.pools {
            pool.resolve(&mut cluster, self.slow_resolve)?;
        }

        let mut sim = SodSim::new(cluster, topo);
        if let (Some(plan), Some(chaos)) = (&chaos_plan, &self.chaos_plan) {
            sim.set_chaos(plan, chaos.recovery);
        }
        sim.start_pool_ticks();
        for pid in 0..self.programs.len() as u32 {
            sim.start_program(self.programs[pid as usize].start_at, pid);
        }
        for (pid, when, plan) in migrations {
            sim.migrate(pid, when, plan);
        }
        for (ns, node, payload) in &self.requests {
            sim.client_request_at(*ns, resolve(node)?, payload.clone());
        }
        drive(&mut sim);
        let finished_at_ns = sim.sim.now();

        let mut programs = Vec::with_capacity(names.len());
        for (pid, name) in names.into_iter().enumerate() {
            let p = sim.program(pid as u32);
            if let Some(error) = p.error() {
                // Fleet members report failure; single programs abort.
                if !self.programs[pid].from_fleet {
                    return Err(ScenarioError::Program {
                        program: name,
                        error: error.to_string(),
                    });
                }
            }
            programs.push(ProgramRun {
                name,
                report: p.report.clone(),
                error: p.error().map(str::to_string),
            });
        }
        sim.check_idle().map_err(ScenarioError::Invariant)?;
        Ok(ScenarioReport {
            finished_at_ns,
            cluster: sim.cluster_report(),
            programs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_scenarios_are_rejected() {
        assert_eq!(Scenario::new().run(), Err(ScenarioError::NoNodes));
        assert_eq!(
            Scenario::new().node("a", NodeConfig::cluster("a")).run(),
            Err(ScenarioError::NoPrograms)
        );
    }

    #[test]
    fn misplaced_directives_are_reported() {
        let err = Scenario::new()
            .on("nowhere")
            .node("a", NodeConfig::cluster("a"))
            .program("X", "main", vec![])
            .run();
        assert_eq!(err, Err(ScenarioError::Misplaced("on(..)")));
    }

    #[test]
    fn unknown_and_duplicate_names_are_reported() {
        let err = Scenario::new()
            .node("a", NodeConfig::cluster("a"))
            .program("X", "main", vec![])
            .on("ghost")
            .run();
        assert_eq!(err, Err(ScenarioError::UnknownNode("ghost".into())));
        let err = Scenario::new()
            .node("a", NodeConfig::cluster("a"))
            .node("a", NodeConfig::cluster("a"))
            .program("X", "main", vec![])
            .run();
        assert_eq!(err, Err(ScenarioError::DuplicateNode("a".into())));
    }

    #[test]
    fn plan_constructors_resolve_names() {
        let p = Plan::chain(&[("a", 1), ("b", 2)]);
        assert_eq!(p.segments, vec![("a".to_owned(), 1), ("b".to_owned(), 2)]);
        assert_eq!(Plan::top_to("a", 3).segments, vec![("a".to_owned(), 3)]);
        let w = Plan::whole_stack_to("a");
        assert_eq!(w.segments.len(), 2);
        assert_eq!(w.segments[0], ("a".to_owned(), 1));
    }

    #[test]
    fn empty_plans_are_rejected() {
        for when in [When::At(1), When::OnOom, When::OnObjectFaults(1)] {
            let err = Scenario::new()
                .node("a", NodeConfig::cluster("a"))
                .program("X", "main", vec![])
                .migrate(when, Plan::chain(&[]))
                .run();
            assert_eq!(err, Err(ScenarioError::EmptyPlan), "{when:?}");
        }
    }

    #[test]
    fn mount_on_tolerates_forward_references() {
        // `mount_on` may name nodes declared later; resolution happens in
        // `run()` like every other directive.
        let class = sod_asm::builder::ClassBuilder::new("T")
            .method("main", &[], |m| {
                m.line();
                m.pushi(1).retv();
            })
            .build()
            .unwrap();
        let class = sod_preprocess::preprocess_sod(&class).unwrap();
        let report = Scenario::new()
            .mount_on("client", "/srv/", "server")
            .node("client", NodeConfig::cluster("client"))
            .deploys(&class)
            .node("server", NodeConfig::cluster("server"))
            .program("T", "main", vec![])
            .run()
            .unwrap();
        assert_eq!(report.first().result, Some(1));
        // An undeclared name still errors — at run() time.
        let err = Scenario::new()
            .mount_on("ghost", "/srv/", "client")
            .node("client", NodeConfig::cluster("client"))
            .program("T", "main", vec![])
            .run();
        assert_eq!(err, Err(ScenarioError::UnknownNode("ghost".into())));
    }

    fn trivial_class(name: &str) -> ClassDef {
        let c = sod_asm::builder::ClassBuilder::new(name)
            .method("main", &[], |m| {
                m.line();
                m.pushi(1).retv();
            })
            .build()
            .unwrap();
        sod_preprocess::preprocess_sod(&c).unwrap()
    }

    #[test]
    fn fleet_expands_round_robin_with_cluster_report() {
        let class = trivial_class("T");
        let report = Scenario::new()
            .node("a", NodeConfig::cluster("a"))
            .deploys(&class)
            .node("b", NodeConfig::cluster("b"))
            .deploys(&class)
            .fleet(
                Fleet::new("T", "main", vec![])
                    .programs(6)
                    .across(&["a", "b"])
                    .arrivals(ArrivalSchedule::uniform(1_000), 7),
            )
            .run()
            .unwrap();
        assert_eq!(report.programs().len(), 6);
        assert_eq!(report.cluster.launched, 6);
        assert_eq!(report.cluster.completed, 6);
        assert_eq!(report.cluster.failed, 0);
        assert!(report.cluster.p50_latency_ns > 0);
        assert!(report.cluster.makespan_ns > 0);
        // Round-robin placement: both nodes executed slices.
        assert_eq!(report.cluster.per_node.len(), 2);
        assert!(report.cluster.per_node.iter().all(|n| n.slices > 0));
        assert!(report.programs().iter().all(|p| p.error.is_none()));
    }

    #[test]
    fn fleet_member_failure_is_recorded_not_fatal() {
        let class = sod_asm::builder::ClassBuilder::new("Alloc")
            .method("main", &[], |m| {
                m.line();
                m.pushi(1_000).newarr().arrlen().retv();
            })
            .build()
            .unwrap();
        let class = sod_preprocess::preprocess_sod(&class).unwrap();
        let tiny = NodeConfig {
            mem_limit: Some(64),
            ..NodeConfig::cluster("tiny")
        };
        let report = Scenario::new()
            .node("ok", NodeConfig::cluster("ok"))
            .deploys(&class)
            .node("tiny", tiny.clone())
            .deploys(&class)
            .fleet(
                Fleet::new("Alloc", "main", vec![])
                    .programs(4)
                    .across(&["ok", "tiny"]),
            )
            .run()
            .unwrap();
        assert_eq!(report.cluster.launched, 4);
        assert_eq!(report.cluster.completed, 2);
        assert_eq!(report.cluster.failed, 2);
        let errs: Vec<_> = report
            .programs()
            .iter()
            .filter_map(|p| p.error.as_deref())
            .collect();
        assert_eq!(errs.len(), 2);
        assert!(errs.iter().all(|e| e.contains("OutOfMemory")));
        // The same failure outside a fleet still aborts the run.
        let err = Scenario::new()
            .node("tiny", tiny)
            .deploys(&class)
            .program("Alloc", "main", vec![])
            .run();
        assert!(matches!(err, Err(ScenarioError::Program { .. })));
    }

    #[test]
    fn a_program_that_cannot_spawn_fails_typed() {
        // An undeployed class: a declared program aborts the run typed.
        let err = Scenario::new()
            .node("a", NodeConfig::cluster("a"))
            .program("Nope", "main", vec![])
            .run();
        let Err(ScenarioError::Program { error, .. }) = err else {
            panic!("expected a program error, got {err:?}");
        };
        assert_eq!(error, "class not found: Nope");

        // A known method called with the wrong arity.
        let fib = sod_preprocess::preprocess_sod(&sod_workloads::programs::fib_class()).unwrap();
        let err = Scenario::new()
            .node("a", NodeConfig::cluster("a"))
            .deploys(&fib)
            .program("Fib", "main", vec![])
            .run();
        let Err(ScenarioError::Program { error, .. }) = err else {
            panic!("expected a program error, got {err:?}");
        };
        assert_eq!(error, "method not found: Fib.main/1 (got 0 args)");

        // A fleet with a misspelt method records each member's error while
        // the other fleet's members finish.
        let fleet = |method: &str| {
            Fleet::new("Fib", method, vec![Value::Int(5)])
                .programs(3)
                .across(&["a", "b"])
        };
        let report = Scenario::new()
            .node("a", NodeConfig::cluster("a"))
            .deploys(&fib)
            .node("b", NodeConfig::cluster("b"))
            .deploys(&fib)
            .fleet(fleet("main"))
            .fleet(fleet("mian"))
            .run()
            .unwrap();
        assert_eq!(report.cluster.launched, 6);
        assert_eq!(report.cluster.completed, 3);
        assert_eq!(report.cluster.failed, 3);
        for p in &report.programs()[..3] {
            assert_eq!((p.report.result, &p.error), (Some(5), &None), "{}", p.name);
        }
        for p in &report.programs()[3..] {
            let error = p.error.as_deref().unwrap_or_default();
            assert_eq!(error, "method not found: Fib.mian", "{}", p.name);
            assert_eq!(
                p.report.max_stack_height, 0,
                "{}: never had a thread",
                p.name
            );
        }
    }

    #[test]
    fn chaos_names_are_resolved_and_checked() {
        let class = trivial_class("T");
        // Unknown node in a chaos directive errors at run() time.
        let err = Scenario::new()
            .node("a", NodeConfig::cluster("a"))
            .deploys(&class)
            .program("T", "main", vec![])
            .chaos(Chaos::new().crash_at(1_000, "ghost"))
            .run();
        assert_eq!(err, Err(ScenarioError::UnknownNode("ghost".into())));
        // A quiet plan (crash of an uninvolved node) leaves results
        // intact and surfaces chaos counters.
        let report = Scenario::new()
            .node("a", NodeConfig::cluster("a"))
            .deploys(&class)
            .node("b", NodeConfig::cluster("b"))
            .program("T", "main", vec![])
            .chaos(Chaos::new().seed(9).crash_at(0, "b"))
            .run()
            .unwrap();
        assert_eq!(report.first().result, Some(1));
        assert_eq!(report.cluster.chaos.crashes, 1);
        assert_eq!(
            report.cluster.total_lost(),
            sod_runtime::NetBytes::default()
        );
    }

    #[test]
    fn pool_bounds_and_name_collisions_are_checked() {
        let class = trivial_class("T");
        let base_scenario = || {
            Scenario::new()
                .node("a", NodeConfig::cluster("a"))
                .deploys(&class)
                .program("T", "main", vec![])
        };
        // base must be at least 1 …
        let err = base_scenario().pool(Pool::new("w").base(0)).run();
        assert_eq!(
            err,
            Err(ScenarioError::PoolSize {
                pool: "w".into(),
                base: 0,
                max: 1,
            })
        );
        // … and max must cover it.
        let err = base_scenario().pool(Pool::new("w").base(2).max(1)).run();
        assert_eq!(
            err,
            Err(ScenarioError::PoolSize {
                pool: "w".into(),
                base: 2,
                max: 1,
            })
        );
        // A pool may not shadow a node, nor another pool.
        let err = base_scenario().pool(Pool::new("a")).run();
        assert_eq!(err, Err(ScenarioError::DuplicatePool("a".into())));
        let err = base_scenario()
            .pool(Pool::new("w"))
            .pool(Pool::new("w"))
            .run();
        assert_eq!(err, Err(ScenarioError::DuplicatePool("w".into())));
        // An initial member name may not shadow a declared node either.
        let err = Scenario::new()
            .node("a", NodeConfig::cluster("a"))
            .deploys(&class)
            .node("w-0", NodeConfig::cluster("w-0"))
            .program("T", "main", vec![])
            .pool(Pool::new("w"))
            .run();
        assert_eq!(err, Err(ScenarioError::DuplicateNode("w-0".into())));
    }

    #[test]
    fn queue_depth_thresholds_that_flap_are_rejected() {
        let class = trivial_class("T");
        let run = |high, low| {
            Scenario::new()
                .node("a", NodeConfig::cluster("a"))
                .deploys(&class)
                .program("T", "main", vec![])
                .pool(
                    Pool::new("w")
                        .base(1)
                        .max(4)
                        .scale_policy(ScalePolicy::QueueDepth { high, low }),
                )
                .run()
        };
        // Live 2, load 3: drains (3 < 2·2), then spawns back (⌈3/2⌉ > 1).
        let err = run(2, 2);
        let pool = "w".into();
        assert_eq!(
            err,
            Err(ScenarioError::PoolPolicy {
                pool,
                high: 2,
                low: 2
            })
        );
        assert!(run(2, 1).is_ok());
        assert!(run(3, 2).is_ok());
    }

    #[test]
    fn pool_destinations_resolve_and_counters_surface() {
        let class = sod_asm::builder::ClassBuilder::new("App")
            .method("work", &["n"], |m| {
                m.line();
                m.pushi(0).store("acc");
                m.pushi(0).store("i");
                m.line();
                m.label("loop");
                m.load("i").load("n").if_cmp(sod_vm::instr::Cmp::Ge, "done");
                m.line();
                m.load("acc").load("i").add().store("acc");
                m.line();
                m.load("i").pushi(1).add().store("i").goto("loop");
                m.line();
                m.label("done");
                m.load("acc").retv();
            })
            .method("main", &["n"], |m| {
                m.line();
                m.load("n").invoke("App", "work", 1).store("r");
                m.line();
                m.load("r").retv();
            })
            .build()
            .unwrap();
        let class = sod_preprocess::preprocess_sod(&class).unwrap();
        let report = Scenario::new()
            .node("home", NodeConfig::cluster("home"))
            .deploys(&class)
            .pool(Pool::new("workers").base(1).max(2))
            .program("App", "main", vec![Value::Int(200_000)])
            .migrate(When::At(sod_net::MS), Plan::top_to("workers", 1))
            .run()
            .unwrap();
        assert_eq!(report.first().result, Some((0..200_000i64).sum()));
        assert_eq!(report.first().migrations.len(), 1);
        // The pool's counters surface in the cluster report, and its
        // initial member occupies the node slot after the declared nodes.
        assert_eq!(report.cluster.pools.len(), 1);
        let pool = &report.cluster.pools[0];
        assert_eq!(pool.name, "workers");
        assert_eq!(pool.final_size, 1);
        assert_eq!(pool.spawns, 0);
        assert_eq!(report.cluster.per_node.len(), 2);
        assert!(report.cluster.per_node[1].slices > 0, "member executed");
        assert!(report.cluster.node_ns > 0);
        // A migration naming neither node nor pool still errors.
        let err = Scenario::new()
            .node("a", NodeConfig::cluster("a"))
            .deploys(&class)
            .program("App", "main", vec![Value::Int(4)])
            .migrate(When::At(sod_net::MS), Plan::top_to("ghost", 1))
            .run();
        assert_eq!(err, Err(ScenarioError::UnknownNode("ghost".into())));
    }

    #[test]
    fn fleet_placement_skips_nodes_down_at_spawn() {
        let class = trivial_class("T");
        let fleet = || {
            Fleet::new("T", "main", vec![])
                .programs(6)
                .across(&["a", "b"])
                .arrivals(ArrivalSchedule::uniform(1_000), 7)
        };
        let scenario = |chaos| {
            Scenario::new()
                .node("a", NodeConfig::cluster("a"))
                .deploys(&class)
                .node("b", NodeConfig::cluster("b"))
                .deploys(&class)
                .fleet(fleet())
                .chaos(chaos)
                .run()
                .unwrap()
        };
        // "b" is down for the whole run. Round-robin used to home half
        // the fleet there and fail them on arrival; placement now skips
        // to the next node that is up at each member's start time.
        let report = scenario(Chaos::new().crash_at(0, "b"));
        assert_eq!(report.cluster.launched, 6);
        assert_eq!(report.cluster.completed, 6);
        assert_eq!(report.cluster.failed, 0);
        assert!(report.programs().iter().all(|p| p.error.is_none()));
        // Crashing an uninvolved instant later leaves members homed on
        // "b" in place once it has restarted.
        let report = scenario(Chaos::new().crash_at(0, "b").restart_at(1_500, "b"));
        assert_eq!(report.cluster.completed, 6);
        assert_eq!(report.cluster.failed, 0);
    }

    #[test]
    fn errors_display() {
        let e = ScenarioError::Program {
            program: "App::main".into(),
            error: "boom".into(),
        };
        assert!(e.to_string().contains("App::main"));
        assert!(ScenarioError::NoNodes.to_string().contains("no nodes"));
    }
}
