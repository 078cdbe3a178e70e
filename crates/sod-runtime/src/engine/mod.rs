//! The SODEE engine: nodes, migration managers, and object managers wired
//! into the discrete-event simulator.
//!
//! One [`Cluster`] implements [`sod_net::World`]; the driver ([`SodSim`])
//! injects `StartProgram` / `MigrateNow` / `ClientRequest` events and runs
//! the simulation to idle. Execution proceeds in bounded virtual-time
//! *slices* per thread, so message arrivals (migration requests, object
//! replies) interleave with guest execution deterministically.
//!
//! ## Protocol modules
//!
//! The engine is split along the paper's protocol boundaries; this module
//! holds the shared state ([`Cluster`], [`Program`], [`SodSim`]) and the
//! message dispatch, while each protocol lives in its own submodule:
//!
//! * `exec.rs` — the slice loop: running threads, host intrinsics,
//!   policy-trigger evaluation, program completion/failure;
//! * `migrate.rs` — home-side capture, segment staging, cache-aware
//!   code bundling ([`CodeShipping`]), class serving, and roaming hops;
//! * `restore.rs` — segment arrival, on-demand class waits, and both
//!   restore protocols (breakpoint/handler and exact direct);
//! * `objects.rs` — the object manager: on-demand fetches, dirty
//!   write-back flushes, temp-id assignment;
//! * `completion.rs` — segment returns, workflow chaining, and
//!   `ForceEarlyReturn` resumption at home;
//! * `protocol.rs` — `home` and `worker`, the transition functions of the
//!   typed `HomeSide` (with its `Episode`) and `WorkerPhase`: every handler
//!   above decodes, steps one, and applies the effect it returns;
//! * `session.rs` — worker sessions, staged segments, session-id minting.
//!
//! ## Migration flow (paper §III; each step a transition in `protocol.rs`)
//!
//! 1. `MigrateNow` sets a pending plan; the thread stops at the next
//!    migration-safe point.
//! 2. The migration manager captures the top frames via the tooling
//!    interface (JVMTI costs, or the portable serialization path when the
//!    destination lacks JVMTI), splitting them into the plan's segments,
//!    staged in one *episode* that the frozen home side owns. At
//!    `CaptureDone` one function, `ship_episode`, places pool segments,
//!    wires the return chain and ships every segment concurrently (Fig.
//!    1c); a deadline's re-ship goes through it too.
//! 3. Each destination loads missing classes (the bundled classes
//!    first, the rest on demand), then re-establishes the frames: the
//!    breakpoint + `InvalidStateException` + restoration-handler
//!    protocol on JVMTI nodes, or an exact direct restore for
//!    restore-ahead workflow segments and no-JVMTI devices. A state whose
//!    session the open episode does not list is stale and dropped.
//! 4. Object faults travel to the *home* node's object manager, which
//!    serializes the master copy back (heap-on-demand).
//! 5. When a segment's last frame pops, dirty/new objects flush home and
//!    the return value routes to the next segment (workflow) or back home,
//!    where `ForceEarlyReturn` pops the stale frames and execution resumes.
//!    The episode closes — dropped, its sessions retired — when the value
//!    comes home, its deadline gives up, or the program ends.
//!
//! ## Code shipping & the peer class cache
//!
//! Every node remembers which classes each peer provably holds (learned
//! from the `State` bundles and `ClassReply` messages it sent — see
//! [`crate::node::Node::peer_classes`]). Bundling is destination-aware:
//! under the default [`CodeShipping::BundleTop`] policy a class the peer
//! is known to hold is *not* re-shipped, which removes the redundant
//! class bytes that every warm-worker migration used to pay. Classes the
//! tracker cannot prove present still arrive via the on-demand
//! `ClassRequest` path, so skipping is always safe.

mod completion;
mod elastic;
mod exec;
mod fault;
mod migrate;
mod objects;
mod pool;
mod protocol;
mod restore;
mod session;

pub use fault::{Recovery, RetryPolicy, DEFAULT_MIGRATION_TIMEOUT_NS};
pub use pool::{PoolSpec, PoolSpecError, ScalePolicy, POOL_DEST_BASE, POOL_TICK_NS};
#[doc(hidden)]
pub use protocol::HomeView;
pub use request::Requested;
pub(crate) use session::{Owner, WorkerSession};

use sod_net::{Sim, SimCtx, Topology, World};
use sod_vm::value::{ObjId, Value};
use sod_vm::wire::{BufferPool, FrameBatch};

use crate::metrics::{ChaosCounters, ClusterReport, NetBytes, NodeUtilization, Residue, RunReport};
use crate::msg::{HostReply, MigrationPlan, Msg, ProgramId, ReturnTarget, SessionId};
use crate::node::Node;
use crate::trigger::{Armed, When};

use protocol::{HomeEffect, HomeInput, HomeSide, PlanSource};
use session::StagedSegment as Staged;

/// Worker-created objects are flushed home under temporary ids at/above
/// this base until the home node assigns master ids.
pub const TEMP_ID_BASE: ObjId = 1 << 30;

/// Default execution slice: how much virtual time a thread runs per event.
pub const DEFAULT_SLICE_NS: u64 = 100_000; // 100 µs

/// On-demand fetch policy (ablation axis; the paper's default is shallow
/// per-object fetching).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FetchPolicy {
    /// Fetch exactly the missed object.
    #[default]
    Shallow,
    /// Fetch the transitive closure of the missed object (eager subgraph).
    Deep,
}

/// How class files travel with a migrating segment (ablation axis for the
/// code-shipping experiments; plumbed through `Scenario::code_shipping`).
///
/// All policies are *correct* — anything not bundled ships later through
/// the on-demand `ClassRequest` path — they only trade eager bytes against
/// extra round trips.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CodeShipping {
    /// The paper's default: bundle the top frame's class with the state,
    /// unless the destination is known to hold it already (peer-cache
    /// tracking skips provably redundant copies).
    #[default]
    BundleTop,
    /// Ship nothing eagerly; every class goes on demand.
    Never,
    /// Bundle every class statically reachable from the shipped frames
    /// (transitive `referenced_classes` closure over the sender's repo),
    /// minus those the destination is known to hold.
    BundleReachable,
    /// The pre-cache baseline: bundle the top frame's class with *every*
    /// migration, even when the destination provably has it. Kept for the
    /// codecache ablation; never skips.
    BundleAlways,
}

/// A registered program (one root thread).
///
/// Its life is two values, and every combination of them is a real
/// state: no thread and no end (pending), a thread and no end (running),
/// an end and no thread (failed before its spawn), both (ended).
pub struct Program {
    pub home: usize,
    pub class: String,
    pub method: String,
    pub args: Vec<Value>,
    pub report: RunReport,
    pub fetch_policy: FetchPolicy,
    /// The root thread on `home`, set when `StartProgram` spawns it and
    /// kept after the end (its slot is released then).
    thread: Option<usize>,
    /// How the program ended, set once by `Cluster::end_program`.
    end: Option<Result<(), String>>,
    /// Condition policies armed by [`SodSim::migrate`], evaluated at
    /// migration-safe points (see [`crate::trigger`]).
    armed: Vec<Armed>,
    /// Execution slices consumed by the root thread on its home node
    /// (the `OnCpuSliceBudget` measure).
    pub slices_run: u64,
    /// Home-side migration state machine (idle / plan pending / frozen
    /// under an open migration episode), stepped by `protocol::home`.
    side: HomeSide<Staged>,
}

impl Program {
    /// Whether the program has ended, ok or failed.
    pub fn is_done(&self) -> bool {
        self.end.is_some()
    }

    /// Why the program failed; `None` while it runs or once it ended ok.
    pub fn error(&self) -> Option<&str> {
        self.end.as_ref()?.as_ref().err().map(String::as_str)
    }

    /// The root thread's id on the home node, once spawned.
    pub fn home_tid(&self) -> Option<usize> {
        self.thread
    }

    /// Whether a `StartProgram` launches this program: only with neither a
    /// thread nor an end. Others are dropped.
    fn launches(&self) -> bool {
        self.thread.is_none() && self.end.is_none()
    }
}

/// The cluster: every node with the state it owns, the programs in id
/// order, and the fleet-wide settings.
///
/// State lives with the node that owns it: sessions, thread owners, the
/// session counter and the class memo are fields of the hosting [`Node`].
pub struct Cluster {
    pub nodes: Vec<Node>,
    /// Every registered program, indexed by [`ProgramId`].
    pub programs: Vec<Program>,
    /// How many programs have ended — what the pool controller's every
    /// tick asks, without walking the program table. Bumped where a
    /// program's end is set (`end_program`).
    programs_done: usize,
    pub slice_ns: u64,
    /// Cluster-wide code-shipping policy (see [`CodeShipping`]).
    pub code_shipping: CodeShipping,
    /// Encode-buffer free list shared by every wire-path encoder (state
    /// captures, object replies, flush batches). Pool state never
    /// influences encoded bytes, so reuse cannot perturb determinism.
    buf_pool: BufferPool,
    /// How a migration that misses its deadline recovers, armed only with
    /// a fault-injection plan, so fault-free runs are event-for-event
    /// identical to the pre-chaos engine.
    recovery: fault::Deadlines,
    /// Fault-injection tallies, surfaced on the [`ClusterReport`].
    chaos: ChaosCounters,
    /// Elastic node pools (see `engine/pool.rs`); empty when the scenario
    /// declares none, keeping pool-free runs event-for-event identical to
    /// the pre-elastic engine.
    pools: Vec<pool::PoolRuntime>,
    /// The ok finishes of the pools' p99 window; recorded only while a
    /// pool exists, so a pool-free run holds none.
    finishes: pool::FinishWindow,
    /// Model per-node CPU contention: a slice's *scheduling delay* is
    /// multiplied by the number of runnable threads sharing the node,
    /// while `busy_ns` keeps charging uncontended CPU time. Off by
    /// default — existing scenarios are bit-identical to the pre-elastic
    /// engine; elastic ablations turn it on so added capacity actually
    /// buys latency.
    pub cpu_contention: bool,
}

impl Cluster {
    pub fn new(nodes: Vec<Node>) -> Self {
        Cluster {
            nodes,
            programs: Vec::new(),
            programs_done: 0,
            slice_ns: DEFAULT_SLICE_NS,
            code_shipping: CodeShipping::default(),
            buf_pool: BufferPool::new(),
            recovery: fault::Deadlines::default(),
            chaos: ChaosCounters::default(),
            pools: Vec::new(),
            finishes: pool::FinishWindow::default(),
            cpu_contention: false,
        }
    }

    /// Register a program rooted at `home`.
    pub fn add_program(
        &mut self,
        home: usize,
        class: impl Into<String>,
        method: impl Into<String>,
        args: Vec<Value>,
    ) -> ProgramId {
        self.programs.push(Program {
            home,
            class: class.into(),
            method: method.into(),
            args,
            report: RunReport::default(),
            fetch_policy: FetchPolicy::Shallow,
            thread: None,
            end: None,
            armed: Vec::new(),
            slices_run: 0,
            side: HomeSide::default(),
        });
        (self.programs.len() - 1) as ProgramId
    }

    /// Evaluate the program's armed policies against its current
    /// counters; the first satisfied policy installs its plan (one
    /// migration at a time — the rest re-evaluate after control returns).
    /// Whether one did.
    fn check_policy_triggers(&mut self, program: ProgramId) -> bool {
        let p = &mut self.programs[program as usize];
        if p.end.is_some() {
            return false;
        }
        let faults = p.report.object_faults;
        let slices = p.slices_run;
        for t in p.armed.iter_mut().filter(|t| !t.fired) {
            let satisfied = match t.when {
                When::OnObjectFaults(threshold) => faults >= threshold,
                When::OnCpuSliceBudget(budget) => slices >= budget,
                // `At` is an event, never armed; OnOom fires where the
                // exception surfaces, not here.
                When::At(_) | When::OnOom => false,
            };
            if !satisfied {
                continue;
            }
            // A side that is not idle refuses: the policy stays armed.
            let plan = HomeInput::Plan(t.plan.clone(), PlanSource::Trigger);
            let planned = protocol::home(&mut p.side, plan);
            t.fired = !matches!(planned, HomeEffect::Drop);
            return t.fired;
        }
        false
    }

    /// The one retirement point of a session — finished, failed, killed or
    /// roamed on: remove it from `node`, release its thread and owner
    /// entry, credit state it never restored as lost, and hand it back.
    /// `None` when `node` hosts no such session.
    fn retire_session(&mut self, node: usize, sid: SessionId) -> Option<WorkerSession> {
        let n = &mut self.nodes[node];
        let w = n.sessions.remove(&sid)?;
        if !w.recorded {
            n.net_lost.state += w.timings.state_bytes;
        }
        // `tid` is `usize::MAX`, which names no thread, until the restore
        // begins.
        n.thread_owner.remove(&w.tid);
        n.vm.release(w.tid);
        Some(w)
    }

    /// One step of `program`'s home side (see `protocol::home`).
    fn home_step(&mut self, program: ProgramId, input: HomeInput<Staged>) -> HomeEffect<Staged> {
        protocol::home(&mut self.programs[program as usize].side, input)
    }

    /// Apply `effect` if it closes a migration episode — its value came
    /// home, the deadline gave up on it, or the program ended: retire every
    /// session it lists and hand its segments back to the buffer pool (a
    /// kept shipment is what stopped each arrival recycling its frame).
    /// Whether it did.
    fn close_episode(&mut self, effect: HomeEffect<Staged>) -> bool {
        let HomeEffect::Close(sessions, segments) = effect else {
            return false;
        };
        for (node, sid) in sessions {
            self.retire_session(node, sid);
        }
        for seg in segments {
            self.buf_pool.recycle(seg.frame);
        }
        true
    }

    /// A delivered batch is finished with — installed, applied, rejected,
    /// stale or dropped: hand its buffers back to the pool. Every terminal
    /// path of a [`Msg::ObjectReply`] or [`Msg::Flush`] ends here, or a run
    /// that loses or refuses messages bleeds pooled buffers and mints new
    /// ones. (Frames sharing one buffer return it with the last of them.)
    fn retire_batch(&self, batch: FrameBatch) {
        for frame in batch.into_frames() {
            self.buf_pool.recycle(frame);
        }
    }

    /// Aggregate the cluster's current state into a [`ClusterReport`]:
    /// per-request completion latencies (nearest-rank percentiles),
    /// throughput, per-node utilization, and per-node network bytes
    /// broken out as state/class/object. Callable at any point; normally
    /// used after the simulation runs to idle.
    pub fn cluster_report(&self) -> ClusterReport {
        let mut latencies = Vec::new();
        let mut failed = 0u64;
        let mut makespan = 0u64;
        for p in self.programs.iter() {
            let Some(end) = &p.end else { continue };
            makespan = makespan.max(p.report.finished_at_ns);
            match end {
                Ok(()) => latencies.push(p.report.latency_ns()),
                Err(_) => failed += 1,
            }
        }
        // Shipped state that arrived somewhere but never restored is
        // accounted nowhere else: a retired session's was credited lost as
        // it retired; credit a live one's (restoring, or stuck) here, so
        // `sent = accounted + lost` closes at any time.
        let per_node = self
            .nodes
            .iter()
            .map(|n| {
                let stranded: u64 = n
                    .sessions
                    .values()
                    .filter(|w| !w.recorded)
                    .map(|w| w.timings.state_bytes)
                    .sum();
                // Node lifetime: join → retire (drained pool members and
                // crashed ones), join → makespan otherwise. A node that
                // joined after the last completion has zero lifetime.
                let end = n.retired_at_ns.unwrap_or(makespan).max(n.joined_at_ns);
                NodeUtilization {
                    name: n.cfg.name.clone(),
                    instructions: n.vm.instr_count,
                    slices: n.slices,
                    busy_ns: n.busy_ns,
                    events: n.events,
                    sent: n.net_sent,
                    lost: NetBytes {
                        state: n.net_lost.state + stranded,
                        class: n.net_lost.class,
                        object: n.net_lost.object,
                    },
                    lifetime_ns: end - n.joined_at_ns,
                    heap_objects: n.vm.heap.alloc_count(),
                    heap_entries: n.vm.heap.len() as u64,
                }
            })
            .collect();
        let mut report = ClusterReport::aggregate(
            self.programs.len() as u64,
            latencies,
            failed,
            makespan,
            per_node,
        );
        report.chaos = self.chaos;
        report.pools = self.pool_reports();
        report
    }

    /// What the nodes still hold of the work they hosted, summed over the
    /// cluster, and the programs whose home side is not idle: zero at
    /// idle, since work is reclaimed where it finishes.
    pub(crate) fn residue(&self) -> Residue {
        let mut r = Residue::default();
        for n in &self.nodes {
            r.sessions += n.sessions.len();
            r.owners += n.thread_owner.len();
            r.threads += n.vm.thread_ids().count();
            r.breakpoints += n.vm.breakpoints_armed();
        }
        r.episodes = self.programs.iter().filter(|p| !p.side.is_idle()).count();
        r
    }

    /// Each session `node` hosts, ascending by id: its program, thread
    /// (once its restore began) and return target — for suites that aim
    /// stale messages at a session once it is gone.
    #[doc(hidden)]
    pub fn hosted(&self, node: usize) -> Vec<(SessionId, ProgramId, Option<usize>, ReturnTarget)> {
        let hosted = self.nodes[node].sessions.iter().map(|(&sid, w)| {
            let tid = (w.tid != usize::MAX).then_some(w.tid);
            (sid, w.program, tid, w.return_to)
        });
        let mut hosted: Vec<_> = hosted.collect();
        hosted.sort_unstable_by_key(|h| h.0);
        hosted
    }

    /// `program`'s home side as the protocol holds it — for suites that
    /// check the protocol's invariants on a live run.
    #[doc(hidden)]
    pub fn home_side(&self, program: ProgramId) -> HomeView<'_> {
        self.programs[program as usize].side.view()
    }

    /// Whether `msg` may land at `dst`: the one place that says where each
    /// message is addressed, and that every program, pool and node it
    /// names exists (the handlers index by them).
    ///
    /// * The program's home — its one object manager and return point:
    ///   `StartProgram`, `MigrateNow`, `CaptureDone`, `MigrationTimeout`,
    ///   a `SegmentReturn` to [`ReturnTarget::Home`], `ClassRequest`,
    ///   `ObjectRequest`, `Flush`.
    /// * Node 0, the pool controller: `PoolTick`.
    /// * The node serving its path to the requester: `FsRead`.
    /// * The node holding the session or thread the message names: the
    ///   handler's own lookup at `dst` is the check, so a stale reply still
    ///   credits its bytes where it lands. `PoolReady` is the node itself,
    ///   found among its pool's members.
    /// * Anywhere: `State` (its episode lists where it may restore) and
    ///   `ClientRequest`.
    #[doc(hidden)]
    pub fn admit(&self, dst: usize, msg: &Msg) -> bool {
        let program = |p: &ProgramId| self.programs.get(*p as usize);
        let home = |p: &ProgramId| program(p).is_some_and(|p| p.home == dst);
        let node = |n: &usize| *n < self.nodes.len();
        match msg {
            Msg::StartProgram { program: p }
            | Msg::MigrateNow { program: p, .. }
            | Msg::CaptureDone { program: p }
            | Msg::MigrationTimeout { program: p, .. }
            | Msg::SegmentReturn {
                program: p,
                target: ReturnTarget::Home,
                ..
            } => home(p),
            Msg::ClassRequest {
                requester,
                program: p,
                ..
            }
            | Msg::ObjectRequest {
                requester,
                program: p,
                ..
            } => home(p) && node(requester),
            Msg::Flush {
                program: p, ack_to, ..
            } => home(p) && ack_to.as_ref().is_none_or(|(n, _)| node(n)),
            Msg::PoolTick { pool } => *pool < self.pools.len() && dst == 0,
            Msg::PoolReady { pool } => *pool < self.pools.len(),
            Msg::State(state) => program(&state.info.program).is_some(),
            Msg::FsRead {
                requester, path, ..
            } => node(requester) && self.nodes[*requester].fs.serving_node(path) == Some(dst),
            _ => true,
        }
    }
}

impl World for Cluster {
    type Msg = Msg;

    fn on_message(&mut self, dst: usize, msg: Msg, ctx: &mut SimCtx<'_, Msg>) {
        // Per-node event accounting (surfaced in `NodeUtilization`).
        self.nodes[dst].events += 1;
        if !self.admit(dst, &msg) {
            // Nothing the engine sends lands here: drop it, crediting
            // nothing. A batch still owes its buffers to the pool.
            if let Msg::Flush { batch, .. } = msg {
                self.retire_batch(batch);
            }
            return;
        }
        match msg {
            Msg::StartProgram { program } => {
                // The one transition into running.
                let p = &self.programs[program as usize];
                if !p.launches() {
                    return;
                }
                let vm = &mut self.nodes[dst].vm;
                let tid = match vm.spawn(&p.class, &p.method, &p.args) {
                    Ok(tid) => tid,
                    Err(e) => return self.spawn_failed(program, e, ctx.now()),
                };
                // At home: what the root thread allocates are masters.
                if let Ok(t) = vm.thread_mut(tid) {
                    t.origin = None;
                }
                let p = &mut self.programs[program as usize];
                p.thread = Some(tid);
                p.report.started_at_ns = ctx.now();
                self.nodes[dst]
                    .thread_owner
                    .insert(tid, Owner::Root(program));
                ctx.schedule(0, dst, Msg::RunSlice { tid });
            }
            Msg::MigrateNow { program, plan, .. } => {
                // The live slice chain observes the plan at its next stop;
                // scheduling another slice here would double-drive the
                // thread.
                if self.programs[program as usize].end.is_none() {
                    self.home_step(program, HomeInput::Plan(plan, PlanSource::MigrateNow));
                }
            }
            Msg::RunSlice { tid } => self.run_slice(dst, tid, ctx),
            Msg::HostDone { tid, call, reply } => self.host_done(dst, (tid, call), reply, ctx),
            Msg::CaptureDone { program } => {
                let captured = self.recovery.capture_done();
                if let HomeEffect::Ship(shipment) = self.home_step(program, captured) {
                    self.ship_episode(program, shipment, ctx);
                }
            }
            Msg::MigrationTimeout { program, episode } => {
                self.migration_timeout(dst, program, episode, ctx)
            }
            Msg::PoolTick { pool } => self.pool_tick(pool, ctx),
            Msg::PoolReady { pool } => self.pool_ready(pool, dst),
            Msg::State(state) => self.state_arrived(dst, *state, ctx),
            Msg::BeginRestore { session } => self.begin_restore(dst, session, ctx),
            Msg::ClassRequest {
                session,
                requester,
                name,
                program,
            } => self.class_request(dst, session, requester, name, program, ctx),
            Msg::ClassReply {
                session,
                class,
                bytes,
            } => self.class_reply(dst, session, class, bytes, ctx),
            Msg::ObjectRequest {
                session,
                requester,
                home_id,
                program,
            } => self.object_request(dst, session, requester, home_id, program, ctx),
            Msg::ObjectReply { session, batch } => self.object_reply(dst, session, batch, ctx),
            Msg::Flush {
                program,
                batch,
                ack_to,
            } => self.apply_flush(dst, program, batch, ack_to, ctx),
            Msg::FlushAck { session, assigned } => self.flush_ack(dst, session, assigned, ctx),
            Msg::SegmentReturn {
                program,
                session,
                target,
                retval,
                pop_frames,
            } => self.segment_return(dst, program, session, target, retval, pop_frames, ctx),
            Msg::FsRead {
                requester,
                tid,
                call,
                path,
                op,
            } => self.fs_read(dst, requester, (tid, call), path, op, ctx),
            Msg::FsData {
                tid,
                call,
                bytes,
                op,
                result,
            } => self.fs_data(dst, (tid, call), bytes, op, result, ctx),
            Msg::ClientRequest { payload } => {
                if let Some((tid, call)) = self.nodes[dst].sock_waiters.pop_front() {
                    let reply = HostReply::Str(payload);
                    ctx.schedule(0, dst, Msg::HostDone { tid, call, reply });
                } else {
                    self.nodes[dst].sock_queue.push_back(payload);
                }
            }
        }
    }

    fn on_chaos(&mut self, action: &sod_net::ChaosAction, now: u64) {
        self.apply_chaos(action, now);
    }

    fn on_dropped(&mut self, src: usize, dst: usize, msg: Msg, _: sod_net::DropReason, now: u64) {
        self.note_dropped(src, dst, msg, now);
    }

    fn on_duplicated(&mut self, src: usize, _dst: usize, msg: &Msg) {
        self.note_duplicated(src, msg);
    }
}

/// The one way to request a migration: [`SodSim::migrate`] alone builds
/// the [`Requested`] a `MigrateNow` carries.
mod request {
    use super::{Armed, MigrationPlan, Msg, ProgramId, SodSim, When};

    /// What a `MigrateNow` carries to show that [`SodSim::migrate`] sent
    /// it: zero bytes, built nowhere but in this module. A copy of a sent
    /// one (a duplicate, a test's forgery) is a clone.
    #[derive(Clone, Debug)]
    pub struct Requested(());

    impl SodSim {
        /// Migrate `program` per `plan` when `when` says (see
        /// [`crate::trigger`]): [`When::At`] injects a `MigrateNow` event
        /// at that virtual time; every other policy is armed on the
        /// program and fires at most once.
        pub fn migrate(&mut self, program: ProgramId, when: When, plan: MigrationPlan) {
            let p = &mut self.sim.world.programs[program as usize];
            match when {
                When::At(at) => {
                    let (home, by) = (p.home, Requested(()));
                    let request = Msg::MigrateNow { program, plan, by };
                    self.sim.inject(at, home, request);
                }
                _ => p.armed.push(Armed {
                    when,
                    plan,
                    fired: false,
                }),
            }
        }
    }
}

/// Driver: a [`Sim`] over a [`Cluster`] with experiment-friendly helpers.
pub struct SodSim {
    pub sim: Sim<Cluster>,
}

impl SodSim {
    /// A driver for `cluster` over `topo`.
    pub fn new(cluster: Cluster, topo: Topology) -> Self {
        SodSim {
            sim: Sim::new(cluster, topo),
        }
    }

    /// Start a registered program at virtual time `at`.
    pub fn start_program(&mut self, at: u64, program: ProgramId) {
        let home = self.sim.world.programs[program as usize].home;
        self.sim.inject(at, home, Msg::StartProgram { program });
    }

    /// Inject the first controller tick for every registered pool (each
    /// tick reschedules itself until the pool is quiescent). Pools must
    /// already have been added via [`Cluster::add_pool`] — before the
    /// simulator was built, so the topology covers the base members.
    pub fn start_pool_ticks(&mut self) {
        for pool in 0..self.sim.world.pools.len() {
            self.sim.inject(POOL_TICK_NS, 0, Msg::PoolTick { pool });
        }
    }

    /// Inject a client request into a photo-server node.
    pub fn client_request_at(&mut self, at: u64, node: usize, payload: impl Into<String>) {
        self.sim.inject(
            at,
            node,
            Msg::ClientRequest {
                payload: payload.into(),
            },
        );
    }

    /// Run the simulation to idle; returns final virtual time.
    pub fn run(&mut self) -> u64 {
        self.sim.run_to_idle(500_000_000)
    }

    /// The report of a completed program.
    pub fn report(&self, program: ProgramId) -> &RunReport {
        &self.sim.world.programs[program as usize].report
    }

    /// Aggregate fleet metrics over every registered program (see
    /// [`Cluster::cluster_report`]).
    pub fn cluster_report(&self) -> ClusterReport {
        self.sim.world.cluster_report()
    }

    /// Check the identities every run satisfies at idle; `Err` names the
    /// first that fails, with both of its numbers:
    ///
    /// * the event queue is drained (a run that spent its event budget
    ///   fails here, naming the node that absorbed the most deliveries);
    /// * every program is done: an ok one with a result, a failed one with
    ///   none and a non-empty error;
    /// * no program's migrations bundled more class bytes than it shipped;
    /// * nothing of the work is left (`Cluster::residue` is zero);
    /// * per byte category, `sent = accounted + lost`, accounted being the
    ///   migrations' state bytes and the programs' class and object bytes
    ///   (per category only: a flush credits its objects to whichever
    ///   program's completion sent it);
    /// * the programs' instructions are the nodes', the nodes' events are
    ///   the simulator's deliveries, and the chaos drops are its drops;
    /// * each pool holds `base + spawns` members, `min ≤ peak ≤ max`, and
    ///   ends at `base` live; the nodes are the declared ones plus every
    ///   pool member.
    ///
    /// Allocates nothing unless it fails. The facade's `Scenario::run`
    /// calls it after every run. A hand-driven run that injects forged
    /// `State` bytes breaks the state ledger: its retiring session credits
    /// as lost bytes nobody sent.
    pub fn check_idle(&self) -> Result<(), String> {
        let (sim, world) = (&self.sim, &self.sim.world);
        ensure(sim.is_idle(), || {
            // The node that absorbed the most deliveries, the lowest on a tie.
            let by_node = world.nodes.iter().map(|n| n.events).enumerate();
            let hottest = |hot: (usize, u64), (i, c)| if c > hot.1 { (i, c) } else { hot };
            let ((hot, count), queued) = (by_node.fold((0, 0), hottest), sim.queued());
            format!(
                "the event queue is not drained: {queued} queued at t={} ns; hottest node \
                 {hot} absorbed {count} of the {} deliveries",
                sim.now(),
                sim.delivered()
            )
        })?;
        let (mut accounted, mut instructions) = (NetBytes::default(), 0);
        for (i, p) in world.programs.iter().enumerate() {
            let r = &p.report;
            match &p.end {
                None => return Err(format!("program {i} is not done")),
                Some(Ok(())) => ensure(r.result.is_some(), || {
                    format!("program {i} ended ok with no result")
                })?,
                Some(Err(e)) => ensure(r.result.is_none() && !e.is_empty(), || {
                    format!("program {i} failed ({e:?}) with result {:?}", r.result)
                })?,
            }
            let bundled: u64 = r.migrations.iter().map(|m| m.class_bytes).sum();
            ensure(bundled <= r.class_bytes, || {
                format!(
                    "program {i} bundled {bundled} > {} class bytes",
                    r.class_bytes
                )
            })?;
            accounted.state += r.migrations.iter().map(|m| m.state_bytes).sum::<u64>();
            accounted.class += r.class_bytes;
            accounted.object += r.object_bytes;
            instructions += r.instructions;
        }
        let residue = world.residue();
        ensure(residue == Residue::default(), || {
            format!("residue at idle: {residue:?}")
        })?;
        let (mut sent, mut lost) = (NetBytes::default(), NetBytes::default());
        let (mut node_instructions, mut events) = (0, 0);
        for n in &world.nodes {
            sent = sent + n.net_sent;
            lost = lost + n.net_lost;
            node_instructions += n.vm.instr_count;
            events += n.events;
        }
        for (what, s, a, l) in [
            ("state", sent.state, accounted.state, lost.state),
            ("class", sent.class, accounted.class, lost.class),
            ("object", sent.object, accounted.object, lost.object),
        ] {
            ensure(s == a + l, || {
                format!("{what} bytes: sent {s} != accounted {a} + lost {l}")
            })?;
        }
        ensure(instructions == node_instructions, || {
            format!("program instructions {instructions} != node instructions {node_instructions}")
        })?;
        ensure(events == sim.delivered(), || {
            format!("node events {events} != deliveries {}", sim.delivered())
        })?;
        ensure(world.chaos.dropped_msgs == sim.dropped(), || {
            let counted = world.chaos.dropped_msgs;
            format!("chaos drops {counted} != simulator drops {}", sim.dropped())
        })?;
        let mut members = 0;
        for p in &world.pools {
            let (name, base, max) = (&p.spec.name, p.spec.base as u64, p.spec.max as u64);
            let size = p.members.len() as u64;
            ensure(size == base + p.spawns, || {
                format!(
                    "pool {name}: {size} members != base {base} + {} spawns",
                    p.spawns
                )
            })?;
            ensure(p.min <= p.peak && p.peak <= max, || {
                format!(
                    "pool {name}: not min {} <= peak {} <= max {max}",
                    p.min, p.peak
                )
            })?;
            let live = p.count(pool::MemberState::Live) as u64;
            ensure(live == base, || {
                format!("pool {name}: final size {live} != base {base}")
            })?;
            members += p.members.len();
        }
        // Pool members are appended after every declared node.
        let declared = world.pools.iter().find_map(|p| p.members.first());
        let declared = declared.map_or(world.nodes.len(), |m| m.node);
        ensure(world.nodes.len() == declared + members, || {
            let nodes = world.nodes.len();
            format!("{nodes} nodes != {declared} declared + {members} pool members")
        })
    }

    pub fn program(&self, program: ProgramId) -> &Program {
        &self.sim.world.programs[program as usize]
    }
}

/// `Ok` when `ok` holds, else the message `what` builds (only then).
fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

#[cfg(test)]
mod tests {
    use sod_asm::builder::ClassBuilder;
    use sod_net::US;
    use sod_preprocess::preprocess_sod;
    use sod_vm::instr::Cmp;

    use super::*;
    use crate::node::NodeConfig;

    /// A cluster of `home` (with `App.main(n)`, which counts to `n`) and
    /// `worker`.
    fn app_cluster() -> Cluster {
        let class = ClassBuilder::new("App")
            .method("main", &["n"], |m| {
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
            .build()
            .unwrap();
        let mut home = Node::new(NodeConfig::cluster("home"));
        home.deploy(&preprocess_sod(&class).unwrap()).unwrap();
        Cluster::new(vec![home, Node::new(NodeConfig::cluster("worker"))])
    }

    fn pool(base: usize, max: usize, policy: ScalePolicy) -> PoolSpec {
        PoolSpec {
            name: "pool".into(),
            template: NodeConfig::cluster("pool"),
            base,
            max,
            policy,
            cold_start_ns: 0,
        }
    }

    /// One program counting to 50 000 on node 0, its top frame shipped to
    /// node 1 at 100 µs, beside a one-member pool: run to idle.
    fn idle() -> SodSim {
        let mut cluster = app_cluster();
        let pid = cluster.add_program(0, "App", "main", vec![Value::Int(50_000)]);
        let step = ScalePolicy::StepLoad { per_node: 1 };
        cluster.add_pool(pool(1, 2, step)).unwrap();
        let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(3));
        sim.start_pool_ticks();
        sim.start_program(0, pid);
        sim.migrate(pid, When::At(100 * US), MigrationPlan::top_to(1, 1));
        sim.run();
        sim
    }

    /// Each identity, broken alone on a fresh idle run, is the one named.
    #[test]
    fn check_idle_names_each_broken_identity() {
        let sim = idle();
        assert_eq!(sim.check_idle(), Ok(()));
        assert!(sim.program(0).report.migrations[0].class_bytes > 0);
        type Break = fn(&mut SodSim);
        let cases: [(&str, Break); 18] = [
            (
                "1 queued at t=9000000 ns; hottest node 0 absorbed 15 of the 22",
                |s| s.client_request_at(s.sim.now(), 0, ""),
            ),
            ("program 0 is not done", |s| {
                s.sim.world.programs[0].end = None
            }),
            ("no result", |s| {
                s.sim.world.programs[0].report.result = None
            }),
            ("failed", |s| {
                s.sim.world.programs[0].end = Some(Err("x".into()))
            }),
            ("bundled", |s| {
                s.sim.world.programs[0].report.class_bytes = 0
            }),
            ("episodes: 1", |s| {
                let plan = HomeInput::Plan(MigrationPlan::top_to(1, 1), PlanSource::MigrateNow);
                protocol::home(&mut s.sim.world.programs[0].side, plan);
            }),
            ("owners: 1", |s| {
                let owner = Owner::Root(0);
                s.sim.world.nodes[1].thread_owner.insert(7, owner);
            }),
            ("threads: 1", |s| {
                s.sim.world.nodes[1]
                    .vm
                    .spawn("App", "main", &[Value::Int(1)])
                    .unwrap();
            }),
            ("breakpoints: 1", |s| {
                s.sim.world.nodes[1].vm.set_breakpoint(7, 0, 0, 0)
            }),
            ("state bytes", |s| s.sim.world.nodes[0].net_sent.state += 1),
            ("class bytes", |s| s.sim.world.nodes[1].net_lost.class += 1),
            ("object bytes", |s| {
                s.sim.world.nodes[0].net_sent.object += 1
            }),
            ("instructions", |s| s.sim.world.nodes[0].vm.instr_count += 1),
            ("events", |s| s.sim.world.nodes[0].events += 1),
            ("drops", |s| s.sim.world.chaos.dropped_msgs += 1),
            ("spawns", |s| s.sim.world.pools[0].spawns += 1),
            ("peak", |s| s.sim.world.pools[0].peak = 3),
            ("declared", |s| {
                s.sim.world.nodes.push(Node::new(NodeConfig::cluster("x")))
            }),
        ];
        for (names, break_it) in cases {
            let mut sim = idle();
            break_it(&mut sim);
            let err = sim.check_idle().expect_err(names);
            assert!(err.contains(names), "{names}: {err}");
        }
    }

    /// A hand-built spec with `max < base` is refused where it enters the
    /// runtime (its first tick used to panic in `usize::clamp`), and the
    /// run beside it goes on without the pool — holding no window entries.
    #[test]
    fn a_pool_with_max_below_base_is_refused() {
        let mut cluster = app_cluster();
        let pid = cluster.add_program(0, "App", "main", vec![Value::Int(50_000)]);
        let step = ScalePolicy::StepLoad { per_node: 1 };
        assert_eq!(cluster.add_pool(pool(2, 1, step)), Err(PoolSpecError::Size));
        let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
        sim.start_pool_ticks();
        sim.start_program(0, pid);
        sim.run();
        assert_eq!(sim.check_idle(), Ok(()));
        assert_eq!(sim.program(pid).report.result, Some(50_000));
        assert_eq!(sim.sim.world.finishes.len(), 0);
    }

    /// A `P99Breach` fleet of 2 000 programs, one started every 10 µs,
    /// each over the budget: the window ends holding no more than the ok
    /// finishes of the last tick period, not one entry per program.
    #[test]
    fn the_p99_window_is_bounded_by_the_last_tick_period() {
        let mut cluster = app_cluster();
        let pids: Vec<ProgramId> = (0..2_000)
            .map(|_| cluster.add_program(0, "App", "main", vec![Value::Int(2_000)]))
            .collect();
        let breach = ScalePolicy::P99Breach { budget_ns: 10 * US };
        cluster.add_pool(pool(1, 4, breach)).unwrap();
        let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(3));
        sim.start_pool_ticks();
        for pid in pids {
            sim.start_program(u64::from(pid) * 10 * US, pid);
        }
        sim.run();
        assert_eq!(sim.check_idle(), Ok(()));
        let world = &sim.sim.world;
        assert!(world.pools[0].spawns > 0, "the budget is breached");
        let from = sim.sim.now() - POOL_TICK_NS;
        let in_last_tick = |p: &&Program| p.end == Some(Ok(())) && p.report.finished_at_ns > from;
        let last = world.programs.iter().filter(in_last_tick).count();
        let held = world.finishes.len();
        assert!(
            0 < held && held <= last,
            "{held} held, {last} in the last tick"
        );
    }
}
