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
//! * `session.rs` — the typed `HomeSide`/`WorkerPhase` state
//!   machines the other modules share, and session-id minting.
//!
//! ## Migration flow (paper §III)
//!
//! 1. `MigrateNow` sets a pending plan; the thread stops at the next
//!    migration-safe point.
//! 2. The migration manager captures the top frames via the tooling
//!    interface (JVMTI costs, or the portable serialization path when the
//!    destination lacks JVMTI), splitting them into the plan's segments —
//!    one freeze, concurrent shipping (Fig. 1c).
//! 3. Each destination loads missing classes (the bundled classes
//!    first, the rest on demand), then re-establishes the frames: the
//!    breakpoint + `InvalidStateException` + restoration-handler
//!    protocol on JVMTI nodes, or an exact direct restore for
//!    restore-ahead workflow segments and no-JVMTI devices.
//! 4. Object faults travel to the *home* node's object manager, which
//!    serializes the master copy back (heap-on-demand).
//! 5. When a segment's last frame pops, dirty/new objects flush home and
//!    the return value routes to the next segment (workflow) or back home,
//!    where `ForceEarlyReturn` pops the stale frames and execution resumes.
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
mod restore;
mod session;

pub use fault::{RetryPolicy, DEFAULT_MIGRATION_TIMEOUT_NS};
pub use pool::{PoolSpec, ScalePolicy, DEFAULT_POOL_TICK_NS, POOL_DEST_BASE};
pub(crate) use session::{Owner, WorkerSession};

use sod_net::{ChaosPlan, Sim, SimCtx, Topology, World};
use sod_vm::value::{ObjId, Value};
use sod_vm::wire::{BufferPool, FrameBatch};

use crate::metrics::{ChaosCounters, ClusterReport, NetBytes, NodeUtilization, RunReport};
use crate::msg::{HostReply, MigrationPlan, Msg, ProgramId, SessionId};
use crate::node::Node;
use crate::trigger::{ArmedTrigger, Trigger};

use session::{HomeSide, StagedSegment, WorkerPhase};

/// Worker-created objects are flushed home under temporary ids at/above
/// this base until the home node assigns master ids.
pub const TEMP_ID_BASE: ObjId = 1 << 30;

/// Default execution slice: how much virtual time a thread runs per event.
pub const DEFAULT_SLICE_NS: u64 = 100_000; // 100 µs

/// Payload size of small control messages (requests, acks).
pub(crate) const CONTROL_MSG_BYTES: u64 = 128;

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
pub struct Program {
    pub home: usize,
    pub home_tid: usize,
    pub class: String,
    pub method: String,
    pub args: Vec<Value>,
    pub report: RunReport,
    pub done: bool,
    /// Whether the root thread has been spawned (`StartProgram`
    /// delivered). A crash only fails *started* programs — one whose
    /// launch lies beyond a restart must survive the earlier crash.
    pub started: bool,
    pub error: Option<String>,
    pub fetch_policy: FetchPolicy,
    /// Armed migration policies, evaluated at migration-safe points (see
    /// [`crate::trigger`]). `Trigger::OnOom` generalizes the old
    /// `oom_offload_to` field: exception-driven offload is
    /// `ArmedTrigger::new(Trigger::OnOom { to })`.
    pub triggers: Vec<ArmedTrigger>,
    /// Execution slices consumed by the root thread on its home node
    /// (the `OnCpuSliceBudget` measure).
    pub slices_run: u64,
    /// Home-side migration state machine (idle / plan pending / frozen).
    side: HomeSide,
    staged: Vec<StagedSegment>,
    /// Monotonic shipping-attempt stamp: bumped whenever segments leave
    /// home (initial shipment or re-ship), matched against
    /// [`Msg::MigrationTimeout`] so superseded deadlines are inert.
    attempt: u32,
    /// Shipping attempts of the *current* episode (reset at capture),
    /// bounded by [`RetryPolicy::Retry`]'s `max_attempts`.
    episode_attempts: u32,
    /// Sessions of the outstanding episode, each with the node it was
    /// shipped to (roams replace their entry). Under chaos, state arrivals
    /// and home returns from sessions not in this set are stale —
    /// superseded by a retry or fallback — and drop.
    valid_sessions: Vec<(usize, SessionId)>,
    /// Retained copy of the shipped segments, kept only under
    /// [`RetryPolicy::Retry`] with chaos enabled, so a deadline can
    /// re-ship without re-capturing (the home frames never re-freeze).
    shipped: Vec<StagedSegment>,
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
    /// How many programs are `done` — what the pool controller's every
    /// tick asks, without walking the program table. Bumped where `done`
    /// is set (`finish_program` / `fail_program`).
    programs_done: usize,
    pub slice_ns: u64,
    /// Cluster-wide code-shipping policy (see [`CodeShipping`]).
    pub code_shipping: CodeShipping,
    /// Encode-buffer free list shared by every wire-path encoder (state
    /// captures, object replies, flush batches). Pool state never
    /// influences encoded bytes, so reuse cannot perturb determinism.
    buf_pool: BufferPool,
    /// Whether a fault-injection plan is armed on the driving simulator.
    /// Gates every chaos-only code path (deadline timers, stale-message
    /// guards), so fault-free runs are event-for-event identical to the
    /// pre-chaos engine.
    pub chaos_enabled: bool,
    /// Recovery policy when a migration misses its deadline (chaos only).
    pub retry_policy: RetryPolicy,
    /// End-to-end deadline armed per shipping attempt (chaos only).
    pub migration_timeout_ns: u64,
    /// Fault-injection tallies, surfaced on the [`ClusterReport`].
    chaos: ChaosCounters,
    /// Elastic node pools (see `engine/pool.rs`); empty when the scenario
    /// declares none, keeping pool-free runs event-for-event identical to
    /// the pre-elastic engine.
    pools: Vec<pool::PoolRuntime>,
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
            chaos_enabled: false,
            retry_policy: RetryPolicy::default(),
            migration_timeout_ns: DEFAULT_MIGRATION_TIMEOUT_NS,
            chaos: ChaosCounters::default(),
            pools: Vec::new(),
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
            home_tid: usize::MAX,
            class: class.into(),
            method: method.into(),
            args,
            report: RunReport::default(),
            done: false,
            started: false,
            error: None,
            fetch_policy: FetchPolicy::Shallow,
            triggers: Vec::new(),
            slices_run: 0,
            side: HomeSide::Idle,
            staged: Vec::new(),
            attempt: 0,
            episode_attempts: 0,
            valid_sessions: Vec::new(),
            shipped: Vec::new(),
        });
        (self.programs.len() - 1) as ProgramId
    }

    /// Arm a migration policy on `program` (evaluated at migration-safe
    /// points; see [`crate::trigger`]).
    pub fn arm_trigger(&mut self, program: ProgramId, trigger: ArmedTrigger) {
        self.programs[program as usize].triggers.push(trigger);
    }

    /// Evaluate the program's armed policy triggers against its current
    /// counters; the first satisfied trigger installs its plan (one
    /// migration at a time — the rest re-evaluate after control returns).
    fn check_policy_triggers(&mut self, program: ProgramId, now: u64) {
        let p = &mut self.programs[program as usize];
        if p.done || !matches!(p.side, HomeSide::Idle) {
            return;
        }
        let faults = p.report.object_faults;
        let slices = p.slices_run;
        for t in p.triggers.iter_mut().filter(|t| !t.fired) {
            let satisfied = match t.trigger {
                Trigger::At(ns) => now >= ns,
                // OnOom fires where the exception surfaces, not here.
                Trigger::OnOom { .. } => false,
                Trigger::OnObjectFaults { threshold, .. } => faults >= threshold,
                Trigger::OnCpuSliceBudget { slices: budget, .. } => slices >= budget,
            };
            if !satisfied {
                continue;
            }
            let Some(plan) = t.effective_plan() else {
                // At armed without a plan: nowhere to go. Retire it so the
                // dead trigger is not re-walked on every future slice.
                t.fired = true;
                continue;
            };
            t.fired = true;
            p.side = HomeSide::PlanPending(plan);
            return;
        }
    }

    /// Move the session hosted at `node` to [`WorkerPhase::Done`] and drop
    /// it from the node's live set (see [`Node::live_sessions`]) — the
    /// only way a session reaches `Done`, so the index cannot miss a
    /// retirement. `None` when no such session ever arrived there.
    fn mark_done(&mut self, node: usize, sid: SessionId) -> Option<&WorkerSession> {
        let n = &mut self.nodes[node];
        let w = n.sessions.get_mut(&sid)?;
        w.phase = WorkerPhase::Done;
        n.live_sessions.remove(&sid);
        // A session retired mid-restore leaves its next frame's breakpoint
        // armed: disarm it with the thread (`tid` is `usize::MAX`, which
        // arms nothing, until the restore begins).
        n.vm.clear_thread_breakpoints(w.tid);
        Some(w)
    }

    /// `program`'s outstanding migration episode is over — its value came
    /// home, or the deadline gave up on it: thaw the home side, forget the
    /// episode's sessions, and hand the shipment retained for re-ships
    /// back to the buffer pool. (While retained, that second handle is
    /// what kept each arrival from recycling its frame.)
    fn close_episode(&mut self, program: ProgramId) {
        let p = &mut self.programs[program as usize];
        p.side = HomeSide::Idle;
        p.valid_sessions.clear();
        for seg in p.shipped.drain(..) {
            self.buf_pool.recycle(seg.frame);
        }
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
            if !p.done {
                continue;
            }
            makespan = makespan.max(p.report.finished_at_ns);
            if p.error.is_some() {
                failed += 1;
            } else {
                latencies.push(p.report.latency_ns());
            }
        }
        // Shipped state that arrived somewhere but never restored —
        // killed, superseded, or stuck sessions — is accounted nowhere
        // else; credit it to the holding node's lost bucket so the
        // conservation identity `sent = accounted + lost` closes. (The
        // sum over a session map is order-independent.)
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
}

impl World for Cluster {
    type Msg = Msg;

    fn on_message(&mut self, dst: usize, msg: Msg, ctx: &mut SimCtx<'_, Msg>) {
        // Per-node event accounting (surfaced in `NodeUtilization`).
        self.nodes[dst].events += 1;
        match msg {
            Msg::StartProgram { program } => {
                let p = &self.programs[program as usize];
                debug_assert_eq!(p.home, dst);
                if p.done {
                    return;
                }
                let tid = match self.nodes[dst].vm.spawn(&p.class, &p.method, &p.args) {
                    Ok(tid) => tid,
                    Err(e) => return self.spawn_failed(program, e, ctx.now()),
                };
                self.programs[program as usize].home_tid = tid;
                self.programs[program as usize].started = true;
                self.programs[program as usize].report.started_at_ns = ctx.now();
                self.nodes[dst]
                    .thread_owner
                    .insert(tid, Owner::Root(program));
                ctx.schedule(0, dst, Msg::RunSlice { tid });
            }
            Msg::MigrateNow { program, plan } => {
                let p = &mut self.programs[program as usize];
                if p.done || p.side.is_frozen() {
                    return;
                }
                // The live slice chain observes the flag at its next stop;
                // scheduling another slice here would double-drive the
                // thread.
                p.side = HomeSide::PlanPending(plan);
            }
            Msg::RunSlice { tid } => self.run_slice(dst, tid, ctx),
            Msg::HostDone { tid, reply } => {
                let v = materialize_reply(&mut self.nodes[dst].vm, reply);
                self.nodes[dst].vm.resume_host(tid, v).expect("resume host");
                ctx.schedule(0, dst, Msg::RunSlice { tid });
            }
            Msg::CaptureDone { program } => self.capture_done(program, ctx),
            Msg::MigrationTimeout { program, attempt } => {
                self.migration_timeout(dst, program, attempt, ctx)
            }
            Msg::PoolTick { pool } => self.pool_tick(pool, ctx),
            Msg::PoolReady { pool, node } => self.pool_ready(pool, node),
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
                path,
                op,
            } => self.fs_read(dst, requester, tid, path, op, ctx),
            Msg::FsData {
                tid,
                bytes,
                op,
                result,
            } => self.fs_data(dst, tid, bytes, op, result, ctx),
            Msg::ClientRequest { payload } => {
                if let Some(tid) = self.nodes[dst].sock_waiters.pop_front() {
                    ctx.schedule(
                        0,
                        dst,
                        Msg::HostDone {
                            tid,
                            reply: HostReply::Str(payload),
                        },
                    );
                } else {
                    self.nodes[dst].sock_queue.push_back(payload);
                }
            }
        }
    }

    fn on_chaos(&mut self, action: &sod_net::ChaosAction, now: u64) {
        self.apply_chaos(action, now);
    }

    fn on_dropped(
        &mut self,
        src: usize,
        dst: usize,
        msg: Msg,
        reason: sod_net::DropReason,
        now: u64,
    ) {
        self.note_dropped(src, dst, msg, reason, now);
    }
}

fn materialize_reply(vm: &mut sod_vm::interp::Vm, reply: HostReply) -> Value {
    match reply {
        HostReply::Int(i) => Value::Int(i),
        HostReply::Str(s) => Value::Ref(vm.heap.alloc_str(s)),
        HostReply::List(items) => {
            let refs: Vec<Value> = items
                .into_iter()
                .map(|s| Value::Ref(vm.heap.alloc_str(s)))
                .collect();
            Value::Ref(vm.heap.alloc_arr_from(refs))
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

    /// Trigger a migration of `program` per `plan` at virtual time `at`.
    pub fn migrate_at(&mut self, at: u64, program: ProgramId, plan: MigrationPlan) {
        let home = self.sim.world.programs[program as usize].home;
        self.sim.inject(at, home, Msg::MigrateNow { program, plan });
    }

    /// Arm a policy trigger on a registered program (see [`crate::trigger`]).
    pub fn arm_trigger(&mut self, program: ProgramId, trigger: ArmedTrigger) {
        self.sim.world.arm_trigger(program, trigger);
    }

    /// Arm a fault-injection plan — scheduled crashes/partitions plus
    /// seeded per-link loss — and the engine's recovery machinery
    /// (migration deadlines, stale-message guards, lost-byte accounting).
    /// An empty plan is a no-op, keeping the run event-for-event identical
    /// to a chaos-free one.
    pub fn set_chaos(&mut self, plan: &ChaosPlan) {
        if !plan.is_empty() {
            self.sim.world.chaos_enabled = true;
        }
        self.sim.set_chaos(plan);
    }

    /// Recovery policy for migrations that miss their deadline (only
    /// meaningful once [`SodSim::set_chaos`] armed a plan).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.sim.world.retry_policy = policy;
    }

    /// Override the end-to-end migration deadline (chaos runs only).
    pub fn set_migration_timeout(&mut self, ns: u64) {
        self.sim.world.migration_timeout_ns = ns;
    }

    /// Inject the first controller tick for every registered pool (each
    /// tick reschedules itself until the pool is quiescent). Pools must
    /// already have been added via [`Cluster::add_pool`] — before the
    /// simulator was built, so the topology covers the base members.
    pub fn start_pool_ticks(&mut self) {
        let ticks: Vec<(usize, u64)> = self
            .sim
            .world
            .pools
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.spec.tick_ns))
            .collect();
        for (pool, tick_ns) in ticks {
            self.sim.inject(tick_ns, 0, Msg::PoolTick { pool });
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

    pub fn program(&self, program: ProgramId) -> &Program {
        &self.sim.world.programs[program as usize]
    }
}

/// Roll a faulted thread back to the start of the faulting statement
/// (operand stack cleared — sound because rearranged statements are
/// single-effect), leaving it runnable for capture at that MSP.
pub fn rollback_to_statement_start(vm: &mut sod_vm::interp::Vm, tid: usize) {
    let (ci, mi, pc) = {
        let f = vm.thread(tid).unwrap().top().unwrap();
        (f.class_idx, f.method_idx, f.pc)
    };
    let start = vm.line_start_pc(ci, mi, pc);
    let t = vm.thread_mut(tid).unwrap();
    t.frames.last_mut().unwrap().pc = start;
    t.clear_operands();
    t.state = sod_vm::interp::ThreadState::Runnable;
}
