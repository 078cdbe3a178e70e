//! Fault handling: applying chaos actions to cluster state, accounting
//! for dropped messages, and the home-side migration deadline with its
//! retry / fallback recovery.
//!
//! The chaos layer lives in `sod-net` (see [`sod_net::ChaosPlan`]): the
//! simulator applies partitions to the topology and suppresses deliveries;
//! this module is the *engine's* reaction. Three hooks arrive here:
//!
//! * [`Cluster::apply_chaos`] — a scheduled action fired. A crash fails
//!   every program homed on the node (typed error, never an abort; the
//!   program's end retires its episode's sessions wherever they run) and
//!   retires every worker session hosted there; the node's repo and heap
//!   survive (warm restart), so a later [`sod_net::ChaosAction::Restart`]
//!   only marks it reachable again.
//! * [`Cluster::note_dropped`] — a delivery was suppressed. Payload bytes
//!   whose accounting is receive-side (shipped state, object replies) are
//!   credited to the sender's `net_lost` bucket so the conservation
//!   identity `sent = accounted + lost` keeps holding per category.
//! * [`Cluster::migration_timeout`] — the end-to-end deadline, armed each
//!   time an episode ships, fired while that episode is still open.
//!   Whatever broke (state, class reply, chained return, flush ack, or the
//!   whole destination), the recovery is the same: kill the shipment's
//!   sessions and either re-ship the kept segments under fresh session ids
//!   ([`RetryPolicy::Retry`]) or close the episode, thaw the home stack and
//!   resume locally ([`RetryPolicy::FallbackToHome`] — sound because
//!   capture leaves the home frames intact; the migrated portion simply
//!   re-executes, giving at-least-once semantics).
//!
//! Deadlines are armed, and shipments kept for re-ships, only while a
//! [`Recovery`] is armed with a chaos plan ([`Deadlines`]), so fault-free
//! runs stay event-for-event identical to a build without this module. A
//! deadline carries its episode's stamp, given at the freeze, and is inert
//! once that episode closed. *Stale* means one thing: a state or home
//! return from a session the open episode does not list (superseded by a
//! re-ship, or of a closed episode or an ended program) — the state is
//! dropped and its bytes credited lost where it lands, the return dropped.
//! A run where nothing fails has none. `engine/protocol.rs` decides all of
//! it; this module applies the decisions.

use sod_net::{ChaosAction, ChaosPlan, SimCtx};

use crate::msg::{Msg, ProgramId, SessionId};

use super::protocol::{HomeEffect, HomeInput};
use super::{Cluster, SodSim};

type Ctx<'a> = SimCtx<'a, Msg>;

/// Default end-to-end migration deadline under fault injection (see
/// [`Recovery::timeout_ns`]): generous against ordinary shipping and
/// restore latencies, so it only fires when something was lost.
pub const DEFAULT_MIGRATION_TIMEOUT_NS: u64 = 50_000_000; // 50 ms

/// What the home side does when an outstanding migration misses its
/// deadline (a message of the episode — state, class reply, chained
/// return, or flush ack — was lost, or the destination crashed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Re-ship the retained capture under fresh session ids, counting the
    /// initial shipment: after `max_attempts` total attempts the episode
    /// falls back to home anyway. Stale sessions of superseded attempts
    /// are killed and their late messages ignored.
    Retry { max_attempts: u32 },
    /// Abandon the remote episode and resume on the home stack. Capture
    /// leaves the home frames intact, so resumption re-executes the
    /// migrated portion locally — at-least-once execution semantics.
    #[default]
    FallbackToHome,
}

/// How a migration that misses its deadline recovers, armed with a
/// non-empty chaos plan by [`super::SodSim::set_chaos`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recovery {
    /// What the home side does when the deadline fires.
    pub policy: RetryPolicy,
    /// End-to-end deadline armed per shipping attempt (virtual ns).
    pub timeout_ns: u64,
}

impl Default for Recovery {
    fn default() -> Self {
        Recovery {
            policy: RetryPolicy::default(),
            timeout_ns: DEFAULT_MIGRATION_TIMEOUT_NS,
        }
    }
}

/// The [`Recovery`] armed with a chaos plan, if any. Its field is this
/// module's, so it is read in three places alone: the policy a staged
/// capture ships under, the deadline armed where an episode ships, and the
/// one fired ([`Cluster::migration_timeout`]).
#[derive(Default)]
pub(super) struct Deadlines(Option<Recovery>);

impl Deadlines {
    pub(super) fn capture_done<S>(&self) -> HomeInput<S> {
        HomeInput::CaptureDone(self.0.map(|r| r.policy))
    }

    pub(super) fn arm(&self, home: usize, program: ProgramId, ep: Option<u32>, ctx: &mut Ctx) {
        if let (Some(episode), Some(r)) = (ep, self.0) {
            let timeout = Msg::MigrationTimeout { program, episode };
            ctx.schedule(r.timeout_ns, home, timeout);
        }
    }
}

impl SodSim {
    /// Arm a fault-injection plan — scheduled crashes/partitions plus
    /// seeded per-link loss — and with it `recovery`: each shipped
    /// migration's deadline and what the home does when it fires. An
    /// empty plan is a no-op, keeping the run event-for-event identical
    /// to a chaos-free one.
    pub fn set_chaos(&mut self, plan: &ChaosPlan, recovery: Recovery) {
        if !plan.is_empty() {
            self.sim.world.recovery = Deadlines(Some(recovery));
        }
        self.sim.set_chaos(plan);
    }
}

impl Cluster {
    /// A scheduled chaos action fired (called from the simulator's
    /// `World::on_chaos` hook — a pure state event, no messages may be
    /// sent from here).
    pub(super) fn apply_chaos(&mut self, action: &ChaosAction, now: u64) {
        match *action {
            ChaosAction::Crash { node } => {
                self.chaos.crashes += 1;
                // Programs homed here lose their root thread and heap
                // master copies: a typed failure, recorded like any other.
                // Only *running* programs die — one launching after a
                // later restart never saw this crash (if its launch falls
                // inside the outage, the dropped `StartProgram` fails it
                // in `note_dropped` instead).
                let failed: Vec<ProgramId> = self
                    .programs
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.end.is_none() && p.thread.is_some() && p.home == node)
                    .map(|(i, _)| i as ProgramId)
                    .collect();
                for program in failed {
                    let error = format!("home node {node} crashed");
                    self.end_program(program, Err(error), now);
                }
                // Worker sessions hosted here die with the node. Their
                // programs are NOT failed here: the home-side migration
                // deadline recovers them (retry or fallback). Ascending id
                // order fixes which freed thread slot each later restore
                // takes; nothing a report shows depends on it.
                let mut dead: Vec<SessionId> = self.nodes[node].sessions.keys().copied().collect();
                dead.sort_unstable();
                for sid in dead {
                    self.retire_session(node, sid);
                }
                // Parked accept state dies with the serving threads; a
                // request delivered after restart must not resume one.
                self.nodes[node].sock_queue.clear();
                self.nodes[node].sock_waiters.clear();
                // A crashed elastic-pool member retires permanently; the
                // pool's next controller tick spawns a replacement.
                self.note_pool_member_crashed(node, now);
            }
            ChaosAction::Restart { .. } => self.chaos.restarts += 1,
            ChaosAction::Partition { .. } => self.chaos.partitions += 1,
            ChaosAction::Heal { .. } => self.chaos.heals += 1,
        }
    }

    /// A delivery was suppressed by the chaos layer. Only categories whose
    /// byte accounting completes at the *receiver* need a lost credit:
    /// shipped state (accounted when the destination restores) and object
    /// replies (accounted on arrival). Class and flush bytes are fully
    /// accounted at send time, so dropping them cannot unbalance the
    /// books and `lost.class` stays zero by construction.
    pub(super) fn note_dropped(&mut self, src: usize, dst: usize, msg: Msg, now: u64) {
        self.chaos.dropped_msgs += 1;
        let admitted = self.admit(dst, &msg);
        match msg {
            // The launch event landed on a home that is down: the program
            // fails at its own start time (a self-addressed timer, so the
            // only way to lose it is a crashed home). A start that would
            // not have launched it is only dropped.
            Msg::StartProgram { program }
                if admitted && self.programs[program as usize].launches() =>
            {
                let error = format!("home node {dst} down at launch");
                self.end_program(program, Err(error), now);
            }
            Msg::State(msg) => {
                self.nodes[src].net_lost.state += msg.state.len() as u64;
            }
            Msg::ObjectReply { batch, .. } => {
                self.nodes[src].net_lost.object += batch.payload_bytes();
                self.retire_batch(batch);
            }
            // Flush bytes were accounted when sent; only the buffers are
            // still owed to the pool.
            Msg::Flush { batch, .. } => self.retire_batch(batch),
            _ => {}
        }
    }

    /// The network delivers `msg` twice: credit the copy's payload as
    /// sent from `src` again. Shipped state and object replies are
    /// accounted where the copy lands (restored, installed or lost); class
    /// bytes and flushes are accounted at send, and a copy buys nothing
    /// its original did not, so its bytes are lost at once.
    pub(super) fn note_duplicated(&mut self, src: usize, msg: &Msg) {
        let n = &mut self.nodes[src];
        match msg {
            Msg::State(m) => {
                n.net_sent.state += m.state.len() as u64;
                n.net_sent.class += m.class_bytes;
                n.net_lost.class += m.class_bytes;
            }
            Msg::ObjectReply { batch, .. } => n.net_sent.object += batch.payload_bytes(),
            Msg::ClassReply { bytes, .. } => {
                n.net_sent.class += bytes;
                n.net_lost.class += bytes;
            }
            Msg::Flush { batch, .. } => {
                n.net_sent.object += batch.payload_bytes();
                n.net_lost.object += batch.payload_bytes();
            }
            _ => {}
        }
    }

    /// The end-to-end migration deadline fired at the program's home. It
    /// acts only on the episode it was armed for, named by the stamp given
    /// at the freeze: once that episode closed, the timer is inert.
    pub(super) fn migration_timeout(
        &mut self,
        node: usize,
        program: ProgramId,
        episode: u32,
        ctx: &mut SimCtx<'_, Msg>,
    ) {
        // A deadline exists only while recovery is armed.
        let Deadlines(Some(recovery)) = self.recovery else {
            return;
        };
        let deadline = HomeInput::Deadline(episode, recovery.policy);
        // Either way the shipment's sessions die first (a re-ship retires
        // those it supersedes, closing retires those listed): whichever of
        // them were alive, their threads must never complete against the
        // recovered program, and their unrecorded state bytes are lost.
        match self.home_step(program, deadline) {
            HomeEffect::Ship(shipment) => {
                self.chaos.timeouts += 1;
                self.chaos.retries += 1;
                self.ship_episode(program, shipment, ctx);
            }
            closed @ HomeEffect::Close(..) => {
                self.chaos.timeouts += 1;
                self.chaos.fallbacks += 1;
                self.close_episode(closed);
                // The home stack still holds every captured frame; thaw the
                // thread at its migration-safe point and run on. (An open
                // episode was captured from the program's thread.)
                let Some(tid) = self.programs[program as usize].thread else {
                    return;
                };
                if let Ok(t) = self.nodes[node].vm.thread_mut(tid) {
                    t.state = sod_vm::interp::ThreadState::Runnable;
                }
                ctx.schedule(0, node, Msg::RunSlice { tid });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use sod_asm::builder::ClassBuilder;
    use sod_net::{ChaosPlan, Topology, US};
    use sod_preprocess::preprocess_sod;
    use sod_vm::instr::Cmp;
    use sod_vm::value::Value;

    use super::super::{Program, SodSim};
    use super::*;
    use crate::node::{Node, NodeConfig};
    use crate::trigger::When;
    use crate::MigrationPlan;

    /// Twenty programs counting to 50 000 on node 0, each shipping its
    /// top frame to node 1 at 100 us, one delivery in ten lost. Run to idle.
    fn lossy_fleet(policy: RetryPolicy) -> SodSim {
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
        let worker = Node::new(NodeConfig::cluster("worker"));
        let mut cluster = Cluster::new(vec![home, worker]);
        let programs: Vec<ProgramId> = (0..20)
            .map(|_| cluster.add_program(0, "App", "main", vec![Value::Int(50_000)]))
            .collect();
        let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
        let recovery = Recovery {
            policy,
            ..Recovery::default()
        };
        sim.set_chaos(&ChaosPlan::new().seed(5).loss_permille(100), recovery);
        for pid in programs {
            sim.start_program(0, pid);
            sim.migrate(pid, When::At(100 * US), MigrationPlan::top_to(1, 1));
        }
        sim.run();
        for p in &sim.sim.world.programs {
            assert_eq!((p.report.result, p.error()), (Some(50_000), None));
        }
        sim
    }

    /// A retained shipment is a second handle on each state frame, so the
    /// arrival cannot recycle it; closing the episode must, or a `Retry`
    /// fleet mints (and regrows) a fresh encode buffer per capture.
    #[test]
    fn closing_an_episode_returns_the_retained_frames_to_the_pool() {
        let retrying = lossy_fleet(RetryPolicy::Retry { max_attempts: 3 });
        assert!(retrying.sim.world.chaos.retries > 0, "no re-ship happened");
        assert!(retrying.sim.world.buf_pool.idle() > 0);
        // Every episode closed, and no kept segment outlived its episode.
        assert!(retrying.sim.world.programs.iter().all(|p| p.side.is_idle()));

        // Nothing is retained without `Retry`: arrivals recycle as before.
        let falling_back = lossy_fleet(RetryPolicy::FallbackToHome);
        assert!(falling_back.sim.world.chaos.fallbacks > 0);
        assert!(falling_back.sim.world.buf_pool.idle() > 0);
    }

    /// A list guest: `main(n)` links `n` nodes at home, `sum` spins (so a
    /// CPU budget trips inside it, list built) and then walks them —
    /// migrated, every node is a fault and, rewritten, a flush frame.
    fn list_class() -> sod_vm::class::ClassDef {
        use sod_vm::value::TypeOf;
        let class = ClassBuilder::new("L")
            .field("val", TypeOf::Int)
            .field("next", TypeOf::Ref)
            .method("sum", &["head"], |m| {
                m.line();
                m.pushi(0).store("i");
                m.line();
                m.label("spin");
                m.load("i").pushi(3000).if_cmp(Cmp::Ge, "walk");
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
            .method("main", &["n"], |m| {
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
                m.load("head").invoke("L", "sum", 1).store("r");
                m.line();
                m.load("r").retv();
            })
            .build()
            .unwrap();
        preprocess_sod(&class).unwrap()
    }

    /// Replies and flushes that are never installed — dropped by the
    /// network, addressed to nobody — still owe their buffers to the pool.
    #[test]
    fn batches_that_are_never_installed_return_their_buffers() {
        use sod_vm::wire::{put_home_object, BatchWriter};

        // A lossy object storm: the home→worker direction, which carries
        // every object reply, loses three deliveries in ten.
        let mut home = Node::new(NodeConfig::cluster("home"));
        home.deploy(&list_class()).unwrap();
        let worker = Node::new(NodeConfig::cluster("worker"));
        let mut cluster = Cluster::new(vec![home, worker]);
        let programs: Vec<ProgramId> = (0..10)
            .map(|_| cluster.add_program(0, "L", "main", vec![Value::Int(40)]))
            .collect();
        cluster.slice_ns = 5_000;
        let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
        let plan = ChaosPlan::new().seed(7).link_loss_permille(0, 1, 300);
        sim.set_chaos(&plan, Recovery::default());
        for pid in programs {
            sim.start_program(0, pid);
            sim.migrate(pid, When::OnCpuSliceBudget(6), MigrationPlan::top_to(1, 1));
        }
        sim.run();
        let world = &sim.sim.world;
        assert!(world.programs.iter().all(Program::is_done));
        let faults: u64 = world.programs.iter().map(|p| p.report.object_faults).sum();
        assert!(faults > 0, "no object was ever fetched");
        assert!(world.chaos.dropped_msgs > 0, "nothing was dropped");
        assert!(world.nodes[0].net_lost.object > 0, "no reply was dropped");
        assert!(world.buf_pool.idle() > 0);

        // Each terminal path on its own, against a pool holding exactly the
        // one buffer the batch was written into.
        let one_frame_batch = |cluster: &Cluster| {
            assert_eq!(cluster.buf_pool.idle(), 0);
            let mut reply = BatchWriter::new(&cluster.buf_pool);
            let heap = &cluster.nodes[0].vm.heap;
            reply.frame(|buf| put_home_object(buf, heap, 0)).unwrap();
            reply.finish()
        };
        let mut home = Node::new(NodeConfig::cluster("home"));
        home.vm.heap.alloc_arr(3).unwrap();
        let mut cluster = Cluster::new(vec![home, Node::new(NodeConfig::cluster("worker"))]);
        let pid = cluster.add_program(0, "L", "main", vec![Value::Int(1)]);

        let batch = one_frame_batch(&cluster);
        let reply = Msg::ObjectReply { session: 9, batch };
        cluster.note_dropped(0, 1, reply, 0);
        assert_eq!(cluster.buf_pool.idle(), 1, "dropped reply");
        drop(cluster.buf_pool.checkout());

        let batch = one_frame_batch(&cluster);
        let flush = Msg::Flush {
            program: pid,
            batch,
            ack_to: None,
        };
        cluster.note_dropped(1, 0, flush, 0);
        assert_eq!(cluster.buf_pool.idle(), 1, "dropped flush");
        drop(cluster.buf_pool.checkout());

        // A reply for a session that never lived on its destination.
        let batch = one_frame_batch(&cluster);
        let mut sim = SodSim::new(cluster, Topology::gigabit_cluster(2));
        sim.sim.inject(0, 1, Msg::ObjectReply { session: 9, batch });
        sim.run();
        assert_eq!(sim.sim.world.buf_pool.idle(), 1, "reply for nobody");
    }

    /// A completion with nothing to write back (every `fleet-compute` and
    /// `stack-churn` segment) builds an empty batch — and takes no buffer
    /// out of the pool to do it.
    #[test]
    fn an_empty_flush_checks_nothing_out() {
        use super::super::objects::collect_flush;
        use sod_vm::wire::BufferPool;

        let pool = BufferPool::new();
        pool.give_back(pool.checkout());
        assert_eq!(pool.idle(), 1);
        let mut vm = sod_vm::interp::Vm::new();
        vm.heap.alloc_arr(2).unwrap(); // clean, home-made: not part of any flush
        let batch = collect_flush(&mut vm, 0, Some(Value::Int(3)), &pool).unwrap();
        assert!(batch.is_empty());
        assert_eq!(pool.idle(), 1, "the empty flush held on to a buffer");
    }
}
