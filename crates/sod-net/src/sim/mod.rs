//! The discrete-event scheduler.
//!
//! A [`Sim`] owns a [`World`] (the cluster state), a [`Topology`], and an
//! event queue. Each event is the delivery of one message to one node at a
//! virtual time; handling a message may send further messages (through
//! links, charging transfer time) or schedule timers. Events with equal
//! timestamps are delivered in submission order (a monotonically increasing
//! sequence number breaks ties, then the destination node), making runs
//! fully deterministic.
//!
//! ## Schedulers
//!
//! Two interchangeable event queues implement that contract (selected via
//! [`Scheduler`]):
//!
//! * [`Scheduler::GlobalHeap`] — one binary heap over every pending event,
//!   the classic textbook queue;
//! * [`Scheduler::Sharded`] — one heap **per node** (`sim/shard.rs`) merged
//!   by a conservative safe-horizon coordinator (`sim/horizon.rs`): the
//!   shard owning
//!   the globally earliest event drains back-to-back while its events stay
//!   below every other shard's frontier and within the horizon (frontier
//!   minimum plus the topology's minimum link latency). Pushes and pops
//!   touch a heap sized by one node's backlog instead of the whole
//!   fleet's, which is what keeps 10k-program fleets off the single-queue
//!   scale ceiling.
//!
//! Both deliver in the identical total order `(time, seq, dst)`, so a run
//! is **bit-identical** under either scheduler — the property the
//! `scheduler_equivalence` differential suite pins across every scenario
//! shape. [`Scheduler::Sharded`] is the default.

mod horizon;
mod shard;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::chaos::{ChaosAction, ChaosPlan, ChaosState, DropReason};
use crate::topology::Topology;

use shard::{Event, ShardedQueue};

/// The world the simulator drives: your cluster state.
pub trait World {
    /// Message type delivered to nodes (including self-scheduled timers).
    type Msg;

    /// Handle `msg` arriving at node `dst` at virtual time `ctx.now()`.
    fn on_message(&mut self, dst: usize, msg: Self::Msg, ctx: &mut SimCtx<'_, Self::Msg>);

    /// A chaos action fired at virtual time `now`, before any delivery at
    /// that instant. The default ignores it; worlds override to fail
    /// affected work and count the fault. Must not send messages — the
    /// action is a pure state event, which keeps it scheduler-independent.
    fn on_chaos(&mut self, _action: &ChaosAction, _now: u64) {}

    /// A message from `src` to `dst` was dropped at its delivery time
    /// instead of being handled. The default discards it silently; worlds
    /// override to account lost bytes and arm recovery state.
    fn on_dropped(
        &mut self,
        _src: usize,
        _dst: usize,
        _msg: Self::Msg,
        _reason: DropReason,
        _now: u64,
    ) {
    }
}

/// Which event queue a [`Sim`] runs on. Both produce bit-identical
/// timelines (see the module docs); they differ only in cost profile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Scheduler {
    /// One global binary heap over all pending events.
    GlobalHeap,
    /// Per-node shard heaps merged under a conservative safe horizon.
    #[default]
    Sharded,
    /// Selects the sharded queue; `threads` is not read. The threaded
    /// drain this variant used to pick is gone (README, "Why there is no
    /// threaded scheduler"); the variant itself survives only because the
    /// frozen `examples/benchmark/` constructs and matches it, and is
    /// removed with the `fleet-parallel` workload by ROADMAP item 6's
    /// `benchmark` PR.
    #[doc(hidden)]
    Parallel { threads: usize },
}

/// What a handler sent: (arrival time, src, dst, msg), `src == dst` for
/// timers. Filled through [`SimCtx`], drained into the queue after the
/// handler returns.
type Outbox<M> = Vec<(u64, usize, usize, M)>;

/// Handler-side context: send messages, schedule timers, read the clock.
pub struct SimCtx<'a, M> {
    now: u64,
    topo: &'a mut Topology,
    /// Lent by the [`Sim`], which keeps the allocation between deliveries.
    outbox: &'a mut Outbox<M>,
}

impl<M> SimCtx<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Send `msg` of `bytes` payload from `from` to `to` over the topology;
    /// delivery is charged transfer time and queues FIFO on the link.
    pub fn send(&mut self, from: usize, to: usize, bytes: u64, msg: M) {
        let at = self.topo.transfer(self.now, from, to, bytes);
        self.outbox.push((at, from, to, msg));
    }

    /// As [`SimCtx::send`], but the transfer begins only after `delay` ns of
    /// local work (e.g. serialization) has elapsed.
    pub fn send_after(&mut self, delay: u64, from: usize, to: usize, bytes: u64, msg: M) {
        let at = self.topo.transfer(self.now + delay, from, to, bytes);
        self.outbox.push((at, from, to, msg));
    }

    /// Deliver `msg` to `dst` after `delay` ns without touching any link
    /// (timers, local work completion).
    pub fn schedule(&mut self, delay: u64, dst: usize, msg: M) {
        self.outbox.push((self.now + delay, dst, dst, msg));
    }

    /// Access the topology (e.g. to inspect link state in tests).
    pub fn topology(&mut self) -> &mut Topology {
        self.topo
    }
}

/// The pending-event store behind a [`Sim`]: the scheduler choice made
/// concrete. Both variants release events in `(time, seq, dst)` order.
enum Queue<M> {
    Global(BinaryHeap<Reverse<Event<M>>>),
    Sharded(ShardedQueue<M>),
}

impl<M> Queue<M> {
    fn push(&mut self, ev: Event<M>) {
        match self {
            Queue::Global(heap) => heap.push(Reverse(ev)),
            Queue::Sharded(q) => q.push(ev),
        }
    }

    fn pop(&mut self) -> Option<Event<M>> {
        match self {
            Queue::Global(heap) => heap.pop().map(|Reverse(ev)| ev),
            Queue::Sharded(q) => q.pop(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Queue::Global(heap) => heap.len(),
            Queue::Sharded(q) => q.len(),
        }
    }
}

/// The simulator.
pub struct Sim<W: World> {
    pub world: W,
    topo: Topology,
    queue: Queue<W::Msg>,
    scheduler: Scheduler,
    now: u64,
    seq: u64,
    delivered: u64,
    /// Deliveries per destination node, tracked under both schedulers (the
    /// sharded scheduler's per-shard event counts; the runaway guard names
    /// the hottest node from these).
    delivered_by: Vec<u64>,
    /// Fault injection, if armed (see [`crate::chaos`]). `None` keeps the
    /// hot path chaos-free: non-chaos runs are event-for-event identical
    /// to a build without this field.
    chaos: Option<ChaosState>,
    dropped: u64,
    /// The outbox every delivery's [`SimCtx`] borrows: empty between
    /// deliveries, its capacity kept, so a delivery allocates nothing here.
    outbox: Outbox<W::Msg>,
}

impl<W: World> Sim<W> {
    /// A simulator on the default scheduler (see [`Scheduler`]).
    pub fn new(world: W, topo: Topology) -> Self {
        Sim::with_scheduler(world, topo, Scheduler::default())
    }

    /// A simulator on an explicitly chosen [`Scheduler`].
    pub fn with_scheduler(world: W, topo: Topology, scheduler: Scheduler) -> Self {
        let queue = match scheduler {
            Scheduler::GlobalHeap => Queue::Global(BinaryHeap::new()),
            Scheduler::Sharded | Scheduler::Parallel { .. } => {
                Queue::Sharded(ShardedQueue::new(topo.len(), topo.min_link_latency_ns()))
            }
        };
        Sim {
            world,
            queue,
            scheduler,
            delivered_by: vec![0; topo.len()],
            topo,
            now: 0,
            seq: 0,
            delivered: 0,
            chaos: None,
            dropped: 0,
            outbox: Vec::new(),
        }
    }

    /// Arm fault injection: compile `plan` against this topology. An
    /// empty plan is not armed at all, so it cannot perturb the run.
    pub fn set_chaos(&mut self, plan: &ChaosPlan) {
        if !plan.is_empty() {
            self.chaos = Some(plan.build(self.topo.len()));
        }
    }

    /// Is fault injection armed on this simulator?
    pub fn chaos_enabled(&self) -> bool {
        self.chaos.is_some()
    }

    /// Messages suppressed by the chaos layer so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The scheduler this simulator runs on.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// Current virtual time (time of the last delivered event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Events delivered to node `dst` so far (its shard's delivery count
    /// under [`Scheduler::Sharded`]; tracked identically under both
    /// schedulers).
    pub fn delivered_to(&self, dst: usize) -> u64 {
        self.delivered_by.get(dst).copied().unwrap_or(0)
    }

    fn submit(&mut self, at: u64, src: usize, dst: usize, msg: W::Msg) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event {
            at,
            seq,
            src,
            dst,
            msg,
        });
    }

    /// Inject a message at absolute time `at` (≥ now). Injected events are
    /// local to their destination (src == dst): loss never eats them, but
    /// a crashed destination does.
    pub fn inject(&mut self, at: u64, dst: usize, msg: W::Msg) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.submit(at, dst, dst, msg);
    }

    /// Deliver the next event; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        if let Some(chaos) = &mut self.chaos {
            // Apply every fault due by now, in schedule order, before the
            // delivery at this instant — pure state events, identical
            // under both schedulers because `now` advances identically.
            while let Some(action) = chaos.pop_due(self.now) {
                match action {
                    ChaosAction::Partition { a, b } => self.topo.partition(a, b),
                    ChaosAction::Heal { a, b } => self.topo.heal(a, b),
                    ChaosAction::Crash { .. } | ChaosAction::Restart { .. } => {}
                }
                self.world.on_chaos(&action, self.now);
            }
            let cut = ev.src != ev.dst && self.topo.is_cut(ev.src, ev.dst);
            if let Some(reason) = chaos.drop_reason(ev.src, ev.dst, cut) {
                self.dropped += 1;
                self.world
                    .on_dropped(ev.src, ev.dst, ev.msg, reason, self.now);
                return true;
            }
        }
        self.delivered += 1;
        if ev.dst >= self.delivered_by.len() {
            self.delivered_by.resize(ev.dst + 1, 0);
        }
        self.delivered_by[ev.dst] += 1;
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut ctx = SimCtx {
            now: self.now,
            topo: &mut self.topo,
            outbox: &mut outbox,
        };
        self.world.on_message(ev.dst, ev.msg, &mut ctx);
        for (at, src, dst, msg) in outbox.drain(..) {
            self.submit(at, src, dst, msg);
        }
        self.outbox = outbox;
        true
    }

    /// Run until the event queue drains; returns the final virtual time.
    /// `max_events` bounds runaway simulations; when the budget trips, the
    /// panic names the hottest node (the shard that absorbed the most
    /// deliveries) so a livelocked fleet member is identifiable.
    pub fn run_to_idle(&mut self, max_events: u64) -> u64 {
        let mut budget = max_events;
        while budget > 0 && self.step() {
            budget -= 1;
        }
        if self.queue.len() > 0 {
            let (hot, count) =
                self.delivered_by
                    .iter()
                    .enumerate()
                    .fold(
                        (0usize, 0u64),
                        |(hi, hc), (i, &c)| {
                            if c > hc {
                                (i, c)
                            } else {
                                (hi, hc)
                            }
                        },
                    );
            panic!(
                "simulation exceeded {max_events} events without draining \
                 ({} still queued at t={} ns under {:?}; hottest node {hot} \
                 absorbed {count} of the {} deliveries)",
                self.queue.len(),
                self.now,
                self.scheduler,
                self.delivered,
            );
        }
        self.now
    }

    /// Access the topology (bandwidth accounting etc.).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;

    /// A world that records deliveries and can relay.
    struct Recorder {
        log: Vec<(u64, usize, u32)>,
        relay: bool,
    }

    impl World for Recorder {
        type Msg = u32;

        fn on_message(&mut self, dst: usize, msg: u32, ctx: &mut SimCtx<'_, u32>) {
            self.log.push((ctx.now(), dst, msg));
            if self.relay && msg < 3 {
                // Each node forwards msg+1 to the next node with 100 B.
                ctx.send(dst, (dst + 1) % 3, 100, msg + 1);
            }
        }
    }

    fn sim_on(scheduler: Scheduler, relay: bool) -> Sim<Recorder> {
        Sim::with_scheduler(
            Recorder {
                log: Vec::new(),
                relay,
            },
            Topology::uniform(3, LinkSpec::new(1000, 8_000_000_000)),
            scheduler,
        )
    }

    fn sim(relay: bool) -> Sim<Recorder> {
        sim_on(Scheduler::default(), relay)
    }

    const BOTH: [Scheduler; 2] = [Scheduler::GlobalHeap, Scheduler::Sharded];

    #[test]
    fn delivery_order_is_time_then_fifo() {
        for scheduler in BOTH {
            let mut s = sim_on(scheduler, false);
            s.inject(50, 1, 10);
            s.inject(10, 0, 11);
            s.inject(50, 2, 12); // same time as the first: FIFO by injection
            s.run_to_idle(100);
            let order: Vec<u32> = s.world.log.iter().map(|(_, _, m)| *m).collect();
            assert_eq!(order, vec![11, 10, 12], "{scheduler:?}");
        }
    }

    #[test]
    fn relayed_messages_chain_through_links() {
        for scheduler in BOTH {
            let mut s = sim_on(scheduler, true);
            s.inject(0, 0, 0);
            s.run_to_idle(100);
            // 0@0, then each hop costs 100B/1B-per-ns + 1000 latency = 1100 ns.
            assert_eq!(s.world.log.len(), 4, "{scheduler:?}");
            assert_eq!(s.world.log[1], (1100, 1, 1));
            assert_eq!(s.world.log[2], (2200, 2, 2));
            assert_eq!(s.world.log[3], (3300, 0, 3));
        }
    }

    #[test]
    fn clock_is_monotonic() {
        let mut s = sim(true);
        s.inject(5, 0, 0);
        s.inject(5, 1, 0);
        s.inject(7, 2, 0);
        s.run_to_idle(1000);
        let times: Vec<u64> = s.world.log.iter().map(|(t, _, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(s.delivered(), s.world.log.len() as u64);
    }

    #[test]
    fn schedulers_produce_identical_timelines() {
        let run = |scheduler| {
            let mut s = sim_on(scheduler, true);
            s.inject(5, 0, 0);
            s.inject(5, 1, 0);
            s.inject(7, 2, 1);
            s.inject(7, 0, 2);
            let t = s.run_to_idle(1000);
            (t, s.delivered(), s.world.log)
        };
        assert_eq!(run(Scheduler::GlobalHeap), run(Scheduler::Sharded));
    }

    #[test]
    fn per_node_delivery_counts_partition_the_total() {
        for scheduler in BOTH {
            let mut s = sim_on(scheduler, true);
            s.inject(0, 0, 0);
            s.inject(0, 1, 2);
            s.run_to_idle(100);
            let per_node: u64 = (0..3).map(|n| s.delivered_to(n)).sum();
            assert_eq!(per_node, s.delivered(), "{scheduler:?}");
            assert_eq!(s.delivered_to(0), 2, "{scheduler:?}"); // 0@0 and the wrap 3@0
            assert_eq!(s.delivered_to(99), 0);
        }
    }

    /// A node that reschedules itself forever once it sees msg 1.
    struct Loopy;
    impl World for Loopy {
        type Msg = u8;
        fn on_message(&mut self, dst: usize, m: u8, ctx: &mut SimCtx<'_, u8>) {
            if m == 1 {
                ctx.schedule(1, dst, 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn runaway_guard() {
        let mut s = Sim::new(Loopy, Topology::gigabit_cluster(1));
        s.inject(0, 0, 1);
        s.run_to_idle(50);
    }

    #[test]
    #[should_panic(expected = "hottest node 1")]
    fn runaway_guard_names_the_hot_shard_under_sharded() {
        let mut s = Sim::with_scheduler(Loopy, Topology::gigabit_cluster(3), Scheduler::Sharded);
        // Node 1 livelocks; nodes 0 and 2 each take one quiet event.
        s.inject(0, 0, 0);
        s.inject(0, 2, 0);
        s.inject(0, 1, 1);
        s.run_to_idle(50);
    }

    #[test]
    fn exact_budget_fit_is_not_a_runaway() {
        // A run that needs exactly `max_events` deliveries drains fine;
        // only leftover queued events trip the guard.
        let mut s = sim(false);
        s.inject(1, 0, 0);
        s.inject(2, 1, 1);
        assert_eq!(s.run_to_idle(2), 2);
    }

    /// A world that logs deliveries, drops, and chaos actions — the
    /// sim-level harness for the fault-injection contract.
    struct ChaosLog {
        delivered: Vec<(u64, usize, u32)>,
        dropped: Vec<(usize, usize, u32, DropReason)>,
        actions: Vec<(u64, ChaosAction)>,
        relay: bool,
    }

    impl World for ChaosLog {
        type Msg = u32;

        fn on_message(&mut self, dst: usize, msg: u32, ctx: &mut SimCtx<'_, u32>) {
            self.delivered.push((ctx.now(), dst, msg));
            if self.relay && msg < 6 {
                ctx.send(dst, (dst + 1) % 3, 100, msg + 1);
            }
        }

        fn on_chaos(&mut self, action: &ChaosAction, now: u64) {
            self.actions.push((now, *action));
        }

        fn on_dropped(&mut self, src: usize, dst: usize, msg: u32, reason: DropReason, _now: u64) {
            self.dropped.push((src, dst, msg, reason));
        }
    }

    fn chaos_sim(scheduler: Scheduler, plan: &ChaosPlan, relay: bool) -> Sim<ChaosLog> {
        let mut s = Sim::with_scheduler(
            ChaosLog {
                delivered: Vec::new(),
                dropped: Vec::new(),
                actions: Vec::new(),
                relay,
            },
            Topology::uniform(3, LinkSpec::new(1000, 8_000_000_000)),
            scheduler,
        );
        s.set_chaos(plan);
        s
    }

    #[test]
    fn crashed_node_swallows_deliveries_until_restart() {
        for scheduler in BOTH {
            let plan = ChaosPlan::new().crash_at(100, 1).restart_at(300, 1);
            let mut s = chaos_sim(scheduler, &plan, false);
            s.inject(50, 1, 1); // before the crash: lands
            s.inject(150, 1, 2); // while down: dropped
            s.inject(150, 0, 3); // other nodes unaffected
            s.inject(400, 1, 4); // after restart: lands
            s.run_to_idle(100);
            let msgs: Vec<u32> = s.world.delivered.iter().map(|&(_, _, m)| m).collect();
            assert_eq!(msgs, vec![1, 3, 4], "{scheduler:?}");
            assert_eq!(
                s.world.dropped,
                vec![(1, 1, 2, DropReason::NodeDown)],
                "{scheduler:?}"
            );
            assert_eq!(s.dropped(), 1, "{scheduler:?}");
            assert_eq!(
                s.world.actions,
                vec![
                    (150, ChaosAction::Crash { node: 1 }),
                    (400, ChaosAction::Restart { node: 1 }),
                ],
                "{scheduler:?}: actions fire when time first reaches them"
            );
        }
    }

    #[test]
    fn partition_cuts_the_relay_chain_until_heal() {
        for scheduler in BOTH {
            // The relay 0→1→2→0 starts at t=0; the 0↔1 cut at t=0 kills
            // the first hop, so nothing past msg 0 is ever delivered.
            let plan = ChaosPlan::new().partition_at(0, 0, 1);
            let mut s = chaos_sim(scheduler, &plan, true);
            s.inject(0, 0, 0);
            s.run_to_idle(100);
            assert_eq!(s.world.delivered.len(), 1, "{scheduler:?}");
            assert_eq!(s.world.dropped.len(), 1, "{scheduler:?}");
            assert_eq!(s.world.dropped[0].3, DropReason::Partitioned);

            // Healed before the hop arrives: the full chain completes.
            let plan = ChaosPlan::new().partition_at(0, 0, 1).heal_at(1, 0, 1);
            let mut s = chaos_sim(scheduler, &plan, true);
            s.inject(2, 0, 0);
            s.run_to_idle(100);
            assert_eq!(s.world.delivered.len(), 7, "{scheduler:?}: 0..=6 relayed");
            assert!(s.world.dropped.is_empty(), "{scheduler:?}");
        }
    }

    #[test]
    fn seeded_loss_is_scheduler_equivalent_and_seed_sensitive() {
        let run = |scheduler, seed| {
            let plan = ChaosPlan::new().seed(seed).loss_permille(400);
            let mut s = chaos_sim(scheduler, &plan, true);
            for i in 0..10 {
                s.inject(i * 10, (i % 3) as usize, 0);
            }
            s.run_to_idle(1000);
            let dropped = s.dropped();
            (s.world.delivered, s.world.dropped, dropped)
        };
        let g = run(Scheduler::GlobalHeap, 9);
        let sh = run(Scheduler::Sharded, 9);
        assert_eq!(g, sh, "loss draws must not depend on the scheduler");
        assert_eq!(sh, run(Scheduler::Sharded, 9), "same seed replays");
        assert_ne!(sh, run(Scheduler::Sharded, 10), "different seed diverges");
        assert!(sh.2 > 0, "40% loss over a relay fleet must drop something");
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let mut with = chaos_sim(Scheduler::Sharded, &ChaosPlan::new(), true);
        assert!(!with.chaos_enabled(), "an empty plan must not arm chaos");
        // `sim_on`'s Recorder relays msg < 3: same topology, so timelines
        // must agree event for event on the shared prefix.
        let mut without = sim_on(Scheduler::Sharded, true);
        with.inject(0, 0, 0);
        without.inject(0, 0, 0);
        with.run_to_idle(100);
        without.run_to_idle(100);
        assert_eq!(&with.world.delivered[..4], &without.world.log[..]);
        assert_eq!(with.dropped(), 0);
        assert!(with.world.dropped.is_empty());
    }

    #[test]
    fn parallel_without_world_opt_in_falls_back_to_sequential() {
        // The vestigial variant selects the sharded queue (the frozen
        // benchmark's `fleet-parallel` workload still constructs it).
        let run = |scheduler| {
            let mut s = sim_on(scheduler, true);
            s.inject(5, 0, 0);
            s.inject(5, 1, 0);
            s.inject(7, 2, 1);
            let t = s.run_to_idle(1000);
            (t, s.delivered(), s.world.log)
        };
        assert_eq!(
            run(Scheduler::Parallel { threads: 4 }),
            run(Scheduler::GlobalHeap)
        );
    }

    #[test]
    fn chaos_forces_the_sequential_path_and_stays_equivalent() {
        // Same for the vestigial variant with fault injection armed.
        let run = |scheduler| {
            let plan = ChaosPlan::new().seed(9).loss_permille(400);
            let mut s = chaos_sim(scheduler, &plan, true);
            for i in 0..10 {
                s.inject(i * 10, (i % 3) as usize, 0);
            }
            s.run_to_idle(1000);
            let dropped = s.dropped();
            (s.world.delivered, s.world.dropped, dropped)
        };
        assert_eq!(
            run(Scheduler::Parallel { threads: 2 }),
            run(Scheduler::GlobalHeap)
        );
    }

    #[test]
    fn timers_do_not_touch_links() {
        struct T;
        impl World for T {
            type Msg = u8;
            fn on_message(&mut self, _d: usize, m: u8, ctx: &mut SimCtx<'_, u8>) {
                if m == 0 {
                    ctx.schedule(500, 1, 1);
                }
            }
        }
        let mut s = Sim::new(T, Topology::gigabit_cluster(2));
        s.inject(0, 0, 0);
        s.run_to_idle(10);
        assert_eq!(s.topology().total_bytes_carried(), 0);
        assert_eq!(s.now(), 500);
    }
}
