//! The discrete-event scheduler.
//!
//! A [`Sim`] owns a [`World`] (the cluster state), a [`Topology`], and one
//! event queue: a binary heap over every pending event. Each event is the
//! delivery of one message to one node at a virtual time; handling a
//! message may send further messages (through links, charging transfer
//! time) or schedule timers. Events are delivered in `(time, seq)` order,
//! where `seq` is a per-simulation submission counter: equal timestamps
//! deliver in submission order, so every delivery has one well-defined
//! index and a run is fully deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::chaos::{ChaosAction, ChaosPlan, ChaosState, DropReason};
use crate::topology::Topology;

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

/// A leftover knob: [`Sim::with_scheduler`] accepts it and ignores it, as
/// there is one event queue (README, "Why there is one event queue"). It
/// survives only because the frozen `examples/benchmark/` constructs and
/// matches these variants, and goes with the `fleet-parallel` workload in
/// ROADMAP item 6's `benchmark` PR.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    Sharded,
    Parallel { threads: usize },
}

/// One pending message delivery. `src` records the sending node (equal to
/// `dst` for timers and injected events); it is carried for the chaos
/// layer's partition/loss checks and takes no part in the order.
///
/// Events order by `(at, seq)`. `seq` is unique per [`Sim`] (handed out at
/// submission), so the order is total and no other field breaks a tie.
///
/// An event is moved by value on every queue operation (push, each sift
/// step, pop, the hand-off to the handler), so its size is a cost: four
/// words of header here, and the world keeps its message small (the SOD
/// runtime pins `Msg` at 64 bytes — a 96-byte event moves as a few inline
/// register copies where the 168-byte one it replaced went through
/// `memcpy`).
struct Event<M> {
    at: u64,
    seq: u64,
    src: usize,
    dst: usize,
    msg: M,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
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

/// The simulator.
pub struct Sim<W: World> {
    pub world: W,
    topo: Topology,
    queue: BinaryHeap<Reverse<Event<W::Msg>>>,
    now: u64,
    seq: u64,
    delivered: u64,
    /// Deliveries per destination node (the runaway guard names the
    /// hottest node from these).
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
    /// A simulator driving `world` over `topo`, its queue empty at t = 0.
    pub fn new(world: W, topo: Topology) -> Self {
        Sim {
            world,
            queue: BinaryHeap::new(),
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

    /// [`Sim::new`]; the [`Scheduler`] is accepted and ignored.
    #[doc(hidden)]
    pub fn with_scheduler(world: W, topo: Topology, _scheduler: Scheduler) -> Self {
        Sim::new(world, topo)
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

    /// Current virtual time (time of the last delivered event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Events delivered to node `dst` so far.
    pub fn delivered_to(&self, dst: usize) -> u64 {
        self.delivered_by.get(dst).copied().unwrap_or(0)
    }

    fn submit(&mut self, at: u64, src: usize, dst: usize, msg: W::Msg) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event {
            at,
            seq,
            src,
            dst,
            msg,
        }));
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
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        if let Some(chaos) = &mut self.chaos {
            // Apply every fault due by now, in schedule order, before the
            // delivery at this instant — pure state events.
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
    /// panic names the hottest node (the one that absorbed the most
    /// deliveries) so a livelocked fleet member is identifiable.
    pub fn run_to_idle(&mut self, max_events: u64) -> u64 {
        let mut budget = max_events;
        while budget > 0 && self.step() {
            budget -= 1;
        }
        if !self.queue.is_empty() {
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
                 ({} still queued at t={} ns; hottest node {hot} \
                 absorbed {count} of the {} deliveries)",
                self.queue.len(),
                self.now,
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

    fn recorder(relay: bool) -> Recorder {
        Recorder {
            log: Vec::new(),
            relay,
        }
    }

    fn topo3() -> Topology {
        Topology::uniform(3, LinkSpec::new(1000, 8_000_000_000))
    }

    fn sim(relay: bool) -> Sim<Recorder> {
        Sim::new(recorder(relay), topo3())
    }

    #[test]
    fn an_event_adds_four_words_to_its_message() {
        assert_eq!(std::mem::size_of::<Event<[u64; 8]>>(), 32 + 64);
    }

    #[test]
    fn delivery_order_is_time_then_fifo() {
        let mut s = sim(false);
        s.inject(50, 1, 10);
        s.inject(10, 0, 11);
        s.inject(50, 2, 12); // same time as the first: FIFO by injection
        s.run_to_idle(100);
        let order: Vec<u32> = s.world.log.iter().map(|(_, _, m)| *m).collect();
        assert_eq!(order, vec![11, 10, 12]);
    }

    #[test]
    fn relayed_messages_chain_through_links() {
        let mut s = sim(true);
        s.inject(0, 0, 0);
        s.run_to_idle(100);
        // 0@0, then each hop costs 100B/1B-per-ns + 1000 latency = 1100 ns.
        assert_eq!(s.world.log.len(), 4);
        assert_eq!(s.world.log[1], (1100, 1, 1));
        assert_eq!(s.world.log[2], (2200, 2, 2));
        assert_eq!(s.world.log[3], (3300, 0, 3));
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

    /// The timeline of a relay fleet with equal-time injections, on a
    /// simulator `make` builds.
    fn relay_timeline(make: impl Fn() -> Sim<Recorder>) -> (u64, u64, Vec<(u64, usize, u32)>) {
        let mut s = make();
        s.inject(5, 0, 0);
        s.inject(5, 1, 0);
        s.inject(7, 2, 1);
        s.inject(7, 0, 2);
        let t = s.run_to_idle(1000);
        (t, s.delivered(), s.world.log)
    }

    #[test]
    fn schedulers_produce_identical_timelines() {
        // The leftover knob is accepted and ignored.
        let with = || Sim::with_scheduler(recorder(true), topo3(), Scheduler::Sharded);
        assert_eq!(relay_timeline(with), relay_timeline(|| sim(true)));
    }

    #[test]
    fn per_node_delivery_counts_partition_the_total() {
        let mut s = sim(true);
        s.inject(0, 0, 0);
        s.inject(0, 1, 2);
        s.run_to_idle(100);
        let per_node: u64 = (0..3).map(|n| s.delivered_to(n)).sum();
        assert_eq!(per_node, s.delivered());
        assert_eq!(s.delivered_to(0), 2); // 0@0 and the wrap 3@0
        assert_eq!(s.delivered_to(99), 0);
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
    fn runaway_guard_names_the_hottest_node() {
        let mut s = Sim::new(Loopy, Topology::gigabit_cluster(3));
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

    fn chaos_log(relay: bool) -> ChaosLog {
        ChaosLog {
            delivered: Vec::new(),
            dropped: Vec::new(),
            actions: Vec::new(),
            relay,
        }
    }

    fn chaos_sim(plan: &ChaosPlan, relay: bool) -> Sim<ChaosLog> {
        let mut s = Sim::new(chaos_log(relay), topo3());
        s.set_chaos(plan);
        s
    }

    #[test]
    fn crashed_node_swallows_deliveries_until_restart() {
        let plan = ChaosPlan::new().crash_at(100, 1).restart_at(300, 1);
        let mut s = chaos_sim(&plan, false);
        s.inject(50, 1, 1); // before the crash: lands
        s.inject(150, 1, 2); // while down: dropped
        s.inject(150, 0, 3); // other nodes unaffected
        s.inject(400, 1, 4); // after restart: lands
        s.run_to_idle(100);
        let msgs: Vec<u32> = s.world.delivered.iter().map(|&(_, _, m)| m).collect();
        assert_eq!(msgs, vec![1, 3, 4]);
        assert_eq!(s.world.dropped, vec![(1, 1, 2, DropReason::NodeDown)]);
        assert_eq!(s.dropped(), 1);
        assert_eq!(
            s.world.actions,
            vec![
                (150, ChaosAction::Crash { node: 1 }),
                (400, ChaosAction::Restart { node: 1 }),
            ],
            "actions fire when time first reaches them"
        );
    }

    #[test]
    fn partition_cuts_the_relay_chain_until_heal() {
        // The relay 0→1→2→0 starts at t=0; the 0↔1 cut at t=0 kills the
        // first hop, so nothing past msg 0 is ever delivered.
        let plan = ChaosPlan::new().partition_at(0, 0, 1);
        let mut s = chaos_sim(&plan, true);
        s.inject(0, 0, 0);
        s.run_to_idle(100);
        assert_eq!(s.world.delivered.len(), 1);
        assert_eq!(s.world.dropped.len(), 1);
        assert_eq!(s.world.dropped[0].3, DropReason::Partitioned);

        // Healed before the hop arrives: the full chain completes.
        let plan = ChaosPlan::new().partition_at(0, 0, 1).heal_at(1, 0, 1);
        let mut s = chaos_sim(&plan, true);
        s.inject(2, 0, 0);
        s.run_to_idle(100);
        assert_eq!(s.world.delivered.len(), 7, "0..=6 relayed");
        assert!(s.world.dropped.is_empty());
    }

    type LossRun = (
        Vec<(u64, usize, u32)>,
        Vec<(usize, usize, u32, DropReason)>,
        u64,
    );

    /// A relay fleet under 40 % seeded loss, on a simulator `make` builds
    /// (chaos armed by the caller's `seed`).
    fn lossy_relay(seed: u64, make: impl Fn(ChaosLog) -> Sim<ChaosLog>) -> LossRun {
        let mut s = make(chaos_log(true));
        s.set_chaos(&ChaosPlan::new().seed(seed).loss_permille(400));
        for i in 0..10 {
            s.inject(i * 10, (i % 3) as usize, 0);
        }
        s.run_to_idle(1000);
        let dropped = s.dropped();
        (s.world.delivered, s.world.dropped, dropped)
    }

    #[test]
    fn seeded_loss_is_scheduler_equivalent_and_seed_sensitive() {
        let plain = |w| Sim::new(w, topo3());
        let knob = |w| Sim::with_scheduler(w, topo3(), Scheduler::Sharded);
        let run = lossy_relay(9, plain);
        assert_eq!(
            run,
            lossy_relay(9, knob),
            "the ignored knob changes nothing"
        );
        assert_eq!(run, lossy_relay(9, plain), "same seed replays");
        assert_ne!(run, lossy_relay(10, plain), "different seed diverges");
        assert!(run.2 > 0, "40% loss over a relay fleet must drop something");
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let mut with = chaos_sim(&ChaosPlan::new(), true);
        assert!(!with.chaos_enabled(), "an empty plan must not arm chaos");
        // `sim`'s Recorder relays msg < 3: same topology, so timelines
        // must agree event for event on the shared prefix.
        let mut without = sim(true);
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
        // The frozen benchmark's `fleet-parallel` workload still constructs
        // the vestigial variant; it runs the one queue.
        let parallel =
            || Sim::with_scheduler(recorder(true), topo3(), Scheduler::Parallel { threads: 4 });
        assert_eq!(relay_timeline(parallel), relay_timeline(|| sim(true)));
    }

    #[test]
    fn chaos_forces_the_sequential_path_and_stays_equivalent() {
        // Same for the vestigial variant with fault injection armed.
        let parallel = |w| Sim::with_scheduler(w, topo3(), Scheduler::Parallel { threads: 2 });
        assert_eq!(
            lossy_relay(9, parallel),
            lossy_relay(9, |w| Sim::new(w, topo3()))
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
