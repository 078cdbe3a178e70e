//! Property tests for the discrete-event simulator: delivery ordering
//! against a model, exactly-once semantics, byte conservation, and FIFO
//! links.

use proptest::prelude::*;
use sod_net::{ChaosAction, DropReason, Fault, LinkSpec, Sim, SimCtx, Topology, World};

#[derive(Default)]
struct Recorder {
    log: Vec<(u64, usize, u64)>,
}

impl World for Recorder {
    type Msg = u64;
    fn on_message(&mut self, dst: usize, msg: u64, ctx: &mut SimCtx<'_, u64>) {
        self.log.push((ctx.now(), dst, msg));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_injected_message_delivered_once_in_time_order(
        events in proptest::collection::vec((0u64..10_000, 0usize..4, 0u64..1000), 1..40)
    ) {
        let mut sim = Sim::new(Recorder::default(), Topology::gigabit_cluster(4));
        for (at, dst, tag) in &events {
            sim.inject(*at, *dst, *tag);
        }
        sim.run_to_idle(10_000);
        prop_assert_eq!(sim.world.log.len(), events.len());
        let times: Vec<u64> = sim.world.log.iter().map(|(t, _, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(times, sorted);
        // Same multiset of tags.
        let mut sent: Vec<u64> = events.iter().map(|(_, _, t)| *t).collect();
        let mut got: Vec<u64> = sim.world.log.iter().map(|(_, _, t)| *t).collect();
        sent.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(sent, got);
    }

    #[test]
    fn link_conserves_bytes_and_orders_fifo(
        sizes in proptest::collection::vec(1u64..1_000_000, 1..20)
    ) {
        let mut link = sod_net::Link::new(LinkSpec::gigabit());
        let mut last_arrival = 0;
        let mut total = 0;
        for s in &sizes {
            let a = link.transfer(0, *s);
            prop_assert!(a >= last_arrival, "FIFO links never reorder");
            last_arrival = a;
            total += s;
        }
        prop_assert_eq!(link.bytes_carried, total);
        // Total occupancy at least the sum of transmission times.
        let min_busy: u64 = sizes.iter().map(|s| LinkSpec::gigabit().tx_time_ns(*s)).sum();
        prop_assert!(link.busy_until() >= min_busy);
    }

    #[test]
    fn relayed_chains_stay_deterministic(
        seed_events in proptest::collection::vec((0u64..1_000, 0usize..3), 1..10)
    ) {
        struct Relay {
            log: Vec<(u64, usize)>,
        }
        impl World for Relay {
            type Msg = u32;
            fn on_message(&mut self, dst: usize, hop: u32, ctx: &mut SimCtx<'_, u32>) {
                self.log.push((ctx.now(), dst));
                if hop > 0 {
                    ctx.send(dst, (dst + 1) % 3, 256, hop - 1);
                }
            }
        }
        let run = |events: &[(u64, usize)]| -> Vec<(u64, usize)> {
            let mut sim = Sim::new(Relay { log: Vec::new() }, Topology::gigabit_cluster(3));
            for (at, dst) in events {
                sim.inject(*at, *dst, 3);
            }
            sim.run_to_idle(100_000);
            sim.world.log
        };
        prop_assert_eq!(run(&seed_events), run(&seed_events));
    }

    /// The queue against a model: any random mix of injected events —
    /// equal-time ties across nodes and out-of-order injection included —
    /// is delivered exactly in a stable sort by `(at, injection index)`,
    /// each to its own node.
    #[test]
    fn injected_mixes_deliver_in_model_order(
        events in proptest::collection::vec((0u64..50, 0usize..8), 1..60)
    ) {
        let mut sim = Sim::new(Recorder::default(), Topology::gigabit_cluster(8));
        for (i, (at, dst)) in events.iter().enumerate() {
            sim.inject(*at, *dst, i as u64);
        }
        let t = sim.run_to_idle(10_000);

        let mut model: Vec<(u64, usize, u64)> = events
            .iter()
            .enumerate()
            .map(|(i, (at, dst))| (*at, *dst, i as u64))
            .collect();
        model.sort_by_key(|&(at, _, _)| at); // stable: ties keep injection order
        prop_assert_eq!(t, model.last().unwrap().0);
        prop_assert_eq!(sim.delivered(), model.len() as u64);
        prop_assert_eq!(sim.world.log, model);
    }

    /// Handler-generated sends (which mutate FIFO link state) and
    /// same-instant cross-node timers: every message carries the order it
    /// was sent in, and deliveries come out sorted by `(time, send order)`,
    /// each exactly once. A same-seed replay is identical.
    #[test]
    fn relays_and_timers_deliver_in_send_order(
        seed_events in proptest::collection::vec((0u64..5_000, 0usize..5), 1..12)
    ) {
        /// Messages are `(hops left, send order)`.
        struct Mixed {
            log: Vec<(u64, usize, u64)>,
            next: u64,
        }
        impl Mixed {
            fn stamp(&mut self, hop: u32) -> (u32, u64) {
                self.next += 1;
                (hop, self.next - 1)
            }
        }
        impl World for Mixed {
            type Msg = (u32, u64);
            fn on_message(&mut self, dst: usize, (hop, order): (u32, u64), ctx: &mut SimCtx<'_, (u32, u64)>) {
                self.log.push((ctx.now(), dst, order));
                if hop == 0 {
                    return;
                }
                match hop % 3 {
                    0 => ctx.send(dst, (dst + 1) % 5, 512, self.stamp(hop - 1)),
                    // A zero-delay timer to another node: it ties with
                    // whatever else is due at this instant.
                    1 => ctx.schedule(0, (dst + 2) % 5, self.stamp(hop - 1)),
                    _ => {
                        ctx.send(dst, (dst + 1) % 5, 512, self.stamp(hop - 1));
                        ctx.schedule(0, dst, self.stamp(hop - 1));
                    }
                }
            }
        }
        let run = || {
            let mut sim = Sim::new(
                Mixed { log: Vec::new(), next: seed_events.len() as u64 },
                Topology::gigabit_cluster(5),
            );
            for (i, (at, dst)) in seed_events.iter().enumerate() {
                sim.inject(*at, *dst, (5, i as u64));
            }
            let t = sim.run_to_idle(100_000);
            (t, sim.topology().total_bytes_carried(), sim.world)
        };
        let (t, bytes, world) = run();
        let keys: Vec<(u64, u64)> = world.log.iter().map(|&(at, _, order)| (at, order)).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "not in (time, send order): {:?}", keys);
        let mut orders: Vec<u64> = keys.iter().map(|&(_, order)| order).collect();
        orders.sort_unstable();
        prop_assert_eq!(orders, (0..world.next).collect::<Vec<_>>(), "each message exactly once");

        let (t2, bytes2, again) = run();
        prop_assert_eq!((t, bytes, world.log), (t2, bytes2, again.log), "replay diverged");
    }

    /// Handlers that send several messages at one instant — zero-delay
    /// timers to themselves and to other nodes, and sends over links —
    /// amid injected events due at those same instants, so tens of events
    /// tie on one time across several heap levels: the queue delivers
    /// exactly what a sorted-vec model of the same world delivers.
    #[test]
    fn same_instant_fan_outs_deliver_in_model_order(
        injected in proptest::collection::vec((0u64..3, 0usize..FAN_NODES, 0u32..4), 1..40)
    ) {
        let mut sim = Sim::new(Fan::default(), Topology::gigabit_cluster(FAN_NODES));
        let mut model = Model::new(FAN_NODES);
        for &(at, dst, fan) in &injected {
            let id = sim.world.mint();
            sim.inject(at, dst, (fan, id));
            model.push(at, dst, dst, (fan, id));
        }
        model.next_id = sim.world.next_id;
        let t = sim.run_to_idle(100_000);
        while let Some(&head) = model.sorted().first() {
            let ev = model.take(head);
            model.deliver(ev, None);
        }
        prop_assert_eq!(&sim.world.log, &model.log);
        prop_assert_eq!(t, model.now);
        prop_assert_eq!(sim.topology().total_bytes_carried(), model.topo.total_bytes_carried());
        let stats = sim.queue_stats();
        prop_assert_eq!((stats.pushed, stats.popped), (model.seq, model.log.len() as u64));
    }

    /// The choice hook against a sorted-vec model of its enabled set: at
    /// every step `choices` lists exactly the model's enabled events, and
    /// delivering one with each [`Fault`] (or none) delays what it passes,
    /// drops, duplicates and crashes exactly as the model says.
    #[test]
    fn every_fault_of_the_choice_hook_matches_the_model(
        injected in proptest::collection::vec((0u64..40, 0usize..FAN_NODES, 0u32..3), 1..10),
        picks in proptest::collection::vec((0usize..8, 0u8..5), 1..60)
    ) {
        let mut sim = Sim::new(Fan::default(), Topology::gigabit_cluster(FAN_NODES));
        let mut model = Model::new(FAN_NODES);
        for &(at, dst, fan) in &injected {
            let id = sim.world.mint();
            sim.inject(at, dst, (fan, id));
            model.push(at, dst, dst, (fan, id));
        }
        model.next_id = sim.world.next_id;
        for &(pick, fault) in &picks {
            let enabled = model.enabled();
            let choices: Vec<_> = sim.choices().iter().map(|c| (c.at, c.src, c.dst, *c.msg)).collect();
            let expect: Vec<_> = enabled.iter().map(|&i| {
                let e = &model.queued[i];
                (e.at, e.src, e.dst, e.msg)
            }).collect();
            prop_assert_eq!(&choices, &expect);
            if enabled.is_empty() {
                prop_assert!(!sim.deliver_choice(pick, None));
                break;
            }
            let fault = [None, Some(Fault::Drop), Some(Fault::Duplicate), Some(Fault::CrashDst), Some(Fault::CrashSrc)][fault as usize];
            prop_assert!(sim.deliver_choice(pick % enabled.len(), fault));
            model.deliver_choice(enabled[pick % enabled.len()], fault);
        }
        prop_assert_eq!(&sim.world.log, &model.log);
        prop_assert_eq!(&sim.world.dropped, &model.dropped);
        prop_assert_eq!(&sim.world.crashed, &model.crashed);
        prop_assert_eq!(sim.world.duplicated, model.duplicated);
        prop_assert_eq!(sim.queued(), model.queued.len());
        prop_assert_eq!(sim.queue_stats().pushed, model.seq);
    }
}

const FAN_NODES: usize = 4;

/// A message: `(fan, id)`. Delivering it sends `fan` messages of fan
/// `fan - 1`, each with a fresh id.
type FanMsg = (u32, u64);

/// What one delivery sends: `(delay, dst, bytes, msg)`, `bytes == 0` for a
/// timer that touches no link.
type Effect = (u64, usize, u64, FanMsg);

/// The sends of delivering `msg` at `dst`: zero-delay timers to this node
/// and to another one, a one-nanosecond timer, and link sends, so one
/// handler queues several events at its own instant.
fn fan_out(dst: usize, (fan, id): FanMsg, next_id: &mut u64) -> Vec<Effect> {
    (0..fan)
        .map(|j| {
            let msg = (fan - 1, *next_id);
            *next_id += 1;
            let to = (dst + 1 + j as usize) % FAN_NODES;
            match (id + u64::from(j)) % 4 {
                0 => (0, dst, 0, msg),
                1 => (0, to, 0, msg),
                2 => (1, dst, 0, msg),
                _ => (0, to, 64, msg),
            }
        })
        .collect()
}

/// The world both properties drive.
#[derive(Default)]
struct Fan {
    log: Vec<(u64, usize, u64)>,
    dropped: Vec<(usize, usize, u64, DropReason)>,
    crashed: Vec<(u64, usize)>,
    duplicated: u64,
    next_id: u64,
}

impl Fan {
    fn mint(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }
}

impl World for Fan {
    type Msg = FanMsg;

    fn on_message(&mut self, dst: usize, msg: FanMsg, ctx: &mut SimCtx<'_, FanMsg>) {
        self.log.push((ctx.now(), dst, msg.1));
        for (delay, to, bytes, m) in fan_out(dst, msg, &mut self.next_id) {
            if bytes == 0 {
                ctx.schedule(delay, to, m);
            } else {
                ctx.send(dst, to, bytes, m);
            }
        }
    }

    fn on_chaos(&mut self, action: &ChaosAction, now: u64) {
        if let ChaosAction::Crash { node } = action {
            self.crashed.push((now, *node));
        }
    }

    fn on_dropped(&mut self, src: usize, dst: usize, msg: FanMsg, reason: DropReason, _now: u64) {
        self.dropped.push((src, dst, msg.1, reason));
    }

    fn on_duplicated(&mut self, _src: usize, _dst: usize, _msg: &FanMsg) {
        self.duplicated += 1;
    }
}

/// One queued event of the model.
#[derive(Clone, Copy, Debug)]
struct Queued {
    at: u64,
    seq: u64,
    src: usize,
    dst: usize,
    msg: FanMsg,
}

/// The simulator as a sorted vec: the same world logic, its own topology,
/// and the chaos layer's crash semantics written out.
struct Model {
    queued: Vec<Queued>,
    topo: Topology,
    now: u64,
    seq: u64,
    next_id: u64,
    /// Crashed nodes; `None` until the first crash arms the chaos layer.
    down: Option<Vec<usize>>,
    log: Vec<(u64, usize, u64)>,
    dropped: Vec<(usize, usize, u64, DropReason)>,
    crashed: Vec<(u64, usize)>,
    duplicated: u64,
}

impl Model {
    fn new(nodes: usize) -> Self {
        Model {
            queued: Vec::new(),
            topo: Topology::gigabit_cluster(nodes),
            now: 0,
            seq: 0,
            next_id: 0,
            down: None,
            log: Vec::new(),
            dropped: Vec::new(),
            crashed: Vec::new(),
            duplicated: 0,
        }
    }

    fn push(&mut self, at: u64, src: usize, dst: usize, msg: FanMsg) {
        self.queued.push(Queued {
            at,
            seq: self.seq,
            src,
            dst,
            msg,
        });
        self.seq += 1;
    }

    /// Indices of the queued events in `(at, seq)` order.
    fn sorted(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.queued.len()).collect();
        order.sort_by_key(|&i| (self.queued[i].at, self.queued[i].seq));
        order
    }

    /// The enabled set: the head, then every event first on its link that
    /// is later than the head or bound for another node.
    fn enabled(&self) -> Vec<usize> {
        let order = self.sorted();
        let Some(&head) = order.first() else {
            return order;
        };
        let h = self.queued[head];
        let mut links = Vec::new();
        order
            .into_iter()
            .filter(|&i| {
                let e = self.queued[i];
                let first = !links.contains(&(e.src, e.dst));
                links.push((e.src, e.dst));
                first && (i == head || e.at > h.at || e.dst != h.dst)
            })
            .collect()
    }

    /// Remove event `i`, delaying every other to at least its time.
    fn take(&mut self, i: usize) -> Queued {
        let ev = self.queued.remove(i);
        for e in &mut self.queued {
            e.at = e.at.max(ev.at);
        }
        ev
    }

    fn apply(&mut self, at: usize, effects: Vec<Effect>) {
        for (delay, to, bytes, msg) in effects {
            if bytes == 0 {
                self.push(self.now + delay, to, to, msg);
            } else {
                let arrives = self.topo.transfer(self.now, at, to, bytes);
                self.push(arrives, at, to, msg);
            }
        }
    }

    /// Deliver `ev` (or drop it for `lost`), as `Sim`'s one delivery path.
    fn deliver(&mut self, ev: Queued, lost: Option<DropReason>) {
        self.now = ev.at;
        let down = self.down.as_ref().is_some_and(|d| d.contains(&ev.dst));
        let lost = lost.or(down.then_some(DropReason::NodeDown));
        if let Some(reason) = lost {
            self.dropped.push((ev.src, ev.dst, ev.msg.1, reason));
            return;
        }
        self.log.push((ev.at, ev.dst, ev.msg.1));
        let effects = fan_out(ev.dst, ev.msg, &mut self.next_id);
        self.apply(ev.dst, effects);
    }

    fn crash(&mut self, node: usize, at: u64) {
        self.down.get_or_insert_with(Vec::new).push(node);
        self.crashed.push((at, node));
    }

    fn deliver_choice(&mut self, i: usize, fault: Option<Fault>) {
        let ev = self.take(i);
        match fault {
            None => self.deliver(ev, None),
            Some(Fault::Drop) => self.deliver(ev, Some(DropReason::Loss)),
            Some(Fault::Duplicate) => {
                self.duplicated += 1;
                self.deliver(ev, None);
                self.push(ev.at, ev.src, ev.dst, ev.msg);
            }
            Some(Fault::CrashDst) => {
                self.crash(ev.dst, ev.at);
                self.deliver(ev, None);
            }
            Some(Fault::CrashSrc) => {
                self.deliver(ev, None);
                self.crash(ev.src, ev.at);
            }
        }
    }
}
