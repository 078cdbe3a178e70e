//! Property tests for the discrete-event simulator: delivery ordering
//! against a model, exactly-once semantics, byte conservation, and FIFO
//! links.

use proptest::prelude::*;
use sod_net::{LinkSpec, Sim, SimCtx, Topology, World};

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
    /// with the model's per-node delivery counts.
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
        for n in 0..8 {
            let expect = model.iter().filter(|&&(_, dst, _)| dst == n).count() as u64;
            prop_assert_eq!(sim.delivered_to(n), expect, "node {}", n);
        }
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
}
