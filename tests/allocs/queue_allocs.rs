//! The event queue moves small keys, and a handler's sends go straight
//! into it.
//!
//! Under heap-on-demand every object fault is three events (request,
//! reply, resumed slice), so what the simulator's queue does per event is
//! paid per fault. The queue is a 4-ary heap of three-word keys — `(at,
//! seq)` and a slab slot — over a slab of events (`sod_net::sim`): a
//! message is written into its slot once when it is sent and read out
//! once when it is delivered, and sifting moves keys only. This file pins
//! the counts that show it, from `Sim::queue_stats`:
//!
//! * on corpus row `objects_shallow` (the very row the corpus pins, run
//!   through `Scenario::run_with`), every count exactly, one payload in
//!   and one out per event, and a bound on the bytes sifting moves per
//!   event — a heap of whole events (96 bytes each with a 64-byte
//!   message) moves four times the bytes of this one's keys;
//! * on a trivial world, that a warm queue allocates nothing per event,
//!   whatever a handler sends at once: the slab, the keys and the free
//!   list are sized by the peak depth alone. (An outbox that collected a
//!   handler's sends before queueing them was sized by the largest fan-out
//!   instead, so a handler sending more than any before it grew it.)

use crate::counted;
use crate::objects_row::objects;
use sod::net::{QueueStats, Sim, SimCtx, Topology, World};
use sod::runtime::FetchPolicy;

/// At most this many bytes moved by sifting per event: a push moves at
/// most a key per level and a pop two (the hole down, the last leaf up),
/// and each places one more, so at `objects_shallow`'s peak depth (13
/// events: two levels below the root) an event moves at most 3 × 2 + 2
/// three-word keys. It moves 5.03 (120.8 bytes).
const SIFT_BYTES_PER_EVENT: f64 = 8.0 * 24.0;

#[test]
fn the_objects_row_moves_each_message_once_in_and_once_out() {
    let mut driven = None;
    let report = objects(42, FetchPolicy::Shallow).run_with(|sim| {
        sim.run();
        let handled = sim.sim.delivered() + sim.sim.dropped();
        driven = Some((sim.sim.queue_stats(), handled));
    });
    let report = report.expect("objects_shallow runs");
    let (stats, handled) = driven.expect("the row was driven");
    // The committed digest line's `events=edge0:84,cloud:300`.
    let events: u64 = report.cluster.per_node.iter().map(|n| n.events).sum();
    assert_eq!((events, handled), (384, 384));
    // One payload move in per event sent, one out per event delivered.
    assert_eq!((stats.pushed, stats.popped), (handled, handled));
    let sifted = (stats.key_moves * stats.key_bytes) as f64 / stats.popped as f64;
    println!("{stats:?}: {sifted:.1} bytes sifted per event");
    assert!(
        sifted <= SIFT_BYTES_PER_EVENT,
        "sifting moved {sifted:.1} bytes per event ({stats:?})"
    );
    let exact = QueueStats {
        pushed: 384,
        popped: 384,
        peak_depth: 13,
        key_moves: 1932,
        key_bytes: 24,
    };
    assert_eq!(stats, exact);
}

/// A world whose every delivery sends as many timers as its message says.
struct Burst;

impl World for Burst {
    type Msg = u32;

    fn on_message(&mut self, dst: usize, fan: u32, ctx: &mut SimCtx<'_, u32>) {
        for _ in 0..fan {
            ctx.schedule(1, dst, 0);
        }
    }
}

#[test]
fn a_warm_queue_allocates_nothing_per_event() {
    let mut sim = Sim::new(Burst, Topology::gigabit_cluster(1));
    // Warm the queue to a depth of 64 with events that send nothing.
    for at in 0..64 {
        sim.inject(at, 0, 0);
    }
    sim.run_to_idle(u64::MAX);
    // Then 125 rounds of one delivery sending 32 at once: 33 events
    // queued at most, each round.
    let ((), allocations, _) = counted(|| {
        for _ in 0..125 {
            sim.inject(sim.now(), 0, 32);
            sim.run_to_idle(u64::MAX);
        }
    });
    let stats = sim.queue_stats();
    assert_eq!((stats.pushed, stats.popped), (64 + 125 * 33, 64 + 125 * 33));
    assert_eq!(stats.peak_depth, 64);
    assert_eq!(
        allocations,
        0,
        "{allocations} allocations over {} events on a warm queue",
        125 * 33
    );
}
