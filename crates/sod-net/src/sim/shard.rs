//! Per-node event shards: the building blocks of the sharded scheduler.
//!
//! Each node owns a [`Shard`] — a local min-heap of the events addressed
//! to it — so pushes and pops touch a heap sized by *one node's* backlog
//! instead of the whole fleet's. A [`ShardedQueue`] is the set of shards
//! plus the cached drain [`Window`](super::horizon::Window) that lets a
//! hot shard (e.g. a node burning through a chain of `RunSlice` timers)
//! deliver events back-to-back without re-scanning the other shards.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::horizon::{open_window, Window};

/// The total delivery order on events: virtual time, then global
/// submission sequence, then destination node. `seq` is unique per
/// simulation (the [`Sim`](super::Sim) hands it out at submission), so
/// the order is total and — crucially — independent of which shard an
/// event sits in. Both schedulers deliver in exactly this order; that is
/// the invariant the differential-equivalence suite pins.
pub(crate) type EventKey = (u64, u64, usize);

/// One pending message delivery. `src` records the sending node (equal
/// to `dst` for timers and injected events); it is carried for the chaos
/// layer's partition/loss checks and takes no part in the ordering key.
///
/// An event is moved by value on every queue operation (push, each sift
/// step, pop, the hand-off to the handler), so its size is a cost: four
/// words of header here, and the world keeps its message small (the SOD
/// runtime pins `Msg` at 64 bytes — a 96-byte event moves as a few inline
/// register copies where the 168-byte one it replaced went through
/// `memcpy`).
pub(crate) struct Event<M> {
    pub at: u64,
    pub seq: u64,
    pub src: usize,
    pub dst: usize,
    pub msg: M,
}

impl<M> Event<M> {
    pub fn key(&self) -> EventKey {
        (self.at, self.seq, self.dst)
    }
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        self.key().cmp(&other.key())
    }
}

/// One node's pending events: a local min-heap ordered by [`EventKey`].
pub(crate) struct Shard<M> {
    heap: BinaryHeap<Reverse<Event<M>>>,
}

impl<M> Shard<M> {
    pub fn new() -> Self {
        Shard {
            heap: BinaryHeap::new(),
        }
    }

    pub fn push(&mut self, ev: Event<M>) {
        self.heap.push(Reverse(ev));
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    /// The shard's frontier: the key of its earliest pending event.
    pub fn front_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(ev)| ev.key())
    }
}

/// The sharded event queue: one [`Shard`] per node, merged through the
/// conservative drain window computed by [`super::horizon`].
///
/// Delivery order is identical to a single global heap — the coordinator
/// only ever releases the globally smallest [`EventKey`] — but the hot
/// paths are cheaper: a push is an `O(log k)` insert into the destination
/// shard (`k` = that node's backlog, not the fleet's), and a pop inside an
/// open window is a local heap pop plus one key comparison.
pub(crate) struct ShardedQueue<M> {
    shards: Vec<Shard<M>>,
    len: usize,
    /// The topology's minimum link latency: the classic conservative
    /// lookahead bound, applied as the window's time horizon.
    lookahead_ns: u64,
    window: Option<Window>,
}

impl<M> ShardedQueue<M> {
    pub fn new(nodes: usize, lookahead_ns: u64) -> Self {
        ShardedQueue {
            shards: (0..nodes.max(1)).map(|_| Shard::new()).collect(),
            len: 0,
            lookahead_ns,
            window: None,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn push(&mut self, ev: Event<M>) {
        if ev.dst >= self.shards.len() {
            // Worlds may address nodes beyond the topology size; grow
            // shards lazily rather than constrain the World contract.
            self.shards.resize_with(ev.dst + 1, Shard::new);
        }
        if let Some(w) = &mut self.window {
            // A cross-shard push may tighten the active window's limit;
            // observing it here keeps the merge exact without a re-scan.
            w.observe_push(ev.key(), ev.dst);
        }
        let dst = ev.dst;
        self.shards[dst].push(ev);
        self.len += 1;
    }

    /// Pop the globally smallest event. Inside an open window this is a
    /// single shard-heap pop; otherwise the coordinator re-scans the
    /// frontiers and opens the next window.
    pub fn pop(&mut self) -> Option<Event<M>> {
        loop {
            match &self.window {
                Some(w) => {
                    if let Some(key) = self.shards[w.shard].front_key() {
                        if w.admits(key) {
                            self.len -= 1;
                            return self.shards[w.shard].pop();
                        }
                    }
                    // Window exhausted (shard drained past its limit or
                    // horizon): close it and re-scan.
                    self.window = None;
                }
                None => {
                    self.window = Some(open_window(&self.shards, self.lookahead_ns)?);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, seq: u64, dst: usize) -> Event<u32> {
        Event {
            at,
            seq,
            src: dst,
            dst,
            msg: 0,
        }
    }

    #[test]
    fn pops_in_global_key_order_across_shards() {
        let mut q = ShardedQueue::new(3, 1000);
        q.push(ev(50, 0, 2));
        q.push(ev(10, 1, 0));
        q.push(ev(50, 2, 1)); // same time as seq 0: FIFO by seq
        q.push(ev(10, 3, 0));
        let order: Vec<EventKey> = std::iter::from_fn(|| q.pop()).map(|e| e.key()).collect();
        assert_eq!(order, vec![(10, 1, 0), (10, 3, 0), (50, 0, 2), (50, 2, 1)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn mid_drain_cross_shard_push_narrows_the_window() {
        let mut q = ShardedQueue::new(2, 1_000_000);
        q.push(ev(10, 0, 0));
        q.push(ev(20, 1, 0));
        q.push(ev(30, 2, 0));
        assert_eq!(q.pop().unwrap().key(), (10, 0, 0));
        // Shard 0's window is open (limit: none — shard 1 is empty). An
        // event for shard 1 at t=15 must now preempt shard 0's t=20.
        q.push(ev(15, 3, 1));
        assert_eq!(q.pop().unwrap().key(), (15, 3, 1));
        assert_eq!(q.pop().unwrap().key(), (20, 1, 0));
        assert_eq!(q.pop().unwrap().key(), (30, 2, 0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn an_event_adds_four_words_to_its_message() {
        assert_eq!(std::mem::size_of::<Event<[u64; 8]>>(), 32 + 64);
    }

    #[test]
    fn grows_for_out_of_range_destinations() {
        let mut q = ShardedQueue::new(1, 0);
        q.push(ev(5, 0, 7));
        assert_eq!(q.pop().unwrap().key(), (5, 0, 7));
    }
}
