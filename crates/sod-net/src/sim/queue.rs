//! The event queue: a 4-ary min-heap of small keys over a slab of events.
//!
//! A key is an event's place in the delivery order, `(at, seq)` whole, and
//! the index of the slab slot holding the rest of it (source, destination,
//! message). Sifting moves keys only, so an event's message is written
//! once, into its slot, when it is pushed, and read once, out of it, when
//! it is popped; a freed slot goes on a free list and the next push
//! reuses it, so the slab never holds more slots than the queue's peak
//! depth. Four children per node halve the heap's depth against a binary
//! heap, and a node's children sit side by side (LaMarca and Ladner, "The
//! Influence of Caches on the Performance of Heaps", 1996).
//!
//! `seq` is minted here, at push, so pushes are numbered in the order
//! they happen: a handler's sends go straight in, numbered in the order
//! it made them, and `(at, seq)` is a total order.

/// One queued event's place in the order: `(at, seq)`, and the slab slot
/// holding its payload. `seq` is unique per queue, so no two keys tie.
#[derive(Clone, Copy, Debug)]
pub(super) struct Key {
    pub(super) at: u64,
    pub(super) seq: u64,
    slot: usize,
}

/// Sifting moves keys, never payloads, so a key stays three words.
const _: () = assert!(std::mem::size_of::<Key>() == 24);

impl Key {
    /// `(at, seq)` as one integer: one wide comparison orders two keys.
    #[inline]
    fn order(&self) -> u128 {
        (u128::from(self.at) << 64) | u128::from(self.seq)
    }
}

/// What a slab slot holds: the event without its key.
pub(super) struct Payload<M> {
    pub(super) src: usize,
    pub(super) dst: usize,
    pub(super) msg: M,
}

/// Children per heap node.
const ARITY: usize = 4;

/// The queue's work so far: how many events went in and came out, the
/// most it held at once, and how many keys its sifts moved. The queue
/// writes a payload once per push and reads it once per pop, so `pushed`
/// and `popped` are also its payload moves; `key_moves` counts every key
/// written to a heap position: each level a sift moves a key or the hole
/// through, each final placement, and one per key of a choice-hook
/// rebuild. `key_bytes` is the size of a key, so `key_moves * key_bytes`
/// is what sifting moved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    pub pushed: u64,
    pub popped: u64,
    pub peak_depth: u64,
    pub key_moves: u64,
    pub key_bytes: u64,
}

/// The queue; see the module docs.
pub(super) struct Queue<M> {
    /// Heap-ordered by [`Key::order`]: a node is no later than its
    /// children.
    keys: Vec<Key>,
    /// Payloads by slot; `None` is a free slot.
    slab: Vec<Option<Payload<M>>>,
    /// The free slots, reused last-freed first.
    free: Vec<usize>,
    /// The next key's `seq`.
    seq: u64,
    stats: QueueStats,
}

impl<M> Queue<M> {
    pub(super) fn new() -> Self {
        Queue {
            keys: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            stats: QueueStats::default(),
        }
    }

    pub(super) fn len(&self) -> usize {
        self.keys.len()
    }

    pub(super) fn stats(&self) -> QueueStats {
        let key_bytes = std::mem::size_of::<Key>() as u64;
        QueueStats {
            key_bytes,
            ..self.stats
        }
    }

    /// Queue `msg` from `src` to `dst` at `at`, behind every event
    /// already queued at `at`.
    #[inline]
    pub(super) fn push(&mut self, at: u64, src: usize, dst: usize, msg: M) {
        let payload = Some(Payload { src, dst, msg });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = payload;
                slot
            }
            None => {
                self.slab.push(payload);
                self.slab.len() - 1
            }
        };
        let seq = self.seq;
        self.seq += 1;
        let key = Key { at, seq, slot };
        self.keys.push(key);
        let depth = self.keys.len();
        self.sift_up(depth - 1, key);
        self.stats.pushed += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(depth as u64);
    }

    /// The earliest event: its time and its payload, its slot freed.
    #[inline]
    pub(super) fn pop(&mut self) -> Option<(u64, Payload<M>)> {
        let last = self.keys.pop()?;
        let head = match self.keys.first() {
            Some(&head) => {
                self.refill_root(last);
                head
            }
            None => last,
        };
        Some((head.at, self.take(head.slot)?))
    }

    /// Move the payload out of `slot` and free it.
    fn take(&mut self, slot: usize) -> Option<Payload<M>> {
        let payload = self.slab.get_mut(slot)?.take()?;
        self.free.push(slot);
        self.stats.popped += 1;
        Some(payload)
    }

    /// Put `key` into the hole at `i` and move it up to where it belongs.
    #[inline]
    fn sift_up(&mut self, mut i: usize, key: Key) {
        let mut moves = 1;
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.keys[parent].order() <= key.order() {
                break;
            }
            self.keys[i] = self.keys[parent];
            moves += 1;
            i = parent;
        }
        self.keys[i] = key;
        self.stats.key_moves += moves;
    }

    /// Fill the hole at the root with `key`, the last leaf's: walk the
    /// hole down to a leaf along the earliest children, then sift `key` up
    /// from there. A last leaf nearly always belongs near the bottom, so
    /// this skips comparing it at every level on the way down (Floyd's
    /// bottom-up sift, as `std`'s `BinaryHeap::pop` does).
    #[inline]
    fn refill_root(&mut self, key: Key) {
        let mut i = 0;
        while let Some(child) = self.earliest_child(i) {
            self.keys[i] = self.keys[child];
            self.stats.key_moves += 1;
            i = child;
        }
        self.sift_up(i, key);
    }

    /// The earliest of node `i`'s children, if it has any. Four children
    /// are compared as a tournament, two pairs and their winners, which
    /// compiles to selects rather than branches.
    #[inline]
    fn earliest_child(&self, i: usize) -> Option<usize> {
        let first = i * ARITY + 1;
        if let Some([a, b, c, d]) = self.keys.get(first..first + ARITY) {
            let [a, b, c, d] = [a, b, c, d].map(Key::order);
            let (ab, ab_order) = if b < a { (1, b) } else { (0, a) };
            let (cd, cd_order) = if d < c { (3, d) } else { (2, c) };
            return Some(first + if cd_order < ab_order { cd } else { ab });
        }
        (first..self.keys.len()).min_by_key(|&child| self.keys[child].order())
    }

    /// Every queued key, in heap order.
    pub(super) fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The payload of a queued key.
    pub(super) fn payload(&self, key: &Key) -> Option<&Payload<M>> {
        self.slab.get(key.slot)?.as_ref()
    }

    /// Take the key at heap position `i` out of the order and delay every
    /// key left to at least its time, then restore the order (a sorted
    /// array is a heap; each key counts one move); returns the taken
    /// event's time and payload, its slot freed.
    pub(super) fn remove_delaying(&mut self, i: usize) -> Option<(u64, Payload<M>)> {
        if i >= self.keys.len() {
            return None;
        }
        let taken = self.keys.swap_remove(i);
        for key in &mut self.keys {
            key.at = key.at.max(taken.at);
        }
        self.keys.sort_unstable_by_key(Key::order);
        self.stats.key_moves += self.keys.len() as u64;
        Some((taken.at, self.take(taken.slot)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every key is no later than its children.
    fn is_heap<M>(q: &Queue<M>) -> bool {
        (1..q.keys.len()).all(|i| q.keys[(i - 1) / ARITY].order() < q.keys[i].order())
    }

    #[test]
    fn a_key_is_three_words() {
        // The const assertion above already refuses to build otherwise;
        // this names the number in the test log.
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    fn freed_slots_are_reused_and_the_slab_never_outgrows_the_peak_depth() {
        let mut q = Queue::new();
        let mut popped = Vec::new();
        // Waves that fill the queue to a depth, then drain it part way:
        // every push after the first wave lands in a freed slot.
        for (wave, (fill, drain)) in [(5, 3), (9, 9), (4, 2), (13, 1), (0, 16)]
            .into_iter()
            .enumerate()
        {
            for i in 0..fill {
                // Times that go down and repeat, so pushes sift up.
                q.push(100 - (i % 4) as u64, wave, i, (wave, i));
                assert!(q.slab.len() as u64 <= q.stats().peak_depth);
                assert!(is_heap(&q));
            }
            for _ in 0..drain {
                let (at, p) = q.pop().expect("queued");
                popped.push((at, p.msg));
                assert!(is_heap(&q));
            }
            assert_eq!(
                q.slab.len() - q.free.len(),
                q.len(),
                "live slots are the queued"
            );
        }
        let stats = q.stats();
        assert_eq!((stats.pushed, stats.popped, q.len()), (31, 31, 0));
        assert_eq!(q.slab.len() as u64, stats.peak_depth);
        assert_eq!(stats.peak_depth, 17);
        assert!(q.slab.iter().all(Option::is_none));
        assert_eq!(popped.len(), 31);
    }

    #[test]
    fn removing_a_key_delays_the_rest_and_keeps_the_heap() {
        let mut q = Queue::new();
        for (i, at) in [50u64, 10, 40, 30, 20, 60, 10, 70].into_iter().enumerate() {
            q.push(at, 0, 0, i);
        }
        let i = q.keys().iter().position(|k| k.at == 40).expect("queued");
        let (at, taken) = q.remove_delaying(i).expect("in range");
        assert_eq!((at, taken.msg), (40, 2));
        assert!(is_heap(&q));
        assert!(q.remove_delaying(q.len()).is_none());
        let mut order = Vec::new();
        while let Some((at, p)) = q.pop() {
            order.push((at, p.msg));
        }
        // Everything due before 40 now delivers at 40, in seq order.
        let expect = [
            (40, 1),
            (40, 3),
            (40, 4),
            (40, 6),
            (50, 0),
            (60, 5),
            (70, 7),
        ];
        assert_eq!(order, expect);
    }
}
