//! The conservative safe-horizon coordinator for the sharded scheduler.
//!
//! Classic conservative parallel discrete-event simulation advances every
//! shard whose next event falls inside the *safe horizon* — the minimum
//! over shard frontiers plus the minimum link latency — because no
//! message sent after the horizon opens can arrive inside it. This
//! simulator demands something stronger than causal safety, though: runs
//! must be **bit-identical** to the single global heap, which means
//! honoring the total `(time, seq, dst)` merge order even between events
//! on different shards at equal timestamps, and `SimCtx::schedule` may
//! deliver cross-shard with zero latency. The drain [`Window`] therefore
//! combines both bounds:
//!
//! * the *owning* shard is the one holding the globally smallest
//!   frontier;
//! * its events drain back-to-back while they stay strictly below every
//!   other shard's frontier (`limit`, tightened on every cross-shard push
//!   so the merge stays exact without re-scanning); and
//! * no further than the latency-extended horizon (`horizon_at` = owning
//!   frontier time + minimum link latency), which bounds how long the
//!   coordinator runs one shard before it re-examines the fleet.

use super::shard::{EventKey, Shard};

/// An active drain window over one shard, produced by [`open_window`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Window {
    /// The shard being drained (owner of the globally smallest frontier).
    pub shard: usize,
    /// The earliest event on any *other* shard; `None` when every other
    /// shard is empty. Draining past this would reorder the merge.
    pub limit: Option<EventKey>,
    /// The safe horizon: the owning frontier's time plus the topology's
    /// minimum link latency. A batching bound, not a correctness one —
    /// `limit` already guarantees exact ordering.
    pub horizon_at: u64,
}

impl Window {
    /// May the owning shard's event `key` be delivered inside this window?
    pub fn admits(&self, key: EventKey) -> bool {
        self.limit.is_none_or(|l| key < l) && key.0 <= self.horizon_at
    }

    /// An event was pushed to shard `dst` while this window is open; a
    /// cross-shard push that lands below the current limit narrows it so
    /// the owning shard cannot drain past the newcomer.
    pub fn observe_push(&mut self, key: EventKey, dst: usize) {
        if dst != self.shard && self.limit.is_none_or(|l| key < l) {
            self.limit = Some(key);
        }
    }
}

/// Scan the shard frontiers and open the widest bit-identical window:
/// the owner is the shard with the globally smallest frontier, the limit
/// is the second-smallest frontier, and the horizon extends the owner's
/// frontier by `lookahead_ns` (the topology's minimum link latency).
/// Returns `None` when every shard is empty.
pub(crate) fn open_window<M>(shards: &[Shard<M>], lookahead_ns: u64) -> Option<Window> {
    let mut best: Option<(EventKey, usize)> = None;
    let mut second: Option<EventKey> = None;
    for (i, shard) in shards.iter().enumerate() {
        let Some(key) = shard.front_key() else {
            continue;
        };
        match best {
            None => best = Some((key, i)),
            Some((b, _)) if key < b => {
                second = Some(b);
                best = Some((key, i));
            }
            Some(_) => {
                if second.is_none_or(|s| key < s) {
                    second = Some(key);
                }
            }
        }
    }
    best.map(|(key, shard)| Window {
        shard,
        limit: second,
        horizon_at: key.0.saturating_add(lookahead_ns),
    })
}

#[cfg(test)]
mod tests {
    use super::super::shard::Event;
    use super::*;

    fn shard_with(keys: &[EventKey]) -> Shard<u8> {
        let mut s = Shard::new();
        for &(at, seq, dst) in keys {
            s.push(Event {
                at,
                seq,
                src: dst,
                dst,
                msg: 0,
            });
        }
        s
    }

    #[test]
    fn empty_fleet_has_no_window() {
        let shards: Vec<Shard<u8>> = vec![Shard::new(), Shard::new()];
        assert_eq!(open_window(&shards, 100), None);
    }

    #[test]
    fn owner_is_global_min_and_limit_is_second() {
        let shards = vec![
            shard_with(&[(30, 2, 0)]),
            shard_with(&[(10, 0, 1), (40, 3, 1)]),
            shard_with(&[]),
        ];
        let w = open_window(&shards, 5).unwrap();
        assert_eq!(w.shard, 1);
        assert_eq!(w.limit, Some((30, 2, 0)));
        assert_eq!(w.horizon_at, 15);
        assert!(w.admits((10, 0, 1)));
        assert!(!w.admits((40, 3, 1)), "beyond the other shard's frontier");
        assert!(!w.admits((16, 1, 1)), "beyond the latency horizon");
    }

    #[test]
    fn equal_times_break_by_seq_then_dst() {
        let shards = vec![shard_with(&[(10, 1, 0)]), shard_with(&[(10, 0, 1)])];
        let w = open_window(&shards, 1000).unwrap();
        assert_eq!(w.shard, 1, "seq breaks the time tie");
        assert_eq!(w.limit, Some((10, 1, 0)));
        // The owner's event is admitted; draining past the tie is not.
        assert!(w.admits((10, 0, 1)));
        assert!(!w.admits((10, 2, 1)));
    }

    #[test]
    fn cross_shard_push_narrows_only_when_earlier() {
        let mut w = Window {
            shard: 0,
            limit: Some((50, 5, 1)),
            horizon_at: 100,
        };
        w.observe_push((60, 6, 1), 1); // later: no change
        assert_eq!(w.limit, Some((50, 5, 1)));
        w.observe_push((40, 7, 2), 2); // earlier: narrows
        assert_eq!(w.limit, Some((40, 7, 2)));
        w.observe_push((1, 8, 0), 0); // own shard: never narrows
        assert_eq!(w.limit, Some((40, 7, 2)));
    }

    #[test]
    fn sole_shard_window_is_latency_bounded() {
        let shards = vec![shard_with(&[(10, 0, 0), (10_000, 1, 0)])];
        let w = open_window(&shards, 60).unwrap();
        assert_eq!(w.limit, None);
        assert!(w.admits((70, 2, 0)));
        assert!(!w.admits((71, 3, 0)), "re-scan after one lookahead span");
    }
}
