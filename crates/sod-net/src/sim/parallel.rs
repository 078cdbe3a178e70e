//! Worker-side machinery for [`super::Scheduler::Parallel`].
//!
//! `super::shard::ShardedQueue::take_batch` proves which shards may
//! drain independently below the safe horizon; this module executes those
//! per-shard batches on scoped worker threads and records everything the
//! coordinator needs to splice the results back **bit-identically** to a
//! sequential run:
//!
//! * Each worker owns its shard's [`LinkRow`] (outbound link state) and a
//!   caller-supplied per-shard state `S`, so no two threads share mutable
//!   data — the ownership auditors in the topology and the world panic if
//!   a handler reaches across anyway.
//! * Generated events that stay on the shard below the horizon are
//!   consumed locally under **provisional** sequence numbers (counted up
//!   from `prov_base`, the simulator's sequence counter at batch start —
//!   strictly greater than every real seq in the batch). Within one shard
//!   the provisional order equals the real submission order restricted to
//!   that shard, because both follow local emission order; the horizon
//!   guarantees no foreign event interleaves.
//! * Every delivery is logged as a [`DeliveryRec`] — its time, its
//!   ([`SeqSlot`]) sequence slot, and its pushes in emission order — so
//!   the coordinator can replay the global `(time, seq, dst)` merge,
//!   assign the *final* sequence numbers exactly as a sequential run
//!   would have, and re-queue the cross-shard pushes ([`PushRec::Out`])
//!   under them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::topology::{LinkRow, Topology};

use super::SimCtx;

/// Spawn real threads only when a batch is meaty enough to amortize the
/// handoff; smaller batches drain inline on the calling thread (through
/// the identical code path, so the choice cannot affect determinism).
const SPAWN_MIN_EVENTS: usize = 128;

/// One shard's share of a safe-horizon batch: the events it must deliver,
/// already popped from the queue. `dst` is implicit (`shard`).
pub struct ShardBatch<M> {
    pub shard: usize,
    pub events: Vec<BatchEvent<M>>,
}

/// One pending delivery inside a [`ShardBatch`]; carries its real
/// (already assigned) sequence number.
pub struct BatchEvent<M> {
    pub at: u64,
    pub seq: u64,
    pub src: usize,
    pub msg: M,
}

/// A delivery's place in the global sequence order: either a real
/// sequence number (events that entered the batch through the queue) or a
/// worker-provisional one (events generated and consumed inside the
/// batch), resolved to its final number during the merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqSlot {
    Final(u64),
    Prov(u64),
}

/// One message pushed by a handler during the batch, in emission order.
#[derive(Debug)]
pub enum PushRec<M> {
    /// Same-shard, below the horizon: consumed locally by the worker
    /// under provisional seq `prov`. The merge assigns its final seq when
    /// it replays this push.
    Consumed { prov: u64 },
    /// Leaves the shard or lands at/after the horizon: re-queued by the
    /// merge under its final seq. `at < horizon` with a foreign `dst`
    /// would mean the batch closure was violated; the merge asserts.
    Out {
        at: u64,
        src: usize,
        dst: usize,
        msg: M,
    },
}

/// One delivery a worker performed: when, which sequence slot, and what
/// it pushed (in emission order).
#[derive(Debug)]
pub struct DeliveryRec<M> {
    pub at: u64,
    pub seq: SeqSlot,
    pub pushes: Vec<PushRec<M>>,
}

/// Everything one worker did to its shard, in local delivery order.
#[derive(Debug)]
pub struct ShardLog<M> {
    pub shard: usize,
    pub deliveries: Vec<DeliveryRec<M>>,
    /// Whether this batch drained on a spawned worker thread (what
    /// [`super::Sim::threaded_windows`] counts); never affects the merge.
    pub threaded: bool,
}

/// A worker's local pending event: ordered by `(at, seq)`, where `seq`
/// is real for batch events and provisional (≥ `prov_base`, hence after
/// every real one at equal times — matching final order) for generated
/// ones.
struct LocalEv<M> {
    at: u64,
    seq: u64,
    prov: bool,
    msg: M,
}

impl<M> LocalEv<M> {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

impl<M> PartialEq for LocalEv<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for LocalEv<M> {}
impl<M> PartialOrd for LocalEv<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for LocalEv<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Drain one shard's batch to completion: deliver every event below the
/// horizon (including same-shard events generated along the way), using
/// only the shard's own link row and the caller's shard state.
#[allow(clippy::too_many_arguments)]
fn drain_shard_batch<M, S, F>(
    shard: usize,
    events: Vec<BatchEvent<M>>,
    mut row: LinkRow<'_>,
    horizon: u64,
    prov_base: u64,
    max_events: u64,
    state: &mut S,
    handler: &F,
) -> ShardLog<M>
where
    F: Fn(&mut S, usize, M, &mut SimCtx<'_, M>),
{
    let mut pending: BinaryHeap<Reverse<LocalEv<M>>> = events
        .into_iter()
        .map(|e| {
            Reverse(LocalEv {
                at: e.at,
                seq: e.seq,
                prov: false,
                msg: e.msg,
            })
        })
        .collect();
    let mut next_prov = prov_base;
    let mut deliveries = Vec::new();
    while let Some(Reverse(ev)) = pending.pop() {
        assert!(
            (deliveries.len() as u64) < max_events,
            "parallel drain of shard {shard} exceeded {max_events} events \
             below horizon t={horizon} ns without draining"
        );
        let mut ctx = SimCtx::for_row(ev.at, row);
        handler(state, shard, ev.msg, &mut ctx);
        let (returned_row, outbox) = ctx.into_row_outbox();
        row = returned_row;
        let mut pushes = Vec::with_capacity(outbox.len());
        for (at, src, dst, msg) in outbox {
            if dst == shard && at < horizon {
                let prov = next_prov;
                next_prov += 1;
                pending.push(Reverse(LocalEv {
                    at,
                    seq: prov,
                    prov: true,
                    msg,
                }));
                pushes.push(PushRec::Consumed { prov });
            } else {
                pushes.push(PushRec::Out { at, src, dst, msg });
            }
        }
        deliveries.push(DeliveryRec {
            at: ev.at,
            seq: if ev.prov {
                SeqSlot::Prov(ev.seq)
            } else {
                SeqSlot::Final(ev.seq)
            },
            pushes,
        });
    }
    ShardLog {
        shard,
        deliveries,
        threaded: false,
    }
}

/// One unit of worker work: the batch's position in submission order, the
/// batch itself, the shard's exclusive link row, and its private state.
type Job<'a, M, S> = (usize, ShardBatch<M>, LinkRow<'a>, S);

/// Execute a safe-horizon batch on up to `threads` scoped worker threads.
///
/// `states[i]` is the private mutable state for `batches[i]` (typically
/// the world's shard view); `handler` delivers one message to one shard
/// against that state, with a [`SimCtx`] wired to the shard's own
/// [`LinkRow`]. Returns the per-shard logs and states **in batch order**
/// regardless of which thread ran which shard, so the caller's merge is
/// deterministic. Worker panics (including the ownership auditors')
/// propagate to the caller.
#[allow(clippy::too_many_arguments)]
pub fn drain_batches_scoped<M, S, F>(
    topo: &mut Topology,
    batches: Vec<ShardBatch<M>>,
    horizon: u64,
    prov_base: u64,
    threads: usize,
    max_events: u64,
    states: Vec<S>,
    handler: F,
) -> (Vec<ShardLog<M>>, Vec<S>)
where
    M: Send,
    S: Send,
    F: Fn(&mut S, usize, M, &mut SimCtx<'_, M>) + Sync,
{
    assert_eq!(
        batches.len(),
        states.len(),
        "one worker state per shard batch"
    );
    let total: usize = batches.iter().map(|b| b.events.len()).sum();
    let njobs = batches.len();
    let mut rows: Vec<Option<LinkRow<'_>>> = topo.link_rows().into_iter().map(Some).collect();
    let jobs: Vec<Job<'_, M, S>> = batches
        .into_iter()
        .zip(states)
        .enumerate()
        .map(|(i, (batch, state))| {
            let row = rows
                .get_mut(batch.shard)
                .and_then(Option::take)
                .unwrap_or_else(|| panic!("no link row for shard {}", batch.shard));
            (i, batch, row, state)
        })
        .collect();
    let workers = threads.min(njobs).max(1);
    let mut out: Vec<Option<(ShardLog<M>, S)>> = (0..njobs).map(|_| None).collect();
    let threaded = workers > 1 && total >= SPAWN_MIN_EVENTS;
    // Both arms drain a job through this one closure, so where a batch
    // runs cannot change what it does.
    let run = |(i, batch, row, mut state): Job<'_, M, S>| {
        let mut log = drain_shard_batch(
            batch.shard,
            batch.events,
            row,
            horizon,
            prov_base,
            max_events,
            &mut state,
            &handler,
        );
        log.threaded = threaded;
        (i, log, state)
    };
    if !threaded {
        for (i, log, state) in jobs.into_iter().map(run) {
            out[i] = Some((log, state));
        }
    } else {
        let mut buckets: Vec<Vec<Job<'_, M, S>>> = (0..workers).map(|_| Vec::new()).collect();
        for (k, job) in jobs.into_iter().enumerate() {
            buckets[k % workers].push(job);
        }
        let run = &run;
        let results: Vec<Vec<(usize, ShardLog<M>, S)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| scope.spawn(move || bucket.into_iter().map(run).collect()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        for bucket in results {
            for (i, log, state) in bucket {
                out[i] = Some((log, state));
            }
        }
    }
    let mut logs = Vec::with_capacity(njobs);
    let mut final_states = Vec::with_capacity(njobs);
    for slot in out {
        let (log, state) = slot.expect("every batch job completed");
        logs.push(log);
        final_states.push(state);
    }
    (logs, final_states)
}
