//! Measurement records: the quantities the paper's tables report.

/// Timing breakdown of one migration (Table IV / Table VII).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationTimings {
    /// Request received → state ready to transfer ("capture time").
    pub capture_ns: u64,
    /// State message network time ("transfer time", state portion).
    pub transfer_state_ns: u64,
    /// Class files network time (Table VII splits this out as t3).
    pub transfer_class_ns: u64,
    /// State available at destination → execution resumed ("restore time",
    /// including class loading per the paper's accounting).
    pub restore_ns: u64,
    /// Bytes of captured state shipped.
    pub state_bytes: u64,
    /// Bytes of class files shipped.
    pub class_bytes: u64,
}

impl MigrationTimings {
    /// The paper's *migration latency*: capture + transfer + restore.
    pub fn latency_ns(&self) -> u64 {
        self.capture_ns + self.transfer_state_ns + self.transfer_class_ns + self.restore_ns
    }
}

/// Outcome of one program run under the simulator.
///
/// `PartialEq` compares every field, so two reports are equal only when
/// the runs were byte-identical in result *and* cost accounting — the
/// property the scenario-equivalence tests pin.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time the program's root thread was spawned (request
    /// arrival, for fleet latency accounting).
    pub started_at_ns: u64,
    /// Virtual completion time of the program (home node observes it).
    pub finished_at_ns: u64,
    /// Root return value rendered as i64 where applicable.
    pub result: Option<i64>,
    /// Guest instructions retired across all nodes.
    pub instructions: u64,
    /// Migrations performed, in order.
    pub migrations: Vec<MigrationTimings>,
    /// Remote-object faults served.
    pub object_faults: u64,
    /// Bytes of objects fetched on demand.
    pub object_bytes: u64,
    /// Classes shipped on demand (beyond those bundled with state).
    pub classes_shipped: u64,
    /// Total class-file bytes shipped on this program's behalf: classes
    /// bundled with migrating state *plus* on-demand `ClassReply`
    /// payloads. This is the quantity the code cache shrinks on warm
    /// workers; the per-migration bundled share is in
    /// [`MigrationTimings::class_bytes`].
    pub class_bytes: u64,
    /// Maximum stack height observed on the home node (Table I `h`).
    pub max_stack_height: usize,
}

impl RunReport {
    /// Total migration latency across all hops.
    pub fn total_migration_latency_ns(&self) -> u64 {
        self.migrations.iter().map(|m| m.latency_ns()).sum()
    }

    /// Request completion latency: spawn → finish on the home node.
    pub fn latency_ns(&self) -> u64 {
        self.finished_at_ns.saturating_sub(self.started_at_ns)
    }
}

/// The *nearest-rank* percentile of an ascending-sorted sample.
///
/// For a sample of `n` values and percentile `p` (0 < p ≤ 100), the
/// nearest-rank definition picks the value at rank `⌈p/100 · n⌉`
/// (1-based); it is always an observed sample value, never an
/// interpolation. An empty sample yields 0.
pub fn percentile_nearest_rank(sorted: &[u64], p: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    let p = p.clamp(1, 100) as u64;
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1);
    sorted[rank as usize - 1]
}

/// Network payload bytes broken out by protocol category.
///
/// Tracked per node at every *send* site, so summing a category across
/// nodes equals the bytes the matching [`RunReport`] fields account for —
/// the conservation property the codecache suite pins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetBytes {
    /// Captured execution state (`State` message payloads).
    pub state: u64,
    /// Class files (bundled with state + on-demand `ClassReply` payloads).
    pub class: u64,
    /// Objects (on-demand fetch replies + dirty write-back flushes).
    pub object: u64,
}

impl NetBytes {
    /// All categories combined.
    pub fn total(&self) -> u64 {
        self.state + self.class + self.object
    }
}

impl std::ops::Add for NetBytes {
    type Output = NetBytes;

    /// Category by category.
    fn add(self, other: NetBytes) -> NetBytes {
        NetBytes {
            state: self.state + other.state,
            class: self.class + other.class,
            object: self.object + other.object,
        }
    }
}

/// Fault-injection tallies for one run (all zero when chaos is off).
///
/// Surfaced on [`ClusterReport`] so chaos runs compare with `==` like any
/// other report — the determinism suites pin the counters too.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Node crashes applied.
    pub crashes: u64,
    /// Node restarts applied.
    pub restarts: u64,
    /// Link partitions applied.
    pub partitions: u64,
    /// Partition heals applied.
    pub heals: u64,
    /// Messages dropped at delivery (crash, partition, or seeded loss).
    pub dropped_msgs: u64,
    /// Home-side migration deadlines that fired on a still-outstanding
    /// migration.
    pub timeouts: u64,
    /// Migration re-ship attempts under
    /// [`crate::engine::RetryPolicy::Retry`].
    pub retries: u64,
    /// Migrations abandoned to resume on the home stack.
    pub fallbacks: u64,
}

/// Work done by one node over a whole fleet run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeUtilization {
    /// The node's configured name.
    pub name: String,
    /// Guest instructions retired on this node (root + worker threads).
    pub instructions: u64,
    /// Execution slices dispatched on this node.
    pub slices: u64,
    /// Virtual ns the node spent executing guest code (CPU-scaled).
    pub busy_ns: u64,
    /// Simulator events delivered to this node (deterministic, so the
    /// replay suites may compare whole reports with `==`).
    pub events: u64,
    /// Outbound network payload bytes, broken out as state/class/object
    /// (makes code-cache savings visible in every report).
    pub sent: NetBytes,
    /// Bytes that left a node but never materialized at a receiver:
    /// payloads of dropped messages (credited to the sender) plus shipped
    /// state that arrived but was never restored (stranded sessions,
    /// credited to the destination holding it). Keeps the conservation
    /// identity `sent = accounted + lost` under fault injection.
    pub lost: NetBytes,
    /// Virtual ns this node was part of the cluster: join → retire for
    /// elastic pool members, join → makespan otherwise. A late-joining pool
    /// node's utilization is `busy_ns` over its own lifetime, not the whole
    /// run.
    pub lifetime_ns: u64,
    /// Objects the node's guest heap allocated in the model (its
    /// `Heap::alloc_count`): what its memory accounting charged.
    pub heap_objects: u64,
    /// Heap entries the host holds for the node at the end of the run (its
    /// `Heap::len`): `heap_objects` less the exceptions no handler read.
    pub heap_entries: u64,
}

/// Per-program and per-segment state the nodes hold (see
/// `Cluster::residue`): worker sessions, thread owners, occupied thread
/// slots and armed breakpoints, each released when its program or segment
/// finishes — and `episodes`, the programs whose home side is not idle (a
/// plan pending or a migration episode open), closed when the program ends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Residue {
    pub sessions: usize,
    pub owners: usize,
    pub threads: usize,
    pub breakpoints: usize,
    pub episodes: usize,
}

/// Scaling activity of one elastic node pool over a run (see the engine's
/// pool controller). All-integer and `Eq`, like every other report piece,
/// so elastic runs replay bit-identically under `==`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolReport {
    /// The pool's declared name.
    pub name: String,
    /// Nodes spawned beyond the initial base (including crash
    /// replacements).
    pub spawns: u64,
    /// Nodes drained and retired (scale-in via whole-stack migration).
    pub drains: u64,
    /// Peak concurrent size (live + provisioning) observed.
    pub peak: u64,
    /// Minimum live size observed.
    pub min: u64,
    /// Live members when the report was taken.
    pub final_size: u64,
}

/// Aggregate outcome of a multi-program (fleet) run.
///
/// Per-request completion latencies (spawn → finish of each program's
/// root thread) are summarized as **nearest-rank percentiles** — see
/// [`percentile_nearest_rank`] for the exact definition — alongside
/// throughput and per-node utilization. All fields are integers so two
/// byte-identical runs compare equal (the determinism suite relies on
/// this).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterReport {
    /// Programs registered with the cluster.
    pub launched: u64,
    /// Programs that ran to completion without error.
    pub completed: u64,
    /// Programs that finished with an error (`launched - completed -
    /// failed` are still in flight / deadlocked when the sim idles).
    pub failed: u64,
    /// Median completion latency (nearest-rank, completed programs only).
    pub p50_latency_ns: u64,
    /// 95th-percentile completion latency (nearest-rank).
    pub p95_latency_ns: u64,
    /// 99th-percentile completion latency (nearest-rank).
    pub p99_latency_ns: u64,
    /// Arithmetic mean completion latency (integer division).
    pub mean_latency_ns: u64,
    /// Worst observed completion latency.
    pub max_latency_ns: u64,
    /// Virtual time when the last program finished (completed or failed).
    pub makespan_ns: u64,
    /// Completed programs per virtual second, ×1000 (milli-requests/s).
    pub throughput_millirps: u64,
    /// Per-node work, in node-declaration order.
    pub per_node: Vec<NodeUtilization>,
    /// Total node-lifetime across the cluster (Σ per-node `lifetime_ns`):
    /// the *cost* axis of the elastic p99-vs-node-seconds frontier. A
    /// fixed fleet pays `nodes × makespan`; an elastic pool pays only for
    /// the lifetimes its members actually had.
    pub node_ns: u64,
    /// Per-pool scaling activity, in pool-declaration order (empty when
    /// the scenario declares no pools).
    pub pools: Vec<PoolReport>,
    /// Fault-injection tallies (all zero when chaos is off).
    pub chaos: ChaosCounters,
}

impl ClusterReport {
    /// Aggregate a fleet run from its raw per-request latencies.
    ///
    /// `latencies` are the completed programs' completion latencies (any
    /// order; sorted internally), `makespan_ns` the virtual time the last
    /// program finished.
    pub fn aggregate(
        launched: u64,
        mut latencies: Vec<u64>,
        failed: u64,
        makespan_ns: u64,
        per_node: Vec<NodeUtilization>,
    ) -> Self {
        latencies.sort_unstable();
        let completed = latencies.len() as u64;
        let sum: u64 = latencies.iter().sum();
        let node_ns = per_node.iter().map(|n| n.lifetime_ns).sum();
        ClusterReport {
            launched,
            completed,
            failed,
            p50_latency_ns: percentile_nearest_rank(&latencies, 50),
            p95_latency_ns: percentile_nearest_rank(&latencies, 95),
            p99_latency_ns: percentile_nearest_rank(&latencies, 99),
            mean_latency_ns: sum / completed.max(1),
            max_latency_ns: latencies.last().copied().unwrap_or(0),
            makespan_ns,
            throughput_millirps: (completed * 1_000_000_000_000)
                .checked_div(makespan_ns)
                .unwrap_or(0),
            per_node,
            node_ns,
            pools: Vec::new(),
            chaos: ChaosCounters::default(),
        }
    }

    /// The cost axis in seconds: total node-lifetime across the cluster.
    pub fn node_seconds(&self) -> f64 {
        self.node_ns as f64 / 1_000_000_000.0
    }

    /// Cluster-wide network bytes: the per-node [`NodeUtilization::sent`]
    /// categories summed across all nodes.
    pub fn total_sent(&self) -> NetBytes {
        self.per_node
            .iter()
            .fold(NetBytes::default(), |acc, n| acc + n.sent)
    }

    /// Cluster-wide lost bytes: the per-node [`NodeUtilization::lost`]
    /// categories summed across all nodes. Under fault injection the
    /// conservation identity is `total_sent = accounted + total_lost` per
    /// category (e.g. state: `sent.state = Σ migrations.state_bytes +
    /// lost.state`).
    pub fn total_lost(&self) -> NetBytes {
        self.per_node
            .iter()
            .fold(NetBytes::default(), |acc, n| acc + n.lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sums_components() {
        let t = MigrationTimings {
            capture_ns: 1,
            transfer_state_ns: 2,
            transfer_class_ns: 3,
            restore_ns: 4,
            ..Default::default()
        };
        assert_eq!(t.latency_ns(), 10);
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile_nearest_rank(&[], 50), 0);
        let one = [7u64];
        for p in [1, 50, 95, 99, 100] {
            assert_eq!(percentile_nearest_rank(&one, p), 7);
        }
        // Canonical nearest-rank example: 5 samples.
        let s = [15u64, 20, 35, 40, 50];
        assert_eq!(percentile_nearest_rank(&s, 30), 20); // ⌈0.30·5⌉ = 2
        assert_eq!(percentile_nearest_rank(&s, 40), 20);
        assert_eq!(percentile_nearest_rank(&s, 50), 35);
        assert_eq!(percentile_nearest_rank(&s, 100), 50);
        // p99 of 100 samples is the 99th value, not the max.
        let big: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_nearest_rank(&big, 99), 99);
        assert_eq!(percentile_nearest_rank(&big, 50), 50);
    }

    #[test]
    fn cluster_report_aggregates() {
        let r = ClusterReport::aggregate(
            5,
            vec![30, 10, 20, 40],
            1,
            2_000_000_000,
            vec![
                NodeUtilization {
                    name: "n0".into(),
                    instructions: 99,
                    slices: 3,
                    busy_ns: 7,
                    events: 11,
                    sent: NetBytes {
                        state: 100,
                        class: 20,
                        object: 3,
                    },
                    lost: NetBytes {
                        state: 9,
                        class: 0,
                        object: 1,
                    },
                    lifetime_ns: 2_000_000_000,
                    heap_objects: 5,
                    heap_entries: 4,
                },
                NodeUtilization {
                    name: "n1".into(),
                    sent: NetBytes {
                        state: 1,
                        class: 2,
                        object: 4,
                    },
                    ..Default::default()
                },
            ],
        );
        assert_eq!((r.launched, r.completed, r.failed), (5, 4, 1));
        assert_eq!(r.p50_latency_ns, 20);
        assert_eq!(r.p99_latency_ns, 40);
        assert_eq!(r.mean_latency_ns, 25);
        assert_eq!(r.max_latency_ns, 40);
        // 4 completions over 2 virtual seconds = 2 req/s = 2000 milli-rps.
        assert_eq!(r.throughput_millirps, 2000);
        assert_eq!(r.per_node.len(), 2);
        // Network byte categories sum per node and across the cluster.
        assert_eq!(r.per_node[0].sent.total(), 123);
        assert_eq!(
            r.total_sent(),
            NetBytes {
                state: 101,
                class: 22,
                object: 7,
            }
        );
        assert_eq!(
            r.total_lost(),
            NetBytes {
                state: 9,
                class: 0,
                object: 1,
            }
        );
        assert_eq!(
            r.chaos,
            ChaosCounters::default(),
            "aggregate starts with quiet counters"
        );
        // Cost axis: Σ per-node lifetimes (n1's default lifetime is 0).
        assert_eq!(r.node_ns, 2_000_000_000);
        assert!((r.node_seconds() - 2.0).abs() < f64::EPSILON);
        assert!(r.pools.is_empty(), "aggregate starts with no pools");
        // Empty fleets aggregate to zeros, not a division panic.
        let empty = ClusterReport::aggregate(0, vec![], 0, 0, vec![]);
        assert_eq!(empty.completed, 0);
        assert_eq!(empty.throughput_millirps, 0);
        assert_eq!(empty.node_ns, 0);
    }

    #[test]
    fn report_totals() {
        let mut r = RunReport::default();
        r.migrations.push(MigrationTimings {
            capture_ns: 5,
            ..Default::default()
        });
        r.migrations.push(MigrationTimings {
            restore_ns: 7,
            ..Default::default()
        });
        assert_eq!(r.total_migration_latency_ns(), 12);
    }
}
