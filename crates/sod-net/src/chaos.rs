//! Deterministic fault injection: scheduled crashes, partitions, and
//! seeded message loss.
//!
//! A [`ChaosPlan`] is a declarative schedule of faults — node crashes
//! (with optional restart), link partitions/heals, and per-link loss
//! probabilities — plus a seed. The plan compiles into a [`ChaosState`]
//! that the [`Sim`](crate::sim::Sim) consults at every delivery:
//! scheduled actions fire when virtual time reaches them, and each
//! at-risk delivery draws from a private SplitMix64 stream to decide
//! whether the message is lost. Because the simulator delivers events in
//! one total order, the RNG draws — and hence every drop — replay
//! bit-identically from the seed.
//!
//! The chaos layer only *classifies* deliveries; the consequences (failed
//! programs, retries, lost-byte accounting) live in the world's
//! [`World::on_dropped`](crate::sim::World::on_dropped) and
//! [`World::on_chaos`](crate::sim::World::on_chaos) hooks.

use std::collections::HashMap;

/// One fault, applied when virtual time reaches its schedule point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChaosAction {
    /// The node stops draining events: every message (and timer) addressed
    /// to it is dropped until a matching [`ChaosAction::Restart`].
    Crash { node: usize },
    /// The node comes back up (warm restart: the world keeps its state).
    Restart { node: usize },
    /// Both directions between `a` and `b` drop every message.
    Partition { a: usize, b: usize },
    /// Undo a [`ChaosAction::Partition`] between `a` and `b`.
    Heal { a: usize, b: usize },
}

/// A scheduled fault: `action` fires once virtual time reaches `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosEntry {
    pub at: u64,
    pub action: ChaosAction,
}

/// Why a delivery was suppressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The destination node is crashed.
    NodeDown,
    /// The (src, dst) link is partitioned.
    Partitioned,
    /// The seeded per-link loss draw fired.
    Loss,
}

/// A declarative fault schedule. Build one with the fluent methods, hand
/// it to the simulator (via `Sim::set_chaos` or the scenario builder),
/// and every run replays the identical fault sequence from the seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosPlan {
    entries: Vec<ChaosEntry>,
    loss_permille: u32,
    link_loss: HashMap<(usize, usize), u32>,
    seed: u64,
}

impl ChaosPlan {
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Seed for the loss stream (and for [`ChaosPlan::scatter_crashes`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Crash `node` at virtual time `at`.
    pub fn crash_at(mut self, at: u64, node: usize) -> Self {
        self.entries.push(ChaosEntry {
            at,
            action: ChaosAction::Crash { node },
        });
        self
    }

    /// Restart `node` at virtual time `at`.
    pub fn restart_at(mut self, at: u64, node: usize) -> Self {
        self.entries.push(ChaosEntry {
            at,
            action: ChaosAction::Restart { node },
        });
        self
    }

    /// Partition the `a`↔`b` link (both directions) at virtual time `at`.
    pub fn partition_at(mut self, at: u64, a: usize, b: usize) -> Self {
        self.entries.push(ChaosEntry {
            at,
            action: ChaosAction::Partition { a, b },
        });
        self
    }

    /// Heal the `a`↔`b` partition at virtual time `at`.
    pub fn heal_at(mut self, at: u64, a: usize, b: usize) -> Self {
        self.entries.push(ChaosEntry {
            at,
            action: ChaosAction::Heal { a, b },
        });
        self
    }

    /// Default loss probability for every inter-node delivery, in
    /// permille (50 = 5%). Loopback/timer deliveries never draw.
    pub fn loss_permille(mut self, permille: u32) -> Self {
        self.loss_permille = permille.min(1000);
        self
    }

    /// Override the loss probability for the directed `src → dst` link.
    pub fn link_loss_permille(mut self, src: usize, dst: usize, permille: u32) -> Self {
        self.link_loss.insert((src, dst), permille.min(1000));
        self
    }

    /// Scatter `count` crash/restart pairs over `nodes` nodes at
    /// seeded-random points inside `[0, window_ns)` — the "random chaos"
    /// half of the ISSUE's fixed-or-seeded schedule contract. Each crash
    /// restarts half a window later, so long fleets see nodes flap.
    pub fn scatter_crashes(mut self, count: usize, nodes: usize, window_ns: u64) -> Self {
        if nodes == 0 || window_ns == 0 {
            return self;
        }
        let mut rng = SplitMix64::new(self.seed ^ 0x5ca7_7e2d);
        for _ in 0..count {
            let node = (rng.next_u64() % nodes as u64) as usize;
            let at = rng.next_u64() % window_ns;
            self = self.crash_at(at, node).restart_at(at + window_ns / 2, node);
        }
        self
    }

    /// Is `node` scheduled to be crashed (and not yet restarted) at
    /// virtual time `t`? Replays the crash/restart schedule up to and
    /// including `t` — the same stable time-then-insertion order
    /// [`ChaosPlan::build`] compiles — so placement logic can avoid homing
    /// work on a node that the plan has already taken down.
    pub fn is_down_at(&self, node: usize, t: u64) -> bool {
        let mut entries = self.entries.clone();
        entries.sort_by_key(|e| e.at);
        let mut down = false;
        for e in entries.iter().take_while(|e| e.at <= t) {
            match e.action {
                ChaosAction::Crash { node: n } if n == node => down = true,
                ChaosAction::Restart { node: n } if n == node => down = false,
                _ => {}
            }
        }
        down
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.loss_permille == 0 && self.link_loss.is_empty()
    }

    /// The scheduled entries, in insertion order.
    pub fn entries(&self) -> &[ChaosEntry] {
        &self.entries
    }

    /// Compile the plan into the runtime state the simulator consults.
    pub fn build(&self, nodes: usize) -> ChaosState {
        let mut entries = self.entries.clone();
        // Stable by time: same-instant entries keep insertion order, so a
        // plan is replayed identically however it was built.
        entries.sort_by_key(|e| e.at);
        ChaosState {
            entries,
            cursor: 0,
            down: vec![false; nodes],
            loss_permille: self.loss_permille,
            link_loss: self.link_loss.clone(),
            rng: SplitMix64::new(self.seed),
        }
    }
}

/// The live chaos machinery inside a running simulation: the sorted fault
/// schedule with a cursor, per-node down flags, and the seeded loss
/// stream. Owned by the [`Sim`](crate::sim::Sim).
#[derive(Clone, Debug)]
pub struct ChaosState {
    entries: Vec<ChaosEntry>,
    cursor: usize,
    down: Vec<bool>,
    loss_permille: u32,
    link_loss: HashMap<(usize, usize), u32>,
    rng: SplitMix64,
}

impl ChaosState {
    /// Pop the next scheduled action due at or before `now`, updating the
    /// internal down-flags. The simulator applies topology effects and
    /// notifies the world; call in a loop until `None`.
    pub fn pop_due(&mut self, now: u64) -> Option<ChaosAction> {
        let entry = *self.entries.get(self.cursor)?;
        if entry.at > now {
            return None;
        }
        self.cursor += 1;
        match entry.action {
            ChaosAction::Crash { node } => self.set_down(node, true),
            ChaosAction::Restart { node } => self.set_down(node, false),
            ChaosAction::Partition { .. } | ChaosAction::Heal { .. } => {}
        }
        Some(entry.action)
    }

    /// Take `node` down now, as a scheduled [`ChaosAction::Crash`] would.
    pub(crate) fn crash(&mut self, node: usize) {
        self.set_down(node, true);
    }

    fn set_down(&mut self, node: usize, down: bool) {
        if node >= self.down.len() {
            self.down.resize(node + 1, false);
        }
        self.down[node] = down;
    }

    /// Is `node` currently crashed?
    pub fn is_down(&self, node: usize) -> bool {
        self.down.get(node).copied().unwrap_or(false)
    }

    /// Decide the fate of a delivery from `src` to `dst` (`is_cut` is the
    /// topology's partition verdict for the pair). Draws from the loss
    /// stream only for inter-node deliveries on lossy links, so the
    /// stream is a pure function of the delivery order.
    pub fn drop_reason(&mut self, src: usize, dst: usize, is_cut: bool) -> Option<DropReason> {
        if self.is_down(dst) {
            return Some(DropReason::NodeDown);
        }
        if src == dst {
            return None; // timers and loopback never traverse a link
        }
        if is_cut {
            return Some(DropReason::Partitioned);
        }
        let permille = self
            .link_loss
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.loss_permille) as u64;
        if permille > 0 && self.rng.next_u64() % 1000 < permille {
            return Some(DropReason::Loss);
        }
        None
    }
}

/// SplitMix64 — the same tiny generator the test-runner shim uses, kept
/// private here so sod-net stays dependency-free. Statistically fine for
/// loss draws and fully deterministic from the seed.
#[derive(Clone, Debug)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_fire_in_time_order_with_stable_ties() {
        let plan = ChaosPlan::new()
            .crash_at(100, 1)
            .partition_at(50, 0, 2)
            .restart_at(100, 1); // same instant as the crash: insertion order
        let mut st = plan.build(3);
        assert_eq!(st.pop_due(40), None);
        assert_eq!(st.pop_due(60), Some(ChaosAction::Partition { a: 0, b: 2 }));
        assert_eq!(st.pop_due(60), None);
        assert_eq!(st.pop_due(100), Some(ChaosAction::Crash { node: 1 }));
        assert!(st.is_down(1));
        assert_eq!(st.pop_due(100), Some(ChaosAction::Restart { node: 1 }));
        assert!(!st.is_down(1));
        assert_eq!(st.pop_due(u64::MAX), None);
    }

    #[test]
    fn down_nodes_drop_everything_including_timers() {
        let mut st = ChaosPlan::new().crash_at(0, 2).build(3);
        st.pop_due(0);
        assert_eq!(st.drop_reason(0, 2, false), Some(DropReason::NodeDown));
        assert_eq!(st.drop_reason(2, 2, false), Some(DropReason::NodeDown));
        assert_eq!(
            st.drop_reason(2, 0, false),
            None,
            "in-flight from a dead node still lands"
        );
    }

    #[test]
    fn partitions_cut_only_inter_node_traffic() {
        let mut st = ChaosPlan::new().build(2);
        assert_eq!(st.drop_reason(0, 1, true), Some(DropReason::Partitioned));
        assert_eq!(st.drop_reason(1, 1, true), None, "loopback ignores cuts");
    }

    #[test]
    fn loss_stream_replays_from_the_seed() {
        let draw = |seed: u64| {
            let mut st = ChaosPlan::new().seed(seed).loss_permille(500).build(2);
            (0..64)
                .map(|_| st.drop_reason(0, 1, false).is_some())
                .collect::<Vec<bool>>()
        };
        assert_eq!(draw(7), draw(7), "same seed must replay bit-identically");
        assert_ne!(draw(7), draw(8), "different seeds must diverge");
        assert!(draw(7).iter().any(|&d| d), "50% loss must drop something");
        assert!(!draw(7).iter().all(|&d| d), "…but not everything");
    }

    #[test]
    fn link_overrides_beat_the_default_and_zero_loss_never_draws() {
        let mut st = ChaosPlan::new()
            .loss_permille(1000)
            .link_loss_permille(0, 1, 0)
            .build(3);
        for _ in 0..32 {
            assert_eq!(st.drop_reason(0, 1, false), None);
            assert_eq!(st.drop_reason(0, 2, false), Some(DropReason::Loss));
        }
    }

    #[test]
    fn scatter_is_deterministic_and_bounded() {
        let a = ChaosPlan::new().seed(3).scatter_crashes(4, 8, 1_000_000);
        let b = ChaosPlan::new().seed(3).scatter_crashes(4, 8, 1_000_000);
        assert_eq!(a, b);
        assert_eq!(a.entries().len(), 8, "each crash pairs with a restart");
        for e in a.entries() {
            match e.action {
                ChaosAction::Crash { node } | ChaosAction::Restart { node } => {
                    assert!(node < 8);
                }
                _ => panic!("scatter only crashes/restarts"),
            }
        }
        let c = ChaosPlan::new().seed(4).scatter_crashes(4, 8, 1_000_000);
        assert_ne!(a, c, "the scatter must follow the seed");
    }

    #[test]
    fn is_down_at_replays_the_crash_schedule() {
        let plan = ChaosPlan::new()
            .restart_at(300, 1) // out of order on purpose: the query sorts
            .crash_at(100, 1)
            .crash_at(200, 0);
        assert!(!plan.is_down_at(1, 99), "before the crash");
        assert!(plan.is_down_at(1, 100), "at the crash instant");
        assert!(plan.is_down_at(1, 299), "inside the down window");
        assert!(!plan.is_down_at(1, 300), "restart lifts the crash");
        assert!(plan.is_down_at(0, 500), "never restarted: down forever");
        assert!(!plan.is_down_at(2, 500), "untouched node is up");
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = ChaosPlan::new();
        assert!(plan.is_empty());
        let mut st = plan.build(4);
        assert_eq!(st.pop_due(u64::MAX), None);
        assert_eq!(st.drop_reason(0, 1, false), None);
        assert!(!ChaosPlan::new().loss_permille(1).is_empty());
    }
}
