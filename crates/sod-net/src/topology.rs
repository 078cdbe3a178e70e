//! Cluster topologies: a set of nodes and the directed links between them.

use std::collections::{HashMap, HashSet};

use crate::link::{Link, LinkSpec};

/// Directed links between `n` nodes. Links are created lazily from a
/// default spec; individual pairs can be overridden (e.g. one Wi-Fi device
/// in an otherwise Gigabit cluster). Pairs may additionally be *cut*
/// (partitioned) at runtime by the chaos layer: a cut pair still accepts
/// transfers — senders cannot observe the partition — but the simulator
/// drops the delivery at arrival time.
///
/// Link state is stored as one row per *source* node, indexed by
/// destination (`rows[from][to]`, `None` until first used): every transfer
/// finds its link with two bounds checks and no hashing. The override and
/// cut tables are consulted off that path — an override when a link is
/// first created, the cut set only under fault injection (and an empty
/// set answers without hashing).
#[derive(Clone, Debug)]
pub struct Topology {
    n: usize,
    default_spec: LinkSpec,
    overrides: HashMap<(usize, usize), LinkSpec>,
    rows: Vec<Vec<Option<Link>>>,
    cut: HashSet<(usize, usize)>,
}

impl Topology {
    /// All pairs use `default_spec`.
    pub fn uniform(n: usize, default_spec: LinkSpec) -> Self {
        Topology {
            n,
            default_spec,
            overrides: HashMap::new(),
            rows: vec![Vec::new(); n],
            cut: HashSet::new(),
        }
    }

    /// The paper's cluster: Gigabit Ethernet everywhere.
    pub fn gigabit_cluster(n: usize) -> Self {
        Topology::uniform(n, LinkSpec::gigabit())
    }

    /// A WAN-connected grid (the roaming experiment).
    pub fn wan_grid(n: usize) -> Self {
        Topology::uniform(n, LinkSpec::wan())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Add one node mid-run and return its id. The new node reaches every
    /// existing node over the default spec (links are created lazily).
    pub fn add_node(&mut self) -> usize {
        let id = self.n;
        self.n += 1;
        self.rows.push(Vec::new());
        id
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Override the link spec for both directions between `a` and `b`
    /// (e.g. attach a bandwidth-limited device).
    pub fn set_link(&mut self, a: usize, b: usize, spec: LinkSpec) {
        self.overrides.insert((a, b), spec);
        self.overrides.insert((b, a), spec);
        for (from, to) in [(a, b), (b, a)] {
            if let Some(link) = self.rows.get_mut(from).and_then(|row| row.get_mut(to)) {
                *link = None;
            }
        }
    }

    /// The directed link from `from` to `to` (created on first use).
    pub fn link_mut(&mut self, from: usize, to: usize) -> &mut Link {
        if from >= self.rows.len() {
            self.rows.resize_with(from + 1, Vec::new);
        }
        let row = &mut self.rows[from];
        if to >= row.len() {
            row.resize(to + 1, None);
        }
        row[to].get_or_insert_with(|| {
            let spec = self.overrides.get(&(from, to));
            Link::new(spec.copied().unwrap_or(self.default_spec))
        })
    }

    /// Submit a transfer; returns arrival time. `from == to` is a local
    /// delivery with a small loopback cost.
    pub fn transfer(&mut self, now: u64, from: usize, to: usize, bytes: u64) -> u64 {
        if from == to {
            return now + 1_000; // 1 µs loopback
        }
        self.link_mut(from, to).transfer(now, bytes)
    }

    /// Cut both directions between `a` and `b`: deliveries over the pair
    /// are dropped (at arrival) until [`Topology::heal`] undoes the cut.
    pub fn partition(&mut self, a: usize, b: usize) {
        self.cut.insert((a, b));
        self.cut.insert((b, a));
    }

    /// Undo a [`Topology::partition`] between `a` and `b`.
    pub fn heal(&mut self, a: usize, b: usize) {
        self.cut.remove(&(a, b));
        self.cut.remove(&(b, a));
    }

    /// Is the directed `from → to` pair currently partitioned?
    pub fn is_cut(&self, from: usize, to: usize) -> bool {
        self.cut.contains(&(from, to))
    }

    /// Total bytes carried across all links (conservation checks).
    pub fn total_bytes_carried(&self) -> u64 {
        let links = self.rows.iter().flatten().flatten();
        links.map(|l| l.bytes_carried).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MS;

    #[test]
    fn lazy_links_and_overrides() {
        let mut t = Topology::gigabit_cluster(3);
        t.set_link(0, 2, LinkSpec::wifi_kbps(128));
        let fast = t.transfer(0, 0, 1, 1000);
        let slow = t.transfer(0, 0, 2, 1000);
        assert!(slow > fast);
        // 1000 B at 128 kbps = 62.5 ms tx + 2 ms latency.
        assert_eq!(slow, 62_500_000 + 2 * MS);
    }

    #[test]
    fn loopback_is_cheap() {
        let mut t = Topology::gigabit_cluster(2);
        assert_eq!(t.transfer(10, 1, 1, 1 << 20), 10 + 1000);
    }

    #[test]
    fn directions_are_independent() {
        let mut t = Topology::gigabit_cluster(2);
        let a = t.transfer(0, 0, 1, 1_000_000);
        let b = t.transfer(0, 1, 0, 1_000_000);
        assert_eq!(a, b); // same spec, no shared queueing
        let a2 = t.transfer(0, 0, 1, 1_000_000);
        assert!(a2 > a); // same direction queues
    }

    #[test]
    fn partitions_cut_both_directions_and_heal() {
        let mut t = Topology::gigabit_cluster(3);
        assert!(!t.is_cut(0, 1));
        t.partition(0, 1);
        assert!(t.is_cut(0, 1));
        assert!(t.is_cut(1, 0));
        assert!(!t.is_cut(0, 2));
        // Senders cannot observe the cut: transfers still book time.
        let at = t.transfer(0, 0, 1, 1000);
        assert!(at > 0);
        t.heal(0, 1);
        assert!(!t.is_cut(0, 1));
        assert!(!t.is_cut(1, 0));
    }

    #[test]
    fn add_node_grows_the_topology() {
        let mut t = Topology::gigabit_cluster(2);
        t.set_link(0, 1, LinkSpec::wifi_kbps(128));
        let id = t.add_node();
        assert_eq!(id, 2);
        assert_eq!(t.len(), 3);
        assert_eq!(t.add_node(), 3);
        // The new node is reachable immediately over the default spec.
        let at = t.transfer(0, 0, 2, 1000);
        assert!(at > 0);
    }

    #[test]
    fn byte_conservation() {
        let mut t = Topology::gigabit_cluster(4);
        t.transfer(0, 0, 1, 100);
        t.transfer(0, 2, 3, 250);
        t.transfer(5, 1, 0, 50);
        assert_eq!(t.total_bytes_carried(), 400);
    }
}
