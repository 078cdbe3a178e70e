//! The encode-once wire path is invisible, under the test names this suite
//! has long had. The byte counts, faults, percentiles and makespans the
//! arithmetic accounting produced before the codec are on the rows' lines
//! in `tests/corpus_digests.txt` (`sent`, `lost` and `acc` as
//! state/class/object, `faults`, `p50`, `p99`, `makespan`), which the
//! replay relation pins every run to.

#[path = "common/corpus.rs"]
mod corpus;

use corpus::{check, committed, counts, reference};

/// Every shipped state byte is accounted by a restore or credited as
/// lost, under every code-shipping policy, clean and lossy.
#[test]
fn fib_fleet_metrics_match_precodec_engine() {
    reference("fleet_lossy");
    for name in [
        "shipping_top",
        "shipping_always",
        "shipping_reachable",
        "shipping_never",
        "fleet_lossy",
    ] {
        let [sent, lost, acc] = ["sent", "lost", "acc"].map(|key| counts(name, key)[0]);
        assert_eq!(sent, acc + lost, "{name}: state bytes unbalanced");
    }
}

/// Object faults and flushes across fetch policies, clean and lossy. The
/// closure here is one object, so deep prefetch fetches exactly the
/// shallow set: the same report.
#[test]
fn object_fleet_metrics_match_precodec_engine() {
    check("objects_shallow");
    check("objects_lossy");
    let rest = |name| committed(name).split_once(' ').map(|(_, rest)| rest);
    assert_eq!(rest("objects_shallow"), rest("objects_deep"));
}

/// Buffer reuse never leaks into observable state: a run and its rerun in
/// one process (cold pool, then warm) are `==`.
#[test]
fn pooled_runs_are_reproducible() {
    check("objects_deep");
}
