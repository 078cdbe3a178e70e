//! The encode-once wire path is invisible, under the test names this suite
//! has long had. The byte counts, faults, percentiles and makespans the
//! arithmetic accounting produced before the codec are on the rows' lines
//! in `tests/corpus_digests.txt` (`sent`, `lost` and `acc` as
//! state/class/object, `faults`, `p50`, `p99`, `makespan`), which the
//! replay relation pins every run to.

use crate::{committed, counts, report};

/// Every shipped state byte is accounted by a restore or credited as
/// lost, under every code-shipping policy, clean and lossy.
#[test]
fn fib_fleet_metrics_match_precodec_engine() {
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
    let rest = |name| committed(name).split_once(' ').map(|(_, rest)| rest);
    assert_eq!(rest("objects_shallow"), rest("objects_deep"));
}

/// Buffer reuse never leaks into observable state: the corpus's replay
/// relation reruns this row `==`, and every program computes its value.
#[test]
fn pooled_runs_are_reproducible() {
    let r = report("objects_deep");
    assert_eq!(r.cluster.completed, 12);
    assert!(r.programs().iter().all(|p| p.report.result == Some(1_999)));
}
