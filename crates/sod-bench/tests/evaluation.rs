//! The committed evaluation is what a fresh run prints.
//!
//! `BENCH_tables.txt` is `tables` with no names: every table of
//! [`sod_bench::TABLES`] in order, each followed by a blank line. Every
//! figure in it is virtual time or a count, so a fresh render equals the
//! committed bytes on every host, debug or release. One test per table, so
//! they run in parallel and a moved figure names its table. A change that
//! moves a figure commits the regenerated file with it.

use sod_bench::elastic::{ELASTIC_FLEET, ELASTIC_MAX};
use sod_bench::TABLES;

const COMMITTED: &str = include_str!("../../../BENCH_tables.txt");

const REGENERATE: &str = "cargo run --release -p sod-bench --bin tables > BENCH_tables.txt";

/// Render table `name` and compare it, and the blank line `tables`
/// prints after it, with the committed lines from its first line on; on a
/// mismatch, panic with the first line that differs.
fn matches_committed(name: &str) {
    let table = TABLES.iter().find(|(n, _)| *n == name);
    let (_, render) = table.unwrap_or_else(|| panic!("no table named {name:?}"));
    let fresh = render() + "\n";
    let fresh: Vec<&str> = fresh.lines().collect();
    let committed: Vec<&str> = COMMITTED.lines().collect();
    // Every table's first line is its title, printed once.
    let start = committed.iter().position(|l| Some(l) == fresh.first());
    let Some(at) =
        (0..fresh.len()).find(|&i| start.and_then(|s| committed.get(s + i)) != fresh.get(i))
    else {
        return;
    };
    let committed_line = match start {
        Some(s) => match committed.get(s + at) {
            Some(old) => format!("line {} is\n  {old:?}", s + at + 1),
            None => format!("ends at line {}", committed.len()),
        },
        None => "has no line".to_string(),
    };
    panic!(
        "table {name:?} moved: BENCH_tables.txt {committed_line}\nbut the table prints\n  {:?}\n\
         If the change is meant, regenerate: {REGENERATE}",
        fresh[at],
    );
}

/// One `#[test]` per table, and a check that they cover [`TABLES`].
macro_rules! evaluation {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                matches_committed(stringify!($name));
            }
        )*

        #[test]
        fn every_table_has_a_test() {
            let tested = [$(stringify!($name)),*];
            let tables: Vec<&str> = TABLES.iter().map(|(n, _)| *n).collect();
            assert_eq!(tested.as_slice(), tables);
        }
    };
}

evaluation!(
    table1, table2_3, table4, table5, table6, table7, fig1, roaming, scale, codecache, chaos,
    elastic,
);

/// A committed TABLE ELASTIC row: its config's name and the columns the
/// dominance test reads.
struct CommittedRow<'a> {
    config: &'a str,
    correct: usize,
    spawns: u64,
    p99_latency_ns: u64,
    node_ns: u64,
}

/// TABLE ELASTIC's bursty rows at cold start 0, as committed (the
/// `elastic` test holds them equal to a fresh render).
fn bursty_cold_start_0_rows() -> Vec<CommittedRow<'static>> {
    let title = COMMITTED
        .find("TABLE ELASTIC.")
        .expect("TABLE ELASTIC is committed");
    let lines = COMMITTED[title..].lines().skip(2);
    let cells = lines.map(|l| l.split_whitespace().collect::<Vec<&str>>());
    let cells = cells.take_while(|c| !c.is_empty());
    let number = |c: &[&str], i: usize| c[i].parse::<u64>().expect("a count");
    cells
        .filter(|c| c[1] == "bursty" && c[2] == "0")
        .map(|c| CommittedRow {
            config: c[0],
            correct: number(&c, 5) as usize,
            spawns: number(&c, 7),
            p99_latency_ns: number(&c, 11),
            node_ns: number(&c, 13),
        })
        .collect()
}

/// `a` dominates `b` on the p99-vs-node-seconds frontier: at least as good
/// on both axes, strictly better on one.
fn dominates(a: &CommittedRow, b: &CommittedRow) -> bool {
    let (ap, bp) = (a.p99_latency_ns, b.p99_latency_ns);
    let (an, bn) = (a.node_ns, b.node_ns);
    ap <= bp && an <= bn && (ap < bp || an < bn)
}

/// The headline claim: under the shipped bursty cell (cold start 0), at
/// least one autoscaling policy dominates the overprovisioned fixed
/// baseline — the same tail latency as a fleet that pays for
/// [`ELASTIC_MAX`] members the whole run, at strictly fewer node-seconds,
/// because the pool drains between bursts. Against the starved 1-member
/// baseline the same policies halve the p99 (at higher cost — the other
/// end of the frontier).
#[test]
fn autoscaling_dominates_the_overprovisioned_fixed_baseline() {
    let rows = bursty_cold_start_0_rows();
    let row = |name: &str| rows.iter().find(|r| r.config == name).expect("a row");
    let (fixed, starved) = (row(&format!("fixed-{ELASTIC_MAX}")), row("fixed-1"));
    let auto_rows: Vec<&CommittedRow> = rows
        .iter()
        .filter(|r| !r.config.starts_with("fixed-"))
        .collect();
    assert!(
        auto_rows.iter().any(|r| dominates(r, fixed)),
        "no policy dominates fixed-{ELASTIC_MAX}: fixed p99={} node_ns={}, policies={:?}",
        fixed.p99_latency_ns,
        fixed.node_ns,
        auto_rows
            .iter()
            .map(|r| (r.config, r.p99_latency_ns, r.node_ns))
            .collect::<Vec<_>>(),
    );
    // The dominating policies also sit strictly inside the starved
    // baseline's tail: elasticity buys latency, not just cost.
    assert!(auto_rows
        .iter()
        .filter(|r| dominates(r, fixed))
        .all(|r| r.p99_latency_ns < starved.p99_latency_ns));
    // Everyone still serves the full fleet correctly.
    assert_eq!(fixed.correct, ELASTIC_FLEET);
    for r in &auto_rows {
        assert!(r.correct == ELASTIC_FLEET, "{}", r.config);
        assert!(r.spawns > 0, "{} never scaled", r.config);
    }
}
