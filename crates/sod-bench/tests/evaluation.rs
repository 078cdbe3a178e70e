//! The committed evaluation is what a fresh run prints.
//!
//! `BENCH_tables.txt` is `tables` with no names: every table of
//! [`sod_bench::TABLES`] in order, each followed by a blank line. Every
//! figure in it is virtual time or a count, so a fresh render equals the
//! committed bytes on every host, debug or release. One test per table, so
//! they run in parallel and a moved figure names its table. A change that
//! moves a figure commits the regenerated file with it.

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
