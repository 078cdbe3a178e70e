//! The relation suite over the scenario corpus (`tests/common/corpus.rs`).
//!
//! The suites in this directory run relations on rows by name, where a
//! row fact needs the report. This suite reads which (relation, row) pairs
//! they run out of their sources and runs every other pair, so every
//! relation runs on every row once. It also checks the corpus as a whole:
//! the digest file has one line per row, in order, and the rows together
//! deliver every `Msg` variant.

#[path = "common/corpus.rs"]
mod corpus;

use corpus::{committed, field, DIGESTS, MSGS, REGENERATE, ROWS};
use std::fs;

/// The functions that run relations on a row, and what each runs.
const CALLS: [(&str, &[&str]); 3] = [
    ("replay(", &["replay"]),
    ("reference(", &["reference"]),
    ("check(", &["replay", "reference"]),
];

/// Every (relation, row) pair the other suites that include the corpus
/// run. A call must name an existing row by a string literal, and no pair
/// may run twice.
fn claimed() -> Vec<(&'static str, String)> {
    let mut claimed = Vec::new();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests");
    for path in fs::read_dir(dir)
        .expect("tests/ lists")
        .map(|e| e.expect("entry").path())
    {
        let source = fs::read_to_string(&path).unwrap_or_default();
        if !source.contains("\nmod corpus;") || path.ends_with("corpus.rs") {
            continue;
        }
        for (call, relations) in CALLS {
            for (at, _) in source.match_indices(call) {
                let before = source[..at].chars().next_back().unwrap_or(' ');
                if before.is_alphanumeric() || "_:.".contains(before) {
                    continue;
                }
                let rest = source[at + call.len()..].strip_prefix('"');
                let name = rest.and_then(|r| Some(&r[..r.find('"')?]));
                let name =
                    name.unwrap_or_else(|| panic!("{path:?}: {call} names no row literally"));
                assert!(
                    ROWS.iter().any(|r| r.name == name),
                    "{call}{name:?}): no such row"
                );
                for &relation in relations {
                    let pair = (relation, name.to_string());
                    assert!(!claimed.contains(&pair), "{pair:?} runs twice");
                    claimed.push(pair);
                }
            }
        }
    }
    claimed
}

/// Run `relation` on every row no other suite runs it on.
fn unclaimed(relation: &str, run: fn(&str) -> sod::ScenarioReport) {
    let claimed = claimed();
    for row in ROWS {
        if !claimed.iter().any(|(r, n)| *r == relation && n == row.name) {
            run(row.name);
        }
    }
}

#[test]
fn every_other_row_replays_and_matches_its_digest() {
    unclaimed("replay", corpus::replay);
}

#[test]
fn every_other_row_matches_the_reference_vm() {
    unclaimed("reference", corpus::reference);
}

/// `tests/corpus_digests.txt` holds one line per row, in row order: a
/// missing, extra, orphan or reordered line fails here.
#[test]
fn every_row_has_one_digest_line() {
    let lines: Vec<&str> = DIGESTS
        .lines()
        .map(|l| l.split(' ').next().unwrap_or(""))
        .collect();
    let rows: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
    assert_eq!(
        lines, rows,
        "the digest file is out of step with ROWS: {REGENERATE}"
    );
}

/// The rows together deliver every `Msg` variant: each row's line records
/// the variants its replay delivered, and the replay pins the line.
#[test]
fn the_corpus_reaches_every_msg_variant() {
    let bits = |row: &corpus::Row| u32::from_str_radix(field(committed(row.name), "msgs"), 16);
    let reached = ROWS
        .iter()
        .fold(0, |acc, row| acc | bits(row).expect("msgs= is hex"));
    let missing: Vec<&str> = MSGS
        .split_whitespace()
        .enumerate()
        .filter_map(|(i, variant)| (reached & (1 << i) == 0).then_some(variant))
        .collect();
    assert!(missing.is_empty(), "no corpus row delivers {missing:?}");
}

/// Rewrite `tests/corpus_digests.txt` from fresh runs of every row.
#[test]
#[ignore = "rewrites tests/corpus_digests.txt"]
fn regenerate_corpus_digests() {
    let line = |row: &corpus::Row| {
        let (report, msgs) = corpus::stepped(row.name, corpus::scenario(row.name));
        corpus::digest_line(row, &report, msgs) + "\n"
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus_digests.txt");
    fs::write(path, ROWS.iter().map(line).collect::<String>()).expect("digest file writes");
}
