//! No `pub` item lives only for its own unit tests.
//!
//! Walks `crates/`, `src/`, `tests/` and `examples/` (skipping `target/`
//! and `crates/shims/`) and, for every `pub` fn, struct, enum, const, type,
//! trait or static defined under `crates/*/src`, looks for its name as an
//! identifier anywhere else. An item is dead when its name appears only
//!
//! - on its definition line,
//! - on `use` / `pub use` lines,
//! - in `//` comments (doc comments included), or
//! - in its own file after that file's first `#[cfg(test)]`.
//!
//! A `cost_table!` invocation generates its rows' `const`s, so the audit
//! reads each row's name as a definition, and the table itself (one row's
//! cell naming another) as no use: a row that no path charges is flagged.
//!
//! The match is by name, so a reference to a same-named item elsewhere
//! keeps an item alive: the audit misses some dead code but flags nothing
//! a system path, test or example reaches. Std only, so it runs in plain
//! `cargo test`.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;

/// Why a `MethodBuilder` mnemonic with no caller stays.
const MNEMONIC: &str =
    "MethodBuilder mnemonic: the builder is the one authoring surface for every Instr the VM runs";

/// Items the audit would flag that stay on purpose, each with its reason.
/// Entries may only be removed.
const ALLOWED: [(&str, &str); 5] = [
    ("dup", MNEMONIC),
    ("neg", MNEMONIC),
    ("bxor", MNEMONIC),
    ("ifnonnull", MNEMONIC),
    ("throw_kind", MNEMONIC),
];

const ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// This file, wherever it sits: the names in `ALLOWED` and the fixtures
/// are data, not uses.
const AUDIT: &str = file!();

/// A `pub` item that nothing outside its own unit tests names.
#[derive(Debug, PartialEq)]
struct Dead {
    name: String,
    file: String,
    line: usize,
}

/// The identifiers of `line`, in order.
fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// `line` without its `//` comment; a `//` inside a string literal stays.
fn code_of(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            _ if escaped => escaped = false,
            b'\\' if in_str => escaped = true,
            b'"' => in_str = !in_str,
            b'/' if !in_str && bytes.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The name a `cost_table!` row on `code` defines, if it is one
/// (`NAME: Unit { cells }, path, anchor;`).
fn row_name(code: &str) -> Option<&str> {
    let (name, _) = code.trim().split_once(':')?;
    let upper = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
    (!name.is_empty() && name.chars().all(upper)).then_some(name)
}

/// Whether `code` starts a `use` declaration, re-exports included.
fn is_use(code: &str) -> bool {
    let head = code.trim_start();
    let head = match head.strip_prefix("pub") {
        Some(rest) if rest.starts_with('(') => rest.split_once(')').map_or(rest, |(_, r)| r),
        Some(rest) => rest,
        None => head,
    };
    head.trim_start().starts_with("use ")
}

/// The name a `pub` item definition on `code` introduces, if it is one.
fn defined_name(code: &str) -> Option<&str> {
    let mut words = idents(code.trim_start().strip_prefix("pub ")?);
    loop {
        match words.next()? {
            "fn" | "struct" | "enum" | "type" | "trait" => return words.next(),
            "const" | "static" => match words.next()? {
                "fn" | "mut" => return words.next(),
                "unsafe" | "async" | "extern" | "C" => continue,
                name => return Some(name),
            },
            "unsafe" | "async" | "extern" | "C" => continue,
            _ => return None,
        }
    }
}

/// The dead `pub` items among `files` (path relative to the repo root with
/// `/` separators, contents). Definitions count only under `crates/*/src`.
fn dead_items(files: &[(String, String)]) -> Vec<Dead> {
    let mut defs = Vec::new();
    // Names mentioned outside the exempt places.
    let mut used = HashSet::new();
    // Names mentioned in a test tail, with the files whose tails they are
    // in: they count for every file but the defining one.
    let mut tail_uses: HashMap<&str, Vec<&str>> = HashMap::new();
    for (path, text) in files {
        let is_src = path.starts_with("crates/") && path.split('/').nth(2) == Some("src");
        let (mut in_use, mut in_tail, mut in_table) = (false, false, false);
        for (n, line) in text.lines().enumerate() {
            in_tail |= line.trim() == "#[cfg(test)]";
            let code = code_of(line);
            if in_tail {
                for id in idents(code) {
                    tail_uses.entry(id).or_default().push(path);
                }
                continue;
            }
            if in_table || code.starts_with("cost_table! {") {
                in_table = code.trim_end() != "}";
                if let (Some(name), true) = (row_name(code), is_src) {
                    defs.push((name, path, n + 1));
                }
                continue;
            }
            in_use |= is_use(code);
            if in_use {
                in_use = !code.contains(';');
                continue;
            }
            let def = defined_name(code);
            if let (Some(name), true) = (def, is_src) {
                defs.push((name, path, n + 1));
            }
            used.extend(idents(code).filter(|id| Some(*id) != def));
        }
    }
    defs.into_iter()
        .filter(|(name, path, _)| {
            !used.contains(name)
                && tail_uses
                    .get(name)
                    .is_none_or(|paths| paths.iter().all(|p| p == path))
        })
        .map(|(name, path, line)| Dead {
            name: name.to_string(),
            file: path.clone(),
            line,
        })
        .collect()
}

/// Every `.rs` file under `dir` but this one, skipping `target/` and
/// `crates/shims/`.
fn collect(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let rel = path.strip_prefix(root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            if !(rel.ends_with("/target") || rel == "crates/shims") {
                collect(root, &path, out);
            }
        } else if rel.ends_with(".rs") && rel != AUDIT {
            let text = fs::read_to_string(&path).expect("read source file");
            out.push((rel, text));
        }
    }
}

#[test]
fn no_pub_item_lives_only_for_its_own_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ROOTS {
        collect(root, &root.join(dir), &mut files);
    }
    assert!(
        files.iter().any(|(p, _)| p == "crates/sod-vm/src/lib.rs"),
        "the walk must reach the crates"
    );
    // Audited alone, the cost table's file leaves its rows unpaid: the
    // walk reads them as definitions, not as a test tail.
    let costs = files
        .iter()
        .filter(|(p, _)| p == "crates/sod-vm/src/costs.rs");
    let rows = dead_items(&costs.cloned().collect::<Vec<_>>());
    assert!(
        rows.iter().any(|d| d.name == "ALLOC"),
        "no cost table rows read"
    );
    let dead = dead_items(&files);
    let flagged: Vec<_> = dead
        .iter()
        .filter(|d| !ALLOWED.iter().any(|(name, _)| *name == d.name))
        .map(|d| format!("{}:{}: `{}`", d.file, d.line, d.name))
        .collect();
    assert!(
        flagged.is_empty(),
        "pub items that only their own unit tests use (delete them, or move \
         them into the test module):\n  {}",
        flagged.join("\n  ")
    );
    // The allow-list may only shrink: an entry the audit no longer flags
    // has become live or gone and must be dropped.
    let stale: Vec<_> = ALLOWED
        .iter()
        .filter(|(name, _)| !dead.iter().any(|d| d.name == *name))
        .map(|(name, _)| *name)
        .collect();
    assert!(
        stale.is_empty(),
        "allow-list entries no longer flagged: {stale:?}"
    );
}

#[cfg(test)]
mod scanner {
    use super::*;

    fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect()
    }

    fn names(files: &[(String, String)]) -> Vec<String> {
        dead_items(files).into_iter().map(|d| d.name).collect()
    }

    const LIB: &str = "pub fn lonely() {}\n\
                       pub fn shared() {}\n\
                       #[cfg(test)]\n\
                       mod tests {\n    \
                           fn t() { super::lonely(); super::shared(); }\n\
                       }\n";

    #[test]
    fn an_item_named_only_in_its_own_test_tail_is_flagged() {
        let fs = files(&[
            ("crates/a/src/lib.rs", LIB),
            ("crates/b/src/lib.rs", "fn f() { a::shared(); }\n"),
        ]);
        assert_eq!(
            dead_items(&fs),
            vec![Dead {
                name: "lonely".into(),
                file: "crates/a/src/lib.rs".into(),
                line: 1,
            }]
        );
    }

    #[test]
    fn an_item_named_in_another_files_tests_is_live() {
        let other = "#[cfg(test)]\nmod tests { fn t() { a::lonely(); a::shared(); } }\n";
        let fs = files(&[("crates/a/src/lib.rs", LIB), ("crates/b/src/lib.rs", other)]);
        assert!(names(&fs).is_empty());
        let fs = files(&[("crates/a/src/lib.rs", LIB), ("tests/t.rs", other)]);
        assert!(names(&fs).is_empty());
    }

    #[test]
    fn use_lines_and_comments_are_not_references() {
        let user = "pub use a::{\n    lonely,\n    shared,\n};\n\
                    /// Calls [`lonely`] and `shared`.\n\
                    fn f() {} // lonely\n\
                    fn g() { let s = \"//\"; shared(); }\n";
        let fs = files(&[("crates/a/src/lib.rs", LIB), ("crates/b/src/lib.rs", user)]);
        assert_eq!(names(&fs), ["lonely"]);
    }

    #[test]
    fn definitions_outside_crate_sources_and_in_test_tails_are_not_audited() {
        let fs = files(&[
            ("tests/t.rs", "pub fn helper() {}\n"),
            ("crates/a/tests/t.rs", "pub const K: u8 = 1;\n"),
            (
                "crates/a/src/lib.rs",
                "#[cfg(test)]\nmod tests { pub fn h() {} }\n",
            ),
        ]);
        assert!(names(&fs).is_empty());
    }

    /// A cost table whose second row only its own tests and the first
    /// row's cell name.
    const TABLE: &str = "cost_table! {\n    \
                             /// Charged by a path.\n    \
                             PAID: Ns { fixed: 1 }, Sodee, \"Table I\";\n    \
                             /// Charged by no path.\n    \
                             UNPAID: NsPerByte { rate: PAID.fixed }, Sodee, \"Table I\";\n\
                         }\n\
                         #[cfg(test)]\n\
                         mod tests { fn t() { super::UNPAID.of(1); } }\n";

    #[test]
    fn a_cost_table_row_no_path_charges_is_flagged() {
        let payer = "fn f() -> u64 { a::costs::PAID.fixed }\n";
        let fs = files(&[
            ("crates/a/src/costs.rs", TABLE),
            ("crates/b/src/lib.rs", payer),
        ]);
        assert_eq!(
            dead_items(&fs),
            vec![Dead {
                name: "UNPAID".into(),
                file: "crates/a/src/costs.rs".into(),
                line: 5,
            }]
        );
        // A row's cell naming another row is part of the table, not a use.
        let fs = files(&[("crates/a/src/costs.rs", TABLE)]);
        assert_eq!(names(&fs), ["PAID", "UNPAID"]);
    }

    #[test]
    fn every_item_kind_is_recognised() {
        for (code, name) in [
            ("pub fn f(x: u8) {", "f"),
            ("pub const fn g() {", "g"),
            ("pub unsafe fn h() {", "h"),
            ("pub struct S<T> {", "S"),
            ("pub enum E {", "E"),
            ("pub const K: u8 = 1;", "K"),
            ("pub static mut M: u8 = 1;", "M"),
            ("pub static N: u8 = 1;", "N"),
            ("pub type T = u8;", "T"),
            ("pub trait Tr {", "Tr"),
        ] {
            assert_eq!(defined_name(code), Some(name), "{code}");
        }
        for code in [
            "pub mod m;",
            "pub(crate) fn f() {}",
            "pub x: u8,",
            "fn f() {}",
        ] {
            assert_eq!(defined_name(code), None, "{code}");
        }
    }
}
