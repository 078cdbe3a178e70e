//! The engine's architecture rules that only its source text can state.
//!
//! The build states the rest. Privacy makes `protocol::home` and
//! `protocol::worker` the only movers of a home side and a worker phase,
//! `fault::Deadlines` the only reader of the armed recovery, and the token
//! a `MigrateNow` carries buildable by `SodSim::migrate` alone; the const
//! assertions beside `Msg`, a queue key, a thread, a worker session and a
//! heap entry bound their sizes; `crates/clippy.toml` and `interp.rs`'s
//! own lint attribute state the style rules. Each rule here reads the
//! files it governs, and first runs against a planted fixture that must
//! break it, so a pattern that rots into matching nothing fails rather
//! than passes. Std only, so it runs in plain `cargo test`.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// This file, wherever it sits: its fixtures are data, not uses.
const RULES: &str = file!();

/// The crates whose roots deny the six panic lints outside their tests.
const SYSTEM_CRATES: [&str; 5] = ["sod-vm", "sod-runtime", "sod-net", "sod-preprocess", "sod"];

const PANIC_LINTS: [&str; 6] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

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

/// The code lines of `text` before its first `#[cfg(test)]`.
fn system_code(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .map(code_of)
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The file at `rel` under the repo root.
fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Every `.rs` file under `dir` but this one, as (path, contents), in
/// path order.
fn sources(dir: &str) -> Vec<(String, String)> {
    let (mut files, mut dirs) = (Vec::new(), vec![dir.to_string()]);
    while let Some(dir) = dirs.pop() {
        let entries = fs::read_dir(root().join(&dir)).unwrap_or_else(|e| panic!("{dir}: {e}"));
        for entry in entries.flatten() {
            let path = format!("{dir}/{}", entry.file_name().to_string_lossy());
            if entry.path().is_dir() {
                dirs.push(path);
            } else if path.ends_with(".rs") && path != RULES {
                let text = read(&path);
                files.push((path, text));
            }
        }
    }
    files.sort();
    files
}

fn fixture(list: &[(&str, &str)]) -> Vec<(String, String)> {
    let own = |(p, t): &(&str, &str)| (p.to_string(), t.to_string());
    list.iter().map(own).collect()
}

/// Host time is measured in one place, the repo benchmark: nothing the
/// tests print may read a host clock, so their output stays the same bytes
/// on every run. `crates/clippy.toml` disallows the clock types under
/// `crates/`; the root package builds the benchmark, which reads them, so
/// its own sources and tests are read here. The lines that name one.
fn clock_reads(files: &[(String, String)]) -> Vec<String> {
    let mut hits = Vec::new();
    for (path, text) in files {
        for (n, line) in text.lines().enumerate() {
            if idents(code_of(line)).any(|id| id == "Instant" || id == "SystemTime") {
                hits.push(format!("{path}:{}", n + 1));
            }
        }
    }
    hits
}

#[test]
fn no_host_clock_in_the_root_package() {
    let plant = fixture(&[
        ("tests/t.rs", "use std::time::Instant;\n// SystemTime\n"),
        ("src/lib.rs", "let t = std::time::SystemTime::now();\n"),
    ]);
    assert_eq!(clock_reads(&plant), ["tests/t.rs:1", "src/lib.rs:1"]);

    let mut files = sources("src");
    files.extend(sources("tests"));
    assert!(files.iter().any(|(p, _)| p == "tests/corpus.rs"));
    assert_eq!(clock_reads(&files), Vec::<String>::new());
}

/// One call, one return: the window loop and the full path move the
/// window through the same `push_callee_frame` / `pop_frame`. The frame
/// pushes and pops of `interp.rs` outside its tests.
fn frame_moves(interp: &str) -> (usize, usize) {
    let count = |pat| system_code(interp).filter(|l| l.contains(pat)).count();
    (count("frames.push(Frame {"), count("frames.pop()"))
}

#[test]
fn interp_has_one_call_and_one_return() {
    let plant = "fn a() { frames.push(Frame { pc }); frames.pop(); }\n\
                 fn b() { frames.push(Frame { pc }); }\n\
                 // frames.pop()\n\
                 fn c() { frames.push(Frame { pc }); frames.pop(); }\n\
                 #[cfg(test)]\n\
                 fn t() { frames.pop(); }\n";
    assert_eq!(frame_moves(plant), (3, 2));

    // Two pushes (`push_restored` and `push_callee_frame`), one pop
    // (`pop_frame`): fewer means the spelling moved out from under the
    // count, and the rule must follow it.
    let interp = read("crates/sod-vm/src/interp.rs");
    assert_eq!(frame_moves(&interp), (2, 1));
}

/// The function a line of Rust opens, at the top level or one level in:
/// `fn name`, `pub fn name`, `pub(crate) fn name`.
fn opened_fn(line: &str) -> Option<&str> {
    let line = line.strip_prefix("    ").unwrap_or(line);
    let line = match line.strip_prefix("pub") {
        Some(rest) => rest.split_once(' ')?.1,
        None => line,
    };
    idents(line.strip_prefix("fn ")?).next()
}

/// A row's fused run is exact only where no slice can end inside it and
/// nothing watches a pc: the unwatched window loop. The functions of
/// `interp.rs` (outside its tests) that call `fused_op(`, and those that
/// read a row's `.fused` form.
fn fused_readers(interp: &str) -> (Vec<&str>, BTreeSet<&str>) {
    let (mut calls, mut readers) = (Vec::new(), BTreeSet::new());
    let mut current = "";
    for line in system_code(interp) {
        current = opened_fn(line).unwrap_or(current);
        if line.contains("fused_op(") {
            calls.push(current);
        }
        if line.contains(".fused") {
            readers.insert(current);
        }
    }
    (calls, readers)
}

#[test]
fn fused_runs_are_read_by_the_window_loop_alone() {
    let plant = "    fn window_loop() {\n        fused_op(row.fused);\n    }\n\
                 pub(crate) fn step() {\n    let f = row.fused; // fused_op(\n}\n\
                 #[cfg(test)]\nfn t() { fused_op(row.fused); }\n";
    let (calls, readers) = fused_readers(plant);
    assert_eq!(calls, ["window_loop"]);
    assert_eq!(readers, BTreeSet::from(["step", "window_loop"]));

    let interp = read("crates/sod-vm/src/interp.rs");
    let (calls, readers) = fused_readers(&interp);
    assert_eq!(calls, ["window_loop"], "fused_op( is called only there");
    assert_eq!(readers, BTreeSet::from(["window_loop"]), "fused forms read");
}

/// The migration protocol is two pure transition functions: it names no
/// cluster, VM, simulator, frame bytes or node. The names it uses.
fn engine_names(protocol: &str) -> BTreeSet<&str> {
    let banned = ["Cluster", "Vm", "SimCtx", "Bytes", "Node"];
    let code = protocol.lines().map(code_of);
    code.flat_map(idents)
        .filter(|id| banned.contains(id))
        .collect()
}

#[test]
fn the_protocol_names_no_cluster_vm_simulator_bytes_or_node() {
    let plant = "use super::Cluster;\n/// A Node\nfn f(vm: &sod_vm::Vm, n: NodeId) {}\n";
    assert_eq!(engine_names(plant), BTreeSet::from(["Cluster", "Vm"]));

    let protocol = read("crates/sod-runtime/src/engine/protocol.rs");
    assert!(protocol.contains("pub(super) fn home<S>("));
    assert_eq!(engine_names(&protocol), BTreeSet::new());
}

/// The lints `code` names as `clippy::name`.
fn clippy_lints(code: &str) -> impl Iterator<Item = &str> {
    code.split("clippy::")
        .skip(1)
        .filter_map(|rest| idents(rest).next())
}

/// Clippy is the panic gate only as wide as the crate roots that deny the
/// six lints: what a crate's root (`lib`) does not deny outside tests, and
/// every line of its sources (`files`) that allows or expects one back.
fn panic_gate_gaps(lib: &str, files: &[(String, String)]) -> Vec<String> {
    let roots = lib
        .lines()
        .filter(|l| l.starts_with("#![cfg_attr(not(test), deny("));
    let denied: Vec<&str> = roots.flat_map(clippy_lints).collect();
    let missing = PANIC_LINTS.iter().filter(|l| !denied.contains(l));
    let mut gaps: Vec<String> = missing.map(|l| l.to_string()).collect();
    for (path, text) in files {
        for (n, line) in text.lines().enumerate() {
            let code = code_of(line);
            let lifts = code.contains("allow(") || code.contains("expect(");
            if lifts && clippy_lints(code).any(|l| PANIC_LINTS.contains(&l)) {
                gaps.push(format!("{path}:{}", n + 1));
            }
        }
    }
    gaps
}

#[test]
fn the_five_system_crates_deny_the_six_panic_lints() {
    let lib = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\n\
               #![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]\n\
               #![cfg_attr(not(test), deny(clippy::unimplemented))]\n\
               // #![cfg_attr(not(test), deny(clippy::todo))]\n";
    let plant = fixture(&[
        (
            "crates/a/src/x.rs",
            "#[allow(clippy::unwrap_used)]\nfn f() {}\n",
        ),
        (
            "crates/a/src/y.rs",
            "#[allow(clippy::panic_in_result_fn)]\n",
        ),
        (
            "crates/a/src/z.rs",
            "#[expect(clippy::too_many_lines, clippy::panic)]\n",
        ),
    ]);
    let gaps = panic_gate_gaps(lib, &plant);
    assert_eq!(gaps, ["todo", "crates/a/src/x.rs:1", "crates/a/src/z.rs:1"]);

    for krate in SYSTEM_CRATES {
        let src = format!("crates/{krate}/src");
        let files = sources(&src);
        let lib = read(&format!("{src}/lib.rs"));
        let gaps = panic_gate_gaps(&lib, &files);
        assert!(gaps.is_empty(), "{krate}'s panic gate has gaps: {gaps:?}");
    }
}
