//! # sod-bench — the evaluation harness
//!
//! One function per table/figure of the paper's §IV; each returns the
//! formatted table so binaries print it and tests assert on its shape.
//! `bin/tables` regenerates the full evaluation (committed as
//! `BENCH_tables.txt`); the sweep binaries `scale` and `elastic` also
//! emit their committed `BENCH_*.json` summaries through [`sweep_main`]. Every figure is virtual time or a count: nothing here
//! reads a host clock, so a run prints the same bytes on every host, and
//! host time is the repo benchmark's (`examples/benchmark/`).

use std::process::ExitCode;

pub mod chaos;
pub mod codecache;
pub mod elastic;
pub mod scale;
pub mod tables;

pub use tables::*;

/// The JSON output path among a sweep binary's `args`: `None` (print the
/// JSON) or the one path given. A `-`-prefixed argument or a second path
/// is refused with `usage`, so a mistyped flag never becomes a file name.
pub fn out_path(
    args: impl IntoIterator<Item = String>,
    usage: &str,
) -> Result<Option<String>, String> {
    let mut out = None;
    for arg in args {
        if arg.starts_with('-') {
            return Err(format!("unknown flag {arg:?}; usage: {usage}"));
        }
        if let Some(first) = out.replace(arg) {
            return Err(format!(
                "one output path, not {first:?} and more; usage: {usage}"
            ));
        }
    }
    Ok(out)
}

/// The fleet sizes of a `--sizes N,N,..` list. An empty entry, a zero
/// (a fleet with no programs cannot run) or anything but a number is
/// refused with `usage`.
pub fn fleet_sizes(list: &str, usage: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|s| s.trim().parse().ok().filter(|&n: &usize| n > 0))
        .collect::<Option<_>>()
        .ok_or_else(|| {
            format!("--sizes takes a comma-separated list of fleet sizes above 0; usage: {usage}")
        })
}

/// A sweep binary's `main`: check `args` with [`out_path`], then run the
/// sweep (`run` returns its table and its JSON), print the table, and
/// write the JSON to the path given or print it. Refused arguments exit
/// with status 2 before anything runs or is written.
pub fn sweep_main(
    usage: &str,
    args: impl IntoIterator<Item = String>,
    run: impl FnOnce() -> (String, String),
) -> ExitCode {
    let out = match out_path(args, usage) {
        Ok(out) => out,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let (table, json) = run();
    print!("{table}");
    match out {
        Some(path) => match std::fs::write(&path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("write {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{fleet_sizes, out_path};

    fn parse(args: &[&str]) -> Result<Option<String>, String> {
        out_path(args.iter().map(|a| a.to_string()), "x [OUT.json]")
    }

    #[test]
    fn out_path_takes_at_most_one_path_and_no_flags() {
        assert_eq!(parse(&[]), Ok(None));
        assert_eq!(parse(&["x.json"]), Ok(Some("x.json".into())));
        let flag = parse(&["--help"]).unwrap_err();
        assert!(flag.contains("\"--help\"") && flag.contains("usage: x [OUT.json]"));
        let two = parse(&["a", "b"]).unwrap_err();
        assert!(two.contains("\"a\"") && two.contains("usage:"), "{two}");
    }

    #[test]
    fn fleet_sizes_refuse_zero_and_empty_entries() {
        let sizes = |list| fleet_sizes(list, "x [--sizes N,N,..]");
        assert_eq!(sizes("10,100"), Ok(vec![10, 100]));
        for bad in ["0", "5,0", "", "3,,4"] {
            let err = sizes(bad).unwrap_err();
            assert!(err.contains("usage: x [--sizes N,N,..]"), "{bad:?}: {err}");
        }
    }
}
