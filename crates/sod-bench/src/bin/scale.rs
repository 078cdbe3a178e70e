//! Regenerate the fleet-size sweep (`TABLE SCALE`) and its
//! `BENCH_scale.json`-compatible summary.
//!
//! By default this runs the **big** sweep — 1k/5k/10k-program fleets
//! (`SCALE_FLEET_SWEEP`), with per-row host wall-clock — which takes
//! seconds. Pass `--sizes 10,100,500` for the cheap shipped sweep.
//!
//! The table and the JSON line both print to stdout; pass a path (e.g.
//! `BENCH_scale.json`) to write the JSON there instead.

use std::process::ExitCode;

use sod_bench::scale;

const USAGE: &str = "scale [--sizes N,N,..] [OUT.json]";

fn main() -> ExitCode {
    let mut sizes = scale::SCALE_FLEET_SWEEP.to_vec();
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg != "--sizes" {
            rest.push(arg);
            continue;
        }
        let list = args.next().unwrap_or_default();
        match list.split(',').map(|s| s.trim().parse()).collect() {
            Ok(list) => sizes = list,
            Err(_) => {
                eprintln!("--sizes takes a comma-separated list of fleet sizes; usage: {USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    sod_bench::sweep_main(USAGE, rest, || {
        // Simulate the sweep once; render the table and the JSON from it.
        let rows = scale::sweep(&sizes);
        (scale::render_table(&rows), scale::render_json(&rows))
    })
}
