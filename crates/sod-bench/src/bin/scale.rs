//! Regenerate the fleet-size sweep (`TABLE SCALE`) and its
//! `BENCH_scale.json`-compatible summary.
//!
//! By default this runs the **big** sweep — 1k/5k/10k-program fleets
//! (`SCALE_FLEET_SWEEP`), with per-row host wall-clock — which takes
//! seconds. Pass `--sizes 10,100,500` for the cheap shipped sweep.
//!
//! The table and the JSON line both print to stdout; pass a path (e.g.
//! `BENCH_scale.json`) to write the JSON there instead.

fn main() {
    let mut sizes: Vec<usize> = sod_bench::scale::SCALE_FLEET_SWEEP.to_vec();
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--sizes" {
            let list = args.next().expect("--sizes takes a comma-separated list");
            sizes = list
                .split(',')
                .map(|s| s.trim().parse().expect("fleet size"))
                .collect();
        } else if arg.starts_with('-') {
            // A typo'd flag must not silently become the output path (the
            // default sweep takes minutes).
            panic!("unknown flag {arg:?}; usage: scale [--sizes N,N,..] [OUT.json]");
        } else {
            out_path = Some(arg);
        }
    }
    // Simulate the sweep once; render the table and the JSON from it.
    let rows = sod_bench::scale::sweep(&sizes);
    print!("{}", sod_bench::scale::render_table(&rows));
    let json = sod_bench::scale::render_json(&rows);
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("write JSON summary");
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
