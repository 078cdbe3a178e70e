//! Regenerate the interpreter-dispatch table (`TABLE VM`) and its
//! `BENCH_vm.json` summary: host ns per simulated instruction with the
//! fast path off (`Vm::reference`, the pre-fast-path semantics) and on
//! (inline caches, the default).
//!
//! The table and the JSON both print to stdout; pass a path (e.g.
//! `BENCH_vm.json`) to write the JSON there instead.

fn main() {
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg.starts_with('-') {
            panic!("unknown flag {arg:?}; usage: vm [OUT.json]");
        }
        out_path = Some(arg);
    }
    let rows = sod_bench::vmdispatch::sweep();
    print!("{}", sod_bench::vmdispatch::render_table(&rows));
    let json = sod_bench::vmdispatch::render_json(&rows);
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("write JSON summary");
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
