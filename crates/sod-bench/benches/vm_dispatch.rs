//! Criterion statistics for the interpreter inner loop: the same
//! workloads as `bin/vm`, each run with the fast path on (default) and
//! off (`Vm::reference`) so the dispatch optimisation's host-time win is
//! tracked over time. Guest-visible results are bit-identical between
//! the two modes (`tests/interp_equivalence.rs`); only host time moves.

use criterion::{criterion_group, criterion_main, Criterion};
use sod_bench::vmdispatch::{fib_workload, object_loop_workload, VmWorkload};
use sod_vm::interp::Vm;

fn run(w: &VmWorkload, slow: bool) -> Option<sod_vm::value::Value> {
    let mut vm = if slow { Vm::reference() } else { Vm::new() };
    vm.load_class(&w.class).unwrap();
    vm.run_to_completion(w.entry_class, "main", &w.args)
        .unwrap()
}

fn bench(c: &mut Criterion) {
    for w in [fib_workload(18), object_loop_workload(20_000)] {
        for (mode, slow) in [("fast", false), ("slow_resolve", true)] {
            c.bench_function(format!("vm_dispatch_{}_{mode}", w.name), |b| {
                b.iter(|| run(&w, slow))
            });
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
