//! Host-time cost of the interpreter inner loop: nanoseconds of *host*
//! time per *simulated* instruction, measured with the fast path on
//! (pre-resolved operands, inline caches, calls kept inside the window
//! loop — the default) and off (`Vm::reference`, which re-resolves every name
//! from the constant pool on each execution, exactly as the interpreter
//! worked before the fast path landed).
//!
//! Virtual-time results are bit-identical between the two modes by
//! construction (`tests/interp_equivalence.rs` pins it), so the only
//! thing this measures — and the only thing the fast path is allowed to
//! change — is how many host cycles the simulator burns per guest
//! instruction. `bin/vm` emits the one-shot `BENCH_vm.json` summary with
//! host provenance.

use std::fmt::Write as _;
use std::time::Instant;

use sod_asm::builder::ClassBuilder;
use sod_vm::class::{ClassDef, TypeTag};
use sod_vm::instr::Cmp;
use sod_vm::interp::Vm;
use sod_vm::value::Value;
use sod_workloads::programs::fib_class;

/// Timing repetitions per (workload, mode); the minimum is reported to
/// shed scheduler noise.
pub const REPS: usize = 5;

/// One benchmark workload: a class plus its entry point.
pub struct VmWorkload {
    pub name: &'static str,
    pub class: ClassDef,
    pub entry_class: &'static str,
    pub args: Vec<Value>,
}

/// Recursive Fibonacci — branch/arith/`InvokeStatic` heavy, the shape the
/// paper's Table I programs take.
pub fn fib_workload(n: i64) -> VmWorkload {
    VmWorkload {
        name: "fib",
        class: fib_class(),
        entry_class: "Fib",
        args: vec![Value::Int(n)],
    }
}

/// An object-heavy loop: `New` once, then per iteration an
/// `InvokeVirtual` that does `GetField`/`PutField`, plus a `PushStr`
/// literal — one site of every inline-cache kind, between short runs of
/// window instructions.
pub fn object_loop_workload(iters: i64) -> VmWorkload {
    let class = ClassBuilder::new("Counter")
        .field("n", TypeTag::Int)
        .vmethod("bump", &[], |m| {
            m.line();
            m.load("this").getfield("n").pushi(1).add().store("t");
            m.line();
            m.load("this").load("t").putfield("n");
            m.line();
            m.pushi(0).retv();
        })
        .method("main", &["iters"], |m| {
            m.line();
            m.new_obj("Counter").store("c");
            m.line();
            m.pushi(0).store("i");
            m.line();
            m.label("loop");
            m.load("i").load("iters").if_cmp(Cmp::Ge, "done");
            m.line();
            m.load("c").invokev("bump", 1).pop();
            m.line();
            m.pushstr("tick").pop();
            m.line();
            m.load("i").pushi(1).add().store("i").goto("loop");
            m.line();
            m.label("done");
            m.load("c").getfield("n").retv();
        })
        .build()
        .expect("valid counter class");
    VmWorkload {
        name: "object_loop",
        class,
        entry_class: "Counter",
        args: vec![Value::Int(iters)],
    }
}

/// The shipped workload set (kept cheap enough for `bin/tables`).
pub fn workloads() -> Vec<VmWorkload> {
    vec![fib_workload(20), object_loop_workload(100_000)]
}

/// One measured row: host ns/instr with the fast path off ("before")
/// and on ("after"), on identical guest work.
pub struct VmDispatchRow {
    pub workload: &'static str,
    /// Guest instructions retired per run (identical in both modes —
    /// asserted, not assumed).
    pub instructions: u64,
    /// Host ns per simulated instruction on a `Vm::reference` VM.
    pub slow_ns_per_instr: f64,
    /// Host ns per simulated instruction on the default fast path.
    pub fast_ns_per_instr: f64,
}

impl VmDispatchRow {
    pub fn speedup(&self) -> f64 {
        self.slow_ns_per_instr / self.fast_ns_per_instr.max(f64::MIN_POSITIVE)
    }
}

/// Run `w` once in the given mode; returns (host ns, instructions,
/// virtual meter ns, result).
fn run_once(w: &VmWorkload, slow: bool) -> (u64, u64, u64, Option<Value>) {
    let mut vm = if slow { Vm::reference() } else { Vm::new() };
    vm.load_class(&w.class).expect("load workload class");
    let started = Instant::now();
    let result = vm
        .run_to_completion(w.entry_class, "main", &w.args)
        .expect("workload runs");
    let host_ns = started.elapsed().as_nanos() as u64;
    (host_ns, vm.instr_count, vm.meter_ns, result)
}

/// Measure one workload in both modes ([`REPS`] runs each, minimum
/// kept), asserting on the way that instruction count, virtual time,
/// and result are mode-independent.
pub fn measure(w: &VmWorkload) -> VmDispatchRow {
    let mut best = [u64::MAX; 2];
    let mut reference: Option<(u64, u64, Option<Value>)> = None;
    for _ in 0..REPS {
        for (i, slow) in [(0, true), (1, false)] {
            let (host_ns, instrs, meter_ns, result) = run_once(w, slow);
            best[i] = best[i].min(host_ns);
            match &reference {
                None => reference = Some((instrs, meter_ns, result)),
                Some(r) => assert_eq!(
                    (instrs, meter_ns, result),
                    r.clone(),
                    "{}: modes must retire identical guest work",
                    w.name
                ),
            }
        }
    }
    let instructions = reference.expect("at least one run").0;
    VmDispatchRow {
        workload: w.name,
        instructions,
        slow_ns_per_instr: best[0] as f64 / instructions.max(1) as f64,
        fast_ns_per_instr: best[1] as f64 / instructions.max(1) as f64,
    }
}

/// Measure the shipped workload set.
pub fn sweep() -> Vec<VmDispatchRow> {
    workloads().iter().map(measure).collect()
}

/// Render measured rows as the human-readable table.
pub fn render_table(rows: &[VmDispatchRow]) -> String {
    let mut out = String::from(
        "TABLE VM. INTERPRETER DISPATCH (host ns per simulated instruction; min of reps; \
         before = slow_resolve, after = fast path)\n\
         workload     instrs     before(ns/i) after(ns/i) speedup\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:<10} {:<12.2} {:<11.2} {:.2}x",
            r.workload,
            r.instructions,
            r.slow_ns_per_instr,
            r.fast_ns_per_instr,
            r.speedup(),
        );
    }
    out
}

/// Render measured rows as the `BENCH_vm.json` summary. Host-derived
/// numbers are not deterministic, so the blob carries provenance: the
/// host's core count and the fixed workload seed (the guest side *is*
/// deterministic — same instruction stream every run).
pub fn render_json(rows: &[VmDispatchRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\":\"{}\",\"instructions\":{},\"before_ns_per_instr\":{:.3},\
                 \"after_ns_per_instr\":{:.3},\"speedup\":{:.3}}}",
                r.workload,
                r.instructions,
                r.slow_ns_per_instr,
                r.fast_ns_per_instr,
                r.speedup(),
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"vm_dispatch\",\"seed\":{},\"host_cores\":{},\"reps\":{},\"rows\":[{}]}}\n",
        crate::scale::SCALE_SEED,
        cores,
        REPS,
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_agree_and_render() {
        // Tiny sizes: this pins shape and the identical-guest-work
        // assertion inside `measure`, not host performance.
        let rows = vec![
            measure(&fib_workload(10)),
            measure(&object_loop_workload(200)),
        ];
        let t = render_table(&rows);
        assert!(t.contains("TABLE VM") && t.contains("fib") && t.contains("object_loop"));
        let j = render_json(&rows);
        assert!(j.starts_with("{\"bench\":\"vm_dispatch\""));
        assert!(j.contains("\"host_cores\":") && j.contains("\"speedup\":"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
