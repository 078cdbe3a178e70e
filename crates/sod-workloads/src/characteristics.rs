//! Table I: program characteristics — problem size `n`, maximum Java-stack
//! height `h`, and accumulated local+static field bytes `F`, measured by
//! actually running each workload on a fresh VM.

use sod_vm::interp::Vm;
use sod_vm::value::Value;

use crate::programs::Workload;

/// Measured characteristics of one workload run.
#[derive(Clone, Debug, PartialEq)]
pub struct Characteristics {
    pub name: &'static str,
    pub n: i64,
    /// Maximum stack height reached (Table I `h`).
    pub h: usize,
    /// Accumulated size of local and static fields at peak depth, bytes
    /// (Table I `F`), approximated as peak (locals-per-frame × height) +
    /// statics + static-array payloads.
    pub f_bytes: u64,
    /// Guest instructions retired (execution-length scale).
    pub instructions: u64,
    /// Result value (determinism check across systems).
    pub result: Option<i64>,
}

/// Run `workload` to completion on the (empty) VM given and measure
/// Table I columns. A [`Vm::new`] and a [`Vm::reference`] must give the
/// same columns.
pub fn characterize_on(mut vm: Vm, workload: &Workload) -> Characteristics {
    let n = workload.n;
    vm.load_class(&(workload.build)()).unwrap();
    let tid = vm
        .spawn(workload.class, workload.method, &[Value::Int(n)])
        .unwrap();
    let mut peak_state_bytes = 0u64;
    loop {
        let (out, _) = vm
            .run(tid, 20_000, sod_vm::interp::RunMode::Normal)
            .unwrap();
        let t = vm.thread(tid).unwrap();
        peak_state_bytes = peak_state_bytes.max(t.stack_state_bytes());
        match out {
            sod_vm::interp::StepOutcome::Continue => continue,
            sod_vm::interp::StepOutcome::Returned(v) => {
                let statics_bytes: u64 =
                    vm.classes.iter().map(|c| c.statics.len() as u64 * 8).sum();
                let heap_static: u64 = vm
                    .classes
                    .iter()
                    .flat_map(|c| c.statics.iter())
                    .filter_map(|v| match v {
                        Value::Ref(id) => vm.heap.get(*id).ok().map(|o| o.size_bytes()),
                        _ => None,
                    })
                    .sum();
                let t = vm.thread(tid).unwrap();
                return Characteristics {
                    name: workload.name,
                    n,
                    h: t.max_height,
                    f_bytes: peak_state_bytes + statics_bytes + heap_static,
                    instructions: vm.instr_count,
                    result: v.and_then(|v| v.as_int().ok()),
                };
            }
            other => panic!("workload blocked: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::WORKLOADS;

    #[test]
    fn table1_shapes_hold() {
        let rows: Vec<Characteristics> = WORKLOADS
            .iter()
            .map(|w| characterize_on(Vm::new(), w))
            .collect();
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        let fib = by_name("Fib");
        let nq = by_name("NQ");
        let fft = by_name("FFT");
        let tsp = by_name("TSP");

        // Paper Table I shapes: Fib's stack is the deepest (h ≈ n);
        // NQ recursion is ~n deep; FFT and TSP stay shallow; FFT's static
        // arrays dominate F by orders of magnitude.
        assert!(fib.h as i64 >= fib.n, "fib depth {} for n={}", fib.h, fib.n);
        assert!(nq.h as i64 >= nq.n);
        assert!(fft.h <= 6, "fft height {}", fft.h);
        assert!(tsp.h as i64 >= tsp.n, "tsp recursion h={}", tsp.h);
        assert!(
            fft.f_bytes > 50 * fib.f_bytes,
            "fft F {} must dwarf fib F {}",
            fft.f_bytes,
            fib.f_bytes
        );
    }

    #[test]
    fn fib_depth_tracks_n() {
        let w = Workload {
            n: 12,
            ..WORKLOADS[0]
        };
        let c = characterize_on(Vm::new(), &w);
        // main + fib(12..1) chain.
        assert!(c.h >= 12 && c.h <= 14, "h={}", c.h);
        assert_eq!(c.result, Some(144));
    }
}
