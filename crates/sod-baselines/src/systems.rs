//! Shared measurement plumbing for the cross-system comparison.

use sod_vm::class::ClassDef;
use sod_vm::costs::{AGENT_IDLE, GJAVAMPI_EXEC, JESSICA2_EXEC, XEN_EXEC};
use sod_vm::interp::{RunMode, StepOutcome, Vm};
use sod_vm::value::Value;

/// A migration latency breakdown (Table IV columns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationBreakdown {
    pub capture_ns: u64,
    pub transfer_ns: u64,
    pub restore_ns: u64,
}

impl MigrationBreakdown {
    pub fn total_ns(&self) -> u64 {
        self.capture_ns + self.transfer_ns + self.restore_ns
    }
}

/// The systems compared in Tables II–IV.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Plain JVM, no migration support (the "JDK" column).
    Jdk,
    /// The SOD execution engine.
    Sodee,
    /// Eager-copy process migration.
    GJavaMpi,
    /// In-JVM thread migration (modified Kaffe).
    Jessica2,
    /// Whole-OS live migration.
    Xen,
}

impl System {
    /// Execution-time scale (per-mille) relative to the reference JDK:
    /// SODEE and G-JavaMPI ride a debugger interface (paper C1: 0.1–3.2 %);
    /// JESSICA2's old Kaffe JIT is ≈4× slower (paper Table II: Fib 49.57 s
    /// vs 12.10 s); Xen's measured column ran on a different host OS at
    /// roughly 2.2× (the paper cautions against reading it as pure
    /// virtualization overhead).
    pub fn exec_scale_per_mille(self) -> u64 {
        match self {
            System::Jdk => 1000,
            System::Sodee => AGENT_IDLE.rate,
            System::GJavaMpi => GJAVAMPI_EXEC.rate,
            System::Jessica2 => JESSICA2_EXEC.rate,
            System::Xen => XEN_EXEC.rate,
        }
    }
}

/// Facts measured from one real run of a workload on the sod-vm, fed into
/// every baseline's migration model.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkloadMeasure {
    /// Virtual execution time on the reference JDK profile.
    pub exec_ns: u64,
    /// Stack height at the (mid-run) migration point.
    pub frames: usize,
    /// Total local slots across those frames.
    pub locals: usize,
    /// Serialized size of the full captured stack.
    pub stack_bytes: u64,
    /// Live heap bytes at the migration point (eager copy ships these).
    pub heap_bytes: u64,
    /// Bytes of static-array payloads (JESSICA2 allocates them at class
    /// load during restore).
    pub static_array_bytes: u64,
    /// Serialized class-file bytes of the application.
    pub class_bytes: u64,
}

/// Run `class.main(n)` to completion, sampling the migration-point facts at
/// roughly the middle of the run (first MSP after half the instructions).
pub fn measure_workload(class: &ClassDef, entry: &str, n: i64) -> WorkloadMeasure {
    // Pass 1: total execution.
    let mut vm = Vm::new();
    vm.load_class(class).unwrap();
    vm.run_to_completion(entry, "main", &[Value::Int(n)])
        .unwrap();
    let exec_ns = vm.meter_ns;
    let total_instr = vm.instr_count;

    // Pass 2: stop near the midpoint and measure.
    let mut vm = Vm::new();
    vm.load_class(class).unwrap();
    let tid = vm.spawn(entry, "main", &[Value::Int(n)]).unwrap();
    let mut measure = WorkloadMeasure {
        exec_ns,
        class_bytes: sod_vm::wire::class_wire_bytes(class),
        ..Default::default()
    };
    loop {
        let (out, _) = vm.run(tid, 200_000, RunMode::Normal).unwrap();
        let done = matches!(out, StepOutcome::Returned(_));
        if vm.instr_count * 2 >= total_instr || done {
            if !done {
                let _ = vm.run(tid, u64::MAX, RunMode::StopAtMsp).unwrap();
            }
            let t = vm.thread(tid).unwrap();
            measure.frames = t.frames.len();
            measure.locals = t.frames.iter().map(|f| usize::from(f.nlocals)).sum();
            measure.stack_bytes = t.stack_state_bytes();
            measure.heap_bytes = vm.heap.used_bytes();
            measure.static_array_bytes = vm
                .classes
                .iter()
                .flat_map(|c| c.statics.iter())
                .filter_map(|v| match v {
                    Value::Ref(id) => vm.heap.get(*id).ok().map(|o| o.size_bytes()),
                    _ => None,
                })
                .sum();
            return measure;
        }
        match out {
            StepOutcome::Continue => {}
            other => panic!("unexpected workload outcome {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod_vm::costs::GIGABIT;
    use sod_workloads::programs::fib_class;

    #[test]
    fn measurement_is_sane() {
        let m = measure_workload(&fib_class(), "Fib", 18);
        assert!(m.exec_ns > 0);
        assert!(
            m.frames >= 2,
            "mid-run fib should be deep, got {}",
            m.frames
        );
        assert!(m.stack_bytes > 0);
        assert!(m.class_bytes > 100);
    }

    #[test]
    fn exec_scales_ordered() {
        assert!(System::Jessica2.exec_scale_per_mille() > System::Xen.exec_scale_per_mille());
        assert!(System::Xen.exec_scale_per_mille() > System::Sodee.exec_scale_per_mille());
        assert!(System::Sodee.exec_scale_per_mille() > System::Jdk.exec_scale_per_mille());
    }

    #[test]
    fn gigabit_floor() {
        assert!(GIGABIT.of(0) >= 2_000_000);
        // 64 MB ≈ 512 ms + floor.
        let t = GIGABIT.of(64 << 20);
        assert!(t > 500_000_000 && t < 600_000_000);
    }
}
