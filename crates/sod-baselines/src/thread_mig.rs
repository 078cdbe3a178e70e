//! JESSICA2-style in-JVM thread migration.
//!
//! Capture reads the JVM kernel directly ("state information can be
//! retrieved directly from the JVM kernel") — tens of microseconds of
//! fixed cost plus single-digit microseconds per frame. The whole stack
//! moves (no segmenting); objects arrive later through its global object
//! space. The restore pathology the paper highlights: "JESSICA2 always
//! allocates space for static arrays at class loading", so FFT's 64 MB
//! static array inflates restore from ~8 ms to ~72 ms.

use sod_vm::costs::{ALLOC, CLASS_LOAD, GIGABIT, JESSICA2_CAPTURE, JESSICA2_RESTORE};

use crate::systems::{MigrationBreakdown, WorkloadMeasure};

/// Migration breakdown for an in-JVM thread migration of `m`.
pub fn breakdown(m: &WorkloadMeasure) -> MigrationBreakdown {
    let capture_ns = JESSICA2_CAPTURE.of(m.frames as u64);
    let transfer_ns = GIGABIT.of(m.stack_bytes);
    // Static arrays are allocated at class load.
    let restore_ns =
        JESSICA2_RESTORE.fixed + CLASS_LOAD.of(m.class_bytes) + ALLOC.of(m.static_array_bytes);
    MigrationBreakdown {
        capture_ns,
        transfer_ns,
        restore_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod_net::time::US;

    fn base() -> WorkloadMeasure {
        WorkloadMeasure {
            exec_ns: 10_000_000_000,
            frames: 4,
            locals: 16,
            stack_bytes: 600,
            heap_bytes: 4_000,
            static_array_bytes: 0,
            class_bytes: 3_000,
        }
    }

    #[test]
    fn capture_is_microseconds() {
        let b = breakdown(&base());
        assert!(b.capture_ns < 200 * US, "{}", b.capture_ns);
        // Even 46 frames stay well under a millisecond.
        let deep = breakdown(&WorkloadMeasure {
            frames: 46,
            ..base()
        });
        assert!(deep.capture_ns < 1_000 * US);
    }

    #[test]
    fn static_arrays_poison_restore() {
        let small = breakdown(&base());
        let fft = breakdown(&WorkloadMeasure {
            static_array_bytes: 64 << 20,
            ..base()
        });
        // Paper Table IV: 8 ms → ~72 ms; shape: an order of magnitude.
        assert!(fft.restore_ns > 8 * small.restore_ns);
        assert!(fft.restore_ns > 60_000_000 && fft.restore_ns < 150_000_000);
    }

    #[test]
    fn heap_does_not_travel() {
        let small = breakdown(&base());
        let big_heap = breakdown(&WorkloadMeasure {
            heap_bytes: 64 << 20,
            ..base()
        });
        assert_eq!(small.transfer_ns, big_heap.transfer_ns);
    }
}
