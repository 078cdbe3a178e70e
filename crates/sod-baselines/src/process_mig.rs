//! G-JavaMPI-style eager-copy process migration.
//!
//! "the whole process data is captured with eager-copy, and worse still,
//! all objects are exported using Java serialization" — capture cost scales
//! with frames *and* heap bytes; one bulk transfer; restore deserializes
//! everything. Table IV anchors: Fib (46 frames, tiny heap) ≈ 60 ms
//! capture; FFT (64 MB statics) ≈ 457 / 1054 / 959 ms.

use sod_vm::costs::{
    CLASS_LOAD, DESERIALIZE, GIGABIT, GJAVAMPI_CAPTURE, GJAVAMPI_RESTORE_FRAME, SERIALIZE,
};

use crate::systems::{MigrationBreakdown, WorkloadMeasure};

/// Migration breakdown for an eager-copy process migration of `m`.
pub fn breakdown(m: &WorkloadMeasure) -> MigrationBreakdown {
    let (state_bytes, frames) = (m.stack_bytes + m.heap_bytes, m.frames as u64);
    let capture_ns = GJAVAMPI_CAPTURE.of(frames) + SERIALIZE.of(state_bytes);
    let transfer_ns = GIGABIT.of(state_bytes + m.class_bytes);
    let restore_ns = DESERIALIZE.of(state_bytes)
        + CLASS_LOAD.of(m.class_bytes)
        + GJAVAMPI_RESTORE_FRAME.of(frames);
    MigrationBreakdown {
        capture_ns,
        transfer_ns,
        restore_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn heap_size_dominates_eager_copy() {
        let small = breakdown(&base());
        let big = breakdown(&WorkloadMeasure {
            heap_bytes: 64 << 20,
            ..base()
        });
        assert!(big.capture_ns > 50 * small.capture_ns);
        assert!(big.transfer_ns > 50 * small.transfer_ns);
        assert!(big.restore_ns > 50 * small.restore_ns);
        // FFT anchor: capture in the hundreds of ms.
        assert!(big.capture_ns > 300_000_000, "{}", big.capture_ns);
        assert!(big.capture_ns < 800_000_000);
    }

    #[test]
    fn deep_stacks_cost_capture() {
        let shallow = breakdown(&base());
        let deep = breakdown(&WorkloadMeasure {
            frames: 46,
            ..base()
        });
        assert!(deep.capture_ns > shallow.capture_ns + 30_000_000);
    }
}
