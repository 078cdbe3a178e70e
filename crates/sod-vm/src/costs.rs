//! The virtual-time cost model: one table, one row per charge.
//!
//! Every figure this reproduction reports is a sum of virtual charges,
//! calibrated against the paper's 2009 testbed (2.53 GHz Xeons, Sun JDK
//! 1.6, Gigabit Ethernet). `cost_table!` states each charge once: its
//! name, what it charges, a fixed part, a rate per [`Unit`], the [`Path`]
//! that pays it and the paper table it is calibrated against. A use reads
//! `ROW.fixed`, `ROW.of(units)` or a multiplier's `ROW.rate`, folded at
//! compile time, so the one charge on a per-instruction path ([`ALLOC`])
//! stays the arithmetic it was. Instructions are charged from
//! [`crate::instr::Instr::cost`]. `COST_MODEL.md` at the repository root is
//! the table and that column printed; a unit test holds it to a fresh print.

/// One charge: `fixed + units · rate / per`, measured as its [`Unit`] says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Charge {
    pub name: &'static str,
    pub what: &'static str,
    pub fixed: u64,
    pub rate: u64,
    pub per: u64,
    pub unit: Unit,
    pub path: Path,
    pub anchor: &'static str,
}

impl Charge {
    /// The charge for `units` of the row's unit.
    #[inline]
    pub const fn of(self, units: u64) -> u64 {
        self.fixed + units * self.rate / self.per
    }
}

/// What a row's fixed part and rate measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    Ns,
    Bytes,
    NsPerByte,
    NsPerFrame,
    NsPerSlot,
    NsPerStatic,
    BytesPerPage,
    /// A multiplier of other charges.
    Times,
    /// An execution-time scale, in per-mille.
    PerMille,
}

/// Who pays a row: the VM under every system, SODEE on either capture
/// path or on one of them, or a baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    Vm,
    Sodee,
    Jvmti,
    Portable,
    GJavaMpi,
    Jessica2,
    Baselines,
    Xen,
}

/// Each row: a one-line doc (what it charges), `NAME: Unit { cells }`,
/// the paying path and the calibration anchor. Absent cells are
/// `fixed: 0, rate: 0, per: 1`. Generates one `pub const` per row and,
/// for the print, `ROWS`: every row in order.
macro_rules! cost_table {
    ($(
        #[doc = $what:literal]
        $name:ident: $unit:ident { $($cell:ident: $value:expr),* }, $path:ident, $anchor:literal;
    )*) => {
        $(
            #[doc = $what]
            pub const $name: Charge = Charge {
                $($cell: $value,)*
                ..Charge { name: stringify!($name), what: $what, fixed: 0, rate: 0, per: 1,
                           unit: Unit::$unit, path: Path::$path, anchor: $anchor }
            };
        )*

        // One line, so the attribute does not read as the test tail's start.
        #[cfg(test)] const ROWS: &[Charge] = &[$($name),*];
    };
}

cost_table! {
    /// Interpreted (debug) mode: instruction costs while breakpoints are armed or a restore runs.
    INTERP_MODE: Times { rate: 12 }, Vm, "Table IV: SODEE restore (handlers run interpreted)";
    /// Zeroing a `New`/`NewArr` allocation.
    ALLOC: NsPerByte { rate: 105, per: 100 }, Vm, "Table IV: JESSICA2's FFT restore, 64 MB of statics ≈ 72 ms";
    /// A JVM with the JVMTI agent attached but idle.
    AGENT_IDLE: PerMille { rate: 1005 }, Sodee, "Table II: overhead C1, 0.1–3.2 %";
    /// Java serialization: stream setup, then per byte of object data.
    SERIALIZE: NsPerByte { fixed: 20_000, rate: 7 }, Sodee, "Table IV: G-JavaMPI's FFT capture, 64 MB ≈ 450 ms";
    /// Java deserialization: stream setup, then per byte (allocation and fix-up).
    DESERIALIZE: NsPerByte { fixed: SERIALIZE.fixed, rate: 15 }, Sodee, "Table IV: G-JavaMPI's FFT restore";
    /// Loading and linking a shipped class file.
    CLASS_LOAD: NsPerByte { fixed: 900_000, rate: 1 }, Sodee, "Table IV: SODEE restore ≈ 7–10 ms";
    /// Home-side JVMTI lookup of an object a worker faults on, before serialization.
    OBJ_LOOKUP: Ns { fixed: 8_000 }, Sodee, "Table III: SODEE migration overhead";
    /// Socket setup and worker rendezvous before a state transfer.
    HANDSHAKE: Ns { fixed: 3_500_000 }, Sodee, "Table IV: SODEE transfer ≈ 4–7 ms";
    /// Framing bytes of a migration state message.
    MIGRATION_MSG: Bytes { fixed: 2_048 }, Sodee, "Table VII: transfer at 50 kbps";
    /// Payload of a control message: a request, an acknowledgement, a return.
    CONTROL_MSG: Bytes { fixed: 128 }, Sodee, "Table III: SODEE migration overhead";
    /// Re-establishing one frame through its restoration handler.
    RESTORE_FRAME: NsPerFrame { rate: 300_000 }, Sodee, "Table IV: SODEE restore ≈ 7–10 ms";
    /// Resuming a session's thread once its upper segment's return arrives.
    RETURN_RESUME: Ns { fixed: 1_000 }, Sodee, "uncalibrated (moves TABLE ELASTIC)";
    /// Host call `fs_size`: one file's metadata.
    FS_SIZE: Ns { fixed: 50_000 }, Sodee, "uncalibrated (no table calls it)";
    /// Host call `fs_list`: one directory listing.
    FS_LIST: Ns { fixed: 200_000 }, Sodee, "uncalibrated (no table calls it)";
    /// Host call `sock_send`: a response on the node's uplink, then per byte.
    SOCK_SEND: NsPerByte { fixed: 100_000, rate: 8 }, Sodee, "uncalibrated (no table calls it)";
    /// Suspending the thread and readying the agent for a capture.
    JVMTI_SUSPEND: Ns { fixed: 250_000 }, Jvmti, "Table IV: SODEE capture";
    /// `GetFrameLocation` and the `GetLocalVariableTable` step, ≈ 1 µs each.
    JVMTI_FRAME: NsPerFrame { rate: 2_000 }, Jvmti, "§V: most JVMTI calls finish within 1 µs; Table IV capture";
    /// `GetLocal<Type>`, per local slot.
    JVMTI_GET_LOCAL: NsPerSlot { rate: 30_000 }, Jvmti, "§V: GetLocalInt ≈ 30 µs; Table IV capture";
    /// Reading one static field through JVMTI/JNI.
    JVMTI_GET_STATIC: NsPerStatic { rate: 2_000 }, Jvmti, "Table IV: SODEE capture";
    /// `SetBreakpoint` at the next frame's entry, per restored frame.
    SET_BREAKPOINT: Ns { fixed: 8_000 }, Jvmti, "Table IV: SODEE restore";
    /// Injecting `InvalidStateException` into the restoring thread, per frame.
    THROW_INTO: Ns { fixed: 25_000 }, Jvmti, "Table IV: SODEE restore";
    /// `ForceEarlyReturn` on the home node when a segment's value returns.
    FORCE_EARLY_RETURN: Ns { fixed: 30_000 }, Jvmti, "Table III: migration overhead";
    /// Invoking the bottom method through JNI to start a handler restore.
    JNI_INVOKE: Ns { fixed: 40_000 }, Jvmti, "Table IV: SODEE restore";
    /// Restore entry on the JVMTI path: agent bookkeeping before the first frame.
    RESTORE_ENTRY: Ns { fixed: 3_000_000 }, Jvmti, "Table IV: SODEE restore ≈ 7–10 ms";
    /// Capture into a portable format with Java serialization, per state byte.
    PORTABLE_CAPTURE: NsPerByte { fixed: 12_000_000 + SERIALIZE.fixed, rate: SERIALIZE.rate }, Portable, "Table VII: capture ≈ 13–14 ms at every bandwidth";
    /// Java-level restore through reflection, per state byte, before the device's slowdown.
    PORTABLE_RESTORE: NsPerByte { fixed: 2_000_000 + DESERIALIZE.fixed, rate: DESERIALIZE.rate }, Portable, "Table VII: restore 28–50 ms on a 412 MHz ARM";
    /// Execution under G-JavaMPI's debugger interface.
    GJAVAMPI_EXEC: PerMille { rate: 1_004 }, GJavaMpi, "Table II";
    /// G-JavaMPI capture: suspend and setup, then per frame over the older debugger interface.
    GJAVAMPI_CAPTURE: NsPerFrame { fixed: 2_000_000, rate: 900_000 }, GJavaMpi, "Table IV: Fib's 46 frames ≈ 60 ms";
    /// G-JavaMPI restore per frame: half its capture.
    GJAVAMPI_RESTORE_FRAME: NsPerFrame { rate: GJAVAMPI_CAPTURE.rate, per: 2 }, GJavaMpi, "Table IV: G-JavaMPI restore";
    /// Execution on JESSICA2's modified Kaffe JIT.
    JESSICA2_EXEC: PerMille { rate: 4_098 }, Jessica2, "Table II: Fib 49.57 s against 12.10 s";
    /// JESSICA2 in-kernel capture: fixed, then per frame.
    JESSICA2_CAPTURE: NsPerFrame { fixed: 30_000, rate: 7_000 }, Jessica2, "Table IV: JESSICA2 capture";
    /// JESSICA2 thread re-establishment inside the JVM.
    JESSICA2_RESTORE: Ns { fixed: 6_000_000 }, Jessica2, "Table IV: JESSICA2 restore ≈ 8 ms";
    /// A baseline's bulk transfer: TCP setup, then Gigabit Ethernet per byte.
    GIGABIT: NsPerByte { fixed: 2_000_000, rate: 8 }, Baselines, "Table IV: transfer";
    /// Execution in a Xen guest, measured on a different host OS.
    XEN_EXEC: PerMille { rate: 2_203 }, Xen, "Table II";
    /// Pausing and resuming the guest around stop-and-copy.
    XEN_PAUSE: Ns { fixed: 30_000_000 }, Xen, "Table III: Xen migration, several seconds";
    /// A guest memory page.
    XEN_PAGE: BytesPerPage { rate: 4_096 }, Xen, "Table III: Xen migration, several seconds";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Cmp, Instr};
    use crate::wire::Codec;

    const COMMITTED: &str = include_str!("../../../COST_MODEL.md");

    const REGENERATE: &str =
        "cargo test -q -p sod-vm --lib costs::tests::regenerate_cost_model -- --ignored";

    /// `n` with its digits grouped in threes.
    fn grouped(n: u64) -> String {
        let digits = n.to_string();
        let mut out = String::new();
        for (i, d) in digits.chars().enumerate() {
            if i > 0 && (digits.len() - i).is_multiple_of(3) {
                out.push(' ');
            }
            out.push(d);
        }
        out
    }

    /// A row's fixed and rate cells, each with its unit.
    fn cells(c: &Charge) -> (String, String) {
        let rate = match c.per {
            1 => grouped(c.rate),
            per => format!("{}/{}", grouped(c.rate), grouped(per)),
        };
        let (fixed, per) = match c.unit {
            Unit::Ns => ("ns", ""),
            Unit::Bytes => ("B", ""),
            Unit::NsPerByte => ("ns", "ns/B"),
            Unit::NsPerFrame => ("ns", "ns/frame"),
            Unit::NsPerSlot => ("ns", "ns/slot"),
            Unit::NsPerStatic => ("ns", "ns/static"),
            Unit::BytesPerPage => ("B", "B/page"),
            Unit::Times => return ("".into(), format!("× {rate}")),
            Unit::PerMille => return ("".into(), format!("{rate} ‰")),
        };
        let fixed = match c.fixed {
            0 => String::new(),
            n => format!("{} {fixed}", grouped(n)),
        };
        let rate = match c.rate {
            0 => String::new(),
            _ => format!("{rate} {per}"),
        };
        (fixed, rate)
    }

    fn path(p: Path) -> &'static str {
        match p {
            Path::Vm => "VM",
            Path::Sodee => "SODEE",
            Path::Jvmti => "JVMTI",
            Path::Portable => "portable",
            Path::GJavaMpi => "G-JavaMPI",
            Path::Jessica2 => "JESSICA2",
            Path::Baselines => "G-JavaMPI, JESSICA2",
            Path::Xen => "Xen",
        }
    }

    /// Every opcode, decoded from its code with zero operands.
    fn opcodes() -> Vec<Instr> {
        (0..=u8::MAX)
            .filter_map(|code| {
                let bytes = [[code].as_slice(), &[0; 32]].concat();
                Instr::get(&mut bytes.as_slice()).ok()
            })
            .collect()
    }

    /// `COST_MODEL.md` as it should read.
    fn print() -> String {
        let mut out = String::from(
            "# The virtual-time cost model\n\n\
             Printed from `crates/sod-vm/src/costs.rs` (the `cost_table!` rows) and the\n\
             instruction table's cost column (`Instr::cost`); `sod-vm`'s unit test\n\
             `costs::tests::the_committed_cost_model_is_the_table` holds this file to a\n\
             fresh print. A charge is `fixed + units × rate`, in virtual time or bytes;\n\
             nodes scale time by their CPU speed.\n\n\
             ## Charges\n\n\
             | row | what it charges | fixed | rate | path | calibrated against |\n\
             |---|---|---|---|---|---|\n",
        );
        for c in ROWS {
            let (fixed, rate) = cells(c);
            let what = c.what.trim();
            let (name, path, anchor) = (c.name, path(c.path), c.anchor);
            out += &format!("| `{name}` | {what} | {fixed} | {rate} | {path} | {anchor} |\n");
        }
        out += "\n## Instructions (virtual ns per execution in JIT mode)\n\n\
                | ns | instructions |\n|---|---|\n";
        let ops = opcodes();
        let mut costs: Vec<u64> = ops.iter().map(Instr::cost).collect();
        costs.sort_unstable();
        costs.dedup();
        for cost in costs {
            let names: Vec<String> = ops
                .iter()
                .filter(|i| i.cost() == cost)
                .map(|i| format!("{i:?}").split('(').next().unwrap_or("").to_string())
                .collect();
            out += &format!("| {cost} | {} |\n", names.join(", "));
        }
        out += "\n## Policy, not charges\n\n\
                These are knobs of the runtime, not costs of the system, and stay\n\
                where they are set: `DEFAULT_SLICE_NS` (`sod-runtime/src/engine/mod.rs`),\n\
                `DEFAULT_MIGRATION_TIMEOUT_NS` (`engine/fault.rs`) and `POOL_TICK_NS`\n\
                (`engine/pool.rs`). Scenario parameters are per node or link and set\n\
                by a scenario: `LinkSpec`, `NodeConfig`'s `cpu_speed_per_mille` and\n\
                `io_scan_ns_per_byte_x100`, `SimFs`'s disk, a pool's cold start.\n";
        out
    }

    #[test]
    fn the_committed_cost_model_is_the_table() {
        let fresh = print();
        let (fresh, committed): (Vec<_>, Vec<_>) =
            (fresh.lines().collect(), COMMITTED.lines().collect());
        let lines = fresh.len().max(committed.len());
        if let Some(at) = (0..lines).find(|&i| fresh.get(i) != committed.get(i)) {
            panic!(
                "COST_MODEL.md line {} is\n  {:?}\nbut the table prints\n  {:?}\n\
                 If the change is meant, regenerate: {REGENERATE}",
                at + 1,
                committed.get(at).unwrap_or(&"<end of file>"),
                fresh.get(at).unwrap_or(&"<end of print>"),
            );
        }
    }

    #[test]
    #[ignore = "writes COST_MODEL.md"]
    fn regenerate_cost_model() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../COST_MODEL.md");
        std::fs::write(path, print()).unwrap();
    }

    #[test]
    fn relative_order_is_sane() {
        // Throws must dwarf field accesses, which exceed simple ALU ops.
        assert!(Instr::ThrowKind(crate::class::ExKind::NullPointer).cost() > 50);
        assert!(Instr::GetField(0).cost() > Instr::Add.cost());
        assert!(Instr::InvokeStatic(0, 0, 0).cost() > Instr::Goto(0).cost());
        assert!(Instr::If(Cmp::Eq, 0).cost() >= 1);
        // Every opcode is in the print.
        assert_eq!(opcodes().len(), 54);
    }

    #[test]
    fn alloc_cost_scales_linearly() {
        assert_eq!(ALLOC.of(0), 0);
        assert_eq!(ALLOC.of(100), 105);
        assert_eq!(ALLOC.of(64 << 20), ((64u64 << 20) * 105) / 100);
    }

    #[test]
    fn serialization_dominates_for_big_heaps() {
        // 64 MB serialized ≈ 450 ms — the G-JavaMPI FFT pathology.
        let t = SERIALIZE.of(64 << 20);
        assert!(t > 400_000_000 && t < 600_000_000, "{t}");
    }

    #[test]
    fn class_load_reasonable() {
        // A 4 kB class loads in ~1 ms.
        let t = CLASS_LOAD.of(4096);
        assert!(t > 500_000 && t < 2_000_000);
    }
}
