//! Differential test for `Vm::run`'s window loop: one VM is driven with
//! `run(budget)` slices, a twin with `step()`, and after every slice the
//! twin — stepped to the same `instr_count` — must agree on everything a
//! slice boundary exposes: frames, locals and operands of every frame,
//! thread state, `meter_ns`, `instr_count`, `max_height`, the outcome or
//! the `VmError`, and where an armed breakpoint tripped — and a slice that
//! spent its budget must have ended at the instruction that spent it.
//!
//! Programs are random *verified* methods over the window instruction set
//! plus static calls and returns, with loops (so call sites warm up and
//! calls and returns stay inside the loop) and with anomalies the verifier
//! does not see: ill-typed operands, local slots out of range, division by
//! zero (caught or not), call sites with the wrong arity, and `Ret` where
//! the caller expects a value (its next pop underflows). The anomaly
//! classes are also pinned one by one at the end of the file.
//!
//! They are dense in every fused run shape (`fastpath::Fused`): compares of
//! a local against a constant, a local or zero, `x ± y` left on the stack
//! or stored, and the store–load–store temp — over float and null locals
//! and slots at or past the end of the locals now and then, with constants
//! that do not fuse, and with branches into the middle of a run. Slices
//! run under several cost scales, in interpreted mode or not, so a cost-1
//! instruction charges 1, 12 or 18 ns and budgets end inside runs.
//!
//! The random programs call at most four methods deep, so a second family
//! recurses: `down(d)` hundreds of frames down and back — a slice starts
//! at every depth, outgrows the stack it opened on, returns into frames it
//! never opened — and `fib(n)` across, in both run modes and with a
//! breakpoint on the first pc of a callee and on the pc a return lands on.

use proptest::prelude::*;
use sod_vm::capture::{
    restore_segment_direct, CapturedFrame, CapturedState, CapturedValue, Frames,
};
use sod_vm::class::{ClassDef, ExEntry, ExKind, MethodDef};
use sod_vm::error::VmError;
use sod_vm::instr::{Cmp, Instr};
use sod_vm::interp::{RunMode, StepOutcome, Vm, MAX_STACK_SLOTS};
use sod_vm::value::Value;
use sod_vm::wire::{decode_state, encode_state};

const METHODS: usize = 4;
/// Slot 0 is the argument (int), 1 an int, 2 a float, 3 the loop counter.
const EXTRA_LOCALS: u16 = 3;
/// The random programs' methods have one local more, a null.
const NULL_SLOT: u16 = 1 + EXTRA_LOCALS;
const NLOCALS: u16 = NULL_SLOT + 1;
const CMPS: [Cmp; 6] = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];

/// Random choices, consumed in order (and again from the start if a
/// program asks for more than were drawn).
struct Choices<'a> {
    drawn: &'a [u32],
    at: usize,
}

impl Choices<'_> {
    fn below(&mut self, n: u32) -> u32 {
        let v = self.drawn[self.at % self.drawn.len()];
        self.at += 1;
        v % n
    }

    fn percent(&mut self, p: u32) -> bool {
        self.below(100) < p
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Ty {
    Int,
    Num,
}

/// One method under construction: code, one line per statement, handlers.
struct Body<'a, 'c> {
    class: &'a mut ClassDef,
    pick: &'a mut Choices<'c>,
    index: usize,
    code: Vec<Instr>,
    lines: Vec<u32>,
    line: u32,
    ex_table: Vec<ExEntry>,
}

impl Body<'_, '_> {
    fn emit(&mut self, i: Instr) {
        self.code.push(i);
        self.lines.push(self.line);
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Code that nets one operand, meant to be a `want` — now and then it
    /// is not, or names a slot the frame does not have.
    fn expr(&mut self, want: Ty, depth: u32) {
        if depth == 0 || self.pick.percent(35) {
            // One leaf in two hundred is an anomaly.
            let leaf = match (self.pick.below(600), want) {
                (0, _) => Instr::Load(9),
                (1, _) => Instr::PushNull,
                (2, Ty::Int) => Instr::PushF(1.5),
                (2, Ty::Num) => Instr::PushI(2),
                (n, Ty::Int) if n < 300 => Instr::PushI(i64::from(n % 8) - 2),
                (n, Ty::Int) => Instr::Load([0, 1, 3][n as usize % 3]),
                (n, Ty::Num) if n < 360 => Instr::PushF(f64::from(n % 7) * 0.5),
                (_, Ty::Num) => Instr::Load(2),
            };
            return self.emit(leaf);
        }
        match (self.pick.below(8), want) {
            (0, _) => {
                self.expr(want, depth - 1);
                self.emit(Instr::Neg);
            }
            (1, Ty::Int) => {
                self.expr(Ty::Num, depth - 1);
                self.emit(Instr::F2I);
            }
            (1, Ty::Num) => {
                self.expr(Ty::Int, depth - 1);
                self.emit(Instr::I2F);
            }
            (2, _) => {
                self.expr(want, depth - 1);
                self.emit(Instr::Dup);
                self.emit(Instr::Add);
            }
            (3, _) => {
                self.expr(want, depth - 1);
                self.expr(want, depth - 1);
                self.emit(Instr::Swap);
                self.emit(Instr::Sub);
            }
            (_, Ty::Int) => {
                self.expr(Ty::Int, depth - 1);
                self.expr(Ty::Int, depth - 1);
                let ops = [
                    Instr::Add,
                    Instr::Sub,
                    Instr::Mul,
                    Instr::Div,
                    Instr::Rem,
                    Instr::Shl,
                    Instr::Shr,
                    Instr::BAnd,
                    Instr::BOr,
                    Instr::BXor,
                ];
                let op = ops[self.pick.below(ops.len() as u32) as usize];
                self.emit(op);
            }
            (_, Ty::Num) => {
                self.expr(Ty::Num, depth - 1);
                self.expr(Ty::Num, depth - 1);
                let ops = [Instr::Add, Instr::Sub, Instr::Mul, Instr::Div, Instr::Rem];
                let op = ops[self.pick.below(ops.len() as u32) as usize];
                self.emit(op);
            }
        }
    }

    /// A local for a fused run to read: an int, now and then the float,
    /// the null, or a slot at or past the end of the locals.
    fn run_slot(&mut self) -> u16 {
        match self.pick.below(60) {
            0 => 2,
            1 => NULL_SLOT,
            2 => NLOCALS,
            3 => 9,
            n => [0, 1, 3][n as usize % 3],
        }
    }

    fn run_load(&mut self) {
        let slot = self.run_slot();
        self.emit(Instr::Load(slot));
    }

    /// A local for a fused run to store to (never the loop counter), now
    /// and then one past the end of the locals.
    fn run_dest(&mut self) -> u16 {
        match self.pick.below(40) {
            0 => NLOCALS,
            n => [0, 1, 1][n as usize % 3],
        }
    }

    /// A fused run's second operand: a local, or a constant — small, now
    /// and then `i32::MIN` (which fuses added but not subtracted) or one
    /// that does not fit an `i32` (which never fuses).
    fn run_operand(&mut self) {
        let konst = match self.pick.below(30) {
            0 => i64::from(i32::MIN),
            1 => 1 << 40,
            n => i64::from(n % 8) - 2,
        };
        let i = if self.pick.percent(50) {
            Instr::PushI(konst)
        } else {
            Instr::Load(self.run_slot())
        };
        self.emit(i);
    }

    fn add_or_sub(&mut self) -> Instr {
        if self.pick.percent(50) {
            Instr::Add
        } else {
            Instr::Sub
        }
    }

    /// A conditional branch over the code `then` emits. Sometimes the
    /// operands cannot be compared.
    fn branch_over(&mut self, then: impl FnOnce(&mut Self)) {
        let cmp = CMPS[self.pick.below(6) as usize];
        let make: fn(Cmp, u32) -> Instr = match self.pick.below(70) {
            0..=9 => {
                self.expr(Ty::Num, 1);
                self.expr(Ty::Num, 1);
                Instr::If
            }
            10..=19 => {
                self.expr(Ty::Int, 1);
                Instr::IfZ
            }
            20..=24 => {
                self.emit(Instr::PushNull);
                |_, t| Instr::IfNull(t)
            }
            25..=29 => {
                self.expr(Ty::Int, 0);
                |_, t| Instr::IfNonNull(t)
            }
            30 => {
                self.emit(Instr::PushNull);
                self.expr(Ty::Int, 0);
                Instr::If
            }
            // The fused compares: a local against a constant or a local,
            // or against zero.
            31..=44 => {
                self.run_load();
                self.run_operand();
                Instr::If
            }
            45..=54 => {
                self.run_load();
                Instr::IfZ
            }
            _ => {
                self.expr(Ty::Int, 1);
                self.expr(Ty::Int, 1);
                Instr::If
            }
        };
        let at = self.code.len();
        self.emit(make(cmp, 0));
        then(self);
        self.code[at] = make(cmp, self.here());
    }

    fn stmt(&mut self, nest: u32) {
        self.line += 1;
        let from = self.here();
        let catch = self.pick.percent(50);
        match self.pick.below(16) {
            0 | 1 => {
                let (ty, slot) = if self.pick.percent(60) {
                    (Ty::Int, 1)
                } else {
                    (Ty::Num, 2)
                };
                self.expr(ty, 3);
                self.emit(Instr::Store(slot));
            }
            2 if nest < 2 => {
                let n = 1 + self.pick.below(2);
                return self.branch_over(|b| (0..n).for_each(|_| b.stmt(nest + 1)));
            }
            // A counted loop; only top-level statements loop, on slot 3.
            3 | 4 if nest == 0 => {
                let passes = 1 + i64::from(self.pick.below(3));
                self.emit(Instr::PushI(passes));
                self.emit(Instr::Store(3));
                let top = self.here();
                for _ in 0..1 + self.pick.below(2) {
                    self.stmt(2);
                }
                self.line += 1;
                for i in [Instr::Load(3), Instr::PushI(1), Instr::Sub, Instr::Dup] {
                    self.emit(i);
                }
                self.emit(Instr::Store(3));
                self.emit(Instr::IfZ(Cmp::Gt, top));
                return;
            }
            5..=8 if self.index + 1 < METHODS => {
                let junk = self.pick.below(3);
                (0..junk).for_each(|j| self.emit(Instr::PushI(i64::from(j))));
                let callee =
                    self.index + 1 + self.pick.below((METHODS - self.index - 1) as u32) as usize;
                let (own, name) = (
                    self.class.intern("P"),
                    self.class.intern(&format!("m{callee}")),
                );
                // One site in a hundred passes two arguments to a method
                // of one.
                let nargs = if self.pick.below(100) == 0 { 2 } else { 1 };
                (0..nargs).for_each(|_| self.expr(Ty::Int, 1));
                self.emit(Instr::InvokeStatic(own, name, nargs));
                let keep = self.pick.percent(70);
                self.emit(if keep { Instr::Store(1) } else { Instr::Pop });
                (0..junk).for_each(|_| self.emit(Instr::Pop));
            }
            // An early return, under a branch or in a loop.
            9 if nest > 0 => {
                // One return in twenty hands nothing back.
                if self.pick.below(20) == 0 {
                    return self.emit(Instr::Ret);
                }
                self.expr(Ty::Int, 2);
                return self.emit(Instr::RetV);
            }
            10 => {
                self.emit(Instr::Nop);
                let next = self.here() + 1;
                return self.emit(Instr::Goto(next));
            }
            // `x ± y` into a local, or (unfused past the sum) negated first.
            12 | 13 => {
                self.run_load();
                self.run_operand();
                let op = self.add_or_sub();
                self.emit(op);
                if self.pick.percent(30) {
                    self.emit(Instr::Neg);
                }
                let d = self.run_dest();
                self.emit(Instr::Store(d));
            }
            // A value parked in a temp and copied on.
            14 => {
                self.expr(Ty::Int, 1);
                let (s, d) = (self.run_dest(), self.run_dest());
                for i in [Instr::Store(s), Instr::Load(s), Instr::Store(d)] {
                    self.emit(i);
                }
            }
            // A branch into the middle of a run: both ways reach its second
            // instruction with one operand pushed. The run either stores
            // `x ± y` or compares and branches over a marker.
            15 => {
                self.emit(Instr::PushI(5));
                self.run_load();
                let (cmp, at) = (CMPS[self.pick.below(6) as usize], self.code.len());
                self.emit(Instr::IfZ(cmp, 0));
                self.emit(Instr::Pop);
                self.run_load();
                self.code[at] = Instr::IfZ(cmp, self.here());
                self.run_operand();
                if self.pick.percent(50) {
                    let op = self.add_or_sub();
                    self.emit(op);
                    let d = self.run_dest();
                    self.emit(Instr::Store(d));
                } else {
                    let (cmp, at) = (CMPS[self.pick.below(6) as usize], self.code.len());
                    self.emit(Instr::If(cmp, 0));
                    self.emit(Instr::PushI(-3));
                    self.emit(Instr::Store(1));
                    self.code[at] = Instr::If(cmp, self.here());
                }
            }
            _ => {
                self.expr(Ty::Int, 1);
                self.expr(Ty::Int, 1);
                self.emit(Instr::Swap);
                self.emit(Instr::Pop);
                self.emit(Instr::Store(1));
            }
        }
        if catch {
            // The handler drops the exception, leaves a marker and rejoins.
            let to = self.here();
            self.emit(Instr::Goto(to + 4));
            self.ex_table
                .push(ExEntry::new(from, to, to + 1, ExKind::DivByZero));
            for i in [Instr::Pop, Instr::PushI(-1), Instr::Store(1)] {
                self.emit(i);
            }
        }
    }
}

fn program(drawn: &[u32]) -> ClassDef {
    let mut class = ClassDef::new("P");
    let mut pick = Choices { drawn, at: 0 };
    for index in 0..METHODS {
        let mut body = Body {
            class: &mut class,
            pick: &mut pick,
            index,
            code: Vec::new(),
            lines: Vec::new(),
            line: 0,
            ex_table: Vec::new(),
        };
        // Slots 1, 2 and the null slot start as what they are meant to hold.
        body.line += 1;
        for i in [
            Instr::PushI(2),
            Instr::Store(1),
            Instr::PushF(0.5),
            Instr::Store(2),
            Instr::PushNull,
            Instr::Store(NULL_SLOT),
        ] {
            body.emit(i);
        }
        for _ in 0..3 + body.pick.below(5) {
            body.stmt(0);
        }
        body.line += 1;
        body.emit(Instr::Load(1));
        body.emit(Instr::RetV);
        let m = MethodDef::new(format!("m{index}"), 1, NLOCALS - 1)
            .with_code(body.code, body.lines)
            .with_ex_table(body.ex_table);
        class.methods.push(m);
    }
    class
}

/// Where a case arms a breakpoint: for the running thread, or for another.
#[derive(Clone, Copy, Debug)]
enum Armed {
    Nowhere,
    Own(usize, u32),
    Other(usize, u32),
}

/// What `lockstep` saw: the terminal outcome or error, and the pc an own
/// breakpoint tripped at.
#[derive(Debug, PartialEq)]
struct Seen {
    end: Result<StepOutcome, VmError>,
    tripped_at: Option<u32>,
}

/// Values as `(kind, bits)`, so a NaN equals itself.
fn bits(values: &[Value]) -> Vec<(&'static str, u64)> {
    let one = |v: &Value| match *v {
        Value::Int(i) => ("int", i as u64),
        Value::Num(n) => ("num", n.to_bits()),
        Value::Ref(id) => ("ref", u64::from(id)),
        Value::Null => ("null", 0),
        Value::NulledRef(home) => ("nulled", u64::from(home)),
    };
    values.iter().map(one).collect()
}

fn assert_same_thread(fast: &Vm, twin: &Vm, tid: usize) {
    let (f, t) = (fast.thread(tid).unwrap(), twin.thread(tid).unwrap());
    assert_eq!(f.frames, t.frames);
    for fi in 0..f.frames.len() {
        assert_eq!(
            bits(f.locals(fi)),
            bits(t.locals(fi)),
            "locals of frame {fi}"
        );
        let (fo, to) = (bits(f.operands(fi)), bits(t.operands(fi)));
        assert_eq!(fo, to, "operands of frame {fi}");
    }
    assert_eq!(f.state, t.state);
    assert_eq!(f.max_height, t.max_height);
    assert_eq!(f.seg_frames, t.seg_frames);
    assert_eq!(
        (fast.meter_ns, fast.instr_count),
        (twin.meter_ns, twin.instr_count)
    );
    assert_eq!(fast.breakpoints_armed(), twin.breakpoints_armed());
}

/// Drive `fast` with `run` slices of the `budgets` in turn and `twin` with
/// `step`, comparing after every slice, until the thread ends (or has
/// retired enough to stop looking).
fn lockstep(fast: &mut Vm, twin: &mut Vm, tid: usize, budgets: &[u64], mode: RunMode) -> Seen {
    let mut tripped_at = None;
    for &budget in budgets.iter().cycle() {
        let meter_before = fast.meter_ns;
        let ran = fast.run(tid, budget, mode);
        let (mut last, mut last_began) = (None, twin.meter_ns);
        while twin.instr_count < fast.instr_count {
            last_began = twin.meter_ns;
            let stepped = twin.step(tid);
            assert!(
                !matches!(stepped, Ok(StepOutcome::Breakpoint { .. })),
                "the twin tripped a breakpoint the run loop ran past"
            );
            let failed = stepped.is_err();
            last = Some(stepped);
            if failed {
                break;
            }
        }
        // A breakpoint trips before its pc executes: the twin, now at the
        // same count, trips it on its next step.
        if let Ok((out @ StepOutcome::Breakpoint { .. }, _)) = &ran {
            assert_eq!(twin.step(tid).as_ref(), Ok(out));
        }
        assert_same_thread(fast, twin, tid);
        let (out, spent) = match ran {
            Ok(ran) => ran,
            Err(e) => {
                // An error that counts its instruction was the twin's last
                // step; one that does not (a bad pc) is its next.
                let twin_end = match last {
                    Some(Err(twin_e)) => Err(twin_e),
                    _ => twin.step(tid),
                };
                assert_eq!(twin_end, Err(e.clone()));
                assert_same_thread(fast, twin, tid);
                return Seen {
                    end: Err(e),
                    tripped_at,
                };
            }
        };
        assert_eq!(spent, fast.meter_ns - meter_before);
        match out {
            StepOutcome::Continue => {
                assert!(spent >= budget, "a slice ended early: {spent} < {budget}");
                // ... and not late: at the instruction that spent the budget.
                let began = last_began - meter_before;
                assert!(
                    began < budget,
                    "a slice ran on: {began} of {budget} spent before its last"
                );
                assert_eq!(last, Some(Ok(StepOutcome::Continue)));
            }
            StepOutcome::AtMsp { pc } => {
                assert_eq!(mode, RunMode::StopAtMsp);
                assert_eq!(twin.at_msp(tid), Ok(Some(pc)));
                // Step off the safe point, in both.
                let stepped = fast.step(tid);
                assert_eq!(stepped, twin.step(tid));
                assert_same_thread(fast, twin, tid);
                match stepped {
                    Ok(StepOutcome::Continue) => {}
                    Ok(StepOutcome::Breakpoint { pc, .. }) => {
                        assert_eq!(tripped_at.replace(pc), None, "tripped twice");
                    }
                    end => return Seen { end, tripped_at },
                }
            }
            StepOutcome::Breakpoint { pc, .. } => {
                assert_eq!(fast.thread(tid).unwrap().frames.last().unwrap().pc, pc);
                assert_eq!(tripped_at.replace(pc), None, "tripped twice");
            }
            end @ (StepOutcome::Returned(_) | StepOutcome::Unhandled(_)) => {
                assert_eq!(last, Some(Ok(end.clone())));
                return Seen {
                    end: Ok(end),
                    tripped_at,
                };
            }
            other => panic!("no instruction here parks a thread: {other:?}"),
        }
        if fast.instr_count > 200_000 {
            break;
        }
    }
    Seen {
        end: Ok(StepOutcome::Continue),
        tripped_at,
    }
}

/// A fast VM and its twin with `class` loaded, `entry(arg)` spawned as
/// thread 0, and an idle thread 1 for breakpoints that are not thread 0's.
fn twins(class: &ClassDef, entry: &str, arg: i64, armed: Armed) -> (Vm, Vm) {
    let build = || {
        let mut vm = Vm::new();
        let ci = vm.load_class(class).unwrap();
        for _ in 0..2 {
            vm.spawn(&class.name, entry, &[Value::Int(arg)]).unwrap();
        }
        match armed {
            Armed::Nowhere => {}
            Armed::Own(mi, pc) => vm.set_breakpoint(0, ci, mi, pc),
            Armed::Other(mi, pc) => vm.set_breakpoint(1, ci, mi, pc),
        }
        vm
    };
    (build(), build())
}

/// What a slice charges: the VM's cost scale (per mille) and whether the
/// thread runs in interpreted mode (twelve times the scale), so that an
/// instruction of unscaled cost 1 charges 1, 1, 1, 12, 12 or 18 ns and a
/// fused run of them k times that.
const COSTS: [(u32, bool); 6] = [
    (1000, false),
    (1005, false),
    (1500, false),
    (1000, true),
    (1005, true),
    (1500, true),
];

/// Give both VMs the cost scale and thread `tid` the mode of `costs`.
fn charging(vms: [&mut Vm; 2], tid: usize, (per_mille, interp): (u32, bool)) {
    for vm in vms {
        vm.cost_scale_per_mille = per_mille;
        vm.thread_mut(tid).unwrap().interp_mode = interp;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_slices_match_single_stepping(
        drawn in proptest::collection::vec(any::<u32>(), 160..161),
        budgets in proptest::collection::vec(1u64..90, 1..5),
        whole in 0u32..8,
        stop_at_msp in 0u32..2,
        armed in (0u32..3, 0usize..METHODS, 0u32..40),
        costs in 0usize..COSTS.len(),
    ) {
        let class = program(&drawn);
        let armed = match armed {
            (0, ..) => Armed::Nowhere,
            (who, mi, pc) => {
                let pc = pc % class.methods[mi].code.len() as u32;
                if who == 1 { Armed::Own(mi, pc) } else { Armed::Other(mi, pc) }
            }
        };
        // One case in eight runs the whole program in its first slice.
        let budgets = if whole == 0 { vec![u64::MAX] } else { budgets };
        let mode = if stop_at_msp == 1 { RunMode::StopAtMsp } else { RunMode::Normal };
        let (mut fast, mut twin) = twins(&class, "m0", 3, armed);
        charging([&mut fast, &mut twin], 0, COSTS[costs]);
        let seen = lockstep(&mut fast, &mut twin, 0, &budgets, mode);
        match armed {
            // Armed for the running thread: tripped where it was armed, or
            // never reached and still armed.
            Armed::Own(_, pc) => {
                prop_assert!(seen.tripped_at.is_none_or(|at| at == pc));
                prop_assert_eq!(fast.breakpoints_armed(), usize::from(seen.tripped_at.is_none()));
            }
            // Armed for another thread: this one never trips it.
            Armed::Other(..) => {
                prop_assert_eq!((seen.tripped_at, fast.breakpoints_armed()), (None, 1));
            }
            Armed::Nowhere => prop_assert_eq!(seen.tripped_at, None),
        }
    }
}

/// `main(x)`: warm up by calling `id(x)` three times in a loop (so the run
/// loop is taking calls and returns itself), then run the code `tail`
/// returns, at pc 11 (it may add methods for that code to call), then
/// return local 1.
fn after_warm_up(tail: impl FnOnce(&mut ClassDef) -> Vec<Instr>) -> ClassDef {
    let mut c = ClassDef::new("P");
    let (own, id) = (c.intern("P"), c.intern("id"));
    let mut code = vec![
        Instr::PushI(3),
        Instr::Store(3),
        Instr::Load(0), // 2
        Instr::InvokeStatic(own, id, 1),
        Instr::Store(1),
        Instr::Load(3),
        Instr::PushI(1),
        Instr::Sub,
        Instr::Dup,
        Instr::Store(3),
        Instr::IfZ(Cmp::Gt, 2),
    ];
    let main = c.methods.len();
    c.methods.push(MethodDef::new("main", 1, EXTRA_LOCALS));
    c.methods
        .push(MethodDef::new("id", 1, 0).with_code(vec![Instr::Load(0), Instr::RetV], vec![1, 2]));
    code.extend(tail(&mut c));
    code.extend([Instr::Load(1), Instr::RetV]);
    let lines = (1..=code.len() as u32).collect();
    c.methods[main] = MethodDef::new("main", 1, EXTRA_LOCALS).with_code(code, lines);
    c
}

/// Run `class` in lockstep under several slicings and both modes; every
/// one must end the same way.
fn ends(class: &ClassDef) -> Result<StepOutcome, VmError> {
    let mut all = Vec::new();
    for budgets in [&[u64::MAX][..], &[1], &[7, 2, 30]] {
        for mode in [RunMode::Normal, RunMode::StopAtMsp] {
            let (mut fast, mut twin) = twins(class, "main", 5, Armed::Nowhere);
            all.push(lockstep(&mut fast, &mut twin, 0, budgets, mode).end);
        }
    }
    all.dedup();
    assert_eq!(all.len(), 1, "slicing changed the ending: {all:?}");
    all.remove(0)
}

fn mismatch(expected: &'static str, found: &'static str) -> Result<StepOutcome, VmError> {
    Err(VmError::TypeMismatch { expected, found })
}

#[test]
fn every_anomaly_class_ends_as_single_stepping_does() {
    use Instr::*;
    let plain = |tail: &[Instr]| ends(&after_warm_up(|_| tail.to_vec()));
    // Sanity: the warm-up itself is fine.
    assert_eq!(plain(&[]), Ok(StepOutcome::Returned(Some(Value::Int(5)))));

    // A local slot outside the window, read and written.
    assert_eq!(plain(&[Load(4), Pop]), Err(VmError::BadLocalSlot(4)));
    assert_eq!(plain(&[PushI(1), Store(7)]), Err(VmError::BadLocalSlot(7)));

    // Operand underflow: `void` hands nothing back, so its caller's pop
    // finds the operand stack empty...
    let void = |c: &mut ClassDef| {
        c.methods
            .push(MethodDef::new("void", 0, 0).with_code(vec![Ret], vec![1]));
        (c.intern("P"), c.intern("void"))
    };
    let underflow = after_warm_up(|c| {
        let (own, void) = void(c);
        vec![InvokeStatic(own, void, 0), Pop]
    });
    assert_eq!(ends(&underflow), Err(VmError::StackUnderflow));
    // ... and so does a callee's `RetV`: there is no value to return.
    let empty_retv = after_warm_up(|c| {
        let (own, void) = void(c);
        let body = vec![InvokeStatic(own, void, 0), RetV];
        c.methods
            .push(MethodDef::new("bad", 1, 0).with_code(body, vec![1, 2]));
        vec![Load(0), InvokeStatic(own, c.intern("bad"), 1), Pop]
    });
    assert_eq!(ends(&empty_retv), Err(VmError::StackUnderflow));

    // Mixed-type arithmetic, bit ops, conversions and compares.
    let mixed = "matching numeric operands";
    assert_eq!(
        plain(&[PushI(1), PushF(2.0), Add, Pop]),
        mismatch(mixed, "int")
    );
    assert_eq!(
        plain(&[PushNull, PushF(2.0), Mul, Pop]),
        mismatch(mixed, "num")
    );
    assert_eq!(plain(&[PushNull, Neg, Pop]), mismatch("numeric", "null"));
    assert_eq!(
        plain(&[PushI(1), PushF(2.0), Shl, Pop]),
        mismatch("int", "num")
    );
    assert_eq!(
        plain(&[PushF(2.0), PushI(1), BAnd, Pop]),
        mismatch("int", "num")
    );
    assert_eq!(plain(&[PushF(2.0), I2F, Pop]), mismatch("int", "num"));
    assert_eq!(plain(&[PushI(2), F2I, Pop]), mismatch("num", "int"));
    let after = 11 + 3;
    assert_eq!(
        plain(&[PushI(1), PushNull, If(Cmp::Eq, after)]),
        mismatch("comparable operands", "int")
    );
    assert_eq!(
        plain(&[PushNull, IfZ(Cmp::Eq, after - 1)]),
        mismatch("int", "null")
    );

    // Division by zero is the guest's exception: unhandled here...
    for op in [Div, Rem] {
        let Ok(StepOutcome::Unhandled(e)) = plain(&[PushI(1), PushI(0), op, Pop]) else {
            panic!("{op:?} by zero should fault the thread");
        };
        assert_eq!((e.kind, e.pc), (ExKind::DivByZero, 13));
    }
    // ... and caught here, by a handler that sees none of the operands.
    let mut caught = after_warm_up(|_| vec![PushI(9), PushI(1), PushI(0), Div, Pop, Pop]);
    let m = &mut caught.methods[0];
    let end = m.code.len() as u32;
    m.code.extend([Store(2), PushI(-7), RetV]);
    m.lines = (1..=m.code.len() as u32).collect();
    m.ex_table = vec![ExEntry::new(11, end, end, ExKind::DivByZero)];
    assert_eq!(
        ends(&caught),
        Ok(StepOutcome::Returned(Some(Value::Int(-7))))
    );

    // A call site whose arity its callee does not share.
    let arity = after_warm_up(|c| {
        let (own, id) = (c.intern("P"), c.intern("id"));
        vec![PushI(1), PushI(2), InvokeStatic(own, id, 2), Pop]
    });
    assert_eq!(
        ends(&arity),
        Err(VmError::ArityMismatch {
            class: "P".into(),
            method: "id".into(),
            expected: 1,
            got: 2,
        })
    );
}

#[test]
fn unbounded_recursion_overflows_as_single_stepping_does() {
    // 62 locals + 2 header slots a frame: the limit falls some sixteen
    // thousand frames down, through a call site long since warm.
    let mut c = ClassDef::new("P");
    let (own, main) = (c.intern("P"), c.intern("main"));
    c.methods.push(MethodDef::new("main", 1, 61).with_code(
        vec![
            Instr::Load(0),
            Instr::InvokeStatic(own, main, 1),
            Instr::RetV,
        ],
        vec![1, 1, 2],
    ));
    for budgets in [&[u64::MAX][..], &[50_000, 13]] {
        let (mut fast, mut twin) = twins(&c, "main", 1, Armed::Nowhere);
        let seen = lockstep(&mut fast, &mut twin, 0, budgets, RunMode::Normal);
        assert_eq!(seen.end, Err(VmError::StackOverflow));
        let t = fast.thread(0).unwrap();
        assert_eq!(t.frames.len(), MAX_STACK_SLOTS / 64);
        // The thread stays at the Invoke it could not take.
        assert_eq!(t.frames.last().unwrap().pc, 1);
        assert_eq!(
            fast.run(0, 10, RunMode::Normal),
            Err(VmError::StackOverflow)
        );
    }
}

#[test]
fn a_pc_outside_the_method_is_an_error_and_costs_nothing() {
    let class = after_warm_up(|_| Vec::new());
    let (mut fast, mut twin) = twins(&class, "main", 5, Armed::Nowhere);
    for vm in [&mut fast, &mut twin] {
        vm.thread_mut(0).unwrap().frames[0].pc = 99;
    }
    let seen = lockstep(&mut fast, &mut twin, 0, &[u64::MAX], RunMode::StopAtMsp);
    assert_eq!(seen.end, Err(VmError::BadPc(99)));
    assert_eq!((fast.meter_ns, fast.instr_count), (0, 0));
}

/// `main(d)` = `down(d)` = `down(d - 1) + leaf(d)` = d (d + 1) / 2, one
/// frame per unit of `d`; `down(0)` runs `base`. `down` parks the sum in
/// local 1 and makes its second call from a frame that was just returned
/// into. Methods: `main` 0, `down` 1, `leaf` 2, `void` 3 (returns nothing).
fn recursion(base: &[Instr]) -> ClassDef {
    use Instr::*;
    let mut c = ClassDef::new("P");
    let (own, down, leaf) = (c.intern("P"), c.intern("down"), c.intern("leaf"));
    c.intern("void");
    let each_its_own_line = |code: &[Instr]| (1..=code.len() as u32).collect::<Vec<_>>();
    let main = vec![Load(0), InvokeStatic(own, down, 1), RetV];
    let mut body = vec![
        Load(0),
        IfZ(Cmp::Le, 12),
        Load(0),
        PushI(1),
        Sub,
        InvokeStatic(own, down, 1), // 5
        Store(1),                   // 6: where the recursion returns to
        Load(0),
        InvokeStatic(own, leaf, 1), // 8
        Load(1),
        Add,
        RetV,
    ];
    body.extend_from_slice(base);
    for (name, extra, code) in [
        ("main", 0, main),
        ("down", 1, body),
        ("leaf", 0, vec![Load(0), RetV]),
        ("void", 0, vec![Ret]),
    ] {
        let lines = each_its_own_line(&code);
        c.methods
            .push(MethodDef::new(name, 1, extra).with_code(code, lines));
    }
    c
}

/// `fib(n)`: the second call is made over an operand (the first call's
/// result) that stays the caller's.
fn fib() -> ClassDef {
    use Instr::*;
    let mut c = ClassDef::new("P");
    let (own, fib) = (c.intern("P"), c.intern("fib"));
    let code = vec![
        Load(0),
        PushI(2),
        If(Cmp::Lt, 13),
        Load(0),
        PushI(1),
        Sub,
        InvokeStatic(own, fib, 1), // 6
        Load(0),                   // 7
        PushI(2),
        Sub,
        InvokeStatic(own, fib, 1), // 10
        Add,
        RetV,
        Load(0), // 13
        RetV,
    ];
    let lines = (1..=code.len() as u32).collect();
    c.methods
        .push(MethodDef::new("fib", 1, 0).with_code(code, lines));
    c
}

const BOTH_MODES: [RunMode; 2] = [RunMode::Normal, RunMode::StopAtMsp];
/// Budget 1 ends a slice after every instruction — directly after each
/// call and each return, and so starts one at every depth, on a stack cut
/// back to its `sp`; the others end slices mid-frame, or never.
const SLICINGS: [&[u64]; 3] = [&[1], &[12, 6, 40], &[u64::MAX]];

#[test]
fn deep_recursion_matches_single_stepping_at_every_depth() {
    // 322 frames of two locals (and up to three operands) against a first
    // allocation of 16 frames and 64 slots.
    let depth = 320;
    let class = recursion(&[Instr::PushI(0), Instr::RetV]);
    let sum = Ok(StepOutcome::Returned(Some(Value::Int(
        depth * (depth + 1) / 2,
    ))));
    for budgets in SLICINGS {
        for mode in BOTH_MODES {
            // Own breakpoints: on the first pc of a callee, and on the pc
            // a return lands on (first reached 321 frames down).
            for armed in [
                Armed::Nowhere,
                Armed::Own(1, 0),
                Armed::Own(1, 6),
                Armed::Other(1, 6),
            ] {
                let (mut fast, mut twin) = twins(&class, "main", depth, armed);
                let seen = lockstep(&mut fast, &mut twin, 0, budgets, mode);
                assert_eq!(seen.end, sum, "{budgets:?} {mode:?} {armed:?}");
                let tripped = match armed {
                    Armed::Own(_, pc) => Some(pc),
                    _ => None,
                };
                assert_eq!(seen.tripped_at, tripped, "{budgets:?} {mode:?} {armed:?}");
                assert_eq!(fast.thread(0).unwrap().max_height, depth as usize + 2);
            }
        }
    }
}

#[test]
fn fib_shaped_recursion_matches_single_stepping() {
    let class = fib();
    for budgets in SLICINGS {
        for mode in BOTH_MODES {
            for armed in [Armed::Nowhere, Armed::Own(0, 7), Armed::Other(0, 7)] {
                for costs in COSTS {
                    let (mut fast, mut twin) = twins(&class, "fib", 11, armed);
                    charging([&mut fast, &mut twin], 0, costs);
                    let seen = lockstep(&mut fast, &mut twin, 0, budgets, mode);
                    assert_eq!(seen.end, Ok(StepOutcome::Returned(Some(Value::Int(89)))));
                    assert_eq!(fast.thread(0).unwrap().max_height, 11);
                }
            }
        }
    }
}

#[test]
fn a_restored_stack_unwinds_through_frames_its_thread_never_opened() {
    // 301 frames of `down` as a migrated segment: the thread arrives with a
    // stack exactly as long as its locals, so the first window and every
    // return's caller window outgrow it, and `seg_frames` falls with every
    // frame that is left.
    let class = recursion(&[Instr::PushI(0), Instr::RetV]);
    let depth = 300;
    let frame = |d: i64, pc| CapturedFrame {
        class: "P".into(),
        method: "down".into(),
        pc,
        locals: vec![CapturedValue::Int(d), CapturedValue::Int(0)],
    };
    let state = CapturedState {
        // Callers parked at their Invoke, the top frame at its first pc.
        frames: Frames::from_frames((0..depth).map(|i| frame(depth - i, 5)).chain([frame(0, 0)]))
            .unwrap(),
        statics: Vec::new(),
    };
    for budgets in SLICINGS {
        for mode in BOTH_MODES {
            let build = || {
                let mut vm = Vm::new();
                vm.load_class(&class).unwrap();
                assert_eq!(restore_segment_direct(&mut vm, &state), Ok(0));
                vm
            };
            let (mut fast, mut twin) = (build(), build());
            assert_eq!(fast.thread(0).unwrap().seg_frames, depth as usize + 1);
            let seen = lockstep(&mut fast, &mut twin, 0, budgets, mode);
            let sum = Value::Int(depth * (depth + 1) / 2);
            assert_eq!(seen.end, Ok(StepOutcome::Returned(Some(sum))));
        }
    }
}

#[test]
fn deep_anomalies_end_as_single_stepping_does() {
    use Instr::*;
    let depth = 300;
    // `down(0)` hands nothing back, so its caller — 301 frames up — stores
    // from an empty operand stack; or it returns what `void` handed back:
    // a value it does not have. Either way the thread stands where the
    // instruction that failed is.
    let mut names = recursion(&[]);
    let (own, void) = (names.intern("P"), names.intern("void"));
    let empty_retv = [Load(0), InvokeStatic(own, void, 1), RetV];
    for (base, standing) in [(&[Ret][..], 301), (&empty_retv, 302)] {
        let class = recursion(base);
        for budgets in SLICINGS {
            for armed in [Armed::Nowhere, Armed::Own(2, 0)] {
                let (mut fast, mut twin) = twins(&class, "main", depth, armed);
                let seen = lockstep(&mut fast, &mut twin, 0, budgets, RunMode::Normal);
                assert_eq!(seen.end, Err(VmError::StackUnderflow));
                assert_eq!(fast.thread(0).unwrap().frames.len(), standing);
            }
        }
    }

    // A return into a caller whose window (seven operands at its widest)
    // does not fit the stack as the slice found it, inside `id`.
    let mut wide = vec![Load(0), InvokeStatic(0, 0, 1)];
    wide.extend([PushI(1); 6]);
    wide.extend([Add; 6]);
    wide.push(Store(1));
    let wide = after_warm_up(|c| {
        wide[1] = InvokeStatic(c.intern("P"), c.intern("id"), 1);
        wide
    });
    assert_eq!(ends(&wide), Ok(StepOutcome::Returned(Some(Value::Int(11)))));
}

#[test]
fn a_warm_cross_class_call_with_the_wrong_arity_fails_every_time() {
    use Instr::*;
    let lib = ClassDef::new("Lib")
        .with_method(MethodDef::new("f", 1, 0).with_code(vec![Load(0), RetV], vec![1, 2]));
    let mut main = ClassDef::new("Main");
    let (lib_n, f) = (main.intern("Lib"), main.intern("f"));
    let code = vec![PushI(1), PushI(2), InvokeStatic(lib_n, f, 2), RetV];
    main.methods
        .push(MethodDef::new("main", 0, 0).with_code(code, vec![1, 1, 1, 2]));
    let build = || {
        let mut vm = Vm::new();
        vm.load_class(&lib).unwrap();
        vm.load_class(&main).unwrap();
        vm.spawn("Main", "main", &[]).unwrap();
        vm
    };
    let (mut fast, mut twin) = (build(), build());
    let wrong = VmError::ArityMismatch {
        class: "Lib".into(),
        method: "f".into(),
        expected: 1,
        got: 2,
    };
    // The first attempt resolves the site; the later ones find it warm.
    let seen = lockstep(&mut fast, &mut twin, 0, &[u64::MAX], RunMode::Normal);
    assert_eq!(seen.end, Err(wrong.clone()));
    for _ in 0..3 {
        assert_eq!(fast.run(0, 1, RunMode::Normal), Err(wrong.clone()));
        assert_eq!(twin.step(0), Err(wrong.clone()));
        assert_same_thread(&fast, &twin, 0);
        let t = fast.thread(0).unwrap();
        assert_eq!((t.frames.len(), t.frames[0].pc), (1, 2));
        assert_eq!(t.operands(0).len(), 2);
    }
}

#[test]
fn a_thread_without_frames_is_a_bad_thread_to_both_drivers() {
    // Constructible from bytes: a segment of no frames encodes, decodes
    // and restores.
    let empty = encode_state(&CapturedState::default()).unwrap();
    let state = decode_state(empty).unwrap();
    let mut vm = Vm::new();
    assert_eq!(restore_segment_direct(&mut vm, &state), Ok(0));
    for mode in BOTH_MODES {
        assert_eq!(vm.run(0, 100, mode), Err(VmError::BadThread(0)));
        assert_eq!(vm.step(0), Err(VmError::BadThread(0)));
        let t = vm.thread(0).unwrap();
        assert!(t.is_runnable() && t.frames.is_empty());
        assert_eq!((vm.meter_ns, vm.instr_count), (0, 0));
    }
}
