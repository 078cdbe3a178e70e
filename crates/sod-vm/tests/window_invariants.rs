//! Property test for the value-stack window layout (see `frame.rs`): random
//! programs of calls, returns and throws — junk operands left under every
//! call so callee windows open in the middle of a caller's operand stack,
//! handlers at random depths so unwinding cuts across several windows —
//! run slice by slice in a fast VM and a reference VM. After every slice
//! both must agree on every observable (outcome, meters, frames, locals,
//! operands), and the fast VM's frames must tile its value stack exactly:
//! each window starts where the one below ends, and the state-size formula
//! over the whole stack equals the per-frame sum.

use proptest::prelude::*;
use sod_vm::class::{ClassDef, ExEntry, ExKind, MethodDef};
use sod_vm::instr::Instr;
use sod_vm::interp::{RunMode, StepOutcome, Vm};
use sod_vm::value::Value;

const METHODS: usize = 5;
const KINDS: [ExKind; 2] = [ExKind::DivByZero, ExKind::User(3)];

/// One statement of a generated method body. Every statement starts and
/// ends with an empty operand stack.
#[derive(Clone, Debug)]
enum Stmt {
    /// Push `junk` operands, call a later method with local 0, store the
    /// result in local 1, pop the junk. With `catch`, the statement sits
    /// under a handler for that kind which stores a marker instead.
    Call {
        callee: usize,
        junk: usize,
        catch: Option<usize>,
    },
    /// Push `junk` operands and throw.
    Throw { junk: usize, kind: usize },
    /// Return local 1 early.
    Ret,
}

fn stmt() -> impl Strategy<Value = Stmt> {
    let call = || {
        (0usize..METHODS, 0usize..4, 0usize..KINDS.len() + 1).prop_map(|(callee, junk, c)| {
            Stmt::Call {
                callee,
                junk,
                catch: (c < KINDS.len()).then_some(c),
            }
        })
    };
    // Calls weigh six to one: deep stacks are what the layout is about.
    prop_oneof![
        call(),
        call(),
        call(),
        call(),
        call(),
        call(),
        (0usize..4, 0usize..KINDS.len()).prop_map(|(junk, kind)| Stmt::Throw { junk, kind }),
        Just(Stmt::Ret),
    ]
}

/// Assemble method `index` (one argument, `2 + extra` locals) from `body`.
/// Calls only go to later methods, so every program terminates; the last
/// method has nobody to call and turns its calls into plain junk traffic.
fn method(class: &mut ClassDef, index: usize, extra: u16, body: &[Stmt]) -> MethodDef {
    let own = class.intern("P");
    let mut code = Vec::new();
    let mut ex_table = Vec::new();
    for s in body {
        match *s {
            Stmt::Call {
                callee,
                junk,
                catch,
            } => {
                let from = code.len() as u32;
                code.extend((0..junk).map(|j| Instr::PushI(j as i64)));
                let later = index + 1 + callee % (METHODS - index);
                if later < METHODS {
                    let name = class.intern(&format!("m{later}"));
                    code.extend([Instr::Load(0), Instr::InvokeStatic(own, name, 1)]);
                } else {
                    code.push(Instr::PushI(index as i64));
                }
                code.push(Instr::Store(1));
                code.extend((0..junk).map(|_| Instr::Pop));
                if let Some(kind) = catch {
                    // from..to covers the statement; the handler drops the
                    // exception, leaves a marker and rejoins after it.
                    let to = code.len() as u32;
                    code.push(Instr::Goto(to + 4));
                    ex_table.push(ExEntry::new(from, to, to + 1, KINDS[kind]));
                    code.extend([Instr::Pop, Instr::PushI(-1), Instr::Store(1)]);
                }
            }
            Stmt::Throw { junk, kind } => {
                code.extend((0..junk).map(|j| Instr::PushI(j as i64)));
                code.push(Instr::ThrowKind(KINDS[kind]));
            }
            Stmt::Ret => code.extend([Instr::Load(1), Instr::RetV]),
        }
    }
    code.extend([Instr::Load(1), Instr::RetV]);
    let lines = (1..=code.len() as u32).collect();
    MethodDef::new(format!("m{index}"), 1, 1 + extra)
        .with_code(code, lines)
        .with_ex_table(ex_table)
}

fn program(bodies: &[(u16, Vec<Stmt>)]) -> ClassDef {
    let mut class = ClassDef::new("P");
    for (index, (extra, body)) in bodies.iter().enumerate() {
        let m = method(&mut class, index, *extra, body);
        class.methods.push(m);
    }
    class
}

/// The frames of `vm`'s thread tile its value stack, and the whole-stack
/// state size equals the per-frame sum.
fn assert_windows_tile(vm: &Vm, tid: usize) {
    let t = vm.thread(tid).unwrap();
    let mut end = 0;
    let mut bytes = 0;
    for (fi, f) in t.frames.iter().enumerate() {
        assert_eq!(f.base, end, "frame {fi} starts where the one below ends");
        assert_eq!(t.locals(fi).len(), usize::from(f.nlocals));
        end = f.floor() + t.operands(fi).len();
        bytes += (t.locals(fi).len() + t.operands(fi).len()) as u64 * 8 + 16;
    }
    assert_eq!(t.stack_state_bytes(), bytes);
    assert!(t.max_height >= t.frames.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn windows_tile_and_match_the_reference(
        bodies in proptest::collection::vec(
            (0u16..3, proptest::collection::vec(stmt(), 1..8)),
            METHODS..METHODS + 1,
        ),
        slice in 1u64..60,
    ) {
        let class = program(&bodies);
        let mut fast = Vm::new();
        let mut slow = Vm::reference();
        fast.load_class(&class).unwrap();
        slow.load_class(&class).unwrap();
        let ft = fast.spawn("P", "m0", &[Value::Int(9)]).unwrap();
        let st = slow.spawn("P", "m0", &[Value::Int(9)]).unwrap();
        loop {
            let (fo, fspent) = fast.run(ft, slice, RunMode::Normal).unwrap();
            let (so, sspent) = slow.run(st, slice, RunMode::Normal).unwrap();
            prop_assert_eq!(&fo, &so);
            prop_assert_eq!(fspent, sspent);
            prop_assert_eq!((fast.meter_ns, fast.instr_count), (slow.meter_ns, slow.instr_count));
            let (f, s) = (fast.thread(ft).unwrap(), slow.thread(st).unwrap());
            prop_assert_eq!(&f.frames, &s.frames);
            for fi in 0..f.frames.len() {
                prop_assert_eq!(f.locals(fi), s.locals(fi));
                prop_assert_eq!(f.operands(fi), s.operands(fi));
            }
            prop_assert_eq!(f.max_height, s.max_height);
            assert_windows_tile(&fast, ft);
            match fo {
                StepOutcome::Continue => {}
                // A clean finish hands the whole stack back; an escaped
                // exception keeps its frames for inspection.
                StepOutcome::Returned(_) => {
                    prop_assert_eq!(f.stack_state_bytes(), 0);
                    break;
                }
                StepOutcome::Unhandled(_) => {
                    prop_assert!(!f.frames.is_empty());
                    break;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }
}
