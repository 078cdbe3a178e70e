//! Property-based tests for the SOD preprocessing pipeline.
//!
//! Random straight-line-with-loops programs are generated over numeric
//! locals, two heap objects, an array, a static field, and a helper call.
//! For every generated program we check, across random interruption points:
//!
//! 1. **Rearrangement preserves semantics** — original and preprocessed
//!    classes compute the same result.
//! 2. **Statement starts have empty operand stacks** after rearrangement
//!    (the migration-safe-point invariant).
//! 3. **Capture → direct restore is lossless** — run to a random MSP,
//!    capture the whole stack, restore on a fresh VM, serve object faults
//!    from the suspended home VM, and the final result matches the
//!    uninterrupted run. This exercises the complete object-faulting
//!    protocol (nulled refs, `BringObj*`, home fetch, install, retry).

use proptest::prelude::*;

use sod_preprocess::{preprocess, Options};
use sod_vm::capture::{capture_segment, restore_segment_direct};
use sod_vm::class::ClassDef;
use sod_vm::error::VmError;
use sod_vm::instr::Cmp;
use sod_vm::interp::{RunMode, StepOutcome, Vm};
use sod_vm::tooling::ToolingPath;
use sod_vm::value::{TypeOf, Value};
use sod_vm::wire::{extract_object, install_object};

use sod_asm::builder::{ClassBuilder, MethodBuilder};

const NUM_VARS: u8 = 4;
const ARR_LEN: i64 = 8;

#[derive(Debug, Clone)]
enum Expr {
    Const(i64),
    Var(u8),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Helper(Box<Expr>),
    FieldOf(u8),
    StaticRead,
    ArrAt(u8),
    GetX(u8),
}

#[derive(Debug, Clone)]
enum Stmt {
    Assign(u8, Expr),
    StaticPut(u8),
    PutField(u8, u8),
    ArrPut(u8, u8),
    Loop { times: u8, var: u8 },
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-50i64..50).prop_map(Expr::Const),
        (0..NUM_VARS).prop_map(Expr::Var),
        (0..2u8).prop_map(Expr::FieldOf),
        Just(Expr::StaticRead),
        (0..ARR_LEN as u8).prop_map(Expr::ArrAt),
        (0..2u8).prop_map(Expr::GetX),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            inner.prop_map(|e| Expr::Helper(Box::new(e))),
        ]
    })
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        ((0..NUM_VARS), expr_strategy()).prop_map(|(d, e)| Stmt::Assign(d, e)),
        (0..NUM_VARS).prop_map(Stmt::StaticPut),
        ((0..2u8), (0..NUM_VARS)).prop_map(|(o, s)| Stmt::PutField(o, s)),
        ((0..ARR_LEN as u8), (0..NUM_VARS)).prop_map(|(i, s)| Stmt::ArrPut(i, s)),
        ((1..6u8), (0..NUM_VARS)).prop_map(|(t, v)| Stmt::Loop { times: t, var: v }),
    ]
}

fn var(i: u8) -> String {
    format!("v{i}")
}

fn obj(i: u8) -> String {
    format!("o{}", i % 2)
}

fn emit_expr(m: &mut MethodBuilder, e: &Expr) {
    match e {
        Expr::Const(c) => {
            m.pushi(*c);
        }
        Expr::Var(v) => {
            m.load(&var(*v));
        }
        Expr::Add(a, b) => {
            emit_expr(m, a);
            emit_expr(m, b);
            m.add();
        }
        Expr::Mul(a, b) => {
            emit_expr(m, a);
            emit_expr(m, b);
            m.mul();
        }
        Expr::Helper(a) => {
            emit_expr(m, a);
            m.invoke("G", "helper", 1);
        }
        Expr::FieldOf(o) => {
            m.load(&obj(*o)).getfield("x");
        }
        Expr::StaticRead => {
            m.getstatic("G", "s0");
        }
        Expr::ArrAt(i) => {
            m.load("arr").pushi(i64::from(*i)).aload();
        }
        Expr::GetX(o) => {
            m.load(&obj(*o)).invokev("getx", 1);
        }
    }
}

/// Render the program. The prologue allocates both objects and the array so
/// local dereferences never NPE; the epilogue folds all state into one int.
fn render(stmts: &[Stmt]) -> ClassDef {
    ClassBuilder::new("G")
        .field("x", TypeOf::Int)
        .static_field("s0", TypeOf::Int)
        .method("helper", &["h"], |m| {
            m.line();
            m.load("h").pushi(2).mul().pushi(1).add().retv();
        })
        .vmethod("getx", &[], |m| {
            m.line();
            m.load("this").getfield("x").retv();
        })
        .method("main", &["v0", "v1"], |m| {
            m.line();
            m.new_obj("G").store("o0");
            m.line();
            m.new_obj("G").store("o1");
            m.line();
            m.pushi(ARR_LEN).newarr().store("arr");
            m.line();
            m.pushi(3).store("v2");
            m.line();
            m.pushi(-7).store("v3");
            for (si, s) in stmts.iter().enumerate() {
                match s {
                    Stmt::Assign(d, e) => {
                        m.line();
                        emit_expr(m, e);
                        m.store(&var(*d));
                    }
                    Stmt::StaticPut(v) => {
                        m.line();
                        m.load(&var(*v)).putstatic("G", "s0");
                    }
                    Stmt::PutField(o, v) => {
                        m.line();
                        m.load(&obj(*o)).load(&var(*v)).putfield("x");
                    }
                    Stmt::ArrPut(i, v) => {
                        m.line();
                        m.load("arr").pushi(i64::from(*i)).load(&var(*v)).astore();
                    }
                    Stmt::Loop { times, var: v } => {
                        let lv = format!("li{si}");
                        let l_top = format!("lt{si}");
                        let l_end = format!("le{si}");
                        m.line();
                        m.pushi(0).store(&lv);
                        m.line();
                        m.label(&l_top);
                        m.load(&lv).pushi(i64::from(*times)).if_cmp(Cmp::Ge, &l_end);
                        m.line();
                        m.load(&var(*v)).pushi(1).add().store(&var(*v));
                        m.line();
                        m.load(&lv).pushi(1).add().store(&lv).goto(&l_top);
                        m.line();
                        m.label(&l_end);
                        m.nop();
                    }
                }
            }
            // Fold everything into the return value.
            m.line();
            m.load("v0").load("v1").add().store("ret");
            m.line();
            m.load("ret").load("v2").add().load("v3").add().store("ret");
            m.line();
            m.load("o0").getfield("x").store("f0");
            m.line();
            m.load("o1").invokev("getx", 1).store("f1");
            m.line();
            m.load("arr").pushi(0).aload().store("a0");
            m.line();
            m.getstatic("G", "s0").store("st");
            m.line();
            m.load("ret")
                .load("f0")
                .add()
                .load("f1")
                .add()
                .load("a0")
                .add()
                .load("st")
                .add()
                .retv();
        })
        .build()
        .expect("generated program verifies")
}

fn run_plain(class: &ClassDef, a: i64, b: i64) -> Option<Value> {
    let mut vm = Vm::new();
    vm.load_class(class).unwrap();
    vm.run_to_completion("G", "main", &[Value::Int(a), Value::Int(b)])
        .unwrap()
}

/// Run the preprocessed program, interrupt after `steps`, capture at the
/// next MSP, restore on a fresh worker, serve object faults from the
/// suspended home VM. Returns the worker's final result (or the home result
/// if the program finished before the interruption point).
fn run_with_migration(class: &ClassDef, a: i64, b: i64, steps: usize) -> Option<Value> {
    let mut home = Vm::new();
    home.load_class(class).unwrap();
    let tid = home
        .spawn("G", "main", &[Value::Int(a), Value::Int(b)])
        .unwrap();

    for _ in 0..steps {
        match home.step(tid) {
            Ok(StepOutcome::Returned(v)) => return v,
            Ok(_) => {}
            Err(e) => panic!("home step failed: {e}"),
        }
        if home.thread(tid).unwrap().is_finished() {
            break;
        }
    }
    if let sod_vm::interp::ThreadState::Finished(v) = &home.thread(tid).unwrap().state {
        return *v;
    }

    let (out, _) = home.run(tid, u64::MAX, RunMode::StopAtMsp).unwrap();
    match out {
        StepOutcome::AtMsp { .. } => {}
        StepOutcome::Returned(v) => return v,
        other => panic!("unexpected outcome seeking MSP: {other:?}"),
    }

    let height = home.thread(tid).unwrap().frames.len();
    let (state, _) = capture_segment(&mut home, tid, height, ToolingPath::Jvmti).unwrap();

    let mut worker = Vm::new();
    worker.load_class(class).unwrap();
    let wtid = restore_segment_direct(&mut worker, &state).unwrap();
    loop {
        let (out, _) = worker.run(wtid, u64::MAX, RunMode::Normal).unwrap();
        match out {
            StepOutcome::Returned(v) => return v,
            StepOutcome::ObjectFault(q) => {
                let wire = extract_object(&home.heap, q.home_id).expect("home object");
                let local = install_object(&mut worker.heap, &wire).unwrap();
                worker.resume_fetched(wtid, local).unwrap();
            }
            other => panic!("worker stuck: {other:?}"),
        }
    }
}

fn count_faults(class: &ClassDef, a: i64, b: i64, steps: usize) -> (Option<Value>, usize) {
    // Like run_with_migration but counting faults; duplicated for clarity.
    let mut home = Vm::new();
    home.load_class(class).unwrap();
    let tid = home
        .spawn("G", "main", &[Value::Int(a), Value::Int(b)])
        .unwrap();
    for _ in 0..steps {
        if home.thread(tid).unwrap().is_finished() {
            break;
        }
        let _ = home.step(tid).unwrap();
    }
    if let sod_vm::interp::ThreadState::Finished(v) = &home.thread(tid).unwrap().state {
        return (*v, 0);
    }
    let (out, _) = home.run(tid, u64::MAX, RunMode::StopAtMsp).unwrap();
    if let StepOutcome::Returned(v) = out {
        return (v, 0);
    }
    let height = home.thread(tid).unwrap().frames.len();
    let (state, _) = capture_segment(&mut home, tid, height, ToolingPath::Jvmti).unwrap();
    let mut worker = Vm::new();
    worker.load_class(class).unwrap();
    let wtid = restore_segment_direct(&mut worker, &state).unwrap();
    let mut faults = 0;
    loop {
        let (out, _) = worker.run(wtid, u64::MAX, RunMode::Normal).unwrap();
        match out {
            StepOutcome::Returned(v) => return (v, faults),
            StepOutcome::ObjectFault(q) => {
                faults += 1;
                let wire = extract_object(&home.heap, q.home_id).expect("home object");
                let local = install_object(&mut worker.heap, &wire).unwrap();
                worker.resume_fetched(wtid, local).unwrap();
            }
            other => panic!("worker stuck: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rearrangement_preserves_semantics(
        stmts in proptest::collection::vec(stmt_strategy(), 1..10),
        a in -100i64..100,
        b in -100i64..100,
    ) {
        let original = render(&stmts);
        let (processed, _) = preprocess(&original, &Options::rearrange_only()).unwrap();
        prop_assert_eq!(run_plain(&original, a, b), run_plain(&processed, a, b));
    }

    #[test]
    fn full_pipeline_preserves_semantics_locally(
        stmts in proptest::collection::vec(stmt_strategy(), 1..10),
        a in -100i64..100,
        b in -100i64..100,
    ) {
        let original = render(&stmts);
        let (processed, _) = preprocess(&original, &Options::sod()).unwrap();
        prop_assert_eq!(run_plain(&original, a, b), run_plain(&processed, a, b));
        let (checked, _) = preprocess(&original, &Options::status_checks()).unwrap();
        prop_assert_eq!(run_plain(&original, a, b), run_plain(&checked, a, b));
    }

    #[test]
    fn statement_starts_have_empty_stacks(
        stmts in proptest::collection::vec(stmt_strategy(), 1..10),
    ) {
        let original = render(&stmts);
        let (processed, _) = preprocess(&original, &Options::sod()).unwrap();
        for m in &processed.methods {
            let s = sod_vm::analysis::method_summary(&processed, m).unwrap();
            for pc in 0..m.code.len() as u32 {
                if m.is_line_start(pc) && m.line_of(pc) <= m.line_of(m.code.len() as u32 - 1) {
                    if let Some(d) = s.depth[pc as usize] {
                        // Handler entries are covered by exception-table
                        // seeding (depth 1); skip pcs that are handler
                        // targets.
                        let is_handler = m.ex_table.iter().any(|e| e.target == pc);
                        if !is_handler {
                            prop_assert_eq!(d, 0, "pc {} in {}", pc, m.name);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn migration_at_any_point_preserves_result(
        stmts in proptest::collection::vec(stmt_strategy(), 1..8),
        a in -100i64..100,
        b in -100i64..100,
        steps in 0usize..400,
    ) {
        let original = render(&stmts);
        let (processed, _) = preprocess(&original, &Options::sod()).unwrap();
        let expected = run_plain(&processed, a, b);
        let migrated = run_with_migration(&processed, a, b, steps);
        prop_assert_eq!(expected, migrated);
    }
}

#[test]
fn faults_occur_and_resolve() {
    // Deterministic sanity: a program whose epilogue touches both objects,
    // the array, and the static after migration must fault at least twice
    // and still compute the right result.
    let stmts = vec![
        Stmt::Assign(0, Expr::Helper(Box::new(Expr::Var(1)))),
        Stmt::PutField(0, 0),
        Stmt::ArrPut(3, 1),
        Stmt::StaticPut(0),
    ];
    let original = render(&stmts);
    let (processed, _) = preprocess(&original, &Options::sod()).unwrap();
    let expected = run_plain(&processed, 11, 4);
    // Sweep interruption points; at least one migration (right after the
    // prologue) must fault on several of {o0, o1, arr}.
    let mut max_faults = 0;
    for steps in [15, 20, 25, 30, 35, 45] {
        let (migrated, faults) = count_faults(&processed, 11, 4, steps);
        assert_eq!(expected, migrated, "divergence at steps={steps}");
        max_faults = max_faults.max(faults);
    }
    assert!(
        max_faults >= 2,
        "expected real object faults, got {max_faults}"
    );
}

#[test]
fn capture_anywhere_fails_cleanly_off_msp() {
    // Capturing off-MSP must be refused, never silently wrong.
    let stmts = vec![Stmt::Assign(0, Expr::Helper(Box::new(Expr::Var(1))))];
    let original = render(&stmts);
    let (processed, _) = preprocess(&original, &Options::sod()).unwrap();
    let mut vm = Vm::new();
    vm.load_class(&processed).unwrap();
    let tid = vm
        .spawn("G", "main", &[Value::Int(1), Value::Int(2)])
        .unwrap();
    let mut refused = 0;
    let mut allowed = 0;
    for _ in 0..200 {
        if vm.thread(tid).unwrap().is_finished() {
            break;
        }
        match capture_segment(&mut vm, tid, 1, ToolingPath::Jvmti) {
            Ok(_) => allowed += 1,
            Err(VmError::NotAtMigrationSafePoint { .. }) => refused += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
        vm.step(tid).unwrap();
    }
    assert!(allowed > 0, "some points must be migration-safe");
    assert!(refused > 0, "some points must be refused");
}
