//! Intrinsic ("native") methods.
//!
//! Intrinsics come in two flavours:
//!
//! * **Pure intrinsics** run inline in the VM: math helpers, string
//!   operations, and `print` (which appends to the VM's captured stdout).
//!   They have no host-visible side effects, so a frame suspended right
//!   before one is still migration-safe.
//! * **Host intrinsics** (anything not in the pure registry — file system,
//!   sockets, clocks) park the thread and surface as
//!   [`StepOutcome::HostCall`](crate::interp::StepOutcome::HostCall). The
//!   distributed runtime answers them, charging virtual time as appropriate.
//!   This mirrors the paper's treatment of native methods: execution state
//!   inside a native method is machine-dependent and non-migratable, so
//!   migration-safe points are "right outside a native method".

use crate::error::{VmError, VmResult};
use crate::heap::Heap;
use crate::value::Value;

/// Result of attempting to evaluate an intrinsic inline.
pub enum IntrinsicEval {
    /// Pure intrinsic evaluated; push this value.
    Done(Value),
    /// Not a pure intrinsic; the caller must surface a host call.
    Host,
}

/// Evaluate a pure intrinsic, or report that it must go to the host.
///
/// `stdout` collects `print` output so tests can assert on program output
/// without real I/O.
pub fn eval(
    name: &str,
    args: &[Value],
    heap: &mut Heap,
    stdout: &mut Vec<String>,
) -> VmResult<IntrinsicEval> {
    let need = |n: usize| -> VmResult<()> {
        if args.len() != n {
            Err(VmError::UnknownIntrinsic(format!(
                "{name}: expected {n} args, got {}",
                args.len()
            )))
        } else {
            Ok(())
        }
    };

    let v = match name {
        "sqrt" => {
            need(1)?;
            Value::Num(args[0].as_num()?.sqrt())
        }
        "sin" => {
            need(1)?;
            Value::Num(args[0].as_num()?.sin())
        }
        "cos" => {
            need(1)?;
            Value::Num(args[0].as_num()?.cos())
        }
        "pow" => {
            need(2)?;
            Value::Num(args[0].as_num()?.powf(args[1].as_num()?))
        }
        "abs" => {
            need(1)?;
            Value::Int(args[0].as_int()?.wrapping_abs())
        }
        "fabs" => {
            need(1)?;
            Value::Num(args[0].as_num()?.abs())
        }
        "floor" => {
            need(1)?;
            Value::Num(args[0].as_num()?.floor())
        }
        "min" => {
            need(2)?;
            Value::Int(args[0].as_int()?.min(args[1].as_int()?))
        }
        "max" => {
            need(2)?;
            Value::Int(args[0].as_int()?.max(args[1].as_int()?))
        }
        "fmin" => {
            need(2)?;
            Value::Num(args[0].as_num()?.min(args[1].as_num()?))
        }
        "fmax" => {
            need(2)?;
            Value::Num(args[0].as_num()?.max(args[1].as_num()?))
        }
        "print" => {
            need(1)?;
            let text = match args[0] {
                Value::Ref(id) => heap
                    .get_str(id)
                    .map(str::to_owned)
                    .unwrap_or_else(|_| format!("@{id}")),
                other => other.to_string(),
            };
            stdout.push(text);
            Value::Int(0)
        }
        "str_len" => {
            need(1)?;
            Value::Int(heap.get_str(args[0].as_ref_id()?)?.len() as i64)
        }
        "str_eq" => {
            need(2)?;
            let a = heap.get_str(args[0].as_ref_id()?)?;
            let b = heap.get_str(args[1].as_ref_id()?)?;
            Value::from(a == b)
        }
        "str_concat" => {
            need(2)?;
            let a = heap.get_str(args[0].as_ref_id()?)?.to_owned();
            let b = heap.get_str(args[1].as_ref_id()?)?;
            let joined = a + b;
            Value::Ref(heap.alloc_str(&joined)?)
        }
        "str_char_at" => {
            need(2)?;
            let s = heap.get_str(args[0].as_ref_id()?)?;
            let i = args[1].as_int()?;
            let b = s.as_bytes().get(i as usize).copied().unwrap_or(0);
            Value::Int(b as i64)
        }
        "str_find" => {
            need(2)?;
            let hay = heap.get_str(args[0].as_ref_id()?)?;
            let needle = heap.get_str(args[1].as_ref_id()?)?;
            Value::Int(hay.find(needle).map(|i| i as i64).unwrap_or(-1))
        }
        "str_sub" => {
            need(3)?;
            let s = heap.get_str(args[0].as_ref_id()?)?;
            let from = (args[1].as_int()?.max(0) as usize).min(s.len());
            let to = (args[2].as_int()?.max(0) as usize).clamp(from, s.len());
            let sub = s[from..to].to_owned();
            Value::Ref(heap.alloc_str(&sub)?)
        }
        "int_to_str" => {
            need(1)?;
            let s = args[0].as_int()?.to_string();
            Value::Ref(heap.alloc_str(&s)?)
        }
        "num_to_str" => {
            need(1)?;
            let s = args[0].as_num()?.to_string();
            Value::Ref(heap.alloc_str(&s)?)
        }
        "str_to_int" => {
            need(1)?;
            let s = heap.get_str(args[0].as_ref_id()?)?;
            Value::Int(s.trim().parse::<i64>().unwrap_or(0))
        }
        _ => return Ok(IntrinsicEval::Host),
    };
    Ok(IntrinsicEval::Done(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Heap {
        Heap::new()
    }

    #[test]
    fn math_intrinsics() {
        let mut h = heap();
        let mut out = Vec::new();
        match eval("sqrt", &[Value::Num(9.0)], &mut h, &mut out).unwrap() {
            IntrinsicEval::Done(Value::Num(n)) => assert_eq!(n, 3.0),
            _ => panic!(),
        }
        match eval("max", &[Value::Int(3), Value::Int(8)], &mut h, &mut out).unwrap() {
            IntrinsicEval::Done(v) => assert_eq!(v, Value::Int(8)),
            _ => panic!(),
        }
    }

    #[test]
    fn string_intrinsics() {
        let mut h = heap();
        let mut out = Vec::new();
        let a = Value::Ref(h.alloc_str("hello ").unwrap());
        let b = Value::Ref(h.alloc_str("world").unwrap());
        let joined = match eval("str_concat", &[a, b], &mut h, &mut out).unwrap() {
            IntrinsicEval::Done(Value::Ref(id)) => id,
            _ => panic!(),
        };
        assert_eq!(h.get_str(joined).unwrap(), "hello world");
        match eval("str_find", &[Value::Ref(joined), b], &mut h, &mut out).unwrap() {
            IntrinsicEval::Done(v) => assert_eq!(v, Value::Int(6)),
            _ => panic!(),
        }
        match eval("str_len", &[Value::Ref(joined)], &mut h, &mut out).unwrap() {
            IntrinsicEval::Done(v) => assert_eq!(v, Value::Int(11)),
            _ => panic!(),
        }
    }

    #[test]
    fn print_captures_output() {
        let mut h = heap();
        let mut out = Vec::new();
        let s = Value::Ref(h.alloc_str("line").unwrap());
        eval("print", &[s], &mut h, &mut out).unwrap();
        eval("print", &[Value::Int(42)], &mut h, &mut out).unwrap();
        assert_eq!(out, vec!["line".to_string(), "42".to_string()]);
    }

    #[test]
    fn unknown_goes_to_host() {
        let mut h = heap();
        let mut out = Vec::new();
        assert!(matches!(
            eval("fs_search", &[], &mut h, &mut out).unwrap(),
            IntrinsicEval::Host
        ));
    }

    #[test]
    fn arity_errors() {
        let mut h = heap();
        let mut out = Vec::new();
        assert!(eval("sqrt", &[], &mut h, &mut out).is_err());
        assert!(eval("max", &[Value::Int(1)], &mut h, &mut out).is_err());
    }

    #[test]
    fn str_sub_clamps() {
        let mut h = heap();
        let mut out = Vec::new();
        let s = Value::Ref(h.alloc_str("abcdef").unwrap());
        let sub = match eval(
            "str_sub",
            &[s, Value::Int(2), Value::Int(100)],
            &mut h,
            &mut out,
        )
        .unwrap()
        {
            IntrinsicEval::Done(Value::Ref(id)) => id,
            _ => panic!(),
        };
        assert_eq!(h.get_str(sub).unwrap(), "cdef");
    }
}
