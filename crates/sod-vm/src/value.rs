//! Runtime values of the stack machine.
//!
//! The VM is dynamically typed over three storage classes, mirroring the
//! JVM's computational types collapsed to 64 bits: integers (`Int`, covering
//! `boolean`/`byte`/`short`/`int`/`long`), floating point (`Num`, covering
//! `float`/`double`), and references (`Ref`/`Null`). A reference is an index
//! into the owning VM's [heap](crate::heap::Heap); references are only
//! meaningful within one VM and are never sent on the wire directly — the
//! [wire codec](crate::wire) and [capture](crate::capture) layers translate
//! them to home-object identities or null them, exactly as the SOD paper's
//! state capturing does.

use std::fmt;

use crate::error::{VmError, VmResult};

/// Index of an object in a VM heap. Only meaningful within one VM instance.
pub type ObjId = u32;

/// Index of the node whose heap holds an object's master copy. Object ids
/// are per-heap, so a cached copy is identified by `(OriginId, ObjId)`. A
/// VM driven standalone (no cluster around it) has one home: origin 0.
pub type OriginId = u32;

/// A single stack-machine value (one local-variable slot / operand).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// All integral types, collapsed to `i64`.
    Int(i64),
    /// All floating-point types, collapsed to `f64`.
    Num(f64),
    /// A non-null reference into the local heap.
    Ref(ObjId),
    /// The null reference.
    Null,
    /// A reference *nulled in transfer*: behaves exactly like `Null` to the
    /// guest (it is what the SOD paper's state restoration writes into
    /// locals and fields), but carries the home-node object identity so an
    /// object-fault handler can fetch the master copy. Guest code cannot
    /// distinguish it from `Null`; only the `BringObj*` fault instructions
    /// inspect the payload.
    NulledRef(ObjId),
}

/// Storage class of a value, used in field declarations and on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TypeOf {
    Int,
    Num,
    Ref,
}

impl Value {
    /// Size of one value slot in bytes, for the paper's `F` accounting
    /// (accumulated size of local and static fields) and for serialization
    /// cost modelling. Every slot is one machine word.
    pub const SLOT_BYTES: u64 = 8;

    /// Extract an integer, failing with a type error otherwise.
    pub fn as_int(self) -> VmResult<i64> {
        match self {
            Value::Int(i) => Ok(i),
            other => Err(VmError::TypeMismatch {
                expected: "int",
                found: other.type_name(),
            }),
        }
    }

    /// Extract a float. Integers are *not* implicitly widened; the
    /// instruction set has an explicit `I2F`.
    pub fn as_num(self) -> VmResult<f64> {
        match self {
            Value::Num(n) => Ok(n),
            other => Err(VmError::TypeMismatch {
                expected: "num",
                found: other.type_name(),
            }),
        }
    }

    /// Extract a non-null reference. `NulledRef` derefs as null — the guest
    /// cannot observe the home identity.
    pub fn as_ref_id(self) -> VmResult<ObjId> {
        match self {
            Value::Ref(id) => Ok(id),
            Value::Null | Value::NulledRef(_) => Err(VmError::NullDeref),
            other => Err(VmError::TypeMismatch {
                expected: "ref",
                found: other.type_name(),
            }),
        }
    }

    /// True if this is any reference (including null).
    pub fn is_reference(self) -> bool {
        matches!(self, Value::Ref(_) | Value::Null | Value::NulledRef(_))
    }

    /// True if the guest observes this value as the null reference.
    ///
    /// A transfer-nulled reference is *not* null to the guest: it stands
    /// for a live home object, so null tests must report non-null and only
    /// dereferences fault. (This is stronger than the paper's plain-null
    /// restoration, where an explicit `x == null` test on an unfetched
    /// reference would silently diverge.)
    pub fn is_null(self) -> bool {
        matches!(self, Value::Null)
    }

    /// Home identity carried by a transfer-nulled reference.
    pub fn nulled_home(self) -> Option<ObjId> {
        match self {
            Value::NulledRef(h) => Some(h),
            _ => None,
        }
    }

    /// Human-readable type name for diagnostics.
    pub fn type_name(self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Num(_) => "num",
            Value::Ref(_) => "ref",
            Value::Null | Value::NulledRef(_) => "null",
        }
    }

    /// Default (zero) value for a storage class, used to initialise fields
    /// and fresh local slots, like the JVM's default field values.
    pub fn default_for(ty: TypeOf) -> Value {
        match ty {
            TypeOf::Int => Value::Int(0),
            TypeOf::Num => Value::Num(0.0),
            TypeOf::Ref => Value::Null,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Num(n) => write!(f, "{n}"),
            Value::Ref(id) => write!(f, "@{id}"),
            Value::Null => write!(f, "null"),
            Value::NulledRef(h) => write!(f, "null~@{h}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Int(v as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_ok() {
        assert_eq!(Value::Int(11).as_int().unwrap(), 11);
        assert_eq!(Value::Num(2.5).as_num().unwrap(), 2.5);
        assert_eq!(Value::Ref(4).as_ref_id().unwrap(), 4);
    }

    #[test]
    fn extraction_type_errors() {
        assert!(Value::Num(1.0).as_int().is_err());
        assert!(Value::Int(1).as_num().is_err());
        assert!(Value::Int(1).as_ref_id().is_err());
    }

    #[test]
    fn null_deref_is_distinguished() {
        match Value::Null.as_ref_id() {
            Err(VmError::NullDeref) => {}
            other => panic!("expected NullDeref, got {other:?}"),
        }
    }

    #[test]
    fn defaults_match_types() {
        assert_eq!(Value::default_for(TypeOf::Int), Value::Int(0));
        assert_eq!(Value::default_for(TypeOf::Num), Value::Num(0.0));
        assert_eq!(Value::default_for(TypeOf::Ref), Value::Null);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Ref(9).to_string(), "@9");
        assert_eq!(Value::Null.to_string(), "null");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(true), Value::Int(1));
        assert_eq!(Value::from(0.5f64), Value::Num(0.5));
    }
}
