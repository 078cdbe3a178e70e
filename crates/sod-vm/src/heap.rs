//! The VM heap: objects, arrays, strings, status words, byte accounting.
//!
//! Two details exist specifically for the SOD reproduction:
//!
//! * every object carries an [`ObjStatus`] word. In normal execution it is
//!   `Local`. The *status-checking* baseline (the traditional object-based
//!   DSM approach the paper compares against, e.g. JavaSplit) injects an
//!   explicit check of this word before every access; the SOD *object
//!   faulting* approach never reads it on the fast path.
//! * every cached copy tracks its *home* — the node holding its master copy
//!   (the origin) and the master's id there. Fetched copies are cache
//!   entries; the object manager uses the home to resolve nested faults and
//!   to write dirty objects back. Ids collide across homes, so the origin
//!   is part of the identity.
//!
//! The heap also maintains a running byte total so a node memory budget can
//! trigger guest `OutOfMemoryError`s (the paper's exception-driven offload).
//!
//! ## Indexes
//!
//! Two secondary lookups run once per object fault or segment completion,
//! so the heap owns an index for each instead of scanning its entries:
//!
//! * the **cache index** maps a home `(origin, id)` to the lowest local id
//!   caching it. An object's home is private and write-once, assigned only
//!   by [`Heap::set_home`] and, for a copy born cached, by
//!   [`Heap::install_cached`] — the index's two maintenance points: entries
//!   are never re-keyed or removed, and "lowest local id wins" is a `min`
//!   at insert. The keys are ids this system minted, so the map hashes
//!   them with [`crate::idhash`], not SipHash.
//! * the **dirty list** holds every object whose `dirty` flag is set, once
//!   each. `&mut` access to an entry exists only as an [`ObjMut`] guard,
//!   and the guard files a dirty object on the list when it drops — the
//!   single maintenance point, which a write to the public `dirty` field
//!   cannot bypass. Un-dirtying one object leaves it listed (the flag is
//!   the truth; [`Heap::dirty_objects`] filters by it), so that stays O(1)
//!   too; [`Heap::clear_dirty_where`] compacts. Iteration is in ascending
//!   local-id order whatever the write order was: flush batches, and the
//!   temp-id masters the home allocates from them, depend on it.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::class::ExKind;
use crate::error::{VmError, VmResult};
use crate::idhash::IdMap;
use crate::value::{ObjId, OriginId, Value};

/// Cache status of a heap object (one machine word in the model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjStatus {
    /// Master copy, or an up-to-date cached copy.
    Local,
    /// Known-stale cached copy; must be refetched before use (only the
    /// status-checking baseline materialises objects in this state).
    Invalid,
}

/// Payload of a heap entry.
#[derive(Clone, Debug, PartialEq)]
pub enum ObjKind {
    /// A class instance; `fields` uses the class's instance-field layout.
    /// The class name is a shared `Arc<str>`: allocating an instance clones
    /// a pointer from the loaded class (no per-`New` string allocation), and
    /// the interpreter's inline caches validate field/method resolutions
    /// with a pointer comparison against the canonical per-class `Arc`.
    Obj { class: Arc<str>, fields: Vec<Value> },
    /// An array of value slots.
    Arr { elems: Vec<Value> },
    /// An immutable string.
    Str(String),
    /// A guest exception object. The interpreter's own messages are
    /// constants and stay borrowed: raising the `NullPointerException` an
    /// object fault starts with copies no string.
    Exception {
        kind: ExKind,
        message: Cow<'static, str>,
    },
}

/// One heap entry.
#[derive(Clone, Debug, PartialEq)]
pub struct HeapObj {
    pub kind: ObjKind,
    pub status: ObjStatus,
    /// Set by `PutField`/`AStore` after a migration restore; dirty objects
    /// are flushed home when the migrated segment completes.
    pub dirty: bool,
    /// Whether the heap's dirty list holds this entry (`dirty` implies it).
    listed: bool,
    /// Node holding the master copy and the master's id there, when this
    /// entry is a migrated-in cache copy.
    home: Option<(OriginId, ObjId)>,
}

impl HeapObj {
    fn new(kind: ObjKind) -> Self {
        HeapObj {
            kind,
            status: ObjStatus::Local,
            dirty: false,
            listed: false,
            home: None,
        }
    }

    /// Id of the master copy in its home node's heap, for a cache copy.
    pub fn home_id(&self) -> Option<ObjId> {
        self.home.map(|(_, id)| id)
    }

    /// Node holding the master copy, for a cache copy.
    pub fn origin(&self) -> Option<OriginId> {
        self.home.map(|(origin, _)| origin)
    }

    /// Heap bytes charged for this entry (object header modelled at 16 B).
    pub fn size_bytes(&self) -> u64 {
        const HEADER: u64 = 16;
        match &self.kind {
            ObjKind::Obj { fields, .. } => HEADER + fields.len() as u64 * Value::SLOT_BYTES,
            ObjKind::Arr { elems } => HEADER + elems.len() as u64 * Value::SLOT_BYTES,
            ObjKind::Str(s) => HEADER + s.len() as u64,
            ObjKind::Exception { message, .. } => HEADER + message.len() as u64,
        }
    }

    /// The value slots of an instance or array (none for the other kinds).
    pub fn slots(&self) -> &[Value] {
        match &self.kind {
            ObjKind::Obj { fields, .. } => fields,
            ObjKind::Arr { elems } => elems,
            ObjKind::Str(_) | ObjKind::Exception { .. } => &[],
        }
    }

    /// Class name for instances, pseudo-class names for built-ins.
    pub fn class_name(&self) -> &str {
        match &self.kind {
            ObjKind::Obj { class, .. } => class,
            ObjKind::Arr { .. } => "[array]",
            ObjKind::Str(_) => "[string]",
            ObjKind::Exception { .. } => "[exception]",
        }
    }
}

/// Exclusive access to one heap entry (see the module docs): dropping it
/// files the entry on the heap's dirty list if its `dirty` flag is set.
pub struct ObjMut<'a> {
    obj: &'a mut HeapObj,
    dirty_list: &'a mut Vec<ObjId>,
    id: ObjId,
}

impl Deref for ObjMut<'_> {
    type Target = HeapObj;
    fn deref(&self) -> &HeapObj {
        self.obj
    }
}

impl DerefMut for ObjMut<'_> {
    fn deref_mut(&mut self) -> &mut HeapObj {
        self.obj
    }
}

impl Drop for ObjMut<'_> {
    fn drop(&mut self) {
        if self.obj.dirty && !self.obj.listed {
            self.obj.listed = true;
            self.dirty_list.push(self.id);
        }
    }
}

/// The heap of one VM.
#[derive(Clone, Debug, Default)]
pub struct Heap {
    entries: Vec<HeapObj>,
    used_bytes: u64,
    /// Running count of allocations, for metrics.
    allocs: u64,
    /// Cache index: home identity → lowest local id caching it.
    cached: IdMap<(OriginId, ObjId), ObjId>,
    /// Local ids of the listed entries, in filing order.
    dirty_list: Vec<ObjId>,
}

impl Heap {
    pub fn new() -> Self {
        Heap::default()
    }

    /// Total live bytes (we never free: programs under test are bounded and
    /// the paper's experiments do not depend on GC).
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    pub fn alloc_count(&self) -> u64 {
        self.allocs
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn alloc(&mut self, obj: HeapObj) -> ObjId {
        self.used_bytes += obj.size_bytes();
        self.allocs += 1;
        self.entries.push(obj);
        (self.entries.len() - 1) as ObjId
    }

    /// Allocate a class instance with the given field values.
    pub fn alloc_obj(&mut self, class: impl Into<Arc<str>>, fields: Vec<Value>) -> ObjId {
        self.alloc(HeapObj::new(ObjKind::Obj {
            class: class.into(),
            fields,
        }))
    }

    /// Allocate an array of `len` zero ints.
    pub fn alloc_arr(&mut self, len: usize) -> ObjId {
        self.alloc(HeapObj::new(ObjKind::Arr {
            elems: vec![Value::Int(0); len],
        }))
    }

    /// Allocate an array from existing elements.
    pub fn alloc_arr_from(&mut self, elems: Vec<Value>) -> ObjId {
        self.alloc(HeapObj::new(ObjKind::Arr { elems }))
    }

    /// Allocate a string.
    pub fn alloc_str(&mut self, s: impl Into<String>) -> ObjId {
        self.alloc(HeapObj::new(ObjKind::Str(s.into())))
    }

    /// Allocate a guest exception object.
    pub fn alloc_exception(
        &mut self,
        kind: ExKind,
        message: impl Into<Cow<'static, str>>,
    ) -> ObjId {
        self.alloc(HeapObj::new(ObjKind::Exception {
            kind,
            message: message.into(),
        }))
    }

    pub fn get(&self, id: ObjId) -> VmResult<&HeapObj> {
        self.entries
            .get(id as usize)
            .ok_or_else(|| VmError::BadRef(id))
    }

    pub fn get_mut(&mut self, id: ObjId) -> VmResult<ObjMut<'_>> {
        let obj = self
            .entries
            .get_mut(id as usize)
            .ok_or_else(|| VmError::BadRef(id))?;
        Ok(ObjMut {
            obj,
            dirty_list: &mut self.dirty_list,
            id,
        })
    }

    /// Read a string object.
    pub fn get_str(&self, id: ObjId) -> VmResult<&str> {
        match &self.get(id)?.kind {
            ObjKind::Str(s) => Ok(s),
            _ => Err(VmError::TypeMismatch {
                expected: "string",
                found: "object",
            }),
        }
    }

    /// Read an array element with bounds checking.
    pub fn arr_get(&self, id: ObjId, idx: i64) -> VmResult<Option<Value>> {
        match &self.get(id)?.kind {
            ObjKind::Arr { elems } => {
                if idx < 0 || idx as usize >= elems.len() {
                    Ok(None)
                } else {
                    Ok(Some(elems[idx as usize]))
                }
            }
            _ => Err(VmError::TypeMismatch {
                expected: "array",
                found: "object",
            }),
        }
    }

    /// Write an array element with bounds checking. Returns false when out of
    /// bounds; marks the array dirty.
    pub fn arr_set(&mut self, id: ObjId, idx: i64, v: Value) -> VmResult<bool> {
        let mut obj = self.get_mut(id)?;
        match &mut obj.kind {
            ObjKind::Arr { elems } => {
                if idx < 0 || idx as usize >= elems.len() {
                    Ok(false)
                } else {
                    elems[idx as usize] = v;
                    obj.dirty = true;
                    Ok(true)
                }
            }
            _ => Err(VmError::TypeMismatch {
                expected: "array",
                found: "object",
            }),
        }
    }

    /// Array length.
    pub fn arr_len(&self, id: ObjId) -> VmResult<i64> {
        match &self.get(id)?.kind {
            ObjKind::Arr { elems } => Ok(elems.len() as i64),
            _ => Err(VmError::TypeMismatch {
                expected: "array",
                found: "object",
            }),
        }
    }

    /// Every dirty object, in ascending local-id order.
    pub fn dirty_objects(&self) -> impl Iterator<Item = (ObjId, &HeapObj)> {
        let mut ids: Vec<ObjId> = self
            .dirty_list
            .iter()
            .copied()
            .filter(|&id| self.entries[id as usize].dirty)
            .collect();
        ids.sort_unstable();
        debug_assert!(ids.iter().copied().eq(self.scan_dirty()));
        ids.into_iter().map(|id| (id, &self.entries[id as usize]))
    }

    /// Clear the dirty bit of every dirty object `flushed` accepts (after a
    /// flush to their home); the rest stay dirty for their own flush.
    pub fn clear_dirty_where(&mut self, flushed: impl Fn(&HeapObj) -> bool) {
        let entries = &mut self.entries;
        self.dirty_list.retain(|&id| {
            let obj = &mut entries[id as usize];
            if obj.dirty && !flushed(obj) {
                return true;
            }
            obj.dirty = false;
            obj.listed = false;
            false
        });
    }

    /// Record that local object `id` is a cached copy of object `home_id`
    /// of node `origin`. Write-once: a later, different assignment is
    /// ignored (the first master wins).
    pub fn set_home(&mut self, id: ObjId, origin: OriginId, home_id: ObjId) -> VmResult<()> {
        let obj = self
            .entries
            .get_mut(id as usize)
            .ok_or_else(|| VmError::BadRef(id))?;
        if obj.home.is_none() {
            obj.home = Some((origin, home_id));
            self.cached
                .entry((origin, home_id))
                .and_modify(|lowest| *lowest = id.min(*lowest))
                .or_insert(id);
        }
        Ok(())
    }

    /// Install `kind` as the cached copy of object `home_id` of node
    /// `origin`: an existing copy is refreshed in place (clean, `Local`),
    /// otherwise a new entry is allocated with its home already recorded.
    /// One index lookup either way. Returns the copy's local id.
    pub fn install_cached(&mut self, origin: OriginId, home_id: ObjId, kind: ObjKind) -> ObjId {
        match self.cached.entry((origin, home_id)) {
            Entry::Occupied(e) => {
                let id = *e.get();
                // Not through `ObjMut`: the copy ends clean, so there is
                // nothing for the guard to file.
                let obj = &mut self.entries[id as usize];
                obj.kind = kind;
                obj.status = ObjStatus::Local;
                obj.dirty = false;
                id
            }
            Entry::Vacant(e) => {
                let mut obj = HeapObj::new(kind);
                obj.home = Some((origin, home_id));
                self.used_bytes += obj.size_bytes();
                self.allocs += 1;
                self.entries.push(obj);
                let id = (self.entries.len() - 1) as ObjId;
                // No older entry caches this home, so `id` is the lowest.
                e.insert(id);
                id
            }
        }
    }

    /// Look up a cached copy of object `home_id` of node `origin`: the
    /// lowest local id whose home is that object.
    pub fn find_cached_from(&self, origin: OriginId, home_id: ObjId) -> Option<ObjId> {
        let found = self.cached.get(&(origin, home_id)).copied();
        debug_assert_eq!(found, self.scan_cached(origin, home_id));
        found
    }

    /// [`Heap::find_cached_from`] on a VM driven standalone (origin 0).
    pub fn find_cached(&self, home_id: ObjId) -> Option<ObjId> {
        self.find_cached_from(0, home_id)
    }

    /// The linear-scan definitions of [`Heap::find_cached_from`] and
    /// [`Heap::dirty_objects`]: the oracles the indexes are checked against
    /// in debug builds, and nothing else.
    fn scan_cached(&self, origin: OriginId, home_id: ObjId) -> Option<ObjId> {
        self.entries
            .iter()
            .position(|o| o.home == Some((origin, home_id)))
            .map(|i| i as ObjId)
    }

    fn scan_dirty(&self) -> impl Iterator<Item = ObjId> + '_ {
        (0..self.entries.len() as ObjId).filter(|&id| self.entries[id as usize].dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_read_back() {
        let mut h = Heap::new();
        let o = h.alloc_obj("Point", vec![Value::Int(1), Value::Int(2)]);
        let a = h.alloc_arr(3);
        let s = h.alloc_str("hi");
        assert_eq!(h.len(), 3);
        assert_eq!(h.get(o).unwrap().class_name(), "Point");
        assert_eq!(h.arr_len(a).unwrap(), 3);
        assert_eq!(h.get_str(s).unwrap(), "hi");
    }

    #[test]
    fn byte_accounting() {
        let mut h = Heap::new();
        assert_eq!(h.used_bytes(), 0);
        h.alloc_arr(10); // 16 + 80
        assert_eq!(h.used_bytes(), 96);
        h.alloc_str("abcd"); // 16 + 4
        assert_eq!(h.used_bytes(), 116);
        assert_eq!(h.alloc_count(), 2);
    }

    #[test]
    fn array_bounds() {
        let mut h = Heap::new();
        let a = h.alloc_arr(2);
        assert_eq!(h.arr_get(a, 0).unwrap(), Some(Value::Int(0)));
        assert_eq!(h.arr_get(a, 2).unwrap(), None);
        assert_eq!(h.arr_get(a, -1).unwrap(), None);
        assert!(h.arr_set(a, 1, Value::Int(9)).unwrap());
        assert!(!h.arr_set(a, 5, Value::Int(9)).unwrap());
        assert_eq!(h.arr_get(a, 1).unwrap(), Some(Value::Int(9)));
    }

    #[test]
    fn dirty_tracking() {
        let mut h = Heap::new();
        let a = h.alloc_arr(1);
        let _b = h.alloc_arr(1);
        assert_eq!(h.dirty_objects().count(), 0);
        h.arr_set(a, 0, Value::Int(5)).unwrap();
        let dirty: Vec<_> = h.dirty_objects().map(|(id, _)| id).collect();
        assert_eq!(dirty, vec![a]);
        h.clear_dirty_where(|_| true);
        assert_eq!(h.dirty_objects().count(), 0);
    }

    #[test]
    fn dirty_list_is_ascending_and_survives_per_object_undirty() {
        let mut h = Heap::new();
        let ids: Vec<ObjId> = (0..4).map(|_| h.alloc_arr(1)).collect();
        // Written newest-first, through both write paths.
        h.get_mut(ids[3]).unwrap().dirty = true;
        h.arr_set(ids[1], 0, Value::Int(1)).unwrap();
        h.get_mut(ids[0]).unwrap().dirty = true;
        let dirty = |h: &Heap| h.dirty_objects().map(|(id, _)| id).collect::<Vec<_>>();
        assert_eq!(dirty(&h), vec![ids[0], ids[1], ids[3]]);
        // Un-dirty one, re-dirty it: listed once, still in id order.
        h.get_mut(ids[1]).unwrap().dirty = false;
        assert_eq!(dirty(&h), vec![ids[0], ids[3]]);
        h.get_mut(ids[1]).unwrap().dirty = true;
        assert_eq!(dirty(&h), vec![ids[0], ids[1], ids[3]]);
        // A partial clear keeps what the predicate rejects.
        h.set_home(ids[3], 2, 9).unwrap();
        h.clear_dirty_where(|o| o.origin().is_none());
        assert_eq!(dirty(&h), vec![ids[3]]);
    }

    #[test]
    fn cached_lookup_by_home() {
        let mut h = Heap::new();
        let a = h.alloc_obj("C", vec![]);
        let b = h.alloc_obj("C", vec![]);
        let c = h.alloc_obj("C", vec![]);
        h.set_home(b, 0, 77).unwrap();
        assert_eq!(h.find_cached(77), Some(b));
        assert_eq!(h.find_cached(78), None);
        // Ids collide across homes: the origin is part of the key.
        assert_eq!(h.find_cached_from(1, 77), None);
        h.set_home(c, 1, 77).unwrap();
        assert_eq!(h.find_cached_from(1, 77), Some(c));
        assert_eq!(h.find_cached(77), Some(b));
        // A late assignment to an older object: the lowest local id wins.
        h.set_home(a, 0, 77).unwrap();
        assert_eq!(h.find_cached(77), Some(a));
        // Write-once: the first master wins.
        h.set_home(a, 0, 5).unwrap();
        assert_eq!(h.get(a).unwrap().home_id(), Some(77));
        assert_eq!(h.find_cached(5), None);
        assert!(h.set_home(9, 0, 1).is_err());
    }

    #[test]
    fn bad_ref_is_error() {
        let h = Heap::new();
        assert!(matches!(h.get(3), Err(VmError::BadRef(3))));
    }

    #[test]
    fn type_confusion_errors() {
        let mut h = Heap::new();
        let s = h.alloc_str("x");
        assert!(h.arr_len(s).is_err());
        let o = h.alloc_obj("C", vec![]);
        assert!(h.get_str(o).is_err());
    }
}
