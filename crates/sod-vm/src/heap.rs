//! The VM heap: objects, arrays, strings, status words, byte accounting.
//!
//! Two details exist specifically for the SOD reproduction:
//!
//! * every object carries an [`ObjStatus`] word. In normal execution it is
//!   `Local`. The *status-checking* baseline (the traditional object-based
//!   DSM approach the paper compares against, e.g. JavaSplit) injects an
//!   explicit check of this word before every access; the SOD *object
//!   faulting* approach never reads it on the fast path.
//! * every entry knows its [`Home`]: it is a master, a cached copy of the
//!   master with a given id on a given node (the origin), or an object a
//!   segment of a program homed at some origin made here, whose master its
//!   first flush creates. Fetched copies are cache entries; the object
//!   manager uses the home to resolve nested faults, and flushes to a home
//!   exactly the copies and the creations that are that home's. Ids collide
//!   across homes, so the origin is part of the identity.
//!
//! The heap also maintains a running byte total so a node memory budget can
//! trigger guest `OutOfMemoryError`s (the paper's exception-driven offload).
//! That total and the allocation count are the *model's* account: an
//! exception nothing can read is charged as if allocated, but never held
//! (see [`Heap::count_exception`]), so [`Heap::len`] — the entries the host
//! holds — may be less than [`Heap::alloc_count`].
//!
//! ## Slots
//!
//! An instance's fields and an array's elements are not allocations of
//! their own: every one of them lives in the heap's one slot arena, and the
//! entry holds a [`Span`] of it. Allocating, installing a fetched copy,
//! refreshing one in place and applying a flush write slots where they
//! lie, so they cost the host nothing per object beyond the arena's
//! amortised growth. Spans are minted only here, by the allocation and
//! install functions — the arena's single maintenance point — and live
//! entries' spans are disjoint and inside the arena. Slots are read through
//! [`Heap::view`] and written through [`ObjMut::slots_mut`], so the guard
//! stays the one `&mut` path to an object.
//!
//! ## Names
//!
//! An instance does not hold its class's name: it holds a [`ClassIx`], an
//! index into the heap's name table, where each name is interned once
//! ([`Heap::class_ix`]). A VM interns a class's name when it loads the
//! class, and an install interns the name the frame carries, so a copy
//! fetched before its class loads holds the very index the class gets
//! later: the interpreter's inline caches compare indexes, and no copy is
//! ever rewritten to match. The wire keeps names — frames name classes
//! across VMs — so an instance's name is read from the table when it is
//! written out and interned when it is read in; no frame byte depends on
//! the index.
//!
//! ## Text
//!
//! A string's bytes and an exception's message live in the heap's one text
//! arena, each under a [`Span`] minted by [`Heap::alloc_str`],
//! [`Heap::alloc_exception`] and [`Heap::install_cached`] and checked
//! against `u32` as slot spans are (`VmError::TextArenaFull`, never a
//! wrap). Each span is a whole `&str`; [`Heap::text`] reads one back.
//!
//! So an entry is indexes and flags only: 32 bytes, `Copy` payload, no
//! drop glue (both const-asserted), and nothing is allocated per object
//! beyond the tables' amortised growth.
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
//!   cannot bypass. A master is never dirty: nothing flushes it, so the
//!   guard clears its flag instead of filing it. Un-dirtying one object
//!   leaves it listed (the flag is the truth; [`Heap::dirty_objects`]
//!   filters by it), so that stays O(1) too; [`Heap::clear_dirty_where`]
//!   compacts. Iteration is in ascending local-id order whatever the write
//!   order was: flush batches, and the temp-id masters the home allocates
//!   from them, depend on it.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut, Range};

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

/// A run of one of a heap's arenas: where an instance's fields or an
/// array's elements lie in the slot arena, or a string's or an exception
/// message's bytes in the text arena. Only the heap that owns the arenas
/// mints one.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn len(self) -> usize {
        self.len as usize
    }

    fn range(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len()
    }
}

/// A class name's index in its heap's name table (see the module docs,
/// "Names"). Only the heap that owns the table mints one, and an index
/// means something only to that heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassIx(u32);

/// Payload of a heap entry: plain indexes into the heap's tables, no owner.
#[derive(Clone, Copy, Debug)]
pub enum ObjKind {
    /// A class instance; its slots use the class's instance-field layout.
    /// The class is an index into the heap's name table: allocating an
    /// instance copies it, and the interpreter's inline caches validate
    /// field/method resolutions by comparing it with the loaded class's.
    Obj { class: ClassIx, slots: Span },
    /// An array of value slots.
    Arr { slots: Span },
    /// An immutable string: its bytes in the text arena.
    Str(Span),
    /// A guest exception object; its message's bytes in the text arena.
    Exception { kind: ExKind, message: Span },
}

/// What a refresh of a cached copy may not change: its kind, and for an
/// instance or an array its slot count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Obj(usize),
    Arr(usize),
    Other,
}

impl ObjKind {
    /// The entry's run of the slot arena.
    fn span(self) -> Option<Span> {
        match self {
            ObjKind::Obj { slots, .. } | ObjKind::Arr { slots } => Some(slots),
            ObjKind::Str(_) | ObjKind::Exception { .. } => None,
        }
    }

    /// The entry's run of the text arena.
    fn text(self) -> Option<Span> {
        match self {
            ObjKind::Str(text) | ObjKind::Exception { message: text, .. } => Some(text),
            ObjKind::Obj { .. } | ObjKind::Arr { .. } => None,
        }
    }

    fn shape(self) -> Shape {
        match self {
            ObjKind::Obj { slots, .. } => Shape::Obj(slots.len()),
            ObjKind::Arr { slots } => Shape::Arr(slots.len()),
            ObjKind::Str(_) | ObjKind::Exception { .. } => Shape::Other,
        }
    }
}

/// Where an entry's master is, seen from the heap that holds the entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Home {
    /// Here: the entry is the master, made by a thread running at its
    /// program's home.
    Master,
    /// Object `.1` of node `.0`: the entry is a cached copy of that master.
    Cached(OriginId, ObjId),
    /// Nowhere yet: a segment of a program homed at node `.0` made the
    /// entry here, and the first flush to that home gives it a master.
    Created(OriginId),
}

/// What a VM driven standalone makes: every one of its threads runs for
/// origin 0, the one home such a VM has.
impl Default for Home {
    fn default() -> Self {
        Home::Created(0)
    }
}

/// One heap entry.
#[derive(Clone, Debug)]
pub struct HeapObj {
    pub kind: ObjKind,
    pub status: ObjStatus,
    /// Set by `PutField`/`AStore` after a migration restore; dirty objects
    /// are flushed home when the migrated segment completes.
    pub dirty: bool,
    /// Whether the heap's dirty list holds this entry (`dirty` implies it).
    listed: bool,
    /// Where the master is. Private: only the heap assigns it.
    home: Home,
}

// A heap holds one entry per object for the whole run, and a worker heap
// caches every object its segments touch: every byte here is paid per
// object held. An entry owns nothing, so dropping a heap drops no entry.
const _: () = assert!(std::mem::size_of::<HeapObj>() <= 32);
const _: () = assert!(!std::mem::needs_drop::<ObjKind>());

/// Modelled bytes of an object header.
const HEADER: u64 = 16;

impl HeapObj {
    fn new(kind: ObjKind, home: Home) -> Self {
        HeapObj {
            kind,
            status: ObjStatus::Local,
            dirty: false,
            listed: false,
            home,
        }
    }

    /// Where this entry's master is.
    pub fn home(&self) -> Home {
        self.home
    }

    /// Id of the master copy in its home node's heap, for a cache copy.
    pub fn home_id(&self) -> Option<ObjId> {
        match self.home {
            Home::Cached(_, id) => Some(id),
            Home::Master | Home::Created(_) => None,
        }
    }

    /// Node holding the master copy, for a cache copy.
    pub fn origin(&self) -> Option<OriginId> {
        match self.home {
            Home::Cached(origin, _) => Some(origin),
            Home::Master | Home::Created(_) => None,
        }
    }

    /// Heap bytes charged for this entry (object header modelled at 16 B).
    pub fn size_bytes(&self) -> u64 {
        match self.kind {
            ObjKind::Obj { slots, .. } | ObjKind::Arr { slots } => {
                HEADER + slots.len() as u64 * Value::SLOT_BYTES
            }
            ObjKind::Str(text) | ObjKind::Exception { message: text, .. } => {
                HEADER + text.len() as u64
            }
        }
    }
}

/// Exclusive access to one heap entry (see the module docs): dropping it
/// files the entry on the heap's dirty list if its `dirty` flag is set.
pub struct ObjMut<'a> {
    obj: &'a mut HeapObj,
    arena: &'a mut [Value],
    dirty_list: &'a mut Vec<ObjId>,
    id: ObjId,
}

impl ObjMut<'_> {
    /// The value slots of an instance or array (none for the other kinds):
    /// the one way to write them.
    pub fn slots_mut(&mut self) -> &mut [Value] {
        let span = self.obj.kind.span();
        span.and_then(|s| self.arena.get_mut(s.range()))
            .unwrap_or_default()
    }
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
            if self.obj.home == Home::Master {
                self.obj.dirty = false;
            } else {
                self.obj.listed = true;
                self.dirty_list.push(self.id);
            }
        }
    }
}

/// The body of an object [`Heap::install_cached`] writes, borrowed from
/// the frame it arrived in: an instance's class name and slots, an array's
/// slots (still to be decoded: each may fail, as a frame's can), or a
/// string's text.
pub enum Fetched<'a, S> {
    Obj { class: &'a str, slots: S },
    Arr { slots: S },
    Str(&'a str),
}

impl<S: ExactSizeIterator> Fetched<'_, S> {
    fn shape(&self) -> Shape {
        match self {
            Fetched::Obj { slots, .. } => Shape::Obj(slots.len()),
            Fetched::Arr { slots } => Shape::Arr(slots.len()),
            Fetched::Str(_) => Shape::Other,
        }
    }
}

/// Append `slots` to `arena` as one span. Its end is converted to `u32`
/// checked — before the arena grows by the count the iterator promises,
/// and again after — so a span past `u32::MAX` slots is a typed error,
/// never a wrap. On `Err` (that, or a slot that fails) the arena is as it
/// was.
fn push_span(
    arena: &mut Vec<Value>,
    slots: impl IntoIterator<Item = VmResult<Value>>,
) -> VmResult<Span> {
    let start = arena.len();
    let slots = slots.into_iter();
    let promised = slots.size_hint().0;
    span_of(start, start.saturating_add(promised)).ok_or_else(|| VmError::SlotArenaFull)?;
    arena.reserve(promised);
    for slot in slots {
        match slot {
            Ok(v) => arena.push(v),
            Err(e) => {
                arena.truncate(start);
                return Err(e);
            }
        }
    }
    let span = span_of(start, arena.len());
    if span.is_none() {
        arena.truncate(start);
    }
    span.ok_or_else(|| VmError::SlotArenaFull)
}

/// Append `text` to the text arena `arena` as one span, checked as
/// [`push_span`] checks slots: past `u32::MAX` bytes it is a typed error
/// and the arena is as it was.
fn push_text(arena: &mut Vec<u8>, text: &str) -> VmResult<Span> {
    let start = arena.len();
    let span = span_of(start, start.saturating_add(text.len()));
    let span = span.ok_or_else(|| VmError::TextArenaFull)?;
    arena.extend_from_slice(text.as_bytes());
    Ok(span)
}

fn span_of(start: usize, end: usize) -> Option<Span> {
    match (u32::try_from(start), u32::try_from(end)) {
        (Ok(start), Ok(end)) => Some(Span {
            start,
            len: end - start,
        }),
        _ => None,
    }
}

/// The heap of one VM.
#[derive(Clone, Debug, Default)]
pub struct Heap {
    entries: Vec<HeapObj>,
    /// The slot arena: every instance's fields and array's elements, each
    /// object's a [`Span`] of it.
    slots: Vec<Value>,
    /// The text arena: every string's and exception message's bytes, each
    /// a [`Span`] of it that is a whole `&str`.
    text: Vec<u8>,
    /// The name table: class names by [`ClassIx`]...
    names: Vec<Box<str>>,
    /// ...and each name's index.
    classes: BTreeMap<Box<str>, ClassIx>,
    used_bytes: u64,
    /// Running count of allocations, for metrics.
    allocs: u64,
    /// What the next allocation is (see [`Heap::mint_for`]).
    mint: Home,
    /// Cache index: home identity → lowest local id caching it.
    cached: IdMap<(OriginId, ObjId), ObjId>,
    /// Local ids of the listed entries, in filing order.
    dirty_list: Vec<ObjId>,
}

impl Heap {
    pub fn new() -> Self {
        Heap::default()
    }

    /// The model's live bytes: every allocation's, exceptions nothing
    /// reads included (the model never frees: programs under test are
    /// bounded and the paper's experiments do not depend on GC). What the
    /// memory limit and `OnOom` read. [`Heap::len`] is the host's account.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// The model's allocations, exceptions nothing reads included.
    pub fn alloc_count(&self) -> u64 {
        self.allocs
    }

    /// The entries the host holds: [`Heap::alloc_count`] less the
    /// exceptions counted but not kept.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Slots the arena holds, every object's together.
    pub fn arena_len(&self) -> usize {
        self.slots.len()
    }

    /// The host's bytes for what the heap holds: its entries, its slot
    /// arena and its text arena, by length (not capacity). A function of
    /// the host's layout, not of the model, so no report carries it.
    pub fn held_bytes(&self) -> u64 {
        let entries = self.entries.len() * std::mem::size_of::<HeapObj>();
        let slots = self.slots.len() * std::mem::size_of::<Value>();
        (entries + slots + self.text.len()) as u64
    }

    /// The index of class `name` in this heap's name table, interned on
    /// first sight. Past `u32::MAX` names it is `VmError::TextArenaFull`.
    pub fn class_ix(&mut self, name: &str) -> VmResult<ClassIx> {
        let ix = self.peek_class(name)?;
        self.intern(ix, name);
        Ok(ix)
    }

    /// The index `name` has, or would get as the next one interned.
    fn peek_class(&self, name: &str) -> VmResult<ClassIx> {
        match self.classes.get(name) {
            Some(&ix) => Ok(ix),
            None => u32::try_from(self.names.len())
                .map(ClassIx)
                .map_err(|_| VmError::TextArenaFull),
        }
    }

    /// Record `name` at `ix`, as [`Heap::peek_class`] gave it, if it is
    /// new.
    fn intern(&mut self, ix: ClassIx, name: &str) {
        if ix.0 as usize == self.names.len() {
            self.names.push(name.into());
            self.classes.insert(name.into(), ix);
        }
    }

    /// The name of class `ix` ("" for an index this heap did not mint).
    pub fn class_name(&self, ix: ClassIx) -> &str {
        self.names.get(ix.0 as usize).map_or("", |name| name)
    }

    /// The class name of entry `id` for an instance, a pseudo-class name
    /// for the built-in kinds.
    pub fn type_name(&self, id: ObjId) -> VmResult<&str> {
        Ok(match self.get(id)?.kind {
            ObjKind::Obj { class, .. } => self.class_name(class),
            ObjKind::Arr { .. } => "[array]",
            ObjKind::Str(_) => "[string]",
            ObjKind::Exception { .. } => "[exception]",
        })
    }

    /// The text at `span` of this heap's text arena: a string's, or an
    /// exception's message.
    pub fn text(&self, span: Span) -> &str {
        let bytes = self.text.get(span.range()).unwrap_or_default();
        std::str::from_utf8(bytes).unwrap_or_default()
    }

    /// Make what follows the allocations of a thread whose program is
    /// homed at `origin` (`None`: at home, so they are masters). Every
    /// allocation site that runs for a thread names it first; a heap
    /// nobody names one for mints as [`Home::default`] says.
    pub fn mint_for(&mut self, origin: Option<OriginId>) -> &mut Self {
        self.mint = origin.map_or(Home::Master, Home::Created);
        self
    }

    fn alloc(&mut self, kind: ObjKind) -> ObjId {
        self.push(HeapObj::new(kind, self.mint))
    }

    fn push(&mut self, obj: HeapObj) -> ObjId {
        self.used_bytes += obj.size_bytes();
        self.allocs += 1;
        self.entries.push(obj);
        (self.entries.len() - 1) as ObjId
    }

    /// Charge an exception with `message` that nothing will read — its
    /// handler pops it unread, or no handler catches it — exactly as
    /// [`Heap::alloc_exception`] would, and keep no entry for it.
    pub fn count_exception(&mut self, message: &str) {
        self.used_bytes += HEADER + message.len() as u64;
        self.allocs += 1;
    }

    /// Allocate an instance of class `class` (an index from this heap's
    /// [`Heap::class_ix`]) with the given field values.
    pub fn alloc_obj(
        &mut self,
        class: ClassIx,
        fields: impl IntoIterator<Item = Value>,
    ) -> VmResult<ObjId> {
        let slots = push_span(&mut self.slots, fields.into_iter().map(Ok))?;
        Ok(self.alloc(ObjKind::Obj { class, slots }))
    }

    /// Allocate an array of `len` zero ints.
    pub fn alloc_arr(&mut self, len: usize) -> VmResult<ObjId> {
        self.alloc_arr_from(std::iter::repeat_n(Value::Int(0), len))
    }

    /// Allocate an array from existing elements.
    pub fn alloc_arr_from(&mut self, elems: impl IntoIterator<Item = Value>) -> VmResult<ObjId> {
        let slots = push_span(&mut self.slots, elems.into_iter().map(Ok))?;
        Ok(self.alloc(ObjKind::Arr { slots }))
    }

    /// Allocate a string, its text copied into the text arena.
    pub fn alloc_str(&mut self, s: &str) -> VmResult<ObjId> {
        let text = push_text(&mut self.text, s)?;
        Ok(self.alloc(ObjKind::Str(text)))
    }

    /// Allocate a guest exception object, its message copied into the text
    /// arena. `None` — nothing allocated or charged — when the arena cannot
    /// take the message (past `u32::MAX` bytes); the interpreter raises
    /// that as `VmError::TextArenaFull`.
    pub fn alloc_exception(&mut self, kind: ExKind, message: &str) -> Option<ObjId> {
        let message = push_text(&mut self.text, message).ok()?;
        Some(self.alloc(ObjKind::Exception { kind, message }))
    }

    pub fn get(&self, id: ObjId) -> VmResult<&HeapObj> {
        self.entries
            .get(id as usize)
            .ok_or_else(|| VmError::BadRef(id))
    }

    /// Entry `id` with its value slots (none for strings and exceptions).
    pub fn view(&self, id: ObjId) -> VmResult<(&HeapObj, &[Value])> {
        let obj = self.get(id)?;
        let slots = obj.kind.span().and_then(|s| self.slots.get(s.range()));
        Ok((obj, slots.unwrap_or_default()))
    }

    pub fn get_mut(&mut self, id: ObjId) -> VmResult<ObjMut<'_>> {
        let obj = self
            .entries
            .get_mut(id as usize)
            .ok_or_else(|| VmError::BadRef(id))?;
        Ok(ObjMut {
            obj,
            arena: &mut self.slots,
            dirty_list: &mut self.dirty_list,
            id,
        })
    }

    /// Read a string object.
    pub fn get_str(&self, id: ObjId) -> VmResult<&str> {
        match self.get(id)?.kind {
            ObjKind::Str(text) => Ok(self.text(text)),
            _ => Err(VmError::TypeMismatch {
                expected: "string",
                found: "object",
            }),
        }
    }

    /// The elements of array `id`.
    fn elems(&self, id: ObjId) -> VmResult<&[Value]> {
        match self.view(id)? {
            (
                HeapObj {
                    kind: ObjKind::Arr { .. },
                    ..
                },
                elems,
            ) => Ok(elems),
            _ => Err(VmError::TypeMismatch {
                expected: "array",
                found: "object",
            }),
        }
    }

    /// Read an array element with bounds checking.
    pub fn arr_get(&self, id: ObjId, idx: i64) -> VmResult<Option<Value>> {
        let elems = self.elems(id)?;
        Ok(usize::try_from(idx)
            .ok()
            .and_then(|i| elems.get(i))
            .copied())
    }

    /// Write an array element with bounds checking. Returns false when out of
    /// bounds; marks the array dirty.
    pub fn arr_set(&mut self, id: ObjId, idx: i64, v: Value) -> VmResult<bool> {
        self.elems(id)?;
        let mut obj = self.get_mut(id)?;
        let Some(slot) = usize::try_from(idx)
            .ok()
            .and_then(|i| obj.slots_mut().get_mut(i))
        else {
            return Ok(false);
        };
        *slot = v;
        obj.dirty = true;
        Ok(true)
    }

    /// Array length.
    pub fn arr_len(&self, id: ObjId) -> VmResult<i64> {
        Ok(self.elems(id)?.len() as i64)
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
        if !matches!(obj.home, Home::Cached(..)) {
            obj.home = Home::Cached(origin, home_id);
            self.cached
                .entry((origin, home_id))
                .and_modify(|lowest| *lowest = id.min(*lowest))
                .or_insert(id);
        }
        Ok(())
    }

    /// Install `body` as the cached copy of object `home_id` of node
    /// `origin`: an existing copy is refreshed in place (clean, `Local`),
    /// otherwise a new entry is allocated with its home already recorded.
    /// Returns the copy's local id.
    ///
    /// The slots (or the text) are decoded into their arena's tail first,
    /// and a refresh then copies them over the copy's own span: on `Err`
    /// the heap is as it was, and a refresh leaves the slot arena no longer
    /// than it found it (the text arena too, unless a string's length
    /// changed). An instance's class name is interned only once the install
    /// is sure to be kept. A copy keeps its shape for life — a master never
    /// changes kind or slot count — so a refresh of another shape, once its
    /// slots have decoded, is a forged or corrupt frame: `VmError::Decode`.
    pub fn install_cached<S>(
        &mut self,
        origin: OriginId,
        home_id: ObjId,
        body: Fetched<'_, S>,
    ) -> VmResult<ObjId>
    where
        S: ExactSizeIterator<Item = VmResult<Value>>,
    {
        let key = (origin, home_id);
        let copy = match self.cached.get(&key) {
            Some(&id) => Some((id, self.get(id)?.kind)),
            None => None,
        };
        let shape = body.shape();
        let (mut kind, name) = match body {
            Fetched::Obj { class, slots } => {
                let ix = self.peek_class(class)?;
                let slots = push_span(&mut self.slots, slots)?;
                (ObjKind::Obj { class: ix, slots }, Some(class))
            }
            Fetched::Arr { slots } => {
                let slots = push_span(&mut self.slots, slots)?;
                (ObjKind::Arr { slots }, None)
            }
            Fetched::Str(s) => (ObjKind::Str(push_text(&mut self.text, s)?), None),
        };
        if copy.is_some_and(|(_, old)| old.shape() != shape) {
            if let Some(tail) = kind.span() {
                self.slots.truncate(tail.range().start);
            }
            if let Some(tail) = kind.text() {
                self.text.truncate(tail.range().start);
            }
            return Err(VmError::Decode("refresh changes a cached copy's shape"));
        }
        if let (ObjKind::Obj { class, .. }, Some(name)) = (kind, name) {
            self.intern(class, name);
        }
        let Some((id, old)) = copy else {
            let id = self.push(HeapObj::new(kind, Home::Cached(origin, home_id)));
            // No older entry caches this home, so `id` is the lowest.
            self.cached.insert(key, id);
            return Ok(id);
        };
        if let (ObjKind::Obj { slots, .. } | ObjKind::Arr { slots }, Some(own)) =
            (&mut kind, old.span())
        {
            self.slots.copy_within(slots.range(), own.range().start);
            self.slots.truncate(slots.range().start);
            *slots = own;
        }
        if let (ObjKind::Str(text), Some(own)) = (&mut kind, old.text()) {
            if own.len == text.len {
                self.text.copy_within(text.range(), own.range().start);
                self.text.truncate(text.range().start);
                *text = own;
            }
        }
        // Not through `ObjMut`: the copy ends clean, so there is nothing
        // for the guard to file.
        let obj = &mut self.entries[id as usize];
        obj.kind = kind;
        obj.status = ObjStatus::Local;
        obj.dirty = false;
        Ok(id)
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
            .position(|o| o.home == Home::Cached(origin, home_id))
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
        let point = h.class_ix("Point").unwrap();
        let o = h.alloc_obj(point, [Value::Int(1), Value::Int(2)]).unwrap();
        let a = h.alloc_arr(3).unwrap();
        let s = h.alloc_str("hi").unwrap();
        assert_eq!(h.len(), 3);
        assert_eq!(h.type_name(o).unwrap(), "Point");
        assert_eq!(h.arr_len(a).unwrap(), 3);
        assert_eq!(h.get_str(s).unwrap(), "hi");
    }

    #[test]
    fn byte_accounting() {
        let mut h = Heap::new();
        assert_eq!(h.used_bytes(), 0);
        h.alloc_arr(10).unwrap(); // 16 + 80
        assert_eq!(h.used_bytes(), 96);
        h.alloc_str("abcd").unwrap(); // 16 + 4
        assert_eq!(h.used_bytes(), 116);
        assert_eq!(h.alloc_count(), 2);
    }

    #[test]
    fn array_bounds() {
        let mut h = Heap::new();
        let a = h.alloc_arr(2).unwrap();
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
        let a = h.alloc_arr(1).unwrap();
        let _b = h.alloc_arr(1).unwrap();
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
        let ids: Vec<ObjId> = (0..4).map(|_| h.alloc_arr(1).unwrap()).collect();
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
    fn each_entry_is_minted_for_whoever_allocates_it() {
        let mut h = Heap::new();
        // Standalone: made for origin 0, as a restored thread's would be.
        let standalone = h.alloc_arr(1).unwrap();
        let master = h.mint_for(None).alloc_arr(1).unwrap();
        let created = h.mint_for(Some(3)).alloc_str("x").unwrap();
        let homes: Vec<Home> = [standalone, master, created]
            .iter()
            .map(|&id| h.get(id).unwrap().home())
            .collect();
        assert_eq!(homes, [Home::Created(0), Home::Master, Home::Created(3)]);
        // A master is never dirty: nothing flushes it, so nothing lists it.
        h.arr_set(master, 0, Value::Int(1)).unwrap();
        h.arr_set(standalone, 0, Value::Int(1)).unwrap();
        assert!(!h.get(master).unwrap().dirty);
        let dirty: Vec<_> = h.dirty_objects().map(|(id, _)| id).collect();
        assert_eq!(dirty, vec![standalone]);
        // A flush ack turns a creation into a cached copy of its master.
        h.set_home(created, 3, 40).unwrap();
        assert_eq!(h.get(created).unwrap().home(), Home::Cached(3, 40));
        assert_eq!(h.find_cached_from(3, 40), Some(created));
    }

    #[test]
    fn an_exception_counted_but_not_kept_is_charged_as_allocated() {
        let (mut kept, mut counted) = (Heap::new(), Heap::new());
        kept.alloc_exception(ExKind::NullPointer, "null dereference");
        counted.count_exception("null dereference");
        assert_eq!(counted.used_bytes(), kept.used_bytes());
        assert_eq!(counted.alloc_count(), kept.alloc_count());
        assert_eq!((kept.len(), counted.len()), (1, 0));
    }

    #[test]
    fn cached_lookup_by_home() {
        let mut h = Heap::new();
        let class = h.class_ix("C").unwrap();
        let a = h.alloc_obj(class, []).unwrap();
        let b = h.alloc_obj(class, []).unwrap();
        let c = h.alloc_obj(class, []).unwrap();
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
        let s = h.alloc_str("x").unwrap();
        assert!(h.arr_len(s).is_err());
        let class = h.class_ix("C").unwrap();
        let o = h.alloc_obj(class, []).unwrap();
        assert!(h.get_str(o).is_err());
    }

    #[test]
    fn names_are_interned_once_and_text_lives_in_one_arena() {
        let mut h = Heap::new();
        let a = h.class_ix("A").unwrap();
        assert_eq!(h.class_ix("B").map(|b| b == a), Ok(false));
        assert_eq!(h.class_ix("A"), Ok(a));
        assert_eq!(h.class_name(a), "A");
        let s = h.alloc_str("abc").unwrap();
        let e = h.alloc_exception(ExKind::DivByZero, "by zero").unwrap();
        assert_eq!(h.get_str(s), Ok("abc"));
        let ObjKind::Exception { message, .. } = h.get(e).unwrap().kind else {
            panic!("an exception");
        };
        assert_eq!(h.text(message), "by zero");
        assert_eq!(h.held_bytes(), 2 * 32 + 10);
        // An installed string refreshed at its length is rewritten in
        // place; at another length its new text is appended.
        let fetched = |text| Fetched::<std::iter::Empty<VmResult<Value>>>::Str(text);
        let copy = h.install_cached(1, 7, fetched("xyz")).unwrap();
        h.install_cached(1, 7, fetched("XYZ")).unwrap();
        assert_eq!((h.get_str(copy), h.held_bytes()), (Ok("XYZ"), 3 * 32 + 13));
        h.install_cached(1, 7, fetched("longer")).unwrap();
        assert_eq!(
            (h.get_str(copy), h.held_bytes()),
            (Ok("longer"), 3 * 32 + 19)
        );
    }

    #[test]
    fn a_heap_entry_fits_in_32_bytes_and_owns_nothing() {
        assert!(std::mem::size_of::<HeapObj>() <= 32);
        assert!(!std::mem::needs_drop::<ObjKind>());
    }

    #[test]
    fn an_arena_past_u32_slots_is_an_error_not_a_wrap() {
        let mut h = Heap::new();
        h.alloc_arr(2).unwrap();
        let before = format!("{h:?}");
        // Refused before the arena grows: nothing is reserved or written.
        assert_eq!(h.alloc_arr(u32::MAX as usize), Err(VmError::SlotArenaFull));
        assert_eq!(h.alloc_arr(usize::MAX), Err(VmError::SlotArenaFull));
        assert_eq!(format!("{h:?}"), before);
    }
}
