//! Binary wire codec for everything that travels between nodes.
//!
//! Hand-rolled (no serde): the encoded length *is* the paper's
//! "Java-serialized size", which drives every transfer-time computation in
//! the evaluation, so the codec and the cost model must be the same thing.
//! They are: the layout is described once, by the `put_*` encoders, and a
//! size query (`CapturedState::wire_bytes`, `WireObject::wire_bytes`,
//! [`class_wire_bytes`]) is that same encoder run against the byte-counting
//! [`CountBuf`] sink. `encode_*(x).len() == x.wire_bytes()` therefore holds
//! by construction for all three entities, which is what lets the runtime
//! price a capture before encoding it, serialize **once**, and use the
//! frame length as the byte metric everywhere. The numbers themselves are
//! pinned by literals (`frame_length_is_the_byte_metric` below,
//! `tests/corpus/codec_equivalence.rs`).
//!
//! Encodable entities:
//! * [`CapturedState`] — SOD state messages (16-byte magic/kind header,
//!   u16-prefixed names, u32-prefixed value sequences),
//! * [`ClassDef`] — on-demand code shipping (the class-file-load-hook path),
//! * heap objects — on-demand fetches and dirty write-backs, written
//!   straight from a [`Heap`] and read straight into one (see "Objects"
//!   below; [`WireObject`] is the decoded view of such a frame).
//!
//! Layout discipline: little-endian fixed-width integers, length-prefixed
//! strings and sequences. Every `encode_*` has a matching `decode_*` (the
//! class pair reads one description); property tests round-trip all of them. Decoders validate every declared
//! length against `buf.remaining()` **before** allocating, so corrupt or
//! adversarial prefixes produce a typed [`VmError::Decode`] rather than a
//! huge allocation; encoders reject payloads whose lengths overflow their
//! prefix width with [`VmError::Encode`], so encode and decode can never
//! disagree on layout.
//!
//! Decoding a state message builds the three-array in-memory form
//! `sod_vm::capture` describes, from bytes that repeat everything, in one
//! pass over a plain `&[u8]` cursor. A frame whose two names repeat the
//! open run's *raw bytes* joins that run before any `Arc` is touched — a
//! deep recursion costs one comparison per frame. A frame that opens a run
//! takes its names through a bounded window of the (at most eight) names
//! this message most recently produced: a repeat is again recognised by
//! its bytes and returned as the same `Arc`, only an unseen name is
//! UTF-8-validated and allocated, and a message of all-distinct names stays
//! linear. The value array is reserved once, from the first frame's shape
//! capped by the bytes that are left (see [`decode_state`] for the bound),
//! and bytes left over after the last statics entry are an error: the
//! frame's length is the byte metric at every later touch point, so it has
//! to be the message's. No sub-view of the frame outlives the call, so the
//! caller may recycle the buffer at once.
//!
//! Buffer lifecycle: encoders can write into pooled buffers
//! ([`BufferPool`]) checked out at encode time and recycled after the last
//! delivery (`Bytes::try_into_mut` reclaims the allocation, and the shared
//! cell with it, when the frame's refcount drops to one — a pooled frame
//! costs no allocation). Per-link sends batch multiple payloads into one
//! length-prefixed [`FrameBatch`] per delivery window; a batch written by a
//! [`BatchWriter`] keeps all its frames in *one* pooled buffer.

use std::cell::Cell;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::capture::{CapturedState, CapturedStatics, CapturedValue, Frames};
use crate::class::{ClassDef, ExEntry, ExKind, FieldDef, MethodDef};
use crate::error::{VmError, VmResult};
use crate::instr::{Cmp, Instr, SwitchTable};
use crate::value::{ObjId, TypeOf};

/// Magic word opening every framed state payload (`"SODW"` little-endian).
pub const STATE_MAGIC: u32 = 0x534F_4457;
/// Frame-kind discriminant for captured-state payloads.
pub const KIND_STATE: u32 = 1;

/// The decoded view of an object frame: the payload of an object-fault
/// reply or a dirty-object flush, with references as home object ids. The
/// runtime never builds one — it writes frames from the heap and reads them
/// into it (see "Objects" below); this is the form tests, replays and
/// tools hold an object in, and every function over it is a composition of
/// the same writer and reader.
#[derive(Clone, Debug, PartialEq)]
pub struct WireObject {
    /// Identity of the master copy on the home node. For objects created on
    /// a worker and flushed home for the first time this is a temporary id
    /// the home node remaps.
    pub home_id: ObjId,
    pub body: WireObjBody,
}

/// Body of a shipped object.
#[derive(Clone, Debug, PartialEq)]
pub enum WireObjBody {
    Obj {
        class: Arc<str>,
        fields: Vec<CapturedValue>,
    },
    Arr {
        elems: Vec<CapturedValue>,
    },
    Str(String),
}

impl WireObject {
    /// Serialized size (the object-fetch transfer cost), counted without
    /// allocating. Equals `encode_object(self).len()`.
    pub fn wire_bytes(&self) -> u64 {
        count_bytes(|buf| put_wire_object(buf, self))
    }
}

// ---------------------------------------------------------------------------
// Streaming size counter
// ---------------------------------------------------------------------------

/// A [`BufMut`] that discards bytes and only counts them: running an encoder
/// against a `CountBuf` yields the exact frame length without allocating.
/// This is how size queries on not-yet-encoded values stay allocation-free.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountBuf {
    count: u64,
}

impl CountBuf {
    /// Bytes the encoder would have written so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// The frame length `put` would produce. An entity whose lengths overflow
/// their prefix widths is unencodable (`encode_*` rejects it before anything
/// ships), so the partial count returned for one is never used as a
/// transfer size.
fn count_bytes(put: impl FnOnce(&mut CountBuf) -> VmResult<()>) -> u64 {
    let mut counter = CountBuf::default();
    let _ = put(&mut counter);
    counter.count()
}

impl BufMut for CountBuf {
    fn put_u8(&mut self, _v: u8) {
        self.count += 1;
    }
    fn put_u16_le(&mut self, _v: u16) {
        self.count += 2;
    }
    fn put_u32_le(&mut self, _v: u32) {
        self.count += 4;
    }
    fn put_u64_le(&mut self, _v: u64) {
        self.count += 8;
    }
    fn put_i64_le(&mut self, _v: i64) {
        self.count += 8;
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.count += s.len() as u64;
    }
}

// ---------------------------------------------------------------------------
// Buffer pool
// ---------------------------------------------------------------------------

/// Retain at most this many idle buffers (beyond that, drop to the allocator).
const POOL_MAX_IDLE: usize = 64;
/// Capacity pre-reserved for buffers minted when the pool is empty.
const POOL_SEED_CAPACITY: usize = 256;

/// A small free-list of encode buffers. Encoders check a [`BytesMut`] out,
/// fill it, and freeze it into the [`Bytes`] frame that travels; after the
/// final delivery [`BufferPool::recycle`] reclaims the allocation when the
/// frame was the last owner. Pool state never influences encoded bytes, so
/// reuse cannot perturb determinism.
///
/// The pool belongs to one thread (it is not `Sync`), so the free list is
/// a [`Cell`] taken and set back by each call: no lock, and no poisoning.
#[derive(Default)]
pub struct BufferPool {
    free: Cell<Vec<BytesMut>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_free<R>(&self, f: impl FnOnce(&mut Vec<BytesMut>) -> R) -> R {
        let mut free = self.free.take();
        let r = f(&mut free);
        self.free.set(free);
        r
    }

    /// Take a cleared buffer from the free list, or mint a fresh one.
    pub fn checkout(&self) -> BytesMut {
        self.with_free(Vec::pop)
            .unwrap_or_else(|| BytesMut::with_capacity(POOL_SEED_CAPACITY))
    }

    /// Return a delivered frame's allocation to the free list. Succeeds only
    /// when `frame` is the last handle on its allocation (clones still in
    /// flight keep it alive); returns whether the buffer was reclaimed.
    pub fn recycle(&self, frame: Bytes) -> bool {
        match frame.try_into_mut() {
            Ok(mut buf) => {
                buf.clear();
                self.give_back(buf);
                true
            }
            Err(_) => false,
        }
    }

    /// Return a checked-out buffer that never became a frame.
    pub fn give_back(&self, mut buf: BytesMut) {
        buf.clear();
        self.with_free(|free| {
            if free.len() < POOL_MAX_IDLE {
                free.push(buf);
            }
        });
    }

    /// Idle buffers currently held.
    pub fn idle(&self) -> usize {
        self.with_free(|free| free.len())
    }
}

// ---------------------------------------------------------------------------
// Frame batches (one length-prefixed frame per delivery window)
// ---------------------------------------------------------------------------

/// An ordered batch of encoded frames travelling over one link in one
/// delivery window, wire form `[u32 n] ([u32 len_i] [payload_i])*`.
/// [`FrameBatch::payload_bytes`] excludes the framing overhead, so batching
/// leaves every byte metric numerically identical to per-payload sends.
///
/// Most batches hold one frame (a shallow object-fault reply), so a single
/// frame is held inline; only a second frame allocates the list.
#[derive(Clone, Debug)]
pub struct FrameBatch {
    frames: Batched,
}

#[derive(Clone, Debug)]
enum Batched {
    One(Bytes),
    /// Any other count, zero included (an empty `Vec` owns no allocation).
    Many(Vec<Bytes>),
}

impl Default for FrameBatch {
    fn default() -> Self {
        FrameBatch {
            frames: Batched::Many(Vec::new()),
        }
    }
}

impl PartialEq for FrameBatch {
    fn eq(&self, other: &Self) -> bool {
        self.frames() == other.frames()
    }
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one encoded payload frame.
    pub fn push(&mut self, frame: Bytes) {
        self.frames = match std::mem::replace(&mut self.frames, Batched::Many(Vec::new())) {
            Batched::Many(list) if list.is_empty() => Batched::One(frame),
            Batched::Many(mut list) => {
                list.push(frame);
                Batched::Many(list)
            }
            Batched::One(first) => Batched::Many(vec![first, frame]),
        };
    }

    /// Number of frames in the batch.
    pub fn len(&self) -> usize {
        self.frames().len()
    }

    /// Whether the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames().is_empty()
    }

    /// The batched frames, in push order.
    pub fn frames(&self) -> &[Bytes] {
        match &self.frames {
            Batched::One(frame) => std::slice::from_ref(frame),
            Batched::Many(list) => list,
        }
    }

    /// Consume the batch, yielding the owned frames (e.g. to recycle their
    /// allocations into a [`BufferPool`] after the final delivery).
    pub fn into_frames(self) -> impl Iterator<Item = Bytes> {
        let (one, many) = match self.frames {
            Batched::One(frame) => (Some(frame), Vec::new()),
            Batched::Many(list) => (None, list),
        };
        one.into_iter().chain(many)
    }

    /// Sum of payload lengths — the byte metric, identical to summing
    /// `wire_bytes()` over the original values.
    pub fn payload_bytes(&self) -> u64 {
        self.frames().iter().map(|f| f.len() as u64).sum()
    }

    /// Encode the batch into its single length-prefixed delivery frame, in
    /// a pooled buffer (see [`BufferPool`]).
    pub fn encode_pooled(&self, pool: &BufferPool) -> VmResult<Bytes> {
        let mut buf = pool.checkout();
        self.put_into(&mut buf)?;
        Ok(buf.freeze())
    }

    fn put_into<B: BufMut>(&self, buf: &mut B) -> VmResult<()> {
        buf.put_u32_le(seq_len32(self.len(), "frame batch too large")?);
        for f in self.frames() {
            buf.put_u32_le(seq_len32(f.len(), "batched frame too large")?);
            buf.put_slice(f);
        }
        Ok(())
    }

    /// Decode a delivery frame back into its payload frames. Zero-copy: the
    /// returned frames are sub-views of `buf`'s allocation.
    pub fn decode(mut buf: Bytes) -> VmResult<FrameBatch> {
        let n = get_u32(&mut buf)? as usize;
        ensure_seq(&buf, n, 4, "frame batch count overruns buffer")?;
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            let len = get_u32(&mut buf)? as usize;
            if buf.remaining() < len {
                return Err(VmError::Decode("batched frame truncated"));
            }
            frames.push(buf.split_to(len));
        }
        Ok(frames.into_iter().collect())
    }
}

impl FromIterator<Bytes> for FrameBatch {
    fn from_iter<I: IntoIterator<Item = Bytes>>(iter: I) -> Self {
        let mut list: Vec<Bytes> = iter.into_iter().collect();
        let frames = match list.len() {
            1 => Batched::One(list.remove(0)),
            _ => Batched::Many(list),
        };
        FrameBatch { frames }
    }
}

impl<'a> IntoIterator for &'a FrameBatch {
    type Item = &'a Bytes;
    type IntoIter = std::slice::Iter<'a, Bytes>;
    fn into_iter(self) -> Self::IntoIter {
        self.frames().iter()
    }
}

/// Writes a batch's frames back to back into **one** pooled buffer; the
/// finished [`FrameBatch`]'s frames are [`Bytes::slice`]s of it. A flush of
/// any size therefore costs the pool one buffer and the allocator one frame
/// list (none for a single frame), where a buffer per frame cost both one
/// of each per object — and emptied the pool on every large flush. The
/// buffer returns to the pool when the last of the slices is recycled, or
/// at once if the writer is dropped unfinished (an encoder failed).
pub struct BatchWriter<'p> {
    pool: &'p BufferPool,
    /// Checked out by the first frame: an empty batch takes no buffer.
    buf: Option<BytesMut>,
    /// Where each frame after the first begins.
    splits: Vec<usize>,
}

impl<'p> BatchWriter<'p> {
    /// A writer of an (as yet) empty batch, drawing on `pool`.
    pub fn new(pool: &'p BufferPool) -> Self {
        BatchWriter {
            pool,
            buf: None,
            splits: Vec::new(),
        }
    }

    /// Append the frame `put` writes. If `put` fails the batch is unusable;
    /// drop the writer.
    pub fn frame(&mut self, put: impl FnOnce(&mut BytesMut) -> VmResult<()>) -> VmResult<()> {
        match &mut self.buf {
            Some(buf) => {
                self.splits.push(buf.len());
                put(buf)
            }
            None => put(self.buf.insert(self.pool.checkout())),
        }
    }

    /// The batch of every frame written.
    pub fn finish(mut self) -> FrameBatch {
        let Some(buf) = self.buf.take() else {
            return FrameBatch::new();
        };
        let whole = buf.freeze();
        if self.splits.is_empty() {
            return FrameBatch {
                frames: Batched::One(whole),
            };
        }
        let starts = std::iter::once(0).chain(self.splits.iter().copied());
        let ends = self.splits.iter().copied().chain([whole.len()]);
        let list = starts.zip(ends).map(|(a, b)| whole.slice(a..b)).collect();
        FrameBatch {
            frames: Batched::Many(list),
        }
    }
}

impl Drop for BatchWriter<'_> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.give_back(buf);
        }
    }
}

// ---------------------------------------------------------------------------
// Primitive helpers
// ---------------------------------------------------------------------------

/// Check a declared sequence length against what the buffer can possibly
/// hold (`min_elem` = smallest encoded element) *before* allocating.
fn ensure_seq(buf: &impl Buf, n: usize, min_elem: usize, what: &'static str) -> VmResult<()> {
    match n.checked_mul(min_elem) {
        Some(need) if need <= buf.remaining() => Ok(()),
        _ => Err(VmError::Decode(what)),
    }
}

fn seq_len32(n: usize, what: &'static str) -> VmResult<u32> {
    u32::try_from(n).map_err(|_| VmError::Encode(what))
}

fn seq_len16(n: usize, what: &'static str) -> VmResult<u16> {
    u16::try_from(n).map_err(|_| VmError::Encode(what))
}

fn put_str<B: BufMut>(buf: &mut B, s: &str) -> VmResult<()> {
    buf.put_u32_le(seq_len32(s.len(), "string exceeds u32 length prefix")?);
    buf.put_slice(s.as_bytes());
    Ok(())
}

/// Read one u32-prefixed string (see [`put_str`]) as a view of the frame.
fn get_str_ref<'a>(buf: &mut &'a [u8]) -> VmResult<&'a str> {
    let len = get_u32(buf)? as usize;
    if buf.len() < len {
        return Err(VmError::Decode("string truncated"));
    }
    let (raw, rest) = buf.split_at(len);
    *buf = rest;
    std::str::from_utf8(raw).map_err(|_| VmError::Decode("invalid utf8"))
}

/// Name strings in state frames use a compact u16 prefix.
fn put_str16<B: BufMut>(buf: &mut B, s: &str) -> VmResult<()> {
    buf.put_u16_le(seq_len16(s.len(), "name exceeds u16 length prefix")?);
    buf.put_slice(s.as_bytes());
    Ok(())
}

/// How many distinct names a [`NameWindow`] remembers at once.
const NAME_WINDOW: usize = 8;

/// The names one state message most recently decoded. A state frame
/// repeats few names many times (a deep recursion: one class, one method),
/// so a name whose bytes match a remembered one is returned as that same
/// `Arc` — no UTF-8 pass, no allocation. The window is fixed-size: a
/// message of all-distinct names costs at most [`NAME_WINDOW`] short
/// comparisons per name and decodes exactly as it would without it.
#[derive(Default)]
struct NameWindow {
    names: [Option<Arc<str>>; NAME_WINDOW],
    /// The slot the next unseen name replaces (oldest first).
    next: usize,
}

impl NameWindow {
    /// The name whose bytes are `raw`.
    fn intern(&mut self, raw: &[u8]) -> VmResult<Arc<str>> {
        // Remembered names are valid UTF-8, so equal bytes are too.
        let seen = self.names.iter().flatten().find(|n| n.as_bytes() == raw);
        if let Some(name) = seen {
            return Ok(name.clone());
        }
        let s = std::str::from_utf8(raw).map_err(|_| VmError::Decode("invalid utf8"))?;
        let name: Arc<str> = Arc::from(s);
        self.names[self.next] = Some(name.clone());
        self.next = (self.next + 1) % NAME_WINDOW;
        Ok(name)
    }
}

/// Read one u16-prefixed name (see [`put_str16`]) as its raw bytes, a view
/// of the frame.
fn get_raw16<'a>(buf: &mut &'a [u8]) -> VmResult<&'a [u8]> {
    let len = get_u16(buf)? as usize;
    if buf.len() < len {
        return Err(VmError::Decode("string truncated"));
    }
    let (raw, rest) = buf.split_at(len);
    *buf = rest;
    Ok(raw)
}

fn get_u8(buf: &mut impl Buf) -> VmResult<u8> {
    if buf.remaining() < 1 {
        return Err(VmError::Decode("u8 truncated"));
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut impl Buf) -> VmResult<u16> {
    if buf.remaining() < 2 {
        return Err(VmError::Decode("u16 truncated"));
    }
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut impl Buf) -> VmResult<u32> {
    if buf.remaining() < 4 {
        return Err(VmError::Decode("u32 truncated"));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut impl Buf) -> VmResult<u64> {
    if buf.remaining() < 8 {
        return Err(VmError::Decode("u64 truncated"));
    }
    Ok(buf.get_u64_le())
}

fn get_i64(buf: &mut impl Buf) -> VmResult<i64> {
    Ok(get_u64(buf)? as i64)
}

fn get_f64(buf: &mut impl Buf) -> VmResult<f64> {
    Ok(f64::from_bits(get_u64(buf)?))
}

// ---------------------------------------------------------------------------
// CapturedValue
// ---------------------------------------------------------------------------

/// One tag byte, then (except for `Null`) one little-endian word: a single
/// put of at most nine bytes.
fn put_captured_value<B: BufMut>(buf: &mut B, v: &CapturedValue) {
    let (tag, word) = match *v {
        CapturedValue::Null => return buf.put_u8(0),
        CapturedValue::Int(i) => (1, i as u64),
        CapturedValue::Num(n) => (2, n.to_bits()),
        CapturedValue::HomeRef(id) => (3, u64::from(id)),
    };
    let mut bytes = [tag; 9];
    bytes[1..].copy_from_slice(&word.to_le_bytes());
    buf.put_slice(&bytes);
}

fn get_captured_value(buf: &mut impl Buf) -> VmResult<CapturedValue> {
    Ok(match get_u8(buf)? {
        0 => CapturedValue::Null,
        1 => CapturedValue::Int(get_i64(buf)?),
        2 => CapturedValue::Num(get_f64(buf)?),
        3 => CapturedValue::HomeRef(get_u64(buf)? as ObjId),
        _ => return Err(VmError::Decode("bad CapturedValue tag")),
    })
}

fn put_values<B: BufMut>(buf: &mut B, vs: &[CapturedValue]) -> VmResult<()> {
    buf.put_u32_le(seq_len32(vs.len(), "value sequence exceeds u32 prefix")?);
    for v in vs {
        put_captured_value(buf, v);
    }
    Ok(())
}

/// Statics value sequences use a compact u16 prefix.
fn put_values16<B: BufMut>(buf: &mut B, vs: &[CapturedValue]) -> VmResult<()> {
    buf.put_u16_le(seq_len16(vs.len(), "value sequence exceeds u16 prefix")?);
    for v in vs {
        put_captured_value(buf, v);
    }
    Ok(())
}

fn get_values16(buf: &mut impl Buf) -> VmResult<Vec<CapturedValue>> {
    let n = get_u16(buf)? as usize;
    ensure_seq(buf, n, 1, "value count overruns buffer")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_captured_value(buf)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// CapturedState
// ---------------------------------------------------------------------------

/// Write a captured state message to any [`BufMut`] sink:
/// a 16-byte `[magic][kind][nframes][nstatics]` header, then per frame
/// `[u16 class_len][class][u16 method_len][method][u32 pc][u32 nlocals]
/// [locals]` (12 fixed bytes) and per statics entry
/// `[u16 class_len][class][u16 nvalues][values]` (4 fixed bytes).
fn put_state<B: BufMut>(buf: &mut B, state: &CapturedState) -> VmResult<()> {
    buf.put_u32_le(STATE_MAGIC);
    buf.put_u32_le(KIND_STATE);
    buf.put_u32_le(seq_len32(
        state.frames.len(),
        "frame count exceeds u32 prefix",
    )?);
    buf.put_u32_le(seq_len32(
        state.statics.len(),
        "statics count exceeds u32 prefix",
    )?);
    for f in state.frames.iter() {
        put_str16(buf, f.class)?;
        put_str16(buf, f.method)?;
        buf.put_u32_le(f.pc);
        put_values(buf, f.locals)?;
    }
    for s in &state.statics {
        put_str16(buf, &s.class)?;
        put_values16(buf, &s.values)?;
    }
    Ok(())
}

impl CapturedState {
    /// Serialized size of the state message (drives transfer time), counted
    /// without allocating. Equals `encode_state(self).len()`.
    pub fn wire_bytes(&self) -> u64 {
        count_bytes(|buf| put_state(buf, self))
    }
}

/// Encode a captured state message into a fresh exact-size buffer.
pub fn encode_state(state: &CapturedState) -> VmResult<Bytes> {
    let mut buf = BytesMut::with_capacity(state.wire_bytes() as usize);
    put_state(&mut buf, state)?;
    Ok(buf.freeze())
}

/// Encode a captured state message into a pooled buffer.
pub fn encode_state_pooled(pool: &BufferPool, state: &CapturedState) -> VmResult<Bytes> {
    let mut buf = pool.checkout();
    put_state(&mut buf, state)?;
    Ok(buf.freeze())
}

/// Bytes a frame takes on the wire at the least: two empty names, a pc and
/// a zero locals count.
const MIN_FRAME_BYTES: usize = 12;

/// Decode a captured state message, validating the frame header and every
/// declared length before allocating. The whole of `frame` must be the
/// message: bytes left over after the last statics entry are an error.
///
/// Allocation is bounded by the input. The value array is reserved once,
/// from the first frame's shape (`nframes` frames of its `nlocals`), capped
/// by the bytes that can still hold values — a value is at least one byte
/// on the wire and 16 in memory, so the reservation is at most
/// `16 * frame.len()` bytes; segments of other shapes grow it as their
/// values are actually read.
pub fn decode_state(frame: Bytes) -> VmResult<CapturedState> {
    let buf = &mut &frame[..];
    if get_u32(buf)? != STATE_MAGIC {
        return Err(VmError::Decode("bad state magic"));
    }
    if get_u32(buf)? != KIND_STATE {
        return Err(VmError::Decode("bad state frame kind"));
    }
    let nframes = get_u32(buf)? as usize;
    let nstatics = get_u32(buf)? as usize;
    ensure_seq(buf, nframes, MIN_FRAME_BYTES, "frame count overruns buffer")?;
    // Statics follow the frames; their minimum footprint must fit too.
    ensure_seq(buf, nstatics, 4, "statics count overruns buffer")?;
    let mut names = NameWindow::default();
    let mut frames = Frames::with_capacity(nframes, 0);
    // The open run's names as they sit in the frame: a frame repeating
    // them byte for byte joins the run without touching an `Arc`.
    let mut run: Option<(&[u8], &[u8])> = None;
    for above in (0..nframes).rev() {
        let raw = (get_raw16(buf)?, get_raw16(buf)?);
        if run != Some(raw) {
            frames.open_run(names.intern(raw.0)?, names.intern(raw.1)?);
            run = Some(raw);
        }
        let pc = get_u32(buf)?;
        let nlocals = get_u32(buf)? as usize;
        ensure_seq(buf, nlocals, 1, "value count overruns buffer")?;
        if frames.is_empty() {
            // The frames above this one take their minimum out of what is
            // left, whatever else they hold.
            let room = buf.len().saturating_sub(above * MIN_FRAME_BYTES);
            frames.reserve_values(nframes.saturating_mul(nlocals).min(room));
        }
        for _ in 0..nlocals {
            frames.push_value(get_captured_value(buf)?);
        }
        let closed = frames.end_frame(pc);
        closed.map_err(|_| VmError::Decode("segment outgrew its u32 indexes"))?;
    }
    let mut statics = Vec::with_capacity(nstatics);
    for _ in 0..nstatics {
        let class = names.intern(get_raw16(buf)?)?;
        let values = get_values16(buf)?;
        statics.push(CapturedStatics { class, values });
    }
    if !buf.is_empty() {
        return Err(VmError::Decode("trailing bytes after state"));
    }
    Ok(CapturedState { frames, statics })
}

// ---------------------------------------------------------------------------
// Objects
// ---------------------------------------------------------------------------
//
// An object frame is `[u64 home_id] [u8 tag]` and then, by tag,
//
//   0 (instance)  [u32 len][class name] [u32 n] n x value
//   1 (array)     [u32 n] n x value
//   2 (string)    [u32 len][utf-8]          (exceptions ship their message)
//
// with values as in state frames and references as home object ids.
//
// One function writes that form, [`put_object_with`], generic over where
// the slots come from, and one reads it, [`ObjectFrame::read`] with its
// [`Slots`] cursor. The runtime's object manager uses them with a heap on
// the other side and nothing in between:
//
// * a fault reply is written from the home's `HeapObj` — the class name
//   read from the heap's name table, each slot exported as it is written
//   ([`put_home_object`]);
// * a write-back is written from the worker's dirty copy, worker-created
//   neighbours named by temp ids ([`put_dirty_object`]), every object of a
//   flush into one pooled buffer ([`BatchWriter`]);
// * a fetched frame is read into the heap's slot arena, where the cached
//   copy's slots live, its class name interned and a string's text copied
//   into the text arena ([`install_object_frame`]), and a flush is applied
//   slot by slot from its frames by the runtime, after
//   [`ObjectFrame::validate`] has walked every frame of the batch: the walk
//   allocates nothing, and because it runs before the first heap write, a
//   batch with a malformed frame changes nothing at all.
//
// [`WireObject`] is the *decoded view* of a frame, for tests, replays and
// tools: `extract_*` build it with the same exporters the direct writers
// use, `encode_object` feeds it to the same writer, `decode_object`
// collects it from the same reader, and `install_object_from` ends in the
// same heap call as the direct install. There is no second codec to keep
// in step.

use crate::heap::{Fetched, Heap, HeapObj, ObjKind};
use crate::idhash::IdSet;
use crate::value::{OriginId, Value};

/// Body tags of an object frame.
const TAG_OBJ: u8 = 0;
const TAG_ARR: u8 = 1;
const TAG_STR: u8 = 2;

/// What an object frame is written from: the three body shapes, slots
/// still in their source's own form (`Value` in a heap, `CapturedValue` in
/// a [`WireObject`]).
enum BodySrc<'a, T> {
    Obj { class: &'a str, fields: &'a [T] },
    Arr { elems: &'a [T] },
    Str(&'a str),
}

impl<'a> BodySrc<'a, Value> {
    /// An entry of `heap` and its slots, as [`Heap::view`] returns them:
    /// an instance's class name and a string's text are read from the
    /// heap's tables.
    fn of_heap(heap: &'a Heap, (obj, slots): (&'a HeapObj, &'a [Value])) -> Self {
        match obj.kind {
            ObjKind::Obj { class, .. } => BodySrc::Obj {
                class: heap.class_name(class),
                fields: slots,
            },
            ObjKind::Arr { .. } => BodySrc::Arr { elems: slots },
            ObjKind::Str(text) | ObjKind::Exception { message: text, .. } => {
                BodySrc::Str(heap.text(text))
            }
        }
    }
}

impl<'a> BodySrc<'a, CapturedValue> {
    fn of_view(obj: &'a WireObject) -> Self {
        match &obj.body {
            WireObjBody::Obj { class, fields } => BodySrc::Obj { class, fields },
            WireObjBody::Arr { elems } => BodySrc::Arr { elems },
            WireObjBody::Str(s) => BodySrc::Str(s),
        }
    }
}

/// The one writer of the object wire form; `export` turns a source slot
/// into the value that travels.
fn put_object_with<B: BufMut, T>(
    buf: &mut B,
    home_id: ObjId,
    body: BodySrc<'_, T>,
    mut export: impl FnMut(&T) -> VmResult<CapturedValue>,
) -> VmResult<()> {
    let mut put_slots = |buf: &mut B, slots: &[T]| -> VmResult<()> {
        buf.put_u32_le(seq_len32(slots.len(), "value sequence exceeds u32 prefix")?);
        for slot in slots {
            put_captured_value(buf, &export(slot)?);
        }
        Ok(())
    };
    buf.put_u64_le(u64::from(home_id));
    match body {
        BodySrc::Obj { class, fields } => {
            buf.put_u8(TAG_OBJ);
            put_str(buf, class)?;
            put_slots(buf, fields)
        }
        BodySrc::Arr { elems } => {
            buf.put_u8(TAG_ARR);
            put_slots(buf, elems)
        }
        BodySrc::Str(s) => {
            buf.put_u8(TAG_STR);
            put_str(buf, s)
        }
    }
}

/// The decoded view of what [`put_object_with`] would write.
fn view_with<T>(
    home_id: ObjId,
    body: BodySrc<'_, T>,
    export: impl FnMut(&T) -> VmResult<CapturedValue>,
) -> VmResult<WireObject> {
    let body = match body {
        BodySrc::Obj { class, fields } => WireObjBody::Obj {
            class: class.into(),
            fields: fields.iter().map(export).collect::<VmResult<_>>()?,
        },
        BodySrc::Arr { elems } => WireObjBody::Arr {
            elems: elems.iter().map(export).collect::<VmResult<_>>()?,
        },
        BodySrc::Str(s) => WireObjBody::Str(s.to_owned()),
    };
    Ok(WireObject { home_id, body })
}

/// How a slot of a *home* object travels: primitives by value, references
/// as home ids (nulled + flagged on install).
fn export_home(v: &Value) -> VmResult<CapturedValue> {
    Ok(CapturedValue::from_value(*v))
}

/// How a slot of a worker's *dirty* object travels home: a reference to a
/// cached copy as that copy's home id, a reference to a worker-created
/// object as `temp_base + local id` (the home remaps it after allocating
/// masters — see the runtime's flush protocol), a transfer-nulled
/// reference as the home identity it carries.
fn export_dirty(heap: &Heap, temp_base: ObjId) -> impl Fn(&Value) -> VmResult<CapturedValue> + '_ {
    move |v| {
        Ok(match v {
            Value::Ref(r) => match heap.get(*r)?.home_id() {
                Some(h) => CapturedValue::HomeRef(h),
                None => CapturedValue::HomeRef(temp_base + r),
            },
            other => CapturedValue::from_value(*other),
        })
    }
}

/// The identity a worker's object `id` is written back under: its home id
/// for a cached copy, a temp id for an object the worker created.
fn dirty_identity(obj: &HeapObj, id: ObjId, temp_base: ObjId) -> ObjId {
    obj.home_id().unwrap_or(temp_base + id)
}

/// Write home object `id` of `heap` as the frame of an object-fault reply:
/// shallow — primitive slots by value, reference slots as home ids.
pub fn put_home_object<B: BufMut>(buf: &mut B, heap: &Heap, id: ObjId) -> VmResult<()> {
    put_object_with(buf, id, BodySrc::of_heap(heap, heap.view(id)?), export_home)
}

/// Write a worker's object `id` as a frame of its write-back flush (see
/// [`extract_dirty`] for the identities used).
pub fn put_dirty_object<B: BufMut>(
    buf: &mut B,
    heap: &Heap,
    id: ObjId,
    temp_base: ObjId,
) -> VmResult<()> {
    let view = heap.view(id)?;
    let home_id = dirty_identity(view.0, id, temp_base);
    let body = BodySrc::of_heap(heap, view);
    put_object_with(buf, home_id, body, export_dirty(heap, temp_base))
}

fn put_wire_object<B: BufMut>(buf: &mut B, obj: &WireObject) -> VmResult<()> {
    put_object_with(buf, obj.home_id, BodySrc::of_view(obj), |v| Ok(*v))
}

/// Encode a shipped heap object.
pub fn encode_object(obj: &WireObject) -> VmResult<Bytes> {
    let mut buf = BytesMut::with_capacity(64);
    put_wire_object(&mut buf, obj)?;
    Ok(buf.freeze())
}

/// Encode a shipped heap object into a pooled buffer.
pub fn encode_object_pooled(pool: &BufferPool, obj: &WireObject) -> VmResult<Bytes> {
    let mut buf = pool.checkout();
    put_wire_object(&mut buf, obj)?;
    Ok(buf.freeze())
}

/// One object frame, read but not copied anywhere: the header is parsed
/// (every declared length checked against the bytes that remain), names
/// and strings are views of the frame, and the slots are decoded as
/// [`Slots`] is iterated.
#[derive(Clone, Debug)]
pub struct ObjectFrame<'a> {
    /// Identity of the master copy (a temp id for a worker-created object
    /// on its first flush).
    pub home_id: ObjId,
    pub body: FrameBody<'a>,
}

/// Body of an [`ObjectFrame`].
#[derive(Clone, Debug)]
pub enum FrameBody<'a> {
    Obj { class: &'a str, fields: Slots<'a> },
    Arr { elems: Slots<'a> },
    Str(&'a str),
}

/// The value slots of an object frame, in order. The count was checked
/// against the frame's length when the header was read, so reserving
/// `len()` slots up front is bounded by the frame; each value is checked as
/// it is reached.
#[derive(Clone, Debug)]
pub struct Slots<'a> {
    left: usize,
    rest: &'a [u8],
}

impl<'a> Slots<'a> {
    /// Read a slot sequence's count; the slots are whatever follows.
    fn read(mut buf: &'a [u8]) -> VmResult<Self> {
        let left = get_u32(&mut buf)? as usize;
        ensure_seq(&buf, left, 1, "value count overruns buffer")?;
        Ok(Slots { left, rest: buf })
    }

    /// Decode every slot through `convert` into the `Vec` its owner keeps.
    pub fn collect_as<T>(self, convert: impl Fn(CapturedValue) -> T) -> VmResult<Vec<T>> {
        let mut out = Vec::with_capacity(self.left);
        for slot in self {
            out.push(convert(slot?));
        }
        Ok(out)
    }
}

impl Iterator for Slots<'_> {
    type Item = VmResult<CapturedValue>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let slot = get_captured_value(&mut self.rest);
        // A bad slot ends the walk: nothing after it can be trusted.
        self.left = if slot.is_ok() { self.left - 1 } else { 0 };
        Some(slot)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Slots<'_> {}

impl<'a> ObjectFrame<'a> {
    /// The one reader of the object wire form.
    pub fn read(mut frame: &'a [u8]) -> VmResult<Self> {
        let buf = &mut frame;
        let home_id = get_u64(buf)? as ObjId;
        let body = match get_u8(buf)? {
            TAG_OBJ => FrameBody::Obj {
                class: get_str_ref(buf)?,
                fields: Slots::read(buf)?,
            },
            TAG_ARR => FrameBody::Arr {
                elems: Slots::read(buf)?,
            },
            TAG_STR => FrameBody::Str(get_str_ref(buf)?),
            _ => return Err(VmError::Decode("bad WireObject tag")),
        };
        Ok(ObjectFrame { home_id, body })
    }

    /// Walk the whole frame — header and every slot — without keeping
    /// anything: `Ok` exactly when decoding it would succeed. Allocates
    /// nothing, so a batch can be vetted before any of it is applied.
    pub fn validate(frame: &[u8]) -> VmResult<()> {
        match ObjectFrame::read(frame)?.body {
            FrameBody::Obj { fields: slots, .. } | FrameBody::Arr { elems: slots } => {
                slots.into_iter().try_for_each(|slot| slot.map(drop))
            }
            FrameBody::Str(_) => Ok(()),
        }
    }
}

/// Decode a shipped heap object into its [`WireObject`] view.
pub fn decode_object(buf: Bytes) -> VmResult<WireObject> {
    let frame = ObjectFrame::read(&buf)?;
    let body = match frame.body {
        FrameBody::Obj { class, fields } => WireObjBody::Obj {
            class: class.into(),
            fields: fields.collect_as(|v| v)?,
        },
        FrameBody::Arr { elems } => WireObjBody::Arr {
            elems: elems.collect_as(|v| v)?,
        },
        FrameBody::Str(s) => WireObjBody::Str(s.to_owned()),
    };
    Ok(WireObject {
        home_id: frame.home_id,
        body,
    })
}

// ---------------------------------------------------------------------------
// Object extraction / installation (home ↔ worker heap transfer)
// ---------------------------------------------------------------------------

/// Extract object `id` from a heap as a shallow [`WireObject`]: primitive
/// slots by value, reference slots as home ids (nulled + flagged on
/// install). The view of the frame [`put_home_object`] writes.
pub fn extract_object(heap: &Heap, id: ObjId) -> VmResult<WireObject> {
    view_with(id, BodySrc::of_heap(heap, heap.view(id)?), export_home)
}

/// Ids of the transitive closure of `id` (deep fetch / eager copy):
/// breadth-first over reference slots, root first, each object once.
pub fn closure_ids(heap: &Heap, id: ObjId) -> VmResult<Vec<ObjId>> {
    let mut seen: IdSet<ObjId> = IdSet::default();
    seen.insert(id);
    let mut order = vec![id];
    let mut next = 0;
    while let Some(&cur) = order.get(next) {
        next += 1;
        for slot in heap.view(cur)?.1 {
            // Every slot that travels as a home id is an edge.
            if let CapturedValue::HomeRef(r) = CapturedValue::from_value(*slot) {
                if seen.insert(r) {
                    order.push(r);
                }
            }
        }
    }
    Ok(order)
}

/// [`closure_ids`] as [`WireObject`] views, in the same order.
pub fn extract_closure(heap: &Heap, id: ObjId) -> VmResult<Vec<WireObject>> {
    let ids = closure_ids(heap, id)?;
    ids.into_iter().map(|id| extract_object(heap, id)).collect()
}

/// Install the object in `frame`, shipped from node `origin`, into a worker
/// heap as a cached copy: reference slots become transfer-nulled values
/// carrying their home identity (they fault in on demand), and the copy's
/// home is recorded for nested fault resolution and write-back. If a copy
/// of the same home object already exists it is refreshed in place.
///
/// The slots are decoded straight into the heap's slot arena and a
/// string's text into its text arena, and an instance's class name is
/// interned in the heap's name table ([`Heap::install_cached`]): nothing
/// is allocated per object. `fits` may refuse an instance of a class with
/// that many slots — the caller that knows the loaded classes checks their
/// layout ([`crate::interp::Vm::install_fetched`]). On `Err` the heap is as
/// it was.
pub fn install_object_frame(
    heap: &mut Heap,
    origin: OriginId,
    frame: &[u8],
    fits: impl FnOnce(&str, usize) -> VmResult<()>,
) -> VmResult<ObjId> {
    let nulled = |slot: VmResult<CapturedValue>| slot.map(CapturedValue::to_nulled_value);
    let obj = ObjectFrame::read(frame)?;
    let body = match obj.body {
        FrameBody::Obj { class, fields } => {
            fits(class, fields.len())?;
            Fetched::Obj {
                class,
                slots: fields.map(nulled),
            }
        }
        FrameBody::Arr { elems } => Fetched::Arr {
            slots: elems.map(nulled),
        },
        FrameBody::Str(s) => Fetched::Str(s),
    };
    heap.install_cached(origin, obj.home_id, body)
}

/// [`install_object_frame`] from the decoded view, with no layout check.
pub fn install_object_from(heap: &mut Heap, origin: OriginId, obj: &WireObject) -> VmResult<ObjId> {
    fn nulled(vs: &[CapturedValue]) -> impl ExactSizeIterator<Item = VmResult<Value>> + '_ {
        vs.iter().map(|v| Ok(v.to_nulled_value()))
    }
    let body = match &obj.body {
        WireObjBody::Obj { class, fields } => Fetched::Obj {
            class,
            slots: nulled(fields),
        },
        WireObjBody::Arr { elems } => Fetched::Arr {
            slots: nulled(elems),
        },
        WireObjBody::Str(s) => Fetched::Str(s),
    };
    heap.install_cached(origin, obj.home_id, body)
}

/// [`install_object_from`] on a VM driven standalone (origin 0).
pub fn install_object(heap: &mut Heap, obj: &WireObject) -> VmResult<ObjId> {
    install_object_from(heap, 0, obj)
}

/// Build the wire form of a *dirty* object for the write-back flush: values
/// convert refs to home ids where the local copy knows them; refs to
/// worker-created objects are encoded as `HomeRef(temp_base + local_id)` so
/// the home side can remap them after allocating masters (see the runtime's
/// flush protocol). Transfer-nulled refs re-export the home identity they
/// carry. The view of the frame [`put_dirty_object`] writes.
pub fn extract_dirty(heap: &Heap, id: ObjId, temp_base: ObjId) -> VmResult<WireObject> {
    let view = heap.view(id)?;
    let home_id = dirty_identity(view.0, id, temp_base);
    let body = BodySrc::of_heap(heap, view);
    view_with(home_id, body, export_dirty(heap, temp_base))
}

// ---------------------------------------------------------------------------
// Classes
// ---------------------------------------------------------------------------

/// One part of the class frame, described once: `put` writes it and `get`
/// reads it back. Enums are code tables (`code_table!`; the 54 opcodes'
/// rows are columns of the instruction table), plain structs field lists
/// (`record!`), the three containers hand-written pairs over
/// `put_seq`/`get_seq`. State and object frames are hot paths and stay
/// hand-written above.
pub(crate) trait Codec: Sized {
    fn put<B: BufMut>(&self, buf: &mut B) -> VmResult<()>;
    fn get(buf: &mut &[u8]) -> VmResult<Self>;
}

/// Fixed-width little-endian words.
macro_rules! codec_word {
    ($($ty:ty: $put:ident, $get:ident;)*) => {$(
        impl Codec for $ty {
            fn put<B: BufMut>(&self, buf: &mut B) -> VmResult<()> {
                buf.$put(*self);
                Ok(())
            }
            fn get(buf: &mut &[u8]) -> VmResult<Self> {
                $get(buf)
            }
        }
    )*};
}

codec_word! {
    u8: put_u8, get_u8;
    u16: put_u16_le, get_u16;
    u32: put_u32_le, get_u32;
    i64: put_i64_le, get_i64;
}

impl Codec for f64 {
    fn put<B: BufMut>(&self, buf: &mut B) -> VmResult<()> {
        buf.put_u64_le(self.to_bits());
        Ok(())
    }
    fn get(buf: &mut &[u8]) -> VmResult<Self> {
        get_f64(buf)
    }
}

impl Codec for bool {
    fn put<B: BufMut>(&self, buf: &mut B) -> VmResult<()> {
        u8::from(*self).put(buf)
    }
    fn get(buf: &mut &[u8]) -> VmResult<Self> {
        Ok(get_u8(buf)? != 0)
    }
}

impl Codec for String {
    fn put<B: BufMut>(&self, buf: &mut B) -> VmResult<()> {
        put_str(buf, self)
    }
    fn get(buf: &mut &[u8]) -> VmResult<Self> {
        get_str_ref(buf).map(str::to_owned)
    }
}

impl<K: Codec, V: Codec> Codec for (K, V) {
    fn put<B: BufMut>(&self, buf: &mut B) -> VmResult<()> {
        self.0.put(buf)?;
        self.1.put(buf)
    }
    fn get(buf: &mut &[u8]) -> VmResult<Self> {
        Ok((K::get(buf)?, V::get(buf)?))
    }
}

/// A u32 count, then each item.
#[inline(always)]
fn put_seq<B: BufMut, T: Codec>(buf: &mut B, items: &[T], what: &'static str) -> VmResult<()> {
    seq_len32(items.len(), what)?.put(buf)?;
    items.iter().try_for_each(|item| item.put(buf))
}

/// Read what [`put_seq`] wrote. `min` is the smallest encoded item, so a
/// count the frame cannot hold is refused before anything is allocated.
fn get_seq<T: Codec>(buf: &mut &[u8], min: usize, what: &'static str) -> VmResult<Vec<T>> {
    let n = get_u32(buf)? as usize;
    ensure_seq(&*buf, n, min, what)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(T::get(buf)?);
    }
    Ok(items)
}

/// One code table for an enum, a row per variant: `code => Variant` or
/// `code => Variant(operand: Type, ..)`, the operands in wire order after
/// the code byte. Both directions are built from the rows, so a variant
/// without a row fails to compile (`put`'s match is not exhaustive) and two
/// rows with one code fail clippy (`get`'s second arm is unreachable).
/// `Instr`'s rows are columns of the instruction table (`instr.rs`).
macro_rules! code_table {
    ($ty:ident, $bad:literal, { $($code:literal => $v:ident $(($($op:ident: $opty:ty),+))?),* $(,)? }) => {
        impl $crate::wire::Codec for $ty {
            // Inlined, like `put_seq`, so a method's code encodes in one loop
            // as the hand-written encoder did (a call per instruction made
            // class encoding about twice as slow).
            #[inline(always)]
            fn put<B: bytes::BufMut>(&self, buf: &mut B) -> $crate::error::VmResult<()> {
                match *self {
                    $($ty::$v $(($($op),+))? => {
                        buf.put_u8($code);
                        $($($crate::wire::Codec::put(&$op, buf)?;)+)?
                    })*
                }
                Ok(())
            }
            fn get(buf: &mut &[u8]) -> $crate::error::VmResult<Self> {
                Ok(match <u8 as $crate::wire::Codec>::get(buf)? {
                    $($code => $ty::$v $(($(<$opty as $crate::wire::Codec>::get(buf)?),+))?,)*
                    _ => return Err($crate::error::VmError::Decode($bad)),
                })
            }
        }
    };
}
pub(crate) use code_table;

code_table!(Cmp, "bad Cmp", { 0 => Eq, 1 => Ne, 2 => Lt, 3 => Le, 4 => Gt, 5 => Ge });

code_table!(TypeOf, "bad TypeOf", { 0 => Int, 1 => Num, 2 => Ref });

/// The first `ExKind::User` code: the built-in kinds are 0–5, and 6–15 are
/// unassigned, so every code names at most one kind.
const EX_USER_BASE: u16 = 16;

impl Codec for ExKind {
    fn put<B: BufMut>(&self, buf: &mut B) -> VmResult<()> {
        let code: u16 = match *self {
            ExKind::NullPointer => 0,
            ExKind::InvalidState => 1,
            ExKind::OutOfMemory => 2,
            ExKind::ClassNotFound => 3,
            ExKind::ArrayBounds => 4,
            ExKind::DivByZero => 5,
            ExKind::User(c) => c
                .checked_add(EX_USER_BASE)
                .ok_or_else(|| VmError::Encode("user exception code exceeds u16"))?,
        };
        code.put(buf)
    }
    fn get(buf: &mut &[u8]) -> VmResult<Self> {
        Ok(match get_u16(buf)? {
            0 => ExKind::NullPointer,
            1 => ExKind::InvalidState,
            2 => ExKind::OutOfMemory,
            3 => ExKind::ClassNotFound,
            4 => ExKind::ArrayBounds,
            5 => ExKind::DivByZero,
            c @ EX_USER_BASE.. => ExKind::User(c - EX_USER_BASE),
            _ => return Err(VmError::Decode("unassigned exception code")),
        })
    }
}

/// A struct whose wire form is its fields in the order listed: `get`'s
/// struct expression reads them in that order, and omitting one fails to compile.
macro_rules! record {
    ($($ty:ident { $($field:ident),+ })*) => {$(
        impl Codec for $ty {
            fn put<B: BufMut>(&self, buf: &mut B) -> VmResult<()> {
                $(self.$field.put(buf)?;)+
                Ok(())
            }
            fn get(buf: &mut &[u8]) -> VmResult<Self> {
                Ok($ty { $($field: Codec::get(buf)?),+ })
            }
        }
    )*};
}

record! {
    FieldDef { name, ty, is_static }
    ExEntry { from, to, target, kind, fault_handler }
}

impl Codec for SwitchTable {
    fn put<B: BufMut>(&self, buf: &mut B) -> VmResult<()> {
        put_seq(buf, &self.pairs, "switch pairs exceed u32 prefix")?;
        self.default.put(buf)
    }
    fn get(buf: &mut &[u8]) -> VmResult<Self> {
        Ok(SwitchTable {
            pairs: get_seq(buf, 12, "switch pairs overrun buffer")?,
            default: u32::get(buf)?,
        })
    }
}

/// The line table has no count of its own: it runs parallel to the code
/// and shares the code's count, so a table of any other length is refused.
impl Codec for MethodDef {
    fn put<B: BufMut>(&self, buf: &mut B) -> VmResult<()> {
        if self.lines.len() != self.code.len() {
            return Err(VmError::Encode(
                "line table length differs from code length",
            ));
        }
        self.name.put(buf)?;
        self.nargs.put(buf)?;
        self.nlocals.put(buf)?;
        put_seq(buf, &self.code, "code length exceeds u32 prefix")?;
        self.lines.iter().try_for_each(|line| line.put(buf))?;
        put_seq(buf, &self.ex_table, "exception table exceeds u32 prefix")?;
        put_seq(buf, &self.switches, "switch count exceeds u32 prefix")
    }
    fn get(buf: &mut &[u8]) -> VmResult<Self> {
        let name = String::get(buf)?;
        let nargs = u16::get(buf)?;
        let nlocals = u16::get(buf)?;
        // Each instruction is at least 1 byte and is followed by a 4-byte
        // line entry, so the method body needs at least 5 bytes per pc.
        let code: Vec<Instr> = get_seq(buf, 5, "code length overruns buffer")?;
        let mut lines = Vec::with_capacity(code.len());
        for _ in 0..code.len() {
            lines.push(u32::get(buf)?);
        }
        Ok(MethodDef {
            name,
            nargs,
            nlocals,
            code,
            lines,
            ex_table: get_seq(buf, 15, "exception table overruns buffer")?,
            switches: get_seq(buf, 8, "switch count overruns buffer")?,
        })
    }
}

impl Codec for ClassDef {
    fn put<B: BufMut>(&self, buf: &mut B) -> VmResult<()> {
        self.name.put(buf)?;
        put_seq(buf, &self.pool, "constant pool exceeds u32 prefix")?;
        put_seq(buf, &self.fields, "field count exceeds u32 prefix")?;
        put_seq(buf, &self.methods, "method count exceeds u32 prefix")
    }
    fn get(buf: &mut &[u8]) -> VmResult<Self> {
        // In wire order, which is not the declaration order.
        Ok(ClassDef {
            name: String::get(buf)?,
            pool: get_seq(buf, 4, "pool count overruns buffer")?,
            fields: get_seq(buf, 6, "field count overruns buffer")?,
            methods: get_seq(buf, 20, "method count overruns buffer")?,
        })
    }
}

/// Encode a class definition (the "class file" that code shipping moves).
pub fn encode_class(c: &ClassDef) -> VmResult<Bytes> {
    let mut buf = BytesMut::with_capacity(class_wire_bytes(c) as usize);
    c.put(&mut buf)?;
    Ok(buf.freeze())
}

/// Encode a class definition into a pooled buffer.
pub fn encode_class_pooled(pool: &BufferPool, c: &ClassDef) -> VmResult<Bytes> {
    let mut buf = pool.checkout();
    c.put(&mut buf)?;
    Ok(buf.freeze())
}

/// Decode a class definition. The frame is the class and nothing else:
/// its length is what code shipping charges.
pub fn decode_class(frame: Bytes) -> VmResult<ClassDef> {
    let buf = &mut &frame[..];
    let class = ClassDef::get(buf)?;
    if !buf.is_empty() {
        return Err(VmError::Decode("trailing bytes after class"));
    }
    Ok(class)
}

/// Serialized size of a class, used for code-shipping transfer costs.
/// Streams through [`CountBuf`] — no allocation.
pub fn class_wire_bytes(c: &ClassDef) -> u64 {
    count_bytes(|buf| c.put(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CapturedFrame;
    use crate::class::FieldDef;

    fn sample_class() -> ClassDef {
        let mut c = ClassDef::new("Geometry")
            .with_field(FieldDef::instance("r", TypeOf::Ref))
            .with_field(FieldDef::stat("count", TypeOf::Int));
        let r = c.intern("r");
        c.methods.push(
            MethodDef::new("displaceX", 1, 2)
                .with_code(
                    vec![
                        Instr::Load(0),
                        Instr::GetField(r),
                        Instr::Store(1),
                        Instr::PushI(3),
                        Instr::Switch(0),
                        Instr::Ret,
                    ],
                    vec![1, 1, 1, 2, 2, 3],
                )
                .with_ex_table(vec![
                    ExEntry::new(0, 3, 5, ExKind::NullPointer).as_fault_handler()
                ])
                .with_switches(vec![SwitchTable {
                    pairs: vec![(0, 0), (3, 3)],
                    default: 5,
                }]),
        );
        c
    }

    fn sample_state() -> CapturedState {
        CapturedState {
            frames: Frames::from_frames([
                CapturedFrame {
                    class: "Main".into(),
                    method: "main".into(),
                    pc: 5,
                    locals: vec![CapturedValue::Int(-3), CapturedValue::HomeRef(12)],
                },
                CapturedFrame {
                    class: "Main".into(),
                    method: "f".into(),
                    pc: 2,
                    locals: vec![CapturedValue::Num(2.5), CapturedValue::Null],
                },
            ])
            .unwrap(),
            statics: vec![CapturedStatics {
                class: "Main".into(),
                values: vec![CapturedValue::Int(77)],
            }],
        }
    }

    #[test]
    fn class_roundtrip() {
        let c = sample_class();
        let encoded = encode_class(&c).unwrap();
        let decoded = decode_class(encoded).unwrap();
        assert_eq!(c, decoded);
    }

    #[test]
    fn state_roundtrip() {
        let state = sample_state();
        let decoded = decode_state(encode_state(&state).unwrap()).unwrap();
        assert_eq!(state, decoded);
    }

    #[test]
    fn frame_length_is_the_byte_metric() {
        // The literals pin the size model itself (they are the lengths the
        // pre-`CountBuf` arithmetic formulas gave): a size query is the
        // encoder run against a counter, so without them a layout change
        // would move both sides of each equation together.
        let state = sample_state();
        assert_eq!(encode_state(&state).unwrap().len(), 98);
        assert_eq!(state.wire_bytes(), 98);
        let c = sample_class();
        assert_eq!(encode_class(&c).unwrap().len(), 169);
        assert_eq!(class_wire_bytes(&c), 169);
        let obj = WireObject {
            home_id: 7,
            body: WireObjBody::Obj {
                class: "Point".into(),
                fields: vec![CapturedValue::Int(1), CapturedValue::Null],
            },
        };
        assert_eq!(encode_object(&obj).unwrap().len(), 32);
        assert_eq!(obj.wire_bytes(), 32);
    }

    #[test]
    fn object_roundtrip() {
        for obj in [
            WireObject {
                home_id: 7,
                body: WireObjBody::Obj {
                    class: "Point".into(),
                    fields: vec![CapturedValue::Int(1), CapturedValue::HomeRef(3)],
                },
            },
            WireObject {
                home_id: 8,
                body: WireObjBody::Arr {
                    elems: vec![CapturedValue::Num(0.5); 4],
                },
            },
            WireObject {
                home_id: 9,
                body: WireObjBody::Str("hello".into()),
            },
        ] {
            let decoded = decode_object(encode_object(&obj).unwrap()).unwrap();
            assert_eq!(obj, decoded);
        }
    }

    #[test]
    fn all_instrs_roundtrip() {
        use Instr::*;
        let all = vec![
            PushI(i64::MIN),
            PushF(-0.0),
            PushStr(9),
            PushNull,
            Load(1),
            Store(2),
            Dup,
            Pop,
            Swap,
            Add,
            Sub,
            Mul,
            Div,
            Rem,
            Neg,
            Shl,
            Shr,
            BAnd,
            BOr,
            BXor,
            I2F,
            F2I,
            If(Cmp::Le, 77),
            IfZ(Cmp::Gt, 3),
            IfNull(4),
            IfNonNull(5),
            Goto(6),
            Switch(0),
            New(1),
            GetField(2),
            PutField(3),
            GetStatic(4, 5),
            PutStatic(6, 7),
            NewArr,
            ALoad,
            AStore,
            ArrLen,
            InvokeStatic(1, 2, 3),
            InvokeVirtual(4, 5),
            Ret,
            RetV,
            ThrowKind(ExKind::OutOfMemory),
            Throw,
            NativeCall(8, 2),
            ReadCaptured(3),
            ReadCapturedPc,
            BringObjLocal(1),
            BringObjField(2, 3),
            BringObjStaticTo(4, 5, 6),
            BringObjElemTo(7, 8, 9),
            RethrowAppNpe,
            Nop,
            CheckStatus(1),
            RestoreLocal(2),
        ];
        let mut buf = BytesMut::new();
        for i in &all {
            i.put(&mut buf).unwrap();
        }
        let mut rest: &[u8] = &buf;
        for expect in &all {
            assert_eq!(&Instr::get(&mut rest).unwrap(), expect);
        }
        assert!(rest.is_empty());
    }

    #[test]
    fn exkind_code_roundtrip() {
        for k in [
            ExKind::NullPointer,
            ExKind::InvalidState,
            ExKind::OutOfMemory,
            ExKind::ClassNotFound,
            ExKind::ArrayBounds,
            ExKind::DivByZero,
            ExKind::User(0),
            ExKind::User(42),
            ExKind::User(u16::MAX - EX_USER_BASE),
        ] {
            let mut buf = BytesMut::new();
            k.put(&mut buf).unwrap();
            assert_eq!(ExKind::get(&mut &buf[..]).unwrap(), k);
        }
    }

    /// `User(c)` ships as code `16 + c`, so a `c` above 65519 has no code:
    /// it is refused, not wrapped (`User(65520)` would wrap to 0,
    /// `NullPointer`, the kind SOD treats as an object fault).
    #[test]
    fn a_user_exception_code_past_u16_is_an_encode_error() {
        let mut c = sample_class();
        let m = &mut c.methods[0];
        m.code.push(Instr::ThrowKind(ExKind::User(65520)));
        m.lines.push(4);
        assert_eq!(
            encode_class(&c).unwrap_err(),
            VmError::Encode("user exception code exceeds u16")
        );
    }

    /// Codes 6–15 name no kind: a frame that carries one is refused, not
    /// read as `User(0)`, which has a code of its own.
    #[test]
    fn an_unassigned_exception_code_is_a_decode_error() {
        let throwing = |k| {
            let m = MethodDef::new("m", 0, 0).with_code(vec![Instr::ThrowKind(k)], vec![1]);
            encode_class(&ClassDef::new("C").with_method(m))
                .unwrap()
                .to_vec()
        };
        let frame = throwing(ExKind::User(0));
        // The low byte of the kind's little-endian code.
        let other = throwing(ExKind::User(1));
        let at = (0..frame.len()).find(|&i| frame[i] != other[i]).unwrap();
        for code in 6..16 {
            let mut bad = frame.clone();
            bad[at] = code;
            assert_eq!(
                decode_class(Bytes::from(bad)),
                Err(VmError::Decode("unassigned exception code"))
            );
        }
    }

    /// The line table shares the code's count, so one entry too many or
    /// too few would encode a frame that does not decode: refused instead.
    #[test]
    fn a_line_table_not_parallel_to_the_code_is_an_encode_error() {
        let mismatch = VmError::Encode("line table length differs from code length");
        let mut extra = sample_class();
        extra.methods[0].lines.push(4);
        assert_eq!(encode_class(&extra).unwrap_err(), mismatch);
        let mut missing = sample_class();
        missing.methods[0].lines.pop();
        assert_eq!(encode_class(&missing).unwrap_err(), mismatch);
    }

    /// A class frame's length is the class's bytes, like a state frame's.
    #[test]
    fn trailing_bytes_after_a_class_are_a_decode_error() {
        let mut frame = encode_class(&sample_class()).unwrap().to_vec();
        frame.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            decode_class(Bytes::from(frame)),
            Err(VmError::Decode("trailing bytes after class"))
        );
    }

    #[test]
    fn truncated_input_errors() {
        let c = sample_class();
        let encoded = encode_class(&c).unwrap();
        for cut in 1..encoded.len() {
            assert!(
                decode_class(encoded.slice(0..encoded.len() - cut)).is_err(),
                "truncation at {cut} must error"
            );
        }
        assert!(decode_state(Bytes::from_static(&[1, 2])).is_err());
        assert!(decode_object(Bytes::from_static(&[0])).is_err());
    }

    #[test]
    fn state_header_is_validated() {
        let state = sample_state();
        let good = encode_state(&state).unwrap();
        // Corrupt the magic word.
        let mut bad = good.to_vec();
        bad[0] ^= 0xFF;
        assert_eq!(
            decode_state(Bytes::from(bad)),
            Err(VmError::Decode("bad state magic"))
        );
        // Corrupt the frame kind.
        let mut bad = good.to_vec();
        bad[4] = 9;
        assert_eq!(
            decode_state(Bytes::from(bad)),
            Err(VmError::Decode("bad state frame kind"))
        );
    }

    /// Adversarial length prefixes must be rejected *before* any allocation
    /// proportional to the declared count happens.
    #[test]
    fn oversized_counts_rejected_without_allocation() {
        // State claiming u32::MAX frames in a 16-byte message.
        let mut b = BytesMut::new();
        b.put_u32_le(STATE_MAGIC);
        b.put_u32_le(KIND_STATE);
        b.put_u32_le(u32::MAX);
        b.put_u32_le(0);
        assert_eq!(
            decode_state(b.freeze()),
            Err(VmError::Decode("frame count overruns buffer"))
        );

        // Array object claiming u32::MAX elements with an empty body.
        let mut b = BytesMut::new();
        b.put_u64_le(1);
        b.put_u8(1); // Arr tag
        b.put_u32_le(u32::MAX);
        assert_eq!(
            decode_object(b.freeze()),
            Err(VmError::Decode("value count overruns buffer"))
        );

        // Class claiming a huge constant pool.
        let mut b = BytesMut::new();
        b.put_u32_le(1);
        b.put_slice(b"C");
        b.put_u32_le(u32::MAX);
        assert_eq!(
            decode_class(b.freeze()),
            Err(VmError::Decode("pool count overruns buffer"))
        );

        // Method body claiming a huge instruction count.
        let mut b = BytesMut::new();
        b.put_u32_le(1);
        b.put_slice(b"C");
        b.put_u32_le(0); // pool
        b.put_u32_le(0); // fields
        b.put_u32_le(1); // one method
        b.put_u32_le(1);
        b.put_slice(b"m");
        b.put_u16_le(0);
        b.put_u16_le(0);
        b.put_u32_le(u32::MAX); // ncode
        b.put_slice(&[0; 7]); // pad past the min-method-size guard
        assert_eq!(
            decode_class(b.freeze()),
            Err(VmError::Decode("code length overruns buffer"))
        );

        // Oversized string length inside an object payload.
        let mut b = BytesMut::new();
        b.put_u64_le(1);
        b.put_u8(2); // Str tag
        b.put_u32_le(u32::MAX);
        assert_eq!(
            decode_object(b.freeze()),
            Err(VmError::Decode("string truncated"))
        );
    }

    fn frame(class: &str, method: &str) -> CapturedFrame {
        CapturedFrame {
            class: class.into(),
            method: method.into(),
            pc: 0,
            locals: vec![CapturedValue::Int(1)],
        }
    }

    fn state_of(frames: Vec<CapturedFrame>) -> CapturedState {
        CapturedState {
            frames: Frames::from_frames(frames).unwrap(),
            statics: vec![],
        }
    }

    #[test]
    fn decoded_names_are_shared_and_never_aliased() {
        let state = state_of(vec![
            frame("A", "f"),
            frame("B", "g"),
            frame("A", "f"),
            frame("B", "g"),
        ]);
        let decoded = decode_state(encode_state(&state).unwrap()).unwrap();
        assert_eq!(decoded, state);
        // Four runs over two pairs of names: a name that returns within
        // the window is the same `Arc`, and no two names share one.
        let [(a1, f1), (b1, g1), (a2, f2), (b2, g2)] = decoded.frames.runs() else {
            panic!("four runs")
        };
        assert!(Arc::ptr_eq(a1, a2) && Arc::ptr_eq(f1, f2));
        assert!(Arc::ptr_eq(b1, b2) && Arc::ptr_eq(g1, g2));
        for (x, y) in [(a1, b1), (f1, g1), (a1, f1)] {
            assert!(!Arc::ptr_eq(x, y), "{x} and {y} share an Arc");
        }
        let frames: Vec<_> = decoded.frames.iter().collect();
        assert!(frames[0].same_run_as(&frames[2]) && !frames[0].same_run_as(&frames[1]));
        // One value array under all four frames.
        assert_eq!(decoded.frames.value_count(), 4);
        assert_eq!(frames[3].locals, [CapturedValue::Int(1)]);

        // Frames repeating the open run's names byte for byte join it.
        let state = state_of(vec![frame("A", "f"), frame("A", "f"), frame("A", "g")]);
        let decoded = decode_state(encode_state(&state).unwrap()).unwrap();
        assert_eq!(decoded, state);
        assert_eq!(decoded.frames.runs().len(), 2);

        // More distinct names than the window holds: the early ones are
        // forgotten (and decoded afresh when they return), nothing breaks.
        let many: Vec<_> = (0..2 * NAME_WINDOW)
            .map(|i| frame(&format!("C{i}"), &format!("m{i}")))
            .chain([frame("C0", "m0")])
            .collect();
        let state = state_of(many);
        assert_eq!(decode_state(encode_state(&state).unwrap()).unwrap(), state);
    }

    /// The bytes of `state_of([frame("Ab", "f"), frame("Ab", "f")])`, for
    /// corrupting: 16-byte header, then per frame `[2]"Ab" [1]"f" pc[4]
    /// n[4] value[9]` = 24 bytes.
    fn two_equal_frames() -> Vec<u8> {
        let state = state_of(vec![frame("Ab", "f"), frame("Ab", "f")]);
        let bytes = encode_state(&state).unwrap().to_vec();
        assert_eq!(bytes.len(), 16 + 2 * 24);
        bytes
    }

    #[test]
    fn hostile_names_and_counts_are_typed_decode_errors() {
        let second = 16 + 24; // offset of the second frame

        // Invalid UTF-8 where a remembered name repeats: the bytes match
        // no validated name, so they are validated — and rejected.
        let mut bad = two_equal_frames();
        assert_eq!(&bad[second + 2..second + 4], b"Ab");
        bad[second + 3] = 0xFF;
        assert_eq!(
            decode_state(Bytes::from(bad)),
            Err(VmError::Decode("invalid utf8"))
        );

        // A name whose declared length runs past the end of the message.
        let mut bad = two_equal_frames();
        bad[second..second + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(
            decode_state(Bytes::from(bad)),
            Err(VmError::Decode("string truncated"))
        );
        let whole = two_equal_frames();
        assert_eq!(
            decode_state(Bytes::from(whole[..second + 3].to_vec())),
            Err(VmError::Decode("string truncated"))
        );

        // A locals count the rest of the message cannot hold is rejected
        // before a single value is read for it.
        let mut bad = two_equal_frames();
        let count = second + 4 + 3 + 4;
        assert_eq!(bad[count..count + 4], 1u32.to_le_bytes());
        bad[count..count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_state(Bytes::from(bad)),
            Err(VmError::Decode("value count overruns buffer"))
        );
        // ... and one it could hold, but whose values are cut short.
        let mut bad = two_equal_frames();
        bad[count..count + 4].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            decode_state(Bytes::from(bad)),
            Err(VmError::Decode("u8 truncated"))
        );
    }

    #[test]
    fn oversize_names_are_typed_encode_errors() {
        // State-frame names carry a u16 prefix: 65536 bytes cannot encode.
        let state = CapturedState {
            frames: Frames::from_frames([CapturedFrame {
                class: "x".repeat(1 << 16).into(),
                method: "m".into(),
                pc: 0,
                locals: vec![],
            }])
            .unwrap(),
            statics: vec![],
        };
        assert_eq!(
            encode_state(&state),
            Err(VmError::Encode("name exceeds u16 length prefix"))
        );
        // Statics value sequences carry a u16 prefix.
        let state = CapturedState {
            frames: Frames::new(),
            statics: vec![CapturedStatics {
                class: "C".into(),
                values: vec![CapturedValue::Null; 1 << 16],
            }],
        };
        assert_eq!(
            encode_state(&state),
            Err(VmError::Encode("value sequence exceeds u16 prefix"))
        );
    }

    #[test]
    fn frame_batch_roundtrip_and_payload_metric() {
        let c = sample_class();
        let state = sample_state();
        let mut batch = FrameBatch::new();
        batch.push(encode_class(&c).unwrap());
        batch.push(encode_state(&state).unwrap());
        assert_eq!(batch.len(), 2);
        assert_eq!(
            batch.payload_bytes(),
            class_wire_bytes(&c) + state.wire_bytes()
        );
        let delivered = batch.encode_pooled(&BufferPool::new()).unwrap();
        // Framing overhead: u32 count + u32 per frame.
        assert_eq!(delivered.len() as u64, 4 + 8 + batch.payload_bytes());
        let back = FrameBatch::decode(delivered).unwrap();
        assert_eq!(back, batch);
        assert_eq!(decode_class(back.frames()[0].clone()).unwrap(), c);
        assert_eq!(decode_state(back.frames()[1].clone()).unwrap(), state);

        // Corrupt batch counts are rejected before allocation.
        let mut b = BytesMut::new();
        b.put_u32_le(u32::MAX);
        assert_eq!(
            FrameBatch::decode(b.freeze()),
            Err(VmError::Decode("frame batch count overruns buffer"))
        );
    }

    #[test]
    fn a_batch_is_its_frames_however_it_was_built() {
        let frame = |n: u8| Bytes::from(vec![n; n as usize]);
        let mut pushed = FrameBatch::new();
        assert!(pushed.is_empty() && pushed.frames().is_empty());
        for n in 1..=3 {
            pushed.push(frame(n));
            // One frame sits inline, more in a list: same batch either way.
            let collected: FrameBatch = (1..=n).map(frame).collect();
            assert_eq!(pushed, collected);
            assert_eq!(pushed.len(), n as usize);
            assert_eq!(pushed.payload_bytes(), (1..=n as u64).sum::<u64>());
            let owned: Vec<Bytes> = pushed.clone().into_frames().collect();
            assert_eq!(owned, pushed.frames());
            assert_eq!(
                FrameBatch::decode(pushed.encode_pooled(&BufferPool::new()).unwrap()).unwrap(),
                pushed
            );
        }
        assert_ne!(pushed, FrameBatch::new());
    }

    #[test]
    fn batch_writer_shares_one_pooled_buffer() {
        let pool = BufferPool::new();
        pool.give_back(pool.checkout());
        // Nothing written: no buffer taken, an empty batch.
        assert!(BatchWriter::new(&pool).finish().is_empty());
        assert_eq!(pool.idle(), 1);

        let objects = [
            WireObject {
                home_id: 1,
                body: WireObjBody::Str("one".into()),
            },
            WireObject {
                home_id: 2,
                body: WireObjBody::Arr {
                    elems: vec![CapturedValue::Int(2)],
                },
            },
            WireObject {
                home_id: 3,
                body: WireObjBody::Str("three".into()),
            },
        ];
        for n in 1..=3 {
            let mut w = BatchWriter::new(&pool);
            for obj in &objects[..n] {
                w.frame(|buf| put_wire_object(buf, obj)).unwrap();
            }
            let batch = w.finish();
            assert_eq!(pool.idle(), 0, "the batch holds the pool's one buffer");
            let separately: FrameBatch = objects[..n]
                .iter()
                .map(|o| encode_object(o).unwrap())
                .collect();
            assert_eq!(batch, separately);
            // Recycling every frame returns the buffer once, with the last.
            let reclaimed: Vec<bool> = batch.into_frames().map(|f| pool.recycle(f)).collect();
            assert_eq!(reclaimed.iter().filter(|r| **r).count(), 1);
            assert_eq!(reclaimed.last(), Some(&true));
            assert_eq!(pool.idle(), 1);
        }

        // An encoder that fails: dropping the writer returns the buffer.
        assert_eq!(pool.idle(), 1);
        let mut w = BatchWriter::new(&pool);
        w.frame(|buf| put_wire_object(buf, &objects[0])).unwrap();
        assert_eq!(pool.idle(), 0);
        let failed = w.frame(|_| Err(VmError::Encode("refused")));
        assert_eq!(failed, Err(VmError::Encode("refused")));
        drop(w);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn buffer_pool_recycles_last_owner() {
        let pool = BufferPool::new();
        let state = sample_state();
        let frame = encode_state_pooled(&pool, &state).unwrap();
        assert_eq!(pool.idle(), 0);
        let cheap = frame.clone();
        assert!(!pool.recycle(frame), "clone in flight blocks reclaim");
        assert_eq!(decode_state(cheap.clone()).unwrap(), state);
        assert!(pool.recycle(cheap), "last owner reclaims");
        assert_eq!(pool.idle(), 1);
        // The recycled buffer is reused, cleared.
        let again = encode_state_pooled(&pool, &state).unwrap();
        assert_eq!(pool.idle(), 0);
        assert_eq!(again.len() as u64, state.wire_bytes());
        // At most `POOL_MAX_IDLE` buffers idle; the rest go to the allocator.
        let out: Vec<BytesMut> = (0..POOL_MAX_IDLE + 3).map(|_| pool.checkout()).collect();
        assert_eq!(pool.idle(), 0);
        for buf in out {
            pool.give_back(buf);
        }
        assert_eq!(pool.idle(), POOL_MAX_IDLE);
        assert!(
            pool.recycle(again),
            "a full pool still reports the last owner"
        );
        assert_eq!(pool.idle(), POOL_MAX_IDLE);
    }

    #[test]
    fn wire_size_reflects_instrumentation_growth() {
        let plain = sample_class();
        let mut fat = plain.clone();
        let m = &mut fat.methods[0];
        for _ in 0..10 {
            m.code.push(Instr::Nop);
            m.lines.push(9);
        }
        assert!(class_wire_bytes(&fat) > class_wire_bytes(&plain));
    }
}
