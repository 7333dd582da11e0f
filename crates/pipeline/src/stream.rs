//! The framed streaming companion to the one-shot unified container.
//!
//! A framed stream carries one stream header followed by one
//! self-describing frame per chunk:
//!
//! ```text
//! magic "PWS1" | version u8 | codec id u8 | elem_bits u8
//! rank u8 | nx ny nz uvarint
//! bound f64 | base id u8 | entropy mode u8 (v2+) | n_chunks uvarint
//!
//! frame := marker 0xF7 | index uvarint | start uvarint | n_elems uvarint
//!          | bound f64 | payload_len uvarint | payload
//! ```
//!
//! Version 2 added the entropy-mode byte (see the container module): the
//! sub-stream count of the codec's entropy stage, 1 for the legacy
//! single-stream engine and 4 for interleaved Huffman. Version-1 streams
//! decode with an implied mode of 1; other values are rejected.
//!
//! Chunks are slabs along the slowest axis (prediction restarts at each
//! boundary, so the per-point bound is preserved per chunk at a small
//! ratio cost) and each payload is the codec's native self-describing
//! stream for that slab — exactly what the codec's one-shot path would
//! emit for a field of the slab's dims. A single-chunk stream therefore
//! reconstructs bit-identically to the one-shot container path.
//!
//! Decoding is resumable: [`decode_stream_header`] consumes the header,
//! then [`FrameWalker`]/[`decode_frame_header`] admit one frame at a
//! time, validating the marker, sequential chunk indices, contiguous
//! element coverage, and a plausibility cap on the recorded payload
//! length before any buffer is sized from it. Truncated, reordered, or
//! oversized frames all surface [`CodecError::Corrupt`]; the reader is
//! never trusted to be intact. I/O failures (including genuine device
//! errors, which `CodecError` cannot distinguish from truncation) also
//! map to `Corrupt`.
//!
//! One engine pair, [`compress_frames`] and [`decompress_frames`], writes
//! and reads every framed stream. A [`ChunkExecutor`] decides where the
//! per-chunk codec calls run: [`Sequential`] runs them inline (the
//! registry's streaming methods), and `pwrel-parallel`'s `ChunkedCodec`
//! runs them on its worker pool. Reads and writes stay on the calling
//! thread in chunk order, so the bytes never depend on the executor.
//!
//! The engines recycle their chunk and payload buffers through a
//! [`BufferPool`] arena, so their own steady-state allocation per chunk
//! is zero after warm-up; codec-internal allocations are the codecs'
//! business (see DESIGN.md §14).

use crate::codec::{Codec, CompressOpts, PipelineElem};
use pwrel_bitstream::{bytesio, varint};
use pwrel_core::LogBase;
use pwrel_data::{CodecError, Dims, Float};
use pwrel_trace::{stage, Recorder, Span};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic bytes of a framed stream.
pub const STREAM_MAGIC: &[u8; 4] = b"PWS1";

/// Current framed-stream format version.
pub const STREAM_VERSION: u8 = 2;

/// Leading byte of every frame; a cheap desync detector.
pub const FRAME_MARKER: u8 = 0xF7;

/// Frames may record at most this many payload bytes per element before
/// the decoder rejects the length as implausible (all workspace codecs
/// stay well under 4x expansion even on hostile data); the constant slack
/// covers headers of tiny chunks.
const MAX_PAYLOAD_EXPANSION: u64 = 4;
const PAYLOAD_SLACK: u64 = 4096;

/// True when `bytes` starts with the framed-stream magic.
pub fn is_framed(bytes: &[u8]) -> bool {
    bytes.starts_with(STREAM_MAGIC)
}

/// Parsed framed-stream header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamHeader {
    /// Registered codec id every frame payload belongs to.
    pub codec_id: u8,
    /// Element width in bits (32 or 64).
    pub elem_bits: u8,
    /// Grid shape of the whole field the frames cover.
    pub dims: Dims,
    /// The error bound the stream was produced under (codec-interpreted).
    pub bound: f64,
    /// Logarithm base recorded for the transform-wrapped codecs.
    pub base: LogBase,
    /// Sub-stream count of the codec's entropy stage (1 = legacy single
    /// stream, 4 = interleaved); implied 1 for version-1 streams.
    pub entropy_mode: u8,
    /// Number of frames that follow the header.
    pub n_chunks: u64,
}

/// Per-frame metadata preceding each chunk payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameHeader {
    /// Zero-based chunk index; must arrive strictly sequentially.
    pub index: u64,
    /// First element (raster order) the chunk covers.
    pub start: u64,
    /// Number of elements in the chunk.
    pub n_elems: u64,
    /// The chunk's own error bound (today always the stream bound; the
    /// format leaves room for per-chunk adaptation).
    pub bound: f64,
    /// Byte length of the codec payload that follows.
    pub payload_len: u64,
}

/// Outcome counters for one streaming run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames written or decoded.
    pub chunks: u64,
    /// Field elements moved through the engine.
    pub elements: u64,
    /// Bytes read: raw input for compress, frame payload bytes
    /// (excluding stream and frame headers) for decompress.
    pub bytes_in: u64,
    /// Bytes written: stream + frame bytes for compress, raw output for
    /// decompress.
    pub bytes_out: u64,
}

/// Maps a read failure to the decoder's error space: end-of-input is
/// truncation; anything else (a device error the type cannot carry) is
/// reported the same way.
pub fn read_failed(e: std::io::Error) -> CodecError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        CodecError::Corrupt("truncated stream")
    } else {
        CodecError::Corrupt("stream read failed")
    }
}

/// Maps a write failure to the encoder's error space.
pub fn write_failed(_: std::io::Error) -> CodecError {
    CodecError::Corrupt("stream write failed")
}

fn read_u8(r: &mut dyn Read) -> Result<u8, CodecError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b).map_err(read_failed)?;
    Ok(u8::from_le_bytes(b))
}

fn read_f64(r: &mut dyn Read) -> Result<f64, CodecError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(read_failed)?;
    Ok(f64::from_le_bytes(b))
}

/// Byte-at-a-time LEB128 read with the same overflow guards as the
/// slice-based [`varint::read_uvarint`].
fn read_uvarint(r: &mut dyn Read) -> Result<u64, CodecError> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        let byte = read_u8(r)?;
        if shift == 63 && byte > 1 {
            return Err(CodecError::Corrupt("uvarint overflows u64"));
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Corrupt("uvarint too long"));
        }
    }
}

/// Appends the stream header's byte image to `out`.
pub fn encode_stream_header(out: &mut Vec<u8>, h: &StreamHeader) {
    out.extend_from_slice(STREAM_MAGIC);
    out.push(STREAM_VERSION);
    out.push(h.codec_id);
    out.push(h.elem_bits);
    let (rank, nx, ny, nz) = h.dims.to_header();
    out.push(rank);
    varint::write_uvarint(out, nx);
    varint::write_uvarint(out, ny);
    varint::write_uvarint(out, nz);
    bytesio::put_f64(out, h.bound);
    out.push(h.base.id());
    out.push(h.entropy_mode);
    varint::write_uvarint(out, h.n_chunks);
}

/// Reads and validates a stream header from `r`.
///
/// Fails with [`CodecError::Mismatch`] when the magic is absent or the
/// version unknown, [`CodecError::Corrupt`] on malformed fields,
/// truncation, or a chunk count no valid stream could carry.
pub fn decode_stream_header(r: &mut dyn Read) -> Result<StreamHeader, CodecError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(read_failed)?;
    if &magic != STREAM_MAGIC {
        return Err(CodecError::Mismatch("not a framed stream"));
    }
    let version = read_u8(r)?;
    if version == 0 || version > STREAM_VERSION {
        return Err(CodecError::Mismatch("unsupported stream version"));
    }
    let codec_id = read_u8(r)?;
    let elem_bits = read_u8(r)?;
    if elem_bits != 32 && elem_bits != 64 {
        return Err(CodecError::Corrupt("bad element width"));
    }
    let rank = read_u8(r)?;
    let nx = read_uvarint(r)?;
    let ny = read_uvarint(r)?;
    let nz = read_uvarint(r)?;
    let dims = Dims::from_header(rank, nx, ny, nz).ok_or(CodecError::Corrupt("bad dims header"))?;
    let bound = read_f64(r)?;
    let base =
        LogBase::from_id(read_u8(r)?).ok_or(CodecError::Corrupt("bad base id in stream header"))?;
    let entropy_mode = if version >= 2 {
        let mode = read_u8(r)?;
        if mode != crate::container::ENTROPY_MODE_SINGLE
            && mode != crate::container::ENTROPY_MODE_INTERLEAVED
        {
            return Err(CodecError::Corrupt("bad entropy mode"));
        }
        mode
    } else {
        crate::container::ENTROPY_MODE_SINGLE
    };
    let n_chunks = read_uvarint(r)?;
    if n_chunks == 0 || n_chunks > dims.len() as u64 {
        return Err(CodecError::Corrupt("implausible chunk count"));
    }
    Ok(StreamHeader {
        codec_id,
        elem_bits,
        dims,
        bound,
        base,
        entropy_mode,
        n_chunks,
    })
}

/// Appends one frame header's byte image to `out`.
pub fn encode_frame_header(out: &mut Vec<u8>, h: &FrameHeader) {
    out.push(FRAME_MARKER);
    varint::write_uvarint(out, h.index);
    varint::write_uvarint(out, h.start);
    varint::write_uvarint(out, h.n_elems);
    bytesio::put_f64(out, h.bound);
    varint::write_uvarint(out, h.payload_len);
}

/// Reads one frame header (marker through payload length) from `r`,
/// leaving the reader positioned at the payload.
pub fn decode_frame_header(r: &mut dyn Read) -> Result<FrameHeader, CodecError> {
    if read_u8(r)? != FRAME_MARKER {
        return Err(CodecError::Corrupt("bad frame marker"));
    }
    let index = read_uvarint(r)?;
    let start = read_uvarint(r)?;
    let n_elems = read_uvarint(r)?;
    let bound = read_f64(r)?;
    let payload_len = read_uvarint(r)?;
    Ok(FrameHeader {
        index,
        start,
        n_elems,
        bound,
        payload_len,
    })
}

/// Points per unit of the slowest axis (the slab grain).
fn slice_elems(dims: Dims) -> usize {
    match dims.rank() {
        1 => 1,
        2 => dims.nx,
        _ => dims.nx * dims.ny,
    }
}

/// Extent of the slowest axis.
fn outer_extent(dims: Dims) -> usize {
    match dims.rank() {
        1 => dims.nx,
        2 => dims.ny,
        _ => dims.nz,
    }
}

/// Dims of a slab spanning `extent` units of the slowest axis.
fn slab_dims(dims: Dims, extent: usize) -> Dims {
    match dims.rank() {
        1 => Dims::d1(extent),
        2 => Dims::d2(extent, dims.nx),
        _ => Dims::d3(extent, dims.ny, dims.nx),
    }
}

/// How a field is cut into frames: slabs along the slowest axis, sized
/// from a requested element count and aligned to the codec's preferred
/// slice granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    dims: Dims,
    slice_elems: usize,
    outer: usize,
    slices_per_chunk: usize,
    n_chunks: usize,
}

impl ChunkPlan {
    /// Plans chunks of about `chunk_elems` elements each.
    ///
    /// `granularity` is the codec's preferred slice multiple (ZFP wants
    /// 4 so slabs align with its 4^d blocks); chunks are rounded up to
    /// it. A chunk can never be smaller than one slice of the slowest
    /// axis, so for rank ≥ 2 grids `chunk_elems` below the slice size is
    /// silently met with one-slice chunks.
    ///
    /// Usage errors (`InvalidArgument`): empty dims, `chunk_elems == 0`,
    /// or `chunk_elems` exceeding the total element count.
    pub fn new(dims: Dims, chunk_elems: usize, granularity: usize) -> Result<Self, CodecError> {
        if dims.is_empty() {
            return Err(CodecError::InvalidArgument("empty dims"));
        }
        if chunk_elems == 0 {
            return Err(CodecError::InvalidArgument("chunk_elems must be positive"));
        }
        if chunk_elems > dims.len() {
            return Err(CodecError::InvalidArgument(
                "chunk_elems exceeds total elements",
            ));
        }
        let slice_elems = slice_elems(dims);
        let outer = outer_extent(dims);
        let g = granularity.max(1);
        let spc = (chunk_elems / slice_elems).max(1);
        let spc = (spc.div_ceil(g) * g).min(outer);
        Ok(Self {
            dims,
            slice_elems,
            outer,
            slices_per_chunk: spc,
            n_chunks: outer.div_ceil(spc),
        })
    }

    /// Number of chunks the plan produces.
    pub fn n_chunks(&self) -> usize {
        self.n_chunks
    }

    /// Largest chunk size in elements (every chunk but possibly the last).
    pub fn max_chunk_elems(&self) -> usize {
        self.slices_per_chunk * self.slice_elems
    }

    /// `(start element, element count)` of chunk `i` in raster order.
    pub fn chunk_range(&self, i: usize) -> (usize, usize) {
        let s0 = (i * self.slices_per_chunk).min(self.outer);
        let s1 = (s0 + self.slices_per_chunk).min(self.outer);
        (s0 * self.slice_elems, (s1 - s0) * self.slice_elems)
    }

    /// Dims of chunk `i` as an independent field.
    pub fn chunk_dims(&self, i: usize) -> Dims {
        let (_, n) = self.chunk_range(i);
        slab_dims(self.dims, n / self.slice_elems)
    }
}

/// Sequential supplier of uncompressed chunk data.
///
/// The engine always asks for chunks front to back in raster order, so
/// implementations only need a cursor — a slice window, a file reader,
/// or a procedural generator (the streaming bench never materializes its
/// field).
pub trait ChunkSource<F: Float> {
    /// Replaces `buf`'s contents with the next `n` elements.
    fn next_chunk(&mut self, n: usize, buf: &mut Vec<F>) -> Result<(), CodecError>;
}

/// Sequential consumer of reconstructed chunk data.
pub trait ChunkSink<F: Float> {
    /// Accepts the chunk covering elements `start..start + data.len()`.
    /// Chunks arrive in raster order with no gaps.
    fn put_chunk(&mut self, start: usize, data: &[F]) -> Result<(), CodecError>;
}

/// [`ChunkSource`] over an in-memory slice.
pub struct SliceSource<'a, F> {
    data: &'a [F],
    pos: usize,
}

impl<'a, F> SliceSource<'a, F> {
    /// Source reading `data` front to back.
    pub fn new(data: &'a [F]) -> Self {
        Self { data, pos: 0 }
    }
}

impl<F: Float> ChunkSource<F> for SliceSource<'_, F> {
    fn next_chunk(&mut self, n: usize, buf: &mut Vec<F>) -> Result<(), CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(CodecError::InvalidArgument("chunk source exhausted"))?;
        buf.clear();
        buf.extend_from_slice(
            self.data
                .get(self.pos..end)
                .ok_or(CodecError::InvalidArgument("chunk source exhausted"))?,
        );
        self.pos = end;
        Ok(())
    }
}

/// [`ChunkSource`] decoding little-endian elements from any reader, so
/// a file-backed field streams through compression without ever being
/// resident.
pub struct ReadSource<R> {
    reader: R,
    scratch: Vec<u8>,
}

impl<R: Read> ReadSource<R> {
    /// Source decoding LE elements from `reader`.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            scratch: Vec::new(),
        }
    }
}

impl<R: Read, F: Float> ChunkSource<F> for ReadSource<R> {
    fn next_chunk(&mut self, n: usize, buf: &mut Vec<F>) -> Result<(), CodecError> {
        let nbytes = n
            .checked_mul(F::NBYTES)
            .ok_or(CodecError::InvalidArgument("chunk size overflow"))?;
        self.scratch.clear();
        self.scratch.resize(nbytes, 0);
        self.reader
            .read_exact(&mut self.scratch)
            .map_err(read_failed)?;
        buf.clear();
        buf.extend(self.scratch.chunks_exact(F::NBYTES).filter_map(F::read_le));
        if buf.len() != n {
            return Err(CodecError::Corrupt("short element read"));
        }
        Ok(())
    }
}

/// [`ChunkSink`] collecting the reconstruction into one `Vec`.
#[derive(Default)]
pub struct VecSink<F> {
    data: Vec<F>,
}

impl<F: Float> VecSink<F> {
    /// An empty sink.
    pub fn new() -> Self {
        Self { data: Vec::new() }
    }

    /// The collected reconstruction.
    pub fn into_inner(self) -> Vec<F> {
        self.data
    }
}

impl<F: Float> ChunkSink<F> for VecSink<F> {
    fn put_chunk(&mut self, start: usize, data: &[F]) -> Result<(), CodecError> {
        if start != self.data.len() {
            return Err(CodecError::Corrupt("non-contiguous chunk delivery"));
        }
        self.data.extend_from_slice(data);
        Ok(())
    }
}

/// [`ChunkSink`] writing little-endian elements to any writer.
pub struct WriteSink<W> {
    writer: W,
    scratch: Vec<u8>,
}

impl<W: Write> WriteSink<W> {
    /// Sink encoding LE elements into `writer`.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            scratch: Vec::new(),
        }
    }

    /// Recovers the writer (e.g. to flush or inspect it).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write, F: Float> ChunkSink<F> for WriteSink<W> {
    fn put_chunk(&mut self, _start: usize, data: &[F]) -> Result<(), CodecError> {
        self.scratch.clear();
        for &v in data {
            v.write_le(&mut self.scratch);
        }
        self.writer.write_all(&self.scratch).map_err(write_failed)
    }
}

/// A free list of reusable buffers: the scratch arena behind the
/// streaming engines.
///
/// `take` hands out a recycled buffer when one is available (cleared,
/// with its old capacity) and allocates otherwise; `put` returns a
/// buffer to the list. After one chunk of warm-up a steady-state
/// compress or decompress loop hits the free list every time, so the
/// engine's own per-chunk allocation is zero. Thread-safe so the
/// pipelined executor can recycle buffers across workers.
pub struct BufferPool<T> {
    free: Mutex<Vec<Vec<T>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BufferPool<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cleared buffer with at least `capacity` reserved.
    pub fn take(&self, capacity: usize) -> Vec<T> {
        let recycled = self.free.lock().unwrap_or_else(|e| e.into_inner()).pop();
        match recycled {
            Some(mut v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if v.capacity() < capacity {
                    v.reserve(capacity - v.len());
                }
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Returns `buf` (cleared) to the free list.
    pub fn put(&self, mut buf: Vec<T>) {
        buf.clear();
        self.free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(buf);
    }

    /// `(hits, misses)` so far.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Adds the arena counters to `rec`.
    pub fn record(&self, rec: &dyn Recorder) {
        if rec.is_enabled() {
            let (hits, misses) = self.counters();
            rec.add(stage::C_ARENA_HITS, hits);
            rec.add(stage::C_ARENA_MISSES, misses);
        }
    }
}

/// Frame-admission state machine of [`decompress_frames`]: validates each [`FrameHeader`] against the stream header
/// (sequential index, contiguous coverage, shape, payload plausibility)
/// and tracks coverage so truncation after any whole frame is still
/// caught by [`FrameWalker::finish`].
#[derive(Debug)]
pub struct FrameWalker {
    dims: Dims,
    elem_bytes: u64,
    n_chunks: u64,
    next_index: u64,
    covered: usize,
}

impl FrameWalker {
    /// A walker validating frames against `header`.
    pub fn new(header: &StreamHeader) -> Self {
        Self {
            dims: header.dims,
            elem_bytes: u64::from(header.elem_bits) / 8,
            n_chunks: header.n_chunks,
            next_index: 0,
            covered: 0,
        }
    }

    /// Frames still expected.
    pub fn remaining(&self) -> u64 {
        self.n_chunks - self.next_index
    }

    /// Validates the next frame header, returning the chunk's dims as an
    /// independent field.
    pub fn admit(&mut self, fh: &FrameHeader) -> Result<Dims, CodecError> {
        if self.next_index >= self.n_chunks {
            return Err(CodecError::Corrupt("frame past recorded chunk count"));
        }
        if fh.index != self.next_index {
            return Err(CodecError::Corrupt("out-of-order chunk index"));
        }
        if fh.start != self.covered as u64 {
            return Err(CodecError::Corrupt("non-contiguous chunk start"));
        }
        let n = usize::try_from(fh.n_elems).map_err(|_| CodecError::Corrupt("chunk too large"))?;
        if n == 0 {
            return Err(CodecError::Corrupt("empty chunk"));
        }
        let end = self
            .covered
            .checked_add(n)
            .filter(|&e| e <= self.dims.len())
            .ok_or(CodecError::Corrupt("chunk exceeds the grid"))?;
        if !fh.bound.is_finite() {
            return Err(CodecError::Corrupt("bad chunk bound"));
        }
        let cap = (fh.n_elems)
            .saturating_mul(self.elem_bytes)
            .saturating_mul(MAX_PAYLOAD_EXPANSION)
            .saturating_add(PAYLOAD_SLACK);
        if fh.payload_len > cap {
            return Err(CodecError::Corrupt("implausible frame length"));
        }
        let se = slice_elems(self.dims);
        if n % se != 0 {
            return Err(CodecError::Corrupt("chunk not slab-aligned"));
        }
        self.next_index += 1;
        self.covered = end;
        Ok(slab_dims(self.dims, n / se))
    }

    /// Errors unless every recorded frame arrived and the frames cover
    /// the whole grid.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.next_index != self.n_chunks || self.covered != self.dims.len() {
            return Err(CodecError::Corrupt("frames do not cover the grid"));
        }
        Ok(())
    }
}

/// Where a framed-stream engine runs its per-chunk codec calls.
///
/// The engine pair splits every run into three steps: `produce` reads the next
/// chunk (compress) or admits the next frame (decompress) on the calling
/// thread, `work` runs the codec on it, and `consume` writes the frame or
/// hands the reconstruction to the sink, again on the calling thread. An
/// executor only decides where `work` runs, and it must pass results to
/// `consume` in production order, so the output never depends on the
/// executor. [`Sequential`] runs everything inline; `pwrel-parallel`'s
/// `ChunkedCodec` runs `work` on its worker pool. The seam lives here
/// because this crate sits below `pwrel-parallel` in the crate graph.
pub trait ChunkExecutor {
    /// Polls `produce` until it yields `None`, passing every item through
    /// `work` and each result to `consume` in production order. The
    /// first `produce` or `consume` error ends the run and is returned.
    fn run<T, R, P, W, C>(
        &self,
        produce: P,
        work: W,
        consume: C,
        rec: &dyn Recorder,
    ) -> Result<(), CodecError>
    where
        T: Send,
        R: Send,
        P: FnMut() -> Result<Option<T>, CodecError>,
        W: Fn(T) -> R + Sync,
        C: FnMut(R) -> Result<(), CodecError>;
}

/// The inline [`ChunkExecutor`]: each chunk is read, coded and written
/// on the calling thread before the next one is read.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sequential;

impl ChunkExecutor for Sequential {
    fn run<T, R, P, W, C>(
        &self,
        mut produce: P,
        work: W,
        mut consume: C,
        _rec: &dyn Recorder,
    ) -> Result<(), CodecError>
    where
        T: Send,
        R: Send,
        P: FnMut() -> Result<Option<T>, CodecError>,
        W: Fn(T) -> R + Sync,
        C: FnMut(R) -> Result<(), CodecError>,
    {
        while let Some(t) = produce()? {
            consume(work(t))?;
        }
        Ok(())
    }
}

/// Compresses a chunk source into a framed stream on `out` with
/// `codec`, one frame per chunk of about `chunk_elems` elements (see
/// [`ChunkPlan`] for the usage errors and granularity rounding). Peak
/// memory is the chunks `exec` keeps in flight plus the codec's own
/// working set — the full field is never resident.
///
/// Frames are written in chunk order whatever `exec` is, so the bytes
/// do not depend on it. On error the stream written so far is abandoned
/// mid-frame; callers discard it.
#[allow(clippy::too_many_arguments)] // the codec call plus the executor
pub fn compress_frames<F: PipelineElem>(
    codec: &dyn Codec,
    exec: &impl ChunkExecutor,
    src: &mut dyn ChunkSource<F>,
    out: &mut dyn Write,
    dims: Dims,
    opts: &CompressOpts,
    chunk_elems: usize,
    rec: &dyn Recorder,
) -> Result<StreamStats, CodecError> {
    let plan = ChunkPlan::new(dims, chunk_elems, codec.chunk_granularity())?;
    let header = StreamHeader {
        codec_id: codec.id(),
        elem_bits: F::BITS as u8,
        dims,
        bound: opts.bound,
        base: opts.base,
        entropy_mode: codec.entropy_mode(),
        n_chunks: plan.n_chunks() as u64,
    };
    let mut head = Vec::with_capacity(48);
    encode_stream_header(&mut head, &header);
    out.write_all(&head).map_err(write_failed)?;

    let arena: BufferPool<F> = BufferPool::new();
    let mut stats = StreamStats {
        chunks: plan.n_chunks() as u64,
        elements: dims.len() as u64,
        bytes_in: (dims.len() * F::NBYTES) as u64,
        bytes_out: head.len() as u64,
    };
    let mut read = 0usize;
    let mut written = 0usize;
    exec.run(
        || {
            if read == plan.n_chunks() {
                return Ok(None);
            }
            let (_, n) = plan.chunk_range(read);
            let mut buf = arena.take(n);
            src.next_chunk(n, &mut buf)?;
            if buf.len() != n {
                return Err(CodecError::InvalidArgument(
                    "chunk source returned the wrong length",
                ));
            }
            let chunk_dims = plan.chunk_dims(read);
            read += 1;
            Ok(Some((buf, chunk_dims)))
        },
        |(buf, chunk_dims): (Vec<F>, Dims)| {
            let _chunk = Span::enter(rec, stage::CHUNK_COMPRESS);
            let payload = F::codec_compress(codec, &buf, chunk_dims, opts, rec);
            (buf, payload)
        },
        |(buf, payload)| {
            arena.put(buf);
            let payload = payload?;
            let (start, n) = plan.chunk_range(written);
            head.clear();
            encode_frame_header(
                &mut head,
                &FrameHeader {
                    index: written as u64,
                    start: start as u64,
                    n_elems: n as u64,
                    bound: opts.bound,
                    payload_len: payload.len() as u64,
                },
            );
            out.write_all(&head).map_err(write_failed)?;
            out.write_all(&payload).map_err(write_failed)?;
            stats.bytes_out += (head.len() + payload.len()) as u64;
            written += 1;
            Ok(())
        },
        rec,
    )?;
    if rec.is_enabled() {
        rec.add(stage::C_STREAM_CHUNKS, stats.chunks);
        rec.add(stage::C_BYTES_IN, stats.bytes_in);
        rec.add(stage::C_BYTES_OUT, stats.bytes_out);
        arena.record(rec);
    }
    Ok(stats)
}

/// Decompresses the frames following an already-decoded stream header
/// into `sink` with `codec`. Frames are admitted through [`FrameWalker`]
/// on the calling thread, and chunks reach `sink` in raster order
/// whatever `exec` is.
///
/// `header` must name `codec` and the element type `F`
/// ([`CodecRegistry::stream_codec`] checks both). The reader is consumed
/// exactly through the final frame (no read-ahead), so framed streams
/// embed cleanly in larger byte streams.
///
/// [`CodecRegistry::stream_codec`]: crate::CodecRegistry::stream_codec
pub fn decompress_frames<F: PipelineElem>(
    codec: &dyn Codec,
    exec: &impl ChunkExecutor,
    header: &StreamHeader,
    input: &mut dyn Read,
    sink: &mut dyn ChunkSink<F>,
    rec: &dyn Recorder,
) -> Result<StreamStats, CodecError> {
    let mut walker = FrameWalker::new(header);
    let arena: BufferPool<u8> = BufferPool::new();
    let mut stats = StreamStats {
        chunks: header.n_chunks,
        elements: header.dims.len() as u64,
        ..StreamStats::default()
    };
    let mut covered = 0usize;
    exec.run(
        || {
            if walker.remaining() == 0 {
                return Ok(None);
            }
            let fh = decode_frame_header(input)?;
            let chunk_dims = walker.admit(&fh)?;
            // admit() capped payload_len, so sizing a buffer from it is safe.
            let len = fh.payload_len as usize;
            let mut payload = arena.take(len);
            payload.resize(len, 0);
            input.read_exact(&mut payload).map_err(read_failed)?;
            Ok(Some((payload, chunk_dims)))
        },
        |(payload, chunk_dims): (Vec<u8>, Dims)| {
            let _chunk = Span::enter(rec, stage::CHUNK_DECOMPRESS);
            let decoded = F::codec_decompress(codec, &payload, rec);
            (payload, chunk_dims, decoded)
        },
        |(payload, chunk_dims, decoded)| {
            stats.bytes_in += payload.len() as u64;
            arena.put(payload);
            let (data, d) = decoded?;
            if d != chunk_dims || data.len() != chunk_dims.len() {
                return Err(CodecError::Corrupt("chunk payload shape mismatch"));
            }
            sink.put_chunk(covered, &data)?;
            covered += data.len();
            stats.bytes_out += (data.len() * F::NBYTES) as u64;
            Ok(())
        },
        rec,
    )?;
    walker.finish()?;
    if rec.is_enabled() {
        rec.add(stage::C_STREAM_CHUNKS, stats.chunks);
        rec.add(stage::C_DECOMP_BYTES_IN, stats.bytes_in);
        rec.add(stage::C_DECOMP_BYTES_OUT, stats.bytes_out);
        arena.record(rec);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> StreamHeader {
        StreamHeader {
            codec_id: 3,
            elem_bits: 32,
            dims: Dims::d3(8, 6, 4),
            bound: 1e-3,
            base: LogBase::Two,
            entropy_mode: crate::container::ENTROPY_MODE_INTERLEAVED,
            n_chunks: 4,
        }
    }

    #[test]
    fn stream_header_round_trips() {
        let mut buf = Vec::new();
        encode_stream_header(&mut buf, &header());
        let mut r: &[u8] = &buf;
        assert_eq!(decode_stream_header(&mut r).unwrap(), header());
        assert!(r.is_empty());
    }

    #[test]
    fn stream_header_truncations_error() {
        let mut buf = Vec::new();
        encode_stream_header(&mut buf, &header());
        for cut in 0..buf.len() {
            let mut r: &[u8] = &buf[..cut];
            assert!(decode_stream_header(&mut r).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn version1_stream_header_decodes_with_implied_single_mode() {
        // Hand-built v1 header: identical to v2 minus the entropy-mode byte.
        let h = header();
        let mut buf = Vec::new();
        buf.extend_from_slice(STREAM_MAGIC);
        buf.push(1); // version
        buf.push(h.codec_id);
        buf.push(h.elem_bits);
        let (rank, nx, ny, nz) = h.dims.to_header();
        buf.push(rank);
        varint::write_uvarint(&mut buf, nx);
        varint::write_uvarint(&mut buf, ny);
        varint::write_uvarint(&mut buf, nz);
        bytesio::put_f64(&mut buf, h.bound);
        buf.push(h.base.id());
        varint::write_uvarint(&mut buf, h.n_chunks);
        let mut r: &[u8] = &buf;
        let parsed = decode_stream_header(&mut r).unwrap();
        assert_eq!(parsed.entropy_mode, crate::container::ENTROPY_MODE_SINGLE);
        assert_eq!(parsed.codec_id, h.codec_id);
        assert_eq!(parsed.n_chunks, h.n_chunks);
        assert!(r.is_empty());
    }

    #[test]
    fn bad_stream_entropy_mode_is_corrupt() {
        for bad in [0u8, 2, 3, 5, 255] {
            let mut h = header();
            h.entropy_mode = bad;
            let mut buf = Vec::new();
            encode_stream_header(&mut buf, &h);
            let mut r: &[u8] = &buf;
            assert_eq!(
                decode_stream_header(&mut r),
                Err(CodecError::Corrupt("bad entropy mode")),
                "mode={bad}"
            );
        }
    }

    #[test]
    fn frame_header_round_trips() {
        let fh = FrameHeader {
            index: 7,
            start: 4096,
            n_elems: 1024,
            bound: 1e-4,
            payload_len: 900,
        };
        let mut buf = Vec::new();
        encode_frame_header(&mut buf, &fh);
        let mut r: &[u8] = &buf;
        assert_eq!(decode_frame_header(&mut r).unwrap(), fh);
        for cut in 0..buf.len() {
            let mut r: &[u8] = &buf[..cut];
            assert!(decode_frame_header(&mut r).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn implausible_chunk_count_rejected() {
        let mut h = header();
        h.n_chunks = h.dims.len() as u64 + 1;
        let mut buf = Vec::new();
        encode_stream_header(&mut buf, &h);
        let mut r: &[u8] = &buf;
        assert_eq!(
            decode_stream_header(&mut r),
            Err(CodecError::Corrupt("implausible chunk count"))
        );
    }

    #[test]
    fn chunk_plan_validates_usage() {
        let dims = Dims::d3(8, 6, 4);
        assert!(matches!(
            ChunkPlan::new(dims, 0, 1),
            Err(CodecError::InvalidArgument(_))
        ));
        assert!(matches!(
            ChunkPlan::new(dims, dims.len() + 1, 1),
            Err(CodecError::InvalidArgument(_))
        ));
        assert!(matches!(
            ChunkPlan::new(Dims::d1(0), 1, 1),
            Err(CodecError::InvalidArgument(_))
        ));
        assert!(ChunkPlan::new(dims, dims.len(), 1).is_ok());
    }

    #[test]
    fn chunk_plan_covers_the_grid_exactly() {
        for (dims, chunk_elems, g) in [
            (Dims::d3(10, 4, 4), 40, 1),
            (Dims::d3(10, 4, 4), 48, 4),
            (Dims::d2(41, 7), 29, 1),
            (Dims::d1(1001), 100, 1),
            (Dims::d3(3, 5, 5), 1, 4),
        ] {
            let plan = ChunkPlan::new(dims, chunk_elems, g).unwrap();
            let mut at = 0usize;
            for i in 0..plan.n_chunks() {
                let (start, n) = plan.chunk_range(i);
                assert_eq!(start, at, "{dims:?}");
                assert!(n > 0 && n <= plan.max_chunk_elems());
                assert_eq!(plan.chunk_dims(i).len(), n);
                at += n;
            }
            assert_eq!(at, dims.len(), "{dims:?}");
        }
    }

    #[test]
    fn chunk_plan_honors_granularity() {
        // 48 elems/chunk = 3 slices of 16; granularity 4 rounds to 4.
        let plan = ChunkPlan::new(Dims::d3(10, 4, 4), 48, 4).unwrap();
        assert_eq!(plan.max_chunk_elems(), 4 * 16);
        assert_eq!(plan.n_chunks(), 3);
    }

    #[test]
    fn slice_source_and_vec_sink_round_trip() {
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut src = SliceSource::new(&data);
        let mut buf = Vec::new();
        let mut sink = VecSink::new();
        let mut at = 0usize;
        for n in [16, 32, 16] {
            src.next_chunk(n, &mut buf).unwrap();
            sink.put_chunk(at, &buf).unwrap();
            at += n;
        }
        assert_eq!(sink.into_inner(), data);
        assert!(src.next_chunk(1, &mut buf).is_err(), "exhausted source");
    }

    #[test]
    fn read_source_and_write_sink_round_trip_le_bytes() {
        let data: Vec<f64> = (0..32).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let mut bytes = Vec::new();
        for &v in &data {
            v.write_le(&mut bytes);
        }
        let mut src = ReadSource::new(&bytes[..]);
        let mut buf = Vec::new();
        let mut sink = WriteSink::new(Vec::new());
        for (i, n) in [8usize, 8, 16].iter().enumerate() {
            ChunkSource::<f64>::next_chunk(&mut src, *n, &mut buf).unwrap();
            sink.put_chunk(i * 8, &buf).unwrap();
        }
        assert_eq!(sink.into_inner(), bytes);
    }

    #[test]
    fn buffer_pool_recycles_after_warm_up() {
        let pool: BufferPool<u8> = BufferPool::new();
        let a = pool.take(100);
        pool.put(a);
        let b = pool.take(50);
        assert!(b.capacity() >= 50);
        pool.put(b);
        assert_eq!(pool.counters(), (1, 1));
    }

    #[test]
    fn frame_walker_rejects_reorder_and_gaps() {
        let h = StreamHeader {
            n_chunks: 2,
            ..header()
        };
        let n_half = (h.dims.len() / 2) as u64;
        let fh = |index, start, n_elems| FrameHeader {
            index,
            start,
            n_elems,
            bound: 1e-3,
            payload_len: 10,
        };
        // Out-of-order index.
        let mut w = FrameWalker::new(&h);
        assert!(w.admit(&fh(1, 0, n_half)).is_err());
        // Gap in coverage.
        let mut w = FrameWalker::new(&h);
        w.admit(&fh(0, 0, n_half)).unwrap();
        assert!(w.admit(&fh(1, n_half + 24, n_half)).is_err());
        // Implausible payload length.
        let mut w = FrameWalker::new(&h);
        let mut bad = fh(0, 0, n_half);
        bad.payload_len = n_half * 4 * 4 + 4097;
        assert_eq!(
            w.admit(&bad),
            Err(CodecError::Corrupt("implausible frame length"))
        );
        // Incomplete coverage caught at finish.
        let mut w = FrameWalker::new(&h);
        w.admit(&fh(0, 0, n_half)).unwrap();
        assert!(w.finish().is_err());
        w.admit(&fh(1, n_half, n_half)).unwrap();
        w.finish().unwrap();
    }

    #[test]
    fn frame_walker_rejects_unaligned_chunks() {
        let h = header(); // slices are 24 elements
        let mut w = FrameWalker::new(&h);
        assert_eq!(
            w.admit(&FrameHeader {
                index: 0,
                start: 0,
                n_elems: 25,
                bound: 1e-3,
                payload_len: 10,
            }),
            Err(CodecError::Corrupt("chunk not slab-aligned"))
        );
    }
}
