// `!(x > 0.0)` deliberately treats NaN as invalid; clippy prefers
// partial_cmp, which would hide that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
//! ZFP container and per-block compression pipeline.
//!
//! Container layout:
//!
//! ```text
//! magic "ZFR1" | float_bits u8 | mode u8 | rank u8 | nx ny nz uvarint
//! mode=0 (accuracy):  tolerance f64
//! mode=1 (precision): precision uvarint
//! payload uvarint length ++ bit stream of blocks
//! ```
//!
//! Each block starts with a tag: `0` all-zero, `10` transform-coded
//! (followed by a 16-bit biased exponent and the embedded bit planes), `11`
//! raw (verbatim IEEE bits; used for blocks containing non-finite values,
//! which real ZFP does not support).

use crate::blocks;
use crate::lift;
use crate::nb;
use pwrel_bitstream::{bytesio, varint, BitReader, BitWriter};
use pwrel_data::{CodecError, Dims, Float};
use pwrel_kernels::LogPlan;
use pwrel_trace::{stage, Recorder, StageTimer};

const MAGIC: &[u8; 4] = b"ZFR1";
const EMAX_BIAS: i32 = 8192;

/// Aggregating timers for the two coded stages. The lift and plane-code
/// stages are timed once per *chunk* of [`CHUNK_BLOCKS`] blocks (not per
/// block: two `Instant::now` pairs per 4^d block measurably distorts the
/// hot loop) and report one [`StageTimer`] aggregate per compression.
struct StageClocks<'a> {
    lift: StageTimer<'a>,
    plane: StageTimer<'a>,
}

impl<'a> StageClocks<'a> {
    fn new(rec: &'a dyn Recorder) -> Self {
        Self {
            lift: StageTimer::new(rec, stage::LIFT),
            plane: StageTimer::new(rec, stage::PLANE_CODE),
        }
    }

    fn finish(self) {
        self.lift.finish();
        self.plane.finish();
    }
}

/// Compression mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Absolute error tolerance.
    Accuracy(f64),
    /// Fixed number of bit planes per block.
    Precision(u32),
    /// Fixed bits per value: every block spends exactly `rate × 4^d` bits
    /// (ZFP's original headline mode — constant-size blocks enable random
    /// access; the error is whatever the budget buys).
    FixedRate(u32),
}

/// Heuristic mapping from a point-wise relative bound to a ZFP `-p`
/// precision, mirroring the parameter choices in the paper's Table IV
/// (e.g. `b_r = 1e-3 → -p 26`, `1e-2 → -p 23`).
pub fn precision_for_rel_bound(rel_bound: f64) -> u32 {
    assert!(rel_bound > 0.0 && rel_bound.is_finite());
    ((-rel_bound.log2()).ceil() as i64 + 16).clamp(1, 64) as u32
}

/// Plane count / negabinary width per element type.
fn intprec<F: Float>() -> u32 {
    if F::BITS == 32 {
        34
    } else {
        64
    }
}

/// Guard bits reserved for transform gain (≤ 2 per dimension level).
fn guard<F: Float>() -> i32 {
    if F::BITS == 32 {
        5
    } else {
        7
    }
}

/// frexp-style exponent: the `e` with `m ∈ [2^(e-1), 2^e)`, for finite m > 0.
fn frexp_exp(m: f64) -> i32 {
    debug_assert!(m > 0.0 && m.is_finite());
    let bits = m.to_bits();
    let e = ((bits >> 52) & 0x7FF) as i32;
    if e == 0 {
        // Subnormal: locate the leading mantissa bit.
        let mant = bits & ((1u64 << 52) - 1);
        let lz = mant.leading_zeros() as i32 - 12;
        -1022 - lz - 1
    } else {
        e - 1022
    }
}

/// Power of two as f64, clamped to the representable exponent range.
fn exp2_clamped(s: i32) -> f64 {
    (s.clamp(-1070, 1023) as f64).exp2()
}

/// kmin (lowest encoded plane) for a block with exponent `emax`.
///
/// Accuracy mode derivation: dropped planes below `kmin` perturb each
/// coefficient by < 2^(kmin+1) integer units; the inverse transform
/// amplifies per-sample error by < 3.75 per dimension (row sums of ZFP's
/// inverse lifting matrix), and one unit is 2^(emax - (ip - g)) in value
/// space. Requiring the product ≤ 2^emin ≤ tol gives
/// `maxprec = emax - emin + g + 1 + 2*rank` — the same shape as ZFP's
/// `emax - emin + 2(d+1)` cutoff, adjusted for our guard-bit count. Like
/// ZFP's, it is conservative: observed errors sit well below the bound.
fn kmin_for(mode: Mode, emax: i32, rank: u8, ip: u32, g: i32) -> u32 {
    match mode {
        Mode::Accuracy(tol) => {
            let emin = tol.log2().floor() as i32;
            let maxprec = (emax - emin + g + 1 + 2 * rank as i32).clamp(0, ip as i32) as u32;
            ip - maxprec
        }
        Mode::Precision(p) => ip.saturating_sub(p.min(ip)),
        Mode::FixedRate(_) => 0,
    }
}

/// Per-block bit budget in fixed-rate mode (tag + exponent + planes).
fn rate_budget(rate: u32, bs: usize) -> u64 {
    (rate as u64 * bs as u64).max(18)
}

/// Zero-pads the writer so the current block spans exactly `budget` bits.
fn pad_to(w: &mut BitWriter, block_start: u64, budget: u64) {
    let used = w.bit_len() - block_start;
    debug_assert!(used <= budget, "block overran its rate budget");
    let mut pad = budget - used;
    while pad > 0 {
        let chunk = pad.min(64) as u32;
        w.write_bits(0, chunk);
        pad -= chunk as u64;
    }
}

/// Advances the reader so the current block spans exactly `budget` bits.
fn skip_to(r: &mut BitReader, block_start: u64, budget: u64) -> Result<(), CodecError> {
    let used = r.bits_read() - block_start;
    if used > budget {
        return Err(CodecError::Corrupt("block overran its rate budget"));
    }
    // Whole-byte jump via skip_bits, chunked only because block offsets
    // (random access) can exceed u32 bits.
    let mut remaining = budget - used;
    while remaining > 0 {
        let chunk = remaining.min(u32::MAX as u64) as u32;
        r.skip_bits(chunk)?;
        remaining -= chunk as u64;
    }
    Ok(())
}

/// Decodes one block's samples from `r` into `fblock` (length 4^rank).
/// `block_start` is the reader position at the block's first bit.
// audit:allow-fn(L1): `fblock`, `iblock` and `coeffs` are the caller's
// fixed 4^rank scratch buffers and `order` is the compile-time
// coefficient permutation over 0..4^rank, so every index is in range
// regardless of stream contents.
#[allow(clippy::too_many_arguments)]
fn decode_one_block(
    r: &mut BitReader,
    block_start: u64,
    mode: Mode,
    rank: u8,
    ip: u32,
    g: i32,
    order: &[usize],
    iblock: &mut [i64],
    coeffs: &mut [u64],
    fblock: &mut [f64],
    clocks: &mut StageClocks<'_>,
) -> Result<(), CodecError> {
    let bs = fblock.len();
    if !r.read_bit()? {
        // Zero block.
        fblock.iter_mut().for_each(|v| *v = 0.0);
        if let Mode::FixedRate(rate) = mode {
            skip_to(r, block_start, rate_budget(rate, bs))?;
        }
        return Ok(());
    }
    if r.read_bit()? {
        // Raw escape block (never produced in fixed-rate mode).
        for v in fblock.iter_mut() {
            let bits = r.read_bits(if ip == 34 { 32 } else { 64 })?;
            *v = if ip == 34 {
                f32::from_bits(bits as u32) as f64
            } else {
                f64::from_bits(bits)
            };
        }
        return Ok(());
    }
    let emax = r.read_bits(16)? as i32 - EMAX_BIAS;
    let kmin = kmin_for(mode, emax, rank, ip, g);
    coeffs.iter_mut().for_each(|c| *c = 0);
    if let Mode::FixedRate(rate) = mode {
        let budget = rate_budget(rate, bs) - 18;
        clocks
            .plane
            .time(|| nb::decode_planes_budget(r, coeffs, ip, kmin, budget))?;
        skip_to(r, block_start, rate_budget(rate, bs))?;
    } else {
        clocks
            .plane
            .time(|| nb::decode_planes(r, coeffs, ip, kmin))?;
    }
    clocks.lift.time(|| {
        for (slot, &dst) in order.iter().enumerate() {
            iblock[dst] = nb::nb_decode(coeffs[slot], ip);
        }
        lift::inv_xform(iblock, rank);
        let s = (ip as i32 - g) - emax;
        let inv_scale = exp2_clamped(-s);
        for (i, &q) in iblock.iter().enumerate() {
            fblock[i] = q as f64 * inv_scale;
        }
    });
    Ok(())
}

/// Blocks per pipeline chunk: the bulk paths classify, lift, and
/// plane-code [`CHUNK_BLOCKS`] blocks per phase, so each stage timer
/// fires once per chunk and each kernel runs as a tight batched loop.
const CHUNK_BLOCKS: usize = 32;

/// What the per-block classification decided for one block of a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockClass {
    /// All samples are exactly zero: tag `0`, no body.
    Zero,
    /// Raw escape: tag `11` + verbatim IEEE bits (non-finite samples or a
    /// below-resolution-floor accuracy tolerance).
    Raw,
    /// Transform-coded: tag `10` + biased exponent + embedded planes.
    Coded {
        /// Block-floating-point exponent of the largest magnitude.
        emax: i32,
    },
}

/// Classifies one gathered block, replicating the reference branch order:
/// raw escape first (non-finite, or an accuracy tolerance below the
/// per-block resolution floor), then all-zero, then transform-coded.
///
/// Accuracy mode's resolution floor: the float→fixed cast and the
/// lifting's truncating shifts cost up to ~2^(rank+3) integer units, i.e.
/// 2^(emax - (ip-g) + rank + 3) in value space. A block whose tolerance
/// sits below that floor cannot be transform-coded within bound — store
/// it verbatim (real ZFP simply misses such tolerances).
fn classify(
    fblock: &[f64],
    mode: Mode,
    rank: u8,
    ip: u32,
    g: i32,
) -> Result<BlockClass, CodecError> {
    let nonfinite = fblock.iter().any(|v| !v.is_finite());
    let needs_raw = nonfinite
        || if let Mode::Accuracy(tol) = mode {
            let max_mag = fblock.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            max_mag > 0.0 && {
                let emax = frexp_exp(max_mag);
                let floor_exp = emax - (ip as i32 - g) + rank as i32 + 4;
                tol < (floor_exp as f64).exp2()
            }
        } else {
            false
        };
    if needs_raw {
        if matches!(mode, Mode::FixedRate(_)) {
            return Err(CodecError::InvalidArgument(
                "fixed-rate mode requires finite input",
            ));
        }
        return Ok(BlockClass::Raw);
    }
    let max_mag = fblock.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if max_mag == 0.0 {
        return Ok(BlockClass::Zero);
    }
    Ok(BlockClass::Coded {
        emax: frexp_exp(max_mag),
    })
}

/// Lift phase over one chunk: block-floating-point scaling (so
/// |q| < 2^(ip - guard)), forward lifting, and negabinary mapping for
/// every transform-coded block. Runs under a single `lift` timer tick.
// audit:allow-fn(L1): `fchunk`/`coeffs_chunk` hold `classes.len()` blocks
// of `bs` samples by construction and `iblock`/`order` are the fixed
// 4^rank scratch/permutation.
#[allow(clippy::too_many_arguments)]
fn lift_chunk(
    classes: &[BlockClass],
    fchunk: &[f64],
    bs: usize,
    rank: u8,
    ip: u32,
    g: i32,
    order: &[usize],
    iblock: &mut [i64],
    coeffs_chunk: &mut [u64],
) {
    for (slot, class) in classes.iter().enumerate() {
        if let BlockClass::Coded { emax } = *class {
            let fblock = &fchunk[slot * bs..(slot + 1) * bs];
            let s = (ip as i32 - g) - emax;
            let scale = exp2_clamped(s);
            for (i, &v) in fblock.iter().enumerate() {
                iblock[i] = (v * scale) as i64;
            }
            lift::fwd_xform(iblock, rank);
            let coeffs = &mut coeffs_chunk[slot * bs..(slot + 1) * bs];
            for (c, &src) in order.iter().enumerate() {
                coeffs[c] = nb::nb_encode(iblock[src], ip);
            }
        }
    }
}

/// Write phase over one chunk: tags, exponents, embedded planes, raw
/// bits, and fixed-rate padding, in block order — the emitted stream is
/// bit-identical to the reference per-block loop because every write
/// happens in the same sequence. Runs under a single `plane_code` timer
/// tick.
#[allow(clippy::too_many_arguments)]
fn write_chunk<F: Float>(
    w: &mut BitWriter,
    classes: &[BlockClass],
    fchunk: &[f64],
    bs: usize,
    mode: Mode,
    rank: u8,
    ip: u32,
    g: i32,
    coeffs_chunk: &[u64],
) {
    // Small blocks (1D: 4, 2D: 16 coefficients) batch 64/bs neighbours
    // through one shared bit-matrix transpose instead of per-plane
    // extraction loops; 3D blocks already transpose individually.
    let small = bs < 64;
    let group = if small { nb::PlaneBatch::group(bs) } else { 1 };
    let mut batch: Option<nb::PlaneBatch> = None;
    for (slot, class) in classes.iter().enumerate() {
        if small && slot % group == 0 {
            let lo = slot * bs;
            let hi = ((slot + group) * bs).min(classes.len() * bs);
            batch = Some(nb::PlaneBatch::gather(&coeffs_chunk[lo..hi], bs));
        }
        let block_start = w.bit_len();
        match *class {
            BlockClass::Raw => {
                w.write_bits(0b11, 2);
                for &v in &fchunk[slot * bs..(slot + 1) * bs] {
                    w.write_bits(F::from_f64(v).to_bits_u64(), F::BITS);
                }
            }
            BlockClass::Zero => {
                w.write_bit(false); // tag 0 = all-zero block
                if let Mode::FixedRate(rate) = mode {
                    pad_to(w, block_start, rate_budget(rate, bs));
                }
            }
            BlockClass::Coded { emax } => {
                w.write_bits(0b10, 2); // tag 10 = transform-coded block
                w.write_bits((emax + EMAX_BIAS) as u64, 16);
                let kmin = kmin_for(mode, emax, rank, ip, g);
                let budget = match mode {
                    Mode::FixedRate(rate) => rate_budget(rate, bs) - 18, // tag + exponent
                    _ => u64::MAX,
                };
                if let Some(b) = &batch {
                    let words = b.block_planes(slot % group);
                    nb::encode_plane_words(w, &words, bs, ip, kmin, budget);
                } else {
                    let coeffs = &coeffs_chunk[slot * bs..(slot + 1) * bs];
                    nb::encode_planes_budget(w, coeffs, ip, kmin, budget);
                }
                if let Mode::FixedRate(rate) = mode {
                    pad_to(w, block_start, rate_budget(rate, bs));
                }
            }
        }
    }
}

/// Maps a chunk index range to block grid coordinates in the raster order
/// the reference triple loop used: `bx` fastest, then `by`, then `bz`.
#[inline]
fn block_coords(t: usize, gx: usize, gy: usize) -> (usize, usize, usize) {
    (t % gx, (t / gx) % gy, t / (gx * gy))
}

/// Compresses `data` into a self-contained ZFP stream. The recorder gets
/// per-block lift and plane-code aggregates; output bytes are unchanged.
pub(crate) fn compress<F: Float>(
    data: &[F],
    dims: Dims,
    mode: Mode,
    rec: &dyn Recorder,
) -> Result<Vec<u8>, CodecError> {
    let rank = dims.rank();
    let bs = lift::block_size(rank);
    let order = lift::sequency_order(rank);
    let ip = intprec::<F>();
    let g = guard::<F>();

    let mut w = BitWriter::with_capacity(data.len());
    let mut clocks = StageClocks::new(rec);
    if !dims.is_empty() {
        let (gx, gy, gz) = blocks::block_grid(dims);
        let total = gx * gy * gz;
        let mut fchunk = vec![0.0f64; CHUNK_BLOCKS * bs];
        let mut coeffs_chunk = vec![0u64; CHUNK_BLOCKS * bs];
        let mut iblock = vec![0i64; bs];
        let mut classes = Vec::with_capacity(CHUNK_BLOCKS);
        let mut start = 0;
        while start < total {
            let end = (start + CHUNK_BLOCKS).min(total);
            classes.clear();
            for (slot, t) in (start..end).enumerate() {
                let (bx, by, bz) = block_coords(t, gx, gy);
                let fblock = &mut fchunk[slot * bs..(slot + 1) * bs];
                blocks::gather(data, dims, bx, by, bz, fblock);
                classes.push(classify(fblock, mode, rank, ip, g)?);
            }
            clocks.lift.time(|| {
                lift_chunk(
                    &classes,
                    &fchunk,
                    bs,
                    rank,
                    ip,
                    g,
                    &order,
                    &mut iblock,
                    &mut coeffs_chunk,
                )
            });
            clocks.plane.time(|| {
                write_chunk::<F>(
                    &mut w,
                    &classes,
                    &fchunk,
                    bs,
                    mode,
                    rank,
                    ip,
                    g,
                    &coeffs_chunk,
                )
            });
            start = end;
        }
    }
    clocks.finish();
    Ok(finish::<F>(w.into_bytes(), dims, mode))
}

/// Fused transform + compression: gathers each 4^d block from the
/// *original* data, maps it through `plan` on a stack-sized scratch, and
/// encodes it — the full mapped field is never materialized. The sign
/// bitmap (raster order, aligned with `data`) comes from a dedicated
/// integer sweep: block traversal revisits replicated edge samples, so
/// collecting signs during the gather would double-count them.
///
/// Produces exactly the stream [`compress`] would on the buffered mapped
/// data.
pub(crate) fn compress_fused<F: Float>(
    data: &[F],
    dims: Dims,
    plan: &LogPlan,
    mode: Mode,
    rec: &dyn Recorder,
) -> Result<(Vec<u8>, Option<Vec<bool>>), CodecError> {
    let rank = dims.rank();
    let bs = lift::block_size(rank);
    let order = lift::sequency_order(rank);
    let ip = intprec::<F>();
    let g = guard::<F>();

    // Sign collection is the plan's job only in linear sweeps; block
    // gathers replicate elements, so disable it and sweep separately.
    let block_plan = LogPlan {
        any_negative: false,
        ..*plan
    };
    let signs = plan
        .any_negative
        .then(|| data.iter().map(|x| x.to_f64() < 0.0).collect::<Vec<bool>>());

    let mut w = BitWriter::with_capacity(data.len());
    let mut clocks = StageClocks::new(rec);
    let mut map_timer = StageTimer::new(rec, stage::TRANSFORM);
    if !dims.is_empty() {
        let (gx, gy, gz) = blocks::block_grid(dims);
        let total = gx * gy * gz;
        let mut raw_chunk = vec![F::zero(); CHUNK_BLOCKS * bs];
        let mut mapped = vec![F::zero(); bs];
        let mut scratch = vec![0.0f64; bs];
        let mut fchunk = vec![0.0f64; CHUNK_BLOCKS * bs];
        let mut coeffs_chunk = vec![0u64; CHUNK_BLOCKS * bs];
        let mut iblock = vec![0i64; bs];
        let mut classes = Vec::with_capacity(CHUNK_BLOCKS);
        let mut no_signs = Vec::new();
        let mut start = 0;
        while start < total {
            let end = (start + CHUNK_BLOCKS).min(total);
            let cn = end - start;
            for (slot, t) in (start..end).enumerate() {
                let (bx, by, bz) = block_coords(t, gx, gy);
                blocks::gather_raw(
                    data,
                    dims,
                    bx,
                    by,
                    bz,
                    &mut raw_chunk[slot * bs..(slot + 1) * bs],
                );
            }
            map_timer.time(|| {
                for slot in 0..cn {
                    let raw = &raw_chunk[slot * bs..(slot + 1) * bs];
                    block_plan.map_chunk(raw, &mut mapped, &mut scratch, &mut no_signs);
                    for (f, m) in fchunk[slot * bs..(slot + 1) * bs].iter_mut().zip(&mapped) {
                        *f = m.to_f64();
                    }
                }
            });
            classes.clear();
            for slot in 0..cn {
                classes.push(classify(
                    &fchunk[slot * bs..(slot + 1) * bs],
                    mode,
                    rank,
                    ip,
                    g,
                )?);
            }
            clocks.lift.time(|| {
                lift_chunk(
                    &classes,
                    &fchunk,
                    bs,
                    rank,
                    ip,
                    g,
                    &order,
                    &mut iblock,
                    &mut coeffs_chunk,
                )
            });
            clocks.plane.time(|| {
                write_chunk::<F>(
                    &mut w,
                    &classes,
                    &fchunk,
                    bs,
                    mode,
                    rank,
                    ip,
                    g,
                    &coeffs_chunk,
                )
            });
            start = end;
        }
    }
    map_timer.finish();
    clocks.finish();
    Ok((finish::<F>(w.into_bytes(), dims, mode), signs))
}

/// Wraps an encoded payload in the self-describing container header.
fn finish<F: Float>(payload: Vec<u8>, dims: Dims, mode: Mode) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 48);
    out.extend_from_slice(MAGIC);
    out.push(F::BITS as u8);
    let (rank, nx, ny, nz) = dims.to_header();
    match mode {
        Mode::Accuracy(tol) => {
            out.push(0);
            out.push(rank);
            varint::write_uvarint(&mut out, nx);
            varint::write_uvarint(&mut out, ny);
            varint::write_uvarint(&mut out, nz);
            bytesio::put_f64(&mut out, tol);
        }
        Mode::Precision(p) => {
            out.push(1);
            out.push(rank);
            varint::write_uvarint(&mut out, nx);
            varint::write_uvarint(&mut out, ny);
            varint::write_uvarint(&mut out, nz);
            varint::write_uvarint(&mut out, p as u64);
        }
        Mode::FixedRate(rate) => {
            out.push(2);
            out.push(rank);
            varint::write_uvarint(&mut out, nx);
            varint::write_uvarint(&mut out, ny);
            varint::write_uvarint(&mut out, nz);
            varint::write_uvarint(&mut out, rate as u64);
        }
    }
    varint::write_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Decompresses a stream produced by [`compress`].
// audit:allow-fn(L1): the chunk scratch buffers (`fchunk`, `coeffs_chunk`)
// are allocated with `CHUNK_BLOCKS * bs` elements and every slot index is
// `< cn <= CHUNK_BLOCKS`; `iblock` holds `bs` elements and `order` is a
// permutation of `0..bs`. All untrusted quantities (dims, tags, counts)
// are validated before the chunk loop.
pub(crate) fn decompress<F: Float>(
    bytes: &[u8],
    rec: &dyn Recorder,
) -> Result<(Vec<F>, Dims), CodecError> {
    if !bytes.starts_with(MAGIC) {
        return Err(CodecError::Mismatch("bad ZFP magic"));
    }
    let mut pos = 4usize;
    let float_bits = *bytes.get(pos).ok_or(CodecError::Corrupt("eof in header"))?;
    pos += 1;
    if float_bits as u32 != F::BITS {
        return Err(CodecError::Mismatch("element type differs from stream"));
    }
    let mode_byte = *bytes.get(pos).ok_or(CodecError::Corrupt("eof in header"))?;
    pos += 1;
    let rank = *bytes.get(pos).ok_or(CodecError::Corrupt("eof in header"))?;
    pos += 1;
    let nx = varint::read_uvarint(bytes, &mut pos)?;
    let ny = varint::read_uvarint(bytes, &mut pos)?;
    let nz = varint::read_uvarint(bytes, &mut pos)?;
    let dims = Dims::from_header(rank, nx, ny, nz).ok_or(CodecError::Corrupt("bad dims"))?;
    let mode = match mode_byte {
        0 => Mode::Accuracy(bytesio::get_f64(bytes, &mut pos)?),
        1 => Mode::Precision(varint::read_uvarint(bytes, &mut pos)? as u32),
        2 => Mode::FixedRate(varint::read_uvarint(bytes, &mut pos)? as u32),
        _ => return Err(CodecError::Corrupt("unknown zfp mode")),
    };
    if let Mode::Accuracy(t) = mode {
        if !(t > 0.0) || !t.is_finite() {
            return Err(CodecError::Corrupt("bad tolerance"));
        }
    }
    let payload_len = varint::read_uvarint(bytes, &mut pos)? as usize;
    let payload = bytesio::get_bytes(bytes, &mut pos, payload_len)?;

    let rank = dims.rank();
    // `Dims::from_header` only constructs rank 1..=3, bounding
    // `block_size(rank)` to at most 64 before the scratch allocations.
    debug_assert!((1..=3).contains(&rank));
    let bs = lift::block_size(rank);
    let order = lift::sequency_order(rank);
    let ip = intprec::<F>();
    let g = guard::<F>();

    if dims.is_empty() {
        return Ok((Vec::new(), dims));
    }
    let (gx, gy, gz) = blocks::block_grid(dims);
    // Dims are untrusted: every block costs at least its tag bit, so a
    // header claiming more blocks than the payload has bits is corrupt —
    // reject before allocating the output.
    if gx as u64 * gy as u64 * gz as u64 > payload.len() as u64 * 8 {
        return Err(CodecError::Corrupt("dims exceed payload"));
    }
    let mut out = vec![F::zero(); dims.len()];
    let mut r = BitReader::new(payload);
    let total = gx * gy * gz;
    let mut fchunk = vec![0.0f64; CHUNK_BLOCKS * bs];
    let mut coeffs_chunk = vec![0u64; CHUNK_BLOCKS * bs];
    let mut iblock = vec![0i64; bs];
    let mut classes: Vec<BlockClass> = Vec::with_capacity(CHUNK_BLOCKS);
    let mut clocks = StageClocks::new(rec);
    let mut start = 0;
    while start < total {
        let end = (start + CHUNK_BLOCKS).min(total);
        let cn = end - start;
        classes.clear();
        // Read phase: tags, exponents, raw bits, and embedded planes for
        // the whole chunk, in stream order (one plane_code timer tick).
        clocks.plane.time(|| -> Result<(), CodecError> {
            // Small blocks decode into plane words and scatter groups of
            // 64/bs through one shared transpose (mirror of write_chunk's
            // batched gather); 3D blocks transpose individually.
            let small = bs < 64;
            let group = if small { nb::PlaneBatch::group(bs) } else { 1 };
            let mut batch: Option<nb::PlaneBatch> = None;
            for slot in 0..cn {
                if small && slot % group == 0 {
                    batch = Some(nb::PlaneBatch::collect(bs));
                }
                let block_start = r.bits_read();
                if !r.read_bit()? {
                    classes.push(BlockClass::Zero);
                    if let Mode::FixedRate(rate) = mode {
                        skip_to(&mut r, block_start, rate_budget(rate, bs))?;
                    }
                } else if r.read_bit()? {
                    // Raw escape block (never produced in fixed-rate mode).
                    for v in fchunk[slot * bs..(slot + 1) * bs].iter_mut() {
                        let bits = r.read_bits(if ip == 34 { 32 } else { 64 })?;
                        *v = if ip == 34 {
                            f32::from_bits(bits as u32) as f64
                        } else {
                            f64::from_bits(bits)
                        };
                    }
                    classes.push(BlockClass::Raw);
                } else {
                    let emax = r.read_bits(16)? as i32 - EMAX_BIAS;
                    let kmin = kmin_for(mode, emax, rank, ip, g);
                    let budget = match mode {
                        Mode::FixedRate(rate) => rate_budget(rate, bs) - 18,
                        _ => u64::MAX,
                    };
                    if let Some(b) = batch.as_mut() {
                        let mut words = [0u64; 64];
                        nb::decode_plane_words(&mut r, &mut words, bs, ip, kmin, budget)?;
                        b.set_block_planes(slot % group, &words);
                    } else {
                        let coeffs = &mut coeffs_chunk[slot * bs..(slot + 1) * bs];
                        coeffs.iter_mut().for_each(|c| *c = 0);
                        nb::decode_planes_budget(&mut r, coeffs, ip, kmin, budget)?;
                    }
                    if let Mode::FixedRate(rate) = mode {
                        skip_to(&mut r, block_start, rate_budget(rate, bs))?;
                    }
                    classes.push(BlockClass::Coded { emax });
                }
                if small && (slot % group == group - 1 || slot == cn - 1) {
                    if let Some(b) = batch.take() {
                        let lo = (slot / group) * group * bs;
                        b.scatter(&mut coeffs_chunk[lo..(slot + 1) * bs]);
                    }
                }
            }
            Ok(())
        })?;
        // Unlift phase: negabinary decode, inverse lifting, and scaling
        // for every coded block (one lift timer tick).
        clocks.lift.time(|| {
            for (slot, class) in classes.iter().enumerate() {
                let fblock = &mut fchunk[slot * bs..(slot + 1) * bs];
                match *class {
                    BlockClass::Zero => fblock.iter_mut().for_each(|v| *v = 0.0),
                    BlockClass::Raw => {}
                    BlockClass::Coded { emax } => {
                        let coeffs = &coeffs_chunk[slot * bs..(slot + 1) * bs];
                        for (c, &dst) in order.iter().enumerate() {
                            iblock[dst] = nb::nb_decode(coeffs[c], ip);
                        }
                        lift::inv_xform(&mut iblock, rank);
                        let s = (ip as i32 - g) - emax;
                        let inv_scale = exp2_clamped(-s);
                        for (i, &q) in iblock.iter().enumerate() {
                            fblock[i] = q as f64 * inv_scale;
                        }
                    }
                }
            }
        });
        for (slot, t) in (start..end).enumerate() {
            let (bx, by, bz) = block_coords(t, gx, gy);
            blocks::scatter(
                &mut out,
                dims,
                bx,
                by,
                bz,
                &fchunk[slot * bs..(slot + 1) * bs],
            );
        }
        start = end;
    }
    clocks.finish();
    Ok((out, dims))
}

/// A randomly-accessed block: samples in block raster order (padded
/// positions included) and the in-grid extent along each axis.
pub type BlockSamples<F> = (Vec<F>, (usize, usize, usize));

/// Randomly accesses one 4^d block of a **fixed-rate** stream without
/// decoding anything else — the feature constant-size blocks buy.
pub(crate) fn decompress_block<F: Float>(
    bytes: &[u8],
    bx: usize,
    by: usize,
    bz: usize,
) -> Result<BlockSamples<F>, CodecError> {
    if !bytes.starts_with(MAGIC) {
        return Err(CodecError::Mismatch("bad ZFP magic"));
    }
    let mut pos = 4usize;
    let float_bits = *bytes.get(pos).ok_or(CodecError::Corrupt("eof in header"))?;
    pos += 1;
    if float_bits as u32 != F::BITS {
        return Err(CodecError::Mismatch("element type differs from stream"));
    }
    let mode_byte = *bytes.get(pos).ok_or(CodecError::Corrupt("eof in header"))?;
    pos += 1;
    let rank_byte = *bytes.get(pos).ok_or(CodecError::Corrupt("eof in header"))?;
    pos += 1;
    let nx = varint::read_uvarint(bytes, &mut pos)?;
    let ny = varint::read_uvarint(bytes, &mut pos)?;
    let nz = varint::read_uvarint(bytes, &mut pos)?;
    let dims = Dims::from_header(rank_byte, nx, ny, nz).ok_or(CodecError::Corrupt("bad dims"))?;
    let rate = match mode_byte {
        2 => varint::read_uvarint(bytes, &mut pos)? as u32,
        _ => {
            return Err(CodecError::InvalidArgument(
                "random access requires a fixed-rate stream",
            ))
        }
    };
    let payload_len = varint::read_uvarint(bytes, &mut pos)? as usize;
    let payload = bytesio::get_bytes(bytes, &mut pos, payload_len)?;

    let rank = dims.rank();
    // `Dims::from_header` only constructs rank 1..=3, bounding
    // `block_size(rank)` to at most 64 before the scratch allocations.
    debug_assert!((1..=3).contains(&rank));
    let bs = lift::block_size(rank);
    let order = lift::sequency_order(rank);
    let ip = intprec::<F>();
    let g = guard::<F>();
    let (gx, gy, gz) = blocks::block_grid(dims);
    if bx >= gx || by >= gy || bz >= gz {
        return Err(CodecError::InvalidArgument("block index out of range"));
    }

    let index = ((bz * gy) + by) * gx + bx;
    let offset = index as u64 * rate_budget(rate, bs);
    let mut r = BitReader::new(payload);
    skip_to(&mut r, 0, offset)?;
    let block_start = r.bits_read();

    let mut fblock = vec![0.0f64; bs];
    let mut iblock = vec![0i64; bs];
    let mut coeffs = vec![0u64; bs];
    // Random access decodes a single block; not worth tracing.
    let mut clocks = StageClocks::new(pwrel_trace::noop());
    decode_one_block(
        &mut r,
        block_start,
        Mode::FixedRate(rate),
        rank,
        ip,
        g,
        &order,
        &mut iblock,
        &mut coeffs,
        &mut fblock,
        &mut clocks,
    )?;
    clocks.finish();
    let extent = (
        (dims.nx - 4 * bx).min(4),
        if rank >= 2 {
            (dims.ny - 4 * by).min(4)
        } else {
            1
        },
        if rank >= 3 {
            (dims.nz - 4 * bz).min(4)
        } else {
            1
        },
    );
    Ok((fblock.into_iter().map(F::from_f64).collect(), extent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ZfpCompressor;
    use pwrel_data::grf;
    use pwrel_trace::noop;

    fn zfp() -> ZfpCompressor {
        ZfpCompressor
    }

    fn check_accuracy<F: Float>(data: &[F], dims: Dims, tol: f64) -> Vec<u8> {
        let bytes = zfp().compress_accuracy(data, dims, tol, noop()).unwrap();
        let (dec, d2) = zfp().decompress::<F>(&bytes, noop()).unwrap();
        assert_eq!(d2, dims);
        for (idx, (&a, &b)) in data.iter().zip(&dec).enumerate() {
            let err = (a.to_f64() - b.to_f64()).abs();
            assert!(err <= tol, "idx {idx}: |{a} - {b}| = {err} > {tol}");
        }
        bytes
    }

    #[test]
    fn frexp_exponent_basics() {
        assert_eq!(frexp_exp(1.0), 1);
        assert_eq!(frexp_exp(0.5), 0);
        assert_eq!(frexp_exp(0.75), 0);
        assert_eq!(frexp_exp(2.0), 2);
        assert_eq!(frexp_exp(3.9), 2);
        assert_eq!(frexp_exp(f64::MIN_POSITIVE), -1021);
    }

    #[test]
    fn accuracy_bound_holds_1d() {
        let dims = Dims::d1(4000);
        let data: Vec<f32> = (0..4000).map(|i| (i as f32 * 0.013).sin() * 50.0).collect();
        for tol in [1.0, 1e-2, 1e-4] {
            check_accuracy(&data, dims, tol);
        }
    }

    #[test]
    fn accuracy_bound_holds_2d_3d() {
        let d2 = Dims::d2(60, 52);
        let f2 = grf::gaussian_field(d2, 5, 2, 2);
        check_accuracy(&f2, d2, 1e-3);
        let d3 = Dims::d3(13, 18, 21);
        let f3 = grf::gaussian_field(d3, 6, 1, 2);
        check_accuracy(&f3, d3, 1e-3);
    }

    #[test]
    fn accuracy_bound_holds_f64() {
        let dims = Dims::d3(8, 8, 8);
        let data: Vec<f64> = (0..512).map(|i| (i as f64 * 0.07).cos() * 1e8).collect();
        check_accuracy(&data, dims, 1e-1);
    }

    #[test]
    fn mixed_magnitudes_still_bounded_in_accuracy_mode() {
        let dims = Dims::d1(64);
        let mut data = vec![1e-6f32; 64];
        data[3] = 1e6;
        data[40] = -4e5;
        check_accuracy(&data, dims, 1e-3);
    }

    #[test]
    fn smooth_field_compresses() {
        let dims = Dims::d2(128, 128);
        let data = grf::gaussian_field(dims, 7, 4, 3);
        let bytes = check_accuracy(&data, dims, 1e-2);
        let cr = (data.len() * 4) as f64 / bytes.len() as f64;
        assert!(cr > 3.0, "cr = {cr}");
    }

    #[test]
    fn zero_field_is_tiny() {
        let dims = Dims::d3(16, 16, 16);
        let data = vec![0.0f32; dims.len()];
        let bytes = check_accuracy(&data, dims, 1e-6);
        assert!(bytes.len() < 200, "len = {}", bytes.len());
    }

    #[test]
    fn precision_mode_round_trips_and_is_rate_monotone() {
        let dims = Dims::d2(40, 40);
        let data = grf::gaussian_field(dims, 8, 2, 2);
        let mut prev_len = 0usize;
        for p in [8u32, 16, 24, 32] {
            let bytes = zfp().compress_precision(&data, dims, p, noop()).unwrap();
            let (dec, _) = zfp().decompress::<f32>(&bytes, noop()).unwrap();
            assert_eq!(dec.len(), data.len());
            assert!(bytes.len() >= prev_len, "p={p}");
            prev_len = bytes.len();
        }
        // High precision must be near-lossless.
        let bytes = zfp().compress_precision(&data, dims, 34, noop()).unwrap();
        let (dec, _) = zfp().decompress::<f32>(&bytes, noop()).unwrap();
        for (&a, &b) in data.iter().zip(&dec) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn precision_mode_violates_rel_bound_on_mixed_blocks() {
        // The Table IV story: a block holding 1e-6 next to 1e6 cannot keep
        // the small value's relative error under a fixed per-block precision.
        let dims = Dims::d1(64);
        let mut data = vec![1.0f32; 64];
        for i in (0..64).step_by(4) {
            data[i] = 1e6;
            data[i + 1] = 1e-6;
        }
        let bytes = zfp().compress_precision(&data, dims, 20, noop()).unwrap();
        let (dec, _) = zfp().decompress::<f32>(&bytes, noop()).unwrap();
        let max_rel = data
            .iter()
            .zip(&dec)
            .map(|(&a, &b)| ((a - b) / a).abs() as f64)
            .fold(0.0f64, f64::max);
        assert!(
            max_rel > 1.0,
            "expected blown relative error, got {max_rel}"
        );
    }

    #[test]
    fn raw_escape_preserves_nonfinite() {
        let dims = Dims::d1(6);
        let data = vec![1.0f32, f32::NAN, f32::INFINITY, -2.0, 3.0, -4.0];
        let bytes = zfp().compress_accuracy(&data, dims, 0.5, noop()).unwrap();
        let (dec, _) = zfp().decompress::<f32>(&bytes, noop()).unwrap();
        assert!(dec[1].is_nan());
        assert_eq!(dec[2], f32::INFINITY);
    }

    #[test]
    fn unaligned_dims_round_trip() {
        for dims in [Dims::d1(1), Dims::d1(5), Dims::d2(3, 7), Dims::d3(2, 5, 9)] {
            let data: Vec<f32> = (0..dims.len()).map(|i| (i as f32).sqrt() - 2.0).collect();
            check_accuracy(&data, dims, 1e-4);
        }
    }

    #[test]
    fn empty_input() {
        let bytes = zfp()
            .compress_accuracy::<f32>(&[], Dims::d1(0), 0.1, noop())
            .unwrap();
        let (dec, _) = zfp().decompress::<f32>(&bytes, noop()).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn invalid_arguments() {
        let data = [1.0f32; 4];
        let dims = Dims::d1(4);
        assert!(zfp().compress_accuracy(&data, dims, 0.0, noop()).is_err());
        assert!(zfp().compress_precision(&data, dims, 0, noop()).is_err());
        assert!(zfp().compress_precision(&data, dims, 99, noop()).is_err());
        assert!(zfp()
            .compress_accuracy(&data, Dims::d1(3), 0.1, noop())
            .is_err());
    }

    #[test]
    fn wrong_type_rejected() {
        let data = [1.0f32; 8];
        let bytes = zfp()
            .compress_accuracy(&data, Dims::d1(8), 0.1, noop())
            .unwrap();
        assert!(zfp().decompress::<f64>(&bytes, noop()).is_err());
    }

    #[test]
    fn fixed_rate_stream_size_is_exact() {
        // rate × points (plus the fixed container header) regardless of
        // content: compressible and incompressible fields produce
        // identically-sized streams.
        let dims = Dims::d2(32, 32);
        let smooth = grf::gaussian_field(dims, 51, 4, 3);
        let noise = grf::white_noise(dims.len(), 52);
        for rate in [2u32, 8, 16] {
            let a = zfp().compress_rate(&smooth, dims, rate, noop()).unwrap();
            let b = zfp().compress_rate(&noise, dims, rate, noop()).unwrap();
            assert_eq!(a.len(), b.len(), "rate {rate}");
            let payload_bits = (rate as usize) * dims.len();
            assert!(a.len() * 8 >= payload_bits);
            assert!(a.len() * 8 < payload_bits + 512, "rate {rate}: {}", a.len());
        }
    }

    #[test]
    fn fixed_rate_error_decreases_with_rate() {
        let dims = Dims::d3(8, 8, 8);
        let data = grf::gaussian_field(dims, 53, 2, 2);
        let mut last = f64::INFINITY;
        for rate in [2u32, 6, 12, 24] {
            let s = zfp().compress_rate(&data, dims, rate, noop()).unwrap();
            let (dec, _) = zfp().decompress::<f32>(&s, noop()).unwrap();
            let err = data
                .iter()
                .zip(&dec)
                .map(|(&a, &b)| (a as f64 - b as f64).abs())
                .fold(0.0f64, f64::max);
            assert!(err <= last, "rate {rate}: {err} > {last}");
            last = err;
        }
        assert!(last < 1e-4, "high rate must be near-lossless, err {last}");
    }

    #[test]
    fn fixed_rate_round_trips_with_zero_blocks_and_edges() {
        let dims = Dims::d2(10, 13); // unaligned
        let mut data = vec![0.0f32; dims.len()];
        for (i, v) in data.iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = (i as f32).sin();
            }
        }
        let s = zfp().compress_rate(&data, dims, 12, noop()).unwrap();
        let (dec, d) = zfp().decompress::<f32>(&s, noop()).unwrap();
        assert_eq!(d, dims);
        assert_eq!(dec.len(), data.len());
    }

    #[test]
    fn random_access_matches_full_decode() {
        let dims = Dims::d3(9, 10, 11); // unaligned on every axis
        let data = grf::gaussian_field(dims, 71, 1, 2);
        let rate = 14u32;
        let stream = zfp().compress_rate(&data, dims, rate, noop()).unwrap();
        let (full, _) = zfp().decompress::<f32>(&stream, noop()).unwrap();
        let (gx, gy, gz) = crate::blocks::block_grid(dims);
        for bz in 0..gz {
            for by in 0..gy {
                for bx in 0..gx {
                    let (block, (ex, ey, ez)) =
                        zfp().decompress_block::<f32>(&stream, bx, by, bz).unwrap();
                    assert_eq!(block.len(), 64);
                    for dk in 0..ez {
                        for dj in 0..ey {
                            for di in 0..ex {
                                let got = block[16 * dk + 4 * dj + di];
                                let want = full[dims.index(4 * bx + di, 4 * by + dj, 4 * bz + dk)];
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "block ({bx},{by},{bz}) local ({di},{dj},{dk})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn random_access_rejects_wrong_mode_and_range() {
        let dims = Dims::d2(8, 8);
        let data = grf::gaussian_field(dims, 72, 1, 1);
        let acc = zfp().compress_accuracy(&data, dims, 1e-3, noop()).unwrap();
        assert!(zfp().decompress_block::<f32>(&acc, 0, 0, 0).is_err());
        let fixed = zfp().compress_rate(&data, dims, 8, noop()).unwrap();
        assert!(zfp().decompress_block::<f32>(&fixed, 0, 0, 0).is_ok());
        assert!(zfp().decompress_block::<f32>(&fixed, 2, 0, 0).is_err());
        assert!(zfp().decompress_block::<f32>(&fixed, 0, 0, 1).is_err());
    }

    #[test]
    fn fixed_rate_rejects_nonfinite_and_bad_rate() {
        let dims = Dims::d1(4);
        assert!(zfp()
            .compress_rate(&[1.0f32, f32::NAN, 0.0, 0.0], dims, 8, noop())
            .is_err());
        assert!(zfp().compress_rate(&[1.0f32; 4], dims, 0, noop()).is_err());
        assert!(zfp().compress_rate(&[1.0f32; 4], dims, 99, noop()).is_err());
    }

    #[test]
    fn precision_heuristic_matches_paper_settings() {
        assert_eq!(precision_for_rel_bound(1e-3), 26);
        assert_eq!(precision_for_rel_bound(1e-2), 23);
        assert_eq!(precision_for_rel_bound(1e-1), 20);
    }

    #[test]
    fn tighter_tolerance_larger_stream() {
        let dims = Dims::d2(64, 64);
        let data = grf::gaussian_field(dims, 9, 3, 3);
        let loose = zfp().compress_accuracy(&data, dims, 1e-1, noop()).unwrap();
        let tight = zfp().compress_accuracy(&data, dims, 1e-5, noop()).unwrap();
        assert!(tight.len() > loose.len());
    }
}
