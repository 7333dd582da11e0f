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
}

/// Heuristic mapping from a point-wise relative bound to a ZFP `-p`
/// precision, mirroring the parameter choices in the paper's Table IV
/// (e.g. `b_r = 1e-3 → -p 26`, `1e-2 → -p 23`).
pub fn precision_for_rel_bound(rel_bound: f64) -> u32 {
    assert!(rel_bound > 0.0 && rel_bound.is_finite());
    ((-rel_bound.log2()).ceil() as i64 + 16).clamp(1, 64) as u32
}

/// The precisions a stream of `F` may carry: 1 ..= F::BITS + 2 bit planes
/// (ZFP's `-p`). The encoder refuses any other request and the decoder
/// any other header.
pub(crate) fn precision_in_range<F: Float>(p: u32) -> bool {
    (1..=F::BITS + 2).contains(&p)
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
    }
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
fn classify(fblock: &[f64], mode: Mode, rank: u8, ip: u32, g: i32) -> BlockClass {
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
        return BlockClass::Raw;
    }
    let max_mag = fblock.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if max_mag == 0.0 {
        return BlockClass::Zero;
    }
    BlockClass::Coded {
        emax: frexp_exp(max_mag),
    }
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

/// Write phase over one chunk: tags, exponents, embedded planes and raw
/// bits, in block order — the emitted stream is bit-identical to the
/// reference per-block loop because every write happens in the same
/// sequence. Runs under a single `plane_code` timer tick.
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
        match *class {
            BlockClass::Raw => {
                w.write_bits(0b11, 2);
                for &v in &fchunk[slot * bs..(slot + 1) * bs] {
                    w.write_bits(F::from_f64(v).to_bits_u64(), F::BITS);
                }
            }
            BlockClass::Zero => w.write_bit(false), // tag 0 = all-zero block
            BlockClass::Coded { emax } => {
                w.write_bits(0b10, 2); // tag 10 = transform-coded block
                w.write_bits((emax + EMAX_BIAS) as u64, 16);
                let kmin = kmin_for(mode, emax, rank, ip, g);
                if let Some(b) = &batch {
                    let words = b.block_planes(slot % group);
                    nb::encode_plane_words(w, &words, bs, ip, kmin);
                } else {
                    let coeffs = &coeffs_chunk[slot * bs..(slot + 1) * bs];
                    nb::encode_planes(w, coeffs, ip, kmin);
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

/// The encode loop both entry points share. For each chunk of up to
/// [`CHUNK_BLOCKS`] blocks, `load` fills the chunk's f64 samples (one
/// 4^d block per `bs`-sample slot, for the grid coordinates it is given),
/// then every block is classified, lifted and written. The recorder gets
/// the lift and plane-code aggregates; output bytes do not depend on it.
fn encode<F: Float>(
    dims: Dims,
    mode: Mode,
    rec: &dyn Recorder,
    mut load: impl FnMut(&[(usize, usize, usize)], &mut [f64]),
) -> Vec<u8> {
    let rank = dims.rank();
    let bs = lift::block_size(rank);
    let order = lift::sequency_order(rank);
    let ip = intprec::<F>();
    let g = guard::<F>();

    let mut w = BitWriter::with_capacity(dims.len());
    let mut clocks = StageClocks::new(rec);
    if !dims.is_empty() {
        let (gx, gy, gz) = blocks::block_grid(dims);
        let total = gx * gy * gz;
        let mut coords = Vec::with_capacity(CHUNK_BLOCKS);
        let mut fchunk = vec![0.0f64; CHUNK_BLOCKS * bs];
        let mut coeffs_chunk = vec![0u64; CHUNK_BLOCKS * bs];
        let mut iblock = vec![0i64; bs];
        let mut classes = Vec::with_capacity(CHUNK_BLOCKS);
        for start in (0..total).step_by(CHUNK_BLOCKS) {
            let end = (start + CHUNK_BLOCKS).min(total);
            coords.clear();
            coords.extend((start..end).map(|t| block_coords(t, gx, gy)));
            let fchunk = &mut fchunk[..coords.len() * bs];
            load(&coords, fchunk);
            classes.clear();
            classes.extend(
                fchunk
                    .chunks_exact(bs)
                    .map(|fblock| classify(fblock, mode, rank, ip, g)),
            );
            clocks.lift.time(|| {
                lift_chunk(
                    &classes,
                    fchunk,
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
                    fchunk,
                    bs,
                    mode,
                    rank,
                    ip,
                    g,
                    &coeffs_chunk,
                )
            });
        }
    }
    clocks.finish();
    finish::<F>(w.into_bytes(), dims, mode)
}

/// Compresses `data` into a self-contained ZFP stream.
pub(crate) fn compress<F: Float>(
    data: &[F],
    dims: Dims,
    mode: Mode,
    rec: &dyn Recorder,
) -> Vec<u8> {
    let bs = lift::block_size(dims.rank());
    encode::<F>(dims, mode, rec, |coords, fchunk| {
        for (&(bx, by, bz), fblock) in coords.iter().zip(fchunk.chunks_exact_mut(bs)) {
            blocks::gather(data, dims, bx, by, bz, fblock);
        }
    })
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
) -> (Vec<u8>, Option<Vec<bool>>) {
    let bs = lift::block_size(dims.rank());
    // Sign collection is the plan's job only in linear sweeps; block
    // gathers replicate elements, so disable it and sweep separately.
    let block_plan = LogPlan {
        any_negative: false,
        ..*plan
    };
    let signs = plan
        .any_negative
        .then(|| data.iter().map(|x| x.to_f64() < 0.0).collect::<Vec<bool>>());

    let mut raw_chunk = vec![F::zero(); CHUNK_BLOCKS * bs];
    let mut mapped = vec![F::zero(); bs];
    let mut scratch = vec![0.0f64; bs];
    let mut no_signs = Vec::new();
    let mut map_timer = StageTimer::new(rec, stage::TRANSFORM);
    let stream = encode::<F>(dims, mode, rec, |coords, fchunk| {
        for (&(bx, by, bz), raw) in coords.iter().zip(raw_chunk.chunks_exact_mut(bs)) {
            blocks::gather_raw(data, dims, bx, by, bz, raw);
        }
        map_timer.time(|| {
            for (raw, fblock) in raw_chunk.chunks_exact(bs).zip(fchunk.chunks_exact_mut(bs)) {
                block_plan.map_chunk(raw, &mut mapped, &mut scratch, &mut no_signs);
                for (f, m) in fblock.iter_mut().zip(&mapped) {
                    *f = m.to_f64();
                }
            }
        });
    });
    map_timer.finish();
    (stream, signs)
}

/// Wraps an encoded payload in the self-describing container header.
fn finish<F: Float>(payload: Vec<u8>, dims: Dims, mode: Mode) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 48);
    out.extend_from_slice(MAGIC);
    out.push(F::BITS as u8);
    out.push(match mode {
        Mode::Accuracy(_) => 0,
        Mode::Precision(_) => 1,
    });
    let (rank, nx, ny, nz) = dims.to_header();
    out.push(rank);
    for n in [nx, ny, nz] {
        varint::write_uvarint(&mut out, n);
    }
    match mode {
        Mode::Accuracy(tol) => bytesio::put_f64(&mut out, tol),
        Mode::Precision(p) => varint::write_uvarint(&mut out, u64::from(p)),
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
        1 => match u32::try_from(varint::read_uvarint(bytes, &mut pos)?) {
            Ok(p) if precision_in_range::<F>(p) => Mode::Precision(p),
            _ => return Err(CodecError::Corrupt("bad precision")),
        },
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
    for start in (0..total).step_by(CHUNK_BLOCKS) {
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
                if !r.read_bit()? {
                    classes.push(BlockClass::Zero);
                } else if r.read_bit()? {
                    // Raw escape block.
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
                    if let Some(b) = batch.as_mut() {
                        let mut words = [0u64; 64];
                        nb::decode_plane_words(&mut r, &mut words, bs, ip, kmin)?;
                        b.set_block_planes(slot % group, &words);
                    } else {
                        let coeffs = &mut coeffs_chunk[slot * bs..(slot + 1) * bs];
                        coeffs.iter_mut().for_each(|c| *c = 0);
                        nb::decode_planes(&mut r, coeffs, ip, kmin)?;
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
    }
    clocks.finish();
    Ok((out, dims))
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
