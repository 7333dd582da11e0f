//! Prediction + linear-scaling quantization engine (both SZ modes).

use crate::format::{SzMode, SzStream};
use crate::unpred;
use crate::SzCompressor;
use pwrel_bitstream::{BitReader, BitWriter};
use pwrel_data::{CodecError, Dims, Float};
use pwrel_kernels::{predict, LogPlan, CHUNK};
use pwrel_lossless::huffman;
use pwrel_trace::{stage, Recorder, Span, StageTimer};
use std::convert::Infallible;

/// Unwraps the compress-side sweeps' `Infallible` error without a panic
/// path (the match on `E` is empty, so this compiles to nothing).
#[inline]
fn infallible(res: Result<(), Infallible>) {
    match res {
        Ok(()) => {}
        Err(e) => match e {},
    }
}

/// Publishes the quantization tallies for one compression sweep: total
/// values, escaped outliers, and their ratio as an observation.
fn record_quant_stats(rec: &dyn Recorder, n: usize, n_unpred: u64) {
    if !rec.is_enabled() {
        return;
    }
    rec.add(stage::C_QUANT_VALUES, n as u64);
    rec.add(stage::C_QUANT_OUTLIERS, n_unpred);
    if n > 0 {
        rec.observe(stage::O_OUTLIER_RATE, n_unpred as f64 / n as f64);
    }
}

/// Default quantization interval count (SZ 1.4's default scale).
pub const DEFAULT_CAPACITY: u32 = 65536;

/// Error-bound specification for one compression run.
#[derive(Debug, Clone, Copy)]
pub enum EbSpec {
    /// One absolute bound for the whole dataset.
    Abs(f64),
    /// SZ_PWR: per-block absolute bound `2^floor(log2(rel * min|x|))`.
    BlockRel {
        /// Point-wise relative bound.
        rel_bound: f64,
        /// Raster-order block length.
        block_len: usize,
    },
}

/// Resolved per-point bounds.
struct Ebs {
    abs: f64,
    block_ebs: Vec<f64>,
    block_len: usize,
}

impl Ebs {
    // audit:allow-fn(L1): `deserialize` validates block_len >= 1 and
    // block_ebs.len() == div_ceil(n, block_len) before an `Ebs` is built,
    // and every caller passes idx < n, so idx / block_len is in range.
    #[inline]
    fn at(&self, idx: usize) -> f64 {
        if self.block_ebs.is_empty() {
            self.abs
        } else {
            self.block_ebs[idx / self.block_len]
        }
    }
}

/// Exponent clamp: f64 can represent 2^-1074 .. 2^1023.
fn clamp_exp(e: f64) -> i32 {
    if !e.is_finite() {
        return -1074;
    }
    (e.floor() as i64).clamp(-1074, 1000) as i32
}

/// Computes the per-block power-of-two bounds for PWR mode.
///
/// Uses the smallest *non-zero* magnitude in the block (blocks of pure
/// zeros get the f64 denormal floor, which forces verbatim storage and so
/// keeps all-zero regions exact; mixed blocks approximate their zeros —
/// SZ 1.4's documented behaviour).
fn block_exponents<F: Float>(data: &[F], rel_bound: f64, block_len: usize) -> Vec<i32> {
    data.chunks(block_len)
        .map(|block| {
            let mut min_mag = f64::INFINITY;
            for &v in block {
                let m = v.to_f64().abs();
                if m > 0.0 && m < min_mag {
                    min_mag = m;
                }
            }
            if min_mag.is_infinite() {
                -1074
            } else {
                clamp_exp((rel_bound * min_mag).log2())
            }
        })
        .collect()
}

/// Runs the prediction + quantization stage only and returns the raw
/// quantization codes (`0` = unpredictable escape, otherwise
/// `radius + q`). For analysis — e.g. validating the paper's Theorem 3
/// (quantization indices barely move across logarithm bases) against the
/// actual coder rather than a model of it.
pub fn quantization_codes<F: Float>(
    data: &[F],
    dims: Dims,
    bound: f64,
    cfg: &SzCompressor,
) -> Vec<u32> {
    assert_eq!(data.len(), dims.len());
    assert!(bound > 0.0 && bound.is_finite());
    let quant = predict::QuantKernel::new(cfg.capacity);
    // Index-addressed (0 = escape) so the wavefront's cross-row visit
    // order lands every code in its raster slot.
    let mut codes = vec![0u32; data.len()];
    infallible(predict::sweep(dims, |idx, pred| {
        let x = data[idx];
        Ok(match quant.quantize(x, pred, bound) {
            Some((code, val)) => {
                codes[idx] = code;
                val
            }
            None => x,
        })
    }));
    codes
}

/// Escapes recorded during a (possibly wavefront-interleaved) sweep.
///
/// The unpredictable stream is strictly raster-ordered, but the wavefront
/// sweep visits rows interleaved — so each escape's decoder-visible value
/// is derived immediately (via a throwaway scratch writer, using the same
/// [`unpred::write`] the stream format defines, so the two cannot drift)
/// while the actual stream is written afterwards in index order by
/// [`EscapeLog::into_stream`].
struct EscapeLog<F> {
    scratch: BitWriter,
    entries: Vec<(usize, F)>,
}

impl<F: Float> EscapeLog<F> {
    fn new() -> Self {
        Self {
            scratch: BitWriter::new(),
            entries: Vec::new(),
        }
    }

    /// Records one escaping point and returns the value the decoder will
    /// reconstruct for it (the caller's prediction state must see this).
    /// Out of line and cold: escapes are rare, and the bit writer this
    /// pulls in would otherwise grow every inlined sink (DESIGN.md §13).
    #[cold]
    #[inline(never)]
    fn record(&mut self, idx: usize, x: F, eb: f64) -> F {
        self.entries.push((idx, x));
        unpred::write(&mut self.scratch, x, eb)
    }

    /// Writes the raster-ordered unpredictable stream: entries sorted by
    /// index (the wavefront emits them nearly sorted), re-encoded with the
    /// per-point bound. Returns the writer and the escape count. Inline
    /// for the reason [`compress_fused`] is: it stays in its caller's
    /// codegen unit.
    #[inline]
    fn into_stream(mut self, eb_at: impl Fn(usize) -> f64) -> (BitWriter, u64) {
        self.entries.sort_unstable_by_key(|&(idx, _)| idx);
        let mut w = BitWriter::new();
        for &(idx, x) in &self.entries {
            unpred::write(&mut w, x, eb_at(idx));
        }
        (w, self.entries.len() as u64)
    }
}

/// One prediction + quantization step: stores the code for `x` at its
/// index (`0` = unpredictable escape) and returns the value the decoder
/// will see. Shared by the buffered and fused compression loops so they
/// stay bit-identical by construction; index-addressed so it tolerates
/// the wavefront's cross-row visit order. Small enough to inline into
/// the sweep: the escape path is the out-of-line [`EscapeLog::record`].
#[inline]
fn quantize_one<F: Float>(
    x: F,
    eb: f64,
    quant: &predict::QuantKernel,
    pred: f64,
    idx: usize,
    codes: &mut [u32],
    escapes: &mut EscapeLog<F>,
) -> F {
    if let Some((code, val)) = quant.quantize(x, pred, eb) {
        codes[idx] = code;
        return val;
    }
    // SZ's binary-representation analysis: keep only the leading bits the
    // (per-point) bound requires; predict from the value the decoder sees.
    // `codes` was zero-initialized, so the escape code is already in place.
    escapes.record(idx, x, eb)
}

/// Core compressor shared by both modes. The recorder attributes the
/// prediction/quantization sweep, the Huffman stage, and (inside
/// serialization) the LZ pass; it never changes the output bytes.
pub(crate) fn compress<F: Float>(
    data: &[F],
    dims: Dims,
    spec: EbSpec,
    cfg: &SzCompressor,
    rec: &dyn Recorder,
) -> Result<Vec<u8>, CodecError> {
    let capacity = cfg.capacity;
    // Hoisted once per sweep: rebuilding the kernel per point would put a
    // (cheap but pointless) int->float conversion in the hot loop.
    let qk = predict::QuantKernel::new(capacity);

    let (mode, ebs) = match spec {
        EbSpec::Abs(eb) => (
            SzMode::Abs { eb },
            Ebs {
                abs: eb,
                block_ebs: Vec::new(),
                block_len: 1,
            },
        ),
        EbSpec::BlockRel {
            rel_bound,
            block_len,
        } => {
            let exps = block_exponents(data, rel_bound, block_len);
            let block_ebs: Vec<f64> = exps.iter().map(|&e| (e as f64).exp2()).collect();
            (
                SzMode::Pwr {
                    rel_bound,
                    block_len: block_len as u64,
                    block_exps: exps,
                },
                Ebs {
                    abs: 0.0,
                    block_ebs,
                    block_len,
                },
            )
        }
    };

    let n = data.len();
    let mut codes: Vec<u32> = vec![0u32; n];
    let mut escapes = EscapeLog::new();

    {
        let _pq = Span::enter(rec, stage::PREDICT_QUANTIZE);
        infallible(predict::sweep(dims, |idx, pred| {
            Ok(quantize_one(
                data[idx],
                ebs.at(idx),
                &qk,
                pred,
                idx,
                &mut codes,
                &mut escapes,
            ))
        }));
    }
    let (unpred_w, n_unpred) = escapes.into_stream(|idx| ebs.at(idx));
    record_quant_stats(rec, n, n_unpred);

    let codes_buf = {
        let _huff = Span::enter(rec, stage::HUFFMAN);
        huffman::encode_symbols(&codes, capacity as usize)
    };
    let stream = SzStream {
        float_bits: F::BITS as u8,
        dims,
        capacity,
        mode,
        codes_buf,
        n_unpred,
        unpred_bytes: unpred_w.into_bytes(),
    };
    Ok(stream.serialize(cfg.lossless_pass, rec))
}

/// The fused sweep's mapped-value ring. Chunks of the input are mapped
/// on demand when the sweep first touches them, at the same
/// [`CHUNK`]-aligned boundaries as a raster cursor, so mapped values and
/// the sign bitmap are byte-identical to mapping the whole field first.
/// The wavefront keeps up to [`predict::LANES`] rows in flight, so the
/// live mapped span never exceeds `LANES·nx + CHUNK`; a power-of-two
/// capacity above that keeps the ring index a mask, and no live slot is
/// ever overwritten.
struct MappedRing<'a, F> {
    data: &'a [F],
    plan: &'a LogPlan,
    window: Vec<F>,
    /// Ring capacity − 1.
    mask: usize,
    scratch: [f64; CHUNK],
    signs: Vec<bool>,
    /// One past the last mapped index.
    mapped_end: usize,
    timer: StageTimer<'a>,
}

impl<'a, F: Float> MappedRing<'a, F> {
    fn new(data: &'a [F], dims: Dims, plan: &'a LogPlan, rec: &'a dyn Recorder) -> Self {
        let span = if dims.rank() == 1 {
            2 * CHUNK
        } else {
            predict::LANES * dims.nx + 2 * CHUNK
        };
        let cap = span.next_power_of_two();
        Self {
            data,
            plan,
            window: vec![F::default(); cap],
            mask: cap - 1,
            scratch: [0.0; CHUNK],
            signs: Vec::with_capacity(if plan.any_negative { data.len() } else { 0 }),
            mapped_end: 0,
            timer: StageTimer::new(rec, stage::TRANSFORM),
        }
    }

    /// The mapped value at `idx`; the sweep's per-point read.
    #[inline]
    fn get(&mut self, idx: usize) -> F {
        if idx >= self.mapped_end {
            self.map_through(idx);
        }
        self.window[idx & self.mask]
    }

    /// Maps chunks until `idx` is covered, under the transform timer.
    /// Out of line and cold: it runs about once per [`CHUNK`] points, and
    /// inlined it would grow every one of the sweep's call sites.
    #[cold]
    #[inline(never)]
    fn map_through(&mut self, idx: usize) {
        while idx >= self.mapped_end {
            let start = self.mapped_end;
            let end = (start + CHUNK).min(self.data.len());
            let slot = start & self.mask;
            let src = &self.data[start..end];
            let out = &mut self.window[slot..slot + (end - start)];
            let (plan, scratch, signs) = (self.plan, &mut self.scratch, &mut self.signs);
            self.timer.time(|| plan.map_chunk(src, out, scratch, signs));
            self.mapped_end = end;
        }
    }

    /// Publishes the transform total and returns the sign bitmap.
    fn finish(self) -> Vec<bool> {
        self.timer.finish();
        self.signs
    }
}

/// Fused transform + compression: maps `data` through `plan` in
/// [`CHUNK`]-sized runs of a [`MappedRing`] while the Lorenzo +
/// quantization sweep consumes them, collecting the sign bitmap in the
/// same pass. No intermediate mapped vector is ever materialized.
///
/// Produces exactly the stream [`compress`] would on the buffered mapped
/// data with `EbSpec::Abs(plan.abs_bound)`.
///
/// The recorder attributes the chunked mapping to [`stage::TRANSFORM`]
/// (as a [`StageTimer`] aggregate, since it interleaves with the sweep)
/// and the surrounding sweep to [`stage::PREDICT_QUANTIZE`]; the
/// predict/quantize span therefore *contains* the transform total.
///
/// The sweep's sink is the per-point step alone (ring read, quantize,
/// code store), so it inlines at each of the sweep's call sites; the ring
/// refill and the escape log are cold calls (DESIGN.md §13, "Sink rule").
///
/// Pinned inline into its one caller, `<SzCompressor as LogFusedCodec>`:
/// left to the partitioner, it can land in another codegen unit than the
/// caller, and a trial build with the out-of-line call measured oneshot
/// compress about 5% slower.
#[inline(always)]
pub(crate) fn compress_fused<F: Float>(
    data: &[F],
    dims: Dims,
    plan: &LogPlan,
    cfg: &SzCompressor,
    rec: &dyn Recorder,
) -> Result<(Vec<u8>, Option<Vec<bool>>), CodecError> {
    let capacity = cfg.capacity;
    let qk = predict::QuantKernel::new(capacity);
    let eb = plan.abs_bound;

    let n = data.len();
    let mut codes: Vec<u32> = vec![0u32; n];
    let mut escapes = EscapeLog::new();
    let signs = {
        let _pq = Span::enter(rec, stage::PREDICT_QUANTIZE);
        let mut ring = MappedRing::new(data, dims, plan, rec);
        infallible(predict::sweep(
            dims,
            // Left to LLVM, even this small closure stays out of line: the
            // sweep calls it from about 90 sites.
            #[inline(always)]
            |idx, pred| {
                Ok(quantize_one(
                    ring.get(idx),
                    eb,
                    &qk,
                    pred,
                    idx,
                    &mut codes,
                    &mut escapes,
                ))
            },
        ));
        ring.finish()
    };
    let (unpred_w, n_unpred) = escapes.into_stream(|_| eb);
    record_quant_stats(rec, n, n_unpred);

    let codes_buf = {
        let _huff = Span::enter(rec, stage::HUFFMAN);
        huffman::encode_symbols(&codes, capacity as usize)
    };
    let stream = SzStream {
        float_bits: F::BITS as u8,
        dims,
        capacity,
        mode: SzMode::Abs { eb },
        codes_buf,
        n_unpred,
        unpred_bytes: unpred_w.into_bytes(),
    };
    Ok((
        stream.serialize(cfg.lossless_pass, rec),
        plan.any_negative.then_some(signs),
    ))
}

/// Publishes the interleaved-entropy descriptor for one Huffman payload:
/// how many sub-streams it carries and how their bytes balance (lane
/// imbalance bounds the pooled-decode speedup an operator can expect).
/// Legacy single-stream payloads record nothing.
fn record_entropy_lanes(rec: &dyn Recorder, buf: &[u8]) {
    if !rec.is_enabled() {
        return;
    }
    if let Some(lens) = pwrel_lossless::huffman::lane_lengths(buf) {
        rec.add(stage::C_ENTROPY_INTERLEAVED, 1);
        rec.add(stage::C_ENTROPY_SUBSTREAMS, lens.len() as u64);
        for &len in &lens {
            rec.observe(stage::O_ENTROPY_LANE_BYTES, len as f64);
        }
    }
}

/// Decompresses any mode. The recorder attributes the LZ unwrap (inside
/// deserialization), the Huffman decode, and the reconstruction sweep.
pub(crate) fn decompress<F: Float>(
    bytes: &[u8],
    rec: &dyn Recorder,
) -> Result<(Vec<F>, Dims), CodecError> {
    let stream = SzStream::deserialize(bytes, rec)?;
    if stream.float_bits as u32 != F::BITS {
        return Err(CodecError::Mismatch("element type differs from stream"));
    }
    if matches!(stream.mode, SzMode::AbsHybrid { .. }) {
        return crate::hybrid::decompress(&stream);
    }
    if matches!(stream.mode, SzMode::PwrSpatial { .. }) {
        return crate::pwr_spatial::decompress(&stream);
    }
    let dims = stream.dims;
    let n = dims.len();
    let quant = predict::QuantKernel::new(stream.capacity);

    let ebs = match &stream.mode {
        SzMode::Abs { eb } => Ebs {
            abs: *eb,
            block_ebs: Vec::new(),
            block_len: 1,
        },
        SzMode::Pwr {
            block_len,
            block_exps,
            ..
        } => Ebs {
            abs: 0.0,
            block_ebs: block_exps.iter().map(|&e| (e as f64).exp2()).collect(),
            block_len: *block_len as usize,
        },
        // Routed to dedicated decoders above; a structured error instead
        // of `unreachable!` keeps the decode path panic-free (lint L1)
        // even if the routing ever regresses.
        SzMode::AbsHybrid { .. } | SzMode::PwrSpatial { .. } => {
            return Err(CodecError::Corrupt("mode not routed to its decoder"))
        }
    };

    let mut pos = 0usize;
    let codes = {
        let _huff = Span::enter(rec, stage::HUFFMAN);
        record_entropy_lanes(rec, &stream.codes_buf);
        huffman::decode_symbols(&stream.codes_buf, &mut pos)?
    };
    if codes.len() != n {
        return Err(CodecError::Corrupt("code count != point count"));
    }

    let mut dec: Vec<F> = vec![F::zero(); n];

    let _rebuild = Span::enter(rec, stage::RECONSTRUCT);
    // The unpredictable stream is raster-ordered but the wavefront sweep
    // visits rows interleaved, so escapes are decoded up front (in stream
    // order, reading exactly the bits the encoder wrote) and looked up by
    // index during the sweep.
    let mut unpred_r = BitReader::new(&stream.unpred_bytes);
    let mut escapes = Escapes(Vec::new());
    for (idx, &code) in codes.iter().enumerate() {
        if code == 0 {
            escapes
                .0
                .push((idx, unpred::read::<F>(&mut unpred_r, ebs.at(idx))?));
        }
    }

    // One bound for the whole field (SZ_T, SZ_ABS) gets its own sink with
    // the bound in a register. The sweep is compiled once per sink; the
    // second sink measured 6.6% more SZ_T decode throughput end to end
    // than `Ebs::at` alone (DESIGN.md §13).
    if ebs.block_ebs.is_empty() {
        let eb = ebs.abs;
        reconstruct(dims, &mut dec, &codes, quant, &escapes, move |_| eb)?;
    } else {
        reconstruct(dims, &mut dec, &codes, quant, &escapes, |idx| ebs.at(idx))?;
    }
    Ok((dec, dims))
}

/// A stream's escapes, decoded up front: `(index, stored value)` pairs in
/// ascending index order.
struct Escapes<F>(Vec<(usize, F)>);

impl<F: Float> Escapes<F> {
    /// The reconstruction sink's slow path, for every code
    /// [`predict::QuantKernel::reconstruct`] declines: the stored value of
    /// an escape (code 0), or `Corrupt` for a code outside the alphabet.
    /// Every zero-code index is listed, so the search can only miss if
    /// the sweep revisits an index — that is corruption too, never a
    /// panic.
    #[cold]
    #[inline(never)]
    fn resolve(&self, code: u32, idx: usize) -> Result<F, CodecError> {
        if code != 0 {
            return Err(CodecError::Corrupt("quantization code out of range"));
        }
        self.0
            .binary_search_by_key(&idx, |&(pos, _)| pos)
            .ok()
            .and_then(|r| self.0.get(r))
            .map(|&(_, val)| val)
            .ok_or(CodecError::Corrupt("escape index missing"))
    }
}

/// The decode-side Lorenzo sweep: every point's value from its code, its
/// prediction and its bound, stored at its index in `dec`. The sink is
/// small enough to inline at each of the sweep's call sites, so the
/// decoded value stays in registers through the prediction feedback
/// chain; escapes and corrupt codes go to the out-of-line
/// [`Escapes::resolve`]. The fused compress sink has the same shape
/// (DESIGN.md §13).
fn reconstruct<F: Float>(
    dims: Dims,
    dec: &mut [F],
    codes: &[u32],
    quant: predict::QuantKernel,
    escapes: &Escapes<F>,
    eb_at: impl Fn(usize) -> f64,
) -> Result<(), CodecError> {
    predict::sweep(dims, move |idx, pred| {
        // One code and one slot per point, so the fallbacks (an
        // out-of-range code, a missing slot) are unreachable; they keep
        // the lookup and the store panic-free.
        let code = codes.get(idx).copied().unwrap_or(u32::MAX);
        let v = match quant.reconstruct(code, pred, eb_at(idx)) {
            Some(v) => v,
            None => escapes.resolve(code, idx)?,
        };
        if let Some(slot) = dec.get_mut(idx) {
            *slot = v;
        }
        Ok(v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwrel_data::{grf, AbsErrorCodec};
    use pwrel_trace::noop;

    fn sz() -> SzCompressor {
        SzCompressor::default()
    }

    fn check_abs<F: Float>(data: &[F], dims: Dims, eb: f64, cfg: &SzCompressor) -> Vec<u8> {
        let bytes = cfg.compress_abs(data, dims, eb, noop()).unwrap();
        let (dec, d2) = cfg.decompress::<F>(&bytes, noop()).unwrap();
        assert_eq!(d2, dims);
        assert_eq!(dec.len(), data.len());
        for (idx, (&a, &b)) in data.iter().zip(&dec).enumerate() {
            let err = (a.to_f64() - b.to_f64()).abs();
            assert!(err <= eb, "idx {idx}: |{a} - {b}| = {err} > {eb}");
        }
        bytes
    }

    #[test]
    fn abs_bound_holds_1d_smooth() {
        let dims = Dims::d1(10_000);
        let data: Vec<f32> = (0..10_000)
            .map(|i| (i as f32 * 0.01).sin() * 100.0)
            .collect();
        for eb in [1.0, 0.1, 1e-3] {
            check_abs(&data, dims, eb, &sz());
        }
    }

    #[test]
    fn abs_bound_holds_2d_field() {
        let dims = Dims::d2(64, 64);
        let data = grf::gaussian_field(dims, 11, 2, 2);
        check_abs(&data, dims, 1e-3, &sz());
    }

    #[test]
    fn abs_bound_holds_3d_field() {
        let dims = Dims::d3(16, 16, 16);
        let data = grf::gaussian_field(dims, 12, 1, 2);
        check_abs(&data, dims, 1e-4, &sz());
    }

    #[test]
    fn smooth_data_compresses_well() {
        let dims = Dims::d2(128, 128);
        let data = grf::gaussian_field(dims, 13, 4, 3);
        let bytes = check_abs(&data, dims, 1e-2, &sz());
        let cr = (data.len() * 4) as f64 / bytes.len() as f64;
        assert!(cr > 8.0, "cr = {cr}");
    }

    #[test]
    fn white_noise_still_bounded() {
        let dims = Dims::d1(5000);
        let data = grf::white_noise(5000, 3);
        check_abs(&data, dims, 1e-3, &sz());
    }

    #[test]
    fn f64_path_bounded() {
        let dims = Dims::d1(2000);
        let data: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.02).cos() * 1e6).collect();
        check_abs(&data, dims, 1e-2, &sz());
    }

    #[test]
    fn nonfinite_values_survive_exactly() {
        let dims = Dims::d1(6);
        let data = vec![
            1.0f32,
            f32::NAN,
            2.0,
            f32::INFINITY,
            -3.0,
            f32::NEG_INFINITY,
        ];
        let bytes = sz().compress_abs(&data, dims, 0.1, noop()).unwrap();
        let (dec, _) = sz().decompress::<f32>(&bytes, noop()).unwrap();
        assert!(dec[1].is_nan());
        assert_eq!(dec[3], f32::INFINITY);
        assert_eq!(dec[5], f32::NEG_INFINITY);
        assert!((dec[0] - 1.0).abs() <= 0.1);
    }

    #[test]
    fn empty_input_round_trips() {
        let dims = Dims::d1(0);
        let bytes = AbsErrorCodec::<f32>::compress_abs(&sz(), &[], dims, 0.1, noop()).unwrap();
        let (dec, _) = sz().decompress::<f32>(&bytes, noop()).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn pwr_bound_holds_on_positive_data() {
        let dims = Dims::d1(8192);
        let data: Vec<f32> = (0..8192)
            .map(|i| ((i as f32 * 0.01).sin() * 0.5 + 1.0) * 10f32.powi(i / 2048))
            .collect();
        for br in [1e-1, 1e-2, 1e-3] {
            let bytes = sz().compress_pwr(&data, dims, br).unwrap();
            let (dec, _) = sz().decompress::<f32>(&bytes, noop()).unwrap();
            for (idx, (&a, &b)) in data.iter().zip(&dec).enumerate() {
                let rel = ((a - b) / a).abs();
                assert!(rel as f64 <= br, "idx {idx}: rel {rel} > {br}");
            }
        }
    }

    #[test]
    fn pwr_all_zero_blocks_stay_exact() {
        let dims = Dims::d1(1024);
        let mut data = vec![0.0f32; 1024];
        // One nonzero block in the middle; surrounding blocks are pure zero.
        for (off, v) in data[512..768].iter_mut().enumerate() {
            *v = 1.0 + off as f32 * 0.001;
        }
        let bytes = sz().compress_pwr(&data, dims, 1e-2).unwrap();
        let (dec, _) = sz().decompress::<f32>(&bytes, noop()).unwrap();
        for (idx, &v) in dec.iter().take(512).enumerate() {
            assert_eq!(v, 0.0, "idx {idx}: leading zero block must be exact");
        }
    }

    #[test]
    fn pwr_struggles_on_spiky_blocks() {
        // A block whose min is 1e-6 while neighbours are ~1e3 forces a tiny
        // absolute bound for the whole block — the weakness the paper
        // exploits. Verify the bound still *holds* (correctness), and that
        // the spiky stream is larger than a smooth one (behaviour).
        let dims = Dims::d1(4096);
        let smooth: Vec<f32> = (0..4096)
            .map(|i| 1000.0 + (i as f32 * 0.01).sin())
            .collect();
        let mut spiky = smooth.clone();
        for b in 0..(4096 / 256) {
            spiky[b * 256 + 7] = 1e-6;
        }
        let cfg = sz();
        let s1 = cfg.compress_pwr(&smooth, dims, 1e-2).unwrap();
        let s2 = cfg.compress_pwr(&spiky, dims, 1e-2).unwrap();
        let (dec, _) = cfg.decompress::<f32>(&s2, noop()).unwrap();
        for (&a, &b) in spiky.iter().zip(&dec) {
            assert!(((a - b) / a).abs() <= 1e-2);
        }
        assert!(
            s2.len() > s1.len() * 2,
            "spiky {} vs smooth {}",
            s2.len(),
            s1.len()
        );
    }

    #[test]
    fn invalid_arguments_rejected() {
        let dims = Dims::d1(4);
        let data = [1.0f32; 4];
        assert!(sz().compress_abs(&data, dims, 0.0, noop()).is_err());
        assert!(sz().compress_abs(&data, dims, f64::NAN, noop()).is_err());
        assert!(sz().compress_abs(&data, Dims::d1(5), 0.1, noop()).is_err());
        assert!(sz().compress_pwr(&data, dims, -0.5).is_err());
        let bad_cfg = SzCompressor {
            capacity: 3,
            ..sz()
        };
        assert!(bad_cfg.compress_abs(&data, dims, 0.1, noop()).is_err());
    }

    #[test]
    fn wrong_element_type_rejected() {
        let dims = Dims::d1(16);
        let data = [1.5f32; 16];
        let bytes = sz().compress_abs(&data, dims, 0.1, noop()).unwrap();
        assert!(sz().decompress::<f64>(&bytes, noop()).is_err());
    }

    #[test]
    fn small_capacity_still_bounded() {
        let cfg = SzCompressor {
            capacity: 8,
            ..sz()
        };
        let dims = Dims::d1(1000);
        let data = grf::white_noise(1000, 5);
        check_abs(&data, dims, 1e-3, &cfg);
    }

    #[test]
    fn tighter_bound_means_larger_stream() {
        let dims = Dims::d2(64, 64);
        let data = grf::gaussian_field(dims, 21, 3, 3);
        let cfg = sz();
        let loose = cfg.compress_abs(&data, dims, 1e-1, noop()).unwrap();
        let tight = cfg.compress_abs(&data, dims, 1e-4, noop()).unwrap();
        assert!(tight.len() > loose.len());
    }
}
