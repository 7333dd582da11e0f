//! [`PwRelCompressor`]: the transform scheme composed with an inner
//! absolute-error-bounded codec.
//!
//! This is the deliverable of the paper: `PwRelCompressor<SzCompressor>` is
//! "SZ_T" and `PwRelCompressor<ZfpCompressor>` is "ZFP_T". Compression is
//! Algorithm 1's composition:
//!
//! 1. the log transform (with Lemma 2's round-off-corrected bound),
//! 2. the inner absolute-error codec on the log-domain data,
//! 3. container = sign section + inner stream.
//!
//! Steps 1 and 2 run fused, inside the inner codec's own sweep
//! ([`LogFusedCodec`]); that is the only compression route. Mapping the
//! whole field with `transform::forward` and handing it to
//! `AbsErrorCodec::compress_abs` writes the same bytes, and the tests
//! keep that buffered composition as their oracle.

use crate::cast;
use crate::theory;
use crate::transform::{self, LogBase};
use pwrel_bitstream::{bytesio, varint};
use pwrel_data::{AbsErrorCodec, CodecError, Dims, Float};
use pwrel_kernels::{Kernel, LogFusedCodec};
use pwrel_trace::{stage, Recorder, Span};

const MAGIC: &[u8; 4] = b"PWT1";

/// The kernel every codec path encodes and decodes with. Streams do not
/// record it; the bound budgets the least exact decode kernel's inverse
/// error whatever kernel encoded (`theory::kernel_corrected_abs_bound`).
const KERNEL: Kernel = Kernel::Fast;

/// Assembles the `PWT1` container around an inner stream.
fn container(
    float_bits: u32,
    base: LogBase,
    rel_bound: f64,
    zero_threshold: f64,
    sign_section: Option<&[u8]>,
    inner_stream: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(inner_stream.len() + 64);
    out.extend_from_slice(MAGIC);
    out.push(cast::width_byte(float_bits));
    out.push(base.id());
    out.push(u8::from(sign_section.is_some()));
    bytesio::put_f64(&mut out, rel_bound);
    bytesio::put_f64(&mut out, zero_threshold);
    if let Some(signs) = sign_section {
        varint::write_uvarint(&mut out, cast::u64_from_len(signs.len()));
        out.extend_from_slice(signs);
    }
    varint::write_uvarint(&mut out, cast::u64_from_len(inner_stream.len()));
    out.extend_from_slice(inner_stream);
    out
}

/// Point-wise relative-error-bounded compressor built from any
/// absolute-error-bounded codec via the logarithmic transformation scheme.
///
/// ```
/// use pwrel_core::{PwRelCompressor, LogBase};
/// use pwrel_sz::SzCompressor;
/// use pwrel_data::Dims;
/// use pwrel_trace::noop;
///
/// let data: Vec<f32> = (1..=1000).map(|i| (i as f32) * 0.25).collect();
/// let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
/// let stream = codec.compress(&data, Dims::d1(data.len()), 1e-3, noop()).unwrap();
/// let (back, _) = codec.decompress::<f32>(&stream, noop()).unwrap();
/// for (a, b) in data.iter().zip(&back) {
///     assert!(((a - b) / a).abs() <= 1e-3);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PwRelCompressor<C> {
    /// The wrapped absolute-error-bounded codec.
    pub inner: C,
    /// Logarithm base (the paper fixes 2; others kept for the base study).
    pub base: LogBase,
    /// Multiplier on Lemma 2's `ε0` round-off term (the paper uses 1; the
    /// default 2 also covers inverse-map rounding).
    pub roundoff_guard: f64,
}

impl<C> PwRelCompressor<C> {
    /// Wraps `inner` with the given base and the default round-off guard.
    pub fn new(inner: C, base: LogBase) -> Self {
        Self {
            inner,
            base,
            roundoff_guard: 2.0,
        }
    }

    /// Compresses `data` so that every decompressed value satisfies
    /// `|x - x'| <= rel_bound * |x|`, with exact zeros preserved. The log
    /// transform runs inside the inner codec's own sweep (chunked through
    /// a stack scratch) instead of materializing the mapped field first.
    /// The transform planning pass, the inner codec sweep, and the
    /// sign-section coding are each attributed to their own stage on
    /// `rec`; the [`stage::SIGNS`] span is emitted even for all-positive
    /// fields so per-codec stage coverage stays deterministic.
    pub fn compress<F: Float>(
        &self,
        data: &[F],
        dims: Dims,
        rel_bound: f64,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError>
    where
        C: LogFusedCodec<F>,
    {
        if data.len() != dims.len() {
            return Err(CodecError::InvalidArgument("data length != dims"));
        }
        let plan = {
            let _transform = Span::enter(rec, stage::TRANSFORM);
            transform::plan(data, self.base, rel_bound, self.roundoff_guard, KERNEL)?
        };
        if rec.is_enabled() {
            // How much of the uncorrected log-domain budget Lemma 2 (plus
            // the kernel's evaluation-error term) gives back to round-off.
            let uncorrected = theory::abs_bound_for(self.base, rel_bound);
            if uncorrected > 0.0 {
                rec.observe(
                    stage::O_LEMMA2_CORRECTION,
                    1.0 - plan.abs_bound / uncorrected,
                );
            }
        }
        let fused = self.inner.compress_fused(data, dims, &plan, rec)?;
        let sign_section = {
            let _signs = Span::enter(rec, stage::SIGNS);
            if rec.is_enabled() {
                if let Some(signs) = &fused.signs {
                    if !signs.is_empty() {
                        let neg = signs.iter().filter(|&&s| s).count();
                        rec.observe(
                            stage::O_SIGN_DENSITY,
                            cast::f64_from_count(neg) / cast::f64_from_count(signs.len()),
                        );
                    }
                } else {
                    rec.observe(stage::O_SIGN_DENSITY, 0.0);
                }
            }
            fused.signs.as_deref().map(transform::compress_signs)
        };
        Ok(container(
            F::BITS,
            self.base,
            rel_bound,
            plan.zero_threshold,
            sign_section.as_deref(),
            &fused.stream,
        ))
    }

    /// Decompresses, returning the data and its grid shape. The inner
    /// codec decode and the inverse transform each get a span on `rec`.
    pub fn decompress<F: Float>(
        &self,
        bytes: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError>
    where
        C: AbsErrorCodec<F>,
    {
        if !bytes.starts_with(MAGIC) {
            return Err(CodecError::Mismatch("bad PWT magic"));
        }
        let mut pos = 4usize;
        let eof = || CodecError::Corrupt("eof in header");
        let float_bits = *bytes.get(pos).ok_or_else(eof)?;
        pos += 1;
        if u32::from(float_bits) != F::BITS {
            return Err(CodecError::Mismatch("element type differs from stream"));
        }
        let base = LogBase::from_id(*bytes.get(pos).ok_or_else(eof)?)
            .ok_or(CodecError::Corrupt("bad base id"))?;
        pos += 1;
        let has_signs = match *bytes.get(pos).ok_or_else(eof)? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Corrupt("bad sign flag")),
        };
        pos += 1;
        let _rel_bound = bytesio::get_f64(bytes, &mut pos)?;
        let zero_threshold = bytesio::get_f64(bytes, &mut pos)?;
        let len_of = |v: u64| {
            usize::try_from(v).map_err(|_| CodecError::Corrupt("section length overflows usize"))
        };
        let sign_section = if has_signs {
            let len = len_of(varint::read_uvarint(bytes, &mut pos)?)?;
            Some(bytesio::get_bytes(bytes, &mut pos, len)?)
        } else {
            None
        };
        let inner_len = len_of(varint::read_uvarint(bytes, &mut pos)?)?;
        let inner_stream = bytesio::get_bytes(bytes, &mut pos, inner_len)?;

        let (mapped, dims) = self.inner.decompress_abs(inner_stream, rec)?;
        let data = {
            let _inv = Span::enter(rec, stage::TRANSFORM_INV);
            transform::inverse(&mapped, base, zero_threshold, sign_section, KERNEL)?
        };
        Ok((data, dims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwrel_data::{grf, nyx, Scale};
    use pwrel_kernels::{predict::LANES, CHUNK};
    use pwrel_sz::SzCompressor;
    use pwrel_trace::noop;
    use pwrel_zfp::ZfpCompressor;

    fn sz_t(base: LogBase) -> PwRelCompressor<SzCompressor> {
        PwRelCompressor::new(SzCompressor::default(), base)
    }

    fn zfp_t(base: LogBase) -> PwRelCompressor<ZfpCompressor> {
        PwRelCompressor::new(ZfpCompressor, base)
    }

    fn assert_rel_bounded<F: Float>(data: &[F], dec: &[F], br: f64, tag: &str) {
        assert_eq!(data.len(), dec.len());
        for (idx, (&a, &b)) in data.iter().zip(dec).enumerate() {
            let (a, b) = (a.to_f64(), b.to_f64());
            if a == 0.0 {
                assert_eq!(b, 0.0, "{tag} idx {idx}: zero not exact");
            } else {
                let rel = ((a - b) / a).abs();
                assert!(rel <= br, "{tag} idx {idx}: {a} vs {b} rel {rel} > {br}");
            }
        }
    }

    #[test]
    fn sz_t_strictly_bounded_on_nyx_density() {
        let field = nyx::dark_matter_density(Scale::Small);
        let codec = sz_t(LogBase::Two);
        for br in [1e-1, 1e-2, 1e-3, 1e-4] {
            let bytes = codec.compress(&field.data, field.dims, br, noop()).unwrap();
            let (dec, dims) = codec.decompress::<f32>(&bytes, noop()).unwrap();
            assert_eq!(dims, field.dims);
            assert_rel_bounded(&field.data, &dec, br, "density");
        }
    }

    #[test]
    fn sz_t_strictly_bounded_on_signed_velocity() {
        let field = nyx::velocity_x(Scale::Small);
        let codec = sz_t(LogBase::Two);
        let bytes = codec
            .compress(&field.data, field.dims, 1e-3, noop())
            .unwrap();
        let (dec, _) = codec.decompress::<f32>(&bytes, noop()).unwrap();
        assert_rel_bounded(&field.data, &dec, 1e-3, "velocity");
        // Signs must be preserved exactly.
        for (&a, &b) in field.data.iter().zip(&dec) {
            assert!(a.signum() == b.signum() || a == 0.0);
        }
    }

    #[test]
    fn zfp_t_strictly_bounded() {
        let field = nyx::dark_matter_density(Scale::Small);
        let codec = zfp_t(LogBase::Two);
        for br in [1e-1, 1e-3] {
            let bytes = codec.compress(&field.data, field.dims, br, noop()).unwrap();
            let (dec, _) = codec.decompress::<f32>(&bytes, noop()).unwrap();
            assert_rel_bounded(&field.data, &dec, br, "zfp_t");
        }
    }

    #[test]
    fn all_bases_bounded_and_similar_size() {
        let field = nyx::dark_matter_density(Scale::Small);
        let mut sizes = Vec::new();
        for base in [LogBase::Two, LogBase::E, LogBase::Ten] {
            let codec = sz_t(base);
            let bytes = codec
                .compress(&field.data, field.dims, 1e-2, noop())
                .unwrap();
            let (dec, _) = codec.decompress::<f32>(&bytes, noop()).unwrap();
            assert_rel_bounded(&field.data, &dec, 1e-2, "base study");
            sizes.push(bytes.len() as f64);
        }
        // Lemma 3/4: base choice barely affects compressed size (<5%).
        let max = sizes.iter().cloned().fold(f64::MIN, f64::max);
        let min = sizes.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.05, "sizes = {sizes:?}");
    }

    #[test]
    fn zeros_and_mixed_signs_with_zero_regions() {
        let dims = pwrel_data::Dims::d2(40, 50);
        let mut data = grf::gaussian_field(dims, 77, 3, 2);
        for (i, v) in data.iter_mut().enumerate() {
            if i % 11 == 0 {
                *v = 0.0;
            }
        }
        let codec = sz_t(LogBase::Two);
        let bytes = codec.compress(&data, dims, 1e-2, noop()).unwrap();
        let (dec, _) = codec.decompress::<f32>(&bytes, noop()).unwrap();
        assert_rel_bounded(&data, &dec, 1e-2, "zeros+signs");
    }

    #[test]
    fn wide_dynamic_range_f64() {
        let dims = pwrel_data::Dims::d1(4096);
        let data: Vec<f64> = (0..4096)
            .map(|i| {
                let mag = 10f64.powi((i % 200) - 100);
                if i % 2 == 0 {
                    mag
                } else {
                    -mag
                }
            })
            .collect();
        let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
        let bytes = codec.compress(&data, dims, 1e-3, noop()).unwrap();
        let (dec, _) = codec.decompress::<f64>(&bytes, noop()).unwrap();
        for (&a, &b) in data.iter().zip(&dec) {
            assert!(((a - b) / a).abs() <= 1e-3);
        }
    }

    #[test]
    fn sz_t_beats_sz_pwr_on_spiky_data() {
        // The headline claim: on data whose blocks mix tiny and large
        // magnitudes, the transform scheme compresses much better than the
        // blockwise PWR mode.
        let dims = pwrel_data::Dims::d1(1 << 15);
        let mut data: Vec<f32> = (0..dims.len())
            .map(|i| 1000.0 + 10.0 * (i as f32 * 0.01).sin())
            .collect();
        for b in 0..(dims.len() / 256) {
            data[b * 256 + 13] = 1e-5; // one tiny value per PWR block
        }
        let br = 1e-2;
        let sz = SzCompressor::default();
        let pwr_stream = sz.compress_pwr(&data, dims, br).unwrap();
        let t_stream = sz_t(LogBase::Two)
            .compress(&data, dims, br, noop())
            .unwrap();
        assert!(
            (t_stream.len() as f64) < pwr_stream.len() as f64 / 2.0,
            "SZ_T {} vs SZ_PWR {}",
            t_stream.len(),
            pwr_stream.len()
        );
    }

    /// Spiky signed data with zero runs — exercises every fused-path
    /// branch (sentinels, signs, unpredictables).
    fn fused_test_field() -> (Vec<f32>, pwrel_data::Dims) {
        let dims = pwrel_data::Dims::d3(20, 15, 10);
        let mut data = grf::gaussian_field(dims, 1234, 3, 2);
        for (i, v) in data.iter_mut().enumerate() {
            if i % 17 == 0 {
                *v = 0.0;
            } else if i % 23 == 0 {
                *v *= 1e20;
            } else if i % 29 == 0 {
                *v = 1e-40; // subnormal-range magnitude
            }
        }
        (data, dims)
    }

    /// The fused route driven with an explicit kernel's plan, in the
    /// container the codec path writes around it.
    fn fused_with_plan<F: Float, C: LogFusedCodec<F>>(
        inner: &C,
        data: &[F],
        dims: Dims,
        br: f64,
        kernel: Kernel,
    ) -> Vec<u8> {
        let plan = transform::plan(data, LogBase::Two, br, 2.0, kernel).unwrap();
        let out = inner.compress_fused(data, dims, &plan, noop()).unwrap();
        let signs = out.signs.as_deref().map(transform::compress_signs);
        container(
            F::BITS,
            LogBase::Two,
            br,
            plan.zero_threshold,
            signs.as_deref(),
            &out.stream,
        )
    }

    /// The buffered composition, the oracle for the fused route: map the
    /// whole field, compress it with the inner codec's absolute bound,
    /// wrap it in the same container.
    fn buffered<F: Float, C: AbsErrorCodec<F>>(
        inner: &C,
        data: &[F],
        dims: Dims,
        br: f64,
        kernel: Kernel,
    ) -> Vec<u8> {
        let t = transform::forward(data, LogBase::Two, br, 2.0, kernel).unwrap();
        let inner_stream = inner
            .compress_abs(&t.mapped, dims, t.abs_bound, noop())
            .unwrap();
        container(
            F::BITS,
            LogBase::Two,
            br,
            t.zero_threshold,
            t.sign_section.as_deref(),
            &inner_stream,
        )
    }

    /// Asserts the fused route matches the buffered oracle under both
    /// encode kernels, that either stream holds the bound under the codec
    /// path's decoder, and that `compress` is the fast-kernel fused route.
    fn assert_fused_matches_buffered<F, C>(
        codec: &PwRelCompressor<C>,
        data: &[F],
        dims: Dims,
        br: f64,
    ) where
        F: Float,
        C: AbsErrorCodec<F> + LogFusedCodec<F>,
    {
        for kernel in [Kernel::Fast, Kernel::Libm] {
            let fused = fused_with_plan(&codec.inner, data, dims, br, kernel);
            assert_eq!(
                buffered(&codec.inner, data, dims, br, kernel),
                fused,
                "{dims:?} {kernel:?}"
            );
            let (dec, _) = codec.decompress::<F>(&fused, noop()).unwrap();
            assert_rel_bounded(data, &dec, br, "fused");
        }
        assert_eq!(
            codec.compress(data, dims, br, noop()).unwrap(),
            fused_with_plan(&codec.inner, data, dims, br, Kernel::Fast)
        );
    }

    #[test]
    fn fused_sz_stream_is_byte_identical_to_buffered() {
        let (data, dims) = fused_test_field();
        assert_fused_matches_buffered(&sz_t(LogBase::Two), &data, dims, 1e-3);
    }

    /// A signed field whose mapped values escape in every wavefront lane:
    /// each row holds zeros, spikes whose log jump exceeds the quantizer's
    /// range, and subnormal-range magnitudes, at columns that shift with
    /// the row.
    fn ring_edge_field<F: Float>(dims: Dims) -> Vec<F> {
        grf::gaussian_field(dims, 4321, 3, 2)
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let (col, row) = (i % dims.nx, i / dims.nx);
                let v = f64::from(v);
                F::from_f64(match (col + 7 * row) % 13 {
                    0 => 0.0,
                    4 => v * 1e30,
                    9 => v.signum() * 1e-40,
                    _ => v,
                })
            })
            .collect()
    }

    /// Escapes in the SZ quantization codes of `data`'s mapped values, per
    /// wavefront lane (the row within its plane, modulo `LANES`).
    fn escapes_per_lane<F: Float>(data: &[F], dims: Dims, br: f64) -> [usize; LANES] {
        let t = transform::forward(data, LogBase::Two, br, 2.0, KERNEL).unwrap();
        let codes =
            pwrel_sz::quantization_codes(&t.mapped, dims, t.abs_bound, &SzCompressor::default());
        let mut lanes = [0; LANES];
        for (i, _) in codes.iter().enumerate().filter(|&(_, &c)| c == 0) {
            lanes[(i / dims.nx) % dims.ny % LANES] += 1;
        }
        lanes
    }

    /// The fused sweep's mapped-value ring at its edges, in f32 and f64:
    /// a 1D field whose length is not a multiple of `CHUNK`, a 2D row
    /// wider than `CHUNK` (one row spans two refills) and a 3D strip of
    /// `LANES` rows wider than `CHUNK` (refills inside a strip). Escapes
    /// sit in every lane, so the ring refill and the escape log are both
    /// pinned byte for byte against the buffered composition.
    #[test]
    fn fused_sz_matches_buffered_at_the_ring_edges() {
        let shapes = [
            Dims::d1(3 * CHUNK + 137),
            Dims::d2(9, CHUNK + 88),
            Dims::d3(3, 9, CHUNK / LANES + 12),
        ];
        let br = 1e-3;
        for dims in shapes {
            let data32 = ring_edge_field::<f32>(dims);
            let data64 = ring_edge_field::<f64>(dims);
            for lanes in [
                escapes_per_lane(&data32, dims, br),
                escapes_per_lane(&data64, dims, br),
            ] {
                let live = if dims.rank() == 1 { 1 } else { LANES };
                assert!(
                    lanes[..live].iter().all(|&e| e > 0),
                    "{dims:?}: escapes per lane {lanes:?}"
                );
            }
            assert_fused_matches_buffered(&sz_t(LogBase::Two), &data32, dims, br);
            assert_fused_matches_buffered(&sz_t(LogBase::Two), &data64, dims, br);
        }
    }

    #[test]
    fn fused_zfp_stream_is_byte_identical_to_buffered() {
        let (data, dims) = fused_test_field();
        assert_fused_matches_buffered(&zfp_t(LogBase::Two), &data, dims, 1e-2);
    }

    #[test]
    fn fused_hybrid_sz_matches_buffered() {
        let codec = PwRelCompressor::new(
            SzCompressor {
                hybrid_predictor: true,
                ..SzCompressor::default()
            },
            LogBase::Two,
        );
        let (data, dims) = fused_test_field();
        assert_fused_matches_buffered(&codec, &data, dims, 1e-3);
    }

    #[test]
    fn rejects_nonfinite_and_bad_bounds() {
        let codec = sz_t(LogBase::Two);
        let dims = pwrel_data::Dims::d1(2);
        assert!(codec
            .compress(&[1.0f32, f32::NAN], dims, 1e-2, noop())
            .is_err());
        assert!(codec.compress(&[1.0f32, 2.0], dims, 0.0, noop()).is_err());
        assert!(codec.compress(&[1.0f32, 2.0], dims, 1.5, noop()).is_err());
    }

    #[test]
    fn corrupt_streams_rejected() {
        let codec = sz_t(LogBase::Two);
        let dims = pwrel_data::Dims::d1(64);
        let data = vec![1.5f32; 64];
        let bytes = codec.compress(&data, dims, 1e-2, noop()).unwrap();
        assert!(codec.decompress::<f32>(&bytes[..8], noop()).is_err());
        assert!(codec.decompress::<f64>(&bytes, noop()).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(codec.decompress::<f32>(&bad, noop()).is_err());
    }

    #[test]
    fn tighter_bound_gives_lower_ratio() {
        let field = nyx::dark_matter_density(Scale::Small);
        let codec = sz_t(LogBase::Two);
        let loose = codec
            .compress(&field.data, field.dims, 1e-1, noop())
            .unwrap();
        let tight = codec
            .compress(&field.data, field.dims, 1e-4, noop())
            .unwrap();
        assert!(tight.len() > loose.len());
    }

    #[test]
    fn empty_input() {
        let codec = sz_t(LogBase::Two);
        let bytes = codec
            .compress::<f32>(&[], pwrel_data::Dims::d1(0), 1e-2, noop())
            .unwrap();
        let (dec, _) = codec.decompress::<f32>(&bytes, noop()).unwrap();
        assert!(dec.is_empty());
    }
}
