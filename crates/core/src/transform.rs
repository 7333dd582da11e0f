//! Algorithm 1: the logarithmic data transform with sign and zero handling.
//!
//! Forward (compression side):
//!
//! * `x > 0` → `log_base(x)`
//! * `x < 0` → `log_base(-x)`, with a bit recorded in a sign bitmap
//! * `x = 0` → a sentinel placed `2 b'_a` below the log of the smallest
//!   representable positive magnitude, so that after absolute-error-bounded
//!   compression the reconstruction still falls below the zero threshold
//!   and decodes to an *exact* zero (unlike SZ 1.4's PWR mode).
//!
//! The sign bitmap is compressed (RLE / bit-packing + the LZ pass) only
//! when the field actually mixes signs — Algorithm 1's `P` flag.
//!
//! The mapping itself is organized for throughput: one integer
//! [`pwrel_kernels::scan()`] pass learns everything the bound needs (validity,
//! signs, zeros, an exponent-field bound on `max |log x|`), then the data is
//! mapped through [`Kernel::log_batch`] in fixed-size chunks through a
//! stack scratch buffer — no intermediate `Vec<f64>`, no second sweep for
//! the sign bitmap, and the fast-kernel approximation error is folded into
//! the Lemma 2 correction so the point-wise guarantee still holds.
//!
//! Every function here takes the [`Kernel`] as an argument. The codec path
//! (`PwRelCompressor`) always passes [`Kernel::Fast`]; [`Kernel::Libm`] is
//! for the paper's Table III and for measuring the fast kernels against
//! the exact ones.

use crate::theory;
use pwrel_data::{CodecError, Float};
use pwrel_kernels::scan;
use pwrel_lossless::{lz, rle};

pub use pwrel_kernels::{Kernel, LogBase, LogPlan, CHUNK};

/// Output of the forward transform.
#[derive(Debug, Clone)]
pub struct TransformedField<F: Float> {
    /// Log-domain data (same length as the input).
    pub mapped: Vec<F>,
    /// Corrected absolute bound `b'_a` for the inner compressor.
    pub abs_bound: f64,
    /// Compressed sign bitmap; `None` when no input value was negative
    /// (Algorithm 1's `P == 1` case).
    pub sign_section: Option<Vec<u8>>,
    /// Decode threshold: reconstructions at or below this decode to zero.
    pub zero_threshold: f64,
}

/// Scans `data` and computes the Lemma 2 / kernel-corrected bound and zero
/// sentinel — the per-field setup shared by every transform path.
pub fn plan<F: Float>(
    data: &[F],
    base: LogBase,
    rel_bound: f64,
    roundoff_guard: f64,
    kernel: Kernel,
) -> Result<LogPlan, CodecError> {
    if !(rel_bound > 0.0 && rel_bound < 1.0) {
        return Err(CodecError::InvalidArgument("rel_bound must be in (0, 1)"));
    }
    let field = scan(data)?;

    // Lemma 2: shrink the bound for mapping round-off. The paper's term is
    // max|log x|·ε0 (forward-map rounding); the +1 adds a constant margin
    // for the inverse map's own output rounding, which matters when the
    // data sits near 1 and max|log x| ≈ 0. The kernel margins widen the
    // correction further when the approximate kernels are in play.
    let eps0 = F::EPSILON.to_f64();
    let abs_bound = theory::kernel_corrected_abs_bound(
        base,
        rel_bound,
        field.max_abs_log(base) + 1.0,
        eps0,
        roundoff_guard,
        kernel,
    );
    if !abs_bound.is_finite() || abs_bound <= 0.0 {
        return Err(CodecError::InvalidArgument(
            "bound vanishes after round-off correction (dynamic range too large)",
        ));
    }

    let zero_log = LogBase::zero_exp2::<F>() * std::f64::consts::LN_2 / base.ln_base();
    Ok(LogPlan {
        base,
        kernel,
        abs_bound,
        sentinel: zero_log - 2.0 * abs_bound,
        zero_threshold: zero_log - abs_bound,
        any_negative: field.any_negative,
    })
}

/// Compresses a sign bitmap the way Algorithm 1 stores it.
pub fn compress_signs(signs: &[bool]) -> Vec<u8> {
    lz::compress(&rle::compress_bits(signs))
}

/// Decodes a sign section back to `expect` bits.
pub fn decompress_signs(buf: &[u8], expect: usize) -> Result<Vec<bool>, CodecError> {
    let unpacked = lz::decompress(buf)?;
    let mut pos = 0;
    let bits = rle::decompress_bits(&unpacked, &mut pos, expect)?;
    if bits.len() != expect {
        return Err(CodecError::Corrupt("sign bitmap length mismatch"));
    }
    Ok(bits)
}

/// Forward transform (Algorithm 1, lines 1–17) under `kernel`.
///
/// Rejects non-finite inputs and `rel_bound` outside `(0, 1)`.
pub fn forward<F: Float>(
    data: &[F],
    base: LogBase,
    rel_bound: f64,
    roundoff_guard: f64,
    kernel: Kernel,
) -> Result<TransformedField<F>, CodecError> {
    let plan = plan(data, base, rel_bound, roundoff_guard, kernel)?;

    let mut mapped: Vec<F> = vec![F::zero(); data.len()];
    let mut signs: Vec<bool> = Vec::with_capacity(if plan.any_negative { data.len() } else { 0 });
    let mut scratch = [0.0f64; CHUNK];
    for (src, out) in data.chunks(CHUNK).zip(mapped.chunks_mut(CHUNK)) {
        plan.map_chunk(src, out, &mut scratch, &mut signs);
    }

    let sign_section = plan.any_negative.then(|| compress_signs(&signs));
    Ok(TransformedField {
        mapped,
        abs_bound: plan.abs_bound,
        sign_section,
        zero_threshold: plan.zero_threshold,
    })
}

/// Inverse transform under `kernel`: log-domain reconstructions back to
/// the value domain.
pub fn inverse<F: Float>(
    mapped: &[F],
    base: LogBase,
    zero_threshold: f64,
    sign_section: Option<&[u8]>,
    kernel: Kernel,
) -> Result<Vec<F>, CodecError> {
    let signs: Vec<bool> = match sign_section {
        Some(buf) => decompress_signs(buf, mapped.len())?,
        None => Vec::new(),
    };

    // Decoders reconstruct from stream metadata without the encoder's
    // bound fields, so a partial plan carries exactly the inverse state.
    let plan = LogPlan {
        base,
        kernel,
        abs_bound: 0.0,
        sentinel: 0.0,
        zero_threshold,
        any_negative: !signs.is_empty(),
    };
    let mut out: Vec<F> = vec![F::zero(); mapped.len()];
    let mut scratch = [0.0f64; CHUNK];
    // The bitmap holds exactly `mapped.len()` bits when present, so its
    // CHUNK-sized runs line up with the data's.
    let mut sign_runs = signs.chunks(CHUNK);
    for (src, dst) in mapped.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
        plan.unmap_chunk(src, dst, &mut scratch, sign_runs.next().unwrap_or(&[]));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const BASES: [LogBase; 3] = [LogBase::Two, LogBase::E, LogBase::Ten];
    const KERNELS: [Kernel; 2] = [Kernel::Fast, Kernel::Libm];

    #[test]
    fn lossless_round_trip_without_inner_compression() {
        // forward → inverse with untouched mapped data must respect the
        // bound on its own (pure mapping round-off), under both kernels.
        for kernel in KERNELS {
            for base in BASES {
                let data: Vec<f32> = vec![1.0, -2.5, 0.0, 3.75e-6, -1.2e8, 42.0, 0.0];
                let t = forward(&data, base, 1e-3, 2.0, kernel).unwrap();
                let back = inverse(
                    &t.mapped,
                    base,
                    t.zero_threshold,
                    t.sign_section.as_deref(),
                    kernel,
                )
                .unwrap();
                for (&a, &b) in data.iter().zip(&back) {
                    if a == 0.0 {
                        assert_eq!(b, 0.0, "{base:?}");
                    } else {
                        let rel = ((a - b) / a).abs();
                        assert!(rel <= 1e-3, "{kernel:?} {base:?}: {a} vs {b}");
                    }
                }
            }
        }
    }

    /// Moves every mapped value by exactly ±b'_a (what an inner compressor
    /// is allowed to do) and decodes under every (encode, decode) kernel
    /// pair: a stream does not record its kernel, so the relative bound
    /// must hold whichever kernel decodes it.
    fn assert_worst_case_bounded<F: Float>(fields: &[Vec<F>], br: f64) {
        let mut failures = Vec::new();
        for enc in KERNELS {
            for dec in KERNELS {
                let (mut over, mut total) = (0usize, 0usize);
                for (data, base) in fields.iter().flat_map(|f| BASES.map(|b| (f, b))) {
                    let t = forward(data, base, br, 2.0, enc).unwrap();
                    for sign in [1.0, -1.0] {
                        let perturbed: Vec<F> = t
                            .mapped
                            .iter()
                            .map(|&d| F::from_f64(d.to_f64() + sign * t.abs_bound))
                            .collect();
                        let back = inverse(
                            &perturbed,
                            base,
                            t.zero_threshold,
                            t.sign_section.as_deref(),
                            dec,
                        )
                        .unwrap();
                        for (&a, &b) in data.iter().zip(&back) {
                            let (a, b) = (a.to_f64(), b.to_f64());
                            over += usize::from(((a - b) / a).abs() > br);
                            total += 1;
                        }
                    }
                }
                if over > 0 {
                    failures.push(format!("{enc:?}->{dec:?}: {over} of {total}"));
                }
            }
        }
        assert!(failures.is_empty(), "over b_r = {br:e}: {failures:?}");
    }

    #[test]
    fn bound_survives_worst_case_perturbation() {
        // f32 spanning 60 decades at a loose bound.
        let wide: Vec<f32> = (1..2000)
            .map(|i| (i as f32 * 0.731).sin() * 10f32.powi((i % 60) - 30))
            .filter(|v| *v != 0.0)
            .collect();
        assert_worst_case_bounded(&[wide], 1e-2);
        // f64 at a tight bound, where the kernels' own error margins are a
        // visible share of b'_a: 20 fields of 4096 values in [1, 512).
        let tight: Vec<Vec<f64>> = (0..20)
            .map(|seed| {
                let mut rng = SmallRng::seed_from_u64(seed);
                (0..4096).map(|_| rng.gen_range(1.0..512.0)).collect()
            })
            .collect();
        assert_worst_case_bounded(&tight, 1e-9);
    }

    #[test]
    fn zeros_decode_exactly_even_when_perturbed() {
        let data = vec![0.0f32, 5.0, 0.0, -3.0, 0.0];
        let t = forward(&data, LogBase::Two, 0.5, 2.0, Kernel::Fast).unwrap();
        let perturbed: Vec<f32> = t
            .mapped
            .iter()
            .map(|&d| (d as f64 + t.abs_bound) as f32)
            .collect();
        let back = inverse(
            &perturbed,
            LogBase::Two,
            t.zero_threshold,
            t.sign_section.as_deref(),
            Kernel::Fast,
        )
        .unwrap();
        assert_eq!(back[0], 0.0);
        assert_eq!(back[2], 0.0);
        assert_eq!(back[4], 0.0);
        assert!(back[1] > 0.0 && back[3] < 0.0);
    }

    #[test]
    fn all_positive_data_skips_sign_section() {
        let data = vec![1.0f32, 2.0, 0.5];
        let t = forward(&data, LogBase::Two, 1e-2, 2.0, Kernel::Fast).unwrap();
        assert!(t.sign_section.is_none());
        let data_neg = vec![1.0f32, -2.0, 0.5];
        let t2 = forward(&data_neg, LogBase::Two, 1e-2, 2.0, Kernel::Fast).unwrap();
        assert!(t2.sign_section.is_some());
    }

    #[test]
    fn sign_bitmap_round_trips() {
        let data: Vec<f32> = (0..3000)
            .map(|i| if (i / 100) % 2 == 0 { 1.5 } else { -1.5 })
            .collect();
        let t = forward(&data, LogBase::E, 1e-2, 2.0, Kernel::Fast).unwrap();
        let back = inverse(
            &t.mapped,
            LogBase::E,
            t.zero_threshold,
            t.sign_section.as_deref(),
            Kernel::Fast,
        )
        .unwrap();
        for (&a, &b) in data.iter().zip(&back) {
            assert_eq!(a.signum(), b.signum());
        }
        // Runs of 100 compress far below 3000/8 packed bytes.
        assert!(t.sign_section.unwrap().len() < 150);
    }

    #[test]
    fn denormals_survive() {
        for kernel in KERNELS {
            let data = vec![1e-42f32, -1e-44, 2e-38, 0.0];
            let t = forward(&data, LogBase::Two, 1e-2, 2.0, kernel).unwrap();
            let back = inverse(
                &t.mapped,
                LogBase::Two,
                t.zero_threshold,
                t.sign_section.as_deref(),
                kernel,
            )
            .unwrap();
            for (&a, &b) in data.iter().zip(&back) {
                if a == 0.0 {
                    assert_eq!(b, 0.0);
                } else {
                    assert!(
                        ((a as f64 - b as f64) / a as f64).abs() <= 1e-2 + 1e-5,
                        "{kernel:?}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn abs_bound_matches_lemma2() {
        // Exponent-field scan on {2^100, 2^−100}: hi = 101, lo = 100 →
        // max_abs_log = 101, plus the constant +1 inverse-rounding margin.
        let data: Vec<f32> = vec![2.0f32.powi(100), 2.0f32.powi(-100)];
        // Whatever kernel encodes, the bound also pays for the fast inverse
        // a decoder may run.
        let t = forward(&data, LogBase::Two, 1e-3, 1.0, Kernel::Libm).unwrap();
        let expected = (1.0f64 + 1e-3).log2()
            - (101.0 + 1.0) * f32::EPSILON as f64
            - Kernel::Fast.inverse_rel_margin() / LogBase::Two.ln_base();
        assert!((t.abs_bound - expected).abs() < 1e-15);
        // The fast kernel widens the correction by its forward margin too.
        let tf = forward(&data, LogBase::Two, 1e-3, 1.0, Kernel::Fast).unwrap();
        assert!(tf.abs_bound < t.abs_bound);
        let widened = t.abs_bound - Kernel::Fast.forward_abs_margin(LogBase::Two);
        assert!((tf.abs_bound - widened).abs() < 1e-15);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(forward(&[1.0f32], LogBase::Two, 0.0, 2.0, Kernel::Fast).is_err());
        assert!(forward(&[1.0f32], LogBase::Two, 1.0, 2.0, Kernel::Fast).is_err());
        assert!(forward(&[f32::NAN], LogBase::Two, 0.1, 2.0, Kernel::Fast).is_err());
        assert!(forward(&[f32::INFINITY], LogBase::Two, 0.1, 2.0, Kernel::Fast).is_err());
    }

    #[test]
    fn base_ids_round_trip() {
        for base in BASES {
            assert_eq!(LogBase::from_id(base.id()), Some(base));
        }
        assert_eq!(LogBase::from_id(9), None);
    }

    #[test]
    fn f64_transform_round_trip() {
        for kernel in KERNELS {
            let data: Vec<f64> = vec![1e-300, -1e300, 0.0, 7.7];
            let t = forward(&data, LogBase::Two, 1e-4, 2.0, kernel).unwrap();
            let back = inverse(
                &t.mapped,
                LogBase::Two,
                t.zero_threshold,
                t.sign_section.as_deref(),
                kernel,
            )
            .unwrap();
            for (&a, &b) in data.iter().zip(&back) {
                if a == 0.0 {
                    assert_eq!(b, 0.0);
                } else {
                    assert!(((a - b) / a).abs() <= 1e-4, "{kernel:?}");
                }
            }
        }
    }

    #[test]
    fn kernels_agree_on_the_container_metadata() {
        // Fast and Libm must produce the same sign section and compatible
        // thresholds so streams decode under either kernel.
        let data: Vec<f32> = vec![3.0, -1.5, 0.0, 9.75];
        let a = forward(&data, LogBase::Two, 1e-3, 2.0, Kernel::Fast).unwrap();
        let b = forward(&data, LogBase::Two, 1e-3, 2.0, Kernel::Libm).unwrap();
        assert_eq!(a.sign_section, b.sign_section);
        assert!(a.abs_bound <= b.abs_bound);
    }
}
