//! Single-pass bit-level field scan.
//!
//! The forward transform needs four facts before it can map anything:
//! whether every value is finite, whether any is negative, whether any is
//! zero, and a bound on `max |log_base x|` for Lemma 2's round-off
//! correction. The seed implementation learned the max by reducing over
//! the *mapped* values, which forces the transform itself to carry a
//! serial max. This scan instead reads each value's exponent field: for
//! normal `x`, `log2 |x| ∈ [e, e+1)`, so tracking the min/max biased
//! exponent over the field bounds `max |log2 x|` with integer compares
//! only. The bound over-estimates by at most 1 (in log2 units), and
//! over-estimating only *shrinks* the corrected absolute bound, so using
//! it keeps the point-wise guarantee intact.
//!
//! Every fact comes from four min/max reductions over the raw bits, kept
//! as 16 independent lanes with no per-value branch, so the loop runs as
//! vector min/max instructions:
//!
//! * the max of the raw bits exceeds the sign bit iff some value is
//!   negative and nonzero (−0.0 is exactly the sign bit);
//! * the max magnitude gives the max exponent, and the non-finite check;
//! * the min magnitude is 0 iff the field holds a zero;
//! * the min of `magnitude − 1` (wrapping) is one below the smallest
//!   nonzero magnitude, which gives the min exponent and the subnormal
//!   test; it stays `u64::MAX` iff every value is zero.

use pwrel_data::{CodecError, Float};

/// Everything the forward transform needs to know about a field, learned
/// in one vectorizable integer pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldScan {
    /// At least one value is strictly negative (−0.0 counts as zero).
    pub any_negative: bool,
    /// At least one value is ±0.0.
    pub any_zero: bool,
    /// Upper bound on `max |log2 |x||` over the nonzero values; `0.0` when
    /// every value is zero (or the field is empty).
    pub max_abs_log2: f64,
}

impl FieldScan {
    /// The bound converted to `log_base` units.
    pub fn max_abs_log(&self, base: crate::LogBase) -> f64 {
        self.max_abs_log2 * base.log2_scale()
    }
}

/// Values per reduction step: each extremum is kept as this many
/// independent lanes, so the loop body is a few vector min/max
/// instructions.
const SCAN_LANES: usize = 16;

/// Scans `data`, rejecting non-finite values.
pub fn scan<F: Float>(data: &[F]) -> Result<FieldScan, CodecError> {
    let sign = 1u64 << (F::BITS - 1);
    let mant_bits = F::MANT_BITS;
    let exp_all_ones = (1u64 << F::EXP_BITS) - 1;
    let bias = (1i64 << (F::EXP_BITS - 1)) - 1;

    let mut max_bits = [0u64; SCAN_LANES];
    let mut max_mag = [0u64; SCAN_LANES];
    let mut min_mag = [u64::MAX; SCAN_LANES];
    let mut min_nz = [u64::MAX; SCAN_LANES];
    let mut fold = |lane: usize, x: F| {
        let bits = x.to_bits_u64();
        let mag = bits & !sign;
        max_bits[lane] = max_bits[lane].max(bits);
        max_mag[lane] = max_mag[lane].max(mag);
        min_mag[lane] = min_mag[lane].min(mag);
        min_nz[lane] = min_nz[lane].min(mag.wrapping_sub(1));
    };
    let (chunks, tail) = data.as_chunks::<SCAN_LANES>();
    for chunk in chunks {
        for (lane, &x) in chunk.iter().enumerate() {
            fold(lane, x);
        }
    }
    for (lane, &x) in tail.iter().enumerate() {
        fold(lane, x);
    }
    let max = |v: [u64; SCAN_LANES]| v.into_iter().fold(0, u64::max);
    let min = |v: [u64; SCAN_LANES]| v.into_iter().fold(u64::MAX, u64::min);
    let (max_bits, max_mag, min_mag, min_nz) =
        (max(max_bits), max(max_mag), min(min_mag), min(min_nz));

    let max_exp = max_mag >> mant_bits;
    if max_exp == exp_all_ones {
        return Err(CodecError::InvalidArgument(
            "log transform requires finite input",
        ));
    }
    let any_negative = max_bits > sign;
    let any_zero = min_mag == 0;
    if min_nz == u64::MAX {
        // All zeros (or empty): nothing gets mapped.
        return Ok(FieldScan {
            any_negative,
            any_zero,
            max_abs_log2: 0.0,
        });
    }
    // |log2 x| < e+1 from above; from below, −log2 x ≤ −e for normals and
    // ≤ bias−1+mant_bits for subnormals (value ≥ smallest denormal). The
    // smallest nonzero magnitude has the smallest exponent.
    let min_exp = (min_nz + 1) >> mant_bits;
    let hi = max_exp as i64 - bias + 1;
    let lo = if min_exp == 0 {
        bias - 1 + mant_bits as i64
    } else {
        bias - min_exp as i64
    };
    Ok(FieldScan {
        any_negative,
        any_zero,
        max_abs_log2: hi.max(lo).max(0) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_dominates_true_max() {
        let data: Vec<f32> = vec![1.5, -2.5e10, 3.7e-12, 0.0, -0.0, 1e-42];
        let s = scan(&data).unwrap();
        assert!(s.any_negative && s.any_zero);
        let true_max = data
            .iter()
            .filter(|v| **v != 0.0)
            .map(|v| (v.abs() as f64).log2().abs())
            .fold(0.0, f64::max);
        assert!(s.max_abs_log2 >= true_max);
        // Subnormal present → the denormal floor is the lower bound.
        assert_eq!(s.max_abs_log2, 149.0);
    }

    #[test]
    fn bound_is_tight_without_subnormals() {
        let data: Vec<f64> = vec![2.0f64.powi(100), 2.0f64.powi(-100)];
        let s = scan(&data).unwrap();
        assert!(!s.any_negative && !s.any_zero);
        // max exponent 100 → hi = 101; min exponent −100 → lo = 100.
        assert_eq!(s.max_abs_log2, 101.0);
    }

    #[test]
    fn all_zero_field() {
        let s = scan(&[0.0f32, -0.0]).unwrap();
        assert!(s.any_zero && !s.any_negative);
        assert_eq!(s.max_abs_log2, 0.0);
        let s = scan::<f64>(&[]).unwrap();
        assert_eq!(s.max_abs_log2, 0.0);
    }

    #[test]
    fn negative_zero_is_zero_not_negative() {
        let s = scan(&[-0.0f32, 1.0]).unwrap();
        assert!(s.any_zero && !s.any_negative);
    }

    #[test]
    fn non_finite_rejected() {
        assert!(scan(&[f32::NAN]).is_err());
        assert!(scan(&[f64::INFINITY]).is_err());
        assert!(scan(&[f32::NEG_INFINITY, 1.0]).is_err());
    }

    #[test]
    fn values_near_one_give_small_bound() {
        let s = scan(&[1.0f64, 1.5, 0.75]).unwrap();
        // Exponents −1..0 → hi = 1, lo = 1.
        assert_eq!(s.max_abs_log2, 1.0);
    }
}
