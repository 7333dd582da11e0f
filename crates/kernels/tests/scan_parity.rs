//! `scan`'s four lane reductions give the same `FieldScan` (or the same
//! error) as the per-value scan they replaced, on slices of arbitrary bit
//! patterns with ±0.0, subnormals, NaN and ±Inf mixed in, at every length
//! up to 100 (every remainder of the 16-value lanes).

use proptest::prelude::*;
use pwrel_data::{CodecError, Float};
use pwrel_kernels::{scan, FieldScan};

/// The per-value scan `scan` replaced: three flags and two exponent
/// extrema, each updated under a zero test. The oracle the reductions are
/// held to.
fn scan_reference<F: Float>(data: &[F]) -> Result<FieldScan, CodecError> {
    let sign_shift = F::BITS - 1;
    let mant_bits = F::MANT_BITS;
    let exp_all_ones = (1u64 << F::EXP_BITS) - 1;
    let bias = (1i64 << (F::EXP_BITS - 1)) - 1;

    let mut any_negative = false;
    let mut any_zero = false;
    let mut any_subnormal = false;
    let mut max_exp = 0u64;
    let mut min_exp = u64::MAX;
    for &x in data {
        let bits = x.to_bits_u64();
        let mag = bits & !(1u64 << sign_shift);
        let is_zero = mag == 0;
        let exp_field = mag >> mant_bits;
        any_negative |= !is_zero && (bits >> sign_shift) != 0;
        any_zero |= is_zero;
        any_subnormal |= !is_zero && exp_field == 0;
        // Zero slots contribute neutral values to the exponent extrema.
        max_exp = max_exp.max(if is_zero { 0 } else { exp_field });
        min_exp = min_exp.min(if is_zero { u64::MAX } else { exp_field });
    }
    if max_exp == exp_all_ones {
        return Err(CodecError::InvalidArgument(
            "log transform requires finite input",
        ));
    }
    if min_exp == u64::MAX {
        return Ok(FieldScan {
            any_negative,
            any_zero,
            max_abs_log2: 0.0,
        });
    }
    let hi = max_exp as i64 - bias + 1;
    let lo = if any_subnormal {
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

/// Bit patterns of a `F`: arbitrary ones, with ±0.0, subnormals, ±Inf
/// and NaNs drawn often enough that most slices hold several.
fn bits_of<F: Float>() -> impl Strategy<Value = F> {
    let sign = 1u64 << (F::BITS - 1);
    let mant = 1u64 << F::MANT_BITS;
    let inf = ((1u64 << F::EXP_BITS) - 1) << F::MANT_BITS;
    let signed = move |(m, neg): (u64, bool)| m | if neg { sign } else { 0 };
    prop_oneof![
        4 => any::<u64>(),
        1 => any::<bool>().prop_map(move |neg| signed((0, neg))),
        1 => (1..mant, any::<bool>()).prop_map(signed),
        1 => any::<bool>().prop_map(move |neg| signed((inf, neg))),
        1 => (1..mant, any::<bool>()).prop_map(move |(m, neg)| signed((inf | m, neg))),
    ]
    .prop_map(F::from_bits_u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn reductions_match_the_per_value_scan_f32(
        data in prop::collection::vec(bits_of::<f32>(), 0..101)
    ) {
        prop_assert_eq!(scan(&data), scan_reference(&data));
    }

    #[test]
    fn reductions_match_the_per_value_scan_f64(
        data in prop::collection::vec(bits_of::<f64>(), 0..101)
    ) {
        prop_assert_eq!(scan(&data), scan_reference(&data));
    }
}
