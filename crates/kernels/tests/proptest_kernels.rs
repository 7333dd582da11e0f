//! Property tests: the fast kernels track libm within their advertised
//! error constants over random finite inputs — subnormals, signed values,
//! and zeros included — and `Kernel::log_batch` agrees with the scalar
//! `Kernel::log_abs` bit-for-bit.

use proptest::prelude::*;
use pwrel_kernels::fast::{
    fast_exp2, fast_log2, EXP2_MAX_ARG, FAST_EXP2_REL_ERR, FAST_LOG2_ABS_ERR,
};
use pwrel_kernels::{Kernel, LogBase};

const BASES: [LogBase; 3] = [LogBase::Two, LogBase::E, LogBase::Ten];

/// Positive finite `f64` with a uniformly random exponent field — covers
/// the full range from the smallest subnormal to the largest normal.
fn positive_finite() -> impl Strategy<Value = f64> {
    (0u64..=2046, any::<u64>()).prop_map(|(e, m)| {
        let x = f64::from_bits((e << 52) | (m & ((1u64 << 52) - 1)));
        // e == 0, m == 0 composes +0.0; nudge to the smallest subnormal so
        // the log comparison below stays meaningful.
        if x == 0.0 {
            f64::from_bits(1)
        } else {
            x
        }
    })
}

/// Signed finite value including exact zeros and subnormals.
fn signed_or_zero() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => (positive_finite(), any::<bool>())
            .prop_map(|(x, neg)| if neg { -x } else { x }),
        1 => Just(0.0f64),
        1 => Just(-0.0f64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fast_log2_tracks_libm_over_all_positive_finites(x in positive_finite()) {
        let err = (fast_log2(x) - x.log2()).abs();
        prop_assert!(err <= FAST_LOG2_ABS_ERR, "x = {x:e}: err = {err:e}");
    }

    #[test]
    fn fast_exp2_tracks_libm_over_the_log_value_range(
        d in -EXP2_MAX_ARG..EXP2_MAX_ARG,
    ) {
        let exact = d.exp2();
        let got = fast_exp2(d);
        if exact.is_infinite() {
            // Above f64's exponent range both must overflow the same way.
            prop_assert_eq!(got, exact, "d = {}", d);
        } else if exact >= f64::MIN_POSITIVE {
            let rel = ((got - exact) / exact).abs();
            prop_assert!(rel <= FAST_EXP2_REL_ERR, "d = {d}: rel = {rel:e}");
        } else {
            // Subnormal result: one output quantum of slack on top of the
            // relative bound (gradual underflow).
            let tol = FAST_EXP2_REL_ERR * exact + f64::from_bits(1);
            prop_assert!((got - exact).abs() <= tol, "d = {d}: {got:e} vs {exact:e}");
        }
    }

    #[test]
    fn kernel_margins_cover_fast_vs_libm_for_every_base(x in positive_finite()) {
        for base in BASES {
            let fast = Kernel::Fast.log_abs(base, x);
            let libm = Kernel::Libm.log_abs(base, x);
            // The forward margin plus a few ulp of the scaled comparison
            // value (libm's own rounding is on the other side).
            let tol = Kernel::Fast.forward_abs_margin(base) + 4.0 * f64::EPSILON * libm.abs();
            prop_assert!(
                (fast - libm).abs() <= tol,
                "{base:?} x = {x:e}: fast {fast} vs libm {libm}"
            );
        }
    }

    #[test]
    fn batches_match_scalars_bit_for_bit(
        xs in prop::collection::vec(signed_or_zero(), 1..200),
    ) {
        for kernel in [Kernel::Fast, Kernel::Libm] {
            for base in BASES {
                let mut logd = vec![0.0; xs.len()];
                kernel.log_batch(base, &xs, &mut logd);
                for (x, d) in xs.iter().zip(&logd) {
                    if *x != 0.0 {
                        prop_assert_eq!(d.to_bits(), kernel.log_abs(base, *x).to_bits());
                    }
                }
            }
        }
    }
}
