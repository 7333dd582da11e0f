//! Property tests: the point-wise relative bound survives the full
//! forward → worst-case-perturbation → inverse pipeline for every base and
//! both kernels, over random fields mixing signs, zeros, subnormals, and
//! extreme magnitudes.

use proptest::prelude::*;
use pwrel_core::transform::{forward, inverse};
use pwrel_core::{Kernel, LogBase};

const BASES: [LogBase; 3] = [LogBase::Two, LogBase::E, LogBase::Ten];
const KERNELS: [Kernel; 2] = [Kernel::Fast, Kernel::Libm];

/// A random finite `f32`: any bit pattern, with non-finite patterns folded
/// to zero (which the transform must handle exactly anyway). Covers
/// subnormals, both signs, zeros, and the full exponent range.
fn any_value() -> impl Strategy<Value = f32> {
    prop_oneof![
        6 => any::<u32>().prop_map(|b| {
            let x = f32::from_bits(b);
            if x.is_finite() { x } else { 0.0 }
        }),
        1 => Just(0.0f32),
        1 => Just(-0.0f32),
        1 => Just(f32::MIN_POSITIVE / 8.0),
        1 => Just(-f32::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bound_holds_end_to_end_for_every_base_and_kernel(
        data in prop::collection::vec(any_value(), 1..300),
        br_exp in 1u32..4,
    ) {
        let br = 10f64.powi(-(br_exp as i32));
        for kernel in KERNELS {
            for base in BASES {
                let t = forward(&data, base, br, 2.0, kernel).unwrap();
                // Perturb every mapped value by the full ±b'_a an inner
                // codec is allowed to introduce.
                for sign in [1.0f64, -1.0] {
                    let perturbed: Vec<f32> = t
                        .mapped
                        .iter()
                        .map(|&d| (d as f64 + sign * t.abs_bound) as f32)
                        .collect();
                    let back = inverse(
                        &perturbed,
                        base,
                        t.zero_threshold,
                        t.sign_section.as_deref(),
                        kernel,
                    )
                    .unwrap();
                    for (idx, (&a, &b)) in data.iter().zip(&back).enumerate() {
                        if a == 0.0 {
                            prop_assert_eq!(
                                b, 0.0,
                                "{:?} {:?} idx {}: zero not exact", kernel, base, idx
                            );
                        } else {
                            let rel = ((a as f64 - b as f64) / a as f64).abs();
                            prop_assert!(
                                rel <= br,
                                "{:?} {:?} sign {} idx {}: {:e} vs {:e} rel {:e} (br {:e})",
                                kernel, base, sign, idx, a, b, rel, br
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kernels_reconstruct_within_mutual_tolerance(
        data in prop::collection::vec(any_value(), 1..200),
    ) {
        // The fast kernel's reconstruction may differ from libm's, but both
        // must land within the bound of the *original* — so they can differ
        // from each other by at most 2·br relative.
        let br = 1e-3;
        for base in BASES {
            let t = forward(&data, base, br, 2.0, Kernel::Fast).unwrap();
            let fast = inverse(
                &t.mapped, base, t.zero_threshold, t.sign_section.as_deref(), Kernel::Fast,
            )
            .unwrap();
            let libm = inverse(
                &t.mapped, base, t.zero_threshold, t.sign_section.as_deref(), Kernel::Libm,
            )
            .unwrap();
            for (idx, (&f, &l)) in fast.iter().zip(&libm).enumerate() {
                if l == 0.0 {
                    prop_assert_eq!(f, 0.0, "{:?} idx {}", base, idx);
                } else {
                    let rel = ((f as f64 - l as f64) / l as f64).abs();
                    prop_assert!(
                        rel <= 2.0 * br,
                        "{:?} idx {}: fast {:e} vs libm {:e}",
                        base, idx, f, l
                    );
                }
            }
        }
    }
}
