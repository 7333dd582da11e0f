//! The error-bound mapping and numerically checkable theorem statements.
//!
//! Theorem 1 (sufficiency): if `f` and `g` satisfy
//! `f⁻¹(f(x) + g(b_r)) = (1 + b_r) x`, compressing `f(x)` with absolute
//! bound `g(b_r)` bounds the relative error of `f⁻¹` by `b_r`.
//!
//! Theorem 2 (uniqueness): the only continuous solution is
//! `f(x) = log_base(x) + C`, with `g(b_r) = log_base(1 + b_r)`.
//!
//! Lemma 2 (round-off): with mapping round-off `ε0`, the usable bound is
//! `b'_a = log_base(1 + b_r) − max|log_base x| · ε0`.
//!
//! Theorem 3 (base robustness in SZ): quantization indices produced under
//! two different bases differ by at most `|log_{1+b_r}(1−b_r) − 1|` per
//! Lorenzo neighbour (1, 3, 7 neighbours for 1D/2D/3D).

use crate::transform::LogBase;
use pwrel_kernels::Kernel;

/// `g(b_r) = log_base(1 + b_r)` — Theorem 2's error-bound mapping.
pub fn abs_bound_for(base: LogBase, rel_bound: f64) -> f64 {
    (1.0 + rel_bound).ln() / base.ln_base()
}

/// Inverse of [`abs_bound_for`]: the relative bound an absolute bound in
/// the log domain translates back to.
pub fn rel_bound_for(base: LogBase, abs_bound: f64) -> f64 {
    (abs_bound * base.ln_base()).exp() - 1.0
}

/// Lemma 2: round-off-corrected absolute bound.
///
/// `guard` scales the `ε0` term; the paper uses 1 (machine epsilon on the
/// forward map). We default to 2 elsewhere to also cover inverse-map
/// rounding, which Lemma 2's model omits.
pub fn corrected_abs_bound(
    base: LogBase,
    rel_bound: f64,
    max_abs_log: f64,
    eps0: f64,
    guard: f64,
) -> f64 {
    abs_bound_for(base, rel_bound) - guard * max_abs_log * eps0
}

/// Lemma 2 widened for approximate kernels.
///
/// On top of [`corrected_abs_bound`], subtracts the kernels' documented
/// worst-case errors. The encoding `kernel`'s forward map can sit
/// `forward_abs_margin` away from the exact log (an absolute log-domain
/// displacement). The decoder's inverse introduces a relative error
/// `inverse_rel_margin`, which costs `margin / ln(base)` in the log domain
/// (since `d/dx log_b(x) = 1/(x ln b)`, a relative value-space error `ε` ≈
/// a log-space offset `ε / ln b`). A stream does not record its kernel, so
/// the inverse term is always [`Kernel::Fast`]'s, the least exact decode
/// kernel, whatever kernel encodes. Every term only *shrinks* the bound
/// handed to the inner compressor, so the end-to-end point-wise relative
/// guarantee survives the approximation under any encode/decode pairing.
pub fn kernel_corrected_abs_bound(
    base: LogBase,
    rel_bound: f64,
    max_abs_log: f64,
    eps0: f64,
    guard: f64,
    kernel: Kernel,
) -> f64 {
    corrected_abs_bound(base, rel_bound, max_abs_log, eps0, guard)
        - kernel.forward_abs_margin(base)
        - Kernel::Fast.inverse_rel_margin() / base.ln_base()
}

/// Theorem 3's per-neighbour quantization-index deviation bound:
/// `|log_{1+b_r}(1 − b_r) − 1|`.
pub fn quant_index_deviation(rel_bound: f64) -> f64 {
    assert!((0.0..1.0).contains(&rel_bound) && rel_bound > 0.0);
    ((1.0 - rel_bound).ln() / (1.0 + rel_bound).ln() - 1.0).abs()
}

/// Lorenzo neighbour count per dimensionality (paper footnote 1).
pub fn lorenzo_neighbours(rank: u8) -> u32 {
    match rank {
        1 => 1,
        2 => 3,
        _ => 7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASES: [LogBase; 3] = [LogBase::Two, LogBase::E, LogBase::Ten];

    #[test]
    fn g_is_monotone_in_rel_bound() {
        for base in BASES {
            let mut prev = 0.0;
            for br in [1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.9] {
                let ba = abs_bound_for(base, br);
                assert!(ba > prev, "{base:?} br={br}");
                prev = ba;
            }
        }
    }

    #[test]
    fn g_round_trips_through_its_inverse() {
        for base in BASES {
            for br in [1e-5, 1e-3, 0.05, 0.5] {
                let back = rel_bound_for(base, abs_bound_for(base, br));
                assert!((back - br).abs() < 1e-12 * (1.0 + br), "{base:?} {br}");
            }
        }
    }

    #[test]
    fn theorem1_identity_holds() {
        // f⁻¹(f(x) + g(b)) = (1+b) x for the log mapping, any base.
        for base in BASES {
            let a = base.value();
            for x in [1e-10f64, 0.3, 1.0, 7.5, 1e12] {
                for br in [1e-4, 1e-2, 0.3] {
                    let lhs = a.powf(x.log(a) + abs_bound_for(base, br));
                    let rhs = (1.0 + br) * x;
                    assert!(
                        ((lhs - rhs) / rhs).abs() < 1e-12,
                        "{base:?} x={x} br={br}: {lhs} vs {rhs}"
                    );
                }
            }
        }
    }

    #[test]
    fn theorem1_lower_side_holds() {
        // f⁻¹(f(x) − g(b)) = x / (1+b) ≥ (1−b) x: the lower excursion
        // never exceeds the relative bound either.
        let base = LogBase::Two;
        for x in [0.1f64, 2.0, 1e6] {
            for br in [1e-3, 0.2] {
                let lo = 2f64.powf(x.log2() - abs_bound_for(base, br));
                assert!(lo >= (1.0 - br) * x - 1e-12 * x);
                assert!(((x - lo) / x) <= br + 1e-12);
            }
        }
    }

    #[test]
    fn corrected_bound_shrinks_with_dynamic_range() {
        let base = LogBase::Two;
        let eps = f32::EPSILON as f64;
        let b0 = corrected_abs_bound(base, 1e-3, 0.0, eps, 1.0);
        let b1 = corrected_abs_bound(base, 1e-3, 128.0, eps, 1.0);
        let b2 = corrected_abs_bound(base, 1e-3, 1024.0, eps, 1.0);
        assert!(b0 > b1 && b1 > b2);
        assert!((b0 - (1.0f64 + 1e-3).log2()).abs() < 1e-15);
    }

    #[test]
    fn kernel_widening_always_charges_the_fast_inverse_margin() {
        for base in BASES {
            let plain = corrected_abs_bound(base, 1e-3, 40.0, f32::EPSILON as f64, 2.0);
            let libm = kernel_corrected_abs_bound(
                base,
                1e-3,
                40.0,
                f32::EPSILON as f64,
                2.0,
                Kernel::Libm,
            );
            // Libm's forward map adds nothing, but a Libm-encoded stream
            // may still be decoded by the fast inverse.
            assert_eq!(
                libm,
                plain - Kernel::Fast.inverse_rel_margin() / base.ln_base()
            );
            let fast = kernel_corrected_abs_bound(
                base,
                1e-3,
                40.0,
                f32::EPSILON as f64,
                2.0,
                Kernel::Fast,
            );
            assert!(fast < libm);
            // The widening is tiny next to the bound itself.
            assert!(libm - fast < 1e-9);
        }
    }

    #[test]
    fn quant_deviation_is_small_for_small_bounds() {
        // Theorem 3: for small b_r the index deviation approaches 2
        // (log_{1+b}(1-b) → -1), so across bases codes differ by ≤ ~2/7·dim.
        let d3 = quant_index_deviation(1e-3);
        assert!((d3 - 2.0).abs() < 0.01, "d3 = {d3}");
        let d1 = quant_index_deviation(0.3);
        assert!(d1 > 2.0 && d1 < 3.0, "d1 = {d1}");
    }

    #[test]
    fn neighbour_counts() {
        assert_eq!(lorenzo_neighbours(1), 1);
        assert_eq!(lorenzo_neighbours(2), 3);
        assert_eq!(lorenzo_neighbours(3), 7);
    }
}
