//! Branchless `log2`/`exp2` kernels.
//!
//! `fast_log2` splits `x = 2^e · m` with `m ∈ [√2/2, √2)` by reading the
//! exponent field directly (subnormals are pre-scaled by `2^54`, which is
//! exact), then evaluates the atanh series of `log2(m)` in
//! `s = (m−1)/(m+1)`, where `|s| ≤ √2−1 ≈ 0.1716`. `fast_exp2` splits
//! `d = n + f` with `f ∈ [−½, ½]` via the round-to-nearest magic-constant
//! trick (exact), evaluates `2^f = e^{f·ln2}` as a degree-11 Taylor
//! polynomial, and applies `2^n` by assembling exponent bits — split into
//! two factors so results down in the subnormal range stay correct.
//!
//! Both bodies are pure arithmetic and selects — no data-dependent
//! branches — so the chunked loops of `Kernel::log_batch` and
//! `Kernel::exp_batch` auto-vectorize.
//!
//! # Error model
//!
//! The truncation error of the log series is `(2/ln2)·s¹⁵/15 < 7·10⁻¹³`
//! and of the exp polynomial `t¹²/12! < 7·10⁻¹⁵` (`|t| ≤ ln2/2`); adding
//! generous headroom for the handful of roundings in each body gives the
//! advertised bounds [`FAST_LOG2_ABS_ERR`] and [`FAST_EXP2_REL_ERR`].
//! Property tests check them against libm over random finite inputs
//! including subnormals; the bound theory subtracts them from the
//! corrected absolute bound (see `pwrel-core`'s `theory` module), so the
//! point-wise guarantee survives the approximation.

/// Worst-case *absolute* error of [`fast_log2`] against exact `log2`,
/// over all positive finite `f64` inputs (subnormals included).
pub const FAST_LOG2_ABS_ERR: f64 = 1e-10;

/// Worst-case *relative* error of [`fast_exp2`] against exact `2^d`, for
/// `|d| ≤ EXP2_MAX_ARG`.
pub const FAST_EXP2_REL_ERR: f64 = 1e-12;

/// Largest `|d|` for which [`fast_exp2`]'s two-factor exponent assembly is
/// valid. Log-domain values of finite floats never exceed ~1077, so every
/// caller in the workspace is comfortably inside.
pub const EXP2_MAX_ARG: f64 = 2000.0;

/// Fixed batch width for `Kernel`'s chunked batch loops. Wide enough to
/// fill an AVX-512 register pair, small enough to stay in registers on
/// NEON.
pub const LANES: usize = 8;

const MANT_MASK: u64 = (1u64 << 52) - 1;
const EXP_MASK: u64 = 0x7ff << 52;
const ONE_BITS: u64 = 1023u64 << 52;
const SQRT2: f64 = std::f64::consts::SQRT_2;
/// 2^54; multiplying a subnormal by it is exact and yields a normal.
const SCALE_UP: f64 = 1.8014398509481984e16;
/// 1.5·2^52: adding/subtracting snaps to the nearest integer (ties even).
const ROUND_MAGIC: f64 = 6755399441055744.0;

// atanh-series coefficients: log2(m) = s·Σ Cₖ·s^{2k}, Cₖ = (2/ln2)/(2k+1).
const LC0: f64 = 2.8853900817779268;
const LC1: f64 = 0.9617966939259756;
const LC2: f64 = 0.577_078_016_355_585_3;
const LC3: f64 = 0.4121985831111324;
const LC4: f64 = 0.3205988979753252;
const LC5: f64 = 0.2623081892525388;
const LC6: f64 = 0.22195308321368668;

// Taylor coefficients of e^t, 1/k! for k = 2..=11 (k = 0, 1 are literal).
const EC2: f64 = 0.5;
const EC3: f64 = 0.16666666666666667;
const EC4: f64 = 0.041666666666666667;
const EC5: f64 = 0.008_333_333_333_333_333;
const EC6: f64 = 0.001_388_888_888_888_889;
const EC7: f64 = 0.000_198_412_698_412_698_4;
const EC8: f64 = 2.480_158_730_158_73e-5;
const EC9: f64 = 2.7557319223985891e-6;
const EC10: f64 = 2.7557319223985891e-7;
const EC11: f64 = 2.505_210_838_544_172e-8;

/// Approximate `log2(x)` for positive finite `x` (subnormals included).
///
/// `|fast_log2(x) − log2(x)| ≤ FAST_LOG2_ABS_ERR`. For `x = 0` the result
/// is an unspecified finite value below `−1076` (callers overwrite zero
/// slots with the sentinel); negative, infinite, or NaN inputs are
/// rejected upstream by the field scan.
#[inline]
pub fn fast_log2(x: f64) -> f64 {
    let raw = x.to_bits();
    let is_small = raw & EXP_MASK == 0; // subnormal or zero
    let scaled = (x * SCALE_UP).to_bits();
    let bits = if is_small { scaled } else { raw };
    let e_adj = if is_small { -54.0 } else { 0.0 };
    // Zero stays all-zero bits through the scaling; force its mantissa to
    // 1.0 and let the huge negative exponent stand in for −∞.
    let e_raw = ((bits >> 52) & 0x7ff) as i64;
    let m = f64::from_bits((bits & MANT_MASK) | ONE_BITS);
    // Re-center the mantissa around 1 so the series argument is small.
    let big = m >= SQRT2;
    let m = if big { m * 0.5 } else { m };
    let e = (e_raw - 1023 + big as i64) as f64 + e_adj;
    let s = (m - 1.0) / (m + 1.0);
    let z = s * s;
    // Horner with plain mul/add: `mul_add` is a libm call (not an fma
    // instruction) on baseline targets, which costs more than the whole
    // series; the extra roundings stay ~1e-15, far inside the budget.
    let p = ((((((LC6 * z + LC5) * z + LC4) * z + LC3) * z + LC2) * z + LC1) * z) + LC0;
    (s * p) + e
}

/// Approximate `2^d` for finite `|d| ≤ EXP2_MAX_ARG`.
///
/// Relative error ≤ [`FAST_EXP2_REL_ERR`]; results that land in the
/// subnormal range underflow gradually like the exact operation.
#[inline]
pub fn fast_exp2(d: f64) -> f64 {
    let nf = d + ROUND_MAGIC;
    let n = nf - ROUND_MAGIC; // nearest integer, exact
    let f = d - n; // exact: n is an integer within ½ of d
    let t = f * std::f64::consts::LN_2;
    // Plain Horner for the same reason as in `fast_log2`.
    let p9 = ((((((((EC11 * t + EC10) * t + EC9) * t + EC8) * t + EC7) * t + EC6) * t + EC5) * t
        + EC4)
        * t
        + EC3)
        * t
        + EC2;
    let p = (p9 * t + 1.0) * t + 1.0;
    // 2^n in two normal-range factors so subnormal results round correctly.
    // `nf = 2^52 + 2^51 + n` exactly (|n| ≤ EXP2_MAX_ARG ≪ 2^51), so the
    // integer n sits in the mantissa bits offset by 2^51 — reading it there
    // keeps the lane integral (a `f64 as i64` cast would force a scalar
    // round trip per lane for the saturation/NaN checks).
    let ni = (nf.to_bits() & MANT_MASK) as i64 - (1i64 << 51);
    let n1 = ni >> 1;
    let n2 = ni - n1;
    let s1 = f64::from_bits(((n1 + 1023) as u64) << 52);
    let s2 = f64::from_bits(((n2 + 1023) as u64) << 52);
    (p * s1) * s2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_log2(x: f64) {
        let err = (fast_log2(x) - x.log2()).abs();
        assert!(err <= FAST_LOG2_ABS_ERR, "x = {x:e}: err = {err:e}");
    }

    #[test]
    fn log2_matches_libm_across_the_exponent_range() {
        for e in -1074..1024 {
            for frac in [1.0, 1.17, std::f64::consts::SQRT_2, 1.5, 1.999] {
                let x = frac * 2f64.powi(e.max(-1022)) * 2f64.powi((e + 1022).min(0));
                if x > 0.0 && x.is_finite() {
                    check_log2(x);
                }
            }
        }
    }

    #[test]
    fn log2_handles_subnormals() {
        for x in [
            f64::from_bits(1),       // smallest subnormal
            f64::from_bits(0xfffff), // mid subnormal
            f64::MIN_POSITIVE / 2.0, // large subnormal
            f64::MIN_POSITIVE,       // smallest normal
            f32::MIN_POSITIVE as f64 / 4.0,
        ] {
            check_log2(x);
        }
    }

    #[test]
    fn log2_of_zero_is_below_any_threshold() {
        let v = fast_log2(0.0);
        assert!(v.is_finite() && v < -1076.0, "got {v}");
    }

    #[test]
    fn exp2_matches_libm_across_range() {
        for i in -1074..1024 {
            for frac in [0.0, 0.25, 0.4999, 0.5001, 0.75] {
                let d = i as f64 + frac;
                let exact = d.exp2();
                let got = fast_exp2(d);
                if exact >= f64::MIN_POSITIVE {
                    let rel = ((got - exact) / exact).abs();
                    assert!(rel <= FAST_EXP2_REL_ERR, "d = {d}: rel = {rel:e}");
                } else {
                    // Subnormal results: compare with absolute tolerance of
                    // one quantum plus the relative bound.
                    let tol = FAST_EXP2_REL_ERR * exact + f64::from_bits(1);
                    assert!((got - exact).abs() <= tol, "d = {d}: {got:e} vs {exact:e}");
                }
            }
        }
    }

    #[test]
    fn round_trip_is_tight() {
        for x in [1e-300, 3.7e-12, 0.1, 1.0, 7.25, 9.9e18, 1.6e307] {
            let rt = fast_exp2(fast_log2(x));
            let rel = ((rt - x) / x).abs();
            // log abs error ε in the exponent is a relative error ~ ε·ln2.
            assert!(rel < 2.0 * FAST_LOG2_ABS_ERR, "x = {x:e}: rel = {rel:e}");
        }
    }
}
