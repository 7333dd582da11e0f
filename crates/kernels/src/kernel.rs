//! The `Fast`/`Libm` kernel choice and its batched entry points.

use crate::base::LogBase;
use crate::fast;
use pwrel_data::Float;

/// Which implementation computes the log mapping.
///
/// `Fast` is the only kernel the codecs run: the branchless batch kernels
/// from [`crate::fast`] with their documented error constants folded into
/// the bound correction. `Libm` is the exact scalar reference path (what
/// the paper's implementation uses); callers name it explicitly to
/// reproduce the paper's Table III and to measure `Fast` against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Branchless polynomial kernels, batched over fixed-width chunks.
    Fast,
    /// Scalar libm `log2`/`ln`/`log10` and `exp2`/`exp`/`powf`.
    Libm,
}

impl Kernel {
    /// Additional *absolute* log-domain (base `base`) error this kernel's
    /// forward map can introduce versus the exact logarithm. Subtracted
    /// from the corrected bound (Lemma 2 widening).
    pub fn forward_abs_margin(self, base: LogBase) -> f64 {
        match self {
            // An absolute log2-domain error scales like the logs themselves.
            Kernel::Fast => fast::FAST_LOG2_ABS_ERR * base.log2_scale(),
            // libm's own rounding is covered by the ε0 term of Lemma 2.
            Kernel::Libm => 0.0,
        }
    }

    /// Additional *relative* value-domain error this kernel's inverse map
    /// can introduce versus the exact exponential. Enters the corrected
    /// bound as `margin / ln(base)` (a relative error `ε` displaces the
    /// log-domain value by `≈ ε / ln b`).
    pub fn inverse_rel_margin(self) -> f64 {
        match self {
            Kernel::Fast => fast::FAST_EXP2_REL_ERR,
            Kernel::Libm => 0.0,
        }
    }

    /// Scalar `log_base |x|`; `x` must be nonzero finite. Kept for the odd
    /// one-off value — hot paths use [`Kernel::log_batch`].
    #[inline]
    pub fn log_abs(self, base: LogBase, x: f64) -> f64 {
        match self {
            Kernel::Fast => fast::fast_log2(x.abs()) * base.log2_scale(),
            Kernel::Libm => base.log(x.abs()),
        }
    }

    /// Scalar `base^d` for finite `d` in the transform's log-value range.
    #[inline]
    pub fn exp(self, base: LogBase, d: f64) -> f64 {
        match self {
            Kernel::Fast => fast::fast_exp2(d * base.inv_log2_scale()),
            Kernel::Libm => base.exp(d),
        }
    }

    /// `dst[i] = log_base |src[i]|` for every element, in fixed-width
    /// chunks. Zero elements produce finite placeholders below any zero
    /// threshold under `Fast` and `−∞` under `Libm`; callers overwrite
    /// them with the sentinel either way. Inputs must be finite.
    pub fn log_batch<F: Float>(self, base: LogBase, src: &[F], dst: &mut [f64]) {
        assert_eq!(src.len(), dst.len());
        let scale = base.log2_scale();
        match self {
            Kernel::Fast => {
                let n = src.len() - src.len() % fast::LANES;
                for (s, d) in src[..n]
                    .chunks_exact(fast::LANES)
                    .zip(dst[..n].chunks_exact_mut(fast::LANES))
                {
                    for i in 0..fast::LANES {
                        d[i] = fast::fast_log2(s[i].abs().to_f64()) * scale;
                    }
                }
                for (s, d) in src[n..].iter().zip(&mut dst[n..]) {
                    *d = fast::fast_log2(s.abs().to_f64()) * scale;
                }
            }
            Kernel::Libm => {
                for (s, d) in src.iter().zip(dst.iter_mut()) {
                    *d = base.log(s.abs().to_f64());
                }
            }
        }
    }

    /// `dst[i] = base^(src[i])` for every element, in fixed-width chunks.
    /// Inputs must be finite and within the transform's log-value range.
    pub fn exp_batch<F: Float>(self, base: LogBase, src: &[F], dst: &mut [f64]) {
        assert_eq!(src.len(), dst.len());
        let scale = base.inv_log2_scale();
        match self {
            Kernel::Fast => {
                let n = src.len() - src.len() % fast::LANES;
                for (s, d) in src[..n]
                    .chunks_exact(fast::LANES)
                    .zip(dst[..n].chunks_exact_mut(fast::LANES))
                {
                    for i in 0..fast::LANES {
                        d[i] = fast::fast_exp2(s[i].to_f64() * scale);
                    }
                }
                for (s, d) in src[n..].iter().zip(&mut dst[n..]) {
                    *d = fast::fast_exp2(s.to_f64() * scale);
                }
            }
            Kernel::Libm => {
                for (s, d) in src.iter().zip(dst.iter_mut()) {
                    *d = base.exp(s.to_f64());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASES: [LogBase; 3] = [LogBase::Two, LogBase::E, LogBase::Ten];

    #[test]
    fn fast_scalar_tracks_libm_within_margin() {
        for base in BASES {
            for x in [1e-300, 2.5e-7, 0.5, 1.0, 3.33, 8.1e12, 1.7e300] {
                let fwd_err = (Kernel::Fast.log_abs(base, x) - Kernel::Libm.log_abs(base, x)).abs();
                assert!(
                    fwd_err <= Kernel::Fast.forward_abs_margin(base) + 1e-13,
                    "{base:?} x={x:e} err={fwd_err:e}"
                );
                let d = Kernel::Libm.log_abs(base, x);
                let exact = Kernel::Libm.exp(base, d);
                let rel = ((Kernel::Fast.exp(base, d) - exact) / exact).abs();
                // Allow libm's own ulp next to the fast margin.
                assert!(
                    rel <= Kernel::Fast.inverse_rel_margin() + 1e-16 + 3.0 * f64::EPSILON,
                    "{base:?} d={d} rel={rel:e}"
                );
            }
        }
    }

    #[test]
    fn batch_matches_scalar_both_kernels() {
        let data: Vec<f32> = (1..77).map(|i| (i as f32 - 38.3) * 0.13).collect();
        for kernel in [Kernel::Fast, Kernel::Libm] {
            for base in BASES {
                let mut logd = vec![0.0; data.len()];
                kernel.log_batch(base, &data, &mut logd);
                for (x, d) in data.iter().zip(&logd) {
                    if *x != 0.0 {
                        assert_eq!(*d, kernel.log_abs(base, x.abs() as f64));
                    }
                }
                let mut val = vec![0.0; logd.len()];
                kernel.exp_batch(base, &logd, &mut val);
                for (d, v) in logd.iter().zip(&val) {
                    assert_eq!(*v, kernel.exp(base, *d));
                }
            }
        }
    }

    #[test]
    fn libm_margins_are_zero() {
        for base in BASES {
            assert_eq!(Kernel::Libm.forward_abs_margin(base), 0.0);
        }
        assert_eq!(Kernel::Libm.inverse_rel_margin(), 0.0);
    }
}
