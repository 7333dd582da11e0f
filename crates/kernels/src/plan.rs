//! The per-field mapping plan and the fused-codec interface.
//!
//! [`LogPlan`] carries everything the log mapping needs that is independent
//! of individual data values: base, kernel, corrected bound, zero sentinel
//! and threshold, and whether the field mixes signs. `pwrel-core` computes
//! it (the bound needs the theory module) for the kernel its caller names;
//! the codec crates consume it.
//!
//! [`LogFusedCodec`] is how a compressor advertises a *single-pass* hot
//! path: transform, prediction, and quantization in one streaming sweep,
//! with no intermediate mapped vector and the sign bitmap collected in the
//! same pass. It is the only compression route of the transform codecs.
//! The buffered composition (`transform::forward`, then `compress_abs` on
//! the mapped field) survives only as the test oracle: fused
//! implementations must produce byte-identical streams under either
//! kernel, which the tests assert.
//!
//! The log mapping has one implementation, so it is not a stage trait:
//! callers sweep a field in [`CHUNK`]-sized runs through
//! [`LogPlan::map_chunk`] and [`LogPlan::unmap_chunk`] directly.

use crate::base::LogBase;
use crate::kernel::Kernel;
use pwrel_data::{CodecError, Dims, Float};

/// Elements mapped per scratch refill; also the granularity of the batch
/// kernels' inner loops. Fits two f64 cache pages.
pub const CHUNK: usize = 512;

/// Everything the mapping needs that is independent of the data values.
#[derive(Debug, Clone, Copy)]
pub struct LogPlan {
    /// Which log base the mapping uses.
    pub base: LogBase,
    /// The kernel implementing it.
    pub kernel: Kernel,
    /// Corrected absolute bound `b'_a`.
    pub abs_bound: f64,
    /// Log-domain stand-in for zero inputs, `2 b'_a` below the threshold.
    pub sentinel: f64,
    /// Reconstructions at or below this decode to exact zero.
    pub zero_threshold: f64,
    /// Whether any input is negative (drives sign-bitmap collection).
    pub any_negative: bool,
}

impl LogPlan {
    /// Maps one contiguous run of input values into `out` (log domain,
    /// narrowed to `F`), appending sign bits to `signs` when the plan says
    /// the field mixes signs. `scratch` must hold at least `src.len()`
    /// slots and is plain workspace — callers reuse one buffer across
    /// runs. This is the fused sweep: transform + sign collection with no
    /// intermediate allocation.
    pub fn map_chunk<F: Float>(
        &self,
        src: &[F],
        out: &mut [F],
        scratch: &mut [f64],
        signs: &mut Vec<bool>,
    ) {
        let scratch = &mut scratch[..src.len()];
        self.kernel.log_batch(self.base, src, scratch);
        let sentinel = F::from_f64(self.sentinel);
        for ((&x, d), o) in src.iter().zip(scratch.iter()).zip(out.iter_mut()) {
            let zero = x.to_f64() == 0.0;
            *o = if zero { sentinel } else { F::from_f64(*d) };
        }
        if self.any_negative {
            signs.extend(src.iter().map(|x| x.to_f64() < 0.0));
        }
    }

    /// Inverse of [`LogPlan::map_chunk`] for one run: log-domain values
    /// back to the value domain, zero threshold and signs applied. `signs`
    /// is the bitmap slice aligned with `src` (empty when the field had no
    /// negatives). Decoders build a plan from stream metadata, so only
    /// `base`, `kernel` and `zero_threshold` are read here.
    pub fn unmap_chunk<F: Float>(
        &self,
        src: &[F],
        out: &mut [F],
        scratch: &mut [f64],
        signs: &[bool],
    ) {
        let scratch = &mut scratch[..src.len()];
        self.kernel.exp_batch(self.base, src, scratch);
        // Inputs at the top of F's range can reconstruct to a magnitude that
        // rounds up past F::MAX (the true value is ≤ F::MAX, so clamping only
        // moves the reconstruction closer — the relative bound is preserved
        // and infinities never escape).
        if signs.is_empty() {
            // All-positive fields take a branchless select that vectorizes.
            for ((&d, &v), o) in src.iter().zip(scratch.iter()).zip(out.iter_mut()) {
                let dv = d.to_f64();
                let v = v.min(F::MAX_F64);
                *o = F::from_f64(if dv <= self.zero_threshold { 0.0 } else { v });
            }
        } else {
            let signs = &signs[..src.len()];
            for ((&d, (&v, &neg)), o) in src
                .iter()
                .zip(scratch.iter().zip(signs.iter()))
                .zip(out.iter_mut())
            {
                let dv = d.to_f64();
                let v = v.min(F::MAX_F64);
                let v = if neg { -v } else { v };
                *o = F::from_f64(if dv <= self.zero_threshold { 0.0 } else { v });
            }
        }
    }
}

/// What a fused compression pass hands back: the inner codec's stream plus
/// the raw sign bitmap it collected along the way (`None` when the field
/// had no negatives). The container layer owns bitmap compression.
#[derive(Debug, Clone)]
pub struct FusedOutput {
    /// Serialized inner-codec stream, identical to what `compress_abs`
    /// would produce on the buffered mapped vector.
    pub stream: Vec<u8>,
    /// Raster-order sign bits, present iff `plan.any_negative`.
    pub signs: Option<Vec<bool>>,
}

/// A codec that can run the log transform inside its own compression
/// sweep: one streaming pass over the original data instead of
/// transform-into-a-buffer followed by compress-the-buffer.
pub trait LogFusedCodec<F: Float> {
    /// Compresses `data` with the transform applied on the fly, recording
    /// its internal stages on `rec` (pass `pwrel_trace::noop()` to skip
    /// recording; the bytes are the same). Must produce the same stream
    /// bytes as `compress_abs` over the buffered transform of `data`, plus
    /// the sign bitmap from the same sweep.
    fn compress_fused(
        &self,
        data: &[F],
        dims: Dims,
        plan: &LogPlan,
        rec: &dyn pwrel_trace::Recorder,
    ) -> Result<FusedOutput, CodecError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(any_negative: bool) -> LogPlan {
        LogPlan {
            base: LogBase::Two,
            kernel: Kernel::Fast,
            abs_bound: 1e-3,
            sentinel: -151.0 - 2e-3,
            zero_threshold: -151.0 - 1e-3,
            any_negative,
        }
    }

    #[test]
    fn map_then_unmap_round_trips() {
        let p = plan(true);
        let data: Vec<f32> = vec![1.5, -2.25, 0.0, 3.7e-4, -9.9e8];
        let mut mapped = vec![0.0f32; data.len()];
        let mut scratch = [0.0f64; CHUNK];
        let mut signs = Vec::new();
        p.map_chunk(&data, &mut mapped, &mut scratch, &mut signs);
        assert_eq!(signs, vec![false, true, false, false, true]);

        let mut back = vec![0.0f32; data.len()];
        p.unmap_chunk(&mapped, &mut back, &mut scratch, &signs);
        for (&a, &b) in data.iter().zip(&back) {
            if a == 0.0 {
                assert_eq!(b, 0.0);
            } else {
                assert!(
                    ((a as f64 - b as f64) / a as f64).abs() < 1e-6,
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn signs_skipped_for_all_positive_plans() {
        let p = plan(false);
        let data: Vec<f64> = vec![0.5, 2.0, 8.0];
        let mut mapped = vec![0.0f64; 3];
        let mut scratch = [0.0f64; CHUNK];
        let mut signs = Vec::new();
        p.map_chunk(&data, &mut mapped, &mut scratch, &mut signs);
        assert!(signs.is_empty());
        assert!((mapped[0] + 1.0).abs() < 1e-9 && (mapped[2] - 3.0).abs() < 1e-9);
    }
}
