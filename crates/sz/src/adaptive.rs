//! Adaptive quantization-interval estimation (SZ 1.4's
//! `optQuantizationIntervals`).
//!
//! SZ picks the number of linear-scaling quantization bins by sampling the
//! prediction-error distribution: enough bins that almost every error
//! quantizes (escaped points cost a verbatim float), but no more — an
//! oversized alphabet wastes Huffman table space and cache. We sample up
//! to ~10k points, predict each from its *original* neighbours (a cheap
//! stand-in for the decompressed neighbours used in the real pass), and
//! size the bin count to cover the 99.5th percentile of `|q|`.

use pwrel_data::{Dims, Float};
use pwrel_kernels::predict::predict_point;

/// Samples the prediction-error distribution and returns a capacity
/// (power of two, in `[min_capacity, max_capacity]`) that quantizes
/// ≈99.5% of points.
pub fn estimate_capacity<F: Float>(
    data: &[F],
    dims: Dims,
    bound: f64,
    min_capacity: u32,
    max_capacity: u32,
) -> u32 {
    assert!(bound > 0.0 && bound.is_finite());
    assert!(min_capacity.is_power_of_two() && max_capacity.is_power_of_two());
    assert!(min_capacity >= 4 && min_capacity <= max_capacity);
    if data.is_empty() {
        return min_capacity;
    }

    let stride = (data.len() / 10_000).max(1);
    let mut qs: Vec<u64> = Vec::with_capacity(data.len() / stride + 1);
    let mut count = 0usize;
    'outer: for k in 0..dims.nz {
        for j in 0..dims.ny {
            for i in 0..dims.nx {
                count += 1;
                if !count.is_multiple_of(stride) {
                    continue;
                }
                let idx = dims.index(i, j, k);
                let x = data[idx];
                if !x.is_finite() {
                    continue;
                }
                // Predict from original neighbours (sampling approximation).
                let pred = predict_point(data, dims, i, j, k);
                let q = ((x.to_f64() - pred).abs() / (2.0 * bound)).round();
                if q.is_finite() {
                    qs.push(q.min(1e18) as u64);
                }
                if qs.len() >= 20_000 {
                    break 'outer;
                }
            }
        }
    }
    if qs.is_empty() {
        return min_capacity;
    }
    qs.sort_unstable();
    let p995 = qs[(qs.len() - 1) * 995 / 1000];
    // Need codes for q in [-p995, p995] plus the escape code 0:
    // capacity/2 - 1 >= p995.
    let needed = 2 * (p995 + 2);
    let mut cap = min_capacity;
    while (cap as u64) < needed && cap < max_capacity {
        cap *= 2;
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SzCompressor;
    use pwrel_data::{grf, AbsErrorCodec};
    use pwrel_trace::noop;

    #[test]
    fn smooth_data_loose_bound_needs_few_bins() {
        let dims = Dims::d2(128, 128);
        let data = grf::gaussian_field(dims, 3, 4, 3);
        let cap = estimate_capacity(&data, dims, 1e-1, 256, 65536);
        assert_eq!(cap, 256, "smooth data at a loose bound fits the minimum");
    }

    #[test]
    fn tight_bound_needs_more_bins() {
        let dims = Dims::d1(20_000);
        let data = grf::white_noise(dims.len(), 4);
        let loose = estimate_capacity(&data, dims, 1e-1, 256, 65536);
        let tight = estimate_capacity(&data, dims, 1e-5, 256, 65536);
        assert!(tight > loose, "tight {tight} !> loose {loose}");
    }

    #[test]
    fn capacity_is_power_of_two_in_range() {
        let dims = Dims::d1(5000);
        let data = grf::white_noise(5000, 5);
        for bound in [1.0, 1e-2, 1e-6] {
            let cap = estimate_capacity(&data, dims, bound, 256, 65536);
            assert!(cap.is_power_of_two());
            assert!((256..=65536).contains(&cap));
        }
    }

    #[test]
    fn adaptive_capacity_compresses_no_worse_at_loose_bounds() {
        // With a loose bound, a 256-bin alphabet beats the 65536 default
        // (smaller Huffman table, shorter codes).
        let dims = Dims::d2(96, 96);
        let data = grf::gaussian_field(dims, 6, 4, 3);
        let bound = 1e-1;
        let cap = estimate_capacity(&data, dims, bound, 256, 65536);
        let adaptive = SzCompressor {
            capacity: cap,
            ..SzCompressor::default()
        };
        let fixed = SzCompressor::default();
        let a = adaptive.compress_abs(&data, dims, bound, noop()).unwrap();
        let f = fixed.compress_abs(&data, dims, bound, noop()).unwrap();
        assert!(
            a.len() <= f.len() + 16,
            "adaptive {} vs fixed {}",
            a.len(),
            f.len()
        );
        // And the bound still holds.
        let (dec, _) = adaptive.decompress::<f32>(&a, noop()).unwrap();
        for (&x, &y) in data.iter().zip(&dec) {
            assert!((x as f64 - y as f64).abs() <= bound);
        }
    }

    #[test]
    fn empty_and_nonfinite_inputs() {
        assert_eq!(
            estimate_capacity::<f32>(&[], Dims::d1(0), 0.1, 256, 65536),
            256
        );
        let data = vec![f32::NAN; 100];
        assert_eq!(
            estimate_capacity(&data, Dims::d1(100), 0.1, 256, 65536),
            256
        );
    }
}
