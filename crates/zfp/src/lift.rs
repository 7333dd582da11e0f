//! ZFP's integer lifting transform.
//!
//! The forward transform decorrelates 4 samples; applied separably along
//! each dimension of a 4^d block. These are ZFP's exact lifting steps
//! (`fwd_lift` / `inv_lift`). The `>>= 1` normalization steps *truncate*
//! low-order bits, so `inv(fwd(x))` reconstructs `x` only to within a few
//! integer units — by design: the block-floating-point scaling puts those
//! units many orders of magnitude below any requested tolerance, and the
//! truncation keeps coefficient growth under the reserved guard bits.

/// Forward lifting on 4 strided elements.
#[inline]
pub fn fwd_lift(p: &mut [i64], base: usize, s: usize) {
    let (mut x, mut y, mut z, mut w) = (p[base], p[base + s], p[base + 2 * s], p[base + 3 * s]);
    x = x.wrapping_add(w);
    x >>= 1;
    w = w.wrapping_sub(x);
    z = z.wrapping_add(y);
    z >>= 1;
    y = y.wrapping_sub(z);
    x = x.wrapping_add(z);
    x >>= 1;
    z = z.wrapping_sub(x);
    w = w.wrapping_add(y);
    w >>= 1;
    y = y.wrapping_sub(w);
    w = w.wrapping_add(y >> 1);
    y = y.wrapping_sub(w >> 1);
    p[base] = x;
    p[base + s] = y;
    p[base + 2 * s] = z;
    p[base + 3 * s] = w;
}

/// Inverse lifting on 4 strided elements (exact inverse of [`fwd_lift`]).
// audit:allow-fn(L1): callers pass the fixed 4^rank block scratch with
// (base, s) drawn from the separable-transform geometry, so
// `base + 3*s < 4^rank` always holds; the access pattern is identical to
// the encoder-side `fwd_lift`.
#[inline]
pub fn inv_lift(p: &mut [i64], base: usize, s: usize) {
    let (mut x, mut y, mut z, mut w) = (p[base], p[base + s], p[base + 2 * s], p[base + 3 * s]);
    y = y.wrapping_add(w >> 1);
    w = w.wrapping_sub(y >> 1);
    y = y.wrapping_add(w);
    w <<= 1;
    w = w.wrapping_sub(y);
    z = z.wrapping_add(x);
    x <<= 1;
    x = x.wrapping_sub(z);
    y = y.wrapping_add(z);
    z <<= 1;
    z = z.wrapping_sub(y);
    w = w.wrapping_add(x);
    x <<= 1;
    x = x.wrapping_sub(w);
    p[base] = x;
    p[base + s] = y;
    p[base + 2 * s] = z;
    p[base + 3 * s] = w;
}

/// Forward transform over a 4^rank block (separable).
///
/// Runs the fused lane-batched kernels in `pwrel-kernels` (bit-identical:
/// every lifted op is an integer wrapping add/sub or shift); slices that
/// are not exactly 4^rank long take the per-line loops below.
pub fn fwd_xform(block: &mut [i64], rank: u8) {
    match (rank, block.len()) {
        (1, 4) => {
            if let Ok(b) = <&mut [i64; 4]>::try_from(&mut *block) {
                return pwrel_kernels::blocklift::fwd_xform_1d(b);
            }
        }
        (2, 16) => {
            if let Ok(b) = <&mut [i64; 16]>::try_from(&mut *block) {
                return pwrel_kernels::blocklift::fwd_xform_2d(b);
            }
        }
        (_, 64) if rank >= 3 => {
            if let Ok(b) = <&mut [i64; 64]>::try_from(&mut *block) {
                return pwrel_kernels::blocklift::fwd_xform_3d(b);
            }
        }
        _ => {}
    }
    fwd_xform_reference(block, rank)
}

/// Inverse transform over a 4^rank block (reverses [`fwd_xform`] exactly).
pub fn inv_xform(block: &mut [i64], rank: u8) {
    match (rank, block.len()) {
        (1, 4) => {
            if let Ok(b) = <&mut [i64; 4]>::try_from(&mut *block) {
                return pwrel_kernels::blocklift::inv_xform_1d(b);
            }
        }
        (2, 16) => {
            if let Ok(b) = <&mut [i64; 16]>::try_from(&mut *block) {
                return pwrel_kernels::blocklift::inv_xform_2d(b);
            }
        }
        (_, 64) if rank >= 3 => {
            if let Ok(b) = <&mut [i64; 64]>::try_from(&mut *block) {
                return pwrel_kernels::blocklift::inv_xform_3d(b);
            }
        }
        _ => {}
    }
    inv_xform_reference(block, rank)
}

/// Per-line reference forward transform (the parity oracle for the fused
/// kernels, and the fallback for odd-sized scratch slices).
pub fn fwd_xform_reference(block: &mut [i64], rank: u8) {
    match rank {
        1 => fwd_lift(block, 0, 1),
        2 => {
            for j in 0..4 {
                fwd_lift(block, 4 * j, 1); // rows (x)
            }
            for i in 0..4 {
                fwd_lift(block, i, 4); // columns (y)
            }
        }
        _ => {
            for k in 0..4 {
                for j in 0..4 {
                    fwd_lift(block, 16 * k + 4 * j, 1); // x lines
                }
            }
            for k in 0..4 {
                for i in 0..4 {
                    fwd_lift(block, 16 * k + i, 4); // y lines
                }
            }
            for j in 0..4 {
                for i in 0..4 {
                    fwd_lift(block, 4 * j + i, 16); // z lines
                }
            }
        }
    }
}

/// Per-line reference inverse transform (exact inverse of
/// [`fwd_xform_reference`]).
pub fn inv_xform_reference(block: &mut [i64], rank: u8) {
    match rank {
        1 => inv_lift(block, 0, 1),
        2 => {
            for i in 0..4 {
                inv_lift(block, i, 4);
            }
            for j in 0..4 {
                inv_lift(block, 4 * j, 1);
            }
        }
        _ => {
            for j in 0..4 {
                for i in 0..4 {
                    inv_lift(block, 4 * j + i, 16);
                }
            }
            for k in 0..4 {
                for i in 0..4 {
                    inv_lift(block, 16 * k + i, 4);
                }
            }
            for k in 0..4 {
                for j in 0..4 {
                    inv_lift(block, 16 * k + 4 * j, 1);
                }
            }
        }
    }
}

/// Sequency-order permutation: coefficient indices sorted by total
/// frequency (sum of per-axis indices), low frequencies first. ZFP streams
/// coefficients in this order so the embedded coder sees energy-sorted data.
pub fn sequency_order(rank: u8) -> Vec<usize> {
    let size = block_size(rank);
    let mut idx: Vec<usize> = (0..size).collect();
    idx.sort_by_key(|&i| {
        let (x, y, z) = (i % 4, (i / 4) % 4, i / 16);
        (x + y + z, i)
    });
    idx
}

/// Number of samples in a 4^rank block.
pub fn block_size(rank: u8) -> usize {
    match rank {
        1 => 4,
        2 => 16,
        _ => 64,
    }
}

/// The lifting scheme as the pipeline's [`pwrel_data::BlockTransform`] stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lift;

impl pwrel_data::BlockTransform for Lift {
    fn name(&self) -> &'static str {
        "lift"
    }

    #[inline]
    fn forward(&self, block: &mut [i64], rank: u8) {
        fwd_xform(block, rank)
    }

    #[inline]
    fn inverse(&self, block: &mut [i64], rank: u8) {
        inv_xform(block, rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts `inv(fwd(x))` reconstructs within the truncation tolerance
    /// (a few integer units per separable pass).
    fn round_trip_within(vals: &[i64], rank: u8, tol: i64) {
        let mut b = vals.to_vec();
        fwd_xform(&mut b, rank);
        inv_xform(&mut b, rank);
        for (i, (&a, &r)) in vals.iter().zip(&b).enumerate() {
            assert!(
                (a - r).abs() <= tol,
                "rank {rank} idx {i}: {a} vs {r} (tol {tol})"
            );
        }
    }

    #[test]
    fn lift_round_trips_within_truncation_1d() {
        round_trip_within(&[1, -5, 100, 42], 1, 4);
        round_trip_within(&[0, 0, 0, 0], 1, 0);
        round_trip_within(&[i64::from(i32::MAX), i64::from(i32::MIN), 7, -7], 1, 4);
    }

    #[test]
    fn xform_round_trips_within_truncation_2d_3d() {
        let v2: Vec<i64> = (0..16).map(|i| (i * i - 40) as i64).collect();
        round_trip_within(&v2, 2, 8);
        let v3: Vec<i64> = (0..64)
            .map(|i| ((i * 37) % 101 - 50) as i64 * 1_000_003)
            .collect();
        round_trip_within(&v3, 3, 32);
    }

    #[test]
    fn truncation_error_is_relatively_tiny_on_large_values() {
        // In the guard-bit regime (|v| near 2^61) the absolute truncation
        // error stays a handful of units — i.e. relative error ~2^-58.
        let mut x = 0x9E3779B97F4A7C15u64;
        let vals: Vec<i64> = (0..64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x as i64) >> 3 // |v| < 2^61
            })
            .collect();
        round_trip_within(&vals[..4], 1, 8);
        round_trip_within(&vals[..16], 2, 32);
        round_trip_within(&vals, 3, 64);
    }

    #[test]
    fn constant_block_concentrates_energy() {
        // DC-only input: all energy must land in coefficient 0.
        let mut b = vec![1000i64; 4];
        fwd_lift(&mut b, 0, 1);
        assert_eq!(b[0], 1000);
        assert_eq!(&b[1..], &[0, 0, 0]);
    }

    #[test]
    fn linear_ramp_has_sparse_spectrum() {
        // The transform annihilates (near-)linear signals beyond 2 coeffs.
        let mut b: Vec<i64> = (0..4).map(|i| 100 + 8 * i as i64).collect();
        fwd_lift(&mut b, 0, 1);
        assert_eq!(b[2], 0, "second difference of a ramp is zero");
        assert_eq!(b[3], 0);
    }

    #[test]
    fn sequency_order_is_permutation() {
        for rank in 1..=3u8 {
            let mut p = sequency_order(rank);
            assert_eq!(p.len(), block_size(rank));
            assert_eq!(p[0], 0, "DC coefficient first");
            p.sort_unstable();
            assert_eq!(p, (0..block_size(rank)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sequency_order_3d_ends_with_highest_frequency() {
        let p = sequency_order(3);
        assert_eq!(*p.last().unwrap(), 63);
    }

    #[test]
    fn dispatched_xform_matches_reference() {
        let mut x = 0xD1B54A32D192ED03u64;
        for rank in 1..=3u8 {
            let vals: Vec<i64> = (0..block_size(rank))
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x as i64) >> 2
                })
                .collect();
            let mut a = vals.clone();
            let mut b = vals;
            fwd_xform(&mut a, rank);
            fwd_xform_reference(&mut b, rank);
            assert_eq!(a, b, "fwd rank {rank}");
            inv_xform(&mut a, rank);
            inv_xform_reference(&mut b, rank);
            assert_eq!(a, b, "inv rank {rank}");
        }
    }
}
