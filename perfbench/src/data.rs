//! Workload inputs and output checks.
//!
//! Fields follow the `pwrel_data::nyx` recipes (lognormal density,
//! smooth signed velocity) over the public `grf::gaussian_field`, with
//! every generator seed derived from the benchmark's `--seed`, so one
//! seed always gives the same inputs.

use pwrel_data::{grf, Dims};
use std::io::Read;

/// The point-wise relative bound every workload compresses under.
pub const BOUND: f64 = 1e-3;

/// The `i`-th generator seed under `seed` (SplitMix64 finalizer).
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lognormal matter density (positive, heavy-tailed): the paper's
/// headline `dark_matter_density` shape, `exp(σ(g − 1))` with σ = 2.2.
pub fn density(dims: Dims, seed: u64) -> Vec<f32> {
    let sigma = 2.2f64;
    grf::gaussian_field(dims, seed, 2, 3)
        .into_iter()
        .map(|g| (sigma * (g as f64 - 1.0)).exp() as f32)
        .collect()
}

/// Smooth signed velocity in cm/s (~1e7) with small-scale jitter: the
/// `velocity_x` shape, about half the values negative.
pub fn velocity(dims: Dims, seed: u64) -> Vec<f32> {
    let bulk = grf::gaussian_field(dims, seed, 3, 3);
    let jitter = grf::gaussian_field(dims, seed ^ 0xBEEF, 1, 1);
    bulk.iter()
        .zip(&jitter)
        .map(|(&b, &j)| (b as f64 * 9.0e6 + j as f64 * 4.0e5) as f32)
        .collect()
}

/// Little-endian bytes of `values`.
pub fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Tracks the largest point-wise relative error over [`BOUND`]; any
/// value at or above 1 would break the bound, and a zero that does not
/// come back exactly reads as infinite.
#[derive(Debug, Default, Clone, Copy)]
pub struct BoundCheck {
    pub max_ratio: f64,
}

impl BoundCheck {
    /// Folds in one stretch of originals and their reconstruction.
    pub fn feed(&mut self, orig: &[f32], dec: &[f32]) {
        assert_eq!(orig.len(), dec.len(), "reconstruction length");
        for (&x, &y) in orig.iter().zip(dec) {
            let (x, y) = (x as f64, y as f64);
            let ratio = if x == 0.0 {
                if y == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                ((x - y) / x).abs() / BOUND
            };
            self.max_ratio = self.max_ratio.max(ratio);
        }
    }

    /// Whether every value fed so far met `|x − x'| ≤ b_r·|x|`.
    pub fn holds(&self) -> bool {
        self.max_ratio <= 1.0
    }
}

/// Whether two values agree bit for bit (so `-0.0 ≠ 0.0`, NaN = NaN).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two readers yield the same bytes, compared a block at a time
/// so neither side is ever held whole.
pub fn same_stream(mut a: impl Read, mut b: impl Read) -> std::io::Result<bool> {
    let mut buf_a = vec![0u8; 1 << 20];
    let mut buf_b = vec![0u8; 1 << 20];
    loop {
        let n = fill(&mut a, &mut buf_a)?;
        let m = fill(&mut b, &mut buf_b)?;
        if n != m || buf_a[..n] != buf_b[..m] {
            return Ok(false);
        }
        if n == 0 {
            return Ok(true);
        }
    }
}

/// Reads until `buf` is full or the reader ends; returns the count.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..])? {
            0 => break,
            k => n += k,
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let d = Dims::d3(8, 8, 8);
        assert!(same_bits(&density(d, 5), &density(d, 5)));
        assert!(!same_bits(&density(d, 5), &density(d, 6)));
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
    }

    #[test]
    fn fields_have_their_shapes() {
        let d = Dims::d3(16, 16, 16);
        assert!(density(d, 1).iter().all(|&v| v > 0.0));
        let v = velocity(d, 1);
        let neg = v.iter().filter(|&&x| x < 0.0).count();
        assert!(neg > v.len() / 5 && neg < v.len() * 4 / 5);
    }

    #[test]
    fn bound_check_flags_errors_and_inexact_zeros() {
        let mut ok = BoundCheck::default();
        ok.feed(&[1.0, -2.0, 0.0], &[1.0005, -2.001, 0.0]);
        assert!(ok.holds());
        let mut over = BoundCheck::default();
        over.feed(&[1.0], &[1.002]);
        assert!(!over.holds());
        let mut zero = BoundCheck::default();
        zero.feed(&[0.0], &[1e-30]);
        assert!(!zero.holds());
    }

    #[test]
    fn stream_compare_sees_length_and_content() {
        let a = vec![7u8; (1 << 20) + 3];
        let mut b = a.clone();
        assert!(same_stream(&a[..], &b[..]).unwrap());
        assert!(!same_stream(&a[..], &b[..b.len() - 1]).unwrap());
        *b.last_mut().unwrap() = 8;
        assert!(!same_stream(&a[..], &b[..]).unwrap());
    }
}
