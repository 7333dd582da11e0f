//! Blockwise linear-regression prediction (SZ 2.x-style extension).
//!
//! SZ 1.4 (the paper's substrate) predicts every point with the Lorenzo
//! stencil. SZ 2 added a second predictor: a per-block linear model
//! `v ≈ b0 + b1·i + b2·j + b3·k` fitted by least squares, with the better
//! predictor chosen per block. Regression wins on smooth gradients (it
//! ignores the noise that derails a 1-point stencil at loose bounds);
//! Lorenzo wins on fine texture. We reproduce that hybrid as an optional
//! mode on top of the paper's pipeline.
//!
//! The fitted coefficients are rounded to `f32` before use so encoder and
//! decoder predict with bit-identical models.

use pwrel_data::{Dims, Float};

/// Block edge length used by the hybrid predictor (SZ 2 uses 6).
pub const BLOCK_EDGE: usize = 6;

/// A linear model over local block coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    /// Intercept.
    pub b0: f32,
    /// Slope along x (fastest axis).
    pub b1: f32,
    /// Slope along y.
    pub b2: f32,
    /// Slope along z.
    pub b3: f32,
}

impl LinearModel {
    /// Predicted value at local coordinates `(i, j, k)`.
    #[inline]
    pub fn predict(&self, i: usize, j: usize, k: usize) -> f64 {
        self.b0 as f64
            + self.b1 as f64 * i as f64
            + self.b2 as f64 * j as f64
            + self.b3 as f64 * k as f64
    }

    /// Serialized size in bytes.
    pub const NBYTES: usize = 16;

    /// Appends the model as four little-endian `f32`s.
    pub fn write(&self, out: &mut Vec<u8>) {
        for c in [self.b0, self.b1, self.b2, self.b3] {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    /// Reads a model written by [`LinearModel::write`]. `None` on a
    /// truncated buffer — forged streams reach here (lint L1), so the
    /// reads are structurally panic-free.
    pub fn read(bytes: &[u8]) -> Option<Self> {
        let f = |o: usize| {
            bytes
                .get(o..)
                .and_then(|tail| tail.first_chunk::<4>())
                .map(|chunk| f32::from_le_bytes(*chunk))
        };
        Some(Self {
            b0: f(0)?,
            b1: f(4)?,
            b2: f(8)?,
            b3: f(12)?,
        })
    }
}

/// One block's extent and origin within the grid.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Origin (x, y, z).
    pub origin: (usize, usize, usize),
    /// Extent along each axis (≤ [`BLOCK_EDGE`]).
    pub extent: (usize, usize, usize),
}

/// Number of blocks [`blocks`] would produce, without allocating — safe
/// to evaluate on untrusted dims before any reservation.
pub fn block_count(dims: Dims) -> u64 {
    if dims.is_empty() {
        return 0;
    }
    let c = |n: usize| n.max(1).div_ceil(BLOCK_EDGE) as u64;
    c(dims.nx) * c(dims.ny) * c(dims.nz)
}

/// Enumerates blocks in raster order (x fastest).
pub fn blocks(dims: Dims) -> Vec<Block> {
    let step = BLOCK_EDGE;
    let mut out = Vec::new();
    let mut z = 0;
    while z < dims.nz.max(1) {
        let ez = step.min(dims.nz.max(1) - z);
        let mut y = 0;
        while y < dims.ny.max(1) {
            let ey = step.min(dims.ny.max(1) - y);
            let mut x = 0;
            while x < dims.nx.max(1) {
                let ex = step.min(dims.nx.max(1) - x);
                out.push(Block {
                    origin: (x, y, z),
                    extent: (ex, ey, ez),
                });
                x += step;
            }
            y += step;
        }
        z += step;
    }
    if dims.is_empty() {
        out.clear();
    }
    out
}

/// Fits the least-squares linear model over one block of `data`.
///
/// The block grid is rectangular, so the centered per-axis coordinates are
/// orthogonal and each slope has the closed form `Σ(c−c̄)v / Σ(c−c̄)²`.
pub fn fit<F: Float>(data: &[F], dims: Dims, block: &Block) -> LinearModel {
    let (ox, oy, oz) = block.origin;
    let (ex, ey, ez) = block.extent;
    let n = (ex * ey * ez) as f64;
    let (mx, my, mz) = (
        (ex as f64 - 1.0) / 2.0,
        (ey as f64 - 1.0) / 2.0,
        (ez as f64 - 1.0) / 2.0,
    );

    let mut sum_v = 0.0f64;
    let mut sxv = 0.0f64;
    let mut syv = 0.0f64;
    let mut szv = 0.0f64;
    for dk in 0..ez {
        for dj in 0..ey {
            for di in 0..ex {
                let v = data[dims.index(ox + di, oy + dj, oz + dk)].to_f64();
                let v = if v.is_finite() { v } else { 0.0 };
                sum_v += v;
                sxv += (di as f64 - mx) * v;
                syv += (dj as f64 - my) * v;
                szv += (dk as f64 - mz) * v;
            }
        }
    }
    // Σ(c−c̄)² over the full block factorizes per axis.
    let var = |e: usize| -> f64 {
        let m = (e as f64 - 1.0) / 2.0;
        (0..e).map(|c| (c as f64 - m).powi(2)).sum::<f64>()
    };
    let sxx = var(ex) * (ey * ez) as f64;
    let syy = var(ey) * (ex * ez) as f64;
    let szz = var(ez) * (ex * ey) as f64;
    let b1 = if sxx > 0.0 { sxv / sxx } else { 0.0 };
    let b2 = if syy > 0.0 { syv / syy } else { 0.0 };
    let b3 = if szz > 0.0 { szv / szz } else { 0.0 };
    let b0 = sum_v / n - b1 * mx - b2 * my - b3 * mz;
    LinearModel {
        b0: b0 as f32,
        b1: b1 as f32,
        b2: b2 as f32,
        b3: b3 as f32,
    }
}

/// Sum of absolute regression residuals over a block (selection metric).
pub fn regression_sae<F: Float>(data: &[F], dims: Dims, block: &Block, model: &LinearModel) -> f64 {
    let (ox, oy, oz) = block.origin;
    let (ex, ey, ez) = block.extent;
    let mut sae = 0.0f64;
    for dk in 0..ez {
        for dj in 0..ey {
            for di in 0..ex {
                let v = data[dims.index(ox + di, oy + dj, oz + dk)].to_f64();
                if v.is_finite() {
                    sae += (v - model.predict(di, dj, dk)).abs();
                }
            }
        }
    }
    sae
}

/// Sum of absolute Lorenzo residuals over a block, predicting from the
/// *original* values (a fast proxy for the decompressed-neighbour stencil
/// used in the real pass).
pub fn lorenzo_sae<F: Float>(data: &[F], dims: Dims, block: &Block) -> f64 {
    let (ox, oy, oz) = block.origin;
    let (ex, ey, ez) = block.extent;
    let mut sae = 0.0f64;
    for dk in 0..ez {
        for dj in 0..ey {
            for di in 0..ex {
                let (i, j, k) = (ox + di, oy + dj, oz + dk);
                let v = data[dims.index(i, j, k)].to_f64();
                if v.is_finite() {
                    let pred = pwrel_kernels::predict::predict_point(data, dims, i, j, k);
                    sae += (v - pred).abs();
                }
            }
        }
    }
    sae
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_cover_grid_exactly_once() {
        for dims in [Dims::d1(13), Dims::d2(7, 11), Dims::d3(6, 8, 13)] {
            let mut seen = vec![0u8; dims.len()];
            for b in blocks(dims) {
                let (ox, oy, oz) = b.origin;
                let (ex, ey, ez) = b.extent;
                assert!(ex <= BLOCK_EDGE && ey <= BLOCK_EDGE && ez <= BLOCK_EDGE);
                for dk in 0..ez {
                    for dj in 0..ey {
                        for di in 0..ex {
                            seen[dims.index(ox + di, oy + dj, oz + dk)] += 1;
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{dims}");
        }
    }

    #[test]
    fn block_count_matches_enumeration() {
        for dims in [
            Dims::d1(0),
            Dims::d1(1),
            Dims::d1(13),
            Dims::d2(7, 11),
            Dims::d3(6, 8, 13),
            Dims::d3(1, 1, 1),
        ] {
            assert_eq!(block_count(dims), blocks(dims).len() as u64, "{dims}");
        }
    }

    #[test]
    fn fit_recovers_exact_linear_field() {
        let dims = Dims::d3(6, 6, 6);
        let mut data = vec![0.0f32; dims.len()];
        for k in 0..6 {
            for j in 0..6 {
                for i in 0..6 {
                    data[dims.index(i, j, k)] =
                        2.0 + 0.5 * i as f32 - 1.5 * j as f32 + 3.0 * k as f32;
                }
            }
        }
        let b = blocks(dims)[0];
        let m = fit(&data, dims, &b);
        assert!((m.b0 - 2.0).abs() < 1e-4, "{m:?}");
        assert!((m.b1 - 0.5).abs() < 1e-5);
        assert!((m.b2 + 1.5).abs() < 1e-5);
        assert!((m.b3 - 3.0).abs() < 1e-5);
        assert!(regression_sae(&data, dims, &b, &m) < 1e-2);
    }

    #[test]
    fn fit_handles_partial_blocks() {
        let dims = Dims::d2(7, 8); // blocks of 6 + remainder
        let data: Vec<f32> = (0..dims.len()).map(|i| i as f32).collect();
        for b in blocks(dims) {
            let m = fit(&data, dims, &b);
            // Raster data is linear in (i, j): residuals must vanish.
            assert!(
                regression_sae(&data, dims, &b, &m) < 1e-2,
                "block {:?}: {m:?}",
                b.origin
            );
        }
    }

    #[test]
    fn model_serialization_round_trips() {
        let m = LinearModel {
            b0: 1.5,
            b1: -0.25,
            b2: 1e-8,
            b3: 3e7,
        };
        let mut buf = Vec::new();
        m.write(&mut buf);
        assert_eq!(buf.len(), LinearModel::NBYTES);
        assert_eq!(LinearModel::read(&buf), Some(m));
        assert_eq!(LinearModel::read(&buf[..10]), None);
    }

    #[test]
    fn constant_block_has_zero_slopes() {
        let dims = Dims::d1(6);
        let data = vec![7.0f32; 6];
        let b = blocks(dims)[0];
        let m = fit(&data, dims, &b);
        assert_eq!(m.b1, 0.0);
        assert!((m.b0 - 7.0).abs() < 1e-6);
    }
}
