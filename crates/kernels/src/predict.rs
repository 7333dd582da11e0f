//! Row-specialized Lorenzo predict/quantize sweep kernels.
//!
//! The reference SZ sweep calls a per-point predictor that re-derives the
//! neighbour geometry for every sample: an `at(i-1, j, k)` closure with
//! three signed boundary comparisons and a full `dims.index` multiply per
//! neighbour (7 neighbours in 3D). Those ~20 branchy address computations
//! per point dwarf the actual prediction arithmetic.
//!
//! The batched sweep here restructures the grid walk into *rows*: each
//! raster row is processed by a straight-line loop that carries the
//! `left`/`upleft`/`backleft`/`corner` neighbours in registers and reads
//! the `up`/`back`/`backup` neighbours by a single unit-stride load per
//! row buffer. Boundary rows (j = 0, k = 0) read from a preallocated
//! all-zeros row, so the prediction *expression shape never changes*:
//! out-of-grid neighbours contribute the same literal `0.0` operands the
//! reference uses, in the same left-associated evaluation order. Every
//! prediction is therefore bit-identical to [`sweep_reference`] — the
//! speedup comes purely from removing address arithmetic and branches,
//! not from reordering floating-point operations.
//!
//! The decoder-visible dependency chain (each point's prediction reads the
//! *reconstruction* of its left neighbour) is respected by pulling the
//! reconstruction back from the sink each point; only the neighbour
//! addressing is batched. The sweep predicts only from its own `f64` row
//! and plane buffers, so it keeps no buffer of values: a sink that needs
//! the reconstructed field (the decoder's) stores each value itself. The
//! sink abstraction gives the four SZ engine loops (code extraction,
//! compress, fused compress, decompress) a single integration point — see
//! `pwrel-sz`'s engine.
//!
//! On top of the row restructuring, 2D/3D interiors run as a [`LANES`]-row
//! *wavefront*: consecutive rows advance together with a one-column skew,
//! overlapping the quantizer's serial divide-and-round feedback chains of
//! [`LANES`] rows. The per-point operands and evaluation order are still
//! identical to the reference — only the *visit order* interleaves across
//! rows, which is why sinks must be index-addressed (see [`sweep`]).

use crate::cast;
use pwrel_data::{Dims, Float};

/// SZ 1.4's linear-scaling quantizer (paper Sec. IV-A), both directions:
/// residuals bin into `capacity` intervals of width `2·eb` centred on the
/// radius, and out-of-radius or bound-violating points escape (`None`,
/// stored as code 0 in the unpredictable section). Every SZ sweep sink
/// calls it directly; there is one quantizer, so there is no trait.
#[derive(Debug, Clone, Copy)]
pub struct QuantKernel {
    capacity: u32,
    radius: i64,
    radius_f: f64,
}

impl QuantKernel {
    /// Builds the kernel for a quantization interval count (even, ≥ 4).
    #[inline]
    pub fn new(capacity: u32) -> Self {
        let radius = i64::from(capacity / 2);
        Self {
            capacity,
            radius,
            radius_f: cast::f64_from_quant(radius),
        }
    }

    /// Quantizes `x` against prediction `pred` under absolute bound `eb`:
    /// returns the biased code and the decoder-visible reconstruction, or
    /// `None` when the point must escape to the unpredictable store.
    #[inline]
    pub fn quantize<F: Float>(&self, x: F, pred: f64, eb: f64) -> Option<(u32, F)> {
        if x.is_finite() {
            let diff = x.to_f64() - pred;
            let qf = (diff / (2.0 * eb)).round();
            if qf.is_finite() && qf.abs() < self.radius_f {
                let q = cast::quant_code(qf);
                // `qf` is integral with |qf| < radius ≤ 2^31 here, so
                // `q as f64 == qf` exactly; using `qf` directly drops two
                // int<->float conversions from the serial feedback chain
                // without changing a single bit of the reconstruction.
                debug_assert_eq!(cast::f64_from_quant(q), qf);
                let val = F::from_f64(pred + 2.0 * eb * qf);
                // Verify on the *rounded* reconstruction so the bound
                // holds for the stored element type, not just in f64.
                if val.is_finite() && (val.to_f64() - x.to_f64()).abs() <= eb {
                    return Some((cast::symbol_u32(self.radius + q), val));
                }
            }
        }
        None
    }

    /// Decoder side of [`QuantKernel::quantize`]: the value for a
    /// predictable `code` given the prediction and bound the encoder saw.
    /// `None` for the escape code 0 and for codes outside the alphabet
    /// (`code >= capacity`); the caller resolves both off its hot path.
    #[inline]
    pub fn reconstruct<F: Float>(&self, code: u32, pred: f64, eb: f64) -> Option<F> {
        // One unsigned compare tests both: code 0 wraps to u32::MAX.
        if code.wrapping_sub(1) >= self.capacity.saturating_sub(1) {
            return None;
        }
        let q = i64::from(code) - self.radius;
        Some(F::from_f64(pred + 2.0 * eb * cast::f64_from_quant(q)))
    }
}

/// Per-point Lorenzo prediction from already-reconstructed causal
/// neighbours (1 in 1D, 3 in 2D, 7 in 3D; out-of-grid neighbours read 0).
/// This is the canonical scalar definition; the batched sweep reproduces
/// it bit-for-bit and the parity suite pins the two together.
// audit:allow-fn(L1): every caller allocates `dec` with `dims.len()`
// elements and passes in-grid (i, j, k); causal neighbours are either
// in-grid (so `dims.index` < len) or clamped to the 0.0 branch.
#[inline]
pub fn predict_point<F: Float>(dec: &[F], dims: Dims, i: usize, j: usize, k: usize) -> f64 {
    let at = |ii: isize, jj: isize, kk: isize| -> f64 {
        if ii < 0 || jj < 0 || kk < 0 {
            return 0.0;
        }
        dec[dims.index(
            cast::grid_usize(ii),
            cast::grid_usize(jj),
            cast::grid_usize(kk),
        )]
        .to_f64()
    };
    let (i, j, k) = (
        cast::grid_isize(i),
        cast::grid_isize(j),
        cast::grid_isize(k),
    );
    match dims.rank() {
        1 => at(i - 1, 0, 0),
        2 => at(i - 1, j, 0) + at(i, j - 1, 0) - at(i - 1, j - 1, 0),
        _ => {
            at(i - 1, j, k) + at(i, j - 1, k) + at(i, j, k - 1)
                - at(i - 1, j - 1, k)
                - at(i - 1, j, k - 1)
                - at(i, j - 1, k - 1)
                + at(i - 1, j - 1, k - 1)
        }
    }
}

/// Wavefront width: rows processed concurrently by the 2D/3D sweeps.
///
/// Lorenzo's feedback chain (each prediction reads the *reconstruction*
/// of its left neighbour, which reads the quantizer's divide-and-round)
/// serializes every row internally, but rows only depend on fully
/// completed predecessors — so [`LANES`] rows advance together with a
/// one-column skew, overlapping [`LANES`] independent divide latencies.
pub const LANES: usize = 4;

/// Runs the Lorenzo sweep over `dims` with the batched wavefront kernels.
/// For each point the sink receives `(linear index, prediction)` and must
/// return the decoder-visible reconstruction (or an error, which aborts
/// the sweep); the sweep feeds it into the prediction of every dependent
/// point, and keeps nothing else of it.
///
/// Visit order: every index is visited exactly once, ascending *within*
/// each row, but visits of up to [`LANES`] consecutive rows interleave
/// (row r+1 trails row r by one column). Sinks must therefore be
/// insensitive to cross-row ordering: write per-index state by index, and
/// reorder any sequential side-channel (e.g. an escape stream) by index
/// afterwards. [`sweep_reference`] visits in strict raster order and is
/// the semantic oracle: for order-insensitive sinks the two produce
/// bit-identical results.
///
/// Compress-side sinks are infallible (`E = Infallible`); the decompress
/// sink surfaces corrupt-stream errors.
pub fn sweep<F, E, S>(dims: Dims, mut sink: S) -> Result<(), E>
where
    F: Float,
    S: FnMut(usize, f64) -> Result<F, E>,
{
    if dims.is_empty() {
        return Ok(());
    }
    match dims.rank() {
        1 => sweep_1d(dims.nx, &mut sink),
        2 => sweep_2d(dims.nx, dims.ny, &mut sink),
        _ => sweep_3d(dims.nx, dims.ny, dims.nz, &mut sink),
    }
}

/// The per-point reference sweep: identical per-point results and sink
/// contract to [`sweep`] (strict raster visit order), with predictions
/// from [`predict_point`], which reads the reconstructions this sweep
/// stores in `dec` (`dims.len()` elements). Kept as the parity oracle for
/// tests and the `batch_kernels` bench; the SZ engine calls [`sweep`].
// audit:allow-fn(L1): `dec` is asserted to hold `dims.len()` elements and
// `idx` counts the raster loop over exactly that many points.
pub fn sweep_reference<F, E, S>(dims: Dims, dec: &mut [F], mut sink: S) -> Result<(), E>
where
    F: Float,
    S: FnMut(usize, f64) -> Result<F, E>,
{
    assert_eq!(dec.len(), dims.len(), "sweep buffer must match dims");
    let mut idx = 0;
    for k in 0..dims.nz {
        for j in 0..dims.ny {
            for i in 0..dims.nx {
                let pred = predict_point(dec, dims, i, j, k);
                dec[idx] = sink(idx, pred)?;
                idx += 1;
            }
        }
    }
    Ok(())
}

/// 1D: each prediction is the previous reconstruction, carried in a
/// register.
fn sweep_1d<F, E, S>(n: usize, sink: &mut S) -> Result<(), E>
where
    F: Float,
    S: FnMut(usize, f64) -> Result<F, E>,
{
    let mut prev = 0.0f64;
    for idx in 0..n {
        prev = sink(idx, prev)?.to_f64();
    }
    Ok(())
}

/// 2D row kernel: prediction `(left + up) - upleft` with `left`/`upleft`
/// carried in registers. Neighbour rows arrive as `f64` (`prev64` is the
/// row above, or zeros for j = 0): each slot holds exactly the `to_f64`
/// of the sink's reconstruction, recorded into `cur64` as the row is
/// produced, so no per-point element-type conversion happens on reads.
// audit:allow-fn(L1): both buffers are re-sliced to `nx = prev64.len()`
// up front and the column loop runs `1..nx`, so all indexing is in
// bounds.
fn row_2d<F, E, S>(cur64: &mut [f64], prev64: &[f64], base: usize, sink: &mut S) -> Result<(), E>
where
    F: Float,
    S: FnMut(usize, f64) -> Result<F, E>,
{
    let nx = prev64.len();
    let cur64 = &mut cur64[..nx];
    let up = prev64[0];
    let mut left = sink(base, (0.0 + up) - 0.0)?.to_f64();
    cur64[0] = left;
    let mut upleft = up;
    for c in 1..nx {
        let up = prev64[c];
        let pred = (left + up) - upleft;
        left = sink(base + c, pred)?.to_f64();
        cur64[c] = left;
        upleft = up;
    }
    Ok(())
}

/// One [`LANES`]-row 2D wavefront strip. Lane `l` sweeps grid row
/// `j0 + l` one column behind lane `l - 1`, so each step advances
/// [`LANES`] independent quantizer feedback chains. The `up` neighbour of
/// lane `l > 0` is lane `l - 1`'s `left` register *before* this step's
/// update — no memory read; lane 0 reads `prev64` (the reconstructed row
/// above the strip, zeros for j0 = 0) and lane `LANES - 1` records its
/// reconstructions back into `prev64` for the next strip (always behind
/// lane 0's reads, which are `LANES - 1` columns ahead).
// audit:allow-fn(L1): every column index `c = t - l` lies in `0..nx` with
// `nx = prev64.len()`: the prologue, main loop and epilogue bound `t` so
// that each lane runs its own row's columns exactly once.
fn strip_2d<F, E, S>(prev64: &mut [f64], base: usize, sink: &mut S) -> Result<(), E>
where
    F: Float,
    S: FnMut(usize, f64) -> Result<F, E>,
{
    let nx = prev64.len();
    debug_assert!(nx >= LANES);
    let mut left = [0.0f64; LANES];
    let mut upleft = [0.0f64; LANES];
    // One lane-step: lane `l` handles column `c` with `up` supplied by the
    // caller (memory for lane 0, the forwarded register for lanes > 0).
    macro_rules! lane {
        ($l:expr, $c:expr, $up:expr, $first:expr) => {{
            let up = $up;
            let pred = if $first {
                (0.0 + up) - 0.0
            } else {
                (left[$l] + up) - upleft[$l]
            };
            let lf = sink(base + $l * nx + $c, pred)?.to_f64();
            if $l == LANES - 1 {
                prev64[$c] = lf;
            }
            left[$l] = lf;
            upleft[$l] = up;
        }};
    }
    // Prologue: steps t = 0..LANES, lane l joins at its column 0.
    for t in 0..LANES {
        let fwd = left;
        for l in 0..=t {
            let c = t - l;
            let up = if l == 0 { prev64[c] } else { fwd[l - 1] };
            lane!(l, c, up, c == 0);
        }
    }
    // Main: all lanes active, no column-0 cases (c = t - l ≥ 1).
    for t in LANES..nx {
        let fwd = left;
        lane!(0, t, prev64[t], false);
        for l in 1..LANES {
            lane!(l, t - l, fwd[l - 1], false);
        }
    }
    // Epilogue: lanes ≥ 1 drain in order as their rows end.
    for t in nx..nx + LANES - 1 {
        let fwd = left;
        for l in (t - nx + 1)..LANES {
            lane!(l, t - l, fwd[l - 1], false);
        }
    }
    Ok(())
}

fn sweep_2d<F, E, S>(nx: usize, ny: usize, sink: &mut S) -> Result<(), E>
where
    F: Float,
    S: FnMut(usize, f64) -> Result<F, E>,
{
    // `prev64` starts zeroed, which doubles as the reference's out-of-grid
    // zeros row for j = 0.
    let mut prev64 = vec![0.0f64; nx];
    let mut cur64 = vec![0.0f64; nx];
    let mut j = 0;
    // Full wavefront strips while LANES rows remain (and rows are wide
    // enough for the skewed prologue/epilogue to make sense).
    if nx >= LANES {
        while j + LANES <= ny {
            strip_2d(&mut prev64, j * nx, sink)?;
            j += LANES;
        }
    }
    // Remainder rows (and narrow grids): sequential row kernel.
    for j in j..ny {
        row_2d(&mut cur64, &prev64, j * nx, sink)?;
        std::mem::swap(&mut prev64, &mut cur64);
    }
    Ok(())
}

/// 3D row kernel: prediction
/// `left + up + back - upleft - backleft - backup + corner` in the
/// reference's left-associated order. `prev64` is row (j-1, k), `pcur64`
/// is row (j, k-1), `pprev64` is row (j-1, k-1), all pre-converted `f64`
/// reconstructions (zeros rows at the grid boundary, matching the
/// reference's out-of-grid zeros); the row records its own `f64` copy
/// into `cur64` for the rows that will neighbour it.
// audit:allow-fn(L1): every buffer is re-sliced to `nx = cur64.len()` up
// front and the column loop runs `1..nx`, so all indexing is in bounds.
fn row_3d<F, E, S>(
    cur64: &mut [f64],
    prev64: &[f64],
    pcur64: &[f64],
    pprev64: &[f64],
    base: usize,
    sink: &mut S,
) -> Result<(), E>
where
    F: Float,
    S: FnMut(usize, f64) -> Result<F, E>,
{
    let nx = cur64.len();
    let (prev64, pcur64, pprev64) = (&prev64[..nx], &pcur64[..nx], &pprev64[..nx]);
    let up = prev64[0];
    let back = pcur64[0];
    let backup = pprev64[0];
    let pred0 = ((((0.0 + up) + back) - 0.0) - 0.0) - backup + 0.0;
    let mut left = sink(base, pred0)?.to_f64();
    cur64[0] = left;
    let mut upleft = up;
    let mut backleft = back;
    let mut corner = backup;
    for c in 1..nx {
        let up = prev64[c];
        let back = pcur64[c];
        let backup = pprev64[c];
        let pred = left + up + back - upleft - backleft - backup + corner;
        left = sink(base + c, pred)?.to_f64();
        cur64[c] = left;
        upleft = up;
        backleft = back;
        corner = backup;
    }
    Ok(())
}

/// One [`LANES`]-row 3D wavefront strip (rows `j0..j0+LANES` of plane k).
/// Same skew as [`strip_2d`]: lane `l > 0`'s `up` neighbour is lane
/// `l - 1`'s forwarded `left` register; lane 0 reads `prev64` (row
/// `j0 - 1` of the current plane, zeros for j0 = 0). `back`/`backup` come
/// from the previous plane's f64 rows (`pcur`/`pprev`); every lane records
/// its reconstructions into `cur64` for the next plane.
fn strip_3d<F, E, S>(
    cur64: [&mut [f64]; LANES],
    prev64: &[f64],
    pcur: [&[f64]; LANES],
    pprev: [&[f64]; LANES],
    base: usize,
    sink: &mut S,
) -> Result<(), E>
where
    F: Float,
    S: FnMut(usize, f64) -> Result<F, E>,
{
    let nx = prev64.len();
    debug_assert!(nx >= LANES);
    let mut left = [0.0f64; LANES];
    let mut upleft = [0.0f64; LANES];
    let mut backleft = [0.0f64; LANES];
    let mut corner = [0.0f64; LANES];
    macro_rules! lane {
        ($l:expr, $c:expr, $up:expr, $first:expr) => {{
            let up = $up;
            let back = pcur[$l][$c];
            let backup = pprev[$l][$c];
            let pred = if $first {
                ((((0.0 + up) + back) - 0.0) - 0.0) - backup + 0.0
            } else {
                left[$l] + up + back - upleft[$l] - backleft[$l] - backup + corner[$l]
            };
            let lf = sink(base + $l * nx + $c, pred)?.to_f64();
            cur64[$l][$c] = lf;
            left[$l] = lf;
            upleft[$l] = up;
            backleft[$l] = back;
            corner[$l] = backup;
        }};
    }
    // Prologue: steps t = 0..LANES, lane l joins at its column 0.
    for t in 0..LANES {
        let fwd = left;
        for l in 0..=t {
            let c = t - l;
            let up = if l == 0 { prev64[c] } else { fwd[l - 1] };
            lane!(l, c, up, c == 0);
        }
    }
    // Main: all lanes active, no column-0 cases (c = t - l ≥ 1).
    for t in LANES..nx {
        let fwd = left;
        lane!(0, t, prev64[t], false);
        for l in 1..LANES {
            lane!(l, t - l, fwd[l - 1], false);
        }
    }
    // Epilogue: lanes ≥ 1 drain in order as their rows end.
    for t in nx..nx + LANES - 1 {
        let fwd = left;
        for l in (t - nx + 1)..LANES {
            lane!(l, t - l, fwd[l - 1], false);
        }
    }
    Ok(())
}

// audit:allow-fn(L1): the rolling f64 planes hold `nx*ny` elements and
// are sliced at row offsets `j*nx` with `j < ny`.
fn sweep_3d<F, E, S>(nx: usize, ny: usize, nz: usize, sink: &mut S) -> Result<(), E>
where
    F: Float,
    S: FnMut(usize, f64) -> Result<F, E>,
{
    let zeros = vec![0.0f64; nx];
    let nxy = nx * ny;
    // Rolling f64 planes: `prev_plane` is plane k-1 (initially zeroed — the
    // reference's out-of-grid zeros for k = 0), `cur_plane` collects plane
    // k's reconstructions row by row as the sweep produces them.
    let mut prev_plane = vec![0.0f64; nxy];
    let mut cur_plane = vec![0.0f64; nxy];
    for k in 0..nz {
        let mut j = 0;
        if nx >= LANES {
            while j + LANES <= ny {
                let row0 = j * nx;
                let base = k * nxy + row0;
                let (done, rest) = cur_plane.split_at_mut(row0);
                let mut it64 = rest.chunks_exact_mut(nx);
                let cur64: [&mut [f64]; LANES] = std::array::from_fn(|_| it64.next().unwrap());
                let prev64: &[f64] = if j == 0 { &zeros } else { &done[row0 - nx..] };
                let pcur: [&[f64]; LANES] =
                    std::array::from_fn(|l| &prev_plane[row0 + l * nx..row0 + (l + 1) * nx]);
                let pprev: [&[f64]; LANES] = std::array::from_fn(|l| {
                    if l > 0 {
                        &prev_plane[row0 + (l - 1) * nx..row0 + l * nx]
                    } else if j == 0 {
                        &zeros[..]
                    } else {
                        &prev_plane[row0 - nx..row0]
                    }
                });
                strip_3d(cur64, prev64, pcur, pprev, base, sink)?;
                j += LANES;
            }
        }
        // Remainder rows (and narrow grids): sequential row kernel.
        for j in j..ny {
            let row = j * nx;
            let base = k * nxy + row;
            let (done, rest) = cur_plane.split_at_mut(row);
            let cur64 = &mut rest[..nx];
            let prev64: &[f64] = if j == 0 { &zeros } else { &done[row - nx..] };
            let pcur64 = &prev_plane[row..row + nx];
            let pprev64: &[f64] = if j == 0 {
                &zeros
            } else {
                &prev_plane[row - nx..row]
            };
            row_3d(cur64, prev64, pcur64, pprev64, base, sink)?;
        }
        std::mem::swap(&mut prev_plane, &mut cur_plane);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn pseudo(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 2000) as f64 / 7.0 - 140.0
            })
            .collect()
    }

    /// Runs both sweeps with a quantize-or-escape sink and asserts the
    /// codes and reconstructions match exactly.
    fn assert_parity<F: Float>(dims: Dims, data: &[F], eb: f64) {
        let quant = QuantKernel::new(512);
        let run = |batched: bool| -> (Vec<u32>, Vec<u64>) {
            // Index-addressed (the sweep contract): the wavefront visits
            // rows interleaved, so push order would differ by design.
            let mut codes = vec![0u32; dims.len()];
            let mut out = vec![0u64; dims.len()];
            let sink = |idx: usize, pred: f64| -> Result<F, Infallible> {
                let x = data[idx];
                let val = match quant.quantize(x, pred, eb) {
                    Some((code, val)) => {
                        codes[idx] = code;
                        val
                    }
                    None => x,
                };
                out[idx] = val.to_bits_u64();
                Ok(val)
            };
            if batched {
                sweep(dims, sink).unwrap();
            } else {
                sweep_reference(dims, &mut vec![F::zero(); dims.len()], sink).unwrap();
            }
            (codes, out)
        };
        let (bc, bd) = run(true);
        let (rc, rd) = run(false);
        assert_eq!(bc, rc, "codes diverge for dims {dims:?}");
        assert_eq!(bd, rd, "reconstructions diverge for dims {dims:?}");
    }

    #[test]
    fn batched_matches_reference_f64() {
        for dims in [
            Dims::d1(1),
            Dims::d1(17),
            Dims::d2(1, 9),
            Dims::d2(9, 1),
            Dims::d2(5, 7),
            Dims::d3(1, 1, 1),
            Dims::d3(3, 1, 5),
            Dims::d3(4, 5, 6),
        ] {
            let data = pseudo(dims.len() as u64 + 1, dims.len());
            assert_parity(dims, &data, 0.05);
        }
    }

    #[test]
    fn batched_matches_reference_f32_with_escapes() {
        let dims = Dims::d3(5, 6, 7);
        let mut data: Vec<f32> = pseudo(99, dims.len()).iter().map(|&v| v as f32).collect();
        // Force escapes: NaN, inf, and a huge out-of-radius jump.
        data[13] = f32::NAN;
        data[51] = f32::INFINITY;
        data[100] = 1e30;
        assert_parity(dims, &data, 1e-3);
    }

    #[test]
    fn quant_kernel_round_trips_through_reconstruct() {
        let q = QuantKernel::new(1024);
        let (code, val) = q.quantize(3.07f32, 3.0, 0.05).unwrap();
        assert!(code > 0);
        let back: f32 = q.reconstruct(code, 3.0, 0.05).unwrap();
        assert_eq!(val, back);
        assert!((back - 3.07).abs() <= 0.05);
        assert!(q.quantize(f32::NAN, 0.0, 0.1).is_none());
        assert!(q.quantize(1e9f32, 0.0, 0.1).is_none());
    }

    #[test]
    fn reconstruct_rejects_out_of_alphabet_codes() {
        let q = QuantKernel::new(8);
        assert!(q.reconstruct::<f32>(8, 0.0, 0.1).is_none());
        assert!(q.reconstruct::<f32>(0, 0.0, 0.1).is_none());
        assert!(q.reconstruct::<f32>(7, 0.0, 0.1).is_some());
    }

    #[test]
    fn d1_prediction_is_previous_value() {
        let dims = Dims::d1(4);
        let dec = [1.0f32, 2.0, 3.0, 0.0];
        assert_eq!(predict_point(&dec, dims, 0, 0, 0), 0.0);
        assert_eq!(predict_point(&dec, dims, 3, 0, 0), 3.0);
    }

    #[test]
    fn d2_prediction_exact_on_planes() {
        // Lorenzo 2D is exact for bilinear data f(i,j) = a + b*i + c*j.
        let dims = Dims::d2(4, 4);
        let mut dec = vec![0.0f64; 16];
        for j in 0..4 {
            for i in 0..4 {
                dec[dims.index(i, j, 0)] = 2.0 + 3.0 * i as f64 - 1.5 * j as f64;
            }
        }
        for j in 1..4 {
            for i in 1..4 {
                let p = predict_point(&dec, dims, i, j, 0);
                assert!((p - dec[dims.index(i, j, 0)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn d3_prediction_exact_on_trilinear() {
        let dims = Dims::d3(3, 3, 3);
        let mut dec = vec![0.0f64; 27];
        for k in 0..3 {
            for j in 0..3 {
                for i in 0..3 {
                    dec[dims.index(i, j, k)] =
                        1.0 + 2.0 * i as f64 + 0.5 * j as f64 - 3.0 * k as f64;
                }
            }
        }
        for k in 1..3 {
            for j in 1..3 {
                for i in 1..3 {
                    let p = predict_point(&dec, dims, i, j, k);
                    assert!((p - dec[dims.index(i, j, k)]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn border_neighbours_read_zero() {
        let dims = Dims::d2(2, 2);
        let dec = [5.0f32, 6.0, 7.0, 0.0];
        // (0,0): all neighbours out of grid.
        assert_eq!(predict_point(&dec, dims, 0, 0, 0), 0.0);
        // (0,1): only the (i, j-1) term is in-grid.
        assert_eq!(predict_point(&dec, dims, 0, 1, 0), 5.0);
    }
}
