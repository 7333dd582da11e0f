//! Property tests: the lane-batched wavefront sweep is bit-identical to
//! the per-point reference sweep for order-insensitive sinks, across
//! element types (f32/f64), ranks (1D/2D/3D), and hostile grid shapes —
//! rows narrower than the wavefront, extents of 1, and row counts that
//! are not a multiple of [`LANES`] (so every prologue, main, epilogue,
//! and remainder-row path is exercised).
//!
//! The sink is the quantize-or-escape shape the SZ engine uses, so the
//! properties pin exactly what the codec relies on: identical codes and
//! identical reconstructions, including through escape feedback (an
//! escaping point feeds its own value back into its neighbours'
//! predictions).

use proptest::prelude::*;
use pwrel_data::{Dims, Float};
use pwrel_kernels::predict::{self, QuantKernel, LANES};
use std::convert::Infallible;

/// Grid extents biased to the wavefront's edge cases around [`LANES`].
fn extent() -> impl Strategy<Value = usize> {
    prop_oneof![
        2 => 1usize..(2 * LANES + 4),
        1 => Just(1usize),
        1 => Just(LANES - 1),
        1 => Just(LANES),
        1 => Just(LANES + 1),
        1 => Just(13usize),
    ]
}

fn make_dims(rank: u8, nx: usize, ny: usize, nz: usize) -> Dims {
    match rank {
        1 => Dims::d1(nx * ny),
        2 => Dims::d2(nx, ny),
        _ => Dims::d3(nx, ny, nz),
    }
}

/// Deterministic field for a seed: mostly quantizable finite values with
/// periodic escapes (non-finite, or far outside the quantizer radius).
fn field(seed: u64, n: usize) -> Vec<f64> {
    let mut x = seed | 1;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match (i > 0, x % 29) {
                (true, 0) => f64::NAN,
                (true, 1) => f64::INFINITY,
                (true, 2) => -1e60,
                _ => (x % 3000) as f64 / 11.0 - 136.0,
            }
        })
        .collect()
}

/// Runs both sweeps with the engine-shaped sink and asserts codes and
/// reconstructions are bit-identical.
fn check_parity<F: Float>(
    dims: Dims,
    data: &[F],
    eb: f64,
    capacity: u32,
) -> Result<(), TestCaseError> {
    let quant = QuantKernel::new(capacity);
    let run = |batched: bool| -> (Vec<u32>, Vec<u64>) {
        let mut codes = vec![0u32; dims.len()];
        let mut out = vec![0u64; dims.len()];
        let mut sink = |idx: usize, pred: f64| -> Result<F, Infallible> {
            let val = match quant.quantize(data[idx], pred, eb) {
                Some((code, val)) => {
                    codes[idx] = code;
                    val
                }
                None => data[idx],
            };
            out[idx] = val.to_bits_u64();
            Ok(val)
        };
        let res = if batched {
            predict::sweep(dims, &mut sink)
        } else {
            predict::sweep_reference(dims, &mut vec![F::zero(); dims.len()], &mut sink)
        };
        match res {
            Ok(()) => {}
            Err(e) => match e {},
        }
        (codes, out)
    };
    let (bc, bd) = run(true);
    let (rc, rd) = run(false);
    prop_assert_eq!(bc, rc, "codes diverge for {:?}", dims);
    prop_assert_eq!(bd, rd, "reconstructions diverge for {:?}", dims);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn wavefront_matches_reference_f64(
        rank in 1u8..4,
        nx in extent(),
        ny in extent(),
        nz in extent(),
        seed in any::<u64>(),
    ) {
        let dims = make_dims(rank, nx, ny, nz);
        let data = field(seed, dims.len());
        check_parity::<f64>(dims, &data, 0.05, 512)?;
    }

    #[test]
    fn wavefront_matches_reference_f32(
        rank in 1u8..4,
        nx in extent(),
        ny in extent(),
        nz in extent(),
        seed in any::<u64>(),
    ) {
        let dims = make_dims(rank, nx, ny, nz);
        let data: Vec<f32> = field(seed, dims.len()).iter().map(|&v| v as f32).collect();
        check_parity::<f32>(dims, &data, 1e-3, 65536)?;
    }

    #[test]
    fn wavefront_matches_reference_tight_quantizer(
        rank in 1u8..4,
        nx in extent(),
        ny in extent(),
        nz in extent(),
        seed in any::<u64>(),
    ) {
        // A tiny capacity forces frequent out-of-radius escapes, so the
        // escape feedback path is hit constantly, on both element types.
        let dims = make_dims(rank, nx, ny, nz);
        let data = field(seed, dims.len());
        check_parity::<f64>(dims, &data, 1e-4, 8)?;
        let data32: Vec<f32> = data.iter().map(|&v| v as f32).collect();
        check_parity::<f32>(dims, &data32, 1e-4, 8)?;
    }
}
