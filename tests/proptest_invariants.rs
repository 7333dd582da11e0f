//! Property-based tests over the core invariants.
//!
//! These hammer the contracts the whole reproduction rests on: lossless
//! stages round-trip exactly, lossy codecs never exceed their bounds, and
//! the log transform preserves zeros and signs — for *arbitrary* inputs,
//! not just the synthetic datasets.

use proptest::prelude::*;
use pwrel::core::{LogBase, PwRelCompressor};
use pwrel::data::{AbsErrorCodec, Dims};
use pwrel::fpzip::FpzipCompressor;
use pwrel::isabela::IsabelaCompressor;
use pwrel::lossless::{huffman, lz, rle};
use pwrel::sz::SzCompressor;
use pwrel::zfp::ZfpCompressor;
use pwrel_trace::noop;

/// Finite, non-pathological f32s spanning a wide but bounded range, with
/// zeros mixed in (exponent range where f32 round-off margins are sane).
fn finite_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        5 => (-60i32..60, -1.0f64..1.0).prop_map(|(e, m)| {
            ((1.0 + m.abs()) * (e as f64).exp2() * m.signum()) as f32
        }),
        1 => Just(0.0f32),
    ]
}

fn data_vec() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(finite_f32(), 0..600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lz_round_trips(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let c = lz::compress(&data);
        prop_assert_eq!(lz::decompress(&c).unwrap(), data);
    }

    #[test]
    fn rle_round_trips(bits in prop::collection::vec(any::<bool>(), 0..4096)) {
        let c = rle::compress_bits(&bits);
        let mut pos = 0;
        prop_assert_eq!(rle::decompress_bits(&c, &mut pos, bits.len()).unwrap(), bits);
        prop_assert_eq!(pos, c.len());
    }

    #[test]
    fn huffman_round_trips(syms in prop::collection::vec(0u32..512, 0..2048)) {
        let buf = huffman::encode_symbols(&syms, 512);
        let mut pos = 0;
        prop_assert_eq!(huffman::decode_symbols(&buf, &mut pos).unwrap(), syms);
    }

    #[test]
    fn sz_abs_bound_always_holds(data in data_vec(), eb_exp in -12i32..2) {
        let eb = (eb_exp as f64).exp2();
        let dims = Dims::d1(data.len());
        let sz = SzCompressor::default();
        let stream = sz.compress_abs(&data, dims, eb, noop()).unwrap();
        let (dec, _) = sz.decompress::<f32>(&stream, noop()).unwrap();
        for (&a, &b) in data.iter().zip(&dec) {
            prop_assert!((a as f64 - b as f64).abs() <= eb, "{} vs {} (eb {})", a, b, eb);
        }
    }

    #[test]
    fn zfp_accuracy_bound_always_holds(data in data_vec(), eb_exp in -10i32..2) {
        let eb = (eb_exp as f64).exp2();
        let dims = Dims::d1(data.len());
        let zfp = ZfpCompressor;
        let stream = zfp.compress_accuracy(&data, dims, eb, noop()).unwrap();
        let (dec, _) = zfp.decompress::<f32>(&stream, noop()).unwrap();
        for (&a, &b) in data.iter().zip(&dec) {
            prop_assert!((a as f64 - b as f64).abs() <= eb, "{} vs {} (eb {})", a, b, eb);
        }
    }

    #[test]
    fn sz_t_rel_bound_always_holds(data in data_vec(), br_exp in -10i32..-1) {
        let br = (br_exp as f64).exp2();
        let dims = Dims::d1(data.len());
        let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
        let stream = codec.compress(&data, dims, br, noop()).unwrap();
        let (dec, _) = codec.decompress::<f32>(&stream, noop()).unwrap();
        for (&a, &b) in data.iter().zip(&dec) {
            if a == 0.0 {
                prop_assert_eq!(b, 0.0);
            } else {
                let rel = ((a as f64 - b as f64) / a as f64).abs();
                prop_assert!(rel <= br, "{} vs {} rel (br {})", a, b, br);
            }
        }
    }

    #[test]
    fn zfp_t_rel_bound_always_holds(data in data_vec(), br_exp in -8i32..-1) {
        let br = (br_exp as f64).exp2();
        let dims = Dims::d1(data.len());
        let codec = PwRelCompressor::new(ZfpCompressor, LogBase::Two);
        let stream = codec.compress(&data, dims, br, noop()).unwrap();
        let (dec, _) = codec.decompress::<f32>(&stream, noop()).unwrap();
        for (&a, &b) in data.iter().zip(&dec) {
            if a == 0.0 {
                prop_assert_eq!(b, 0.0);
            } else {
                let rel = ((a as f64 - b as f64) / a as f64).abs();
                prop_assert!(rel <= br, "{} vs {} (br {})", a, b, br);
            }
        }
    }

    #[test]
    fn fpzip_precision_bound_always_holds(data in data_vec(), p in 12u32..30) {
        let dims = Dims::d1(data.len());
        let codec = FpzipCompressor::new(p);
        let bound = pwrel::fpzip::rel_bound_for_precision::<f32>(p);
        let stream = codec.compress(&data, dims).unwrap();
        let (dec, _) = pwrel::fpzip::decompress::<f32>(&stream).unwrap();
        for (&a, &b) in data.iter().zip(&dec) {
            if a == 0.0 {
                prop_assert_eq!(b.to_bits(), a.to_bits());
            } else {
                let rel = ((a as f64 - b as f64) / a as f64).abs();
                prop_assert!(rel <= bound, "{} vs {} (p {})", a, b, p);
            }
        }
    }

    #[test]
    fn isabela_rel_bound_always_holds(data in data_vec(), br_exp in -8i32..-1) {
        let br = (br_exp as f64).exp2();
        let dims = Dims::d1(data.len());
        let codec = IsabelaCompressor { window: 128, knots: 8 };
        let stream = codec.compress_rel(&data, dims, br).unwrap();
        let (dec, _) = pwrel::isabela::decompress::<f32>(&stream).unwrap();
        for (&a, &b) in data.iter().zip(&dec) {
            if a == 0.0 {
                prop_assert_eq!(b, 0.0);
            } else {
                let rel = ((a as f64 - b as f64) / a as f64).abs();
                prop_assert!(rel <= br * (1.0 + 1e-12), "{} vs {} (br {})", a, b, br);
            }
        }
    }

    #[test]
    fn sz_2d_bound_holds(rows in 1usize..24, cols in 1usize..24, eb_exp in -10i32..0, seed in any::<u64>()) {
        // Deterministic pseudo-data from the seed, 2D raster.
        let n = rows * cols;
        let mut x = seed | 1;
        let data: Vec<f32> = (0..n).map(|_| {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            ((x % 20011) as f32 - 10005.0) / 100.0
        }).collect();
        let eb = (eb_exp as f64).exp2();
        let dims = Dims::d2(rows, cols);
        let sz = SzCompressor::default();
        let (dec, _) = sz.decompress::<f32>(&sz.compress_abs(&data, dims, eb, noop()).unwrap(), noop()).unwrap();
        for (&a, &b) in data.iter().zip(&dec) {
            prop_assert!((a as f64 - b as f64).abs() <= eb);
        }
    }
}
