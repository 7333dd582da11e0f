//! Every registered codec through the unified container: proptest
//! round-trips over element types and ranks, plus hostile-input checks
//! (corrupt, truncated, wrong codec id) that must error, never panic.

use proptest::prelude::*;
use pwrel::data::Dims;
use pwrel::pipeline::{global, CompressOpts, CONTAINER_MAGIC};

/// Strictly positive finite values — every roster codec (including the
/// no-point-wise-guarantee zfp_p) decodes these to the right shape, and
/// the transform codecs' relative bound is checkable.
fn positive_f64() -> impl Strategy<Value = f64> {
    (-40i32..40, 0.0f64..1.0).prop_map(|(e, m)| (1.0 + m) * (e as f64).exp2())
}

/// 1D/2D/3D shapes with matched data length.
fn dims_and_len() -> impl Strategy<Value = Dims> {
    prop_oneof![
        (1usize..400).prop_map(Dims::d1),
        (1usize..24, 1usize..24).prop_map(|(a, b)| Dims::d2(a, b)),
        (1usize..10, 1usize..10, 1usize..10).prop_map(|(a, b, c)| Dims::d3(a, b, c)),
    ]
}

fn field() -> impl Strategy<Value = (Dims, Vec<f64>)> {
    // The shim has no prop_flat_map: draw a fixed-size pool and tile it
    // to the drawn shape (max shape is 9x9x9 = 729 < 1000).
    (
        dims_and_len(),
        prop::collection::vec(positive_f64(), 1000..1001),
    )
        .prop_map(|(dims, pool)| {
            let data = (0..dims.len()).map(|i| pool[i % pool.len()]).collect();
            (dims, data)
        })
}

/// Codecs with a point-wise relative guarantee (everything but zfp_p,
/// whose fixed-precision mode only tracks the bound loosely).
const PW_REL_CODECS: [&str; 7] = [
    "sz_t",
    "sz_hybrid_t",
    "zfp_t",
    "sz_abs",
    "sz_pwr",
    "fpzip",
    "isabela",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_codec_round_trips_f32(f in field()) {
        let (dims, data) = f;
        let data: Vec<f32> = data.iter().map(|&v| v as f32).collect();
        for codec in global().iter() {
            let stream = global()
                .compress(codec.name(), &data, dims, &CompressOpts::rel(1e-2))
                .unwrap();
            prop_assert_eq!(&stream[..4], &CONTAINER_MAGIC[..], "{}", codec.name());
            let (dec, d) = global().decompress::<f32>(&stream).unwrap();
            prop_assert_eq!(d, dims, "{}", codec.name());
            prop_assert_eq!(dec.len(), data.len(), "{}", codec.name());
        }
    }

    #[test]
    fn every_codec_round_trips_f64(f in field()) {
        let (dims, data) = f;
        for codec in global().iter() {
            let stream = global()
                .compress(codec.name(), &data, dims, &CompressOpts::rel(1e-2))
                .unwrap();
            let (dec, d) = global().decompress::<f64>(&stream).unwrap();
            prop_assert_eq!(d, dims, "{}", codec.name());
            prop_assert_eq!(dec.len(), data.len(), "{}", codec.name());
        }
    }

    #[test]
    fn rel_bound_holds_through_the_container(f in field()) {
        let (dims, data) = f;
        let data: Vec<f32> = data.iter().map(|&v| v as f32).collect();
        let br = 1e-3;
        for name in ["sz_t", "zfp_t"] {
            let stream = global()
                .compress(name, &data, dims, &CompressOpts::rel(br))
                .unwrap();
            let (dec, _) = global().decompress::<f32>(&stream).unwrap();
            for (&a, &b) in data.iter().zip(&dec) {
                let rel = ((a as f64 - b as f64) / a as f64).abs();
                prop_assert!(rel <= br, "{name}: {a} vs {b} (rel {rel})");
            }
        }
    }

    #[test]
    fn truncations_error_not_panic(f in field(), frac in 0.0f64..1.0) {
        let (dims, data) = f;
        let data: Vec<f32> = data.iter().map(|&v| v as f32).collect();
        let stream = global()
            .compress("sz_t", &data, dims, &CompressOpts::rel(1e-2))
            .unwrap();
        let cut = (stream.len() as f64 * frac) as usize;
        prop_assert!(global().decompress::<f32>(&stream[..cut]).is_err());
    }

    #[test]
    fn byte_flips_never_panic(f in field(), pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let (dims, data) = f;
        let data: Vec<f32> = data.iter().map(|&v| v as f32).collect();
        let mut stream = global()
            .compress("sz_t", &data, dims, &CompressOpts::rel(1e-2))
            .unwrap();
        let pos = ((stream.len() - 1) as f64 * pos_frac) as usize;
        stream[pos] ^= flip;
        // Either a decode error or a (wrong) success — never a panic.
        let _ = global().decompress::<f32>(&stream);
    }
}

#[test]
fn all_point_wise_codecs_honour_the_bound_on_a_fixed_field() {
    let dims = Dims::d3(8, 9, 10);
    let data: Vec<f32> = (0..dims.len())
        .map(|i| ((i as f32) * 0.37).sin().abs() * 10f32.powi((i % 5) as i32 - 2) + 1e-3)
        .collect();
    let br = 1e-2;
    for name in PW_REL_CODECS {
        if name == "sz_abs" {
            continue; // interprets the bound as absolute, not relative
        }
        let stream = global()
            .compress(name, &data, dims, &CompressOpts::rel(br))
            .unwrap();
        let (dec, _) = global().decompress::<f32>(&stream).unwrap();
        for (&a, &b) in data.iter().zip(&dec) {
            let rel = ((a as f64 - b as f64) / a as f64).abs();
            // ISABELA's spline fit is bounded up to rounding.
            assert!(rel <= br * (1.0 + 1e-9), "{name}: {a} vs {b} (rel {rel})");
        }
    }
}

#[test]
fn wrong_codec_id_errors_not_panics() {
    let data: Vec<f32> = (1..200).map(|i| i as f32).collect();
    let dims = Dims::d1(data.len());
    let mut stream = global()
        .compress("sz_t", &data, dims, &CompressOpts::rel(1e-2))
        .unwrap();
    // Byte 5 is the codec id. Point it at every format-incompatible
    // codec: the payload is an SZ_T stream, so each must fail cleanly.
    // (sz_hybrid_t shares the SZ_T stream format — the predictor choice
    // is recorded in the stream — so it decodes this payload correctly
    // and is excluded.)
    for codec in global()
        .iter()
        .filter(|c| c.name() != "sz_t" && c.name() != "sz_hybrid_t")
    {
        stream[5] = codec.id();
        assert!(
            global().decompress::<f32>(&stream).is_err(),
            "{} decoded a foreign payload",
            codec.name()
        );
    }
    // An unregistered id is invalid outright.
    stream[5] = 250;
    assert!(global().decompress::<f32>(&stream).is_err());
}

#[test]
fn zfp_p_takes_f32_bounds_past_the_f32_precision_range() {
    // Below about 3.8e-6 the paper's precision heuristic asks for more
    // planes than an f32 stream carries; it is clamped to the 34 that fit.
    // Fixed precision bounds the error by the block's largest value, not
    // point-wise, so the check is against the field's largest magnitude.
    let dims = Dims::d3(16, 16, 16);
    let data: Vec<f32> = (0..dims.len())
        .map(|i| ((i as f32) * 0.37).sin() * 10f32.powi((i % 5) as i32 - 2))
        .collect();
    let max = data.iter().fold(0f32, |m, &x| m.max(x.abs()));
    for br in [1e-6, 1e-9] {
        let stream = global()
            .compress("zfp_p", &data, dims, &CompressOpts::rel(br))
            .unwrap();
        let (dec, d) = global().decompress::<f32>(&stream).unwrap();
        assert_eq!(d, dims);
        for (&a, &b) in data.iter().zip(&dec) {
            assert!((a - b).abs() <= 1e-6 * max, "b_r = {br}: {a} vs {b}");
        }
    }
}

#[test]
fn elem_width_mismatch_is_mismatch_error() {
    use pwrel::data::CodecError;
    let data: Vec<f32> = (1..64).map(|i| i as f32).collect();
    let stream = global()
        .compress(
            "zfp_t",
            &data,
            Dims::d1(data.len()),
            &CompressOpts::rel(1e-2),
        )
        .unwrap();
    assert!(matches!(
        global().decompress::<f64>(&stream),
        Err(CodecError::Mismatch(_))
    ));
}

#[test]
fn bare_codec_payloads_are_mismatch() {
    use pwrel::core::{LogBase, PwRelCompressor};
    use pwrel::data::{AbsErrorCodec, CodecError};
    use pwrel::sz::SzCompressor;
    use pwrel::zfp::ZfpCompressor;
    use pwrel_trace::noop;

    let data: Vec<f32> = (1..3000).map(|i| (i as f32).ln() + 0.5).collect();
    let dims = Dims::d1(data.len());

    // A codec's own payload, without the PWU1 or PWS1 header around it,
    // is not a registry stream: it decodes through its own codec.
    let sz_t = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    let bare_szt = sz_t.compress(&data, dims, 1e-3, noop()).unwrap();
    let bare_zfpt = PwRelCompressor::new(ZfpCompressor, LogBase::Ten)
        .compress(&data, dims, 1e-3, noop())
        .unwrap();
    let bare_sz = SzCompressor::default()
        .compress_abs(&data, dims, 1e-3, noop())
        .unwrap();
    for (tag, stream) in [
        ("sz_t", &bare_szt),
        ("zfp_t", &bare_zfpt),
        ("sz_abs", &bare_sz),
    ] {
        assert!(
            matches!(
                global().decompress::<f32>(stream),
                Err(CodecError::Mismatch(_))
            ),
            "{tag}"
        );
        assert_eq!(pwrel::pipeline::identify(stream), None, "{tag}");
    }
    let (back, d) = sz_t.decompress::<f32>(&bare_szt, noop()).unwrap();
    assert_eq!((back.len(), d), (data.len(), dims));
}

#[test]
fn unrecognized_streams_are_mismatch() {
    use pwrel::data::CodecError;
    assert!(matches!(
        global().decompress::<f32>(b"this is not a compressed stream"),
        Err(CodecError::Mismatch(_))
    ));
    assert!(global().decompress::<f32>(&[]).is_err());
}
