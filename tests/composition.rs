//! Feature-composition tests: the extensions must compose with the paper's
//! transform wrapper without weakening any guarantee.

use pwrel::core::{LogBase, PwRelCompressor};
use pwrel::data::{nyx, Dims, Scale};
use pwrel::parallel::{ChunkedCodec, WorkerPool};
use pwrel::pipeline::{global, CompressOpts, SliceSource, VecSink};
use pwrel::sz::SzCompressor;

fn hybrid_sz() -> SzCompressor {
    SzCompressor {
        hybrid_predictor: true,
        ..SzCompressor::default()
    }
}

#[test]
fn hybrid_predictor_inside_the_wrapper_is_strictly_bounded() {
    let field = nyx::dark_matter_density(Scale::Small);
    let codec = PwRelCompressor::new(hybrid_sz(), LogBase::Two);
    for br in [1e-3, 1e-1] {
        let stream = codec.compress(&field.data, field.dims, br).unwrap();
        let dec: Vec<f32> = codec.decompress(&stream).unwrap();
        for (&a, &b) in field.data.iter().zip(&dec) {
            if a == 0.0 {
                assert_eq!(b, 0.0);
            } else {
                assert!(((a as f64 - b as f64) / a as f64).abs() <= br);
            }
        }
    }
}

#[test]
fn adaptive_capacity_inside_the_wrapper_is_strictly_bounded() {
    let field = nyx::velocity_x(Scale::Small);
    let br = 1e-2;
    // Estimate capacity in the transformed domain, as a user tuning the
    // wrapped codec would: on the log magnitudes.
    let mags: Vec<f32> = field
        .data
        .iter()
        .map(|v| v.abs().max(1e-30).log2())
        .collect();
    let abs_guess = pwrel::core::theory::abs_bound_for(LogBase::Two, br);
    let sz = SzCompressor::adaptive(&mags, field.dims, abs_guess);
    let codec = PwRelCompressor::new(sz, LogBase::Two);
    let stream = codec.compress(&field.data, field.dims, br).unwrap();
    let dec: Vec<f32> = codec.decompress(&stream).unwrap();
    for (&a, &b) in field.data.iter().zip(&dec) {
        if a != 0.0 {
            assert!(((a as f64 - b as f64) / a as f64).abs() <= br);
        }
    }
}

#[test]
fn chunked_wrapper_composition_preserves_bound_and_zeros() {
    let field = nyx::dark_matter_density(Scale::Small);
    let mut data = field.data.clone();
    for v in data.iter_mut().step_by(97) {
        *v = 0.0;
    }
    // About five slab chunks of sz_t, pipelined over three workers.
    let chunked = ChunkedCodec::new(WorkerPool::new(3), field.dims.len().div_ceil(5));
    let br = 1e-2;
    let mut stream = Vec::new();
    chunked
        .compress_stream(
            global(),
            "sz_t",
            &mut SliceSource::new(&data),
            &mut stream,
            field.dims,
            &CompressOpts::rel(br),
        )
        .unwrap();
    let mut sink = VecSink::new();
    let (header, _) = chunked
        .decompress_stream::<f32>(global(), &mut &stream[..], &mut sink)
        .unwrap();
    assert_eq!(header.dims, field.dims);
    let dec = sink.into_inner();
    assert_eq!(dec.len(), data.len());
    for (&a, &b) in data.iter().zip(&dec) {
        if a == 0.0 {
            assert_eq!(b, 0.0, "zeros must survive chunked composition");
        } else {
            assert!(((a as f64 - b as f64) / a as f64).abs() <= br);
        }
    }
}

#[test]
fn spatial_pwr_on_multidim_datasets_beats_nothing_but_stays_bounded() {
    // Changing PWR to spatial blocks for rank >= 2 must keep the bound
    // contract on every dataset field.
    let sz = SzCompressor::default();
    for ds in pwrel::data::all_datasets(Scale::Small) {
        for field in &ds.fields {
            if field.dims.rank() < 2 {
                continue;
            }
            let stream = sz.compress_pwr(&field.data, field.dims, 1e-2).unwrap();
            let (dec, _) = sz.decompress::<f32>(&stream).unwrap();
            for (&a, &b) in field.data.iter().zip(&dec) {
                if a != 0.0 {
                    assert!(
                        ((a as f64 - b as f64) / a as f64).abs() <= 1e-2,
                        "{} in {}",
                        field.name,
                        ds.name
                    );
                }
            }
        }
    }
}

#[test]
fn fixed_rate_zfp_streams_decode_through_generic_decompress() {
    let dims = Dims::d2(32, 48);
    let data: Vec<f32> = (0..dims.len()).map(|i| (i as f32 * 0.05).cos()).collect();
    let zfp = pwrel::zfp::ZfpCompressor;
    let stream = zfp.compress_rate(&data, dims, 10).unwrap();
    let (dec, d) = zfp.decompress::<f32>(&stream).unwrap();
    assert_eq!(d, dims);
    assert_eq!(dec.len(), data.len());
}
