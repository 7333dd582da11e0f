//! Feature-composition tests: the extensions must compose with the paper's
//! transform wrapper without weakening any guarantee.

use pwrel::data::{nyx, Scale};
use pwrel::parallel::{ChunkedCodec, WorkerPool};
use pwrel::pipeline::{global, CompressOpts, SliceSource, VecSink};
use pwrel::sz::SzCompressor;
use pwrel_trace::noop;

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
            let (dec, _) = sz.decompress::<f32>(&stream, noop()).unwrap();
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
