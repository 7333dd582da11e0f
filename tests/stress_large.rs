//! Large-scale stress tests (ignored by default; run with
//! `cargo test --release -- --ignored`).

use pwrel::core::{LogBase, PwRelCompressor};
use pwrel::data::{nyx, Scale};
use pwrel::metrics::{compression_ratio, RelErrorStats};
use pwrel::sz::SzCompressor;
use pwrel_trace::noop;

#[test]
#[ignore = "large-scale: ~128 MB working set, run explicitly in release"]
fn sz_t_bounded_on_large_nyx_density() {
    let field = nyx::dark_matter_density(Scale::Large); // 256^3
    let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    let br = 1e-2;
    let stream = codec.compress(&field.data, field.dims, br, noop()).unwrap();
    let (dec, _) = codec.decompress::<f32>(&stream, noop()).unwrap();
    let stats = RelErrorStats::compute(&field.data, &dec, br);
    assert_eq!(stats.broken_zeros, 0);
    assert!(stats.max_rel <= br, "max rel {}", stats.max_rel);
    let cr = compression_ratio(field.nbytes(), stream.len());
    assert!(cr > 4.0, "cr = {cr}");
}

#[test]
#[ignore = "large-scale: 32M-particle HACC component"]
fn hacc_large_round_trip() {
    let field = pwrel::data::hacc::velocity(Scale::Large, 'x');
    let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    let stream = codec
        .compress(&field.data, field.dims, 1e-1, noop())
        .unwrap();
    let (dec, _) = codec.decompress::<f32>(&stream, noop()).unwrap();
    let stats = RelErrorStats::compute(&field.data, &dec, 1e-1);
    assert!(stats.max_rel <= 1e-1);
}
