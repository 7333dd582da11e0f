//! Error-distribution signatures of the real codecs (after the paper's
//! reference [7]): SZ's linear-scaling quantization leaves near-uniform
//! errors; the bound is tight against the error support.

use pwrel::data::{grf, AbsErrorCodec, Dims};
use pwrel::metrics::ErrorDistribution;
use pwrel::sz::SzCompressor;
use pwrel::zfp::ZfpCompressor;
use pwrel_trace::noop;

#[test]
fn sz_errors_are_near_uniform_within_the_bound() {
    let dims = Dims::d2(128, 128);
    let data = grf::gaussian_field(dims, 21, 2, 2);
    let eb = 1e-3;
    let sz = SzCompressor::default();
    let (dec, _) = sz
        .decompress::<f32>(&sz.compress_abs(&data, dims, eb, noop()).unwrap(), noop())
        .unwrap();
    let dist = ErrorDistribution::compute(&data, &dec, 20, Some(eb));
    // Unbiased, flat-ish, and filling the [-eb, eb] support.
    assert!(dist.mean.abs() < eb * 0.05, "bias {}", dist.mean);
    assert!(
        dist.excess_kurtosis < -0.6,
        "SZ errors should look uniform (kurtosis {})",
        dist.excess_kurtosis
    );
    assert!(
        dist.uniformity_distance() < 0.15,
        "uniformity distance {}",
        dist.uniformity_distance()
    );
    // Quantization uses the whole ±eb interval.
    assert!(dist.std > eb * 0.4, "std {} vs eb {eb}", dist.std);
}

#[test]
fn zfp_errors_are_peaked_relative_to_its_bound() {
    // ZFP's conservative cutoff leaves errors far inside the tolerance:
    // relative to the *requested* bound the distribution is strongly
    // concentrated near zero — the over-preservation of Table IV.
    let dims = Dims::d2(128, 128);
    let data = grf::gaussian_field(dims, 22, 2, 2);
    let tol = 1e-3;
    let zfp = ZfpCompressor;
    let (dec, _) = zfp
        .decompress::<f32>(
            &zfp.compress_accuracy(&data, dims, tol, noop()).unwrap(),
            noop(),
        )
        .unwrap();
    let dist = ErrorDistribution::compute(&data, &dec, 20, Some(tol));
    assert!(
        dist.central_mass() > 0.9,
        "ZFP errors should sit well inside the tolerance (central mass {})",
        dist.central_mass()
    );
    assert!(dist.std < tol * 0.2, "std {} vs tol {tol}", dist.std);
}
