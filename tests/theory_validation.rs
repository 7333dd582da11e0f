//! Empirical validation of the paper's theory against the real coders.
//!
//! The unit tests in `pwrel-core` check the theorems as formulas; here we
//! check them against the actual compression pipeline: Theorem 3 on SZ's
//! real quantization indices, Theorem 2's uniqueness by showing a
//! plausible *alternative* mapping breaks the bound, and Lemma 4 through
//! compressed sizes.

use pwrel::core::{theory, transform, Kernel, LogBase, PwRelCompressor};
use pwrel::data::{nyx, Dims, Scale};
use pwrel::sz::{self, SzCompressor};
use pwrel_trace::noop;

/// Theorem 3: quantization indices under two bases differ by at most
/// `neighbours × |log_{1+br}(1−br) − 1|` (plus one for the rounding of the
/// index itself), measured on the real SZ coder.
#[test]
fn theorem3_quant_index_deviation_on_real_coder() {
    let field = nyx::dark_matter_density(Scale::Small);
    let cfg = SzCompressor::default();
    for br in [1e-3, 1e-2, 1e-1] {
        let codes: Vec<Vec<u32>> = [LogBase::Two, LogBase::E, LogBase::Ten]
            .iter()
            .map(|&base| {
                let t = transform::forward(&field.data, base, br, 2.0, Kernel::Fast).unwrap();
                sz::quantization_codes(&t.mapped, field.dims, t.abs_bound, &cfg)
            })
            .collect();
        // Theorem 3's bound for 3D (7 neighbours), plus 1 for the final
        // round() of the index itself.
        let limit = (7.0 * theory::quant_index_deviation(br)).ceil() + 1.0;
        let mut worst = 0i64;
        let mut diffs = 0usize;
        for (a, b) in codes[0].iter().zip(&codes[1]) {
            if *a == 0 || *b == 0 {
                continue; // unpredictable escapes have no index
            }
            let d = (*a as i64 - *b as i64).abs();
            worst = worst.max(d);
            if d > 0 {
                diffs += 1;
            }
        }
        assert!(
            (worst as f64) <= limit,
            "br {br}: worst index deviation {worst} > theorem bound {limit}"
        );
        // Deviations should also be rare, not just bounded.
        assert!(
            diffs < codes[0].len() / 2,
            "br {br}: {diffs}/{} indices moved",
            codes[0].len()
        );
    }
}

/// Theorem 2 (uniqueness): a square-root mapping with the matching bound
/// map fails to deliver the relative bound that the log mapping delivers.
#[test]
fn alternative_sqrt_mapping_violates_relative_bound() {
    // Candidate scheme: f(x) = sqrt(x), b_a chosen so the bound holds at
    // x = 1 (any single calibration point; uniqueness says no constant
    // works for all x).
    let br = 0.1f64;
    let ba = (1.0f64 + br).sqrt() - 1.0;
    let mut worst: f64 = 0.0;
    for x in [1e-6f64, 1e-2, 1.0, 1e2, 1e6] {
        let rec = (x.sqrt() + ba).powi(2); // worst-case +ba excursion
        worst = worst.max((rec - x).abs() / x);
    }
    assert!(
        worst > 10.0 * br,
        "sqrt mapping should blow the bound on small x (worst {worst})"
    );

    // The log mapping with its g(br) holds everywhere, by contrast.
    let ba_log = theory::abs_bound_for(LogBase::Two, br);
    let mut worst_log: f64 = 0.0;
    for x in [1e-6f64, 1e-2, 1.0, 1e2, 1e6] {
        let rec = (x.log2() + ba_log).exp2();
        worst_log = worst_log.max((rec - x).abs() / x);
    }
    assert!(
        worst_log <= br * (1.0 + 1e-9),
        "log mapping worst {worst_log}"
    );
}

/// Lemma 3/4 at the pipeline level: compressed sizes across bases agree to
/// a few percent for both SZ_T and ZFP_T.
#[test]
fn base_choice_does_not_move_compressed_sizes() {
    let field = nyx::velocity_x(Scale::Small);
    for br in [1e-3, 1e-1] {
        let sz_sizes: Vec<usize> = [LogBase::Two, LogBase::E, LogBase::Ten]
            .iter()
            .map(|&b| {
                PwRelCompressor::new(SzCompressor::default(), b)
                    .compress(&field.data, field.dims, br, noop())
                    .unwrap()
                    .len()
            })
            .collect();
        let max = *sz_sizes.iter().max().unwrap() as f64;
        let min = *sz_sizes.iter().min().unwrap() as f64;
        assert!(max / min < 1.06, "br {br}: sizes {sz_sizes:?}");
    }
}

/// The error-bound mapping is exercised end-to-end: compressing in the
/// transformed domain with exactly `g(b_r)` (no round-off guard) on
/// *narrow-range* data still holds, because the correction term is only
/// needed when `max|log x|·ε0` is comparable to the bound.
#[test]
fn guardless_bound_holds_on_narrow_range_data() {
    let dims = Dims::d1(10_000);
    let data: Vec<f32> = (0..dims.len())
        .map(|i| 1.0 + 0.5 * ((i as f32) * 0.01).sin())
        .collect();
    let mut codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    codec.roundoff_guard = 0.0;
    let br = 1e-3;
    let stream = codec.compress(&data, dims, br, noop()).unwrap();
    let (dec, _) = codec.decompress::<f32>(&stream, noop()).unwrap();
    for (&a, &b) in data.iter().zip(&dec) {
        assert!(((a as f64 - b as f64) / a as f64).abs() <= br * (1.0 + 1e-9));
    }
}
