//! Cross-crate integration: every point-wise-relative codec on every
//! synthetic application dataset, verifying the bound contract end-to-end.

use pwrel::core::{LogBase, PwRelCompressor};
use pwrel::data::{all_datasets, AbsErrorCodec, Field, Scale};
use pwrel::fpzip::FpzipCompressor;
use pwrel::isabela::IsabelaCompressor;
use pwrel::metrics::RelErrorStats;
use pwrel::sz::SzCompressor;
use pwrel::zfp::ZfpCompressor;
use pwrel_trace::noop;

/// Strict contract: bound holds everywhere and zeros decode exactly.
fn assert_strict(field: &Field<f32>, dec: &[f32], br: f64, tag: &str) {
    let stats = RelErrorStats::compute(&field.data, dec, br);
    assert_eq!(
        stats.broken_zeros, 0,
        "{tag} on {}: {} zeros broken",
        field.name, stats.broken_zeros
    );
    assert!(
        stats.max_rel <= br,
        "{tag} on {}: max rel {} > {br}",
        field.name,
        stats.max_rel
    );
}

#[test]
fn sz_t_strict_on_all_datasets() {
    let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    for ds in all_datasets(Scale::Small) {
        for field in &ds.fields {
            for br in [1e-3, 1e-1] {
                let s = codec.compress(&field.data, field.dims, br, noop()).unwrap();
                let (dec, _) = codec.decompress::<f32>(&s, noop()).unwrap();
                assert_strict(field, &dec, br, "SZ_T");
            }
        }
    }
}

#[test]
fn zfp_t_strict_on_all_datasets() {
    let codec = PwRelCompressor::new(ZfpCompressor, LogBase::Two);
    for ds in all_datasets(Scale::Small) {
        for field in &ds.fields {
            let s = codec
                .compress(&field.data, field.dims, 1e-2, noop())
                .unwrap();
            let (dec, _) = codec.decompress::<f32>(&s, noop()).unwrap();
            assert_strict(field, &dec, 1e-2, "ZFP_T");
        }
    }
}

#[test]
fn fpzip_strict_on_all_datasets() {
    for ds in all_datasets(Scale::Small) {
        for field in &ds.fields {
            let br = 1e-2;
            let codec = FpzipCompressor::for_rel_bound::<f32>(br);
            let s = codec.compress(&field.data, field.dims).unwrap();
            let (dec, _) = pwrel::fpzip::decompress::<f32>(&s).unwrap();
            assert_strict(field, &dec, br, "FPZIP");
        }
    }
}

#[test]
fn isabela_strict_on_all_datasets() {
    let codec = IsabelaCompressor::default();
    for ds in all_datasets(Scale::Small) {
        for field in &ds.fields {
            let s = codec.compress_rel(&field.data, field.dims, 1e-2).unwrap();
            let (dec, _) = pwrel::isabela::decompress::<f32>(&s).unwrap();
            assert_strict(field, &dec, 1e-2 * (1.0 + 1e-12), "ISABELA");
        }
    }
}

#[test]
fn sz_pwr_bounded_on_nonzero_data() {
    // SZ_PWR guarantees the bound for non-zero values; zeros may come back
    // approximate (the paper's `*`). Check both behaviours.
    let codec = SzCompressor::default();
    for ds in all_datasets(Scale::Small) {
        for field in &ds.fields {
            let br = 1e-2;
            let s = codec.compress_pwr(&field.data, field.dims, br).unwrap();
            let (dec, _) = codec.decompress::<f32>(&s, noop()).unwrap();
            for (idx, (&a, &b)) in field.data.iter().zip(&dec).enumerate() {
                if a != 0.0 {
                    let rel = ((a as f64 - b as f64) / a as f64).abs();
                    assert!(rel <= br, "SZ_PWR on {} idx {idx}: rel {rel}", field.name);
                }
            }
        }
    }
}

#[test]
fn sz_t_dominates_baselines_on_every_dataset() {
    // The headline Figure 2 claim at one representative bound.
    let br = 1e-2;
    let sz_t = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    let sz = SzCompressor::default();
    let isa = IsabelaCompressor::default();
    for ds in all_datasets(Scale::Small) {
        let mut raw = 0usize;
        let (mut t, mut pwr, mut isab) = (0usize, 0usize, 0usize);
        for field in &ds.fields {
            raw += field.nbytes();
            t += sz_t
                .compress(&field.data, field.dims, br, noop())
                .unwrap()
                .len();
            pwr += sz.compress_pwr(&field.data, field.dims, br).unwrap().len();
            isab += isa.compress_rel(&field.data, field.dims, br).unwrap().len();
        }
        let _ = raw;
        assert!(t < pwr, "{}: SZ_T {} !< SZ_PWR {}", ds.name, t, pwr);
        assert!(t < isab, "{}: SZ_T {} !< ISABELA {}", ds.name, t, isab);
    }
}

#[test]
fn f64_pipeline_end_to_end() {
    let ds = all_datasets(Scale::Small);
    let field = ds[2].fields[0].to_f64(); // NYX dark matter density
    let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    let s = codec
        .compress(&field.data, field.dims, 1e-4, noop())
        .unwrap();
    let (dec, _) = codec.decompress::<f64>(&s, noop()).unwrap();
    for (&a, &b) in field.data.iter().zip(&dec) {
        if a != 0.0 {
            assert!(((a - b) / a).abs() <= 1e-4);
        } else {
            assert_eq!(b, 0.0);
        }
    }
}

#[test]
fn streams_are_self_identifying() {
    // Feeding one codec's stream to another must error, never panic or
    // silently decode.
    let field = &all_datasets(Scale::Small)[2].fields[0];
    let sz_t = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    let sz_stream = SzCompressor::default()
        .compress_abs(&field.data, field.dims, 0.1, noop())
        .unwrap();
    let pwt_stream = sz_t.compress(&field.data, field.dims, 0.1, noop()).unwrap();
    let zfp_stream = ZfpCompressor
        .compress_accuracy(&field.data, field.dims, 0.1, noop())
        .unwrap();

    assert!(sz_t.decompress::<f32>(&sz_stream, noop()).is_err());
    assert!(SzCompressor::default()
        .decompress::<f32>(&zfp_stream, noop())
        .is_err());
    assert!(ZfpCompressor
        .decompress::<f32>(&pwt_stream, noop())
        .is_err());
    assert!(pwrel::fpzip::decompress::<f32>(&sz_stream).is_err());
    assert!(pwrel::isabela::decompress::<f32>(&pwt_stream).is_err());
}
