#![forbid(unsafe_code)]
//! Figure 1: rate distortion (relative-error-based PSNR vs bit rate) of
//! ZFP_T under logarithm bases 2, e and 10, on the two NYX fields.
//!
//! Paper claim (Lemma 4): decorrelation efficiency and coding gain are
//! base-independent, so the three curves coincide.

use pwrel_bench::scale_from_env;
use pwrel_core::{LogBase, PwRelCompressor};
use pwrel_data::nyx;
use pwrel_metrics::{bit_rate, rel_psnr, RateDistortionCurve};
use pwrel_trace::noop;
use pwrel_zfp::ZfpCompressor;

fn main() {
    let scale = scale_from_env();
    let bounds = [3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 2e-1];
    let bases = [LogBase::Two, LogBase::E, LogBase::Ten];

    println!("Figure 1: rate distortion of different bases for ZFP_T on 2 fields in NYX\n");
    for field in [nyx::dark_matter_density(scale), nyx::velocity_x(scale)] {
        println!("--- {} ({}) ---", field.name, field.dims);
        println!(
            "{:>10} {:>8} {:>14} {:>14}",
            "base", "br", "bit-rate", "rel-PSNR (dB)"
        );
        let mut curves = Vec::new();
        for &base in &bases {
            let codec = PwRelCompressor::new(ZfpCompressor, base);
            let mut curve = RateDistortionCurve::new(format!("base_{base:?}"));
            for &br in &bounds {
                let bytes = codec.compress(&field.data, field.dims, br, noop()).unwrap();
                let (dec, _) = codec.decompress::<f32>(&bytes, noop()).unwrap();
                let rate = bit_rate(bytes.len(), field.data.len());
                let psnr = rel_psnr(&field.data, &dec);
                println!(
                    "{:>10} {:>8} {:>14.3} {:>14.2}",
                    format!("{base:?}"),
                    br,
                    rate,
                    psnr
                );
                curve.push(rate, psnr);
            }
            curves.push(curve);
        }
        let gap_e = curves[0].max_gap(&curves[1], 32).unwrap_or(f64::NAN);
        let gap_10 = curves[0].max_gap(&curves[2], 32).unwrap_or(f64::NAN);
        println!(
            "max PSNR gap at matched rate: base2-vs-e {gap_e:.2} dB, base2-vs-10 {gap_10:.2} dB"
        );
        println!("(paper: \"different bases make little difference\")\n");
    }
}
