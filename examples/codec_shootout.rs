//! Compares every point-wise-relative compressor in the workspace on a 2D
//! climate field — a miniature of the paper's Figure 2/3 sweep.
//!
//! ```sh
//! cargo run --release --example codec_shootout
//! ```

use pwrel::core::{LogBase, PwRelCompressor};
use pwrel::data::{cesm, Scale};
use pwrel::fpzip::FpzipCompressor;
use pwrel::isabela::IsabelaCompressor;
use pwrel::metrics::{compression_ratio, RelErrorStats};
use pwrel::sz::SzCompressor;
use pwrel::trace::noop;
use pwrel::zfp::ZfpCompressor;
use std::time::Instant;

fn main() {
    let field = cesm::cloud_fraction(Scale::Medium, "CLDHGH", 0xCE51_0001);
    let br = 1e-2;
    println!(
        "field {} ({}), zero fraction {:.1}%, bound {br}\n",
        field.name,
        field.dims,
        field.zero_fraction() * 100.0
    );
    println!(
        "{:<8} {:>8} {:>12} {:>12} {:>12} {:>8}",
        "codec", "CR", "comp (ms)", "dec (ms)", "max rel E", "zeros ok"
    );

    type Run = (&'static str, Box<dyn Fn() -> (Vec<u8>, Vec<f32>)>);
    let sz_t = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    let zfp_t = PwRelCompressor::new(ZfpCompressor, LogBase::Two);
    let runs: Vec<Run> = vec![
        (
            "SZ_T",
            Box::new({
                let f = field.clone();
                move || {
                    let s = sz_t.compress(&f.data, f.dims, br, noop()).unwrap();
                    let (d, _) = sz_t.decompress::<f32>(&s, noop()).unwrap();
                    (s, d)
                }
            }),
        ),
        (
            "ZFP_T",
            Box::new({
                let f = field.clone();
                move || {
                    let s = zfp_t.compress(&f.data, f.dims, br, noop()).unwrap();
                    let (d, _) = zfp_t.decompress::<f32>(&s, noop()).unwrap();
                    (s, d)
                }
            }),
        ),
        (
            "SZ_PWR",
            Box::new({
                let f = field.clone();
                move || {
                    let sz = SzCompressor::default();
                    let s = sz.compress_pwr(&f.data, f.dims, br).unwrap();
                    let d = sz.decompress::<f32>(&s, noop()).unwrap().0;
                    (s, d)
                }
            }),
        ),
        (
            "FPZIP",
            Box::new({
                let f = field.clone();
                move || {
                    let fp = FpzipCompressor::for_rel_bound::<f32>(br);
                    let s = fp.compress(&f.data, f.dims).unwrap();
                    let d = pwrel::fpzip::decompress::<f32>(&s).unwrap().0;
                    (s, d)
                }
            }),
        ),
        (
            "ISABELA",
            Box::new({
                let f = field.clone();
                move || {
                    let isa = IsabelaCompressor::default();
                    let s = isa.compress_rel(&f.data, f.dims, br).unwrap();
                    let d = pwrel::isabela::decompress::<f32>(&s).unwrap().0;
                    (s, d)
                }
            }),
        ),
    ];

    for (name, run) in runs {
        let t0 = Instant::now();
        let (stream, dec) = run();
        let elapsed = t0.elapsed().as_secs_f64();
        let stats = RelErrorStats::compute(&field.data, &dec, br);
        println!(
            "{:<8} {:>8.2} {:>12.1} {:>12} {:>12} {:>8}",
            name,
            compression_ratio(field.nbytes(), stream.len()),
            elapsed * 1e3,
            "-",
            if stats.max_rel.is_finite() {
                format!("{:.2e}", stats.max_rel)
            } else {
                "inf".into()
            },
            stats.broken_zeros == 0
        );
    }
    println!("\n(SZ_T should lead the ratio column while staying within the bound)");
}
