//! Cosmology use case: compressing a NYX-like dark-matter-density field.
//!
//! Density fields are the paper's flagship example for point-wise relative
//! bounds: 84% of the values live in [0, 1] while the tail reaches ~1e4, so
//! an absolute bound tuned to the tail obliterates the dense regions that
//! cosmologists analyse. This example compares SZ in absolute mode against
//! SZ_T at matched compression ratio and reports what happens to the small
//! values.
//!
//! ```sh
//! cargo run --release --example cosmology_density
//! ```

use pwrel::core::{LogBase, PwRelCompressor};
use pwrel::data::{nyx, AbsErrorCodec, Scale};
use pwrel::metrics::RelErrorStats;
use pwrel::sz::SzCompressor;
use pwrel::trace::noop;

fn main() {
    let field = nyx::dark_matter_density(Scale::Medium);
    let raw = field.nbytes();
    println!(
        "field {} ({}), {:.1} MB",
        field.name,
        field.dims,
        raw as f64 / 1e6
    );

    let below_one = field.data.iter().filter(|&&v| v <= 1.0).count();
    println!(
        "{:.1}% of values in [0, 1]; max = {:.1}\n",
        below_one as f64 / field.data.len() as f64 * 100.0,
        field.min_max().unwrap().1
    );

    // Compress with SZ_T at a 1% point-wise relative bound.
    let sz_t = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    let rel_stream = sz_t
        .compress(&field.data, field.dims, 1e-2, noop())
        .expect("sz_t");
    let (rel_dec, _) = sz_t
        .decompress::<f32>(&rel_stream, noop())
        .expect("sz_t dec");
    let target_cr = raw as f64 / rel_stream.len() as f64;

    // Give SZ's absolute mode the same budget: pick the absolute bound that
    // produces (approximately) the same stream size.
    let sz = SzCompressor::default();
    let (mut lo, mut hi) = (1e-8f64, 1e4f64);
    let mut abs_stream = Vec::new();
    for _ in 0..24 {
        let eb = (lo * hi).sqrt();
        abs_stream = sz
            .compress_abs(&field.data, field.dims, eb, noop())
            .expect("sz abs");
        if (raw as f64 / abs_stream.len() as f64) < target_cr {
            lo = eb;
        } else {
            hi = eb;
        }
    }
    let abs_dec: Vec<f32> = sz.decompress(&abs_stream, noop()).expect("sz abs dec").0;

    // Compare relative-error behaviour in the dense region (values <= 1).
    let small_idx: Vec<usize> = (0..field.data.len())
        .filter(|&i| field.data[i] > 0.0 && field.data[i] <= 1.0)
        .collect();
    let small_rel_err = |dec: &[f32]| -> (f64, f64) {
        let mut max = 0f64;
        let mut sum = 0f64;
        for &i in &small_idx {
            let e = ((field.data[i] as f64 - dec[i] as f64) / field.data[i] as f64).abs();
            max = max.max(e);
            sum += e;
        }
        (sum / small_idx.len() as f64, max)
    };

    let cr_rel = raw as f64 / rel_stream.len() as f64;
    let cr_abs = raw as f64 / abs_stream.len() as f64;
    let (avg_rel, max_rel) = small_rel_err(&rel_dec);
    let (avg_abs, max_abs) = small_rel_err(&abs_dec);
    println!("at matched compression ratio (~{cr_rel:.1}x vs ~{cr_abs:.1}x):");
    println!("  SZ_T  : dense-region relative error avg {avg_rel:.2e}, max {max_rel:.2e}");
    println!("  SZ_ABS: dense-region relative error avg {avg_abs:.2e}, max {max_abs:.2e}");
    println!(
        "\nSZ_T keeps the dense region {0:.0}x more accurate (by max relative error).",
        max_abs / max_rel
    );

    let stats = RelErrorStats::compute(&field.data, &rel_dec, 1e-2);
    assert!(stats.max_rel <= 1e-2, "bound must hold");
    assert!(
        max_abs > 10.0 * max_rel,
        "abs mode should distort small values"
    );
}
