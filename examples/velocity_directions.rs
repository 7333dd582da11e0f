//! Particle-velocity use case: preserving flow directions in HACC-like data.
//!
//! Cosmologists tolerate larger errors on faster particles (the paper's
//! motivation for point-wise relative bounds). This example compresses the
//! three velocity components and measures the *angle skew* between original
//! and reconstructed velocity vectors — Figure 5's metric — for SZ_T and
//! for an absolute-error-bounded baseline of the same stream size.
//!
//! ```sh
//! cargo run --release --example velocity_directions
//! ```

use pwrel::core::{LogBase, PwRelCompressor};
use pwrel::data::{hacc, AbsErrorCodec, Scale};
use pwrel::metrics::skew;
use pwrel::sz::SzCompressor;
use pwrel::trace::noop;

fn main() {
    let fields = [
        hacc::velocity(Scale::Medium, 'x'),
        hacc::velocity(Scale::Medium, 'y'),
        hacc::velocity(Scale::Medium, 'z'),
    ];
    let n = fields[0].data.len();
    println!("{n} particles, 3 components\n");

    // SZ_T at 1% relative bound per component.
    let sz_t = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    let mut szt_bytes = 0usize;
    let szt_dec: Vec<Vec<f32>> = fields
        .iter()
        .map(|f| {
            let s = sz_t
                .compress(&f.data, f.dims, 1e-2, noop())
                .expect("compress");
            szt_bytes += s.len();
            sz_t.decompress::<f32>(&s, noop()).expect("decompress").0
        })
        .collect();

    // Absolute baseline with the same total budget.
    let sz = SzCompressor::default();
    let raw_total: usize = fields.iter().map(|f| f.nbytes()).sum();
    let target_cr = raw_total as f64 / szt_bytes as f64;
    let (mut lo, mut hi) = (1e-4f64, 1e5f64);
    let mut abs_eb = 1.0;
    for _ in 0..24 {
        abs_eb = (lo * hi).sqrt();
        let len: usize = fields
            .iter()
            .map(|f| {
                sz.compress_abs(&f.data, f.dims, abs_eb, noop())
                    .unwrap()
                    .len()
            })
            .sum();
        if (raw_total as f64 / len as f64) < target_cr {
            lo = abs_eb;
        } else {
            hi = abs_eb;
        }
    }
    let abs_dec: Vec<Vec<f32>> = fields
        .iter()
        .map(|f| {
            sz.decompress::<f32>(
                &sz.compress_abs(&f.data, f.dims, abs_eb, noop()).unwrap(),
                noop(),
            )
            .unwrap()
            .0
        })
        .collect();

    for (label, dec) in [
        ("SZ_T (pw rel 1e-2)", &szt_dec),
        ("SZ_ABS (same size)", &abs_dec),
    ] {
        let skews = skew::per_particle_skew(
            &fields[0].data,
            &fields[1].data,
            &fields[2].data,
            &dec[0],
            &dec[1],
            &dec[2],
        );
        let mean = skews.iter().sum::<f64>() / skews.len() as f64;
        let max = skews.iter().cloned().fold(0.0f64, f64::max);
        println!("{label:22} mean skew {mean:7.4}°   max skew {max:7.2}°");
    }
    println!("\ncompression ratio: {target_cr:.2}x for both");
    println!("the relative bound keeps every particle's direction; the absolute");
    println!("bound lets slow particles point anywhere.");
}
