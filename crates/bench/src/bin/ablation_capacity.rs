#![forbid(unsafe_code)]
//! Ablation: SZ's quantization-interval capacity.
//!
//! SZ quantizes prediction errors into `capacity` bins; errors that fall
//! outside become verbatim "unpredictable" values. Too few bins push
//! hard-to-predict points into the 4-byte escape path; too many bins cost
//! Huffman table overhead without helping. 65536 (SZ 1.4's scale) is the
//! sweet spot for bounded data — this sweep shows why.

use pwrel_bench::{scale_from_env, timed, Table};
use pwrel_core::{LogBase, PwRelCompressor};
use pwrel_data::nyx;
use pwrel_sz::SzCompressor;
use pwrel_trace::noop;

fn main() {
    let scale = scale_from_env();
    let field = nyx::dark_matter_density(scale);
    println!(
        "Ablation: SZ quantization capacity on {} ({}, SZ_T)\n",
        field.name, field.dims
    );

    let mut table = Table::new(&["capacity", "br=1e-2 CR", "br=1e-4 CR", "compress (ms)"]);
    for capacity in [16u32, 256, 4096, 65536, 262144] {
        let codec = PwRelCompressor::new(
            SzCompressor {
                capacity,
                ..SzCompressor::default()
            },
            LogBase::Two,
        );
        let (loose, dt) = timed(|| {
            codec
                .compress(&field.data, field.dims, 1e-2, noop())
                .unwrap()
        });
        let tight = codec
            .compress(&field.data, field.dims, 1e-4, noop())
            .unwrap();
        // Bound must hold at any capacity.
        let (dec, _) = codec.decompress::<f32>(&loose, noop()).unwrap();
        for (&a, &b) in field.data.iter().zip(&dec) {
            assert!(a == 0.0 || ((a as f64 - b as f64) / a as f64).abs() <= 1e-2);
        }
        table.row(vec![
            capacity.to_string(),
            format!("{:.3}", field.nbytes() as f64 / loose.len() as f64),
            format!("{:.3}", field.nbytes() as f64 / tight.len() as f64),
            format!("{:.1}", dt * 1e3),
        ]);
    }
    table.print();
    println!("\n(small capacities hurt tight bounds most: more prediction errors escape");
    println!(" the quantizer and are stored verbatim)");
}
