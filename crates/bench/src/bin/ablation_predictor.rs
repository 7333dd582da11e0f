#![forbid(unsafe_code)]
//! Ablation: Lorenzo vs hybrid Lorenzo/regression predictor (SZ 2-style
//! extension) inside SZ_T, across datasets and bounds.
//!
//! Regression helps where blocks have strong gradients and the bound is
//! loose relative to local noise; on the log-transformed scientific fields
//! it should be selected occasionally and never hurt much.

use pwrel_bench::{scale_from_env, timed, Table};
use pwrel_core::{LogBase, PwRelCompressor};
use pwrel_data::all_datasets;
use pwrel_sz::SzCompressor;
use pwrel_trace::noop;

fn main() {
    let scale = scale_from_env();
    println!("Ablation: SZ_T predictor (Lorenzo vs hybrid +regression)\n");
    let mut table = Table::new(&[
        "dataset",
        "bound",
        "lorenzo CR",
        "hybrid CR",
        "lorenzo ms",
        "hybrid ms",
    ]);
    for ds in all_datasets(scale) {
        for &br in &[1e-3, 1e-1] {
            let lorenzo = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
            let hybrid = PwRelCompressor::new(
                SzCompressor {
                    hybrid_predictor: true,
                    ..SzCompressor::default()
                },
                LogBase::Two,
            );
            let mut raw = 0usize;
            let (mut lb, mut hb) = (0usize, 0usize);
            let (mut lt, mut ht) = (0.0f64, 0.0f64);
            for field in &ds.fields {
                raw += field.nbytes();
                let (s, dt) = timed(|| {
                    lorenzo
                        .compress(&field.data, field.dims, br, noop())
                        .unwrap()
                });
                lb += s.len();
                lt += dt;
                let (s, dt) = timed(|| {
                    hybrid
                        .compress(&field.data, field.dims, br, noop())
                        .unwrap()
                });
                hb += s.len();
                ht += dt;
                // Bound must hold through the hybrid path too.
                let (dec, _) = hybrid.decompress::<f32>(&s, noop()).unwrap();
                for (&a, &b) in field.data.iter().zip(&dec) {
                    assert!(
                        a == 0.0 || ((a as f64 - b as f64) / a as f64).abs() <= br,
                        "{}",
                        field.name
                    );
                }
            }
            table.row(vec![
                ds.name.to_string(),
                format!("{br}"),
                format!("{:.3}", raw as f64 / lb as f64),
                format!("{:.3}", raw as f64 / hb as f64),
                format!("{:.0}", lt * 1e3),
                format!("{:.0}", ht * 1e3),
            ]);
        }
    }
    table.print();
    println!("\n(the hybrid predictor adds per-block model fitting time; it pays off on");
    println!(" gradient-dominated blocks and falls back to Lorenzo elsewhere)");
}
