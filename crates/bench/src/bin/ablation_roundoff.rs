#![forbid(unsafe_code)]
//! Ablation: is Lemma 2's round-off correction necessary?
//!
//! Runs SZ_T with the ε0 guard scaled by 0 (no correction — using
//! `b_a = log(1+b_r)` directly), 1 (the paper's correction) and 2 (ours,
//! also covering inverse-map rounding), on data with a wide dynamic range
//! (large `max|log x|`, where the correction term matters most), and counts
//! bound violations.

use pwrel_bench::Table;
use pwrel_core::{LogBase, PwRelCompressor};
use pwrel_data::{grf, Dims};
use pwrel_sz::SzCompressor;
use pwrel_trace::noop;

fn wide_range_data(n: usize) -> Vec<f32> {
    // Smooth field modulated across ~60 decades: |log2 x| reaches ~100.
    let dims = Dims::d1(n);
    let g = grf::gaussian_field(dims, 0xAB1A, 8, 3);
    g.iter()
        .enumerate()
        .map(|(i, &v)| {
            let e = ((i as f64 / n as f64) - 0.5) * 200.0;
            ((1.0 + 0.2 * v as f64) * e.exp2()) as f32
        })
        .collect()
}

fn main() {
    let n = 1 << 20;
    let data = wide_range_data(n);
    let dims = Dims::d1(n);
    let br = 1e-4; // tight bound: the ε0 term is a visible fraction of b'_a

    println!("Ablation: Lemma 2 round-off correction (n = {n}, b_r = {br}, |log2 x| up to ~100)\n");
    let mut table = Table::new(&["guard", "violations", "worst rel err", "CR"]);
    for guard in [0.0, 1.0, 2.0] {
        let mut codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
        codec.roundoff_guard = guard;
        let stream = codec.compress(&data, dims, br, noop()).unwrap();
        let (dec, _) = codec.decompress::<f32>(&stream, noop()).unwrap();
        let mut violations = 0usize;
        let mut worst = 0f64;
        for (&a, &b) in data.iter().zip(&dec) {
            let rel = ((a as f64 - b as f64) / a as f64).abs();
            worst = worst.max(rel);
            if rel > br {
                violations += 1;
            }
        }
        table.row(vec![
            format!("{guard}"),
            violations.to_string(),
            format!("{worst:.6e}"),
            format!("{:.3}", (n * 4) as f64 / stream.len() as f64),
        ]);
    }
    table.print();
    println!("\n(guard 0 = no correction; the paper's Lemma 2 uses guard 1. A nonzero");
    println!(" violation count at guard 0 shows the correction is not merely theoretical;");
    println!(" the CR cost of the correction is negligible.)");
}
