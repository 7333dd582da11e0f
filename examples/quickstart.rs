//! Quickstart: compress a field with a point-wise relative error bound.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pwrel::core::{LogBase, PwRelCompressor};
use pwrel::data::Dims;
use pwrel::metrics::{compression_ratio, RelErrorStats};
use pwrel::sz::SzCompressor;
use pwrel::trace::noop;

fn main() {
    // A synthetic signal spanning nine orders of magnitude, with exact
    // zeros and mixed signs — the case absolute bounds handle poorly.
    let dims = Dims::d1(100_000);
    let data: Vec<f32> = (0..dims.len())
        .map(|i| {
            if i % 1000 == 0 {
                0.0
            } else {
                let magnitude = 10f32.powi((i / 12_500) as i32 - 4);
                let wave = (i as f32 * 0.02).sin();
                wave * magnitude
            }
        })
        .collect();

    // SZ_T: the SZ-like codec wrapped in the paper's log transform.
    let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    let rel_bound = 1e-3;

    let compressed = codec
        .compress(&data, dims, rel_bound, noop())
        .expect("compress");
    let (restored, _) = codec
        .decompress::<f32>(&compressed, noop())
        .expect("decompress");

    let stats = RelErrorStats::compute(&data, &restored, rel_bound);
    println!("points:              {}", data.len());
    println!("requested bound:     {rel_bound:e}");
    println!(
        "compression ratio:   {:.2}x",
        compression_ratio(data.len() * 4, compressed.len())
    );
    println!("max relative error:  {:.3e}", stats.max_rel);
    println!(
        "within bound:        {:.2}%",
        stats.bounded_fraction * 100.0
    );
    println!("zeros kept exact:    {}", stats.broken_zeros == 0);

    assert!(stats.max_rel <= rel_bound);
    assert_eq!(stats.broken_zeros, 0);
    println!("\nevery point respects the point-wise relative bound.");
}
