#![forbid(unsafe_code)]
//! Ablation: sign-bitmap handling in the log transform.
//!
//! Algorithm 1 compresses one sign bit per value when the field mixes
//! signs. This measures what that costs (bytes + share of the stream) for
//! sign structures from "all positive" (free) to "random signs"
//! (incompressible, 1 bit/value), and confirms the RLE+LZ pipeline beats
//! plain bit-packing on realistic banded sign patterns.

use pwrel_bench::Table;
use pwrel_core::transform::{self, Kernel, LogBase};
use pwrel_data::{grf, Dims};

fn main() {
    let n = 1 << 20;
    let dims = Dims::d1(n);
    let base_mag: Vec<f32> = grf::gaussian_field(dims, 77, 4, 3)
        .iter()
        .map(|v| v.abs() + 0.1)
        .collect();

    type SignPattern = Box<dyn Fn(usize) -> bool>;
    let patterns: Vec<(&str, SignPattern)> = vec![
        ("all positive", Box::new(|_| false)),
        (
            "one negative region",
            Box::new(move |i| (n / 4..n / 2).contains(&i)),
        ),
        ("banded (runs of 1000)", Box::new(|i| (i / 1000) % 2 == 1)),
        ("checkerboard", Box::new(|i| i % 2 == 1)),
        (
            "pseudo-random",
            Box::new(|i| {
                // splitmix64-style hash: genuinely incompressible signs.
                let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) & 1 == 1
            }),
        ),
    ];

    println!("Ablation: sign-section cost in the log transform (n = {n})\n");
    let mut table = Table::new(&[
        "sign pattern",
        "sign bytes",
        "bits/value",
        "vs packed (n/8)",
    ]);
    for (name, neg) in &patterns {
        let data: Vec<f32> = base_mag
            .iter()
            .enumerate()
            .map(|(i, &m)| if neg(i) { -m } else { m })
            .collect();
        let t = transform::forward(&data, LogBase::Two, 1e-3, 2.0, Kernel::Fast).unwrap();
        let bytes = t.sign_section.as_ref().map_or(0, |s| s.len());
        table.row(vec![
            name.to_string(),
            bytes.to_string(),
            format!("{:.4}", bytes as f64 * 8.0 / n as f64),
            format!("{:.2}x", bytes as f64 / (n as f64 / 8.0)),
        ]);
    }
    table.print();
    println!("\n(realistic sign structure costs ≪ 1 bit/value; even adversarial random");
    println!(" signs stay ≈ 1 bit/value thanks to the packed fallback)");
}
