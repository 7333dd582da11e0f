#![forbid(unsafe_code)]
//! Ablation: SZ_PWR's block length.
//!
//! The blockwise PWR mode sets each block's absolute bound from the block's
//! minimum magnitude. Small blocks adapt better (tighter bounds only where
//! needed) but pay more per-block metadata; large blocks amortize metadata
//! but let one tiny value poison many points. Sweeping the block length on
//! spiky HACC data shows the trade-off — and that *no* setting approaches
//! SZ_T, which is the paper's point.

use pwrel_bench::{scale_from_env, Table};
use pwrel_core::{LogBase, PwRelCompressor};
use pwrel_data::hacc;
use pwrel_sz::SzCompressor;
use pwrel_trace::noop;

fn main() {
    let scale = scale_from_env();
    let field = hacc::velocity(scale, 'x');
    let br = 1e-2;
    println!(
        "Ablation: SZ_PWR block length on {} ({} points, b_r = {br})\n",
        field.name,
        field.data.len()
    );

    let mut table = Table::new(&["block len", "CR", "max rel err"]);
    for block_len in [16usize, 64, 256, 1024, 4096] {
        let sz = SzCompressor {
            pwr_block_len: block_len,
            ..SzCompressor::default()
        };
        let stream = sz.compress_pwr(&field.data, field.dims, br).unwrap();
        let (dec, _) = sz.decompress::<f32>(&stream, noop()).unwrap();
        let worst = field
            .data
            .iter()
            .zip(&dec)
            .filter(|(&a, _)| a != 0.0)
            .map(|(&a, &b)| ((a as f64 - b as f64) / a as f64).abs())
            .fold(0.0f64, f64::max);
        table.row(vec![
            block_len.to_string(),
            format!("{:.3}", field.nbytes() as f64 / stream.len() as f64),
            format!("{worst:.3e}"),
        ]);
    }
    table.print();

    let sz_t = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    let t_stream = sz_t.compress(&field.data, field.dims, br, noop()).unwrap();
    println!(
        "\nSZ_T at the same bound: CR {:.3} — above every PWR block size.",
        field.nbytes() as f64 / t_stream.len() as f64
    );
}
