#![forbid(unsafe_code)]
//! Ablation: ZFP's two modes on the same field.
//!
//! Accuracy (absolute bound, conservative; the mode under ZFP_T) and
//! precision (fixed planes per block; ZFP_P) trade off differently between
//! guaranteed error and compression ratio. This sweep prints the achieved
//! (rate, max error) pairs per mode.

use pwrel_bench::{scale_from_env, Table};
use pwrel_data::nyx;
use pwrel_metrics::{bit_rate, ErrorStats};
use pwrel_trace::noop;
use pwrel_zfp::ZfpCompressor;

fn main() {
    let scale = scale_from_env();
    let field = nyx::dark_matter_density(scale);
    let zfp = ZfpCompressor;
    println!("Ablation: ZFP modes on {} ({})\n", field.name, field.dims);

    let mut table = Table::new(&["mode", "setting", "bits/value", "max abs err", "bounded?"]);

    for tol in [1e-1, 1e-3, 1e-5] {
        let s = zfp
            .compress_accuracy(&field.data, field.dims, tol, noop())
            .unwrap();
        let (dec, _) = zfp.decompress::<f32>(&s, noop()).unwrap();
        let e = ErrorStats::compute(&field.data, &dec);
        table.row(vec![
            "accuracy".into(),
            format!("tol {tol:.0e}"),
            format!("{:.2}", bit_rate(s.len(), field.data.len())),
            format!("{:.2e}", e.max_abs),
            (e.max_abs <= tol).to_string(),
        ]);
    }
    for p in [12u32, 20, 28] {
        let s = zfp
            .compress_precision(&field.data, field.dims, p, noop())
            .unwrap();
        let (dec, _) = zfp.decompress::<f32>(&s, noop()).unwrap();
        let e = ErrorStats::compute(&field.data, &dec);
        table.row(vec![
            "precision".into(),
            format!("-p {p}"),
            format!("{:.2}", bit_rate(s.len(), field.data.len())),
            format!("{:.2e}", e.max_abs),
            "n/a".into(),
        ]);
    }
    table.print();
    println!("\n(accuracy mode always honours its bound but over-preserves — the ZFP_T");
    println!(" behaviour in Table IV; precision mode bounds no error)");
}
