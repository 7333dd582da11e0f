#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Shared harness for the table/figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (Sec. VI); see DESIGN.md for the index. This library
//! provides the common pieces: the codec roster, timing helpers, and plain
//! text table output.
//!
//! Binaries honour the `PWREL_SCALE` environment variable
//! (`small|medium|large`, default `medium`).

pub mod baseline;

use pwrel_core::{transform, Kernel, LogBase};
use pwrel_data::{AbsErrorCodec, Dims, Field, Scale};
use pwrel_pipeline::{global, ChunkPlan, CompressOpts};
use pwrel_sz::SzCompressor;
use pwrel_trace::noop;
use std::time::Instant;

/// The compressor roster of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PwrCodec {
    /// ISABELA (sort + spline + index).
    Isabela,
    /// FPZIP driven by the loosest precision respecting the bound.
    Fpzip,
    /// SZ's blockwise PW_REL mode.
    SzPwr,
    /// SZ + the paper's log transform ("our solution").
    SzT(LogBase),
    /// ZFP + the paper's log transform.
    ZfpT(LogBase),
    /// ZFP's fixed-precision pseudo-relative mode.
    ZfpP,
}

/// All codecs in the order the paper's figures list them.
pub const FIG2_ROSTER: [PwrCodec; 5] = [
    PwrCodec::SzPwr,
    PwrCodec::Fpzip,
    PwrCodec::Isabela,
    PwrCodec::ZfpT(LogBase::Two),
    PwrCodec::SzT(LogBase::Two),
];

impl PwrCodec {
    /// Display label matching the paper's naming.
    pub fn label(&self) -> String {
        match self {
            PwrCodec::Isabela => "ISABELA".into(),
            PwrCodec::Fpzip => "FPZIP".into(),
            PwrCodec::SzPwr => "SZ_PWR".into(),
            PwrCodec::SzT(LogBase::Two) => "SZ_T".into(),
            PwrCodec::SzT(b) => format!("SZ_T(base {b:?})"),
            PwrCodec::ZfpT(LogBase::Two) => "ZFP_T".into(),
            PwrCodec::ZfpT(b) => format!("ZFP_T(base {b:?})"),
            PwrCodec::ZfpP => "ZFP_P".into(),
        }
    }

    /// The registered codec name backing this roster entry.
    pub fn registry_name(&self) -> &'static str {
        match self {
            PwrCodec::Isabela => "isabela",
            PwrCodec::Fpzip => "fpzip",
            PwrCodec::SzPwr => "sz_pwr",
            PwrCodec::SzT(_) => "sz_t",
            PwrCodec::ZfpT(_) => "zfp_t",
            PwrCodec::ZfpP => "zfp_p",
        }
    }

    /// Registry options for the bound `br` (the transform codecs carry
    /// their log base; the rest ignore it).
    fn opts(&self, br: f64) -> CompressOpts {
        let base = match self {
            PwrCodec::SzT(b) | PwrCodec::ZfpT(b) => *b,
            _ => LogBase::Two,
        };
        CompressOpts { bound: br, base }
    }

    /// Compresses `field` under the point-wise relative bound `br`
    /// through the codec registry (the `_T` codecs take the fused
    /// single-pass path inside their registry adapters).
    pub fn compress(&self, field: &Field<f32>, br: f64) -> Vec<u8> {
        global()
            .compress(
                self.registry_name(),
                &field.data,
                field.dims,
                &self.opts(br),
            )
            .unwrap_or_else(|e| panic!("{} compress: {e:?}", self.label()))
    }

    /// Decompresses a stream produced by [`PwrCodec::compress`]. The
    /// container header carries the codec id, so no per-codec dispatch
    /// happens here.
    pub fn decompress(&self, bytes: &[u8]) -> (Vec<f32>, Dims) {
        global()
            .decompress::<f32>(bytes)
            .unwrap_or_else(|e| panic!("{} decompress: {e:?}", self.label()))
    }
}

/// Finds the parameter value whose compressed stream hits a target
/// compression ratio, by bisection over a monotone `compress` parameter
/// (larger parameter → smaller stream). Returns `(param, stream)`.
///
/// Used by the Figure 4/5 experiments, which compare codecs *at matched
/// compression ratio* rather than matched bound.
pub fn calibrate_to_ratio(
    raw_bytes: usize,
    target_cr: f64,
    mut lo: f64,
    mut hi: f64,
    compress: impl Fn(f64) -> Vec<u8>,
) -> (f64, Vec<u8>) {
    let mut best: Option<(f64, Vec<u8>)> = None;
    for _ in 0..24 {
        let mid = (lo * hi).sqrt(); // geometric: params span decades
        let stream = compress(mid);
        let cr = raw_bytes as f64 / stream.len() as f64;
        let better = match &best {
            None => true,
            Some((p, s)) => {
                let prev_cr = raw_bytes as f64 / s.len() as f64;
                let _ = p;
                (cr - target_cr).abs() < (prev_cr - target_cr).abs()
            }
        };
        if better {
            best = Some((mid, stream));
        }
        if cr < target_cr {
            lo = mid; // need looser parameter
        } else {
            hi = mid;
        }
    }
    best.expect("calibration ran")
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// The bytes SZ_T hands its LZ pass when `field` is compressed in
/// `chunks` slabs along the slowest axis at `b_r = 1e-3`, as the stream
/// engine cuts it (serve sends a 64³ field as 4 such chunks): per slab,
/// the SZ stream of the log-transformed data before the pass.
pub fn sz_t_lz_inputs(field: &Field<f32>, chunks: usize) -> Vec<Vec<u8>> {
    let plan =
        ChunkPlan::new(field.dims, field.dims.len().div_ceil(chunks), 1).expect("chunk plan");
    let sz = SzCompressor {
        lossless_pass: false,
        ..SzCompressor::default()
    };
    (0..plan.n_chunks())
        .map(|i| {
            let (start, len) = plan.chunk_range(i);
            let t = transform::forward(
                &field.data[start..start + len],
                LogBase::Two,
                1e-3,
                2.0,
                Kernel::Fast,
            )
            .expect("log transform");
            let stream = sz
                .compress_abs(&t.mapped, plan.chunk_dims(i), t.abs_bound, noop())
                .expect("sz compress");
            // Wrapper byte 0 ("no LZ pass"), then the pass's input.
            stream[1..].to_vec()
        })
        .collect()
}

/// Reads the dataset scale from `PWREL_SCALE` (default `medium`).
pub fn scale_from_env() -> Scale {
    match std::env::var("PWREL_SCALE").as_deref() {
        Ok("small") => Scale::Small,
        Ok("large") => Scale::Large,
        _ => Scale::Medium,
    }
}

/// Plain-text table printer with right-aligned columns.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

/// Writes a grayscale PGM image (for the Figure 4/5 visual outputs).
pub fn write_pgm(path: &str, width: usize, height: usize, pixels: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    assert_eq!(pixels.len(), width * height);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "P5\n{width} {height}\n255")?;
    f.write_all(pixels)?;
    Ok(())
}

/// Maps a slice of values to 8-bit grayscale over `[lo, hi]` (clamped).
pub fn to_grayscale(values: &[f32], lo: f64, hi: f64) -> Vec<u8> {
    values
        .iter()
        .map(|&v| {
            let t = ((v as f64 - lo) / (hi - lo)).clamp(0.0, 1.0);
            (t * 255.0) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwrel_data::nyx;

    #[test]
    fn roster_round_trips_every_codec() {
        let field = nyx::dark_matter_density(Scale::Small);
        let roster = [
            PwrCodec::Isabela,
            PwrCodec::Fpzip,
            PwrCodec::SzPwr,
            PwrCodec::SzT(LogBase::Two),
            PwrCodec::ZfpT(LogBase::Two),
            PwrCodec::ZfpP,
        ];
        for codec in roster {
            let bytes = codec.compress(&field, 1e-2);
            let (dec, dims) = codec.decompress(&bytes);
            assert_eq!(dims, field.dims, "{}", codec.label());
            assert_eq!(dec.len(), field.data.len(), "{}", codec.label());
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(PwrCodec::SzT(LogBase::Two).label(), "SZ_T");
        assert_eq!(PwrCodec::ZfpT(LogBase::Two).label(), "ZFP_T");
        assert_eq!(PwrCodec::ZfpP.label(), "ZFP_P");
        assert_eq!(PwrCodec::SzT(LogBase::E).label(), "SZ_T(base E)");
    }

    #[test]
    fn grayscale_mapping() {
        let px = to_grayscale(&[0.0, 0.5, 1.0, 2.0], 0.0, 1.0);
        assert_eq!(px, vec![0, 127, 255, 255]);
    }

    #[test]
    fn table_prints_without_panicking() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2.345".into()]);
        t.print();
    }
}
