#![forbid(unsafe_code)]
//! Emits `BENCH_entropy.json`: hot-path throughput for the live engines
//! against reference engines of the same output, the frozen seed engines
//! (`pwrel_bench::baseline`) and the per-point reference sweep.
//!
//! Four measurements, all on SZ-shaped inputs derived from the Nyx
//! dark-matter-density field:
//!
//! * **Predict/quantize** — `pwrel_sz::quantization_codes` (the wavefront
//!   `predict::sweep` with SZ's `QuantKernel`) on the log-mapped field at
//!   `b_r = 1e-3`, against the same `QuantKernel` driven through the
//!   per-point `predict::sweep_reference`. Both must produce the same
//!   code array.
//! * **Huffman encode + decode** — one serialized `encode_symbols` buffer
//!   of prediction-residual quantization codes, decoded by the live bulk
//!   `decode_symbols` (refill + LUT inner loop) and by the seed per-symbol
//!   `bits_remaining`/`peek_bits`/`skip_bits` decoder. Target ≥ 1.5×.
//!   The row also times the live `encode_symbols` against the frozen
//!   `seed_encode_symbols`, whose single-stream buffer the live decoder is
//!   checked once per run to read back.
//! * **ZFP bit-plane encode+decode** — the group-testing plane coder over
//!   negabinary 4×4×4 blocks, through the live `write_bits_lsb`/
//!   `read_bits_lsb` bulk paths and the seed bit-by-bit loops. Both
//!   engines must produce byte-identical streams. Target ≥ 2×.
//! * **LZ encode** — `lz::compress` against the seed encoder
//!   `seed_lz_compress` on the bytes SZ_T hands its LZ pass, with the
//!   Medium field cut into 4 slabs as serve cuts a request. This row
//!   always uses the Medium field, whatever the scale, so the gate times
//!   serve-sized payloads. Both encoders must produce byte-identical
//!   streams. Target ≥ 2×.
//!
//! Honours `PWREL_SCALE` (`small|medium|large`, default `medium`) and a
//! `--reps N` flag (default 15; CI smoke passes `--reps 3`). Every timing
//! is reported as the best rep (`*_s`, which the speedups use) and the
//! median rep (`*_median_s`), beside the host's core count.
//!
//! `--gate` switches to regression-gate mode: nothing is written and the
//! process exits non-zero unless every gated live path keeps its floor
//! against its reference engine: predict/quantize ≥
//! [`PREDICT_QUANTIZE_FLOOR`], and Huffman encode, Huffman decode, ZFP
//! plane encode, ZFP plane decode and LZ encode ≥ 1×. Each direction is
//! gated on its own, so a slower encoder cannot hide behind a faster
//! decoder or the other way round. The gate holds on any host because
//! both engines of a row share each rep's scheduler and frequency noise.

use pwrel_bench::baseline::{
    seed_decode_planes, seed_decode_symbols, seed_encode_planes, seed_encode_symbols,
    seed_lz_compress, SeedBitReader, SeedBitWriter,
};
use pwrel_bench::{quantization_codes_reference, scale_from_env, sz_t_lz_inputs, timed, Reps};
use pwrel_bitstream::{BitReader, BitWriter};
use pwrel_core::{transform, Kernel, LogBase};
use pwrel_data::{nyx, Dims, Scale};
use pwrel_lossless::{huffman, lz};
use pwrel_sz::{quantization_codes, SzCompressor};
use pwrel_zfp::nb;

/// Plane-coder parameters matching the transform pipeline's f64 blocks.
const INTPREC: u32 = 64;
/// Low planes dropped, as a lossy bound would.
const KMIN: u32 = 16;

/// Gate floor for the predict/quantize row, set for Small, the CI scale.
/// The wavefront sweep runs about 2.4× the per-point reference there (3.2×
/// at Medium) on a 2-core Xeon VM, so a sweep that does twice its work
/// reads about 1.2× and fails while rep-to-rep noise does not. At Medium
/// such a sweep reads about 1.57× and passes.
const PREDICT_QUANTIZE_FLOOR: f64 = 1.5;

/// SZ-shaped symbol stream: quantized log-domain prediction residuals over
/// the 2^16-code alphabet the SZ stage uses.
fn quantize_residuals(data: &[f32]) -> Vec<u32> {
    let mut prev = 0f32;
    data.iter()
        .map(|&x| {
            let lx = (x.abs() + 1e-6).ln();
            let q = ((lx - prev) * 64.0).round() as i64;
            prev = lx;
            (q + 32768).clamp(0, 65535) as u32
        })
        .collect()
}

/// Negabinary 64-coefficient blocks scaled to ~40 significant planes.
fn negabinary_blocks(data: &[f32]) -> Vec<[u64; 64]> {
    data.chunks_exact(64)
        .map(|c| {
            let mut b = [0u64; 64];
            for (i, &x) in c.iter().enumerate() {
                b[i] = nb::nb_encode((x as f64 * 1048576.0) as i64, INTPREC);
            }
            b
        })
        .collect()
}

#[derive(Default)]
struct QuantTimes {
    live: Reps,
    reference: Reps,
}

/// Per-rep predict/quantize timings, live/reference interleaved; the two
/// code arrays must be equal.
fn bench_predict_quantize(mapped: &[f32], dims: Dims, eb: f64, reps: usize) -> QuantTimes {
    let cfg = SzCompressor::default();
    let mut t = QuantTimes::default();
    for _ in 0..reps {
        let (live, live_s) = timed(|| quantization_codes(mapped, dims, eb, &cfg));
        let (reference, ref_s) = timed(|| quantization_codes_reference(mapped, dims, eb, &cfg));
        assert_eq!(live, reference, "sweep diverged from the reference sweep");
        t.live.push(live_s);
        t.reference.push(ref_s);
    }
    t
}

#[derive(Default)]
struct HuffTimes {
    live_enc: Reps,
    live: Reps,
    seed_enc: Reps,
    seed: Reps,
}

/// Per-rep Huffman encode+decode timings. The engines do not share one
/// buffer: the live engine encodes and decodes the 4-way interleaved
/// format, the frozen seed engine its legacy single-stream format.
fn bench_huffman(syms: &[u32], reps: usize) -> HuffTimes {
    let mut t = HuffTimes::default();
    for _ in 0..reps {
        let (live_buf, live_enc_s) = timed(|| huffman::encode_symbols(syms, 1 << 16));
        let (seed_buf, seed_enc_s) = timed(|| seed_encode_symbols(syms, 1 << 16));
        let (live, live_s) = timed(|| {
            let mut pos = 0;
            huffman::decode_symbols(&live_buf, &mut pos).expect("live decode")
        });
        let (seed, seed_s) = timed(|| {
            let mut pos = 0;
            seed_decode_symbols(&seed_buf, &mut pos).expect("seed decode")
        });
        assert_eq!(live, syms, "live decode diverged");
        assert_eq!(seed, syms, "seed decode diverged");
        t.live_enc.push(live_enc_s);
        t.live.push(live_s);
        t.seed_enc.push(seed_enc_s);
        t.seed.push(seed_s);
    }
    t
}

#[derive(Default)]
struct PlaneTimes {
    live_enc: Reps,
    live_dec: Reps,
    seed_enc: Reps,
    seed_dec: Reps,
    stream_bytes: usize,
}

/// Per-rep plane encode+decode timings, live/seed interleaved.
fn bench_planes(blocks: &[[u64; 64]], reps: usize) -> PlaneTimes {
    let mut t = PlaneTimes::default();
    for _ in 0..reps {
        let (live_bytes, live_enc_s) = timed(|| {
            let mut w = BitWriter::new();
            for b in blocks {
                nb::encode_planes(&mut w, b, INTPREC, KMIN);
            }
            w.into_bytes()
        });
        let (seed_bytes, seed_enc_s) = timed(|| {
            let mut w = SeedBitWriter::new();
            for b in blocks {
                seed_encode_planes(&mut w, b, INTPREC, KMIN);
            }
            w.into_bytes()
        });
        assert_eq!(live_bytes, seed_bytes, "engines must be bit-identical");

        let (live_out, live_dec_s) = timed(|| {
            let mut r = BitReader::new(&live_bytes);
            let mut out = vec![[0u64; 64]; blocks.len()];
            for b in out.iter_mut() {
                nb::decode_planes(&mut r, b, INTPREC, KMIN).expect("live decode");
            }
            out
        });
        let (seed_out, seed_dec_s) = timed(|| {
            let mut r = SeedBitReader::new(&seed_bytes);
            let mut out = vec![[0u64; 64]; blocks.len()];
            for b in out.iter_mut() {
                seed_decode_planes(&mut r, b, INTPREC, KMIN).expect("seed decode");
            }
            out
        });
        assert_eq!(live_out, seed_out, "decoders diverged");

        t.live_enc.push(live_enc_s);
        t.live_dec.push(live_dec_s);
        t.seed_enc.push(seed_enc_s);
        t.seed_dec.push(seed_dec_s);
        t.stream_bytes = live_bytes.len();
    }
    t
}

#[derive(Default)]
struct LzTimes {
    live: Reps,
    seed: Reps,
    output_bytes: usize,
}

/// Per-rep LZ encode timings over all `payloads`, live/seed interleaved;
/// the two encoders' outputs must be byte-identical.
fn bench_lz(payloads: &[Vec<u8>], reps: usize) -> LzTimes {
    let mut t = LzTimes::default();
    for _ in 0..reps {
        let (live, live_s) = timed(|| payloads.iter().map(|p| lz::compress(p)).collect::<Vec<_>>());
        let (seed, seed_s) = timed(|| {
            payloads
                .iter()
                .map(|p| seed_lz_compress(p))
                .collect::<Vec<_>>()
        });
        assert_eq!(live, seed, "live LZ encoder diverged from the seed encoder");
        t.live.push(live_s);
        t.seed.push(seed_s);
        t.output_bytes = live.iter().map(Vec::len).sum();
    }
    t
}

fn main() {
    let mut reps = 15usize;
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--reps") {
        reps = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--reps N");
    }
    let gate = args.iter().any(|a| a == "--gate");

    let scale = scale_from_env();
    let field = nyx::dark_matter_density(scale);

    // Predict/quantize: SZ_T's inner compressor input, the log-mapped
    // field and its Lemma 2-corrected bound.
    let t = transform::forward(&field.data, LogBase::Two, 1e-3, 2.0, Kernel::Fast)
        .expect("log transform");
    let _ = bench_predict_quantize(&t.mapped, field.dims, t.abs_bound, 1);
    let q = bench_predict_quantize(&t.mapped, field.dims, t.abs_bound, reps);

    // Huffman: each engine encodes and decodes its own format (live =
    // interleaved, seed = legacy single stream).
    let syms = quantize_residuals(&field.data);
    let buf = huffman::encode_symbols(&syms, 1 << 16);
    assert!(
        huffman::decode_symbols(&seed_encode_symbols(&syms, 1 << 16), &mut 0).as_ref() == Ok(&syms),
        "live Huffman decoder misread the seed encoder's single-stream buffer"
    );
    // Warm-up pass pages everything in before timing.
    let _ = bench_huffman(&syms, 1);
    let h = bench_huffman(&syms, reps);

    let blocks = negabinary_blocks(&field.data);
    let _ = bench_planes(&blocks[..blocks.len().min(64)], 1);
    let p = bench_planes(&blocks, reps);

    // LZ: serve's cut of the Medium field, at every scale.
    const LZ_CHUNKS: usize = 4;
    let lz_inputs = sz_t_lz_inputs(&nyx::dark_matter_density(Scale::Medium), LZ_CHUNKS);
    let lz_bytes: usize = lz_inputs.iter().map(Vec::len).sum();
    let _ = bench_lz(&lz_inputs, 1);
    let z = bench_lz(&lz_inputs, reps);

    let msym = |s: f64| syms.len() as f64 / s / 1e6;
    let quant_speedup = q.reference.best() / q.live.best();
    let huff_enc_speedup = h.seed_enc.best() / h.live_enc.best();
    let huff_speedup = h.seed.best() / h.live.best();
    let plane_enc_speedup = p.seed_enc.best() / p.live_enc.best();
    let plane_dec_speedup = p.seed_dec.best() / p.live_dec.best();
    let plane_speedup =
        (p.seed_enc.best() + p.seed_dec.best()) / (p.live_enc.best() + p.live_dec.best());
    let lz_speedup = z.seed.best() / z.live.best();
    let mib_s = |s: f64| lz_bytes as f64 / s / (1024.0 * 1024.0);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    if gate {
        let mut failed = false;
        for (what, speedup, floor) in [
            ("predict/quantize", quant_speedup, PREDICT_QUANTIZE_FLOOR),
            ("huffman encode", huff_enc_speedup, 1.0),
            ("huffman decode", huff_speedup, 1.0),
            ("zfp planes encode", plane_enc_speedup, 1.0),
            ("zfp planes decode", plane_dec_speedup, 1.0),
            ("lz encode", lz_speedup, 1.0),
        ] {
            eprintln!("gate {what}: {speedup:.2}x vs reference engine (floor {floor}x)");
            if speedup < floor {
                failed = true;
            }
        }
        if failed {
            eprintln!("entropy gate FAILED: a live path fell below its floor");
            std::process::exit(1);
        }
        eprintln!("entropy gate passed");
        return;
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"entropy_hot_paths\",\n",
            "  \"dataset\": \"{}\",\n",
            "  \"scale\": \"{:?}\",\n",
            "  \"elements\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"reps\": {},\n",
            "  \"predict_quantize\": {{\"rel_bound\": 1e-3, \"abs_bound\": {:e}, ",
            "\"reference_s\": {:.6}, \"reference_median_s\": {:.6}, ",
            "\"live_s\": {:.6}, \"live_median_s\": {:.6}, ",
            "\"speedup\": {:.3}}},\n",
            "  \"huffman\": {{\"symbols\": {}, \"stream_bytes\": {}, ",
            "\"seed_encode_s\": {:.6}, \"seed_encode_median_s\": {:.6}, ",
            "\"live_encode_s\": {:.6}, \"live_encode_median_s\": {:.6}, ",
            "\"seed_decode_s\": {:.6}, \"seed_decode_median_s\": {:.6}, ",
            "\"live_decode_s\": {:.6}, \"live_decode_median_s\": {:.6}, ",
            "\"seed_msym_s\": {:.1}, \"live_msym_s\": {:.1}, ",
            "\"speedup_encode\": {:.3}, \"speedup_decode\": {:.3}, ",
            "\"speedup_encode_plus_decode\": {:.3}}},\n",
            "  \"zfp_planes\": {{\"blocks\": {}, \"stream_bytes\": {}, ",
            "\"intprec\": {}, \"kmin\": {}, ",
            "\"seed_encode_s\": {:.6}, \"seed_encode_median_s\": {:.6}, ",
            "\"seed_decode_s\": {:.6}, \"seed_decode_median_s\": {:.6}, ",
            "\"live_encode_s\": {:.6}, \"live_encode_median_s\": {:.6}, ",
            "\"live_decode_s\": {:.6}, \"live_decode_median_s\": {:.6}, ",
            "\"speedup_encode\": {:.3}, \"speedup_decode\": {:.3}, ",
            "\"speedup_encode_plus_decode\": {:.3}}},\n",
            "  \"lz\": {{\"dataset_scale\": \"Medium\", \"chunks\": {}, ",
            "\"input_bytes\": {}, \"output_bytes\": {}, ",
            "\"seed_encode_s\": {:.6}, \"seed_encode_median_s\": {:.6}, ",
            "\"live_encode_s\": {:.6}, \"live_encode_median_s\": {:.6}, ",
            "\"seed_mib_s\": {:.1}, \"live_mib_s\": {:.1}, ",
            "\"speedup_encode\": {:.3}}},\n",
            "  \"target_huffman_decode\": 1.5,\n",
            "  \"target_zfp_encode_plus_decode\": 2.0,\n",
            "  \"target_lz_encode\": 2.0\n",
            "}}\n",
        ),
        field.name,
        scale,
        field.data.len(),
        host_cpus,
        reps,
        t.abs_bound,
        q.reference.best(),
        q.reference.median(),
        q.live.best(),
        q.live.median(),
        quant_speedup,
        syms.len(),
        buf.len(),
        h.seed_enc.best(),
        h.seed_enc.median(),
        h.live_enc.best(),
        h.live_enc.median(),
        h.seed.best(),
        h.seed.median(),
        h.live.best(),
        h.live.median(),
        msym(h.seed.best()),
        msym(h.live.best()),
        huff_enc_speedup,
        huff_speedup,
        (h.seed_enc.best() + h.seed.best()) / (h.live_enc.best() + h.live.best()),
        blocks.len(),
        p.stream_bytes,
        INTPREC,
        KMIN,
        p.seed_enc.best(),
        p.seed_enc.median(),
        p.seed_dec.best(),
        p.seed_dec.median(),
        p.live_enc.best(),
        p.live_enc.median(),
        p.live_dec.best(),
        p.live_dec.median(),
        plane_enc_speedup,
        plane_dec_speedup,
        plane_speedup,
        LZ_CHUNKS,
        lz_bytes,
        z.output_bytes,
        z.seed.best(),
        z.seed.median(),
        z.live.best(),
        z.live.median(),
        mib_s(z.seed.best()),
        mib_s(z.live.best()),
        lz_speedup,
    );
    print!("{json}");
    std::fs::write("BENCH_entropy.json", &json).expect("write BENCH_entropy.json");
    eprintln!(
        "wrote BENCH_entropy.json (predict/quantize {quant_speedup:.2}x, huffman decode {huff_speedup:.2}x, zfp planes {plane_speedup:.2}x, lz encode {lz_speedup:.2}x)"
    );
}
