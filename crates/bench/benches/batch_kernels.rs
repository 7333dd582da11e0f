//! Lane-batched sweep/lift kernels vs their per-point references.
//!
//! The acceptance targets for the batched kernel work: the Lorenzo
//! predict + quantize sweep and the fused block lift must beat the
//! per-point reference paths they replace. The codecs run only the batched
//! kernels; the references stay as parity oracles, and this bench calls
//! both directly so one process measures both. `bench_entropy --gate`
//! gates the sweep against its reference the same way, and perfbench's
//! traced runs attribute both kernels inside the full codecs; this bench
//! is the interactive view.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pwrel_bench::quantization_codes_reference;
use pwrel_data::{nyx, Scale};
use pwrel_kernels::blocklift;
use pwrel_sz::{quantization_codes, SzCompressor};
use pwrel_zfp::lift;

fn bench_sweep(c: &mut Criterion) {
    let field = nyx::dark_matter_density(Scale::Medium);
    let nbytes = (field.data.len() * 4) as u64;

    let mut group = c.benchmark_group("sweep_predict_quantize");
    group.throughput(Throughput::Bytes(nbytes));
    group.sample_size(20);
    // The engine's own predict + quantize pass (codes and reconstruction
    // feedback, no entropy stages) against the same kernel through the
    // per-point reference sweep.
    let cfg = SzCompressor::default();
    group.bench_function("batched", |b| {
        b.iter(|| quantization_codes(&field.data, field.dims, 1e-3, &cfg));
    });
    group.bench_function("reference", |b| {
        b.iter(|| quantization_codes_reference(&field.data, field.dims, 1e-3, &cfg));
    });
    group.finish();
}

fn bench_lift(c: &mut Criterion) {
    // A batch of 4^3 blocks with deterministic pseudo-random coefficients,
    // sized like one Medium-grid plane worth of blocks.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let blocks: Vec<[i64; 64]> = (0..256)
        .map(|_| {
            let mut b = [0i64; 64];
            for v in &mut b {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = (x as i64) >> 3;
            }
            b
        })
        .collect();
    let nbytes = (blocks.len() * 64 * 8) as u64;

    let mut group = c.benchmark_group("blocklift_fwd_inv_3d");
    group.throughput(Throughput::Bytes(nbytes));
    group.bench_function("fused", |b| {
        b.iter(|| {
            let mut work = blocks.clone();
            for blk in &mut work {
                blocklift::fwd_xform_3d(blk);
                blocklift::inv_xform_3d(blk);
            }
            work
        });
    });
    group.bench_function("reference", |b| {
        b.iter(|| {
            let mut work = blocks.clone();
            for blk in &mut work {
                lift::fwd_xform_reference(blk, 3);
                lift::inv_xform_reference(blk, 3);
            }
            work
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sweep, bench_lift);
criterion_main!(benches);
