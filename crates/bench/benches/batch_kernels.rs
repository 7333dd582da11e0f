//! Lane-batched sweep/lift kernels vs their per-point references.
//!
//! The acceptance targets for the batched kernel work: the Lorenzo
//! predict + quantize sweep and the fused block lift must beat the
//! per-point reference paths they replace. The codecs run only the batched
//! kernels; the references stay as parity oracles, and this bench calls
//! both directly so one process measures both. The `bench_stages` binary
//! attributes the same kernels inside the full codecs; this bench is the
//! isolated view.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pwrel_data::{nyx, Scale};
use pwrel_kernels::{blocklift, predict};
use pwrel_zfp::lift;

/// One Lorenzo + linear-scaling quantization sweep over the field,
/// exercising the same sink the SZ engine uses (codes + reconstruction
/// feedback), without the entropy stages. The sink stays a concrete
/// closure (no `dyn`) so the kernels see exactly the monomorphized shape
/// the engine compiles.
fn sweep_once(data: &[f32], dims: pwrel_data::Dims, batched: bool) -> usize {
    let quant = predict::QuantKernel::new(65536);
    let eb = 1e-3;
    // Index-addressed, per the sweep's visit-order contract (the wavefront
    // interleaves rows).
    let mut codes: Vec<u32> = vec![0u32; data.len()];
    let mut sink = |idx: usize, pred: f64| -> Result<f32, std::convert::Infallible> {
        Ok(match quant.quantize(data[idx], pred, eb) {
            Some((code, val)) => {
                codes[idx] = code;
                val
            }
            None => data[idx],
        })
    };
    let res = if batched {
        predict::sweep(dims, &mut sink)
    } else {
        predict::sweep_reference(dims, &mut vec![0f32; data.len()], &mut sink)
    };
    match res {
        Ok(()) => codes.len(),
        Err(e) => match e {},
    }
}

fn bench_sweep(c: &mut Criterion) {
    let field = nyx::dark_matter_density(Scale::Medium);
    let nbytes = (field.data.len() * 4) as u64;

    let mut group = c.benchmark_group("sweep_predict_quantize");
    group.throughput(Throughput::Bytes(nbytes));
    group.sample_size(20);
    group.bench_function("batched", |b| {
        b.iter(|| sweep_once(&field.data, field.dims, true));
    });
    group.bench_function("reference", |b| {
        b.iter(|| sweep_once(&field.data, field.dims, false));
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
