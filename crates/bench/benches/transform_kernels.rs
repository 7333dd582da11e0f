//! Fast batched log/exp kernels vs the scalar libm baseline, per phase.
//!
//! The acceptance target for the kernel work: the f64 base-2 forward +
//! inverse transform must run ≥ 1.5× faster with `Kernel::Fast` than with
//! `Kernel::Libm`. The `bench_transform` binary emits the same comparison
//! as `BENCH_transform.json`; this bench is the interactive view.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pwrel_core::{transform, Kernel, LogBase};
use pwrel_data::{nyx, Scale};

fn bench_kernels(c: &mut Criterion) {
    let field = nyx::dark_matter_density(Scale::Medium);
    let data: Vec<f64> = field.data.iter().map(|&x| x as f64).collect();
    let nbytes = (data.len() * 8) as u64;
    let br = 1e-3;
    let base = LogBase::Two;

    let mut group = c.benchmark_group("transform_kernel_forward");
    group.throughput(Throughput::Bytes(nbytes));
    group.sample_size(20);
    for kernel in [Kernel::Fast, Kernel::Libm] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kernel:?}")),
            &kernel,
            |b, &kernel| {
                b.iter(|| transform::forward(&data, base, br, 2.0, kernel).unwrap());
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("transform_kernel_inverse");
    group.throughput(Throughput::Bytes(nbytes));
    group.sample_size(20);
    for kernel in [Kernel::Fast, Kernel::Libm] {
        let t = transform::forward(&data, base, br, 2.0, kernel).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kernel:?}")),
            &kernel,
            |b, &kernel| {
                b.iter(|| {
                    transform::inverse(
                        &t.mapped,
                        base,
                        t.zero_threshold,
                        t.sign_section.as_deref(),
                        kernel,
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
