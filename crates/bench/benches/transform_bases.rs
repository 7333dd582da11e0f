//! Criterion companion to Table III: the forward (pre-processing) and
//! inverse (post-processing) log transforms per base, under the exact
//! `Libm` kernels (the paper's setting) and the shipped `Fast` ones.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pwrel_core::{transform, Kernel, LogBase};
use pwrel_data::{nyx, Scale};

const KERNELS: [Kernel; 2] = [Kernel::Libm, Kernel::Fast];
const BASES: [LogBase; 3] = [LogBase::Two, LogBase::E, LogBase::Ten];

fn bench_transform(c: &mut Criterion) {
    let field = nyx::dark_matter_density(Scale::Medium);
    let nbytes = field.nbytes() as u64;
    let br = 1e-3;

    let mut group = c.benchmark_group("transform_forward");
    group.throughput(Throughput::Bytes(nbytes));
    group.sample_size(20);
    for kernel in KERNELS {
        for base in BASES {
            group.bench_with_input(
                BenchmarkId::new(format!("{kernel:?}"), format!("{base:?}")),
                &base,
                |b, &base| {
                    b.iter(|| transform::forward(&field.data, base, br, 2.0, kernel).unwrap());
                },
            );
        }
    }
    group.finish();

    let mut group = c.benchmark_group("transform_inverse");
    group.throughput(Throughput::Bytes(nbytes));
    group.sample_size(20);
    for kernel in KERNELS {
        for base in BASES {
            let t = transform::forward(&field.data, base, br, 2.0, kernel).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("{kernel:?}"), format!("{base:?}")),
                &base,
                |b, &base| {
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
    }
    group.finish();
}

criterion_group!(benches, bench_transform);
criterion_main!(benches);
