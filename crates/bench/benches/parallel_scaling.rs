//! Worker-pool scaling: per-rank SZ_T compression throughput as the thread
//! count grows (the compute phase of the Figure 6 experiment).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pwrel_core::{LogBase, PwRelCompressor};
use pwrel_data::{nyx, Scale};
use pwrel_parallel::WorkerPool;
use pwrel_sz::SzCompressor;
use pwrel_trace::noop;

fn bench_pool(c: &mut Criterion) {
    let ds = nyx::dataset(Scale::Medium);
    let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
    let total = ds.total_bytes() as u64;

    let mut group = c.benchmark_group("shard_compress");
    group.throughput(Throughput::Bytes(total));
    group.sample_size(10);
    let max_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1usize, 2, 4, 8];
    counts.retain(|&w| w <= max_workers.max(1));
    if counts.is_empty() {
        counts.push(1);
    }
    for workers in counts {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                let pool = WorkerPool::new(workers);
                b.iter(|| {
                    pool.map(ds.fields.iter().collect(), |f| {
                        codec.compress(&f.data, f.dims, 1e-2, noop()).unwrap().len()
                    })
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pool);
criterion_main!(benches);
