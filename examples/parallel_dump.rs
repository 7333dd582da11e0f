//! HPC I/O use case: dumping a multi-field snapshot from many ranks.
//!
//! Reproduces the mechanics of the paper's parallel evaluation on a laptop:
//! real multi-threaded compression of a per-rank NYX shard plus a modeled
//! GPFS write phase, at 1,024–4,096 simulated ranks.
//!
//! ```sh
//! cargo run --release --example parallel_dump
//! ```

use pwrel::core::{LogBase, PwRelCompressor};
use pwrel::data::{nyx, Scale};
use pwrel::parallel::{PfsModel, ScalingExperiment, WorkerPool};
use pwrel::sz::SzCompressor;
use pwrel::trace::noop;

fn main() {
    let ds = nyx::dataset(Scale::Medium);
    println!(
        "per-rank shard: {} fields, {:.1} MB",
        ds.fields.len(),
        ds.total_bytes() as f64 / 1e6
    );

    let exp = ScalingExperiment {
        name: "SZ_T dump",
        fields: &ds.fields,
        pfs: PfsModel::default(),
        pool: WorkerPool::per_cpu(),
    };
    let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);

    let ranks = [1024usize, 2048, 4096];
    let (dumps, streams) = exp.dump(&ranks, |f| {
        codec
            .compress(&f.data, f.dims, 1e-2, noop())
            .expect("compress")
    });
    println!(
        "\ncompression: {:.2}x ratio, {:.2} s/rank on {} threads",
        dumps[0].ratio(),
        dumps[0].compress_seconds,
        exp.pool.workers()
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "ranks", "write (s)", "dump (s)", "raw-dump (s)"
    );
    for d in &dumps {
        // What writing *uncompressed* data would cost at the same scale.
        let raw_write = exp
            .pfs
            .write_time(d.raw_bytes_per_rank * d.ranks as u64, d.ranks);
        println!(
            "{:>8} {:>12.3} {:>12.3} {:>12.3}",
            d.ranks,
            d.write_seconds,
            d.total(),
            raw_write
        );
    }

    let loads = exp.load(&ranks, &streams, |s| {
        codec
            .decompress::<f32>(s, noop())
            .expect("decompress")
            .0
            .len()
    });
    println!("\n{:>8} {:>12} {:>12}", "ranks", "read (s)", "load (s)");
    for l in &loads {
        println!(
            "{:>8} {:>12.3} {:>12.3}",
            l.ranks,
            l.read_seconds,
            l.total()
        );
    }
}
