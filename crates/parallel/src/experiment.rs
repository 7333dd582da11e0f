//! Weak-scaling dump/load experiment (Figure 6).
//!
//! Each simulated rank holds one copy of the per-rank dataset (the paper
//! gives every rank a 3 GB NYX shard). Compression is *executed and timed*
//! on this machine with a worker pool over the rank's fields; because the
//! scaling is weak and compute is embarrassingly parallel across ranks, one
//! rank's wall-clock time stands for the compute phase at any scale. The
//! I/O phase comes from the [`PfsModel`] with the aggregate volume
//! `ranks × compressed_bytes`.

use crate::pfs::PfsModel;
use crate::pool::WorkerPool;
use pwrel_data::Field;
use std::time::Instant;

/// One codec under test: closures for per-field compress and decompress.
pub struct ScalingExperiment<'a> {
    /// Label used in reports (e.g. `SZ_T`).
    pub name: &'a str,
    /// The per-rank dataset.
    pub fields: &'a [Field<f32>],
    /// Storage model.
    pub pfs: PfsModel,
    /// Worker threads for the compute phase.
    pub pool: WorkerPool,
}

/// Result of a dump (compress + write) run at one scale.
#[derive(Debug, Clone, Copy)]
pub struct DumpReport {
    /// Simulated rank count.
    pub ranks: usize,
    /// Measured per-rank compression wall time (s).
    pub compress_seconds: f64,
    /// Modeled parallel write time (s).
    pub write_seconds: f64,
    /// Compressed bytes per rank.
    pub compressed_bytes_per_rank: u64,
    /// Raw bytes per rank.
    pub raw_bytes_per_rank: u64,
}

impl DumpReport {
    /// Total dump time (s).
    pub fn total(&self) -> f64 {
        self.compress_seconds + self.write_seconds
    }

    /// Achieved compression ratio.
    pub fn ratio(&self) -> f64 {
        self.raw_bytes_per_rank as f64 / self.compressed_bytes_per_rank as f64
    }
}

/// Result of a load (read + decompress) run at one scale.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Simulated rank count.
    pub ranks: usize,
    /// Modeled parallel read time (s).
    pub read_seconds: f64,
    /// Measured per-rank decompression wall time (s).
    pub decompress_seconds: f64,
    /// Compressed bytes per rank.
    pub compressed_bytes_per_rank: u64,
}

impl LoadReport {
    /// Total load time (s).
    pub fn total(&self) -> f64 {
        self.read_seconds + self.decompress_seconds
    }
}

impl<'a> ScalingExperiment<'a> {
    /// Runs the dump phase at each rank count, compressing each field with
    /// `compress` (which returns the compressed stream).
    ///
    /// Returns the per-scale reports and the compressed streams (for a
    /// follow-up [`ScalingExperiment::load`]).
    pub fn dump<C>(&self, ranks: &[usize], compress: C) -> (Vec<DumpReport>, Vec<Vec<u8>>)
    where
        C: Fn(&Field<f32>) -> Vec<u8> + Sync,
    {
        let t0 = Instant::now();
        let streams: Vec<Vec<u8>> = self.pool.map(self.fields.iter().collect(), compress);
        let compress_seconds = t0.elapsed().as_secs_f64();

        let compressed: u64 = streams.iter().map(|s| s.len() as u64).sum();
        let raw: u64 = self.fields.iter().map(|f| f.nbytes() as u64).sum();
        let reports = ranks
            .iter()
            .map(|&r| DumpReport {
                ranks: r,
                compress_seconds,
                write_seconds: self.pfs.write_time(compressed * r as u64, r),
                compressed_bytes_per_rank: compressed,
                raw_bytes_per_rank: raw,
            })
            .collect();
        (reports, streams)
    }

    /// Runs the load phase at each rank count, decompressing each stream.
    pub fn load<D>(&self, ranks: &[usize], streams: &[Vec<u8>], decompress: D) -> Vec<LoadReport>
    where
        D: Fn(&[u8]) -> usize + Sync,
    {
        let t0 = Instant::now();
        let decoded: Vec<usize> = self.pool.map(streams.iter().collect(), |s| decompress(s));
        let decompress_seconds = t0.elapsed().as_secs_f64();
        let expected: usize = self.fields.iter().map(|f| f.data.len()).sum();
        let got: usize = decoded.iter().sum();
        assert_eq!(got, expected, "decompression returned wrong point count");

        let compressed: u64 = streams.iter().map(|s| s.len() as u64).sum();
        ranks
            .iter()
            .map(|&r| LoadReport {
                ranks: r,
                read_seconds: self.pfs.read_time(compressed * r as u64, r),
                decompress_seconds,
                compressed_bytes_per_rank: compressed,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwrel_core::{LogBase, PwRelCompressor};
    use pwrel_data::{nyx, Scale};
    use pwrel_sz::SzCompressor;
    use pwrel_trace::noop;

    #[test]
    fn dump_and_load_round_trip_with_sz_t() {
        let ds = nyx::dataset(Scale::Small);
        let exp = ScalingExperiment {
            name: "SZ_T",
            fields: &ds.fields,
            pfs: PfsModel::default(),
            pool: WorkerPool::new(2),
        };
        let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
        let ranks = [1024usize, 2048, 4096];
        let (dumps, streams) = exp.dump(&ranks, |f| {
            codec.compress(&f.data, f.dims, 1e-2, noop()).unwrap()
        });
        assert_eq!(dumps.len(), 3);
        assert!(dumps[0].ratio() > 1.5, "ratio = {}", dumps[0].ratio());
        // Weak scaling: write time grows with ranks, compute does not.
        assert!(dumps[2].write_seconds > dumps[0].write_seconds);
        assert_eq!(dumps[0].compress_seconds, dumps[2].compress_seconds);

        let loads = exp.load(&ranks, &streams, |s| {
            codec.decompress::<f32>(s, noop()).unwrap().0.len()
        });
        assert_eq!(loads.len(), 3);
        assert!(loads[2].read_seconds > loads[0].read_seconds);
    }

    #[test]
    fn higher_ratio_codec_dumps_faster_at_scale() {
        // The Figure 6 story with two synthetic codecs: same compute, 2x
        // ratio difference -> the better ratio wins at 4096 ranks.
        let ds = nyx::dataset(Scale::Small);
        let exp = ScalingExperiment {
            name: "toy",
            fields: &ds.fields,
            pfs: PfsModel::default(),
            pool: WorkerPool::new(1),
        };
        // Use MB-scale streams so bandwidth (not per-file metadata)
        // dominates, as it does at the paper's 3 GB/rank sizes.
        let (d_half, _) = exp.dump(&[4096], |_| vec![0u8; 8 << 20]);
        let (d_quarter, _) = exp.dump(&[4096], |_| vec![0u8; 2 << 20]);
        assert!(d_quarter[0].write_seconds < d_half[0].write_seconds * 0.6);
    }
}
