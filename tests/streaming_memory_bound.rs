//! Streaming compress runs in bounded memory: compressing a 512×128×128
//! f32 field (32 MiB) in 1 MiB chunks through `ChunkedCodec` raises the
//! process's peak resident set by at most `4 × chunk_bytes × window`, at
//! 1, 2 and 4 workers with a four-chunks-per-worker window. The field is
//! twice the 1-worker budget (16 MiB), so a leak the size of the field,
//! such as keeping every chunk's input buffer, breaks that budget.
//!
//! The field is never materialized: a template source synthesizes each
//! chunk on demand, and the framed stream goes to `std::io::sink()`. The
//! budget's 4× per window slot covers the raw chunk in each slot plus
//! each active worker's codec scratch (SZ's fused sweep keeps a code
//! array and a reconstruction ring, a few chunk sizes per task) and
//! allocator slack.
//!
//! This test is alone in its file because the peak (`VmHWM` in
//! `/proc/self/status`) is one high-water mark per process: any other
//! test in the same binary would raise it. It only grows, so the runs go
//! in increasing window order, each checked against its own budget.

#![cfg(target_os = "linux")]

use pwrel::data::{CodecError, Dims};
use pwrel::parallel::{ChunkedCodec, WorkerPool};
use pwrel::pipeline::{global, ChunkSource, CompressOpts};

/// Edge of the two fast axes.
const N: usize = 128;
/// Slowest axis: 512×128×128 f32 is 32 MiB.
const NZ: usize = 512;
/// Sixteen slices of the slowest axis: 1 MiB of f32 per chunk.
const CHUNK_ELEMS: usize = 16 * N * N;

/// Synthesizes the field chunk by chunk from one chunk-sized template:
/// values span several decades (the transform codecs' target shape) and
/// each slab is scaled by its index, so no two frames are identical.
struct TemplateSource {
    template: Vec<f32>,
    pos: usize,
}

impl TemplateSource {
    fn new() -> Self {
        let template = (0..CHUNK_ELEMS)
            .map(|x| {
                let mag = 10f32.powi((x % 7) as i32 - 3);
                (0.1 + (x as f32 * 0.37).sin().abs()) * mag
            })
            .collect();
        Self { template, pos: 0 }
    }
}

impl ChunkSource<f32> for TemplateSource {
    fn next_chunk(&mut self, n: usize, buf: &mut Vec<f32>) -> Result<(), CodecError> {
        buf.clear();
        buf.extend((self.pos..self.pos + n).map(|i| {
            let slab = (i / CHUNK_ELEMS) as f32;
            self.template[i % CHUNK_ELEMS] * (1.0 + slab * 1e-3)
        }));
        self.pos += n;
        Ok(())
    }
}

/// The process's peak resident set (`VmHWM`) in KiB.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().strip_suffix("kB"))
        .and_then(|l| l.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status")
}

#[test]
fn streaming_compress_peak_rss_stays_within_four_chunks_per_window_slot() {
    let dims = Dims::d3(NZ, N, N);
    let chunk_bytes = CHUNK_ELEMS * 4;
    let baseline_kib = vm_hwm_kib();
    for workers in [1, 2, 4] {
        let mut chunked = ChunkedCodec::new(WorkerPool::new(workers), CHUNK_ELEMS);
        chunked.window = workers * 4;
        let budget_kib = (4 * chunk_bytes * chunked.window / 1024) as u64;
        let stats = chunked
            .compress_stream::<f32>(
                global(),
                "sz_t",
                &mut TemplateSource::new(),
                &mut std::io::sink(),
                dims,
                &CompressOpts::rel(1e-3),
            )
            .expect("streaming compress");
        assert_eq!(stats.chunks, (NZ / 16) as u64);
        let delta_kib = vm_hwm_kib().saturating_sub(baseline_kib);
        assert!(
            delta_kib <= budget_kib,
            "{workers} workers (window {}): peak RSS rose {delta_kib} KiB, budget {budget_kib} KiB",
            chunked.window,
        );
    }
}
