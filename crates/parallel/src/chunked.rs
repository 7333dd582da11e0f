//! Chunk-pipelined compression of a single large field over framed
//! streams.
//!
//! The paper parallelizes across *files* (one rank, one field, one
//! file). Within a node it is often preferable to split one large field
//! into slabs along its slowest axis and overlap the slabs' stages:
//! each slab is an independent codec stream (prediction restarts at the
//! boundary, so the error bound is preserved per-slab at a small
//! compression-ratio cost), and decompression pipelines the same way.
//!
//! [`ChunkedCodec`] adds no engine of its own. It is a
//! [`ChunkExecutor`] for the one framed-stream engine pair in
//! [`pwrel_pipeline::stream`] — the same engine the registry's
//! `compress_stream`/`decompress_stream` run inline — so the two emit
//! identical bytes for the same chunk size and either side decodes the
//! other's output. Chunk work flows through [`WorkerPool::pipeline`]:
//! the calling thread reads chunk `k+2` and writes frame `k` while
//! workers compress the chunks in between, with the bounded in-flight
//! window capping peak memory at a few chunks regardless of field size.

use crate::pool::WorkerPool;
use pwrel_data::{CodecError, Dims};
use pwrel_pipeline::stream::{self, ChunkExecutor};
use pwrel_pipeline::{
    ChunkSink, ChunkSource, CodecRegistry, CompressOpts, PipelineElem, StreamHeader, StreamStats,
};
use pwrel_trace::{stage, Recorder, Span};
use std::io::{Read, Write};

/// Chunk-pipelined framed-stream compression of registered codecs over
/// a worker pool, with bounded memory.
#[derive(Debug, Clone)]
pub struct ChunkedCodec {
    /// Worker pool used for both directions.
    pub pool: WorkerPool,
    /// Requested elements per chunk (rounded to whole slices of the
    /// slowest axis; see [`pwrel_pipeline::ChunkPlan`]). Zero or more
    /// than the field's total element count is a usage error surfaced as
    /// [`CodecError::InvalidArgument`], never a panic or a silent
    /// single-chunk fallback.
    pub chunk_elems: usize,
    /// Bounded in-flight window for the pipelined executor (clamped to
    /// ≥ 1): peak memory is about `window` chunks plus codec scratch.
    pub window: usize,
}

impl ChunkedCodec {
    /// A chunked codec over `pool` with the given chunk size and a
    /// two-chunks-per-worker window (enough to keep every worker busy
    /// while the caller reads ahead and drains in order).
    pub fn new(pool: WorkerPool, chunk_elems: usize) -> Self {
        Self {
            window: pool.workers() * 2,
            pool,
            chunk_elems,
        }
    }

    /// The out-of-core entry point: compresses a chunk source into a
    /// framed stream on `out` with a registered codec, pipelined over
    /// the pool. Peak memory is about `window` chunks — the field is
    /// never resident.
    pub fn compress_stream<F: PipelineElem>(
        &self,
        registry: &CodecRegistry,
        codec: &str,
        src: &mut dyn ChunkSource<F>,
        out: &mut dyn Write,
        dims: Dims,
        opts: &CompressOpts,
    ) -> Result<StreamStats, CodecError> {
        self.compress_stream_traced(registry, codec, src, out, dims, opts, pwrel_trace::noop())
    }

    /// [`ChunkedCodec::compress_stream`] with per-stage recording: a
    /// root `stream_compress` span on the calling thread, and one
    /// `chunk_compress` span per chunk on whichever worker runs it.
    /// Emits the same bytes.
    #[allow(clippy::too_many_arguments)] // mirrors compress_stream plus the recorder
    pub fn compress_stream_traced<F: PipelineElem>(
        &self,
        registry: &CodecRegistry,
        codec: &str,
        src: &mut dyn ChunkSource<F>,
        out: &mut dyn Write,
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<StreamStats, CodecError> {
        let c = registry
            .by_name(codec)
            .ok_or(CodecError::InvalidArgument("unknown codec name"))?;
        let _root = Span::enter(rec, stage::STREAM_COMPRESS);
        stream::compress_frames(c, self, src, out, dims, opts, self.chunk_elems, rec)
    }

    /// The out-of-core decode entry point: decompresses a framed stream
    /// from `input` into `sink`, pipelined over the pool, returning the
    /// stream header and the run counters.
    pub fn decompress_stream<F: PipelineElem>(
        &self,
        registry: &CodecRegistry,
        input: &mut dyn Read,
        sink: &mut dyn ChunkSink<F>,
    ) -> Result<(StreamHeader, StreamStats), CodecError> {
        self.decompress_stream_traced(registry, input, sink, pwrel_trace::noop())
    }

    /// [`ChunkedCodec::decompress_stream`] with per-stage recording.
    pub fn decompress_stream_traced<F: PipelineElem>(
        &self,
        registry: &CodecRegistry,
        input: &mut dyn Read,
        sink: &mut dyn ChunkSink<F>,
        rec: &dyn Recorder,
    ) -> Result<(StreamHeader, StreamStats), CodecError> {
        let _root = Span::enter(rec, stage::STREAM_DECOMPRESS);
        let header = stream::decode_stream_header(input)?;
        let stats = self.decompress_stream_body_traced(registry, &header, input, sink, rec)?;
        Ok((header, stats))
    }

    /// Pool-pipelined counterpart of
    /// [`CodecRegistry::decompress_stream_body_traced`]: decompresses
    /// the frames of a stream whose header the caller already decoded
    /// and vetted, with `input` positioned at the first frame marker.
    /// Lets a server impose its own shape limits between header and
    /// body without re-buffering the header bytes.
    pub fn decompress_stream_body_traced<F: PipelineElem>(
        &self,
        registry: &CodecRegistry,
        header: &StreamHeader,
        input: &mut dyn Read,
        sink: &mut dyn ChunkSink<F>,
        rec: &dyn Recorder,
    ) -> Result<StreamStats, CodecError> {
        let codec = registry.stream_codec::<F>(header)?;
        stream::decompress_frames(codec, self, header, input, sink, rec)
    }
}

/// Runs the engine's per-chunk work on the pool with a bounded window of
/// `window` chunks; reads, writes and the pool-task count stay on the
/// calling thread. Every consumed chunk counts as one pool task.
impl ChunkExecutor for ChunkedCodec {
    fn run<T, R, P, W, C>(
        &self,
        produce: P,
        work: W,
        mut consume: C,
        rec: &dyn Recorder,
    ) -> Result<(), CodecError>
    where
        T: Send,
        R: Send,
        P: FnMut() -> Result<Option<T>, CodecError>,
        W: Fn(T) -> R + Sync,
        C: FnMut(R) -> Result<(), CodecError>,
    {
        let mut tasks = 0u64;
        let out = self.pool.pipeline(self.window, produce, work, |r| {
            tasks += 1;
            consume(r)
        });
        if rec.is_enabled() {
            rec.add(stage::C_POOL_TASKS, tasks);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwrel_data::{grf, Float};
    use pwrel_pipeline::{global, ReadSource, SliceSource, VecSink, WriteSink};

    /// Compresses `data` as `sz_t` under relative bound `br` through
    /// `chunked`.
    fn sz_t_stream<F: PipelineElem>(
        chunked: &ChunkedCodec,
        data: &[F],
        dims: Dims,
        br: f64,
    ) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        chunked.compress_stream(
            global(),
            "sz_t",
            &mut SliceSource::new(data),
            &mut out,
            dims,
            &CompressOpts::rel(br),
        )?;
        Ok(out)
    }

    /// Decodes a whole framed stream through `chunked`; bytes after the
    /// final frame are corruption.
    fn decode<F: PipelineElem>(
        chunked: &ChunkedCodec,
        bytes: &[u8],
    ) -> Result<(Vec<F>, Dims), CodecError> {
        let mut input = bytes;
        let mut sink = VecSink::new();
        let (header, _) = chunked.decompress_stream(global(), &mut input, &mut sink)?;
        if !input.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes after final frame"));
        }
        Ok((sink.into_inner(), header.dims))
    }

    /// Point-wise relative bound on non-zeros, exact zeros kept.
    fn assert_bounded(orig: &[f32], dec: &[f32], br: f64) {
        assert_eq!(orig.len(), dec.len());
        for (&a, &b) in orig.iter().zip(dec) {
            if a == 0.0 {
                assert_eq!(b, 0.0, "zeros must survive chunking");
            } else {
                assert!(((a as f64 - b as f64) / a as f64).abs() <= br, "{a} -> {b}");
            }
        }
    }

    #[test]
    fn chunked_round_trip_preserves_bound_and_zeros_3d() {
        let dims = Dims::d3(24, 16, 16);
        let mut data = grf::gaussian_field(dims, 42, 2, 2);
        for v in data.iter_mut().step_by(97) {
            *v = 0.0;
        }
        // 6 slices of 256 elements per chunk -> 4 chunks.
        let chunked = ChunkedCodec::new(WorkerPool::new(4), 6 * 256);
        let br = 1e-3;
        let stream = sz_t_stream(&chunked, &data, dims, br).unwrap();
        let (dec, d2) = decode::<f32>(&chunked, &stream).unwrap();
        assert_eq!(d2, dims);
        assert_bounded(&data, &dec, br);
    }

    #[test]
    fn chunked_output_is_deterministic_across_worker_counts() {
        let dims = Dims::d2(40, 32);
        let data = grf::gaussian_field(dims, 7, 3, 2);
        let one = ChunkedCodec::new(WorkerPool::new(1), 8 * 32);
        let four = ChunkedCodec::new(WorkerPool::new(4), 8 * 32);
        let a = sz_t_stream(&one, &data, dims, 1e-2).unwrap();
        let b = sz_t_stream(&four, &data, dims, 1e-2).unwrap();
        assert_eq!(a, b, "stream must not depend on scheduling");
    }

    #[test]
    fn pipelined_bytes_match_sequential_registry_stream() {
        let dims = Dims::d2(32, 24);
        let data: Vec<f32> = grf::gaussian_field(dims, 3, 2, 2)
            .iter()
            .map(|v| v.abs() + 0.5)
            .collect();
        let chunk_elems = 8 * 24;
        let chunked = ChunkedCodec::new(WorkerPool::new(4), chunk_elems);
        let opts = CompressOpts::rel(1e-2);
        for codec in global().iter() {
            let mut pipelined = Vec::new();
            chunked
                .compress_stream::<f32>(
                    global(),
                    codec.name(),
                    &mut SliceSource::new(&data),
                    &mut pipelined,
                    dims,
                    &opts,
                )
                .unwrap_or_else(|e| panic!("{}: {e:?}", codec.name()));
            let mut sequential = Vec::new();
            global()
                .compress_stream::<f32>(
                    codec.name(),
                    &mut SliceSource::new(&data),
                    &mut sequential,
                    dims,
                    &opts,
                    chunk_elems,
                )
                .unwrap_or_else(|e| panic!("{}: {e:?}", codec.name()));
            assert_eq!(
                pipelined,
                sequential,
                "{}: pool and inline executors must emit identical streams",
                codec.name()
            );
        }
    }

    #[test]
    fn chunked_1d_and_partial_chunks() {
        let dims = Dims::d1(1001);
        let data: Vec<f32> = (0..1001).map(|i| (i as f32 + 2.0).ln()).collect();
        // 150-element chunks: six full ones and a final 101-element one.
        let chunked = ChunkedCodec::new(WorkerPool::new(3), 150);
        let stream = sz_t_stream(&chunked, &data, dims, 1e-2).unwrap();
        let mut input = &stream[..];
        let header = stream::decode_stream_header(&mut input).unwrap();
        assert_eq!(header.n_chunks, 7);
        let (dec, _) = decode::<f32>(&chunked, &stream).unwrap();
        assert_bounded(&data, &dec, 1e-2);
    }

    #[test]
    fn chunk_size_usage_errors_not_panics() {
        let dims = Dims::d2(16, 16);
        let data = vec![1.0f32; dims.len()];
        for bad in [0usize, dims.len() + 1, dims.len() * 10] {
            let chunked = ChunkedCodec::new(WorkerPool::new(2), bad);
            let r = sz_t_stream(&chunked, &data, dims, 1e-2);
            assert!(
                matches!(r, Err(CodecError::InvalidArgument(_))),
                "chunk_elems={bad} must be a usage error, got {r:?}"
            );
        }
        // A full-field chunk is legal: exactly one frame.
        let chunked = ChunkedCodec::new(WorkerPool::new(2), dims.len());
        assert!(sz_t_stream(&chunked, &data, dims, 1e-2).is_ok());
    }

    #[test]
    fn registry_round_trip_every_codec() {
        let dims = Dims::d2(24, 32);
        let data: Vec<f32> = grf::gaussian_field(dims, 11, 2, 2)
            .iter()
            .map(|v| v.abs() + 0.25)
            .collect();
        let chunked = ChunkedCodec::new(WorkerPool::new(3), 6 * 32);
        let opts = CompressOpts::rel(1e-2);
        for codec in global().iter() {
            let mut stream = Vec::new();
            chunked
                .compress_stream::<f32>(
                    global(),
                    codec.name(),
                    &mut SliceSource::new(&data),
                    &mut stream,
                    dims,
                    &opts,
                )
                .unwrap_or_else(|e| panic!("{}: {e:?}", codec.name()));
            let (dec, d2) = decode::<f32>(&chunked, &stream)
                .unwrap_or_else(|e| panic!("{}: {e:?}", codec.name()));
            assert_eq!(d2, dims, "{}", codec.name());
            assert_eq!(dec.len(), data.len(), "{}", codec.name());
            // The registry's one-shot decoder reads the same stream.
            let (dec2, d3) = global().decompress::<f32>(&stream).unwrap();
            assert_eq!(d3, dims, "{}", codec.name());
            assert_eq!(dec2, dec, "{}", codec.name());
        }
    }

    #[test]
    fn out_of_core_round_trip_via_read_write() {
        let dims = Dims::d3(16, 8, 8);
        let data: Vec<f32> = grf::gaussian_field(dims, 9, 2, 2)
            .iter()
            .map(|v| v.abs() + 0.5)
            .collect();
        let mut le = Vec::with_capacity(data.len() * 4);
        for &v in &data {
            v.write_le(&mut le);
        }
        let chunked = ChunkedCodec::new(WorkerPool::new(3), 4 * 64);
        let opts = CompressOpts::rel(1e-2);

        // Compress from a byte reader: the field is never resident.
        let mut src: ReadSource<&[u8]> = ReadSource::new(&le[..]);
        let mut stream_bytes = Vec::new();
        let stats = chunked
            .compress_stream::<f32>(global(), "sz_t", &mut src, &mut stream_bytes, dims, &opts)
            .unwrap();
        assert_eq!(stats.chunks, 4);
        assert_eq!(stats.elements, dims.len() as u64);
        assert_eq!(stats.bytes_out, stream_bytes.len() as u64);

        // Decompress into a byte writer.
        let mut input: &[u8] = &stream_bytes;
        let mut sink: WriteSink<Vec<u8>> = WriteSink::new(Vec::new());
        let (header, _) = chunked
            .decompress_stream::<f32>(global(), &mut input, &mut sink)
            .unwrap();
        assert_eq!(header.dims, dims);
        assert!(input.is_empty(), "reader must stop at the final frame");
        let out_le = sink.into_inner();
        assert_eq!(out_le.len(), le.len());
        for (a, b) in le.chunks_exact(4).zip(out_le.chunks_exact(4)) {
            let (a, b) = (f32::read_le(a).unwrap(), f32::read_le(b).unwrap());
            assert!(((a as f64 - b as f64) / a as f64).abs() <= 1e-2);
        }
    }

    #[test]
    fn traced_chunked_round_trip_records_fanout() {
        use pwrel_trace::TraceSink;
        let dims = Dims::d2(40, 32);
        let data: Vec<f32> = grf::gaussian_field(dims, 5, 2, 2)
            .iter()
            .map(|v| v.abs() + 0.25)
            .collect();
        let chunked = ChunkedCodec::new(WorkerPool::new(4), 10 * 32);
        let opts = CompressOpts::rel(1e-2);
        let sink = TraceSink::new();
        let mut stream = Vec::new();
        chunked
            .compress_stream_traced::<f32>(
                global(),
                "sz_t",
                &mut SliceSource::new(&data),
                &mut stream,
                dims,
                &opts,
                &sink,
            )
            .unwrap();
        let plain = sz_t_stream(&chunked, &data, dims, 1e-2).unwrap();
        assert_eq!(stream, plain, "tracing must not change the stream");
        let mut dec = VecSink::<f32>::new();
        chunked
            .decompress_stream_traced(global(), &mut &stream[..], &mut dec, &sink)
            .unwrap();
        assert_eq!(dec.into_inner().len(), data.len());

        let rows = pwrel_trace::export::stage_rows(&sink);
        // One root span per direction, one chunk span per frame per
        // direction, pool tasks from both pipelined runs.
        assert_eq!(rows[stage::STREAM_COMPRESS].calls, 1);
        assert_eq!(rows[stage::STREAM_DECOMPRESS].calls, 1);
        assert_eq!(rows[stage::CHUNK_COMPRESS].calls, 4);
        assert_eq!(rows[stage::CHUNK_DECOMPRESS].calls, 4);
        let counters: std::collections::BTreeMap<_, _> = sink.counters().into_iter().collect();
        assert_eq!(counters[stage::C_POOL_TASKS], 8);
        assert_eq!(counters[stage::C_STREAM_CHUNKS], 8);
        // The arena recycles once the window wraps; every take is
        // accounted as a hit or a miss.
        assert_eq!(
            counters[stage::C_ARENA_HITS] + counters[stage::C_ARENA_MISSES],
            8
        );
    }

    #[test]
    fn corrupt_stream_rejected() {
        let dims = Dims::d1(100);
        let data = vec![1.5f32; 100];
        let chunked = ChunkedCodec::new(WorkerPool::new(2), 25);
        let stream = sz_t_stream(&chunked, &data, dims, 1e-2).unwrap();
        assert!(decode::<f32>(&chunked, &stream[..10]).is_err());
        let mut bad = stream.clone();
        bad[0] = b'X';
        assert!(decode::<f32>(&chunked, &bad).is_err());
        // f64 element type mismatch.
        assert!(matches!(
            decode::<f64>(&chunked, &stream),
            Err(CodecError::Mismatch(_))
        ));
        // Truncation after a whole frame must still be caught.
        for cut in [stream.len() - 1, stream.len() / 2] {
            assert!(
                decode::<f32>(&chunked, &stream[..cut]).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn more_chunks_cost_some_ratio_but_not_much() {
        let dims = Dims::d2(128, 64);
        let data: Vec<f32> = grf::gaussian_field(dims, 9, 4, 3)
            .iter()
            .map(|v| v.abs() + 0.5)
            .collect();
        let whole = global()
            .compress("sz_t", &data, dims, &CompressOpts::rel(1e-2))
            .unwrap();
        let chunked = ChunkedCodec::new(WorkerPool::new(4), dims.len() / 8);
        let split = sz_t_stream(&chunked, &data, dims, 1e-2).unwrap();
        assert!(
            split.len() < whole.len() * 2,
            "{} vs {}",
            split.len(),
            whole.len()
        );
    }
}
