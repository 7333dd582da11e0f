//! Canonical stage names: the span taxonomy shared by the instrumented
//! crates, the codec registry's per-codec stage declarations, and the
//! exporters.
//!
//! One constant per stage boundary of the codecs — the log map, SZ's
//! predict/quantize sweep, Huffman and LZ passes and reconstruction,
//! ZFP's lift and plane coder — plus the container and orchestration
//! layers above them. Using these constants — never string literals —
//! keeps the check "trace span names cover every stage the registry
//! reports" structural rather than textual, and the benchmark's
//! per-layer attribution reads the same names.

/// Whole-codec root span opened by the registry around `compress`.
pub const COMPRESS: &str = "compress";
/// Whole-codec root span opened by the registry around `decompress`.
pub const DECOMPRESS: &str = "decompress";

/// Log-domain mapping: forward transform / plan + fused chunk mapping.
pub const TRANSFORM: &str = "transform";
/// Inverse log-domain mapping (exponentiation) on decompress.
pub const TRANSFORM_INV: &str = "transform_inv";
/// Sign-bitmap RLE+LZ coding (Algorithm 1's sign section).
pub const SIGNS: &str = "signs";

/// SZ prediction + error-bounded quantization raster sweep.
pub const PREDICT_QUANTIZE: &str = "predict_quantize";
/// Huffman coding of the quantization-factor stream (both directions).
pub const HUFFMAN: &str = "huffman";
/// The optional LZ pass over the serialized SZ stream (both directions).
pub const LZ: &str = "lz";
/// SZ reconstruction sweep (prediction replay) on decompress.
pub const RECONSTRUCT: &str = "reconstruct";

/// ZFP block-floating-point + decorrelating lifting transform
/// (per-block, aggregated).
pub const LIFT: &str = "lift";
/// ZFP negabinary mapping + group-testing plane coder (per-block,
/// aggregated).
pub const PLANE_CODE: &str = "plane_code";

/// Single-stage codecs without internal instrumentation (FPZIP,
/// ISABELA): the whole native encode/decode.
pub const ENCODE: &str = "encode";

/// Framed-stream root span opened around a whole `compress_stream` run.
pub const STREAM_COMPRESS: &str = "stream_compress";
/// Framed-stream root span opened around a whole `decompress_stream` run.
pub const STREAM_DECOMPRESS: &str = "stream_decompress";
/// Per-chunk compress span inside a framed-stream run (one per frame).
pub const CHUNK_COMPRESS: &str = "chunk_compress";
/// Per-chunk decompress span inside a framed-stream run (one per frame).
pub const CHUNK_DECOMPRESS: &str = "chunk_decompress";

/// Counter: uncompressed bytes entering a codec.
pub const C_BYTES_IN: &str = "bytes_in";
/// Counter: compressed bytes leaving a codec.
pub const C_BYTES_OUT: &str = "bytes_out";
/// Counter: compressed bytes entering decompression. Kept separate from
/// [`C_BYTES_IN`] so a round trip on one sink doesn't mix directions.
pub const C_DECOMP_BYTES_IN: &str = "decompress_bytes_in";
/// Counter: reconstructed bytes leaving decompression.
pub const C_DECOMP_BYTES_OUT: &str = "decompress_bytes_out";
/// Counter: values quantized by the SZ stage.
pub const C_QUANT_VALUES: &str = "quant_values";
/// Counter: values outside the quantization capacity (escaped literals).
pub const C_QUANT_OUTLIERS: &str = "quant_outliers";
/// Counter: chunks a pooled framed-stream run handed to the worker pool.
pub const C_POOL_TASKS: &str = "pool_tasks";
/// Counter: frames written or decoded by the framed-stream engines.
pub const C_STREAM_CHUNKS: &str = "stream_chunks";
/// Counter: scratch-arena buffer requests served from the free list.
pub const C_ARENA_HITS: &str = "arena_hits";
/// Counter: scratch-arena buffer requests that had to allocate.
pub const C_ARENA_MISSES: &str = "arena_misses";
/// Counter: interleaved entropy payloads decoded (one per Huffman buffer
/// carrying the multi-stream descriptor; legacy buffers don't count).
pub const C_ENTROPY_INTERLEAVED: &str = "entropy_interleaved";
/// Counter: entropy sub-streams decoded across interleaved payloads
/// (`C_ENTROPY_INTERLEAVED` × lane count when every payload is 4-way).
pub const C_ENTROPY_SUBSTREAMS: &str = "entropy_substreams";

/// Observation: per-sub-stream payload bytes in an interleaved entropy
/// buffer.
pub const O_ENTROPY_LANE_BYTES: &str = "entropy_lane_bytes";

/// Observation: SZ outlier rate (outliers / values) per compress.
pub const O_OUTLIER_RATE: &str = "outlier_rate";
/// Observation: fraction of negative samples in the sign bitmap.
pub const O_SIGN_DENSITY: &str = "sign_density";
/// Observation: Lemma 2 + kernel round-off correction as a fraction of
/// the uncorrected log-domain bound (`1 - corrected/uncorrected`).
pub const O_LEMMA2_CORRECTION: &str = "lemma2_correction";

// ---------------------------------------------------------------------------
// pwrel-serve (the PWRP/1 service). Serve spans are recorded as
// aggregated totals (`Recorder::add_span_total`), never as raw events:
// a long-running server must not grow its sink per request.
// ---------------------------------------------------------------------------

/// Serve span: one whole request, any type (header read to last byte of
/// the response).
pub const SERVE_REQUEST: &str = "serve.request";
/// Serve span: the codec work of one `compress` request.
pub const SERVE_COMPRESS: &str = "serve.compress";
/// Serve span: the codec work of one `decompress` request.
pub const SERVE_DECOMPRESS: &str = "serve.decompress";
/// Serve span: one `info` request (stream identification).
pub const SERVE_INFO: &str = "serve.info";
/// Serve span: one `codecs` listing request.
pub const SERVE_CODECS: &str = "serve.codecs";
/// Serve span: one `metrics` exposition request.
pub const SERVE_METRICS: &str = "serve.metrics";

/// Counter: requests fully parsed (any type, before dispatch).
pub const C_SERVE_REQUESTS: &str = "serve_requests";
/// Counter: requests rejected with `busy` by the in-flight cap.
pub const C_SERVE_BUSY: &str = "serve_busy";
/// Counter: requests rejected for exhausting the connection byte quota.
pub const C_SERVE_QUOTA: &str = "serve_quota";
/// Counter: connections dropped by the read timeout mid-request.
pub const C_SERVE_TIMEOUTS: &str = "serve_timeouts";
/// Counter: request body bytes consumed off the wire.
pub const C_SERVE_BYTES_IN: &str = "serve_bytes_in";
/// Counter: response body bytes produced onto the wire.
pub const C_SERVE_BYTES_OUT: &str = "serve_bytes_out";

/// Observation: end-to-end latency of one served request, microseconds.
pub const O_SERVE_REQUEST_US: &str = "serve_request_us";
