#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Codec registry and unified container for every pipeline in the
//! workspace.
//!
//! The paper's transformation scheme is generic — it wraps *any*
//! absolute-error-bounded compressor — and this crate is where that
//! genericity becomes operational:
//!
//! * [`Codec`] is the object-safe whole-codec contract: metadata plus
//!   one compress and one decompress method per element type (`f32`,
//!   `f64`), each taking the run's recorder, so registries can hold
//!   `Box<dyn Codec>`,
//! * [`CodecRegistry`] maps codec ids and names to implementations and
//!   owns the compress/decompress dispatch,
//! * [`container`] defines the one versioned self-describing outer
//!   header (`magic | version | codec id | elem | dims | bound
//!   metadata`) every registered codec's stream is wrapped in,
//! * [`legacy`] keeps pre-registry streams decodable by sniffing the old
//!   per-codec magics,
//! * [`stream`] is the framed streaming layer: a stream header plus
//!   self-describing per-chunk frames so whole fields compress and
//!   decompress through chunk sources/sinks with bounded memory. Its one
//!   engine pair ([`stream::compress_frames`] /
//!   [`stream::decompress_frames`]) runs on a [`stream::ChunkExecutor`]:
//!   inline ([`stream::Sequential`]) behind
//!   `CodecRegistry::{compress,decompress}_stream`, or on a worker pool
//!   behind `pwrel-parallel`'s `ChunkedCodec`.
//!
//! The stage traits the codecs are assembled from (`Transform`,
//! `Predictor`, `Quantizer`, `Encoder`, `LosslessStage`, …) live in
//! `pwrel-data` so the codec crates can implement them without a
//! dependency cycle; this crate sits above the codecs and only composes.

pub mod codec;
pub mod codecs;
pub mod container;
pub mod legacy;
pub mod registry;
pub mod stream;

pub use codec::{Codec, CompressOpts, PipelineElem};
pub use container::{
    ContainerHeader, CONTAINER_MAGIC, CONTAINER_VERSION, ENTROPY_MODE_INTERLEAVED,
    ENTROPY_MODE_SINGLE,
};
pub use legacy::{identify, StreamInfo, StreamKind};
pub use registry::{global, CodecRegistry};
pub use stream::{
    BufferPool, ChunkPlan, ChunkSink, ChunkSource, FrameHeader, FrameWalker, ReadSource,
    SliceSource, StreamHeader, StreamStats, VecSink, WriteSink, STREAM_MAGIC, STREAM_VERSION,
};
