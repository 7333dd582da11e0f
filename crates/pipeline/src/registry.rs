//! The codec registry: id/name lookup plus container-aware dispatch, and
//! stream identification from a header alone.

use crate::codec::{Codec, CompressOpts, PipelineElem};
use crate::codecs;
use crate::container::{self, ContainerHeader, CONTAINER_VERSION};
use crate::stream::{self, ChunkSink, ChunkSource, Sequential, StreamHeader, StreamStats, VecSink};
use pwrel_data::{CodecError, Dims};
use pwrel_trace::{noop, stage, Recorder, Span};
use std::fmt;
use std::sync::OnceLock;

/// An ordered set of [`Codec`] implementations keyed by id and name.
pub struct CodecRegistry {
    entries: Vec<Box<dyn Codec>>,
}

impl CodecRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// A registry holding every codec built into the workspace.
    pub fn builtin() -> Self {
        let mut r = Self::new();
        r.register(Box::new(codecs::SzT));
        r.register(Box::new(codecs::ZfpT));
        r.register(Box::new(codecs::SzAbs));
        r.register(Box::new(codecs::SzPwr));
        r.register(Box::new(codecs::Fpzip));
        r.register(Box::new(codecs::Isabela));
        r.register(Box::new(codecs::ZfpP));
        r
    }

    /// Adds a codec. Panics if its id or name collides with an existing
    /// entry — registration is a startup-time act and a collision is a
    /// programming error, not a runtime condition.
    pub fn register(&mut self, codec: Box<dyn Codec>) {
        assert!(
            self.get(codec.id()).is_none(),
            "codec id {} registered twice",
            codec.id()
        );
        assert!(
            self.by_name(codec.name()).is_none(),
            "codec name {:?} registered twice",
            codec.name()
        );
        self.entries.push(codec);
    }

    /// Looks a codec up by its stream id.
    pub fn get(&self, id: u8) -> Option<&dyn Codec> {
        self.entries
            .iter()
            .find(|c| c.id() == id)
            .map(|c| c.as_ref())
    }

    /// Looks a codec up by its registry name.
    pub fn by_name(&self, name: &str) -> Option<&dyn Codec> {
        self.entries
            .iter()
            .find(|c| c.name() == name)
            .map(|c| c.as_ref())
    }

    /// Iterates over the registered codecs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Codec> {
        self.entries.iter().map(|c| c.as_ref())
    }

    /// Compresses `data` with the named codec and wraps the result in
    /// the unified container.
    pub fn compress<F: PipelineElem>(
        &self,
        name: &str,
        data: &[F],
        dims: Dims,
        opts: &CompressOpts,
    ) -> Result<Vec<u8>, CodecError> {
        self.compress_traced(name, data, dims, opts, noop())
    }

    /// [`CodecRegistry::compress`] with per-stage recording: a root
    /// `compress` span brackets the whole run (including container
    /// wrapping) and the byte counters record the uncompressed input
    /// and the final container size. Emits the same bytes.
    pub fn compress_traced<F: PipelineElem>(
        &self,
        name: &str,
        data: &[F],
        dims: Dims,
        opts: &CompressOpts,
        rec: &dyn Recorder,
    ) -> Result<Vec<u8>, CodecError> {
        let codec = self
            .by_name(name)
            .ok_or(CodecError::InvalidArgument("unknown codec name"))?;
        if data.len() != dims.len() {
            return Err(CodecError::InvalidArgument("data length != dims product"));
        }
        let _root = Span::enter(rec, stage::COMPRESS);
        if rec.is_enabled() {
            rec.add(
                stage::C_BYTES_IN,
                (data.len() * (F::BITS as usize / 8)) as u64,
            );
        }
        let payload = F::codec_compress(codec, data, dims, opts, rec)?;
        let header = ContainerHeader {
            version: CONTAINER_VERSION,
            codec_id: codec.id(),
            elem_bits: F::BITS as u8,
            dims,
            bound: opts.bound,
            base: opts.base,
            entropy_mode: codec.entropy_mode(),
        };
        let stream = container::wrap(&header, &payload);
        if rec.is_enabled() {
            rec.add(stage::C_BYTES_OUT, stream.len() as u64);
        }
        Ok(stream)
    }

    /// Compresses a chunk source into a framed stream on `out` with the
    /// named codec: the bounded-memory counterpart of
    /// [`CodecRegistry::compress`]. Runs [`stream::compress_frames`]
    /// inline on the calling thread ([`stream::Sequential`]). See
    /// [`crate::stream`] for the frame format and [`stream::ChunkPlan`]
    /// for chunk sizing rules.
    pub fn compress_stream<F: PipelineElem>(
        &self,
        name: &str,
        src: &mut dyn ChunkSource<F>,
        out: &mut dyn std::io::Write,
        dims: Dims,
        opts: &CompressOpts,
        chunk_elems: usize,
    ) -> Result<StreamStats, CodecError> {
        self.compress_stream_traced(name, src, out, dims, opts, chunk_elems, noop())
    }

    /// [`CodecRegistry::compress_stream`] with per-stage recording: a
    /// root `stream_compress` span brackets the run and every chunk
    /// records its own `chunk_compress` span plus the codec's stages.
    /// Emits the same bytes.
    #[allow(clippy::too_many_arguments)] // mirrors compress_stream plus the recorder
    pub fn compress_stream_traced<F: PipelineElem>(
        &self,
        name: &str,
        src: &mut dyn ChunkSource<F>,
        out: &mut dyn std::io::Write,
        dims: Dims,
        opts: &CompressOpts,
        chunk_elems: usize,
        rec: &dyn Recorder,
    ) -> Result<StreamStats, CodecError> {
        let codec = self
            .by_name(name)
            .ok_or(CodecError::InvalidArgument("unknown codec name"))?;
        let _root = Span::enter(rec, stage::STREAM_COMPRESS);
        stream::compress_frames(codec, &Sequential, src, out, dims, opts, chunk_elems, rec)
    }

    /// Decompresses a framed stream from `input` into `sink`, chunk by
    /// chunk with bounded memory and on the calling thread, returning
    /// the stream header and the run counters.
    pub fn decompress_stream<F: PipelineElem>(
        &self,
        input: &mut dyn std::io::Read,
        sink: &mut dyn ChunkSink<F>,
    ) -> Result<(StreamHeader, StreamStats), CodecError> {
        self.decompress_stream_traced(input, sink, noop())
    }

    /// [`CodecRegistry::decompress_stream`] with per-stage recording.
    pub fn decompress_stream_traced<F: PipelineElem>(
        &self,
        input: &mut dyn std::io::Read,
        sink: &mut dyn ChunkSink<F>,
        rec: &dyn Recorder,
    ) -> Result<(StreamHeader, StreamStats), CodecError> {
        let _root = Span::enter(rec, stage::STREAM_DECOMPRESS);
        let header = stream::decode_stream_header(input)?;
        let stats = self.decompress_stream_body_traced(&header, input, sink, rec)?;
        Ok((header, stats))
    }

    /// Decompresses the frame sequence of a stream whose header the
    /// caller already decoded (and vetted): `input` must be positioned
    /// at the first frame marker. This is the admission-control hook for
    /// servers — `pwrel-serve` decodes the header off the socket,
    /// rejects implausible shapes against its own limits, and only then
    /// commits to the frame walk, without re-parsing or buffering the
    /// header bytes.
    pub fn decompress_stream_body_traced<F: PipelineElem>(
        &self,
        header: &StreamHeader,
        input: &mut dyn std::io::Read,
        sink: &mut dyn ChunkSink<F>,
        rec: &dyn Recorder,
    ) -> Result<StreamStats, CodecError> {
        let codec = self.stream_codec::<F>(header)?;
        stream::decompress_frames(codec, &Sequential, header, input, sink, rec)
    }

    /// The codec a framed stream's `header` names, after checking that
    /// the stream holds `F` elements: the lookup every caller of
    /// [`stream::decompress_frames`] makes first.
    pub fn stream_codec<F: PipelineElem>(
        &self,
        header: &StreamHeader,
    ) -> Result<&dyn Codec, CodecError> {
        if header.elem_bits as u32 != F::BITS {
            return Err(CodecError::Mismatch("element type does not match stream"));
        }
        self.get(header.codec_id)
            .ok_or(CodecError::InvalidArgument("unknown codec id in stream"))
    }

    /// Decompresses a unified container or a framed stream. Anything
    /// else, a bare codec payload included, is [`CodecError::Mismatch`]:
    /// such a payload decodes through its own codec.
    pub fn decompress<F: PipelineElem>(&self, bytes: &[u8]) -> Result<(Vec<F>, Dims), CodecError> {
        self.decompress_traced(bytes, noop())
    }

    /// [`CodecRegistry::decompress`] with per-stage recording: a root
    /// `decompress` span brackets the run. Byte counters use the
    /// decompress-direction names so a round trip on one sink keeps the
    /// directions separate.
    pub fn decompress_traced<F: PipelineElem>(
        &self,
        bytes: &[u8],
        rec: &dyn Recorder,
    ) -> Result<(Vec<F>, Dims), CodecError> {
        let _root = Span::enter(rec, stage::DECOMPRESS);
        if rec.is_enabled() {
            rec.add(stage::C_DECOMP_BYTES_IN, bytes.len() as u64);
        }
        if stream::is_framed(bytes) {
            let mut input: &[u8] = bytes;
            let mut sink = VecSink::new();
            let (header, _) = self.decompress_stream_traced::<F>(&mut input, &mut sink, rec)?;
            if !input.is_empty() {
                return Err(CodecError::Corrupt("trailing bytes after final frame"));
            }
            let data = sink.into_inner();
            if rec.is_enabled() {
                rec.add(
                    stage::C_DECOMP_BYTES_OUT,
                    (data.len() * (F::BITS as usize / 8)) as u64,
                );
            }
            return Ok((data, header.dims));
        }
        let (header, payload) = container::unwrap(bytes)?;
        if header.elem_bits as u32 != F::BITS {
            return Err(CodecError::Mismatch("element type does not match stream"));
        }
        let codec = self
            .get(header.codec_id)
            .ok_or(CodecError::InvalidArgument("unknown codec id in container"))?;
        let (data, dims) = F::codec_decompress(codec, payload, rec)?;
        if dims != header.dims {
            return Err(CodecError::Corrupt("payload dims disagree with container"));
        }
        if rec.is_enabled() {
            rec.add(
                stage::C_DECOMP_BYTES_OUT,
                (data.len() * (F::BITS as usize / 8)) as u64,
            );
        }
        Ok((data, dims))
    }
}

/// What a compressed stream's header says it holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamInfo {
    /// A unified container with its parsed header.
    Unified(ContainerHeader),
    /// A framed chunk stream with its parsed stream header.
    Framed(StreamHeader),
}

impl StreamInfo {
    /// Element width in bits (32 or 64).
    pub fn elem_bits(&self) -> u8 {
        match self {
            StreamInfo::Unified(h) => h.elem_bits,
            StreamInfo::Framed(h) => h.elem_bits,
        }
    }
}

/// One line naming the stream kind, the codec (by its builtin registry
/// name), element type, shape, bound and entropy mode: what `pwrel info`
/// and the service's `info` request print.
impl fmt::Display for StreamInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, codec_id, elem_bits, dims, bound, mode) = match self {
            StreamInfo::Unified(h) => (
                "unified container",
                h.codec_id,
                h.elem_bits,
                h.dims,
                h.bound,
                h.entropy_mode,
            ),
            StreamInfo::Framed(h) => (
                "framed stream",
                h.codec_id,
                h.elem_bits,
                h.dims,
                h.bound,
                h.entropy_mode,
            ),
        };
        let name = global().get(codec_id).map_or("<unknown>", |c| c.name());
        write!(
            f,
            "{kind}: codec {name} (id {codec_id}), f{elem_bits}, dims {dims}, bound {bound:e}, "
        )?;
        if let StreamInfo::Framed(h) = self {
            write!(f, "{} chunks, ", h.n_chunks)?;
        }
        // The mode byte is also the entropy stage's sub-stream count.
        match mode {
            container::ENTROPY_MODE_SINGLE => write!(f, "entropy mode 1 (single stream)"),
            _ => write!(f, "entropy mode {mode} (interleaved, {mode} sub-streams)"),
        }
    }
}

/// Identifies a unified container or a framed stream from its header
/// bytes alone, so a prefix that holds the header is enough.
pub fn identify(bytes: &[u8]) -> Option<StreamInfo> {
    if stream::is_framed(bytes) {
        let mut r: &[u8] = bytes;
        return stream::decode_stream_header(&mut r)
            .ok()
            .map(StreamInfo::Framed);
    }
    container::read_header(bytes)
        .ok()
        .map(|(h, _, _)| StreamInfo::Unified(h))
}

impl Default for CodecRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

/// The process-wide builtin registry.
pub fn global() -> &'static CodecRegistry {
    static GLOBAL: OnceLock<CodecRegistry> = OnceLock::new();
    GLOBAL.get_or_init(CodecRegistry::builtin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_ids_and_names_are_unique_and_complete() {
        let r = CodecRegistry::builtin();
        let names: Vec<_> = r.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            ["sz_t", "zfp_t", "sz_abs", "sz_pwr", "fpzip", "isabela", "zfp_p"]
        );
        // Every stream carries its codec id, so ids are never renumbered:
        // id 2 stays unassigned.
        let ids: Vec<u8> = r.iter().map(|c| c.id()).collect();
        assert_eq!(ids, [1, 3, 4, 5, 6, 7, 8]);
        for c in r.iter() {
            assert!(!c.describe().is_empty());
        }
    }

    #[test]
    fn unknown_name_and_id_error() {
        let r = CodecRegistry::builtin();
        let data = [1.0f32, 2.0];
        assert!(matches!(
            r.compress("nope", &data, Dims::d1(2), &CompressOpts::rel(1e-3)),
            Err(CodecError::InvalidArgument(_))
        ));
        let mut stream = r
            .compress("sz_t", &data, Dims::d1(2), &CompressOpts::rel(1e-3))
            .unwrap();
        stream[5] = 200; // codec id byte
        assert!(matches!(
            r.decompress::<f32>(&stream),
            Err(CodecError::InvalidArgument(_))
        ));
    }

    #[test]
    fn elem_width_mismatch_is_detected() {
        let r = CodecRegistry::builtin();
        let data = [1.0f32, 2.0, 3.0];
        let stream = r
            .compress("sz_t", &data, Dims::d1(3), &CompressOpts::rel(1e-3))
            .unwrap();
        assert!(matches!(
            r.decompress::<f64>(&stream),
            Err(CodecError::Mismatch(_))
        ));
    }

    #[test]
    fn every_builtin_codec_round_trips_f32() {
        let data: Vec<f32> = (1..1500)
            .map(|i| (i as f32 * 0.01).cos() * 50.0 + 60.0)
            .collect();
        let dims = Dims::d1(data.len());
        let r = CodecRegistry::builtin();
        for codec in r.iter() {
            let stream = r
                .compress(codec.name(), &data, dims, &CompressOpts::rel(1e-2))
                .unwrap_or_else(|e| panic!("{}: {e:?}", codec.name()));
            let (back, d) = r
                .decompress::<f32>(&stream)
                .unwrap_or_else(|e| panic!("{}: {e:?}", codec.name()));
            assert_eq!(d, dims, "{}", codec.name());
            assert_eq!(back.len(), data.len(), "{}", codec.name());
        }
    }

    #[test]
    fn identify_reads_the_header_alone() {
        let data: Vec<f32> = (1..5000).map(|i| (i as f32).sqrt()).collect();
        let dims = Dims::d1(data.len());
        let opts = CompressOpts::rel(1e-3);
        let r = CodecRegistry::builtin();
        let unified = r.compress("sz_t", &data, dims, &opts).unwrap();
        let mut framed = Vec::new();
        let mut src = stream::SliceSource::new(&data[..]);
        r.compress_stream("zfp_t", &mut src, &mut framed, dims, &opts, 1024)
            .unwrap();
        for (bytes, want) in [
            (
                unified,
                "unified container: codec sz_t (id 1), f32, dims 4999, bound 1e-3",
            ),
            (
                framed,
                "framed stream: codec zfp_t (id 3), f32, dims 4999, bound 1e-3, 5 chunks",
            ),
        ] {
            // 40 bytes hold either header but none of the payload.
            let info = identify(&bytes[..40]).unwrap();
            assert_eq!(info.elem_bits(), 32);
            assert!(info.to_string().starts_with(want), "{info}");
        }
        assert_eq!(identify(b"PWT1 pre-container stream"), None);
        assert_eq!(identify(b""), None);
    }

    #[test]
    fn global_is_shared() {
        let a = global() as *const _;
        let b = global() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn traced_round_trip_covers_declared_stages() {
        use pwrel_trace::TraceSink;
        use std::collections::BTreeSet;

        let data: Vec<f32> = (1..2000)
            .map(|i| (i as f32 * 0.01).cos() * 50.0 + 60.0)
            .collect();
        let dims = Dims::d1(data.len());
        let r = CodecRegistry::builtin();
        for codec in r.iter() {
            let sink = TraceSink::new();
            let stream = r
                .compress_traced(codec.name(), &data, dims, &CompressOpts::rel(1e-2), &sink)
                .unwrap_or_else(|e| panic!("{}: {e:?}", codec.name()));
            let (back, _) = r
                .decompress_traced::<f32>(&stream, &sink)
                .unwrap_or_else(|e| panic!("{}: {e:?}", codec.name()));
            assert_eq!(back.len(), data.len(), "{}", codec.name());

            let seen: BTreeSet<&str> = pwrel_trace::export::stage_rows(&sink).into_keys().collect();
            for want in codec.stages() {
                assert!(
                    seen.contains(want),
                    "{}: declared stage {want:?} missing from trace (saw {seen:?})",
                    codec.name()
                );
            }
            assert!(seen.contains(stage::COMPRESS), "{}", codec.name());
            assert!(seen.contains(stage::DECOMPRESS), "{}", codec.name());
        }
    }

    #[test]
    fn traced_compress_is_byte_identical_to_plain() {
        use pwrel_trace::TraceSink;

        let data: Vec<f64> = (1..1200).map(|i| (i as f64 * 0.03).sin() + 2.0).collect();
        let dims = Dims::d1(data.len());
        let r = CodecRegistry::builtin();
        for codec in r.iter() {
            let plain = r
                .compress(codec.name(), &data, dims, &CompressOpts::rel(1e-3))
                .unwrap();
            let sink = TraceSink::new();
            let traced = r
                .compress_traced(codec.name(), &data, dims, &CompressOpts::rel(1e-3), &sink)
                .unwrap();
            assert_eq!(plain, traced, "{}", codec.name());
        }
    }

    #[test]
    fn traced_byte_counters_reconcile() {
        use pwrel_trace::TraceSink;
        use std::collections::BTreeMap;

        let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.1).sin() + 3.0).collect();
        let dims = Dims::d1(data.len());
        let r = CodecRegistry::builtin();
        let sink = TraceSink::new();
        let stream = r
            .compress_traced("sz_t", &data, dims, &CompressOpts::rel(1e-3), &sink)
            .unwrap();
        r.decompress_traced::<f32>(&stream, &sink).unwrap();
        let counters: BTreeMap<_, _> = sink.counters().into_iter().collect();
        assert_eq!(counters[stage::C_BYTES_IN], (data.len() * 4) as u64);
        assert_eq!(counters[stage::C_BYTES_OUT], stream.len() as u64);
        assert_eq!(counters[stage::C_DECOMP_BYTES_IN], stream.len() as u64);
        assert_eq!(counters[stage::C_DECOMP_BYTES_OUT], (data.len() * 4) as u64);
    }
}
