//! Command execution.
//!
//! Every compress/decompress path goes through the unified
//! [`pwrel_pipeline::CodecRegistry`]: there are no per-codec match arms
//! here. New streams are unified containers; legacy per-codec streams
//! keep decoding via the registry's sniff fallback.

use crate::archive::{self, Entry};
use crate::args::{Cli, Command, ElemType, RemoteAction};
use crate::io;
use crate::CliError;
use pwrel_data::{CodecError, Dims, Float};
use pwrel_metrics::RelErrorStats;
use pwrel_pipeline::{global, CompressOpts, PipelineElem, StreamInfo};

/// Runs a parsed command, writing human-readable progress to `out`.
pub fn run(cli: Cli, out: &mut impl std::io::Write) -> Result<(), CliError> {
    match cli.command {
        Command::Compress {
            input,
            output,
            dims,
            bound,
            codec,
            elem,
            base,
        } => {
            let opts = CompressOpts { bound, base };
            // Validate the shape before spending time compressing.
            let (raw_bytes, stream) = match elem {
                ElemType::F32 => {
                    let data = io::read_f32(&input)?;
                    check_dims(data.len(), dims)?;
                    let s = compress_one(&data, dims, &codec, &opts)?;
                    (data.len() * 4, s)
                }
                ElemType::F64 => {
                    let data = io::read_f64(&input)?;
                    check_dims(data.len(), dims)?;
                    let s = compress_one(&data, dims, &codec, &opts)?;
                    (data.len() * 8, s)
                }
            };
            std::fs::write(&output, &stream)?;
            writeln!(
                out,
                "{input} -> {output}: {raw_bytes} -> {} bytes (ratio {:.2}x)",
                stream.len(),
                raw_bytes as f64 / stream.len() as f64
            )?;
        }
        Command::Decompress {
            input,
            output,
            elem,
        } => {
            let stream = std::fs::read(&input)?;
            match elem {
                ElemType::F32 => {
                    let (data, dims) = decompress_any::<f32>(&stream)?;
                    io::write_f32(&output, &data)?;
                    writeln!(out, "{input} -> {output}: {} values ({dims})", data.len())?;
                }
                ElemType::F64 => {
                    let (data, dims) = decompress_any::<f64>(&stream)?;
                    io::write_f64(&output, &data)?;
                    writeln!(out, "{input} -> {output}: {} values ({dims})", data.len())?;
                }
            }
        }
        Command::Info { input } => {
            let stream = std::fs::read(&input)?;
            match pwrel_pipeline::identify(&stream) {
                Some(StreamInfo::Unified(h)) => {
                    let name = global()
                        .get(h.codec_id)
                        .map_or("<unknown codec id>", |c| c.name());
                    writeln!(
                        out,
                        "{input}: {} bytes, unified container: codec {name} (id {}), \
                         f{}, dims {}, bound {:e}, {}",
                        stream.len(),
                        h.codec_id,
                        h.elem_bits,
                        h.dims,
                        h.bound,
                        describe_entropy(h.entropy_mode)
                    )?;
                }
                Some(StreamInfo::Framed(h)) => {
                    let name = global()
                        .get(h.codec_id)
                        .map_or("<unknown codec id>", |c| c.name());
                    writeln!(
                        out,
                        "{input}: {} bytes, framed stream: codec {name} (id {}), \
                         f{}, dims {}, bound {:e}, {} chunks, {}",
                        stream.len(),
                        h.codec_id,
                        h.elem_bits,
                        h.dims,
                        h.bound,
                        h.n_chunks,
                        describe_entropy(h.entropy_mode)
                    )?;
                }
                Some(StreamInfo::Legacy(kind)) => {
                    writeln!(out, "{input}: {} bytes, {}", stream.len(), kind.describe())?;
                }
                None => {
                    writeln!(out, "{input}: {} bytes, unrecognized", stream.len())?;
                }
            }
        }
        Command::Codecs => {
            writeln!(out, "registered codecs:")?;
            for c in global().iter() {
                writeln!(out, "  {:<2} {:<12} {}", c.id(), c.name(), c.describe())?;
            }
        }
        Command::Pack {
            output,
            bound,
            codec,
            elem,
            base,
            inputs,
        } => {
            let opts = CompressOpts { bound, base };
            // Fields are independent: compress them on a worker pool.
            let pool = pwrel_parallel::WorkerPool::per_cpu();
            let results = pool.map(inputs.clone(), |(path, dims)| {
                let name = std::path::Path::new(&path)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("field")
                    .to_string();
                let packed = match elem {
                    ElemType::F32 => io::read_f32(&path).and_then(|data| {
                        check_dims(data.len(), dims)?;
                        Ok((compress_one(&data, dims, &codec, &opts)?, data.len() * 4))
                    }),
                    ElemType::F64 => io::read_f64(&path).and_then(|data| {
                        check_dims(data.len(), dims)?;
                        Ok((compress_one(&data, dims, &codec, &opts)?, data.len() * 8))
                    }),
                };
                packed.map(|(stream, raw)| {
                    (
                        Entry {
                            name,
                            dims,
                            elem_bits: if elem == ElemType::F32 { 32 } else { 64 },
                            stream,
                        },
                        raw,
                    )
                })
            });
            let mut entries = Vec::with_capacity(inputs.len());
            let mut raw_total = 0usize;
            for r in results {
                let (entry, raw) = r?;
                raw_total += raw;
                entries.push(entry);
            }
            let bytes = archive::pack(&entries)?;
            std::fs::write(&output, &bytes)?;
            writeln!(
                out,
                "{output}: {} fields, {raw_total} -> {} bytes (ratio {:.2}x)",
                entries.len(),
                bytes.len(),
                raw_total as f64 / bytes.len() as f64
            )?;
        }
        Command::Unpack { input, output } => {
            let bytes = std::fs::read(&input)?;
            let entries = archive::unpack(&bytes)?;
            std::fs::create_dir_all(&output)?;
            for e in &entries {
                let dir = std::path::Path::new(&output);
                match e.elem_bits {
                    32 => {
                        let (data, dims) = decompress_any::<f32>(&e.stream)?;
                        check_entry_dims(e, dims)?;
                        io::write_f32(dir.join(format!("{}.f32", e.name)), &data)?;
                    }
                    _ => {
                        let (data, dims) = decompress_any::<f64>(&e.stream)?;
                        check_entry_dims(e, dims)?;
                        io::write_f64(dir.join(format!("{}.f64", e.name)), &data)?;
                    }
                }
                writeln!(out, "{} ({}, f{})", e.name, e.dims, e.elem_bits)?;
            }
        }
        Command::List { input } => {
            let bytes = std::fs::read(&input)?;
            let entries = archive::unpack(&bytes)?;
            writeln!(out, "{input}: {} fields", entries.len())?;
            for e in &entries {
                writeln!(
                    out,
                    "  {:<24} {:>14} f{} {:>10} bytes",
                    e.name,
                    e.dims.to_string(),
                    e.elem_bits,
                    e.stream.len()
                )?;
            }
        }
        Command::Verify {
            input,
            stream,
            dims,
            bound,
            elem,
        } => {
            let compressed = std::fs::read(&stream)?;
            match elem {
                ElemType::F32 => {
                    let original = io::read_f32(&input)?;
                    verify_one(&original, dims, bound, &compressed, out)?;
                }
                ElemType::F64 => {
                    let original = io::read_f64(&input)?;
                    verify_one(&original, dims, bound, &compressed, out)?;
                }
            }
        }
        Command::Run {
            input,
            dims,
            bound,
            codec,
            elem,
            base,
            trace,
            stats,
            stream,
            chunk_elems,
            workers,
            window,
        } => {
            let opts = CompressOpts { bound, base };
            if stream {
                let tuning = StreamTuning {
                    chunk_elems,
                    workers,
                    window,
                };
                match elem {
                    ElemType::F32 => streaming_run::<f32>(
                        &input,
                        dims,
                        &codec,
                        &opts,
                        &tuning,
                        trace.as_deref(),
                        stats,
                        out,
                    )?,
                    ElemType::F64 => streaming_run::<f64>(
                        &input,
                        dims,
                        &codec,
                        &opts,
                        &tuning,
                        trace.as_deref(),
                        stats,
                        out,
                    )?,
                }
            } else {
                match elem {
                    ElemType::F32 => {
                        let data = io::read_f32(&input)?;
                        check_dims(data.len(), dims)?;
                        traced_run(&data, dims, &codec, &opts, trace.as_deref(), stats, out)?;
                    }
                    ElemType::F64 => {
                        let data = io::read_f64(&input)?;
                        check_dims(data.len(), dims)?;
                        traced_run(&data, dims, &codec, &opts, trace.as_deref(), stats, out)?;
                    }
                }
            }
        }
        Command::Serve { args } => {
            let cfg = pwrel_serve::ServeConfig::from_args(&args)
                .map_err(|e| CliError::Usage(format!("serve: {e}")))?;
            let server = pwrel_serve::Server::bind(cfg)?;
            if let Ok(addr) = server.local_addr() {
                writeln!(out, "pwrel-serve listening on {addr}")?;
                out.flush()?;
            }
            server.run()?;
        }
        Command::Remote { server, action } => remote(&server, action, out)?,
    }
    Ok(())
}

/// Executes one `pwrel remote` action against a running server.
fn remote(
    server: &str,
    action: RemoteAction,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    let mut client = pwrel_serve::Client::connect(server)?;
    match action {
        RemoteAction::Compress {
            input,
            output,
            dims,
            bound,
            codec,
            elem,
            base,
            chunk_elems,
        } => {
            // Same up-front shape check as the local streaming path: the
            // server reads exactly dims.len() elements off the wire.
            let nbytes = match elem {
                ElemType::F32 => 4u64,
                ElemType::F64 => 8u64,
            };
            let raw_bytes = dims.len() as u64 * nbytes;
            let file_bytes = std::fs::metadata(&input)?.len();
            if file_bytes != raw_bytes {
                return Err(CliError::Usage(format!(
                    "{input} holds {file_bytes} bytes but --dims {dims} needs {raw_bytes}"
                )));
            }
            // parse_codec validated the name; the id is what goes on the
            // wire (and what the server validates against its registry).
            let codec_id = global()
                .by_name(&codec)
                .ok_or_else(|| CliError::Usage(format!("unknown codec '{codec}'")))?
                .id();
            let header = pwrel_serve::CompressHeader {
                codec_id,
                elem_bits: (nbytes * 8) as u8,
                base,
                bound,
                dims,
                chunk_elems: chunk_elems.unwrap_or(0) as u64,
            };
            let mut src = std::io::BufReader::new(std::fs::File::open(&input)?);
            let mut dst = std::io::BufWriter::new(std::fs::File::create(&output)?);
            let stream_bytes = client.compress_stream(&header, &mut src, &mut dst)?;
            std::io::Write::flush(&mut dst)?;
            writeln!(
                out,
                "{input} -> {output} via {server}: {raw_bytes} -> {stream_bytes} bytes \
                 (ratio {:.2}x)",
                raw_bytes as f64 / stream_bytes.max(1) as f64
            )?;
        }
        RemoteAction::Decompress { input, output } => {
            let mut src = std::io::BufReader::new(std::fs::File::open(&input)?);
            let mut dst = std::io::BufWriter::new(std::fs::File::create(&output)?);
            let raw_bytes = client.decompress_stream(&mut src, &mut dst)?;
            std::io::Write::flush(&mut dst)?;
            writeln!(
                out,
                "{input} -> {output} via {server}: {raw_bytes} raw bytes"
            )?;
        }
        RemoteAction::Info { input } => {
            // The server only needs the leading bytes; Client::info clips
            // the blob to the protocol cap.
            let stream = std::fs::read(&input)?;
            let text = client.info(&stream)?;
            writeln!(out, "{input}: {text}")?;
        }
        RemoteAction::Codecs => write!(out, "{}", client.codecs()?)?,
        RemoteAction::Metrics => write!(out, "{}", client.metrics()?)?,
        RemoteAction::Ping => {
            client.ping()?;
            writeln!(out, "{server}: ok (protocol v{})", client.server_version())?;
        }
    }
    Ok(())
}

/// Instrumented compress+decompress round trip: records every stage on a
/// [`pwrel_trace::TraceSink`], optionally writes Chrome trace_event JSON
/// and prints the per-stage summary, and always reports the ratio plus a
/// root-span/wall-clock reconciliation line.
fn traced_run<F: Float + PipelineElem>(
    data: &[F],
    dims: Dims,
    codec: &str,
    opts: &CompressOpts,
    trace_path: Option<&str>,
    stats: bool,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    use pwrel_trace::{stage, TraceSink};

    // The sink's epoch starts here, so its wall clock covers exactly the
    // round trip the root spans measure.
    let sink = TraceSink::new();
    let stream = global().compress_traced(codec, data, dims, opts, &sink)?;
    let (back, _) = global().decompress_traced::<F>(&stream, &sink)?;
    let wall_ns = sink.elapsed_ns().max(1);
    if back.len() != data.len() {
        return Err(CliError::Codec(CodecError::Corrupt(
            "round trip changed the value count",
        )));
    }

    let raw_bytes = data.len() * (F::BITS as usize / 8);
    writeln!(
        out,
        "{codec}: {raw_bytes} -> {} bytes (ratio {:.2}x)",
        stream.len(),
        raw_bytes as f64 / stream.len() as f64
    )?;
    report_trace(
        &sink,
        &[stage::COMPRESS, stage::DECOMPRESS],
        wall_ns,
        trace_path,
        stats,
        out,
    )
}

/// Human-readable entropy-mode line for `pwrel info`: the mode byte is
/// also the sub-stream count (1 = legacy single stream, 4 = interleaved).
fn describe_entropy(mode: u8) -> String {
    match mode {
        pwrel_pipeline::ENTROPY_MODE_SINGLE => "entropy mode 1 (single stream)".into(),
        pwrel_pipeline::ENTROPY_MODE_INTERLEAVED => {
            format!("entropy mode {mode} (interleaved, {mode} sub-streams)")
        }
        other => format!("entropy mode {other} (unknown)"),
    }
}

/// Tuning knobs for the `--stream` round trip; `None` picks the
/// documented default.
struct StreamTuning {
    chunk_elems: Option<usize>,
    workers: Option<usize>,
    window: Option<usize>,
}

/// A sink writer that only counts: the streaming round trip verifies
/// the decoded byte count without materializing the reconstruction.
#[derive(Default)]
struct CountingWriter {
    bytes: u64,
}

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Instrumented *streaming* round trip: the raw file is read chunk by
/// chunk through [`pwrel_parallel::ChunkedCodec`] (never fully
/// resident), compressed into a framed stream, and decompressed back
/// through a counting sink. Reports the same ratio/trace lines as the
/// one-shot path plus the chunking parameters.
#[allow(clippy::too_many_arguments)] // mirrors traced_run plus the tuning
fn streaming_run<F: Float + PipelineElem>(
    input: &str,
    dims: Dims,
    codec: &str,
    opts: &CompressOpts,
    tuning: &StreamTuning,
    trace_path: Option<&str>,
    stats: bool,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    use pwrel_parallel::{ChunkedCodec, WorkerPool};
    use pwrel_pipeline::{ReadSource, WriteSink};
    use pwrel_trace::{stage, TraceSink};

    // Validate the shape against the file length before starting: the
    // source reads exactly dims.len() elements.
    let raw_bytes = (dims.len() * F::NBYTES) as u64;
    let file_bytes = std::fs::metadata(input)?.len();
    if file_bytes != raw_bytes {
        return Err(CliError::Usage(format!(
            "{input} holds {file_bytes} bytes but --dims {dims} needs {raw_bytes}"
        )));
    }

    // Default chunk: about 4 MiB of elements, clamped to the field so
    // small inputs stay a single legal chunk.
    let chunk_elems = tuning
        .chunk_elems
        .unwrap_or((4 << 20) / F::NBYTES)
        .min(dims.len());
    // Workers: `--workers` or one per CPU, clamped to the chunk count —
    // the pool's threads persist, and extra ones on a short stream would
    // only sit idle in the window.
    let chunks = dims.len().div_ceil(chunk_elems.max(1)).max(1);
    let workers = tuning.workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    let pool = WorkerPool::new(workers.min(chunks));
    let mut chunked = ChunkedCodec::new(pool, chunk_elems);
    if let Some(w) = tuning.window {
        chunked.window = w;
    }

    let sink = TraceSink::new();
    let mut src: ReadSource<_> =
        ReadSource::new(std::io::BufReader::new(std::fs::File::open(input)?));
    let mut stream = Vec::new();
    let cstats = chunked.compress_stream_traced::<F>(
        global(),
        codec,
        &mut src,
        &mut stream,
        dims,
        opts,
        &sink,
    )?;

    let mut frames: &[u8] = &stream;
    let mut decoded: WriteSink<CountingWriter> = WriteSink::new(CountingWriter::default());
    let (header, dstats) =
        chunked.decompress_stream_traced::<F>(global(), &mut frames, &mut decoded, &sink)?;
    let wall_ns = sink.elapsed_ns().max(1);
    if header.dims != dims || dstats.bytes_out != raw_bytes {
        return Err(CliError::Codec(CodecError::Corrupt(
            "round trip changed the value count",
        )));
    }

    writeln!(
        out,
        "{codec} (streamed): {raw_bytes} -> {} bytes in {} chunks (ratio {:.2}x)",
        cstats.bytes_out,
        cstats.chunks,
        raw_bytes as f64 / cstats.bytes_out as f64
    )?;
    writeln!(
        out,
        "pipeline: {} elems/chunk, {} workers, window {}",
        chunk_elems,
        chunked.pool.workers(),
        chunked.window
    )?;
    report_trace(
        &sink,
        &[stage::STREAM_COMPRESS, stage::STREAM_DECOMPRESS],
        wall_ns,
        trace_path,
        stats,
        out,
    )
}

/// Prints the root-span/wall-clock reconciliation line, the optional
/// per-stage summary table, and the optional Chrome trace JSON file —
/// shared by the one-shot and streaming `run` paths.
fn report_trace(
    sink: &pwrel_trace::TraceSink,
    roots: &[&str],
    wall_ns: u64,
    trace_path: Option<&str>,
    stats: bool,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    use pwrel_trace::export;

    // Root spans against the sink's lifetime: anything far below 100%
    // is time the trace cannot attribute.
    let rows = export::stage_rows(sink);
    let root_ns: u64 = roots
        .iter()
        .filter_map(|name| rows.get(name))
        .map(|row| row.total_ns)
        .sum();
    writeln!(
        out,
        "traced: {:.3} ms of {:.3} ms wall ({:.1}%)",
        root_ns as f64 / 1e6,
        wall_ns as f64 / 1e6,
        100.0 * root_ns as f64 / wall_ns as f64
    )?;

    if stats {
        writeln!(out)?;
        write!(out, "{}", export::summary_table(sink))?;
    }
    if let Some(path) = trace_path {
        std::fs::write(path, export::chrome_trace_json(sink))?;
        writeln!(out, "trace written to {path}")?;
    }
    Ok(())
}

/// Rejects a raw file whose length disagrees with `--dims` (checked
/// before compression starts).
fn check_dims(n_points: usize, dims: Dims) -> Result<(), CliError> {
    if n_points != dims.len() {
        return Err(CliError::Usage(format!(
            "file holds {n_points} values but --dims {dims} needs {}",
            dims.len()
        )));
    }
    Ok(())
}

/// Rejects archives whose stream dims disagree with their header.
fn check_entry_dims(e: &Entry, dims: Dims) -> Result<(), CliError> {
    if dims != e.dims {
        return Err(CliError::Codec(CodecError::Corrupt(
            "archive entry dims disagree with its stream",
        )));
    }
    Ok(())
}

/// Compresses with the named registered codec.
fn compress_one<F: Float + PipelineElem>(
    data: &[F],
    dims: Dims,
    codec: &str,
    opts: &CompressOpts,
) -> Result<Vec<u8>, CliError> {
    Ok(global().compress(codec, data, dims, opts)?)
}

/// Decompresses any stream: unified containers dispatch on their codec
/// id, legacy streams fall back to the per-codec magic sniff.
fn decompress_any<F: Float + PipelineElem>(stream: &[u8]) -> Result<(Vec<F>, Dims), CliError> {
    Ok(global().decompress(stream)?)
}

/// Decompresses and prints error statistics against the original.
fn verify_one<F: Float + PipelineElem>(
    original: &[F],
    dims: Dims,
    bound: f64,
    compressed: &[u8],
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    if original.len() != dims.len() {
        return Err(CliError::Usage("original length != --dims".into()));
    }
    let (decoded, ddims) = decompress_any::<F>(compressed)?;
    if ddims != dims || decoded.len() != original.len() {
        return Err(CliError::Usage(format!(
            "stream dims {ddims} do not match --dims {dims}"
        )));
    }
    let stats = RelErrorStats::compute(original, &decoded, bound);
    writeln!(out, "points:        {}", original.len())?;
    writeln!(out, "bound:         {bound:e}")?;
    writeln!(out, "within bound:  {:.4}%", stats.bounded_fraction * 100.0)?;
    writeln!(out, "avg rel error: {:.3e}", stats.avg_rel)?;
    writeln!(out, "max rel error: {:.3e}", stats.max_rel)?;
    writeln!(out, "broken zeros:  {}", stats.broken_zeros)?;
    writeln!(
        out,
        "verdict:       {}",
        if stats.max_rel <= bound && stats.broken_zeros == 0 {
            "PASS"
        } else {
            "FAIL"
        }
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("pwrel_cli_run_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    fn run_str(cmd: &str) -> Result<String, CliError> {
        let cli = Cli::parse(&argv(cmd))?;
        let mut out = Vec::new();
        run(cli, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn sample_data() -> Vec<f32> {
        (0..2048)
            .map(|i| {
                if i % 100 == 0 {
                    0.0
                } else {
                    ((i as f32) * 0.01).sin() * 10f32.powi((i % 7) - 3)
                }
            })
            .collect()
    }

    #[test]
    fn compress_decompress_verify_cycle() {
        let raw = tmp("cycle.f32");
        let stream = tmp("cycle.pwr");
        let restored = tmp("cycle_out.f32");
        io::write_f32(&raw, &sample_data()).unwrap();

        let msg = run_str(&format!(
            "compress -i {raw} -o {stream} --dims 2048 --bound 1e-3"
        ))
        .unwrap();
        assert!(msg.contains("ratio"), "{msg}");

        let msg = run_str(&format!("decompress -i {stream} -o {restored}")).unwrap();
        assert!(msg.contains("2048 values"), "{msg}");

        let msg = run_str(&format!(
            "verify -i {raw} -c {stream} --dims 2048 --bound 1e-3"
        ))
        .unwrap();
        assert!(msg.contains("verdict:       PASS"), "{msg}");

        // Decompressed file respects the bound.
        let a = io::read_f32(&raw).unwrap();
        let b = io::read_f32(&restored).unwrap();
        for (x, y) in a.iter().zip(&b) {
            if *x == 0.0 {
                assert_eq!(*y, 0.0);
            } else {
                assert!(((x - y) / x).abs() <= 1e-3);
            }
        }
    }

    #[test]
    fn every_registered_codec_cycles() {
        let data = sample_data();
        let raw = tmp("all.f32");
        io::write_f32(&raw, &data).unwrap();
        for codec in global().iter().map(|c| c.name()) {
            let stream = tmp(&format!("all_{codec}.pwr"));
            let restored = tmp(&format!("all_{codec}_out.f32"));
            run_str(&format!(
                "compress -i {raw} -o {stream} --dims 2048 --bound 1e-2 --codec {codec}"
            ))
            .unwrap_or_else(|e| panic!("{codec}: {e}"));
            run_str(&format!("decompress -i {stream} -o {restored}"))
                .unwrap_or_else(|e| panic!("{codec}: {e}"));
            assert_eq!(
                io::read_f32(&restored).unwrap().len(),
                data.len(),
                "{codec}"
            );
        }
    }

    #[test]
    fn info_identifies_streams() {
        let raw = tmp("info.f32");
        let stream = tmp("info.pwr");
        io::write_f32(&raw, &sample_data()).unwrap();
        run_str(&format!(
            "compress -i {raw} -o {stream} --dims 2048 --bound 1e-2"
        ))
        .unwrap();
        let msg = run_str(&format!("info -i {stream}")).unwrap();
        assert!(msg.contains("unified container: codec sz_t"), "{msg}");
        assert!(msg.contains("dims 2048"), "{msg}");
        assert!(
            msg.contains("entropy mode 4 (interleaved, 4 sub-streams)"),
            "{msg}"
        );
    }

    #[test]
    fn run_stream_round_trips_and_reports_pipeline() {
        let raw = tmp("stream.f32");
        let trace = tmp("stream_trace.json");
        io::write_f32(&raw, &sample_data()).unwrap();
        let msg = run_str(&format!(
            "run -i {raw} --dims 2048 --bound 1e-2 --stream --chunk-elems 256 \
             --workers 2 --window 3 --trace {trace} --stats"
        ))
        .unwrap();
        assert!(msg.contains("(streamed)"), "{msg}");
        assert!(msg.contains("in 8 chunks"), "{msg}");
        assert!(
            msg.contains("256 elems/chunk, 2 workers, window 3"),
            "{msg}"
        );
        assert!(msg.contains("ratio"), "{msg}");
        assert!(msg.contains("wall clock"), "{msg}");
        let json = std::fs::read_to_string(&trace).unwrap();
        for want in ["stream_compress", "stream_decompress", "chunk_compress"] {
            assert!(
                json.contains(&format!("\"name\":\"{want}\"")),
                "{want} missing from trace JSON"
            );
        }
    }

    #[test]
    fn run_stream_clamps_explicit_workers_to_the_chunk_count() {
        let raw = tmp("stream_clamp.f32");
        io::write_f32(&raw, &sample_data()).unwrap();
        let msg = run_str(&format!(
            "run -i {raw} --dims 2048 --bound 1e-2 --stream --chunk-elems 256 --workers 64"
        ))
        .unwrap();
        assert!(msg.contains("in 8 chunks"), "{msg}");
        assert!(msg.contains("256 elems/chunk, 8 workers"), "{msg}");
    }

    #[test]
    fn run_stream_every_codec_and_f64() {
        let raw = tmp("stream_all.f32");
        io::write_f32(&raw, &sample_data()).unwrap();
        for codec in global().iter().map(|c| c.name()) {
            let msg = run_str(&format!(
                "run -i {raw} --dims 2048 --bound 1e-2 --stream --chunk-elems 512 --codec {codec}"
            ))
            .unwrap_or_else(|e| panic!("{codec}: {e}"));
            assert!(msg.contains("(streamed)"), "{codec}: {msg}");
        }
        let raw64 = tmp("stream_all.f64");
        let data: Vec<f64> = (1..1025).map(|i| (i as f64).sqrt()).collect();
        io::write_f64(&raw64, &data).unwrap();
        let msg = run_str(&format!(
            "run -i {raw64} --dims 1024 --bound 1e-3 --stream --chunk-elems 256 --type f64"
        ))
        .unwrap();
        assert!(msg.contains("in 4 chunks"), "{msg}");
    }

    #[test]
    fn run_stream_rejects_wrong_file_length() {
        let raw = tmp("stream_short.f32");
        io::write_f32(&raw, &sample_data()).unwrap();
        let err = run_str(&format!("run -i {raw} --dims 4096 --bound 1e-2 --stream"));
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
    }

    #[test]
    fn info_identifies_framed_streams() {
        use pwrel_pipeline::SliceSource;
        let path = tmp("framed_info.pws");
        let data = sample_data();
        let mut src = SliceSource::new(&data[..]);
        let mut bytes = Vec::new();
        global()
            .compress_stream::<f32>(
                "sz_t",
                &mut src,
                &mut bytes,
                Dims::d1(data.len()),
                &CompressOpts::rel(1e-2),
                512,
            )
            .unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let msg = run_str(&format!("info -i {path}")).unwrap();
        assert!(msg.contains("framed stream: codec sz_t"), "{msg}");
        assert!(msg.contains("4 chunks"), "{msg}");
        assert!(msg.contains("dims 2048"), "{msg}");
        assert!(
            msg.contains("entropy mode 4 (interleaved, 4 sub-streams)"),
            "{msg}"
        );
    }

    #[test]
    fn info_identifies_legacy_streams() {
        use pwrel_core::{LogBase, PwRelCompressor};
        use pwrel_sz::SzCompressor;
        let stream = tmp("legacy_info.pwt");
        let data = sample_data();
        let bytes = PwRelCompressor::new(SzCompressor::default(), LogBase::Two)
            .compress(&data, Dims::d1(data.len()), 1e-2, pwrel_trace::noop())
            .unwrap();
        std::fs::write(&stream, &bytes).unwrap();
        let msg = run_str(&format!("info -i {stream}")).unwrap();
        assert!(
            msg.contains("legacy pwrel log-transform container"),
            "{msg}"
        );
    }

    #[test]
    fn legacy_stream_decompresses() {
        use pwrel_core::{LogBase, PwRelCompressor};
        use pwrel_sz::SzCompressor;
        let stream = tmp("legacy.pwt");
        let restored = tmp("legacy_out.f32");
        let data = sample_data();
        let bytes = PwRelCompressor::new(SzCompressor::default(), LogBase::Two)
            .compress(&data, Dims::d1(data.len()), 1e-3, pwrel_trace::noop())
            .unwrap();
        std::fs::write(&stream, &bytes).unwrap();
        run_str(&format!("decompress -i {stream} -o {restored}")).unwrap();
        assert_eq!(io::read_f32(&restored).unwrap().len(), data.len());
    }

    #[test]
    fn codecs_lists_registry() {
        let msg = run_str("codecs").unwrap();
        for name in [
            "sz_t",
            "sz_hybrid_t",
            "zfp_t",
            "sz_abs",
            "sz_pwr",
            "fpzip",
            "isabela",
            "zfp_p",
        ] {
            assert!(msg.contains(name), "missing {name} in {msg}");
        }
    }

    #[test]
    fn dims_mismatch_is_usage_error() {
        let raw = tmp("mm.f32");
        let stream = tmp("mm.pwr");
        let _ = std::fs::remove_file(&stream);
        io::write_f32(&raw, &sample_data()).unwrap();
        let err = run_str(&format!(
            "compress -i {raw} -o {stream} --dims 1000 --bound 1e-2"
        ));
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
        // The bad stream must not have been written.
        assert!(!std::path::Path::new(&stream).exists());
    }

    #[test]
    fn f64_cycle() {
        let raw = tmp("d.f64");
        let stream = tmp("d.pwr");
        let restored = tmp("d_out.f64");
        let data: Vec<f64> = (1..500).map(|i| (i as f64).sqrt() * 1e100).collect();
        io::write_f64(&raw, &data).unwrap();
        run_str(&format!(
            "compress -i {raw} -o {stream} --dims 499 --bound 1e-4 --type f64"
        ))
        .unwrap();
        run_str(&format!("decompress -i {stream} -o {restored} --type f64")).unwrap();
        let back = io::read_f64(&restored).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!(((a - b) / a).abs() <= 1e-4);
        }
    }

    #[test]
    fn pack_list_unpack_cycle() {
        let a = tmp("snap_a.f32");
        let b = tmp("snap_b.f32");
        let arch = tmp("snap.pwa");
        let outdir = tmp("snap_out");
        io::write_f32(&a, &sample_data()).unwrap();
        let small: Vec<f32> = (0..512).map(|i| (i as f32 + 1.0).sqrt()).collect();
        io::write_f32(&b, &small).unwrap();

        let msg = run_str(&format!("pack -o {arch} --bound 1e-2 {a}:2048 {b}:16x32")).unwrap();
        assert!(msg.contains("2 fields"), "{msg}");

        let msg = run_str(&format!("list -i {arch}")).unwrap();
        assert!(msg.contains("snap_a") && msg.contains("snap_b"), "{msg}");
        assert!(msg.contains("16x32"), "{msg}");

        run_str(&format!("unpack -i {arch} -o {outdir}")).unwrap();
        let restored_a = io::read_f32(format!("{outdir}/snap_a.f32")).unwrap();
        assert_eq!(restored_a.len(), 2048);
        let restored_b = io::read_f32(format!("{outdir}/snap_b.f32")).unwrap();
        for (x, y) in small.iter().zip(&restored_b) {
            assert!(((x - y) / x).abs() <= 1e-2);
        }
    }

    #[test]
    fn pack_without_specs_is_usage_error() {
        let arch = tmp("empty.pwa");
        let err = run_str(&format!("pack -o {arch} --bound 1e-2"));
        assert!(matches!(err, Err(CliError::Usage(_))));
        let err = run_str(&format!("pack -o {arch} --bound 1e-2 nodims"));
        assert!(matches!(err, Err(CliError::Usage(_))));
    }

    #[test]
    fn run_emits_valid_trace_covering_declared_stages() {
        let raw = tmp("trace.f32");
        let trace = tmp("trace.json");
        io::write_f32(&raw, &sample_data()).unwrap();
        for codec in global().iter() {
            let msg = run_str(&format!(
                "run -i {raw} --dims 2048 --bound 1e-2 --codec {} --trace {trace} --stats",
                codec.name()
            ))
            .unwrap_or_else(|e| panic!("{}: {e}", codec.name()));
            assert!(msg.contains("ratio"), "{msg}");
            assert!(msg.contains("trace written to"), "{msg}");
            // --stats table names the wall clock row.
            assert!(msg.contains("wall clock"), "{msg}");

            let json = std::fs::read_to_string(&trace).unwrap();
            assert!(json.contains("\"traceEvents\""), "{}", codec.name());
            // Every stage the registry declares for this codec appears
            // as a span name in the exported trace.
            for want in codec.stages() {
                assert!(
                    json.contains(&format!("\"name\":\"{want}\"")),
                    "{}: stage {want:?} missing from trace JSON",
                    codec.name()
                );
            }
            for root in ["compress", "decompress"] {
                assert!(
                    json.contains(&format!("\"name\":\"{root}\"")),
                    "{}: root {root:?} missing",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn run_stats_totals_reconcile_with_wall_clock() {
        let raw = tmp("recon.f32");
        io::write_f32(&raw, &sample_data()).unwrap();
        let msg = run_str(&format!("run -i {raw} --dims 2048 --bound 1e-3 --stats")).unwrap();
        // "traced: X ms of Y ms wall (Z%)" — the root spans must account
        // for at least 95% of the sink's wall clock.
        let line = msg
            .lines()
            .find(|l| l.starts_with("traced:"))
            .unwrap_or_else(|| panic!("no reconciliation line in {msg}"));
        let pct: f64 = line
            .rsplit_once('(')
            .and_then(|(_, tail)| tail.strip_suffix("%)"))
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("bad reconciliation line {line}"));
        assert!(pct >= 95.0, "root spans cover only {pct}% of wall: {msg}");
    }

    /// Spawns a server on an ephemeral port for the remote tests.
    fn spawn_server() -> pwrel_serve::ServerHandle {
        let cfg = pwrel_serve::ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..Default::default()
        };
        pwrel_serve::Server::bind(cfg).unwrap().spawn().unwrap()
    }

    #[test]
    fn remote_round_trip_matches_local_verify() {
        let handle = spawn_server();
        let addr = handle.addr();
        let raw = tmp("remote.f32");
        let stream = tmp("remote.pws");
        let restored = tmp("remote_out.f32");
        io::write_f32(&raw, &sample_data()).unwrap();

        let msg = run_str(&format!(
            "remote compress -i {raw} -o {stream} --dims 2048 --bound 1e-3 \
             --chunk-elems 512 --server {addr}"
        ))
        .unwrap();
        assert!(msg.contains("ratio"), "{msg}");

        let msg = run_str(&format!(
            "remote decompress -i {stream} -o {restored} --server {addr}"
        ))
        .unwrap();
        assert!(msg.contains("8192 raw bytes"), "{msg}");

        // The server-produced stream verifies locally against the bound.
        let msg = run_str(&format!(
            "verify -i {raw} -c {stream} --dims 2048 --bound 1e-3"
        ))
        .unwrap();
        assert!(msg.contains("verdict:       PASS"), "{msg}");

        // Remote info identifies the framed stream.
        let msg = run_str(&format!("remote info -i {stream} --server {addr}")).unwrap();
        assert!(msg.contains("framed"), "{msg}");
    }

    #[test]
    fn remote_simple_actions() {
        let handle = spawn_server();
        let addr = handle.addr();
        let msg = run_str(&format!("remote ping --server {addr}")).unwrap();
        assert!(msg.contains("ok (protocol v1)"), "{msg}");
        let msg = run_str(&format!("remote codecs --server {addr}")).unwrap();
        assert!(msg.contains("sz_t") && msg.contains("zfp_p"), "{msg}");
        let msg = run_str(&format!("remote metrics --server {addr}")).unwrap();
        assert!(msg.contains("pwrp_requests_total"), "{msg}");
    }

    #[test]
    fn remote_compress_rejects_wrong_file_length() {
        let handle = spawn_server();
        let addr = handle.addr();
        let raw = tmp("remote_short.f32");
        io::write_f32(&raw, &sample_data()).unwrap();
        let err = run_str(&format!(
            "remote compress -i {raw} -o /dev/null --dims 4096 --bound 1e-2 --server {addr}"
        ));
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
    }

    #[test]
    fn remote_connect_failure_is_serve_error() {
        // Port 1 on localhost refuses connections.
        let err = run_str("remote ping --server 127.0.0.1:1");
        assert!(matches!(err, Err(CliError::Serve(_))), "{err:?}");
    }

    #[test]
    fn verify_fails_on_wrong_bound_claim() {
        let raw = tmp("vf.f32");
        let stream = tmp("vf.pwr");
        io::write_f32(&raw, &sample_data()).unwrap();
        run_str(&format!(
            "compress -i {raw} -o {stream} --dims 2048 --bound 1e-1"
        ))
        .unwrap();
        // Claim a tighter bound than was used: must FAIL.
        let msg = run_str(&format!(
            "verify -i {raw} -c {stream} --dims 2048 --bound 1e-4"
        ))
        .unwrap();
        assert!(msg.contains("verdict:       FAIL"), "{msg}");
    }
}
