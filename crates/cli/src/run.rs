//! Command execution.
//!
//! Every command goes through the [`pwrel_pipeline::CodecRegistry`],
//! which reads and writes two formats: PWU1 containers (`compress`,
//! `pack`) and PWS1 framed streams (`run --stream`, the service). A
//! command that reads a raw file matches its `--type` once and runs one
//! generic body; `decompress`, `verify` and `unpack` take the element
//! type and the shape from the stream header.

use crate::archive::{self, Entry};
use crate::args::{
    Cli, CodecArgs, Command, ElemType, RawInput, RemoteAction, RemoteCompressArgs, RunArgs,
};
use crate::io;
use crate::CliError;
use pwrel_data::CodecError;
use pwrel_metrics::RelErrorStats;
use pwrel_pipeline::{global, identify, PipelineElem};
use std::io::Write;
use std::path::Path;

/// Runs a parsed command, writing human-readable progress to `out`.
pub fn run(cli: Cli, out: &mut impl Write) -> Result<(), CliError> {
    match cli.command {
        Command::Compress {
            input,
            output,
            codec,
        } => match codec.elem {
            ElemType::F32 => compress::<f32>(&input, &output, &codec, out),
            ElemType::F64 => compress::<f64>(&input, &output, &codec, out),
        },
        Command::Decompress { input, output } => {
            let stream = std::fs::read(&input)?;
            match stream_elem(&stream)? {
                ElemType::F32 => decompress::<f32>(&input, &stream, &output, out),
                ElemType::F64 => decompress::<f64>(&input, &stream, &output, out),
            }
        }
        Command::Info { input } => {
            let stream = std::fs::read(&input)?;
            match identify(&stream) {
                Some(info) => writeln!(out, "{input}: {} bytes, {info}", stream.len())?,
                None => writeln!(out, "{input}: {} bytes, unrecognized", stream.len())?,
            }
            Ok(())
        }
        Command::Codecs => {
            writeln!(out, "registered codecs:")?;
            for c in global().iter() {
                writeln!(out, "  {:<2} {:<12} {}", c.id(), c.name(), c.describe())?;
            }
            Ok(())
        }
        Command::Pack {
            output,
            codec,
            inputs,
        } => match codec.elem {
            ElemType::F32 => pack::<f32>(&output, &codec, inputs, out),
            ElemType::F64 => pack::<f64>(&output, &codec, inputs, out),
        },
        Command::Unpack { input, output } => {
            let entries = archive::unpack(&std::fs::read(&input)?)?;
            std::fs::create_dir_all(&output)?;
            for e in &entries {
                let path = Path::new(&output).join(format!("{}.f{}", e.name, e.elem_bits));
                match e.elem_bits {
                    32 => unpack_entry::<f32>(e, &path)?,
                    _ => unpack_entry::<f64>(e, &path)?,
                }
                writeln!(out, "{} ({}, f{})", e.name, e.dims, e.elem_bits)?;
            }
            Ok(())
        }
        Command::List { input } => {
            let entries = archive::unpack(&std::fs::read(&input)?)?;
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
            Ok(())
        }
        Command::Verify {
            input,
            stream,
            bound,
        } => {
            let compressed = std::fs::read(&stream)?;
            match stream_elem(&compressed)? {
                ElemType::F32 => verify::<f32>(&input, &compressed, bound, out),
                ElemType::F64 => verify::<f64>(&input, &compressed, bound, out),
            }
        }
        Command::Run(args) => match args.codec.elem {
            ElemType::F32 => round_trip::<f32>(&args, out),
            ElemType::F64 => round_trip::<f64>(&args, out),
        },
        Command::Serve { args } => {
            let cfg = pwrel_serve::ServeConfig::from_args(&args)
                .map_err(|e| CliError::Usage(format!("serve: {e}")))?;
            let server = pwrel_serve::Server::bind(cfg)?;
            if let Ok(addr) = server.local_addr() {
                writeln!(out, "pwrel-serve listening on {addr}")?;
                out.flush()?;
            }
            Ok(server.run()?)
        }
        Command::Remote { server, action } => remote(&server, action, out),
    }
}

/// The element type a stream's header records.
fn stream_elem(stream: &[u8]) -> Result<ElemType, CliError> {
    match identify(stream).map(|info| info.elem_bits()) {
        Some(32) => Ok(ElemType::F32),
        Some(_) => Ok(ElemType::F64),
        None => Err(CodecError::Mismatch("not a PWU1 container or PWS1 stream").into()),
    }
}

/// `pwrel compress`: the raw file into one PWU1 container.
fn compress<F: PipelineElem>(
    input: &RawInput,
    output: &str,
    codec: &CodecArgs,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let data = io::read::<F>(&input.path, input.dims)?;
    let stream = global().compress(&codec.codec, &data, input.dims, &codec.opts)?;
    std::fs::write(output, &stream)?;
    let raw_bytes = data.len() * F::NBYTES;
    writeln!(
        out,
        "{} -> {output}: {raw_bytes} -> {} bytes (ratio {:.2}x)",
        input.path,
        stream.len(),
        raw_bytes as f64 / stream.len() as f64
    )?;
    Ok(())
}

/// `pwrel decompress`: any PWU1 or PWS1 stream back to a raw file.
fn decompress<F: PipelineElem>(
    input: &str,
    stream: &[u8],
    output: &str,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let (data, dims) = global().decompress::<F>(stream)?;
    io::write(output, &data)?;
    writeln!(out, "{input} -> {output}: {} values ({dims})", data.len())?;
    Ok(())
}

/// `pwrel pack`: every field compressed on a worker pool (they are
/// independent), then bundled into one archive.
fn pack<F: PipelineElem>(
    output: &str,
    codec: &CodecArgs,
    inputs: Vec<RawInput>,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let pool = pwrel_parallel::WorkerPool::per_cpu();
    let results = pool.map(inputs, |RawInput { path, dims }| {
        let data = io::read::<F>(&path, dims)?;
        let stream = global().compress(&codec.codec, &data, dims, &codec.opts)?;
        let name = Path::new(&path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("field")
            .to_string();
        let entry = Entry {
            name,
            dims,
            elem_bits: F::BITS as u8,
            stream,
        };
        Ok::<_, CliError>((entry, data.len() * F::NBYTES))
    });
    let mut entries = Vec::with_capacity(results.len());
    let mut raw_total = 0usize;
    for r in results {
        let (entry, raw) = r?;
        raw_total += raw;
        entries.push(entry);
    }
    let bytes = archive::pack(&entries)?;
    std::fs::write(output, &bytes)?;
    writeln!(
        out,
        "{output}: {} fields, {raw_total} -> {} bytes (ratio {:.2}x)",
        entries.len(),
        bytes.len(),
        raw_total as f64 / bytes.len() as f64
    )?;
    Ok(())
}

/// Decodes one archive entry to `path`, after checking that its stream
/// has the shape the archive records.
fn unpack_entry<F: PipelineElem>(e: &Entry, path: &Path) -> Result<(), CliError> {
    let (data, dims) = global().decompress::<F>(&e.stream)?;
    if dims != e.dims {
        return Err(CodecError::Corrupt("archive entry dims disagree with its stream").into());
    }
    io::write(path, &data)
}

/// `pwrel verify`: decodes the stream, reads the original with the
/// stream's shape, and prints error statistics against `bound`.
fn verify<F: PipelineElem>(
    input: &str,
    compressed: &[u8],
    bound: f64,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let (decoded, dims) = global().decompress::<F>(compressed)?;
    let original = io::read::<F>(input, dims)?;
    if decoded.len() != original.len() {
        return Err(CodecError::Corrupt("stream decoded to a different value count").into());
    }
    let stats = RelErrorStats::compute(&original, &decoded, bound);
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

/// `pwrel run`: an instrumented compress+decompress round trip recorded
/// on a [`pwrel_trace::TraceSink`], one-shot or, with `--stream`, through
/// [`pwrel_parallel::ChunkedCodec`] from the raw file (never fully
/// resident) into a framed stream and back into `std::io::sink()`. It
/// reports the ratio (plus the chunking for `--stream`), a
/// root-span/wall-clock reconciliation line, and optionally the
/// per-stage table and Chrome trace_event JSON.
fn round_trip<F: PipelineElem>(args: &RunArgs, out: &mut impl Write) -> Result<(), CliError> {
    use pwrel_parallel::{ChunkedCodec, WorkerPool};
    use pwrel_pipeline::{ReadSource, WriteSink};
    use pwrel_trace::{export, stage, TraceSink};

    let RawInput { path, dims } = &args.input;
    let (name, opts) = (args.codec.codec.as_str(), &args.codec.opts);
    let raw_bytes = dims.len() * F::NBYTES;
    let round_trip_failed = || CodecError::Corrupt("round trip changed the value count");
    // Each sink's epoch starts right before its round trip, so its wall
    // clock covers exactly what the root spans measure.
    let (sink, wall_ns, roots) = if args.stream {
        let file = io::open::<F>(path, *dims)?;
        // Default chunk: about 4 MiB of elements, clamped to the field so
        // small inputs stay a single legal chunk. Workers: `--workers` or
        // one per CPU, clamped to the chunk count, since extra ones on a
        // short stream would only sit idle in the window.
        let chunk_elems = args
            .chunk_elems
            .unwrap_or((4 << 20) / F::NBYTES)
            .min(dims.len());
        let chunks = dims.len().div_ceil(chunk_elems.max(1)).max(1);
        let workers = args.workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        let mut chunked = ChunkedCodec::new(WorkerPool::new(workers.min(chunks)), chunk_elems);
        if let Some(w) = args.window {
            chunked.window = w;
        }

        let sink = TraceSink::new();
        let mut src = ReadSource::new(std::io::BufReader::new(file));
        let mut stream = Vec::new();
        let cstats = chunked.compress_stream_traced::<F>(
            global(),
            name,
            &mut src,
            &mut stream,
            *dims,
            opts,
            &sink,
        )?;
        let mut decoded = WriteSink::new(std::io::sink());
        let (header, dstats) = chunked.decompress_stream_traced::<F>(
            global(),
            &mut &stream[..],
            &mut decoded,
            &sink,
        )?;
        let wall_ns = sink.elapsed_ns().max(1);
        if header.dims != *dims || dstats.bytes_out != raw_bytes as u64 {
            return Err(round_trip_failed().into());
        }
        writeln!(
            out,
            "{name} (streamed): {raw_bytes} -> {} bytes in {} chunks (ratio {:.2}x)",
            cstats.bytes_out,
            cstats.chunks,
            raw_bytes as f64 / cstats.bytes_out as f64
        )?;
        writeln!(
            out,
            "pipeline: {chunk_elems} elems/chunk, {} workers, window {}",
            chunked.pool.workers(),
            chunked.window
        )?;
        (
            sink,
            wall_ns,
            [stage::STREAM_COMPRESS, stage::STREAM_DECOMPRESS],
        )
    } else {
        let data = io::read::<F>(path, *dims)?;
        let sink = TraceSink::new();
        let stream = global().compress_traced(name, &data, *dims, opts, &sink)?;
        let (back, _) = global().decompress_traced::<F>(&stream, &sink)?;
        let wall_ns = sink.elapsed_ns().max(1);
        if back.len() != data.len() {
            return Err(round_trip_failed().into());
        }
        writeln!(
            out,
            "{name}: {raw_bytes} -> {} bytes (ratio {:.2}x)",
            stream.len(),
            raw_bytes as f64 / stream.len() as f64
        )?;
        (sink, wall_ns, [stage::COMPRESS, stage::DECOMPRESS])
    };

    // Root spans against the sink's lifetime: anything far below 100%
    // is time the trace cannot attribute.
    let rows = export::stage_rows(&sink);
    let root_ns: u64 = roots
        .iter()
        .filter_map(|root| rows.get(root))
        .map(|row| row.total_ns)
        .sum();
    writeln!(
        out,
        "traced: {:.3} ms of {:.3} ms wall ({:.1}%)",
        root_ns as f64 / 1e6,
        wall_ns as f64 / 1e6,
        100.0 * root_ns as f64 / wall_ns as f64
    )?;
    if args.stats {
        writeln!(out)?;
        write!(out, "{}", export::summary_table(&sink))?;
    }
    if let Some(path) = &args.trace {
        std::fs::write(path, export::chrome_trace_json(&sink))?;
        writeln!(out, "trace written to {path}")?;
    }
    Ok(())
}

/// Executes one `pwrel remote` action against a running server.
fn remote(server: &str, action: RemoteAction, out: &mut impl Write) -> Result<(), CliError> {
    let mut client = pwrel_serve::Client::connect(server)?;
    match action {
        RemoteAction::Compress(args) => match args.codec.elem {
            ElemType::F32 => remote_compress::<f32>(&mut client, server, &args, out)?,
            ElemType::F64 => remote_compress::<f64>(&mut client, server, &args, out)?,
        },
        RemoteAction::Decompress { input, output } => {
            let mut src = std::io::BufReader::new(std::fs::File::open(&input)?);
            let mut dst = std::io::BufWriter::new(std::fs::File::create(&output)?);
            let raw_bytes = client.decompress_stream(&mut src, &mut dst)?;
            dst.flush()?;
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

/// `pwrel remote compress`: streams the raw file to the server, which
/// reads exactly `dims.len()` elements off the wire, and writes the PWS1
/// stream it answers with.
fn remote_compress<F: PipelineElem>(
    client: &mut pwrel_serve::Client,
    server: &str,
    args: &RemoteCompressArgs,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let RemoteCompressArgs {
        input,
        output,
        codec,
        chunk_elems,
    } = args;
    // parse_codec validated the name; the id is what goes on the wire
    // (and what the server validates against its registry).
    let codec_id = global()
        .by_name(&codec.codec)
        .ok_or_else(|| CliError::Usage(format!("unknown codec '{}'", codec.codec)))?
        .id();
    let header = pwrel_serve::CompressHeader {
        codec_id,
        elem_bits: F::BITS as u8,
        base: codec.opts.base,
        bound: codec.opts.bound,
        dims: input.dims,
        chunk_elems: chunk_elems.unwrap_or(0) as u64,
    };
    let mut src = std::io::BufReader::new(io::open::<F>(&input.path, input.dims)?);
    let mut dst = std::io::BufWriter::new(std::fs::File::create(output)?);
    let stream_bytes = client.compress_stream(&header, &mut src, &mut dst)?;
    dst.flush()?;
    let raw_bytes = input.dims.len() * F::NBYTES;
    writeln!(
        out,
        "{} -> {output} via {server}: {raw_bytes} -> {stream_bytes} bytes (ratio {:.2}x)",
        input.path,
        raw_bytes as f64 / stream_bytes.max(1) as f64
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwrel_data::Dims;
    use pwrel_pipeline::CompressOpts;

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
        io::write(&raw, &sample_data()).unwrap();

        let msg = run_str(&format!(
            "compress -i {raw} -o {stream} --dims 2048 --bound 1e-3"
        ))
        .unwrap();
        assert!(msg.contains("ratio"), "{msg}");

        let msg = run_str(&format!("decompress -i {stream} -o {restored}")).unwrap();
        assert!(msg.contains("2048 values"), "{msg}");

        let msg = run_str(&format!("verify -i {raw} -c {stream} --bound 1e-3")).unwrap();
        assert!(msg.contains("verdict:       PASS"), "{msg}");

        // Decompressed file respects the bound.
        let a = io::read::<f32>(&raw, Dims::d1(2048)).unwrap();
        let b = io::read::<f32>(&restored, Dims::d1(2048)).unwrap();
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
        io::write(&raw, &data).unwrap();
        for codec in global().iter().map(|c| c.name()) {
            let stream = tmp(&format!("all_{codec}.pwr"));
            let restored = tmp(&format!("all_{codec}_out.f32"));
            run_str(&format!(
                "compress -i {raw} -o {stream} --dims 2048 --bound 1e-2 --codec {codec}"
            ))
            .unwrap_or_else(|e| panic!("{codec}: {e}"));
            run_str(&format!("decompress -i {stream} -o {restored}"))
                .unwrap_or_else(|e| panic!("{codec}: {e}"));
            io::read::<f32>(&restored, Dims::d1(data.len()))
                .unwrap_or_else(|e| panic!("{codec}: {e}"));
        }
    }

    #[test]
    fn info_identifies_streams() {
        let raw = tmp("info.f32");
        let stream = tmp("info.pwr");
        io::write(&raw, &sample_data()).unwrap();
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
        io::write(&raw, &sample_data()).unwrap();
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
        io::write(&raw, &sample_data()).unwrap();
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
        io::write(&raw, &sample_data()).unwrap();
        for codec in global().iter().map(|c| c.name()) {
            let msg = run_str(&format!(
                "run -i {raw} --dims 2048 --bound 1e-2 --stream --chunk-elems 512 --codec {codec}"
            ))
            .unwrap_or_else(|e| panic!("{codec}: {e}"));
            assert!(msg.contains("(streamed)"), "{codec}: {msg}");
        }
        let raw64 = tmp("stream_all.f64");
        let data: Vec<f64> = (1..1025).map(|i| (i as f64).sqrt()).collect();
        io::write(&raw64, &data).unwrap();
        let msg = run_str(&format!(
            "run -i {raw64} --dims 1024 --bound 1e-3 --stream --chunk-elems 256 --type f64"
        ))
        .unwrap();
        assert!(msg.contains("in 4 chunks"), "{msg}");
    }

    #[test]
    fn run_stream_rejects_wrong_file_length() {
        let raw = tmp("stream_short.f32");
        io::write(&raw, &sample_data()).unwrap();
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
    fn info_identifies_a_header_only_prefix() {
        let raw = tmp("prefix.f32");
        let stream = tmp("prefix.pwr");
        let prefix = tmp("prefix_head.pwr");
        io::write(&raw, &sample_data()).unwrap();
        run_str(&format!(
            "compress -i {raw} -o {stream} --dims 2048 --bound 1e-3"
        ))
        .unwrap();
        let bytes = std::fs::read(&stream).unwrap();
        let (_, _, payload_at) = pwrel_pipeline::container::read_header(&bytes).unwrap();
        std::fs::write(&prefix, &bytes[..payload_at]).unwrap();
        let msg = run_str(&format!("info -i {prefix}")).unwrap();
        assert!(msg.contains("unified container: codec sz_t"), "{msg}");
        assert!(msg.contains("dims 2048"), "{msg}");
    }

    #[test]
    fn bare_codec_payloads_are_unrecognized() {
        use pwrel_core::{LogBase, PwRelCompressor};
        use pwrel_sz::SzCompressor;
        let stream = tmp("bare.pwt");
        let restored = tmp("bare_out.f32");
        let data = sample_data();
        let bytes = PwRelCompressor::new(SzCompressor::default(), LogBase::Two)
            .compress(&data, Dims::d1(data.len()), 1e-3, pwrel_trace::noop())
            .unwrap();
        std::fs::write(&stream, &bytes).unwrap();
        let msg = run_str(&format!("info -i {stream}")).unwrap();
        assert!(msg.ends_with("unrecognized\n"), "{msg}");
        let err = run_str(&format!("decompress -i {stream} -o {restored}"));
        assert!(
            matches!(err, Err(CliError::Codec(CodecError::Mismatch(_)))),
            "{err:?}"
        );
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
        io::write(&raw, &sample_data()).unwrap();
        let err = run_str(&format!(
            "compress -i {raw} -o {stream} --dims 1000 --bound 1e-2"
        ));
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
        // The bad stream must not have been written.
        assert!(!std::path::Path::new(&stream).exists());
        // Verify reads the original with the stream's shape.
        run_str(&format!(
            "compress -i {raw} -o {stream} --dims 2048 --bound 1e-2"
        ))
        .unwrap();
        let short = tmp("mm_short.f32");
        io::write(&short, &sample_data()[..1000]).unwrap();
        let err = run_str(&format!("verify -i {short} -c {stream} --bound 1e-2"));
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
    }

    #[test]
    fn f64_cycle() {
        let raw = tmp("d.f64");
        let stream = tmp("d.pwr");
        let restored = tmp("d_out.f64");
        let data: Vec<f64> = (1..500).map(|i| (i as f64).sqrt() * 1e100).collect();
        io::write(&raw, &data).unwrap();
        run_str(&format!(
            "compress -i {raw} -o {stream} --dims 499 --bound 1e-4 --type f64"
        ))
        .unwrap();
        // Decompress and verify take the element type from the stream.
        let msg = run_str(&format!("decompress -i {stream} -o {restored}")).unwrap();
        assert!(msg.contains("499 values"), "{msg}");
        let back = io::read::<f64>(&restored, Dims::d1(499)).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!(((a - b) / a).abs() <= 1e-4);
        }
        let msg = run_str(&format!("verify -i {raw} -c {stream} --bound 1e-4")).unwrap();
        assert!(msg.contains("verdict:       PASS"), "{msg}");
    }

    #[test]
    fn pack_list_unpack_cycle() {
        let a = tmp("snap_a.f32");
        let b = tmp("snap_b.f32");
        let arch = tmp("snap.pwa");
        let outdir = tmp("snap_out");
        io::write(&a, &sample_data()).unwrap();
        let small: Vec<f32> = (0..512).map(|i| (i as f32 + 1.0).sqrt()).collect();
        io::write(&b, &small).unwrap();

        let msg = run_str(&format!("pack -o {arch} --bound 1e-2 {a}:2048 {b}:16x32")).unwrap();
        assert!(msg.contains("2 fields"), "{msg}");

        let msg = run_str(&format!("list -i {arch}")).unwrap();
        assert!(msg.contains("snap_a") && msg.contains("snap_b"), "{msg}");
        assert!(msg.contains("16x32"), "{msg}");

        run_str(&format!("unpack -i {arch} -o {outdir}")).unwrap();
        io::read::<f32>(&format!("{outdir}/snap_a.f32"), Dims::d1(2048)).unwrap();
        let restored_b =
            io::read::<f32>(&format!("{outdir}/snap_b.f32"), Dims::d2(16, 32)).unwrap();
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
        io::write(&raw, &sample_data()).unwrap();
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
        io::write(&raw, &sample_data()).unwrap();
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
        io::write(&raw, &sample_data()).unwrap();

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
        let msg = run_str(&format!("verify -i {raw} -c {stream} --bound 1e-3")).unwrap();
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
        io::write(&raw, &sample_data()).unwrap();
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
        io::write(&raw, &sample_data()).unwrap();
        run_str(&format!(
            "compress -i {raw} -o {stream} --dims 2048 --bound 1e-1"
        ))
        .unwrap();
        // Claim a tighter bound than was used: must FAIL.
        let msg = run_str(&format!("verify -i {raw} -c {stream} --bound 1e-4")).unwrap();
        assert!(msg.contains("verdict:       FAIL"), "{msg}");
    }
}
