//! Hand-rolled argument parsing (no external dependencies).

use crate::CliError;
use pwrel_core::LogBase;
use pwrel_data::Dims;

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
pwrel — point-wise relative-error-bounded lossy compression

USAGE:
  pwrel compress   -i <raw> -o <stream> --dims <NX|NYxNX|NZxNYxNX> --bound <b>
                   [--codec <name>] [--type f32|f64] [--base 2|e|10]
  pwrel decompress -i <stream> -o <raw>
  pwrel info       -i <stream>
  pwrel codecs
  pwrel verify     -i <raw> -c <stream> --dims <...> --bound <b> [--type f32|f64]
  pwrel pack       -o <archive> --bound <b> [--codec <name>] <raw>:<dims> ...
  pwrel unpack     -i <archive> -o <dir>
  pwrel list       -i <archive>
  pwrel run        -i <raw> --dims <...> --bound <b> [--codec <name>]
                   [--type f32|f64] [--base 2|e|10] [--trace <out.json>] [--stats]
                   [--stream] [--chunk-elems <n>] [--workers <n>] [--window <n>]
  pwrel serve      [--addr <host:port>] [--inflight <n>] [--max-conns <n>]
                   [--quota <bytes>] [--max-elems <n>] [--timeout-ms <ms>]
                   [--chunk-elems <n>]
  pwrel remote     <compress|decompress|info|codecs|metrics|ping>
                   [--server <host:port>] (plus the matching local flags)

  compress   raw little-endian floats -> compressed stream (default codec sz_t)
  decompress compressed stream -> raw little-endian floats (codec auto-detected)
  info       print stream kind and sizes
  codecs     list every registered codec
  verify     decompress and report error statistics against the original
  pack       bundle several fields into one snapshot archive
  unpack     extract every field of an archive into a directory
  list       show an archive's contents
  run        instrumented compress+decompress round trip; --trace writes
             Chrome trace_event JSON (chrome://tracing / Perfetto) and
             --stats prints the per-stage summary table; --stream runs the
             chunk-pipelined out-of-core path (framed stream, bounded
             memory) with optional --chunk-elems / --workers / --window
  serve      run the PWRP/1 compression service (protocol: PROTOCOL.md,
             runbook: OPERATIONS.md); serves until killed
  remote     run compress/decompress/info/codecs/metrics/ping against a
             running pwrel-serve (--server defaults to 127.0.0.1:9474);
             remote compress takes the same flags as local compress plus
             an optional --chunk-elems

EXAMPLES:
  pwrel compress -i snap.f32 -o snap.pwr --dims 512x512x512 --bound 1e-3
  pwrel run -i snap.f32 --dims 512x512x512 --bound 1e-3 --trace snap.json --stats
";

/// Element type of the raw file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemType {
    /// 4-byte little-endian IEEE floats.
    F32,
    /// 8-byte little-endian IEEE floats.
    F64,
}

/// A parsed command.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// `pwrel compress`.
    Compress {
        /// Raw input path.
        input: String,
        /// Stream output path.
        output: String,
        /// Grid shape.
        dims: Dims,
        /// Error bound (interpretation depends on the codec).
        bound: f64,
        /// Registered codec name.
        codec: String,
        /// Element type.
        elem: ElemType,
        /// Log base for the transform codecs.
        base: LogBase,
    },
    /// `pwrel decompress`.
    Decompress {
        /// Stream input path.
        input: String,
        /// Raw output path.
        output: String,
        /// Element type expected in the stream.
        elem: ElemType,
    },
    /// `pwrel info`.
    Info {
        /// Stream path.
        input: String,
    },
    /// `pwrel codecs`.
    Codecs,
    /// `pwrel pack`.
    Pack {
        /// Archive output path.
        output: String,
        /// Error bound for every field.
        bound: f64,
        /// Registered codec name.
        codec: String,
        /// Element type.
        elem: ElemType,
        /// Log base.
        base: LogBase,
        /// `(path, dims)` field specs.
        inputs: Vec<(String, Dims)>,
    },
    /// `pwrel unpack`.
    Unpack {
        /// Archive input path.
        input: String,
        /// Output directory.
        output: String,
    },
    /// `pwrel list`.
    List {
        /// Archive path.
        input: String,
    },
    /// `pwrel run`.
    Run {
        /// Raw input path.
        input: String,
        /// Grid shape.
        dims: Dims,
        /// Error bound (interpretation depends on the codec).
        bound: f64,
        /// Registered codec name.
        codec: String,
        /// Element type.
        elem: ElemType,
        /// Log base for the transform codecs.
        base: LogBase,
        /// Chrome trace_event JSON output path, if requested.
        trace: Option<String>,
        /// Print the per-stage summary table.
        stats: bool,
        /// Round trip through the chunk-pipelined streaming path
        /// (framed stream, bounded memory) instead of one-shot buffers.
        stream: bool,
        /// Elements per chunk for the streaming path (default ~4 MiB of
        /// elements, clamped to the field).
        chunk_elems: Option<usize>,
        /// Worker thread count for the streaming path (default: one per
        /// CPU), clamped to the chunk count.
        workers: Option<usize>,
        /// In-flight chunk window for the streaming path (default: two
        /// per worker).
        window: Option<usize>,
    },
    /// `pwrel serve`: run the PWRP/1 service in the foreground. Flags
    /// pass through verbatim to `pwrel_serve::ServeConfig::from_args`,
    /// so the subcommand and the standalone `pwrel-serve` binary accept
    /// the same set.
    Serve {
        /// Raw flag tokens after `serve`.
        args: Vec<String>,
    },
    /// `pwrel remote`: drive a running server over PWRP/1.
    Remote {
        /// Server address (`host:port`).
        server: String,
        /// The remote action.
        action: RemoteAction,
    },
    /// `pwrel verify`.
    Verify {
        /// Raw original path.
        input: String,
        /// Compressed stream path.
        stream: String,
        /// Grid shape of the original.
        dims: Dims,
        /// Bound to check against.
        bound: f64,
        /// Element type.
        elem: ElemType,
    },
}

/// One `pwrel remote` action.
#[derive(Debug, PartialEq)]
pub enum RemoteAction {
    /// Compress a raw file through the server.
    Compress {
        /// Raw input path.
        input: String,
        /// Stream output path.
        output: String,
        /// Grid shape.
        dims: Dims,
        /// Error bound (interpretation depends on the codec).
        bound: f64,
        /// Registered codec name (validated locally; the server decides).
        codec: String,
        /// Element type.
        elem: ElemType,
        /// Log base for the transform codecs.
        base: LogBase,
        /// Elements per PWS1 chunk (None = server default).
        chunk_elems: Option<usize>,
    },
    /// Decompress a PWS1 stream through the server.
    Decompress {
        /// Stream input path.
        input: String,
        /// Raw output path.
        output: String,
    },
    /// Ask the server to identify a stream's leading bytes.
    Info {
        /// Stream path.
        input: String,
    },
    /// Print the server's codec listing.
    Codecs,
    /// Print the server's metrics exposition.
    Metrics,
    /// Liveness probe.
    Ping,
}

/// Top-level parsed CLI.
#[derive(Debug, PartialEq)]
pub struct Cli {
    /// The subcommand to execute.
    pub command: Command,
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(format!("{}\n\n{USAGE}", msg.into()))
}

/// Parses `NX`, `NYxNX` or `NZxNYxNX` (also accepts `X` separators in
/// upper case).
pub fn parse_dims(s: &str) -> Result<Dims, CliError> {
    let parts: Vec<&str> = s.split(['x', 'X']).collect();
    let nums: Result<Vec<usize>, _> = parts.iter().map(|p| p.parse::<usize>()).collect();
    let nums = nums.map_err(|_| usage_err(format!("bad --dims value '{s}'")))?;
    match nums.as_slice() {
        [nx] => Ok(Dims::d1(*nx)),
        [ny, nx] => Ok(Dims::d2(*ny, *nx)),
        [nz, ny, nx] => Ok(Dims::d3(*nz, *ny, *nx)),
        _ => Err(usage_err(format!("bad --dims value '{s}' (1-3 extents)"))),
    }
}

/// Validates a `--codec` name against the registry at parse time, so the
/// error arrives before any file is read.
fn parse_codec(s: &str) -> Result<String, CliError> {
    if pwrel_pipeline::global().by_name(s).is_none() {
        let known: Vec<&str> = pwrel_pipeline::global().iter().map(|c| c.name()).collect();
        return Err(usage_err(format!(
            "unknown --codec '{s}' (known: {})",
            known.join(", ")
        )));
    }
    Ok(s.to_string())
}

fn parse_base(s: &str) -> Result<LogBase, CliError> {
    match s {
        "2" => Ok(LogBase::Two),
        "e" => Ok(LogBase::E),
        "10" => Ok(LogBase::Ten),
        _ => Err(usage_err(format!("unknown --base '{s}' (2|e|10)"))),
    }
}

/// Parses an optional positive-count flag (`--workers 4`); zero is a
/// usage error, not a silent fallback.
fn parse_count(flags: &Flags, name: &str) -> Result<Option<usize>, CliError> {
    match flags.get(&[name]) {
        None => Ok(None),
        Some(s) => match s.parse::<usize>() {
            Ok(0) | Err(_) => Err(usage_err(format!("bad {name} value '{s}' (want >= 1)"))),
            Ok(n) => Ok(Some(n)),
        },
    }
}

fn parse_elem(s: &str) -> Result<ElemType, CliError> {
    match s {
        "f32" => Ok(ElemType::F32),
        "f64" => Ok(ElemType::F64),
        _ => Err(usage_err(format!("unknown --type '{s}' (f32|f64)"))),
    }
}

/// Flags that take no value; everything else consumes the next token.
const BOOLEAN_FLAGS: &[&str] = &["--stats", "--stream"];

/// Collects `--flag value` / `-f value` pairs, boolean flags, and
/// positional arguments.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut positionals = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                positionals.push(arg.clone());
                continue;
            }
            if BOOLEAN_FLAGS.contains(&arg.as_str()) {
                switches.push(arg.clone());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| usage_err(format!("flag '{arg}' needs a value")))?;
            pairs.push((arg.clone(), value.clone()));
        }
        Ok(Self {
            pairs,
            switches,
            positionals,
        })
    }

    fn get(&self, names: &[&str]) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(f, _)| names.contains(&f.as_str()))
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn require(&self, names: &[&str], what: &str) -> Result<&str, CliError> {
        self.get(names)
            .ok_or_else(|| usage_err(format!("missing required {what} ({})", names.join("/"))))
    }
}

impl Cli {
    /// Parses a full argument vector (excluding the program name).
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let (cmd, rest) = args
            .split_first()
            .ok_or_else(|| usage_err("missing command"))?;
        if cmd == "--help" || cmd == "-h" || cmd == "help" {
            return Err(CliError::Usage(USAGE.to_string()));
        }
        if cmd == "serve" {
            // Flags pass through verbatim: ServeConfig::from_args owns
            // their validation so `pwrel serve` and the standalone
            // binary cannot drift.
            return Ok(Cli {
                command: Command::Serve {
                    args: rest.to_vec(),
                },
            });
        }
        let flags = Flags::parse(rest)?;
        let elem = flags
            .get(&["--type"])
            .map_or(Ok(ElemType::F32), parse_elem)?;
        let command = match cmd.as_str() {
            "compress" => Command::Compress {
                input: flags.require(&["-i", "--input"], "input path")?.to_string(),
                output: flags
                    .require(&["-o", "--output"], "output path")?
                    .to_string(),
                dims: parse_dims(flags.require(&["--dims"], "--dims")?)?,
                bound: flags
                    .require(&["--bound", "-b"], "--bound")?
                    .parse::<f64>()
                    .map_err(|_| usage_err("bad --bound value"))?,
                codec: flags
                    .get(&["--codec"])
                    .map_or(Ok("sz_t".to_string()), parse_codec)?,
                elem,
                base: flags
                    .get(&["--base"])
                    .map_or(Ok(LogBase::Two), parse_base)?,
            },
            "decompress" => Command::Decompress {
                input: flags.require(&["-i", "--input"], "input path")?.to_string(),
                output: flags
                    .require(&["-o", "--output"], "output path")?
                    .to_string(),
                elem,
            },
            "info" => Command::Info {
                input: flags.require(&["-i", "--input"], "input path")?.to_string(),
            },
            "codecs" => Command::Codecs,
            "pack" => {
                if flags.positionals.is_empty() {
                    return Err(usage_err("pack needs at least one <raw>:<dims> spec"));
                }
                let mut inputs = Vec::new();
                for spec in &flags.positionals {
                    let (path, dims_str) = spec.rsplit_once(':').ok_or_else(|| {
                        usage_err(format!("bad field spec '{spec}' (want path:dims)"))
                    })?;
                    inputs.push((path.to_string(), parse_dims(dims_str)?));
                }
                Command::Pack {
                    output: flags
                        .require(&["-o", "--output"], "output path")?
                        .to_string(),
                    bound: flags
                        .require(&["--bound", "-b"], "--bound")?
                        .parse::<f64>()
                        .map_err(|_| usage_err("bad --bound value"))?,
                    codec: flags
                        .get(&["--codec"])
                        .map_or(Ok("sz_t".to_string()), parse_codec)?,
                    elem,
                    base: flags
                        .get(&["--base"])
                        .map_or(Ok(LogBase::Two), parse_base)?,
                    inputs,
                }
            }
            "unpack" => Command::Unpack {
                input: flags.require(&["-i", "--input"], "input path")?.to_string(),
                output: flags
                    .require(&["-o", "--output"], "output dir")?
                    .to_string(),
            },
            "list" => Command::List {
                input: flags.require(&["-i", "--input"], "input path")?.to_string(),
            },
            "run" => Command::Run {
                input: flags.require(&["-i", "--input"], "input path")?.to_string(),
                dims: parse_dims(flags.require(&["--dims"], "--dims")?)?,
                bound: flags
                    .require(&["--bound", "-b"], "--bound")?
                    .parse::<f64>()
                    .map_err(|_| usage_err("bad --bound value"))?,
                codec: flags
                    .get(&["--codec"])
                    .map_or(Ok("sz_t".to_string()), parse_codec)?,
                elem,
                base: flags
                    .get(&["--base"])
                    .map_or(Ok(LogBase::Two), parse_base)?,
                trace: flags.get(&["--trace"]).map(|s| s.to_string()),
                stats: flags.has("--stats"),
                stream: flags.has("--stream"),
                chunk_elems: parse_count(&flags, "--chunk-elems")?,
                workers: parse_count(&flags, "--workers")?,
                window: parse_count(&flags, "--window")?,
            },
            "remote" => {
                let action_name = flags.positionals.first().ok_or_else(|| {
                    usage_err(
                        "remote needs an action (compress|decompress|info|codecs|metrics|ping)",
                    )
                })?;
                let action = match action_name.as_str() {
                    "compress" => RemoteAction::Compress {
                        input: flags.require(&["-i", "--input"], "input path")?.to_string(),
                        output: flags
                            .require(&["-o", "--output"], "output path")?
                            .to_string(),
                        dims: parse_dims(flags.require(&["--dims"], "--dims")?)?,
                        bound: flags
                            .require(&["--bound", "-b"], "--bound")?
                            .parse::<f64>()
                            .map_err(|_| usage_err("bad --bound value"))?,
                        codec: flags
                            .get(&["--codec"])
                            .map_or(Ok("sz_t".to_string()), parse_codec)?,
                        elem,
                        base: flags
                            .get(&["--base"])
                            .map_or(Ok(LogBase::Two), parse_base)?,
                        chunk_elems: parse_count(&flags, "--chunk-elems")?,
                    },
                    "decompress" => RemoteAction::Decompress {
                        input: flags.require(&["-i", "--input"], "input path")?.to_string(),
                        output: flags
                            .require(&["-o", "--output"], "output path")?
                            .to_string(),
                    },
                    "info" => RemoteAction::Info {
                        input: flags.require(&["-i", "--input"], "input path")?.to_string(),
                    },
                    "codecs" => RemoteAction::Codecs,
                    "metrics" => RemoteAction::Metrics,
                    "ping" => RemoteAction::Ping,
                    other => {
                        return Err(usage_err(format!(
                            "unknown remote action '{other}' \
                             (compress|decompress|info|codecs|metrics|ping)"
                        )))
                    }
                };
                Command::Remote {
                    server: flags
                        .get(&["--server"])
                        .unwrap_or("127.0.0.1:9474")
                        .to_string(),
                    action,
                }
            }
            "verify" => Command::Verify {
                input: flags.require(&["-i", "--input"], "input path")?.to_string(),
                stream: flags
                    .require(&["-c", "--compressed"], "stream path")?
                    .to_string(),
                dims: parse_dims(flags.require(&["--dims"], "--dims")?)?,
                bound: flags
                    .require(&["--bound", "-b"], "--bound")?
                    .parse::<f64>()
                    .map_err(|_| usage_err("bad --bound value"))?,
                elem,
            },
            other => return Err(usage_err(format!("unknown command '{other}'"))),
        };
        Ok(Cli { command })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parse_dims_variants() {
        assert_eq!(parse_dims("100").unwrap(), Dims::d1(100));
        assert_eq!(parse_dims("5x7").unwrap(), Dims::d2(5, 7));
        assert_eq!(parse_dims("2X3X4").unwrap(), Dims::d3(2, 3, 4));
        assert!(parse_dims("").is_err());
        assert!(parse_dims("axb").is_err());
        assert!(parse_dims("1x2x3x4").is_err());
    }

    #[test]
    fn compress_command_full() {
        let cli = Cli::parse(&argv(
            "compress -i in.f32 -o out.pwr --dims 4x5x6 --bound 1e-3 --codec zfp_t --base e --type f64",
        ))
        .unwrap();
        match cli.command {
            Command::Compress {
                dims,
                bound,
                codec,
                elem,
                base,
                ..
            } => {
                assert_eq!(dims, Dims::d3(4, 5, 6));
                assert_eq!(bound, 1e-3);
                assert_eq!(codec, "zfp_t");
                assert_eq!(elem, ElemType::F64);
                assert_eq!(base, LogBase::E);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn compress_defaults() {
        let cli = Cli::parse(&argv("compress -i a -o b --dims 10 --bound 0.01")).unwrap();
        match cli.command {
            Command::Compress {
                codec, elem, base, ..
            } => {
                assert_eq!(codec, "sz_t");
                assert_eq!(elem, ElemType::F32);
                assert_eq!(base, LogBase::Two);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(Cli::parse(&argv("compress -i a -o b --bound 0.01")).is_err());
        assert!(Cli::parse(&argv("compress -i a --dims 10 --bound 0.01")).is_err());
        assert!(Cli::parse(&argv("verify -i a --dims 10 --bound 0.01")).is_err());
        assert!(Cli::parse(&argv("nonsense")).is_err());
        assert!(Cli::parse(&[]).is_err());
    }

    #[test]
    fn decompress_and_info() {
        assert_eq!(
            Cli::parse(&argv("decompress -i s -o r")).unwrap().command,
            Command::Decompress {
                input: "s".into(),
                output: "r".into(),
                elem: ElemType::F32
            }
        );
        assert_eq!(
            Cli::parse(&argv("info -i s")).unwrap().command,
            Command::Info { input: "s".into() }
        );
    }

    #[test]
    fn unknown_codec_rejected_with_listing() {
        match Cli::parse(&argv(
            "compress -i a -o b --dims 10 --bound 0.01 --codec nope",
        )) {
            Err(CliError::Usage(msg)) => {
                assert!(msg.contains("known:") && msg.contains("zfp_p"), "{msg}")
            }
            other => panic!("expected usage, got {other:?}"),
        }
    }

    #[test]
    fn run_command_with_trace_and_stats() {
        let cli = Cli::parse(&argv(
            "run -i in.f32 --dims 8x16 --bound 1e-2 --codec zfp_t --trace out.json --stats",
        ))
        .unwrap();
        match cli.command {
            Command::Run {
                dims,
                bound,
                codec,
                trace,
                stats,
                ..
            } => {
                assert_eq!(dims, Dims::d2(8, 16));
                assert_eq!(bound, 1e-2);
                assert_eq!(codec, "zfp_t");
                assert_eq!(trace.as_deref(), Some("out.json"));
                assert!(stats);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn run_command_defaults() {
        // --stats is a boolean flag: it must not swallow the next token.
        let cli = Cli::parse(&argv("run --stats -i a --dims 10 --bound 0.01")).unwrap();
        match cli.command {
            Command::Run {
                input,
                codec,
                trace,
                stats,
                ..
            } => {
                assert_eq!(input, "a");
                assert_eq!(codec, "sz_t");
                assert_eq!(trace, None);
                assert!(stats);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn run_command_streaming_flags() {
        let cli = Cli::parse(&argv(
            "run -i a --dims 64x64 --bound 1e-2 --stream --chunk-elems 1024 --workers 2 --window 6",
        ))
        .unwrap();
        match cli.command {
            Command::Run {
                stream,
                chunk_elems,
                workers,
                window,
                ..
            } => {
                assert!(stream);
                assert_eq!(chunk_elems, Some(1024));
                assert_eq!(workers, Some(2));
                assert_eq!(window, Some(6));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn run_streaming_defaults_off() {
        // --stream is boolean: it must not swallow the next token, and
        // the tuning knobs default to None.
        let cli = Cli::parse(&argv("run --stream -i a --dims 10 --bound 0.01")).unwrap();
        match cli.command {
            Command::Run {
                input,
                stream,
                chunk_elems,
                workers,
                window,
                ..
            } => {
                assert_eq!(input, "a");
                assert!(stream);
                assert_eq!(chunk_elems, None);
                assert_eq!(workers, None);
                assert_eq!(window, None);
            }
            _ => panic!("wrong command"),
        }
        match Cli::parse(&argv("run -i a --dims 10 --bound 0.01"))
            .unwrap()
            .command
        {
            Command::Run { stream, .. } => assert!(!stream),
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn zero_counts_are_usage_errors() {
        for flag in ["--chunk-elems", "--workers", "--window"] {
            let err = Cli::parse(&argv(&format!("run -i a --dims 10 --bound 0.01 {flag} 0")));
            assert!(matches!(err, Err(CliError::Usage(_))), "{flag} 0: {err:?}");
            let err = Cli::parse(&argv(&format!("run -i a --dims 10 --bound 0.01 {flag} x")));
            assert!(matches!(err, Err(CliError::Usage(_))), "{flag} x: {err:?}");
        }
    }

    #[test]
    fn codecs_command_parses() {
        assert_eq!(
            Cli::parse(&argv("codecs")).unwrap().command,
            Command::Codecs
        );
    }

    #[test]
    fn serve_passes_flags_through_verbatim() {
        let cli = Cli::parse(&argv("serve --addr 127.0.0.1:0 --inflight 2")).unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                args: argv("--addr 127.0.0.1:0 --inflight 2")
            }
        );
        // Even unknown flags pass through; ServeConfig::from_args rejects
        // them later with its own message.
        assert!(Cli::parse(&argv("serve --wat 1")).is_ok());
    }

    #[test]
    fn remote_actions_parse() {
        let cli = Cli::parse(&argv(
            "remote compress -i a.f32 -o a.pwr --dims 8x8 --bound 1e-3 \
             --codec zfp_t --type f64 --base 10 --chunk-elems 32 --server 10.0.0.1:9999",
        ))
        .unwrap();
        match cli.command {
            Command::Remote { server, action } => {
                assert_eq!(server, "10.0.0.1:9999");
                match action {
                    RemoteAction::Compress {
                        dims,
                        bound,
                        codec,
                        elem,
                        base,
                        chunk_elems,
                        ..
                    } => {
                        assert_eq!(dims, Dims::d2(8, 8));
                        assert_eq!(bound, 1e-3);
                        assert_eq!(codec, "zfp_t");
                        assert_eq!(elem, ElemType::F64);
                        assert_eq!(base, LogBase::Ten);
                        assert_eq!(chunk_elems, Some(32));
                    }
                    other => panic!("wrong action {other:?}"),
                }
            }
            _ => panic!("wrong command"),
        }
        // Default server address, simple actions.
        match Cli::parse(&argv("remote ping")).unwrap().command {
            Command::Remote { server, action } => {
                assert_eq!(server, "127.0.0.1:9474");
                assert_eq!(action, RemoteAction::Ping);
            }
            _ => panic!("wrong command"),
        }
        assert!(matches!(
            Cli::parse(&argv("remote codecs")).unwrap().command,
            Command::Remote {
                action: RemoteAction::Codecs,
                ..
            }
        ));
        assert!(matches!(
            Cli::parse(&argv("remote metrics")).unwrap().command,
            Command::Remote {
                action: RemoteAction::Metrics,
                ..
            }
        ));
    }

    #[test]
    fn remote_rejects_bad_actions() {
        assert!(matches!(
            Cli::parse(&argv("remote")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            Cli::parse(&argv("remote teleport")),
            Err(CliError::Usage(_))
        ));
        // remote compress shares required flags with local compress.
        assert!(Cli::parse(&argv("remote compress -i a -o b --bound 1e-3")).is_err());
    }

    #[test]
    fn help_is_usage_error_with_text() {
        match Cli::parse(&argv("--help")) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("USAGE")),
            other => panic!("expected usage, got {other:?}"),
        }
    }
}
