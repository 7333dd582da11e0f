//! Hand-rolled argument parsing (no external dependencies).

use crate::CliError;
use pwrel_core::LogBase;
use pwrel_data::Dims;
use pwrel_pipeline::CompressOpts;
use std::cell::{Cell, RefCell};

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
pwrel — point-wise relative-error-bounded lossy compression

USAGE:
  pwrel compress   -i <raw> -o <stream> --dims <NX|NYxNX|NZxNYxNX> --bound <b>
                   [--codec <name>] [--type f32|f64] [--base 2|e|10]
  pwrel decompress -i <stream> -o <raw>
  pwrel info       -i <stream>
  pwrel codecs
  pwrel verify     -i <raw> -c <stream> --bound <b>
  pwrel pack       -o <archive> --bound <b> [--codec <name>] [--type f32|f64]
                   [--base 2|e|10] <raw>:<dims> ...
  pwrel unpack     -i <archive> -o <dir>
  pwrel list       -i <archive>
  pwrel run        -i <raw> --dims <...> --bound <b> [--codec <name>]
                   [--type f32|f64] [--base 2|e|10] [--trace <out.json>] [--stats]
                   [--stream [--chunk-elems <n>] [--workers <n>] [--window <n>]]
  pwrel serve      [--addr <host:port>] [--inflight <n>] [--max-conns <n>]
                   [--quota <bytes>] [--max-elems <n>] [--timeout-ms <ms>]
                   [--chunk-elems <n>]
  pwrel remote     <compress|decompress|info|codecs|metrics|ping>
                   [--server <host:port>] (plus the matching local flags)

  compress   raw little-endian floats -> compressed stream (default codec sz_t)
  decompress compressed stream -> raw little-endian floats (codec, element
             type and shape come from the stream header)
  info       print stream kind and sizes
  codecs     list every registered codec
  verify     decompress and report error statistics against the original,
             read with the stream's element type and shape
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

/// Element type of a raw input file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemType {
    /// 4-byte little-endian IEEE floats.
    F32,
    /// 8-byte little-endian IEEE floats.
    F64,
}

/// A raw little-endian float file and its grid shape (`-i`, `--dims`;
/// `pack` takes them as `<raw>:<dims>` specs).
#[derive(Debug, PartialEq)]
pub struct RawInput {
    /// Raw file path.
    pub path: String,
    /// Grid shape.
    pub dims: Dims,
}

/// How a compressing command encodes: `--codec`, `--type`, `--bound`
/// and `--base`.
#[derive(Debug, PartialEq)]
pub struct CodecArgs {
    /// Registered codec name (default `sz_t`).
    pub codec: String,
    /// Element type of the raw input (default `f32`).
    pub elem: ElemType,
    /// Error bound (codec-interpreted) and log base (default 2).
    pub opts: CompressOpts,
}

/// `pwrel run`'s arguments.
#[derive(Debug, PartialEq)]
pub struct RunArgs {
    /// Raw input.
    pub input: RawInput,
    /// Codec settings.
    pub codec: CodecArgs,
    /// Chrome trace_event JSON output path, if requested.
    pub trace: Option<String>,
    /// Print the per-stage summary table.
    pub stats: bool,
    /// Round trip through the chunk-pipelined streaming path (framed
    /// stream, bounded memory) instead of one-shot buffers. The three
    /// knobs below are accepted only with it.
    pub stream: bool,
    /// Elements per chunk (default ~4 MiB of elements, clamped to the
    /// field).
    pub chunk_elems: Option<usize>,
    /// Worker thread count (default: one per CPU), clamped to the chunk
    /// count.
    pub workers: Option<usize>,
    /// In-flight chunk window (default: two per worker).
    pub window: Option<usize>,
}

/// A parsed command.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// `pwrel compress`.
    Compress {
        /// Raw input.
        input: RawInput,
        /// Stream output path.
        output: String,
        /// Codec settings.
        codec: CodecArgs,
    },
    /// `pwrel decompress`.
    Decompress {
        /// Stream input path.
        input: String,
        /// Raw output path.
        output: String,
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
        /// Codec settings for every field.
        codec: CodecArgs,
        /// The fields, one per `<raw>:<dims>` spec.
        inputs: Vec<RawInput>,
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
    Run(RunArgs),
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
        /// Bound to check against.
        bound: f64,
    },
}

/// One `pwrel remote` action.
#[derive(Debug, PartialEq)]
pub enum RemoteAction {
    /// Compress a raw file through the server.
    Compress(RemoteCompressArgs),
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

/// `pwrel remote compress`'s arguments.
#[derive(Debug, PartialEq)]
pub struct RemoteCompressArgs {
    /// Raw input.
    pub input: RawInput,
    /// Stream output path.
    pub output: String,
    /// Codec settings (the name is validated locally; the server
    /// decides).
    pub codec: CodecArgs,
    /// Elements per PWS1 chunk (None = server default).
    pub chunk_elems: Option<usize>,
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
    if nums
        .iter()
        .try_fold(1usize, |n, &e| n.checked_mul(e))
        .is_none()
    {
        return Err(usage_err(format!(
            "--dims value '{s}' overflows the point count"
        )));
    }
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

fn parse_elem(s: &str) -> Result<ElemType, CliError> {
    match s {
        "f32" => Ok(ElemType::F32),
        "f64" => Ok(ElemType::F64),
        _ => Err(usage_err(format!("unknown --type '{s}' (f32|f64)"))),
    }
}

/// Flags that take no value; everything else consumes the next token.
const BOOLEAN_FLAGS: &[&str] = &["--stats", "--stream"];

const INPUT: &[&str] = &["-i", "--input"];
const OUTPUT: &[&str] = &["-o", "--output"];

/// Collects `--flag value` / `-f value` pairs, boolean flags, and
/// positional arguments, and remembers which of them the command asked
/// for: [`Flags::finish`] rejects the rest.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
    asked: RefCell<Vec<&'static str>>,
    positionals_taken: Cell<usize>,
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
            asked: RefCell::new(Vec::new()),
            positionals_taken: Cell::new(0),
        })
    }

    fn get(&self, names: &[&'static str]) -> Option<&str> {
        self.asked.borrow_mut().extend_from_slice(names);
        self.pairs
            .iter()
            .find(|(f, _)| names.contains(&f.as_str()))
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &'static str) -> bool {
        self.asked.borrow_mut().push(name);
        self.switches.iter().any(|s| s == name)
    }

    fn require(&self, names: &[&'static str], what: &str) -> Result<&str, CliError> {
        self.get(names)
            .ok_or_else(|| usage_err(format!("missing required {what} ({})", names.join("/"))))
    }

    fn path(&self, names: &[&'static str], what: &str) -> Result<String, CliError> {
        self.require(names, what).map(str::to_string)
    }

    /// The first `n` positional arguments (fewer if fewer were given).
    fn positionals(&self, n: usize) -> &[String] {
        let n = n.min(self.positionals.len());
        self.positionals_taken.set(n);
        &self.positionals[..n]
    }

    /// Parses an optional positive count (`--workers 4`); zero is a
    /// usage error, not a silent fallback.
    fn count(&self, name: &'static str) -> Result<Option<usize>, CliError> {
        match self.get(&[name]) {
            None => Ok(None),
            Some(s) => match s.parse::<usize>() {
                Ok(0) | Err(_) => Err(usage_err(format!("bad {name} value '{s}' (want >= 1)"))),
                Ok(n) => Ok(Some(n)),
            },
        }
    }

    fn bound(&self) -> Result<f64, CliError> {
        self.require(&["--bound", "-b"], "--bound")?
            .parse::<f64>()
            .map_err(|_| usage_err("bad --bound value"))
    }

    /// `-i <raw> --dims <...>`.
    fn raw_input(&self) -> Result<RawInput, CliError> {
        Ok(RawInput {
            path: self.path(INPUT, "input path")?,
            dims: parse_dims(self.require(&["--dims"], "--dims")?)?,
        })
    }

    /// `--codec`, `--type`, `--bound`, `--base`.
    fn codec_args(&self) -> Result<CodecArgs, CliError> {
        Ok(CodecArgs {
            codec: self
                .get(&["--codec"])
                .map_or(Ok("sz_t".into()), parse_codec)?,
            elem: self
                .get(&["--type"])
                .map_or(Ok(ElemType::F32), parse_elem)?,
            opts: CompressOpts {
                bound: self.bound()?,
                base: self.get(&["--base"]).map_or(Ok(LogBase::Two), parse_base)?,
            },
        })
    }

    /// Rejects every flag and positional argument `cmd` did not ask for.
    fn finish(&self, cmd: &str) -> Result<(), CliError> {
        let asked = self.asked.borrow();
        let given = self.pairs.iter().map(|(f, _)| f).chain(&self.switches);
        if let Some(flag) = given.into_iter().find(|f| !asked.contains(&f.as_str())) {
            return Err(usage_err(format!("'{cmd}' does not take {flag}")));
        }
        if let Some(extra) = self.positionals.get(self.positionals_taken.get()) {
            return Err(usage_err(format!(
                "unexpected argument '{extra}' to '{cmd}'"
            )));
        }
        Ok(())
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
        let command = match cmd.as_str() {
            "compress" => Command::Compress {
                input: flags.raw_input()?,
                output: flags.path(OUTPUT, "output path")?,
                codec: flags.codec_args()?,
            },
            "decompress" => Command::Decompress {
                input: flags.path(INPUT, "input path")?,
                output: flags.path(OUTPUT, "output path")?,
            },
            "info" => Command::Info {
                input: flags.path(INPUT, "input path")?,
            },
            "codecs" => Command::Codecs,
            "pack" => {
                let specs = flags.positionals(usize::MAX);
                if specs.is_empty() {
                    return Err(usage_err("pack needs at least one <raw>:<dims> spec"));
                }
                let mut inputs = Vec::with_capacity(specs.len());
                for spec in specs {
                    let (path, dims) = spec.rsplit_once(':').ok_or_else(|| {
                        usage_err(format!("bad field spec '{spec}' (want path:dims)"))
                    })?;
                    inputs.push(RawInput {
                        path: path.to_string(),
                        dims: parse_dims(dims)?,
                    });
                }
                Command::Pack {
                    output: flags.path(OUTPUT, "output path")?,
                    codec: flags.codec_args()?,
                    inputs,
                }
            }
            "unpack" => Command::Unpack {
                input: flags.path(INPUT, "input path")?,
                output: flags.path(OUTPUT, "output dir")?,
            },
            "list" => Command::List {
                input: flags.path(INPUT, "input path")?,
            },
            "run" => {
                let args = RunArgs {
                    input: flags.raw_input()?,
                    codec: flags.codec_args()?,
                    trace: flags.get(&["--trace"]).map(str::to_string),
                    stats: flags.has("--stats"),
                    stream: flags.has("--stream"),
                    chunk_elems: flags.count("--chunk-elems")?,
                    workers: flags.count("--workers")?,
                    window: flags.count("--window")?,
                };
                let tuned = args.chunk_elems.or(args.workers).or(args.window);
                if tuned.is_some() && !args.stream {
                    return Err(usage_err(
                        "--chunk-elems, --workers and --window need --stream",
                    ));
                }
                Command::Run(args)
            }
            "remote" => {
                let action_name = flags.positionals(1).first().ok_or_else(|| {
                    usage_err(
                        "remote needs an action (compress|decompress|info|codecs|metrics|ping)",
                    )
                })?;
                let action = match action_name.as_str() {
                    "compress" => RemoteAction::Compress(RemoteCompressArgs {
                        input: flags.raw_input()?,
                        output: flags.path(OUTPUT, "output path")?,
                        codec: flags.codec_args()?,
                        chunk_elems: flags.count("--chunk-elems")?,
                    }),
                    "decompress" => RemoteAction::Decompress {
                        input: flags.path(INPUT, "input path")?,
                        output: flags.path(OUTPUT, "output path")?,
                    },
                    "info" => RemoteAction::Info {
                        input: flags.path(INPUT, "input path")?,
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
                input: flags.path(INPUT, "input path")?,
                stream: flags.path(&["-c", "--compressed"], "stream path")?,
                bound: flags.bound()?,
            },
            other => return Err(usage_err(format!("unknown command '{other}'"))),
        };
        flags.finish(cmd)?;
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
        assert!(parse_dims("99999999999x99999999999x99999999999").is_err());
    }

    #[test]
    fn compress_command_full() {
        let cli = Cli::parse(&argv(
            "compress -i in.f32 -o out.pwr --dims 4x5x6 --bound 1e-3 --codec zfp_t --base e --type f64",
        ))
        .unwrap();
        match cli.command {
            Command::Compress { input, codec, .. } => {
                assert_eq!(input.dims, Dims::d3(4, 5, 6));
                assert_eq!(codec.opts.bound, 1e-3);
                assert_eq!(codec.codec, "zfp_t");
                assert_eq!(codec.elem, ElemType::F64);
                assert_eq!(codec.opts.base, LogBase::E);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn compress_defaults() {
        let cli = Cli::parse(&argv("compress -i a -o b --dims 10 --bound 0.01")).unwrap();
        match cli.command {
            Command::Compress { codec, .. } => {
                assert_eq!(codec.codec, "sz_t");
                assert_eq!(codec.elem, ElemType::F32);
                assert_eq!(codec.opts.base, LogBase::Two);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(Cli::parse(&argv("compress -i a -o b --bound 0.01")).is_err());
        assert!(Cli::parse(&argv("compress -i a --dims 10 --bound 0.01")).is_err());
        assert!(Cli::parse(&argv("verify -i a --bound 0.01")).is_err());
        assert!(Cli::parse(&argv("nonsense")).is_err());
        assert!(Cli::parse(&[]).is_err());
    }

    #[test]
    fn decompress_info_and_verify() {
        assert_eq!(
            Cli::parse(&argv("decompress -i s -o r")).unwrap().command,
            Command::Decompress {
                input: "s".into(),
                output: "r".into(),
            }
        );
        assert_eq!(
            Cli::parse(&argv("info -i s")).unwrap().command,
            Command::Info { input: "s".into() }
        );
        assert_eq!(
            Cli::parse(&argv("verify -i a -c s --bound 1e-3"))
                .unwrap()
                .command,
            Command::Verify {
                input: "a".into(),
                stream: "s".into(),
                bound: 1e-3,
            }
        );
    }

    #[test]
    fn unknown_and_misplaced_flags_are_usage_errors() {
        for cmd in [
            // Misspelled flags.
            "compress -i a -o b --dims 10 --bound 0.01 --codex zfp_t",
            "run -i a --dims 10 --bound 0.01 --strem --workers 2",
            // Chunking knobs without --stream.
            "run -i a --dims 10 --bound 0.01 --workers 2",
            "run -i a --dims 10 --bound 0.01 --chunk-elems 64",
            "run -i a --dims 10 --bound 0.01 --window 4",
            // The stream header carries the element type and the shape.
            "decompress -i s -o r --type f64",
            "verify -i a -c s --dims 10 --bound 0.01",
            "verify -i a -c s --bound 0.01 --type f64",
            "remote decompress -i s -o r --type f64",
            // Flags and arguments of other commands.
            "info -i s --codec sz_t",
            "list -i a --stats",
            "remote ping --bound 0.01",
            "compress -i a -o b --dims 10 --bound 0.01 stray",
            "remote ping stray",
        ] {
            match Cli::parse(&argv(cmd)) {
                Err(CliError::Usage(_)) => {}
                other => panic!("{cmd}: expected a usage error, got {other:?}"),
            }
        }
        match Cli::parse(&argv(
            "compress -i a -o b --dims 10 --bound 0.01 --codex zfp_t",
        )) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("--codex"), "{msg}"),
            other => panic!("expected usage, got {other:?}"),
        }
    }

    #[test]
    fn type_is_taken_only_by_the_raw_reading_commands() {
        for cmd in [
            "compress -i a -o b --dims 10 --bound 0.01 --type f64",
            "pack -o x --bound 0.01 --type f64 a:10",
            "run -i a --dims 10 --bound 0.01 --type f64",
            "remote compress -i a -o b --dims 10 --bound 0.01 --type f64",
        ] {
            assert!(Cli::parse(&argv(cmd)).is_ok(), "{cmd}");
        }
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
            Command::Run(args) => {
                assert_eq!(args.input.dims, Dims::d2(8, 16));
                assert_eq!(args.codec.opts.bound, 1e-2);
                assert_eq!(args.codec.codec, "zfp_t");
                assert_eq!(args.trace.as_deref(), Some("out.json"));
                assert!(args.stats);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn run_command_defaults() {
        // --stats is a boolean flag: it must not swallow the next token.
        let cli = Cli::parse(&argv("run --stats -i a --dims 10 --bound 0.01")).unwrap();
        match cli.command {
            Command::Run(args) => {
                assert_eq!(args.input.path, "a");
                assert_eq!(args.codec.codec, "sz_t");
                assert_eq!(args.trace, None);
                assert!(args.stats);
                assert!(!args.stream);
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
            Command::Run(args) => {
                assert!(args.stream);
                assert_eq!(args.chunk_elems, Some(1024));
                assert_eq!(args.workers, Some(2));
                assert_eq!(args.window, Some(6));
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
            Command::Run(args) => {
                assert_eq!(args.input.path, "a");
                assert!(args.stream);
                assert_eq!(args.chunk_elems, None);
                assert_eq!(args.workers, None);
                assert_eq!(args.window, None);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn zero_counts_are_usage_errors() {
        for flag in ["--chunk-elems", "--workers", "--window"] {
            let run = "run -i a --dims 10 --bound 0.01 --stream";
            let err = Cli::parse(&argv(&format!("{run} {flag} 0")));
            assert!(matches!(err, Err(CliError::Usage(_))), "{flag} 0: {err:?}");
            let err = Cli::parse(&argv(&format!("{run} {flag} x")));
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
                    RemoteAction::Compress(args) => {
                        assert_eq!(args.input.dims, Dims::d2(8, 8));
                        assert_eq!(args.codec.opts.bound, 1e-3);
                        assert_eq!(args.codec.codec, "zfp_t");
                        assert_eq!(args.codec.elem, ElemType::F64);
                        assert_eq!(args.codec.opts.base, LogBase::Ten);
                        assert_eq!(args.chunk_elems, Some(32));
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
