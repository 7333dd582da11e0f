//! `pwrel-serve`: the PWRP/1 compression service.
//!
//! A long-running TCP front end over the codec registry
//! ([`pwrel_pipeline::CodecRegistry`]): clients speak the length-prefixed
//! binary protocol specified in `PROTOCOL.md` (version "PWRP/1") to
//! compress, decompress, identify, and introspect without linking the
//! codecs themselves. Bodies stream as PWS1 frames through the chunk
//! pipeline, so neither side ever materializes a whole field — a
//! terabyte round trip holds a handful of chunks in memory.
//!
//! Layering (see `DESIGN.md` §17):
//!
//! - [`proto`] — the wire format: handshake, request/response headers,
//!   segmented bodies, status codes. Pure byte-level encode/decode over
//!   `io::Read`/`io::Write`, shared by server and client, with every
//!   hostile-input parse in a `decode_*` function (the audit's L1
//!   panic-free entry points) and every wire-derived length bounds-
//!   checked before it sizes an allocation (L5).
//! - [`server`] — the accept loop, per-connection threads, backpressure
//!   (global in-flight cap), per-connection byte quotas, and read
//!   timeouts.
//! - [`client`] — a small blocking client used by the CLI's `remote`
//!   subcommand, the black-box integration tests, and perfbench's serve
//!   workload.
//! - [`metrics`] — the text `metrics` response, rendered from the
//!   server's one record, its `pwrel-trace` sink.
//!
//! Concurrency model: one OS thread per connection (requests on a
//! connection are sequential, as the protocol requires), bounded by the
//! connection cap; heavy requests additionally pass the global in-flight
//! gate or are rejected with `busy` so overload degrades predictably
//! instead of queueing unboundedly. Every compress and decompress runs
//! the registry's framed-stream engine ([`pwrel_pipeline::stream`])
//! inline on its connection thread, so the threads doing codec work are
//! at most the in-flight cap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::Client;
pub use proto::{CompressHeader, ServeError};
pub use server::{Server, ServerHandle};

/// Server configuration: every knob of the runbook in `OPERATIONS.md`
/// ("Running pwrel-serve").
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, `host:port` (port 0 = ephemeral).
    pub addr: String,
    /// Default elements per PWS1 chunk when a compress request leaves
    /// `chunk_elems` at 0 (clamped to the field size per request).
    pub chunk_elems: usize,
    /// Global cap on concurrently *processing* heavy requests
    /// (compress/decompress); excess requests are rejected with `busy`.
    pub max_inflight: usize,
    /// Cap on simultaneously open connections; excess connections get a
    /// connection-level `busy` response and are closed.
    pub max_connections: usize,
    /// Per-connection request-body byte quota (0 = unlimited). Counts
    /// bytes the server reads: raw elements for compress, the PWS1
    /// stream for decompress, the info blob.
    pub quota_bytes: u64,
    /// Cap on elements per request, bounding the server's per-request
    /// memory commitment before it trusts a header.
    pub max_request_elems: u64,
    /// Socket read timeout in milliseconds: a peer that stalls
    /// mid-header or mid-body this long is answered with `timeout`
    /// (best effort) and dropped.
    pub read_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:9474".to_string(),
            chunk_elems: 0,
            max_inflight: 8,
            max_connections: 64,
            quota_bytes: 1 << 30,
            max_request_elems: 1 << 28,
            read_timeout_ms: 10_000,
        }
    }
}

impl ServeConfig {
    /// Parses `--flag value` pairs (the `pwrel-serve` binary's and
    /// `pwrel serve`'s shared flag set) on top of the defaults.
    ///
    /// Accepted flags: `--addr`, `--chunk-elems`, `--inflight`,
    /// `--max-conns`, `--quota`, `--max-elems`, `--timeout-ms`.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let parse = |what: &str| -> Result<usize, String> {
                value
                    .parse::<usize>()
                    .map_err(|_| format!("{what} must be a non-negative integer, got {value:?}"))
            };
            match flag.as_str() {
                "--addr" => cfg.addr = value.to_string(),
                "--chunk-elems" => cfg.chunk_elems = parse("--chunk-elems")?,
                "--inflight" => cfg.max_inflight = parse("--inflight")?.max(1),
                "--max-conns" => cfg.max_connections = parse("--max-conns")?.max(1),
                "--quota" => cfg.quota_bytes = parse("--quota")? as u64,
                "--max-elems" => cfg.max_request_elems = parse("--max-elems")?.max(1) as u64,
                "--timeout-ms" => cfg.read_timeout_ms = parse("--timeout-ms")?.max(1) as u64,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_args_overrides_defaults() {
        let args: Vec<String> = [
            "--addr",
            "0.0.0.0:0",
            "--chunk-elems",
            "4096",
            "--inflight",
            "2",
            "--quota",
            "1024",
            "--timeout-ms",
            "250",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = ServeConfig::from_args(&args).unwrap();
        assert_eq!(cfg.addr, "0.0.0.0:0");
        assert_eq!(cfg.chunk_elems, 4096);
        assert_eq!(cfg.max_inflight, 2);
        assert_eq!(cfg.quota_bytes, 1024);
        assert_eq!(cfg.read_timeout_ms, 250);
        // Untouched knobs keep their defaults.
        assert_eq!(cfg.max_connections, ServeConfig::default().max_connections);
    }

    #[test]
    fn from_args_rejects_junk() {
        let bad = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            ServeConfig::from_args(&v).unwrap_err()
        };
        assert!(bad(&["--inflight"]).contains("needs a value"));
        assert!(bad(&["--inflight", "lots"]).contains("non-negative integer"));
        assert!(bad(&["--wat", "1"]).contains("unknown flag"));
        assert!(bad(&["--workers", "2"]).contains("unknown flag"));
        assert!(bad(&["--window", "8"]).contains("unknown flag"));
    }

    #[test]
    fn zero_floors_are_clamped() {
        let v: Vec<String> = ["--max-conns", "0", "--inflight", "0", "--timeout-ms", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = ServeConfig::from_args(&v).unwrap();
        assert_eq!(cfg.max_connections, 1);
        assert_eq!(cfg.max_inflight, 1);
        assert_eq!(cfg.read_timeout_ms, 1);
    }
}
