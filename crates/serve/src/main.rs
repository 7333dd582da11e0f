//! The `pwrel-serve` binary: bind, print the address, serve forever.
//! Flag reference and the operational runbook live in `OPERATIONS.md`.

use pwrel_serve::{ServeConfig, Server};

const USAGE: &str = "\
pwrel-serve: PWRP/1 compression service over the pwrel codec registry

USAGE:
    pwrel-serve [FLAGS]

FLAGS (all take a value; defaults in parentheses):
    --addr <host:port>   listen address (127.0.0.1:9474; port 0 = ephemeral)
    --chunk-elems <n>    default elements per PWS1 chunk, 0 = auto (0)
    --inflight <n>       global cap on concurrent heavy requests (8)
    --max-conns <n>      cap on open connections (64)
    --quota <bytes>      per-connection request-byte quota, 0 = off (1 GiB)
    --max-elems <n>      per-request element cap (2^28)
    --timeout-ms <ms>    socket read/write timeout (10000)

The wire protocol is specified in PROTOCOL.md; the runbook (metrics
glossary, triage for busy/quota/timeout) is in OPERATIONS.md.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let cfg = match ServeConfig::from_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("pwrel-serve: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("pwrel-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    if let Ok(addr) = server.local_addr() {
        println!("pwrel-serve listening on {addr}");
    }
    if let Err(e) = server.run() {
        eprintln!("pwrel-serve: {e}");
        std::process::exit(1);
    }
}
