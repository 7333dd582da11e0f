//! CLI driver for the workspace audit. Exit code 1 on any active
//! (non-allowlisted, non-waived) finding or stale allowlist entry.

#![forbid(unsafe_code)]

use pwrel_audit::{report, Config, RunOutput};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    // One literal per line: a `\` line continuation would also strip the
    // next line's indentation.
    eprint!(concat!(
        "usage: cargo run -p pwrel-audit [--] [options]\n",
        "\n",
        "options:\n",
        "  --root <dir>          workspace root (default: auto-detected)\n",
        "  --json <file>         write the machine-readable report\n",
        "  --stale               check only for stale allowlist keys; print\n",
        "                        them and fail if any exist\n",
        "  --update-allowlist    rewrite audit.allow from current findings\n",
        "  --verbose             itemize allowlisted/waived findings too\n",
    ));
    std::process::exit(2);
}

fn main() -> ExitCode {
    // `cargo run -p pwrel-audit` sets CARGO_MANIFEST_DIR to crates/audit;
    // the workspace root is two levels up.
    let default_root = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(|d| {
            PathBuf::from(d)
                .join("../..")
                .canonicalize()
                .unwrap_or_else(|_| PathBuf::from("."))
        })
        .unwrap_or_else(|| PathBuf::from("."));
    let mut cfg = Config::new(default_root);
    let mut stale_only = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(r) => {
                    cfg.root = PathBuf::from(r);
                    cfg.allowlist = cfg.root.join("audit.allow");
                }
                None => usage(),
            },
            "--json" => match args.next() {
                Some(j) => cfg.json = Some(PathBuf::from(j)),
                None => usage(),
            },
            "--stale" => stale_only = true,
            "--update-allowlist" => cfg.update_allowlist = true,
            "--verbose" => cfg.verbose = true,
            _ => usage(),
        }
    }

    // L4 enumerates the live registry, so the lint tracks
    // `CodecRegistry::builtin` with zero parsing drift.
    let codecs: Vec<String> = pwrel_pipeline::registry::global()
        .iter()
        .map(|c| c.name().to_string())
        .collect();

    let RunOutput { findings, stale } = match pwrel_audit::run(&cfg, &codecs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("audit: I/O error: {e}");
            return ExitCode::from(2);
        }
    };

    if stale_only {
        // Focused CI mode: report only dead allowlist keys.
        for key in &stale {
            println!("stale: {key}");
        }
        println!(
            "audit --stale: {} stale allowlist key(s) out of scope for current findings",
            stale.len()
        );
        return if stale.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    print!("{}", report::render_text(&findings, cfg.verbose));
    let (active, _, _) = report::counts(&findings);
    if !stale.is_empty() {
        eprintln!(
            "audit: {} stale allowlist entr{} — the allowlist only \
             shrinks; delete them (or run with --update-allowlist)",
            stale.len(),
            if stale.len() == 1 { "y" } else { "ies" }
        );
    }
    if active > 0 || !stale.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
