//! `pwrel unpack` writes only inside its `-o` directory. An archive whose
//! field name is a relative escape (`../escaped`) or an absolute path is
//! refused as a whole, and no file appears outside the output directory.

use std::path::Path;
use std::process::Command;

fn pwrel(args: &[&str]) -> bool {
    Command::new(env!("CARGO_BIN_EXE_pwrel"))
        .args(args)
        .status()
        .expect("spawn pwrel")
        .success()
}

/// Packs a valid one-field archive under a placeholder name of
/// `name.len()` bytes, then patches the name in place, as a forger would.
fn forged_archive(dir: &Path, name: &str) -> String {
    let placeholder = "#".repeat(name.len());
    let input = dir.join(format!("{placeholder}.f32"));
    let data: Vec<u8> = (1..=256u32)
        .flat_map(|i| (i as f32 * 0.5).to_le_bytes())
        .collect();
    std::fs::write(&input, data).expect("write input");
    let archive = dir.join(format!("forged{}.pwa", name.len()));
    let spec = format!("{}:256", input.to_str().expect("utf-8 path"));
    let archive_str = archive.to_str().expect("utf-8 path");
    assert!(pwrel(&[
        "pack",
        "-o",
        archive_str,
        "--bound",
        "1e-2",
        &spec
    ]));
    std::fs::remove_file(&input).expect("remove input");

    let mut bytes = std::fs::read(&archive).expect("read archive");
    let at = bytes
        .windows(name.len())
        .position(|w| w == placeholder.as_bytes())
        .expect("placeholder in archive");
    bytes[at..at + name.len()].copy_from_slice(name.as_bytes());
    std::fs::write(&archive, bytes).expect("write forged archive");
    archive_str.to_string()
}

#[test]
fn unpack_refuses_names_that_leave_the_output_dir() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("unpack_paths");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = dir.join("out");
    let out_str = out.to_str().expect("utf-8 path");

    let absolute = dir.join("absolute");
    let absolute_name = absolute.to_str().expect("utf-8 path");
    for (name, target) in [
        ("../escaped", dir.join("escaped.f32")),
        (absolute_name, dir.join("absolute.f32")),
    ] {
        let archive = forged_archive(&dir, name);
        assert!(
            !pwrel(&["unpack", "-i", &archive, "-o", out_str]),
            "{name}: unpack must fail"
        );
        assert!(!target.exists(), "{name}: wrote {}", target.display());
    }
    // Nothing was written inside the output directory either.
    let written = std::fs::read_dir(&out).map_or(0, |d| d.count());
    assert_eq!(written, 0);
}
