//! Decoded values, pinned bit for bit.
//!
//! `golden_streams.rs` pins the *bytes* the encoders write and checks that
//! decoded fixtures stay inside the bound. A decoder change that moves a
//! decoded value while staying inside the bound would pass it. This test
//! closes that gap: it decodes every committed fixture (legacy and `_v2`)
//! and compares an FNV-1a 64-bit digest of each output's little-endian
//! bytes with `tests/fixtures/decoded_digests.txt`.
//!
//! The 240-value fixtures are too small to reach two decoder paths: their
//! Huffman codes all fit the decode lookup table, and their SZ streams
//! carry no unpredictable escapes. So the test also round-trips the Medium
//! (64³) `dark_matter_density` field through every registered codec at
//! b_r = 1e-3. There, the longest Huffman codes run past the lookup table,
//! escapes do occur, and every bit writer call site (the ZFP plane coder,
//! fpzip's residuals, ISABELA's permutation stream) writes hundreds of
//! kilobytes. One more cell runs zfp_t on the signed Medium `velocity_x`
//! field, so the sign bitmap's RLE packer is pinned as well. Every cell
//! pins the compressed stream's digest too, so a mismatch says which side
//! moved.
//!
//! The committed digests were produced by the decoder the fixtures were
//! written for. Regenerate them only after an intentional format change,
//! together with the fixtures:
//!
//! ```text
//! PWREL_REGEN_FIXTURES=1 cargo test --test decoded_digests
//! ```

use pwrel::data::nyx;
use pwrel::data::{Dims, Scale};
use pwrel::pipeline::{global, CompressOpts};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn f32_digest(values: &[f32]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_le_bytes()))
}

fn f64_digest(values: &[f64]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_le_bytes()))
}

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The fixture shapes, one per rank (as in `golden_streams.rs`).
fn shapes() -> [Dims; 3] {
    [Dims::d1(240), Dims::d2(16, 15), Dims::d3(6, 8, 5)]
}

/// Decodes one fixture through the registry and digests the values.
fn fixture_digest(name: &str, elem: &str, dims: Dims) -> u64 {
    let bytes = std::fs::read(fixtures_dir().join(name))
        .unwrap_or_else(|e| panic!("missing fixture {name} ({e})"));
    let (digest, got) = match elem {
        "f32" => {
            let (d, got) = global()
                .decompress::<f32>(&bytes)
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
            (f32_digest(&d), got)
        }
        _ => {
            let (d, got) = global()
                .decompress::<f64>(&bytes)
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
            (f64_digest(&d), got)
        }
    };
    assert_eq!(got, dims, "{name}");
    digest
}

/// Every digest this test computes, keyed by a stable cell name.
fn current_digests() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let codecs: Vec<&str> = global().iter().map(|c| c.name()).collect();
    for codec in &codecs {
        for elem in ["f32", "f64"] {
            for dims in shapes() {
                for suffix in ["", "_v2"] {
                    let name = format!("{codec}_{elem}_{}d{suffix}.bin", dims.rank());
                    let digest = fixture_digest(&name, elem, dims);
                    out.insert(name, digest);
                }
            }
        }
    }

    let density = nyx::dark_matter_density(Scale::Medium);
    let velocity = nyx::velocity_x(Scale::Medium);
    let cells = [
        ("sz_t", &density, "medium_sz_t"),
        ("sz_hybrid_t", &density, "medium_sz_hybrid_t"),
        ("sz_abs", &density, "medium_sz_abs"),
        ("sz_pwr", &density, "medium_sz_pwr"),
        ("zfp_t", &density, "medium_zfp_t"),
        ("zfp_p", &density, "medium_zfp_p"),
        ("fpzip", &density, "medium_fpzip"),
        ("isabela", &density, "medium_isabela"),
        ("zfp_t", &velocity, "medium_velocity_x_zfp_t"),
    ];
    let opts = CompressOpts::rel(1e-3);
    for (codec, field, cell) in cells {
        let stream = global()
            .compress(codec, &field.data, field.dims, &opts)
            .unwrap_or_else(|e| panic!("{cell} compress: {e:?}"));
        let (dec, got) = global()
            .decompress::<f32>(&stream)
            .unwrap_or_else(|e| panic!("{cell} decode: {e:?}"));
        assert_eq!(got, field.dims, "{cell}");
        out.insert(format!("{cell}.stream"), fnv1a(stream));
        out.insert(format!("{cell}.decoded"), f32_digest(&dec));
    }
    out
}

fn parse(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l
                .split_once(' ')
                .unwrap_or_else(|| panic!("malformed digest line {l:?}"));
            let digest = u64::from_str_radix(hex.trim(), 16)
                .unwrap_or_else(|e| panic!("malformed digest in {l:?}: {e}"));
            (name.to_string(), digest)
        })
        .collect()
}

#[test]
fn decoded_values_match_the_committed_digests() {
    let path = fixtures_dir().join("decoded_digests.txt");
    let current = current_digests();
    if std::env::var("PWREL_REGEN_FIXTURES").is_ok() {
        let mut text = String::from(
            "# FNV-1a 64 of each decoded output's little-endian bytes; \
             see tests/decoded_digests.rs.\n",
        );
        for (name, digest) in &current {
            text.push_str(&format!("{name} {digest:016x}\n"));
        }
        std::fs::write(&path, text).unwrap();
        return;
    }
    let committed = parse(
        &std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing {path:?} ({e}); run with PWREL_REGEN_FIXTURES=1")),
    );
    let moved: Vec<String> = current
        .iter()
        .filter(|(name, d)| committed.get(*name) != Some(d))
        .map(|(name, d)| format!("{name}: {d:016x} vs {:016x?}", committed.get(name)))
        .collect();
    assert!(
        moved.is_empty(),
        "decoded digests moved:\n{}",
        moved.join("\n")
    );
    assert_eq!(
        committed.keys().collect::<Vec<_>>(),
        current.keys().collect::<Vec<_>>(),
        "digest file and test cells disagree"
    );
}
