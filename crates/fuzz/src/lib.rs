#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Fuzz targets for the workspace's decoder entry points.
//!
//! Each target takes raw bytes and drives one attacker-facing parse; the
//! only acceptable outcomes are `Ok` or a structured `CodecError` — any
//! panic, overflow or out-of-bounds access is a finding (audit lint L1
//! enforces the same property statically; these targets enforce it
//! dynamically). The functions are plain `fn(&[u8])` so three frontends
//! can share them: the in-tree `fuzz_smoke` binary (hermetic, mutation
//! over the golden-fixture corpus), the `fuzz/` cargo-fuzz scaffold
//! (libFuzzer, coverage-guided, CI-only), and Miri (via the unit tests
//! below).

use pwrel_bitstream::BitReader;
use pwrel_lossless::huffman;
use pwrel_pipeline::{global, identify};
use pwrel_zfp::nb;

/// The registry's one read path: header identification and full decode
/// of a `PWU1` container or a `PWS1` framed stream, at both element
/// types. Any other magic fails at once, so every input takes it.
pub fn fuzz_container_header(data: &[u8]) {
    let _ = identify(data);
    let _ = global().decompress::<f32>(data);
    let _ = global().decompress::<f64>(data);
}

/// Canonical Huffman table + symbol stream decoder.
pub fn fuzz_huffman_decode(data: &[u8]) {
    let mut pos = 0usize;
    if let Ok(symbols) = huffman::decode_symbols(data, &mut pos) {
        // A decoded stream must never claim more symbols than its bits
        // could encode (1 bit/symbol minimum after the table).
        assert!(symbols.len() <= data.len().saturating_mul(8));
    }
}

/// ZFP group-test bit-plane decoder, with the plane geometry drawn from
/// the first two input bytes so the fuzzer can explore every
/// (intprec, kmin) pair alongside the bitstream itself.
pub fn fuzz_zfp_planes(data: &[u8]) {
    let Some((&a, rest)) = data.split_first() else {
        return;
    };
    let Some((&b, rest)) = rest.split_first() else {
        return;
    };
    let intprec = u32::from(a % 64) + 1; // 1..=64
    let kmin = u32::from(b) % (intprec + 1); // 0..=intprec
    let mut coeffs = [0u64; 64];
    for size in [4usize, 16, 64] {
        let mut r = BitReader::new(rest);
        let _ = nb::decode_planes(&mut r, &mut coeffs[..size], intprec, kmin);
        coeffs.fill(0);
    }
}

/// All targets against one input — what the smoke binary iterates.
pub fn fuzz_all(data: &[u8]) {
    fuzz_container_header(data);
    fuzz_huffman_decode(data);
    fuzz_zfp_planes(data);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic micro-corpus so `cargo test` (and Miri) exercise
    /// every target without the fuzz harness.
    #[test]
    fn targets_survive_structured_garbage() {
        let mut inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"PWU1".to_vec(),
            b"PWU1\x01\x00\x20".to_vec(),
            b"PWS1\x02\x01\x20\x01".to_vec(),
            vec![0xFF; 64],
            (0..=255u8).collect(),
        ];
        // A valid container prefix with a corrupted tail.
        let mut forged = b"PWU1\x01\x03\x20\x01".to_vec();
        forged.extend_from_slice(&[0x80, 0x80, 0x80, 0x00, 0x55]);
        inputs.push(forged);
        for input in &inputs {
            fuzz_all(input);
            for cut in 0..input.len() {
                fuzz_all(&input[..cut]);
            }
        }
    }
}
