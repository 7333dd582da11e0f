//! The live Huffman decoder still reads the single-stream format that
//! every version-1 stream carries. The live encoder writes only the
//! interleaved format, so these tests build single-stream buffers with
//! the frozen seed encoder (`pwrel_bench::baseline::seed_encode_symbols`).

use proptest::prelude::*;
use pwrel_bench::baseline::seed_encode_symbols;
use pwrel_bitstream::varint;
use pwrel_lossless::huffman::{decode_symbols, encode_symbols, lane_lengths};
use pwrel_lossless::Error;

fn mixed_symbols(n: usize) -> Vec<u32> {
    (0..n as u32).map(|i| (i * i + 7 * i) % 300).collect()
}

/// Decodes a whole buffer, checking that the decoder consumed all of it.
fn decode_whole(buf: &[u8]) -> Vec<u32> {
    let mut pos = 0;
    let syms = decode_symbols(buf, &mut pos).unwrap();
    assert_eq!(pos, buf.len());
    syms
}

#[test]
fn interleaved_and_single_modes_decode_identically() {
    for n in [0usize, 1, 2, 3, 4, 5, 63, 64, 1000, 20_000] {
        let syms = mixed_symbols(n);
        assert_eq!(decode_whole(&encode_symbols(&syms, 512)), syms, "n={n}");
        assert_eq!(
            decode_whole(&seed_encode_symbols(&syms, 512)),
            syms,
            "n={n}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn huffman_single_and_interleaved_decode_agree(
        syms in prop::collection::vec(0u32..512, 0..8192)
    ) {
        // One decoder entry point reads both encodings of the same
        // symbols back identically.
        prop_assert_eq!(decode_whole(&seed_encode_symbols(&syms, 512)), syms.clone());
        prop_assert_eq!(decode_whole(&encode_symbols(&syms, 512)), syms);
    }
}

#[test]
fn hostile_symbol_count_is_rejected_before_allocation() {
    let syms: Vec<u32> = (0..64).map(|i| i % 16).collect();
    let buf = seed_encode_symbols(&syms, 16);
    // Single-stream layout: the table (alphabet size, used-symbol count,
    // then a symbol delta and a code length per used symbol), the symbol
    // count, the payload length and the payload.
    let mut pos = 0;
    let _alphabet = varint::read_uvarint(&buf, &mut pos).unwrap();
    let used = varint::read_uvarint(&buf, &mut pos).unwrap();
    for _ in 0..2 * used {
        varint::read_uvarint(&buf, &mut pos).unwrap();
    }
    let table = &buf[..pos];
    let _n = varint::read_uvarint(&buf, &mut pos).unwrap();
    let payload_len = varint::read_uvarint(&buf, &mut pos).unwrap();
    let payload = &buf[pos..];
    assert_eq!(payload.len() as u64, payload_len);

    // Re-serialize with an absurd declared count: the payload is now far
    // too short for it.
    let mut forged = table.to_vec();
    varint::write_uvarint(&mut forged, u64::from(u32::MAX));
    varint::write_uvarint(&mut forged, payload_len);
    forged.extend_from_slice(payload);
    assert_eq!(
        decode_symbols(&forged, &mut 0),
        Err(Error::InvalidValue("symbol count exceeds payload bits"))
    );
}

#[test]
fn lane_lengths_probe() {
    let syms = mixed_symbols(4096);
    assert!(lane_lengths(&encode_symbols(&syms, 512)).is_some());
    assert_eq!(lane_lengths(&seed_encode_symbols(&syms, 512)), None);
}
