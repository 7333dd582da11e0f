//! `huffman::encode_symbols` against the format's definition, with no
//! fixture involved: the table is the canonical code of the symbols' dense
//! histogram, the descriptor's lane lengths are the lengths of the payload
//! slices that follow it, and sub-stream `j` is exactly what
//! `CanonicalCode::encode_all` writes for the symbols at positions
//! `i % LANES == j`.

use proptest::prelude::*;
use pwrel_bitstream::{varint, BitWriter};
use pwrel_lossless::huffman::{self, CanonicalCode, LANES};

/// Checks one buffer against the definition; returns the longest code.
fn check(symbols: &[u32], alphabet: usize) -> u32 {
    let buf = huffman::encode_symbols(symbols, alphabet);
    let mut pos = 0;
    assert_eq!(varint::read_uvarint(&buf, &mut pos).unwrap(), (1 << 29) | 4);

    let mut freqs = vec![0u64; alphabet];
    for &s in symbols {
        freqs[s as usize] += 1;
    }
    let lens = huffman::code_lengths(&freqs);
    let code = CanonicalCode::from_lengths(&lens);
    let table_start = pos;
    let mut table = Vec::new();
    code.serialize(&mut table);
    assert_eq!(&buf[table_start..table_start + table.len()], &table[..]);
    CanonicalCode::deserialize(&buf, &mut pos).unwrap();
    assert_eq!(pos, table_start + table.len());

    let mut field = || varint::read_uvarint(&buf, &mut pos).unwrap();
    assert_eq!(field(), symbols.len() as u64);
    let payload_len = field();
    let counts: Vec<u64> = (0..LANES).map(|_| field()).collect();
    let lane_lens: Vec<u64> = (0..LANES).map(|_| field()).collect();
    assert_eq!(lane_lens.iter().sum::<u64>(), payload_len);
    assert_eq!(pos as u64 + payload_len, buf.len() as u64, "trailing bytes");

    for lane in 0..LANES {
        let lane_syms: Vec<u32> = symbols.iter().skip(lane).step_by(LANES).copied().collect();
        assert_eq!(counts[lane], lane_syms.len() as u64);
        let mut w = BitWriter::new();
        code.encode_all(&mut w, &lane_syms);
        let want = w.into_bytes();
        let got = &buf[pos..pos + lane_lens[lane] as usize];
        assert!(
            got == &want[..],
            "lane {lane} of {} symbols differs from encode_all",
            symbols.len()
        );
        pos += got.len();
    }
    lens.into_iter().max().unwrap_or(0)
}

/// Deterministic xorshift stream.
struct Noise(u64);

impl Noise {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// `n` symbols below `alphabet`, skewed towards small values (the
/// product of two uniform draws), so code lengths spread widely.
fn skewed(n: usize, alphabet: u64, seed: u64) -> Vec<u32> {
    let mut noise = Noise(seed | 1);
    (0..n)
        .map(|_| ((noise.next() % alphabet) * (noise.next() % alphabet) / alphabet) as u32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lanes_are_encode_all_over_their_subsequences(
        n in 0usize..4100,
        alphabet in prop_oneof![2u64..300, Just(1u64 << 16)],
        seed in any::<u64>(),
    ) {
        check(&skewed(n, alphabet, seed), alphabet as usize);
    }

    #[test]
    fn single_symbol_codes(n in 0usize..4100, symbol in 0u32..1 << 16) {
        check(&vec![symbol; n], 1 << 16);
    }
}

#[test]
fn every_length_up_to_a_few_rounds() {
    for n in 0..=64 {
        check(&skewed(n, 40, n as u64), 40);
        check(&vec![3; n], 4);
    }
}

#[test]
fn codes_longer_than_28_bits_take_one_store_each() {
    // Fibonacci frequencies make the deepest Huffman tree: over 31
    // symbols, codes reach 30 bits, so only one fits the emit's 56 bits.
    let mut fib = vec![1u64, 1];
    while fib.len() < 31 {
        fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
    }
    let mut symbols: Vec<u32> = fib
        .iter()
        .enumerate()
        .flat_map(|(s, &f)| std::iter::repeat_n(s as u32, f as usize))
        .collect();
    // Deterministic shuffle, so every lane sees every code length.
    let mut noise = Noise(0xF1B);
    for i in (1..symbols.len()).rev() {
        symbols.swap(i, (noise.next() % (i as u64 + 1)) as usize);
    }
    assert!(symbols.len() > 3_500_000);
    assert!(check(&symbols, 31) > 28);
}
