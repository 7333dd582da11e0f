//! Property tests: the word-based accumulator engine agrees with the
//! frozen seed byte-at-a-time engine (`pwrel_bench::baseline`) on random
//! write programs — the same `bit_len` after every write, byte-identical
//! output streams, identical read-back, including the LSB-first ZFP paths
//! and peek/skip sequences.

use proptest::prelude::*;
use pwrel_bench::baseline::{SeedBitReader, SeedBitWriter};
use pwrel_bitstream::{BitReader, BitWriter};

/// One write operation in a random program.
#[derive(Debug, Clone)]
enum Op {
    Bit(bool),
    Bits(u64, u32),
    BitsLsb(u64, u32),
    Align,
    /// Full 64-bit values back to back: one word store per value, each
    /// straddling the staged bits of the writes before it.
    Words(Vec<u64>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<bool>().prop_map(Op::Bit),
        4 => (any::<u64>(), 0u32..=64).prop_map(|(v, n)| Op::Bits(v, n)),
        4 => (any::<u64>(), 0u32..=64).prop_map(|(v, n)| Op::BitsLsb(v, n)),
        2 => Just(Op::Align),
        1 => prop::collection::vec(any::<u64>(), 64..201).prop_map(Op::Words),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The two writers agree on `bit_len` after every write and emit
    // byte-identical streams, and both readers recover the same values
    // from them. Writers start with no capacity, a few bytes, or plenty,
    // so the vector's growth lands inside word stores too.
    #[test]
    fn engines_agree_on_random_programs(
        ops in prop::collection::vec(op_strategy(), 0..200),
        capacity in prop_oneof![Just(0usize), 1usize..16, Just(1 << 16)],
    ) {
        let mut live = BitWriter::with_capacity(capacity);
        let mut seed = SeedBitWriter::with_capacity(capacity);
        for op in &ops {
            match op {
                &Op::Bit(b) => {
                    live.write_bit(b);
                    seed.write_bit(b);
                }
                &Op::Bits(v, n) => {
                    live.write_bits(v, n);
                    seed.write_bits(v, n);
                }
                &Op::BitsLsb(v, n) => {
                    live.write_bits_lsb(v, n);
                    seed.write_bits_lsb(v, n);
                }
                Op::Align => {
                    live.align_byte();
                    seed.align_byte();
                }
                Op::Words(words) => {
                    for &v in words {
                        live.write_bits(v, 64);
                        seed.write_bits(v, 64);
                        prop_assert_eq!(live.bit_len(), seed.bit_len());
                    }
                }
            }
            prop_assert_eq!(live.bit_len(), seed.bit_len());
        }
        let live_bytes = live.into_bytes();
        let seed_bytes = seed.into_bytes();
        prop_assert_eq!(&live_bytes, &seed_bytes);

        let mut lr = BitReader::new(&live_bytes);
        let mut sr = SeedBitReader::new(&seed_bytes);
        for op in &ops {
            match op {
                Op::Bit(_) => prop_assert_eq!(lr.read_bit().unwrap(), sr.read_bit().unwrap()),
                &Op::Bits(_, n) => {
                    prop_assert_eq!(lr.read_bits(n).unwrap(), sr.read_bits(n).unwrap());
                }
                &Op::BitsLsb(_, n) => {
                    prop_assert_eq!(lr.read_bits_lsb(n).unwrap(), sr.read_bits_lsb(n).unwrap());
                }
                Op::Words(words) => {
                    for &v in words {
                        prop_assert_eq!(lr.read_bits(64).unwrap(), v);
                        prop_assert_eq!(sr.read_bits(64).unwrap(), v);
                    }
                }
                Op::Align => {
                    lr.align_byte();
                    // Seed reader has no align; skip to the same boundary.
                    let off = (sr.bits_read() % 8) as u32;
                    if off > 0 {
                        sr.skip_bits(8 - off).unwrap();
                    }
                }
            }
            prop_assert_eq!(lr.bits_read(), sr.bits_read());
        }
    }

    // peek/skip walks agree between the engines (the live peek refills
    // from a single unaligned word load; the seed loops over bytes).
    #[test]
    fn peek_skip_walks_agree(
        bytes in prop::collection::vec(any::<u8>(), 1..64),
        widths in prop::collection::vec(1u32..=32, 1..64),
    ) {
        let mut lr = BitReader::new(&bytes);
        let mut sr = SeedBitReader::new(&bytes);
        for &n in &widths {
            if sr.bits_remaining() < n as u64 {
                prop_assert!(lr.peek_bits(n).is_err());
                break;
            }
            prop_assert_eq!(lr.peek_bits(n).unwrap(), sr.peek_bits(n).unwrap());
            // Peeking must not advance either cursor.
            prop_assert_eq!(lr.peek_bits(n).unwrap(), sr.peek_bits(n).unwrap());
            lr.skip_bits(n).unwrap();
            sr.skip_bits(n).unwrap();
            prop_assert_eq!(lr.bits_read(), sr.bits_read());
        }
    }
}
