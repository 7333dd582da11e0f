//! The live LZ encoder (`pwrel_lossless::lz::compress`) emits exactly the
//! bytes of the frozen seed encoder (`pwrel_bench::baseline::seed_lz_compress`),
//! and every stream round-trips.
//!
//! The inputs aim at each shortcut the live match finder takes: random
//! bytes and short inputs; tiny alphabets, whose chains run past the probe
//! cap; runs longer than the longest match; repeats at distances just
//! inside, at and just past the window edge, including repeats whose only
//! earlier copy sits in the previous window-aligned block; inputs spanning
//! three or more blocks; and the SZ_T chunk payloads and sign sections the
//! codecs actually hand the pass.

use proptest::prelude::*;
use pwrel_bench::baseline::seed_lz_compress;
use pwrel_bench::sz_t_lz_inputs;
use pwrel_data::{nyx, Scale};
use pwrel_lossless::{lz, rle};

/// The encoder's window and longest match (format constants).
const WINDOW: usize = 32 * 1024;
const MAX_MATCH: usize = 1 << 16;

fn check(input: &[u8]) {
    let live = lz::compress(input);
    assert!(
        live == seed_lz_compress(input),
        "live encoder diverged from the seed on {} bytes",
        input.len()
    );
    assert_eq!(lz::decompress(&live).unwrap(), input);
}

/// Deterministic xorshift byte source.
struct Noise(u64);

impl Noise {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn bytes(&mut self, n: usize, alphabet: u64) -> Vec<u8> {
        (0..n).map(|_| (self.next() % alphabet) as u8).collect()
    }
}

/// One step of a generated input: fresh bytes, or a copy of earlier output.
#[derive(Debug, Clone)]
enum Op {
    /// `len` bytes drawn from the first `alphabet` byte values.
    Fresh {
        len: usize,
        alphabet: u64,
        seed: u64,
    },
    /// `len` bytes copied from `dist` back (overlapping allowed).
    Copy { dist: usize, len: usize },
}

fn build(ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::new();
    for op in ops {
        match *op {
            Op::Fresh {
                len,
                alphabet,
                seed,
            } => {
                out.extend(Noise(seed | 1).bytes(len, alphabet));
            }
            Op::Copy { dist, len } => {
                if dist <= out.len() {
                    for _ in 0..len {
                        out.push(out[out.len() - dist]);
                    }
                }
            }
        }
    }
    out
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let fresh = (
        1usize..4000,
        prop_oneof![Just(2u64), Just(5), Just(256)],
        any::<u64>(),
    )
        .prop_map(|(len, alphabet, seed)| Op::Fresh {
            len,
            alphabet,
            seed,
        });
    let dist = prop_oneof![1usize..64, WINDOW - 2..WINDOW + 3, 1usize..WINDOW + 100,];
    let copy = (dist, 1usize..3000).prop_map(|(dist, len)| Op::Copy { dist, len });
    prop_oneof![fresh, copy]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bytes_match_the_seed(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let live = lz::compress(&data);
        prop_assert_eq!(&live, &seed_lz_compress(&data));
        prop_assert_eq!(lz::decompress(&live).unwrap(), data);
    }

    #[test]
    fn short_inputs_match_the_seed(data in prop::collection::vec(0u8..3, 0..9)) {
        let live = lz::compress(&data);
        prop_assert_eq!(&live, &seed_lz_compress(&data));
        prop_assert_eq!(lz::decompress(&live).unwrap(), data);
    }

    // Literal stretches and back-references mixed at random, reaching
    // past the window and across block boundaries.
    #[test]
    fn generated_repeats_match_the_seed(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let data = build(&ops);
        let live = lz::compress(&data);
        prop_assert_eq!(&live, &seed_lz_compress(&data));
        prop_assert_eq!(lz::decompress(&live).unwrap(), data);
    }
}

#[test]
fn every_input_up_to_eight_bytes_over_two_symbols() {
    for len in 0..=8usize {
        for bits in 0..1u32 << len {
            let data: Vec<u8> = (0..len).map(|k| b'a' + (bits >> k & 1) as u8).collect();
            check(&data);
        }
    }
}

#[test]
fn tiny_alphabets_chain_past_the_probe_cap() {
    // Over 1–4 symbols every 4-byte word recurs hundreds of times inside
    // the window, so walks stop at the probe cap, not at the window edge.
    let mut noise = Noise(0x5EED);
    for alphabet in 1..=4u64 {
        check(&noise.bytes(3 * WINDOW + 123, alphabet));
        check(&noise.bytes(20_000, alphabet));
    }
}

#[test]
fn runs_longer_than_the_longest_match() {
    let mut noise = Noise(0xACE);
    for run in [MAX_MATCH - 1, MAX_MATCH, MAX_MATCH + 1, 3 * MAX_MATCH + 5] {
        let mut data = noise.bytes(1000, 256);
        data.extend(std::iter::repeat_n(0x55, run));
        data.extend(noise.bytes(1000, 256));
        data.extend(std::iter::repeat_n(0x55, run));
        check(&data);
    }
}

#[test]
fn repeats_at_the_window_edge() {
    // A random stretch planted twice at distance WINDOW-1, WINDOW and
    // WINDOW+1 in otherwise unrepeated bytes. The first copy starts at
    // several offsets, so the second copy lands in the same, the next or
    // the one-after-next window-aligned block, in inputs of two and of
    // four blocks.
    let mut noise = Noise(0xD15);
    for total in [40_000usize, 120_000] {
        for dist in [WINDOW - 1, WINDOW, WINDOW + 1] {
            for first in [0usize, 1000, WINDOW - 50, WINDOW + 7] {
                if first + dist + 300 > total {
                    continue;
                }
                let mut data = noise.bytes(total, 256);
                let planted = noise.bytes(300, 256);
                data[first..first + 300].copy_from_slice(&planted);
                data[first + dist..first + dist + 300].copy_from_slice(&planted);
                check(&data);
            }
        }
    }
}

#[test]
fn periods_around_the_window_over_several_blocks() {
    let mut noise = Noise(0xB10C);
    for period in [WINDOW - 1, WINDOW, WINDOW + 1] {
        let pattern = noise.bytes(period, 256);
        let data: Vec<u8> = pattern
            .iter()
            .cycle()
            .take(4 * period + 17)
            .copied()
            .collect();
        check(&data);
    }
}

#[test]
fn sizes_where_the_window_filter_changes_shape_match_the_seed() {
    // The filter holds one bitset word pair per four positions of
    // min(n, WINDOW), at least 64 and rounded up to a power of two; 48 Ki
    // is where it used to start.
    let mut noise = Noise(0x5123);
    for size in [64usize, 256, 4 << 10, 16 << 10, WINDOW, 48 << 10] {
        for n in [size - 1, size, size + 1] {
            check(&noise.bytes(n, 4));
            check(&noise.bytes(n, 256));
        }
    }
}

#[test]
fn worth_lz_pass_samples_match_the_seed() {
    // The head, middle and tail regions of 21,845 bytes that pwrel-sz's
    // `worth_lz_pass` trial-compresses out of a one-shot SZ_T payload.
    let payload = &sz_t_lz_inputs(&nyx::dark_matter_density(Scale::Medium), 1)[0];
    let part = 64 * 1024 / 3;
    assert!(payload.len() > 2 * 64 * 1024, "payload too short to sample");
    let mid = payload.len() / 2 - part / 2;
    for region in [
        &payload[..part],
        &payload[mid..mid + part],
        &payload[payload.len() - part..],
    ] {
        check(region);
    }
}

#[test]
fn sz_t_chunk_payloads_match_the_seed() {
    // Serve's cut (4 slabs of a 64³ density field), the one-shot payload
    // (1 slab), and a small field.
    let medium = nyx::dark_matter_density(Scale::Medium);
    for chunks in [4, 1] {
        for payload in sz_t_lz_inputs(&medium, chunks) {
            check(&payload);
        }
    }
    for payload in sz_t_lz_inputs(&nyx::dark_matter_density(Scale::Small), 4) {
        check(&payload);
    }
}

#[test]
fn velocity_sign_sections_match_the_seed() {
    // The sign bitmap of a signed field, run-length coded, is the other
    // input the codecs give the pass.
    let field = nyx::velocity_x(Scale::Medium);
    let signs: Vec<bool> = field.data.iter().map(|x| x.is_sign_negative()).collect();
    for part in signs.chunks(signs.len() / 4) {
        check(&rle::compress_bits(part));
    }
}
