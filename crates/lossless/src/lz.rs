//! LZ77 hash-chain compressor — the workspace's gzip/DEFLATE stand-in.
//!
//! SZ's optional stage III pipes its entropy-coded stream through gzip. This
//! module provides the equivalent: greedy LZ77 with a 32 KiB window and
//! hash-chain match finding, followed by a canonical-Huffman pass over the
//! token bytes. A stored-mode fallback guarantees incompressible input
//! expands by only a few bytes.
//!
//! Token format (before the Huffman pass), repeated until the input ends:
//! `uvarint literal_run_len`, that many literal bytes, then — unless the
//! input is exhausted — `uvarint (match_len - MIN_MATCH)` and
//! `uvarint (distance - 1)`. No encoder has emitted a match longer than
//! `MAX_MATCH`, and the decoder rejects one: it would let a few token
//! bytes demand up to the header's whole raw length in output.
//!
//! # Match finder
//!
//! The tokens are defined by a plain greedy walk: at each position, follow
//! the hash chain of its 4-byte word through at most `MAX_CHAIN`
//! candidates within `WINDOW` bytes, and keep the first longest match.
//! The encoder emits exactly those tokens, but skips work whose outcome is
//! already known:
//!
//! * **Window filter.** Two bitsets, indexed by a second hash of the
//!   4-byte word, mark the words at the positions of the current
//!   `WINDOW`-aligned block and of the block before it. Every window
//!   `[i − WINDOW, i)` lies in those two blocks, and equal words hash
//!   equally, so a word that is not marked occurs nowhere in the window:
//!   the walk could only meet hash collisions and would end in a literal,
//!   so it is skipped. Each word sets two bits of one 64-bit bitset word,
//!   which cuts false alarms about threefold at no extra memory traffic.
//!   Every position still enters the chains, so the chains — and the
//!   `MAX_CHAIN` cutoff, which counts colliding candidates too — are the
//!   walk's own. On Huffman-coded input most positions take this exit.
//! * **Candidate pre-check.** A candidate whose first 4 bytes differ
//!   matches fewer than `MIN_MATCH` bytes: it can neither become the
//!   match nor end the walk early, so it is not extended.
//! * **Word-wise extension.** A true match is extended 8 bytes at a time;
//!   the first differing byte is the lowest set byte of the XOR, which
//!   gives the same length as a byte loop.
//! * **Ring of chain links.** `prev` keeps one slot per window position
//!   instead of one per input byte. The walk only reads the link of a
//!   candidate `c ≥ i − WINDOW`, and the slot it shares is next written by
//!   position `c + WINDOW ≥ i`, which is not inserted yet.
//!
//! The filter runs at every input size, because it is exact at any size:
//! a false alarm only costs the walk the plain encoder would have made.
//! Its bitsets hold one word pair per four positions of `min(n, WINDOW)`
//! (at least 64 pairs), so short inputs, such as the samples SZ's
//! `worth_lz_pass` trial-compresses, get it too, and an input of 32 KiB
//! or more gets 8,192 pairs (128 KiB). The encode's scratch is then the
//! chain heads, 8 bytes of ring and 4 of filter per window position.
//!
//! The Huffman pass over the tokens is skipped when it cannot win:
//! `huffman::encoded_len_lower_bound` bounds its output from the token
//! byte histogram, and when that bound already reaches the token or input
//! length the trial could not have been chosen.

use crate::huffman;
use pwrel_bitstream::{varint, Error, Result};

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1 << 16;
/// Upper bound on hash-chain probes per position (gzip's "good" level).
const MAX_CHAIN: usize = 64;
const HASH_BITS: u32 = 15;

/// Container modes.
const MODE_STORED: u8 = 0;
const MODE_TOKENS: u8 = 1;
const MODE_TOKENS_HUFF: u8 = 2;

/// The little-endian 4-byte word at `i`.
#[inline]
fn word4(data: &[u8], i: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&data[i..i + 4]);
    u32::from_le_bytes(w)
}

/// Number of leading bytes on which `data[a..]` and `data[b..]` agree, up
/// to `max`. Needs `a < b` and `b + max <= data.len()`.
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let load = |p: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&data[p..p + 8]);
        u64::from_le_bytes(w)
    };
    let mut l = 0usize;
    while l + 8 <= max {
        let diff = load(a + l) ^ load(b + l);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// Hash chains over every position inserted so far.
struct Chains {
    head: Vec<usize>,
    /// Chain links, one slot per window position (`p % WINDOW`).
    prev: Vec<usize>,
}

impl Chains {
    /// Empty chains for an `n`-byte input.
    fn for_input(n: usize) -> Self {
        Self {
            head: vec![usize::MAX; 1 << HASH_BITS],
            prev: vec![usize::MAX; n.min(WINDOW)],
        }
    }

    /// The chain bucket of a 4-byte word.
    #[inline]
    fn bucket(word: u32) -> usize {
        (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    /// Links position `p`, which holds `word`, into its chain.
    #[inline]
    fn insert(&mut self, p: usize, word: u32) {
        let h = Self::bucket(word);
        self.prev[p % WINDOW] = self.head[h];
        self.head[h] = p;
    }

    /// The greedy walk's match at position `i`, which holds `word`, as
    /// `(length, distance)`; a length below `MIN_MATCH` means a literal.
    fn longest_match(&self, input: &[u8], i: usize, word: u32) -> (usize, usize) {
        let max_len = (input.len() - i).min(MAX_MATCH);
        let mut candidate = self.head[Self::bucket(word)];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut chain = 0usize;
        while candidate != usize::MAX && i - candidate <= WINDOW && chain < MAX_CHAIN {
            if word4(input, candidate) == word {
                let l = MIN_MATCH
                    + common_prefix(
                        input,
                        candidate + MIN_MATCH,
                        i + MIN_MATCH,
                        max_len - MIN_MATCH,
                    );
                if l > best_len {
                    best_len = l;
                    best_dist = i - candidate;
                    if l >= max_len {
                        break;
                    }
                }
            }
            candidate = self.prev[candidate % WINDOW];
            chain += 1;
        }
        (best_len, best_dist)
    }
}

/// Which words the positions of the current `WINDOW`-aligned block and of
/// the block before it hold, up to hash collisions (see the module doc).
struct WindowFilter {
    /// Bitset word pairs, a power of two of them: slot `b % 2` of each
    /// pair belongs to block `b`.
    bits: Vec<[u64; 2]>,
    /// `64 − log2(bits.len())`: a hash shifted right by it picks a pair.
    shift: u32,
    block: usize,
    /// First position past the current block.
    block_end: usize,
}

impl WindowFilter {
    /// The filter for an `n`-byte input: one word pair per four window
    /// positions the input can fill, and at least 64.
    fn for_input(n: usize) -> Self {
        let pairs = (n.min(WINDOW) / 4).max(64).next_power_of_two();
        Self {
            bits: vec![[0; 2]; pairs],
            shift: 64 - pairs.trailing_zeros(),
            block: 0,
            block_end: WINDOW,
        }
    }

    /// Marks that position `p` holds `word`, and returns whether a
    /// position marked earlier in this block or the one before may hold it
    /// too.
    #[inline]
    fn mark(&mut self, p: usize, word: u32) -> bool {
        while p >= self.block_end {
            self.block += 1;
            self.block_end += WINDOW;
            let slot = self.block % 2;
            for pair in &mut self.bits {
                pair[slot] = 0;
            }
        }
        // A second hash, independent of the chain bucket: the top bits of
        // a 64-bit product pick the bitset word, two 6-bit fields from its
        // upper half the two bits.
        let x = (word as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mask = 1u64 << (x >> 32 & 63) | 1u64 << (x >> 38 & 63);
        let pair = &mut self.bits[(x >> self.shift) as usize];
        let seen = (pair[0] | pair[1]) & mask == mask;
        pair[self.block % 2] |= mask;
        seen
    }
}

/// Produces the raw LZ77 token stream for `input`.
fn tokenize(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n < MIN_MATCH {
        varint::write_uvarint(&mut out, n as u64);
        out.extend_from_slice(input);
        return out;
    }

    let mut chains = Chains::for_input(n);
    let mut filter = WindowFilter::for_input(n);
    let mut i = 0usize;
    let mut lit_start = 0usize;

    while i + MIN_MATCH <= n {
        let word = word4(input, i);
        let (best_len, best_dist) = if filter.mark(i, word) {
            chains.longest_match(input, i, word)
        } else {
            (0, 0)
        };
        chains.insert(i, word);
        if best_len < MIN_MATCH {
            i += 1;
            continue;
        }

        // Flush pending literals, then the match.
        varint::write_uvarint(&mut out, (i - lit_start) as u64);
        out.extend_from_slice(&input[lit_start..i]);
        varint::write_uvarint(&mut out, (best_len - MIN_MATCH) as u64);
        varint::write_uvarint(&mut out, (best_dist - 1) as u64);
        // Insert the rest of the covered positions, stopping where a 4-byte
        // word no longer fits, then jump past the whole match.
        let match_end = i + best_len;
        let insert_end = match_end.min(n - (MIN_MATCH - 1));
        for p in i + 1..insert_end {
            let word = word4(input, p);
            chains.insert(p, word);
            filter.mark(p, word);
        }
        i = match_end;
        lit_start = i;
    }

    // Trailing literals.
    varint::write_uvarint(&mut out, (n - lit_start) as u64);
    out.extend_from_slice(&input[lit_start..]);
    out
}

/// Preallocation cap for [`detokenize`]: the claimed output length is
/// header data, so the upfront reservation is bounded and the vector
/// only grows past it as actual decoded bytes accumulate (an attacker
/// must pay stream bytes for every further doubling).
const MAX_PREALLOC: usize = 1 << 20;

/// Decodes the raw token stream into `expected_len` bytes.
fn detokenize(tokens: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    let mut out: Vec<u8> = Vec::with_capacity(expected_len.min(MAX_PREALLOC));
    let mut pos = 0usize;
    while out.len() < expected_len {
        let lit_len = varint::read_uvarint(tokens, &mut pos)? as usize;
        let end = pos.checked_add(lit_len).ok_or(Error::UnexpectedEof)?;
        // `expected_len - out.len()` is the remaining budget; the loop
        // condition guarantees the subtraction (phrasing the checks this
        // way also keeps hostile lengths from overflowing the additions).
        if lit_len > expected_len - out.len() {
            return Err(Error::UnexpectedEof);
        }
        out.extend_from_slice(tokens.get(pos..end).ok_or(Error::UnexpectedEof)?);
        pos = end;
        if out.len() == expected_len {
            break;
        }
        let match_len =
            (varint::read_uvarint(tokens, &mut pos)? as usize).saturating_add(MIN_MATCH);
        let dist = (varint::read_uvarint(tokens, &mut pos)? as usize).saturating_add(1);
        if dist > out.len() || match_len > MAX_MATCH || match_len > expected_len - out.len() {
            return Err(Error::InvalidValue("lz match out of range"));
        }
        let start = out.len() - dist;
        // Byte-by-byte copy: matches may overlap their own output. The
        // range is in bounds by the check above; `get` keeps the error
        // path panic-free instead of grandfathering an indexing site.
        for k in start..start + match_len {
            match out.get(k).copied() {
                Some(b) => out.push(b),
                None => return Err(Error::InvalidValue("lz match out of range")),
            }
        }
    }
    Ok(out)
}

/// Compresses `input`; never fails, and the output is at most
/// `input.len() + O(varint)` bytes thanks to the stored-mode fallback.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let tokens = tokenize(input);
    // The Huffman trial is kept only if shorter than both the tokens and
    // the input; it is not encoded when its lower bound rules that out.
    let limit = tokens.len().min(input.len());
    let mut freqs = [0u64; 256];
    for &b in &tokens {
        freqs[b as usize] += 1;
    }
    let huffed = (huffman::encoded_len_lower_bound(&freqs) < limit)
        .then(|| {
            huffman::encode_symbols(&tokens.iter().map(|&b| b as u32).collect::<Vec<_>>(), 256)
        })
        .filter(|h| h.len() < limit);

    let (mode, payload) = if let Some(huffed) = huffed {
        (MODE_TOKENS_HUFF, huffed)
    } else if tokens.len() < input.len() {
        (MODE_TOKENS, tokens)
    } else {
        (MODE_STORED, input.to_vec())
    };

    let mut out = Vec::with_capacity(payload.len() + 10);
    out.push(mode);
    varint::write_uvarint(&mut out, input.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Inverse of [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mode = *data.first().ok_or(Error::UnexpectedEof)?;
    let mut pos = 1usize;
    let raw_len = varint::read_uvarint(data, &mut pos)? as usize;
    match mode {
        MODE_STORED => {
            let end = pos.checked_add(raw_len).ok_or(Error::UnexpectedEof)?;
            Ok(data.get(pos..end).ok_or(Error::UnexpectedEof)?.to_vec())
        }
        MODE_TOKENS => detokenize(data.get(pos..).ok_or(Error::UnexpectedEof)?, raw_len),
        MODE_TOKENS_HUFF => {
            let syms = huffman::decode_symbols(data, &mut pos)?;
            // A forged table can declare symbols past the byte alphabet;
            // truncating them would smuggle a different token in.
            let tokens = syms
                .into_iter()
                .map(u8::try_from)
                .collect::<std::result::Result<Vec<u8>, _>>()
                .map_err(|_| Error::InvalidValue("lz token symbol out of byte range"))?;
            detokenize(&tokens, raw_len)
        }
        _ => Err(Error::InvalidValue("unknown lz container mode")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data, "len {}", data.len());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn highly_repetitive_input_compresses_hard() {
        let data = vec![42u8; 100_000];
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < 1000, "c.len() = {}", c.len());
    }

    #[test]
    fn periodic_pattern_compresses() {
        let data: Vec<u8> = (0..50_000).map(|i| ((i % 173) * 7) as u8).collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len() / 4, "c.len() = {}", c.len());
    }

    #[test]
    fn incompressible_input_barely_expands() {
        // Simple xorshift noise; stored mode must cap the expansion.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() <= data.len() + 16);
    }

    #[test]
    fn overlapping_match_copies() {
        // "abcabcabc..." forces dist=3 matches longer than the distance.
        let data: Vec<u8> = b"abc".iter().cycle().take(1000).copied().collect();
        round_trip(&data);
    }

    #[test]
    fn text_like_input() {
        let data = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog again!"
            .repeat(50);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len() / 5);
    }

    #[test]
    fn corrupt_mode_byte_is_error() {
        let c = compress(b"hello world hello world");
        let mut bad = c.clone();
        bad[0] = 99;
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn truncated_stream_is_error() {
        let data = vec![7u8; 5000];
        let c = compress(&data);
        assert!(decompress(&c[..c.len() / 2]).is_err());
    }
}
