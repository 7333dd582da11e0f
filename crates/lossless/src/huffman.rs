//! Canonical Huffman coding over sparse `u32` symbol alphabets.
//!
//! SZ's stage-II entropy coder builds a Huffman tree over the linear-scaling
//! quantization codes actually present in a dataset (a tiny subset of the
//! nominal 2^16-code alphabet). We reproduce that with canonical codes:
//! only (symbol, code length) pairs are serialized, never the tree shape.
//!
//! Two packed-buffer modes share the serialized table format:
//!
//! * **Single-stream (legacy)** — one bit-stream of all symbols in order;
//!   every buffer written before the interleaved mode existed (the
//!   version-1 golden fixtures carry it). Only the decoder remains: it
//!   keeps accepting these buffers byte-for-byte, and the frozen seed
//!   encoder in `pwrel-bench` writes them for tests.
//! * **Interleaved** — the Huff0/zstd trick: symbols split round-robin
//!   into [`LANES`] independently addressable sub-streams, each encoded
//!   with the *same* canonical code. Per-symbol order within a sub-stream
//!   is the global order restricted to `i ≡ lane (mod LANES)`, so code
//!   assignment, table bytes, and total payload bits are unchanged; only
//!   the transport layout differs. The decoder runs [`LANES`] readers in
//!   one fused loop, so refill/LUT latency overlaps across lanes on one
//!   core.

use pwrel_bitstream::{varint, BitReader, BitWriter, Error, Result};
use pwrel_kernels::hist::LaneHistogram;

/// Maximum admissible code length. Frequencies are rescaled (halved,
/// rounding up so nonzero stays nonzero) until the tree fits; with 2^16
/// symbols this triggers only on adversarial distributions.
const MAX_CODE_LEN: u32 = 48;

/// Number of round-robin sub-streams in the interleaved packed mode:
/// symbol `i` of the original stream belongs to sub-stream `i % LANES`.
/// The histogram splits its count the same way (`HIST_LANES`, which the
/// per-lane count arrays tie to this constant by type), so its lanes are
/// these sub-streams.
pub const LANES: usize = 4;

/// Leading uvarint of an interleaved buffer. A legacy buffer starts with
/// its serialized table's alphabet size, which [`CanonicalCode::deserialize`]
/// rejects above `1 << 28` — so this value can never begin a valid legacy
/// stream, and a legacy decoder handed an interleaved buffer fails loudly
/// ("alphabet too large") instead of misparsing it.
const INTERLEAVED_MARKER: u64 = (1 << 29) | LANES as u64;

/// Number of symbols sub-stream `lane` holds out of `n` total.
#[inline]
fn lane_count(n: usize, lane: usize) -> usize {
    (n + LANES - 1 - lane) / LANES
}

/// Computes Huffman code lengths for `freqs` (index = symbol).
///
/// Returns a vector of lengths, zero for unused symbols. Lengths are
/// guaranteed ≤ `MAX_CODE_LEN` (48); a single used symbol gets length 1.
pub fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    let pairs: Vec<(u32, u64)> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(s, &f)| (s as u32, f))
        .collect();
    code_lengths_sparse(&pairs, freqs.len())
}

/// [`code_lengths`] over sparse `(symbol, frequency)` pairs (ascending
/// symbols, frequencies > 0) — the hot-path form: the work scales with the
/// number of *distinct* symbols, not the nominal alphabet.
pub fn code_lengths_sparse(pairs: &[(u32, u64)], alphabet: usize) -> Vec<u32> {
    let mut lens = vec![0u32; alphabet];
    for (s, l) in code_length_pairs(pairs, alphabet) {
        lens[s as usize] = l;
    }
    lens
}

/// [`code_lengths_sparse`] returning sparse ascending `(symbol, length)`
/// pairs instead of a dense table — the form the hot paths consume, so
/// per-call work never scans the nominal alphabet. `alphabet` only seeds
/// the internal-node id counter (tie-breaking), keeping the assigned
/// lengths identical to the dense variant's.
pub fn code_length_pairs(pairs: &[(u32, u64)], alphabet: usize) -> Vec<(u32, u32)> {
    let mut scaled: Vec<(u32, u64)> = pairs.to_vec();
    loop {
        let lens = tree_depths(&scaled, alphabet);
        if lens.iter().all(|&(_, l)| l <= MAX_CODE_LEN) {
            return lens;
        }
        for (_, f) in scaled.iter_mut() {
            *f = (*f).div_ceil(2);
        }
    }
}

/// One pass of plain Huffman tree construction returning ascending sparse
/// `(symbol, depth)` pairs for the used symbols.
///
/// Two-queue merge instead of a binary heap: leaves sorted once by
/// `(frequency, symbol)`, internals appended to a FIFO as they are
/// created. Merged frequencies are non-decreasing and internal ids
/// (`alphabet + creation#`) increase, so the internal queue stays sorted
/// by the same `(frequency, id)` key the historical heap popped on — each
/// step's two minima come from comparing the two queue fronts, and the
/// tree shape (hence every golden stream byte) is identical. Nodes live
/// in a flat arena; an internal's index always exceeds its children's, so
/// one reverse sweep resolves every depth top-down.
fn tree_depths(pairs: &[(u32, u64)], alphabet: usize) -> Vec<(u32, u32)> {
    let mut lens: Vec<(u32, u32)> = Vec::with_capacity(pairs.len());
    match pairs.len() {
        0 => return lens,
        1 => {
            lens.push((pairs[0].0, 1));
            return lens;
        }
        _ => {}
    }

    // Arena: leaves are indices `0..n_leaf` in `pairs` order;
    // `children[k]` holds the child pair of internal node `n_leaf + k`.
    let n_leaf = pairs.len();
    let mut order: Vec<u32> = (0..n_leaf as u32).collect();
    order.sort_unstable_by_key(|&i| {
        let (s, f) = pairs[i as usize];
        (f, s)
    });
    let mut children: Vec<(u32, u32)> = Vec::with_capacity(n_leaf - 1);
    let mut ifreq: Vec<u64> = Vec::with_capacity(n_leaf - 1);
    let (mut li, mut ii) = (0usize, 0usize);
    for _ in 0..n_leaf - 1 {
        let mut take = |ifreq: &[u64]| -> (u64, u32) {
            let leaf = order.get(li).map(|&i| {
                let (s, f) = pairs[i as usize];
                ((f, s), i)
            });
            let internal = ifreq
                .get(ii)
                .map(|&f| ((f, (alphabet + ii) as u32), (n_leaf + ii) as u32));
            match (leaf, internal) {
                (Some((lk, l)), Some((ik, _))) if lk < ik => {
                    li += 1;
                    (lk.0, l)
                }
                (Some((lk, l)), None) => {
                    li += 1;
                    (lk.0, l)
                }
                (_, Some((ik, i))) => {
                    ii += 1;
                    (ik.0, i)
                }
                (None, None) => unreachable!("two-queue merge ran dry"),
            }
        };
        let (fa, a) = take(&ifreq);
        let (fb, b) = take(&ifreq);
        children.push((a, b));
        ifreq.push(fa.saturating_add(fb));
    }

    // Top-down depth sweep over the arena, root last.
    let mut depth = vec![0u32; n_leaf + children.len()];
    for (k, &(a, b)) in children.iter().enumerate().rev() {
        let d = depth[n_leaf + k] + 1;
        depth[a as usize] = d;
        depth[b as usize] = d;
    }
    for (i, &(s, _)) in pairs.iter().enumerate() {
        lens.push((s, depth[i].max(1)));
    }
    lens.sort_unstable_by_key(|&(s, _)| s);
    lens
}

/// Width of the decode lookup table: codes up to this length decode with a
/// single peek instead of a canonical walk. 11 bits (8 KiB of entries)
/// covers the overwhelming frequency mass of SZ's residual distributions
/// while leaving L1 room for the four lanes' hot state — 12 bits measured
/// slower for exactly that reason.
const LUT_BITS: u32 = 11;

/// Bits of a packed LUT entry that hold the code length. Entries are
/// `symbol << LEN_BITS | len`: LUT codes are at most `LUT_BITS` = 11 bits
/// long, and [`CanonicalCode::deserialize`] caps alphabets at 2^28, so
/// both fields fit one `u32`.
const LEN_BITS: u32 = 4;
const LEN_MASK: u32 = (1 << LEN_BITS) - 1;

/// A canonical Huffman code: encode and decode tables plus a compact
/// serialized form (sorted sparse `(symbol, length)` pairs).
#[derive(Debug, Clone)]
pub struct CanonicalCode {
    /// Packed `code << 6 | len` per symbol (`MAX_CODE_LEN` = 48 keeps the
    /// shifted code within 54 bits); `len == 0` means the symbol is
    /// unused. Packing halves the table's footprint over `(u64, u32)`
    /// tuples — the encode loop's lookups are random within it, so its
    /// cache residency is the encode throughput.
    encode_table: Vec<u64>,
    /// Used symbols in ascending order (the serialize/rebuild order).
    used_symbols: Vec<u32>,
    /// Used symbols sorted canonically (by length, then symbol).
    sorted_symbols: Vec<u32>,
    /// `count[l]` = number of codes of length `l`.
    counts: Vec<u32>,
    /// `first_code[l]` = canonical code value of the first code of length `l`.
    first_code: Vec<u64>,
    /// `offset[l]` = index into `sorted_symbols` of the first length-`l` code.
    offsets: Vec<u32>,
    /// `lut[prefix]` = `symbol << LEN_BITS | len` for codes of length
    /// ≤ LUT_BITS; len == 0 marks prefixes belonging to longer codes. A
    /// fixed-size array, so a lookup by a `LUT_BITS`-bit prefix compiles
    /// without a bounds check.
    lut: Box<[u32; 1 << LUT_BITS]>,
}

impl CanonicalCode {
    /// Builds the canonical code from per-symbol lengths (dense table,
    /// zero = unused). Compatibility shim over [`CanonicalCode::from_pairs`].
    pub fn from_lengths(lens: &[u32]) -> Self {
        let pairs: Vec<(u32, u32)> = lens
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0)
            .map(|(s, &l)| (s as u32, l))
            .collect();
        Self::from_pairs(&pairs, lens.len())
    }

    /// Builds the canonical code from ascending sparse `(symbol, length)`
    /// pairs (lengths > 0, symbols < `alphabet`, and `alphabet <= 1 << 28`,
    /// the cap [`CanonicalCode::deserialize`] enforces, so every symbol
    /// packs into a LUT entry) — the hot-path constructor. Only the dense
    /// encode table itself scales with the nominal alphabet (one zeroed
    /// allocation); every scan and sort runs over the used symbols.
    /// Canonical assignment depends only on the
    /// `(length, symbol)` order, so the resulting code — and every encoded
    /// byte — is identical to the dense [`CanonicalCode::from_lengths`]
    /// path's.
    // audit:allow-fn(L1): every index is structurally in range —
    // `counts`, `first_code`, `offsets` and `next` are sized
    // `max_len + 1` with `l <= max_len` by construction, and
    // `deserialize` rejects `symbol >= alphabet` and zero/oversized
    // lengths before `encode_table[s]` can be reached.
    pub fn from_pairs(pairs: &[(u32, u32)], alphabet: usize) -> Self {
        debug_assert!(alphabet <= 1 << (32 - LEN_BITS), "alphabet too large");
        let max_len = pairs.iter().map(|&(_, l)| l).max().unwrap_or(0) as usize;
        let mut counts = vec![0u32; max_len + 1];
        for &(_, l) in pairs {
            counts[l as usize] += 1;
        }
        let used_symbols: Vec<u32> = pairs.iter().map(|&(s, _)| s).collect();
        let mut by_len: Vec<(u32, u32)> = pairs.iter().map(|&(s, l)| (l, s)).collect();
        by_len.sort_unstable();
        let sorted: Vec<u32> = by_len.iter().map(|&(_, s)| s).collect();

        let mut first_code = vec![0u64; max_len + 1];
        let mut offsets = vec![0u32; max_len + 1];
        let mut code: u64 = 0;
        let mut offset: u32 = 0;
        for l in 1..=max_len {
            code <<= 1;
            first_code[l] = code;
            offsets[l] = offset;
            code += counts[l] as u64;
            offset += counts[l];
        }

        let mut encode_table = vec![0u64; alphabet];
        let mut lut = Box::new([0u32; 1 << LUT_BITS]);
        let mut next = first_code.clone();
        for &(l, s) in &by_len {
            let code = next[l as usize];
            next[l as usize] += 1;
            encode_table[s as usize] = (code << 6) | l as u64;
            // Decode LUT: every LUT_BITS-wide prefix of a short code maps
            // straight to its symbol.
            if l <= LUT_BITS {
                let lo = (code << (LUT_BITS - l)) as usize;
                let hi = ((code + 1) << (LUT_BITS - l)) as usize;
                for entry in lut.iter_mut().take(hi).skip(lo) {
                    *entry = s << LEN_BITS | l;
                }
            }
        }

        Self {
            encode_table,
            used_symbols,
            sorted_symbols: sorted,
            counts,
            first_code,
            offsets,
            lut,
        }
    }

    /// Unpacks a symbol's `(code, len)` from the packed encode table.
    // audit:allow-fn(L1): encode-side helper — `symbol` comes from the
    // caller's own input slice, which `encode_all`/`emit_lane` require to
    // be `< alphabet` (the table's length).
    #[inline(always)]
    fn entry(&self, symbol: u32) -> (u64, u32) {
        let e = self.encode_table[symbol as usize];
        (e >> 6, (e & 63) as u32)
    }

    /// Total encoded size in bits for the given frequency histogram.
    pub fn encoded_bits(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .zip(&self.encode_table)
            .map(|(&f, &e)| f * (e & 63))
            .sum()
    }

    /// Length of the longest code in use (0 for an empty code).
    #[inline]
    fn max_code_len(&self) -> u32 {
        (self.counts.len() as u32).saturating_sub(1)
    }

    /// Length of the shortest code in use, if any symbol is coded. Every
    /// decoded symbol consumes at least this many bits — the bound
    /// [`decode_symbols`] uses to reject hostile symbol counts before
    /// allocating.
    pub fn min_code_len(&self) -> Option<u32> {
        (1..self.counts.len() as u32).find(|&l| self.counts.get(l as usize).is_some_and(|&c| c > 0))
    }

    /// Writes a whole symbol slice as one single-lane bitstream. This is
    /// the reference encoder: `huffman_definition.rs` checks every
    /// interleaved lane's bytes against it, and no codec calls it.
    ///
    /// Codes concatenate MSB-first into a local accumulator and reach the
    /// writer as near-full 64-bit words — one [`BitWriter::write_bits`]
    /// per ~8 symbols instead of one per symbol. The stream is identical
    /// by construction: the writer is MSB-first, so pre-concatenating
    /// code bits commutes with writing them one code at a time.
    /// `MAX_CODE_LEN` (48) < 64 guarantees any code fits a drained
    /// accumulator.
    pub fn encode_all(&self, w: &mut BitWriter, symbols: &[u32]) {
        let mut acc: u64 = 0;
        let mut n: u32 = 0;
        for &s in symbols {
            let (code, len) = self.entry(s);
            debug_assert!(len > 0, "encoding symbol absent from the code");
            if n + len > 64 {
                w.write_bits(acc >> (64 - n), n);
                acc = 0;
                n = 0;
            }
            acc |= code << (64 - n - len);
            n += len;
        }
        if n > 0 {
            w.write_bits(acc >> (64 - n), n);
        }
    }

    /// Reads one symbol.
    #[inline]
    pub fn decode(&self, r: &mut BitReader) -> Result<u32> {
        // Fast path: one table lookup when enough bits remain. The peeked
        // prefix is `LUT_BITS` wide, matching the table size, but a `get`
        // keeps stream-derived bits out of any unchecked index.
        if r.bits_remaining() >= LUT_BITS as u64 {
            let prefix = r.peek_bits(LUT_BITS)?;
            if let Some(&e) = self.lut.get(prefix as usize) {
                if e & LEN_MASK != 0 {
                    r.skip_bits(e & LEN_MASK)?;
                    return Ok(e >> LEN_BITS);
                }
            }
        }
        self.decode_slow(r)
    }

    /// Decodes one symbol off `r`'s buffered window, which the caller
    /// guarantees holds at least one whole code, and consumes it. A LUT
    /// hit is the whole job; anything longer takes the canonical walk in
    /// [`CanonicalCode::decode_long`]. A window no code matches (a corrupt
    /// stream) sets `*miss` and drains the window, so the caller's next
    /// bit check sends it to a refill, where it tests the flag: the hot
    /// loops carry no `Result`.
    #[inline(always)]
    fn step(&self, r: &mut BitReader, miss: &mut bool) -> u32 {
        let word = r.peek_word();
        // A `LUT_BITS`-bit prefix always indexes the fixed-size table, so
        // the compiler drops the `get` check and the fallback.
        let e = self
            .lut
            .get((word >> (64 - LUT_BITS)) as usize)
            .copied()
            .unwrap_or(0);
        if e & LEN_MASK != 0 {
            // Consumed here rather than after a merge with the walk's
            // result: the masked length is visibly below 64, so the shift
            // needs no full-word guard.
            r.consume(e & LEN_MASK);
            return e >> LEN_BITS;
        }
        match self.decode_long(word) {
            Some((sym, len)) => {
                r.consume(len);
                sym
            }
            None => {
                *miss = true;
                r.consume(r.buffered_bits());
                0
            }
        }
    }

    /// The canonical walk for codes longer than `LUT_BITS`, on the bit
    /// window, with no per-bit reads. A LUT miss proves the code is longer
    /// than LUT_BITS, so the walk starts past every length the LUT already
    /// covers. Inline: with the loop's other per-symbol costs gone, an
    /// out-of-line `#[cold]` walk measured no faster on SZ_T's codes (2%
    /// long) and 10–20% slower on alphabets where many codes are long
    /// (SZ_PWR's, for one), which pay a call per symbol.
    #[inline(always)]
    fn decode_long(&self, word: u64) -> Option<(u32, u32)> {
        let lens = self.counts.iter().zip(&self.first_code).zip(&self.offsets);
        for (l, ((&n, &first), &off)) in lens.enumerate().skip(LUT_BITS as usize + 1) {
            let code = word >> (64 - l as u32);
            if n > 0 && code >= first && code - first < n as u64 {
                let idx = off as usize + (code - first) as usize;
                return self.sorted_symbols.get(idx).map(|&sym| (sym, l as u32));
            }
        }
        None
    }

    /// Decodes `n` symbols into `out` — the bulk counterpart of
    /// [`CanonicalCode::decode`].
    ///
    /// The hot loop hoists every per-symbol check out: one
    /// [`BitReader::refill`] buffers ≥ 57 bits (≥ one whole code, since
    /// `MAX_CODE_LEN` is 48), then symbols decode straight off the
    /// buffered word until the window runs low. Near the stream tail —
    /// fewer buffered bits than the longest code — it falls back to the
    /// checked per-symbol path, so a truncated payload still surfaces as
    /// [`Error::UnexpectedEof`], never an over-consume. On an error the
    /// `n` slots appended to `out` hold no meaningful values.
    pub fn decode_all(&self, r: &mut BitReader, n: usize, out: &mut Vec<u32>) -> Result<()> {
        let max_len = self.max_code_len().max(1);
        let start = out.len();
        out.resize(start + n, 0);
        let mut slots = out.iter_mut().skip(start);
        let mut miss = false;
        'refill: loop {
            r.refill();
            if r.buffered_bits() < max_len || miss {
                break; // tail: per-symbol checked path below
            }
            for slot in slots.by_ref() {
                *slot = self.step(r, &mut miss);
                if r.buffered_bits() < max_len {
                    continue 'refill;
                }
            }
            break;
        }
        if miss {
            return Err(Error::InvalidValue("huffman code not in table"));
        }
        for slot in slots {
            *slot = self.decode(r)?;
        }
        Ok(())
    }

    /// Payload bytes of each sub-stream: Σ count × code length over the
    /// lane's symbols, from the histogram's per-lane `counts` (parallel to
    /// `lens`, the code's ascending `(symbol, length)` pairs). A lane
    /// count that saturated is not exact, so such a lane is summed symbol
    /// by symbol instead.
    fn lane_bytes(
        &self,
        symbols: &[u32],
        lens: &[(u32, u32)],
        counts: &[[u32; LANES]],
    ) -> [usize; LANES] {
        std::array::from_fn(|lane| {
            let bits: u64 = if counts.iter().all(|c| c[lane] < u32::MAX) {
                let per_symbol = lens.iter().zip(counts);
                per_symbol
                    .map(|(&(_, l), c)| u64::from(c[lane]) * u64::from(l))
                    .sum()
            } else {
                let lane_syms = symbols.iter().skip(lane).step_by(LANES);
                lane_syms.map(|&s| u64::from(self.entry(s).1)).sum()
            };
            bits.div_ceil(8) as usize
        })
    }

    /// Writes sub-stream `lane` (every [`LANES`]-th symbol from `lane`)
    /// into `out` from byte `pos`, exactly as [`CanonicalCode::encode_all`]
    /// would write that subsequence, and returns the end of its bytes.
    ///
    /// Each step adds as many codes as fit in 56 bits to the accumulator,
    /// stores all 64 bits big-endian at `pos` and advances by the whole
    /// bytes. At most 7 bits stay pending, so at most 63 are ever staged:
    /// there is no flush branch, and no shift reaches 64. A store reaches
    /// up to 8 bytes past the lane's last byte; the caller leaves that
    /// slack after the payload and emits the lanes in order, so each
    /// lane overwrites what the one before it wrote past its end.
    fn emit_lane(&self, symbols: &[u32], lane: usize, out: &mut [u8], mut pos: usize) -> usize {
        let per_store = LANES * (56 / self.max_code_len().max(1)) as usize;
        let mut acc = 0u64;
        let mut n = 0u32;
        for group in symbols.get(lane..).unwrap_or_default().chunks(per_store) {
            for &s in group.iter().step_by(LANES) {
                let (code, len) = self.entry(s);
                debug_assert!(len > 0, "encoding symbol absent from the code");
                acc |= code << (64 - n - len);
                n += len;
            }
            out[pos..pos + 8].copy_from_slice(&acc.to_be_bytes());
            let whole = n / 8;
            pos += whole as usize;
            acc <<= 8 * whole;
            n -= 8 * whole;
        }
        // The tail: whole bytes, then one zero-padded partial byte — the
        // same final alignment `BitWriter::into_bytes` produces.
        out[pos..pos + 8].copy_from_slice(&acc.to_be_bytes());
        pos + n.div_ceil(8) as usize
    }

    /// Decodes `n` round-robin interleaved symbols from [`LANES`]
    /// sub-stream slices in one fused loop: per round, [`LANES`]
    /// independent [`CanonicalCode::step`] chains whose refill and
    /// table-lookup latencies overlap, written straight into one quad of
    /// the preallocated output (the caller's per-lane bit check bounds
    /// `n`). Rounds run until some lane's buffered window actually drops
    /// below one whole worst-case code — typically many more rounds per
    /// refill than the conservative `min_buffered / max_len` bound would
    /// allow, since real codes average far shorter than the longest one.
    /// The stream tail (or any lane too short for the bulk guarantee)
    /// falls back to the checked per-symbol path, surfacing truncation as
    /// [`Error::UnexpectedEof`].
    fn decode_interleaved_fused(&self, lanes: &[&[u8]; LANES], n: usize) -> Result<Vec<u32>> {
        let max_len = self.max_code_len().max(1);
        // Scalar per-lane readers (not an array) keep the four decode
        // chains in registers so their latencies actually overlap.
        let [mut r0, mut r1, mut r2, mut r3]: [BitReader; LANES] =
            std::array::from_fn(|j| BitReader::new(lanes[j]));
        let mut out = vec![0u32; n];
        let (quads, _) = out.as_chunks_mut::<LANES>();
        let mut quads = quads.iter_mut();
        let mut miss = false;
        let low = |r0: &BitReader, r1: &BitReader, r2: &BitReader, r3: &BitReader| {
            r0.buffered_bits()
                .min(r1.buffered_bits())
                .min(r2.buffered_bits())
                .min(r3.buffered_bits())
                < max_len
        };
        'refill: loop {
            r0.refill();
            r1.refill();
            r2.refill();
            r3.refill();
            if low(&r0, &r1, &r2, &r3) || miss {
                break;
            }
            // Every lane holds ≥ max_len buffered bits at the top of each
            // round, so the in-round decodes can never over-consume.
            for quad in quads.by_ref() {
                *quad = [
                    self.step(&mut r0, &mut miss),
                    self.step(&mut r1, &mut miss),
                    self.step(&mut r2, &mut miss),
                    self.step(&mut r3, &mut miss),
                ];
                if low(&r0, &r1, &r2, &r3) {
                    continue 'refill;
                }
            }
            break;
        }
        if miss {
            return Err(Error::InvalidValue("huffman code not in table"));
        }
        // Each lane has decoded the same number of symbols; finish in
        // global order through the checked per-symbol decoder.
        let done = LANES * (n / LANES - quads.len());
        let mut rs = [r0, r1, r2, r3];
        for (idx, slot) in out.iter_mut().enumerate().skip(done) {
            *slot = self.decode(&mut rs[idx % LANES])?;
        }
        Ok(out)
    }

    /// Bit-by-bit canonical decode (long codes and stream tails).
    ///
    /// `counts`, `first_code` and `offsets` share one length, so the loop
    /// index is in bounds for all three; `idx` is the only value shaped by
    /// stream bits, and the `get` on `sorted_symbols` turns an impossible
    /// out-of-table walk into a decode error instead of a panic.
    fn decode_slow(&self, r: &mut BitReader) -> Result<u32> {
        let mut code: u64 = 0;
        for len in 1..self.counts.len() {
            code = (code << 1) | r.read_bit()? as u64;
            let n = self.counts.get(len).copied().unwrap_or(0) as u64;
            if n > 0 {
                let first = self.first_code.get(len).copied().unwrap_or(u64::MAX);
                if let Some(delta) = code.checked_sub(first) {
                    if delta < n {
                        let off = self.offsets.get(len).copied().unwrap_or(0) as u64;
                        return self
                            .sorted_symbols
                            .get((off + delta) as usize)
                            .copied()
                            .ok_or(Error::InvalidValue("huffman code not in table"));
                    }
                }
            }
        }
        Err(Error::InvalidValue("huffman code not in table"))
    }

    /// Serializes the code as sparse `(symbol delta, length)` pairs.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        varint::write_uvarint(out, self.encode_table.len() as u64);
        varint::write_uvarint(out, self.used_symbols.len() as u64);
        let mut prev = 0u32;
        for &s in &self.used_symbols {
            varint::write_uvarint(out, (s - prev) as u64);
            varint::write_uvarint(out, self.encode_table[s as usize] & 63);
            prev = s;
        }
    }

    /// Inverse of [`CanonicalCode::serialize`]. Accumulates the sparse
    /// `(symbol, length)` pairs directly and rebuilds through
    /// [`CanonicalCode::from_pairs`] — no dense per-alphabet scans, which
    /// matters because every decode rebuilds the table. Deltas are
    /// non-negative so symbols arrive non-decreasing; a repeated symbol
    /// (delta 0 after the first entry) overwrites the previous pair, the
    /// same last-write-wins the historical dense table had.
    pub fn deserialize(data: &[u8], pos: &mut usize) -> Result<Self> {
        let alphabet = varint::read_uvarint(data, pos)? as usize;
        if alphabet > (1 << 28) {
            return Err(Error::InvalidValue("huffman alphabet too large"));
        }
        let n_used = varint::read_uvarint(data, pos)? as usize;
        if n_used > alphabet {
            return Err(Error::InvalidValue("more used symbols than alphabet"));
        }
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(n_used);
        let mut sym = 0u64;
        let bad = || Error::InvalidValue("bad huffman table entry");
        for i in 0..n_used {
            let delta = varint::read_uvarint(data, pos)?;
            sym = if i == 0 {
                delta
            } else {
                sym.checked_add(delta).ok_or_else(bad)?
            };
            let len = u32::try_from(varint::read_uvarint(data, pos)?).map_err(|_| bad())?;
            if sym as usize >= alphabet || len == 0 || len > MAX_CODE_LEN {
                return Err(bad());
            }
            match pairs.last_mut() {
                Some(last) if last.0 as u64 == sym => last.1 = len,
                _ => pairs.push((sym as u32, len)),
            }
        }
        Ok(Self::from_pairs(&pairs, alphabet))
    }
}

std::thread_local! {
    /// Lane-batched frequency tables reused across [`encode_symbols`]
    /// calls. The nominal alphabet is 2^16 codes while a chunk typically
    /// touches a few hundred distinct symbols, so allocating and zeroing
    /// dense tables per chunk would dominate the entropy stage; instead
    /// they persist per thread and only the touched slots are cleared (see
    /// `pwrel_kernels::hist` for why the partial tables are faster).
    static LANE_FREQS: std::cell::RefCell<LaneHistogram> =
        std::cell::RefCell::new(LaneHistogram::new());
}

/// Sparse ascending `(symbol, frequency)` pairs for `symbols`, from the
/// lane-batched histogram, and each symbol's count per sub-stream. The
/// pairs equal a dense single-table count (pinned by
/// `histogram_kernels_agree_byte_for_byte`), so the tree and every
/// encoded byte do not depend on how the symbols were counted.
fn count_pairs(symbols: &[u32], alphabet: usize) -> (Vec<(u32, u64)>, Vec<[u32; LANES]>) {
    LANE_FREQS.with(|cell| cell.borrow_mut().count(symbols, alphabet))
}

/// Convenience: Huffman-encode a symbol slice into a self-contained buffer
/// in the interleaved packed mode:
///
/// ```text
/// uvarint INTERLEAVED_MARKER
/// serialized table            (identical bytes to the legacy mode)
/// uvarint n                   (total symbol count)
/// uvarint payload_len         (sum of the sub-stream byte lengths)
/// LANES × uvarint count       (per-sub-stream symbol counts)
/// LANES × uvarint len         (per-sub-stream byte lengths)
/// concatenated sub-stream payloads
/// ```
///
/// The descriptor is fully redundant by design — counts must equal the
/// round-robin split of `n` and lengths must sum to `payload_len` exactly —
/// so every forged descriptor is rejected before any payload is touched.
///
/// The sub-stream lengths are known before any code is written — each is
/// Σ count × code length over its symbols, from the histogram's per-lane
/// counts — so the descriptor goes first and each sub-stream is emitted
/// straight into its place in the one buffer.
pub fn encode_symbols(symbols: &[u32], alphabet: usize) -> Vec<u8> {
    let (pairs, counts) = count_pairs(symbols, alphabet);
    let lens = code_length_pairs(&pairs, alphabet);
    let code = CanonicalCode::from_pairs(&lens, alphabet);
    let lane_bytes = code.lane_bytes(symbols, &lens, &counts);
    let total: usize = lane_bytes.iter().sum();
    // One allocation: table ≤ 10 bytes per used symbol, descriptor ≤ 10
    // bytes per field, and the emit's 8 bytes of slack.
    let mut out = Vec::with_capacity(total + 10 * pairs.len() + 2 * LANES * 10 + 48);
    varint::write_uvarint(&mut out, INTERLEAVED_MARKER);
    code.serialize(&mut out);
    varint::write_uvarint(&mut out, symbols.len() as u64);
    varint::write_uvarint(&mut out, total as u64);
    for lane in 0..LANES {
        varint::write_uvarint(&mut out, lane_count(symbols.len(), lane) as u64);
    }
    for &len in &lane_bytes {
        varint::write_uvarint(&mut out, len as u64);
    }
    let mut pos = out.len();
    let end = pos + total;
    out.resize(end + 8, 0);
    for lane in 0..LANES {
        pos = code.emit_lane(symbols, lane, &mut out, pos);
    }
    assert_eq!(
        pos, end,
        "sub-stream lengths disagree with the codes written"
    );
    out.truncate(end);
    out
}

/// A lower bound on `encode_symbols(symbols, freqs.len()).len()` for
/// symbols whose dense histogram is `freqs`: the serialized table plus the
/// payload bits rounded down. It builds the code [`encode_symbols`] would
/// build, but codes no symbol; each sub-stream rounds up to whole bytes
/// and the marker and descriptor come on top, so the real buffer is
/// always longer. Callers that keep an encoding only if it beats a known
/// length use it to skip encodes that cannot win.
pub(crate) fn encoded_len_lower_bound(freqs: &[u64]) -> usize {
    let pairs: Vec<(u32, u64)> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(s, &f)| (s as u32, f))
        .collect();
    let code = CanonicalCode::from_pairs(&code_length_pairs(&pairs, freqs.len()), freqs.len());
    let mut table = Vec::new();
    code.serialize(&mut table);
    table.len() + (code.encoded_bits(freqs) / 8) as usize
}

/// Inverse of [`encode_symbols`]; advances `pos` past the buffer. Accepts
/// both packed modes: buffers starting with the interleaved marker decode
/// through the fused multi-reader loop, anything else through the legacy
/// single-stream path.
pub fn decode_symbols(data: &[u8], pos: &mut usize) -> Result<Vec<u32>> {
    let mut probe = *pos;
    if varint::read_uvarint(data, &mut probe)? == INTERLEAVED_MARKER {
        *pos = probe;
        return decode_symbols_interleaved(data, pos);
    }
    decode_symbols_single(data, pos)
}

/// The legacy single-stream decoder (the pre-interleaving `decode_symbols`
/// body, byte-for-byte compatible with every historical buffer).
// audit:allow-fn(L1): the only slice, `data[*pos..end]`, follows the
// explicit `end > data.len()` rejection and the checked_add that
// produced `end`.
fn decode_symbols_single(data: &[u8], pos: &mut usize) -> Result<Vec<u32>> {
    let code = CanonicalCode::deserialize(data, pos)?;
    let n = varint::read_uvarint(data, pos)? as usize;
    let payload_len = varint::read_uvarint(data, pos)? as usize;
    let end = pos.checked_add(payload_len).ok_or(Error::UnexpectedEof)?;
    if end > data.len() {
        return Err(Error::UnexpectedEof);
    }
    // `n` is untrusted: bound it by the bits the payload can actually hold
    // before reserving output. Every symbol costs at least the shortest
    // code length, so a hostile count that could not possibly fit is
    // rejected here instead of driving a huge allocation into EOF errors.
    let fits = match code.min_code_len() {
        Some(min_len) => (n as u64).saturating_mul(min_len as u64) <= payload_len as u64 * 8,
        None => n == 0,
    };
    if !fits {
        return Err(Error::InvalidValue("symbol count exceeds payload bits"));
    }
    let mut r = BitReader::new(&data[*pos..end]);
    let mut out = Vec::new();
    code.decode_all(&mut r, n, &mut out)?;
    *pos = end;
    Ok(out)
}

/// Parses and validates the interleaved descriptor, then decodes. Every
/// descriptor field is checked against what the format forces it to be
/// before any sub-stream is read: symbol counts must equal the round-robin
/// split of `n`, byte lengths must not overflow and must sum to
/// `payload_len` exactly (no trailing bytes inside the declared payload),
/// and the payload must lie within `data`.
// audit:allow-fn(L1): the lane slices `data[off..off + lens[lane]]` are
// carved from the validated payload — the lane lengths' checked sum
// equals `payload_len` and `end = pos + payload_len` was rejected if it
// exceeded `data.len()`, so every `off` range is in bounds.
fn decode_symbols_interleaved(data: &[u8], pos: &mut usize) -> Result<Vec<u32>> {
    let code = CanonicalCode::deserialize(data, pos)?;
    let n = varint::read_uvarint(data, pos)? as usize;
    let payload_len = varint::read_uvarint(data, pos)? as usize;
    let mut counts = [0usize; LANES];
    for (lane, c) in counts.iter_mut().enumerate() {
        let declared = varint::read_uvarint(data, pos)?;
        if declared != lane_count(n, lane) as u64 {
            return Err(Error::InvalidValue("sub-stream symbol count mismatch"));
        }
        *c = declared as usize;
    }
    let mut lens = [0usize; LANES];
    let mut total = 0usize;
    for len in lens.iter_mut() {
        let declared = varint::read_uvarint(data, pos)?;
        let declared = usize::try_from(declared)
            .map_err(|_| Error::InvalidValue("sub-stream length overflows"))?;
        total = total
            .checked_add(declared)
            .ok_or(Error::InvalidValue("sub-stream length overflows"))?;
        *len = declared;
    }
    if total != payload_len {
        return Err(Error::InvalidValue(
            "sub-stream lengths disagree with payload",
        ));
    }
    let end = pos.checked_add(payload_len).ok_or(Error::UnexpectedEof)?;
    if end > data.len() {
        return Err(Error::UnexpectedEof);
    }
    // Per-lane hostile-count bound, as in the single-stream path.
    let fits = match code.min_code_len() {
        Some(min_len) => counts
            .iter()
            .zip(&lens)
            .all(|(&c, &l)| (c as u64).saturating_mul(min_len as u64) <= l as u64 * 8),
        None => n == 0,
    };
    if !fits {
        return Err(Error::InvalidValue("symbol count exceeds payload bits"));
    }
    let mut off = *pos;
    let lanes: [&[u8]; LANES] = std::array::from_fn(|lane| {
        let s = &data[off..off + lens[lane]];
        off += lens[lane];
        s
    });
    let out = code.decode_interleaved_fused(&lanes, n)?;
    *pos = end;
    Ok(out)
}

/// Observability probe: the per-sub-stream byte lengths of an interleaved
/// buffer, or `None` for a legacy (or unparseable) one. Walks the
/// descriptor without building decode tables, so it is cheap enough for
/// per-chunk trace counters.
pub fn lane_lengths(data: &[u8]) -> Option<[u64; LANES]> {
    let mut pos = 0usize;
    if varint::read_uvarint(data, &mut pos).ok()? != INTERLEAVED_MARKER {
        return None;
    }
    let alphabet = varint::read_uvarint(data, &mut pos).ok()?;
    if alphabet > (1 << 28) {
        return None;
    }
    let n_used = varint::read_uvarint(data, &mut pos).ok()?;
    if n_used > alphabet {
        return None;
    }
    for _ in 0..2 * n_used {
        varint::read_uvarint(data, &mut pos).ok()?;
    }
    let _n = varint::read_uvarint(data, &mut pos).ok()?;
    let _payload_len = varint::read_uvarint(data, &mut pos).ok()?;
    for _ in 0..LANES {
        varint::read_uvarint(data, &mut pos).ok()?;
    }
    let mut lens = [0u64; LANES];
    for len in lens.iter_mut() {
        *len = varint::read_uvarint(data, &mut pos).ok()?;
    }
    Some(lens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_round_trips() {
        let buf = encode_symbols(&[], 16);
        let mut pos = 0;
        assert_eq!(decode_symbols(&buf, &mut pos).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn single_symbol_round_trips() {
        let syms = vec![7u32; 100];
        let buf = encode_symbols(&syms, 16);
        let mut pos = 0;
        assert_eq!(decode_symbols(&buf, &mut pos).unwrap(), syms);
    }

    #[test]
    fn skewed_distribution_round_trips_and_compresses() {
        let mut syms = Vec::new();
        for i in 0..10_000u32 {
            syms.push(if i % 100 == 0 { i % 64 } else { 32 });
        }
        let buf = encode_symbols(&syms, 64);
        let mut pos = 0;
        assert_eq!(decode_symbols(&buf, &mut pos).unwrap(), syms);
        // 10k symbols dominated by one value must compress far below 2 B/sym.
        assert!(buf.len() < 4000, "buf.len() = {}", buf.len());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs = [5u64, 9, 12, 13, 16, 45, 0, 3];
        let lens = code_lengths(&freqs);
        let code = CanonicalCode::from_lengths(&lens);
        let used: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        for &a in &used {
            for &b in &used {
                if a == b {
                    continue;
                }
                let (ca, la) = code.entry(a as u32);
                let (cb, lb) = code.entry(b as u32);
                if la <= lb {
                    assert_ne!(ca, cb >> (lb - la), "code {a} prefixes {b}");
                }
            }
        }
    }

    #[test]
    fn kraft_inequality_holds() {
        let freqs: Vec<u64> = (1..=300).map(|i| i * i).collect();
        let lens = code_lengths(&freqs);
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft = {kraft}");
    }

    #[test]
    fn near_optimal_for_uniform() {
        // 256 equally likely symbols need exactly 8 bits each.
        let syms: Vec<u32> = (0..25600).map(|i| i % 256).collect();
        let buf = encode_symbols(&syms, 256);
        let payload_bits = (buf.len() as f64) * 8.0 / syms.len() as f64;
        assert!(payload_bits < 8.5, "bits/sym = {payload_bits}");
    }

    #[test]
    fn table_round_trips_through_serialization() {
        let freqs = [0u64, 10, 0, 0, 7, 1, 1, 0, 99];
        let code = CanonicalCode::from_lengths(&code_lengths(&freqs));
        let mut buf = Vec::new();
        code.serialize(&mut buf);
        let mut pos = 0;
        let back = CanonicalCode::deserialize(&buf, &mut pos).unwrap();
        assert_eq!(code.encode_table, back.encode_table);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_payload_is_error() {
        let syms: Vec<u32> = (0..100).map(|i| i % 7).collect();
        let buf = encode_symbols(&syms, 8);
        let mut pos = 0;
        assert!(decode_symbols(&buf[..buf.len() - 5], &mut pos).is_err());
    }

    #[test]
    fn bulk_decode_matches_per_symbol_decode() {
        // Mixed short/long codes: quadratic frequencies over 300 symbols
        // produce a wide spread of code lengths, exercising both the LUT
        // hit and the canonical-walk branch of the bulk loop.
        let freqs: Vec<u64> = (1..=300).map(|i| i * i).collect();
        let code = CanonicalCode::from_lengths(&code_lengths(&freqs));
        let syms: Vec<u32> = (0..20_000u32).map(|i| (i * i + 7 * i) % 300).collect();
        let mut w = BitWriter::new();
        code.encode_all(&mut w, &syms);
        let bytes = w.into_bytes();

        let mut bulk = Vec::new();
        code.decode_all(&mut BitReader::new(&bytes), syms.len(), &mut bulk)
            .unwrap();
        assert_eq!(bulk, syms);

        let mut r = BitReader::new(&bytes);
        let one: Vec<u32> = (0..syms.len())
            .map(|_| code.decode(&mut r).unwrap())
            .collect();
        assert_eq!(one, syms);
    }

    #[test]
    fn windows_no_code_matches_are_invalid_in_both_loops() {
        // Two 2-bit codes, 00 and 01: each 0x1F byte decodes 0, 1, then
        // reaches a window starting 11 that matches nothing.
        let code = CanonicalCode::from_pairs(&[(0, 2), (1, 2)], 2);
        let bad = Error::InvalidValue("huffman code not in table");
        let payload = [0x1Fu8; 32];
        let mut out = Vec::new();
        let got = code.decode_all(&mut BitReader::new(&payload), 100, &mut out);
        assert_eq!(got, Err(bad.clone()));

        let n = 400;
        let mut buf = Vec::new();
        varint::write_uvarint(&mut buf, INTERLEAVED_MARKER);
        code.serialize(&mut buf);
        varint::write_uvarint(&mut buf, n as u64);
        varint::write_uvarint(&mut buf, (LANES * payload.len()) as u64);
        for lane in 0..LANES {
            varint::write_uvarint(&mut buf, lane_count(n, lane) as u64);
        }
        for _ in 0..LANES {
            varint::write_uvarint(&mut buf, payload.len() as u64);
        }
        for _ in 0..LANES {
            buf.extend_from_slice(&payload);
        }
        assert_eq!(decode_symbols(&buf, &mut 0), Err(bad));
    }

    #[test]
    fn large_alphabet_sparse_usage() {
        // SZ uses a 65536-code alphabet with few distinct codes in practice.
        let syms: Vec<u32> = (0..5000).map(|i| 32768 + (i % 5) * 17).collect();
        let buf = encode_symbols(&syms, 65536);
        let mut pos = 0;
        assert_eq!(decode_symbols(&buf, &mut pos).unwrap(), syms);
        assert!(buf.len() < 2500);
    }

    fn mixed_symbols(n: usize) -> Vec<u32> {
        (0..n as u32).map(|i| (i * i + 7 * i) % 300).collect()
    }

    #[test]
    fn legacy_decoder_rejects_interleaved_buffers_loudly() {
        let syms = mixed_symbols(100);
        let buf = encode_symbols(&syms, 512);
        let mut pos = 0;
        assert_eq!(
            decode_symbols_single(&buf, &mut pos),
            Err(Error::InvalidValue("huffman alphabet too large"))
        );
    }

    /// Splits an interleaved buffer at its descriptor fields so forgery
    /// tests can rewrite them: returns (head = marker+table+n, payload_len,
    /// counts, lens, payload bytes).
    fn dissect(buf: &[u8]) -> (Vec<u8>, u64, [u64; LANES], [u64; LANES], Vec<u8>) {
        let mut pos = 0;
        assert_eq!(
            varint::read_uvarint(buf, &mut pos).unwrap(),
            INTERLEAVED_MARKER
        );
        let _ = CanonicalCode::deserialize(buf, &mut pos).unwrap();
        let _n = varint::read_uvarint(buf, &mut pos).unwrap();
        let head = buf[..pos].to_vec();
        let payload_len = varint::read_uvarint(buf, &mut pos).unwrap();
        let mut counts = [0u64; LANES];
        for c in counts.iter_mut() {
            *c = varint::read_uvarint(buf, &mut pos).unwrap();
        }
        let mut lens = [0u64; LANES];
        for l in lens.iter_mut() {
            *l = varint::read_uvarint(buf, &mut pos).unwrap();
        }
        (head, payload_len, counts, lens, buf[pos..].to_vec())
    }

    fn reassemble(
        head: &[u8],
        payload_len: u64,
        counts: &[u64; LANES],
        lens: &[u64; LANES],
        payload: &[u8],
    ) -> Vec<u8> {
        let mut out = head.to_vec();
        varint::write_uvarint(&mut out, payload_len);
        for &c in counts {
            varint::write_uvarint(&mut out, c);
        }
        for &l in lens {
            varint::write_uvarint(&mut out, l);
        }
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn forged_descriptor_fields_are_corrupt_never_panic() {
        let syms = mixed_symbols(5000);
        let buf = encode_symbols(&syms, 512);
        let (head, payload_len, counts, lens, payload) = dissect(&buf);

        // Sub-stream count that disagrees with the round-robin split.
        let mut bad = counts;
        bad[1] += 1;
        let forged = reassemble(&head, payload_len, &bad, &lens, &payload);
        let mut pos = 0;
        assert_eq!(
            decode_symbols(&forged, &mut pos),
            Err(Error::InvalidValue("sub-stream symbol count mismatch"))
        );

        // Lengths whose sum overflows usize.
        let mut bad = lens;
        bad[0] = u64::MAX - 7;
        bad[1] = u64::MAX - 7;
        let forged = reassemble(&head, payload_len, &counts, &bad, &payload);
        let mut pos = 0;
        assert_eq!(
            decode_symbols(&forged, &mut pos),
            Err(Error::InvalidValue("sub-stream length overflows"))
        );

        // Lengths that sum past the declared payload.
        let mut bad = lens;
        bad[2] += 1;
        let forged = reassemble(&head, payload_len, &counts, &bad, &payload);
        let mut pos = 0;
        assert_eq!(
            decode_symbols(&forged, &mut pos),
            Err(Error::InvalidValue(
                "sub-stream lengths disagree with payload"
            ))
        );

        // Lengths that leave trailing bytes inside the declared payload.
        let mut bad = lens;
        bad[3] -= 1;
        let forged = reassemble(&head, payload_len, &counts, &bad, &payload);
        let mut pos = 0;
        assert_eq!(
            decode_symbols(&forged, &mut pos),
            Err(Error::InvalidValue(
                "sub-stream lengths disagree with payload"
            ))
        );

        // Declared payload reaching past the buffer.
        let grown = lens.map(|l| l + 100);
        let forged = reassemble(&head, payload_len + 400, &counts, &grown, &payload);
        let mut pos = 0;
        assert_eq!(decode_symbols(&forged, &mut pos), Err(Error::UnexpectedEof));

        // Truncated payload bytes.
        let mut pos = 0;
        assert!(decode_symbols(&buf[..buf.len() - 3], &mut pos).is_err());
    }

    #[test]
    fn lane_lengths_probe() {
        let syms = mixed_symbols(4096);
        let buf = encode_symbols(&syms, 512);
        let (_, payload_len, _, lens, _) = dissect(&buf);
        assert_eq!(lane_lengths(&buf), Some(lens));
        assert_eq!(lens.iter().sum::<u64>(), payload_len);
        assert_eq!(lane_lengths(&[]), None);
    }

    #[test]
    fn histogram_kernels_agree_byte_for_byte() {
        // Same pairs → same tree → same buffer, whichever kernel counted.
        let syms = mixed_symbols(10_000);
        let (batched, _) = count_pairs(&syms, 512);
        let mut dense = vec![0u64; 512];
        for &s in &syms {
            dense[s as usize] += 1;
        }
        let expect: Vec<(u32, u64)> = dense
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(s, &f)| (s as u32, f))
            .collect();
        assert_eq!(batched, expect);
    }

    #[test]
    fn a_saturated_lane_count_is_summed_from_the_symbols() {
        // A lane count of u32::MAX may have been clamped, so that lane's
        // length comes from its symbols; here both ways must agree.
        let syms = mixed_symbols(1000);
        let (pairs, mut counts) = count_pairs(&syms, 512);
        let lens = code_length_pairs(&pairs, 512);
        let code = CanonicalCode::from_pairs(&lens, 512);
        let exact = code.lane_bytes(&syms, &lens, &counts);
        counts[0][2] = u32::MAX;
        assert_eq!(code.lane_bytes(&syms, &lens, &counts), exact);
    }

    #[test]
    fn encoded_len_lower_bound_never_exceeds_the_buffer() {
        let mut x = 0x9E37_79B9u32;
        let mut noise = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        let inputs: Vec<Vec<u32>> = vec![
            vec![],
            vec![7],
            vec![3; 1000],
            mixed_symbols(5),
            mixed_symbols(20_000).iter().map(|s| s % 256).collect(),
            (0..4096).map(|_| noise() % 256).collect(),
            (0..4096)
                .map(|_| (noise() % 256).min(noise() % 256))
                .collect(),
        ];
        for syms in inputs {
            let mut freqs = [0u64; 256];
            for &s in &syms {
                freqs[s as usize] += 1;
            }
            let bound = encoded_len_lower_bound(&freqs);
            let len = encode_symbols(&syms, 256).len();
            assert!(
                bound <= len,
                "bound {bound} > encoded {len} ({} symbols)",
                syms.len()
            );
            // Tight up to the marker, descriptor and lane padding.
            assert!(len - bound <= 64, "bound {bound} vs encoded {len}");
        }
    }
}
