//! Negabinary mapping and ZFP's embedded group-testing bit-plane coder.
//!
//! Negabinary (base −2) representation makes the sign bit implicit, so
//! truncating low bit planes always rounds *toward* the value instead of
//! toward zero from one side. The plane coder is a transcription of ZFP's
//! `encode_ints` / `decode_ints`: within each plane the first `n` bits
//! (coefficients already known to be significant) are sent verbatim, and the
//! remainder is group-tested with unary runs.

use pwrel_bitstream::{BitReader, BitWriter, Result};

const NBMASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

#[inline]
fn width_mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Two's-complement (width `n`) → negabinary (width `n`).
#[inline]
pub fn nb_encode(x: i64, n: u32) -> u64 {
    let m = NBMASK & width_mask(n);
    ((x as u64).wrapping_add(m) ^ m) & width_mask(n)
}

/// Negabinary (width `n`) → two's-complement sign-extended i64.
#[inline]
pub fn nb_decode(u: u64, n: u32) -> i64 {
    let m = NBMASK & width_mask(n);
    let v = (u ^ m).wrapping_sub(m) & width_mask(n);
    // Sign-extend from bit n-1.
    if n < 64 && v & (1u64 << (n - 1)) != 0 {
        (v | !width_mask(n)) as i64
    } else {
        v as i64
    }
}

/// In-place 64×64 bit-matrix transpose, LSB-first convention: afterwards
/// bit `i` of `a[k]` is what bit `k` of `a[i]` was. One butterfly network
/// (6 rounds of masked swaps) replaces the per-plane extraction loop in the
/// coder below — gathering all 64 planes costs ~6 ops per row instead of
/// one 64-iteration loop per plane. The transpose is an involution, so the
/// decoder reuses it to scatter planes back into coefficients.
#[inline]
fn transpose64(a: &mut [u64; 64]) {
    // One butterfly round: masked swaps between rows `k` and `k + J` for
    // every k whose bit J is clear. The const-generic stride gives each
    // round compile-time trip counts and shift amounts, so the inner loop
    // is branch-free and auto-vectorizes (the dynamic `(k + j + 1) & !j`
    // stepping of the generic form defeats both).
    #[inline(always)]
    fn round<const J: usize>(a: &mut [u64; 64], m: u64) {
        let mut base = 0;
        while base < 64 {
            for k in base..base + J {
                let t = ((a[k] >> J) ^ a[k + J]) & m;
                a[k] ^= t << J;
                a[k + J] ^= t;
            }
            base += 2 * J;
        }
    }
    round::<32>(a, 0x0000_0000_FFFF_FFFF);
    round::<16>(a, 0x0000_FFFF_0000_FFFF);
    round::<8>(a, 0x00FF_00FF_00FF_00FF);
    round::<4>(a, 0x0F0F_0F0F_0F0F_0F0F);
    round::<2>(a, 0x3333_3333_3333_3333);
    round::<1>(a, 0x5555_5555_5555_5555);
}

/// One 64-row bit matrix shared by `64 / bs` consecutive small blocks:
/// rows `bs*j .. bs*(j+1)` hold block `j`'s coefficients, so a single
/// 64x64 bit-matrix transpose yields every block's plane words at once
/// instead of one per-plane extraction loop per block. The same layout
/// runs in both
/// directions: `gather` + [`Self::block_planes`] feed the encoder,
/// [`Self::set_block_planes`] + `scatter` collect the decoder's output.
pub struct PlaneBatch {
    planes: [u64; 64],
    bs: usize,
}

impl PlaneBatch {
    /// Number of `bs`-coefficient blocks one batch covers.
    #[inline]
    pub fn group(bs: usize) -> usize {
        64 / bs
    }

    /// Gathers up to `64/bs` blocks' coefficients (concatenated in
    /// `coeffs`) for encoding. Rows past `coeffs.len()` stay zero.
    pub fn gather(coeffs: &[u64], bs: usize) -> Self {
        debug_assert!(bs < 64 && 64 % bs == 0 && coeffs.len() <= 64);
        let mut planes = [0u64; 64];
        planes[..coeffs.len()].copy_from_slice(coeffs);
        transpose64(&mut planes);
        Self { planes, bs }
    }

    /// Empty batch accumulating decoded sub-blocks.
    pub fn collect(bs: usize) -> Self {
        debug_assert!(bs < 64 && 64 % bs == 0);
        Self {
            planes: [0u64; 64],
            bs,
        }
    }

    /// Plane words of sub-block `j` (bit `i` of word `k` = coefficient
    /// `i`'s bit `k`), ready for [`encode_plane_words`].
    #[inline]
    pub fn block_planes(&self, j: usize) -> [u64; 64] {
        let sh = self.bs * j;
        let mask = (1u64 << self.bs) - 1;
        let mut out = [0u64; 64];
        for (o, p) in out.iter_mut().zip(&self.planes) {
            *o = (p >> sh) & mask;
        }
        out
    }

    /// Deposits sub-block `j`'s decoded plane words into the batch.
    #[inline]
    pub fn set_block_planes(&mut self, j: usize, words: &[u64; 64]) {
        let sh = self.bs * j;
        for (p, w) in self.planes.iter_mut().zip(words) {
            *p |= w << sh;
        }
    }

    /// Scatters the accumulated planes back into coefficient rows with
    /// one transpose; `coeffs` receives the first `coeffs.len()` rows.
    // audit:allow-fn(L1): `planes` is a fixed [u64; 64] and every caller
    // scatters a batch of `group * bs == 64` coefficients at most (the
    // final partial group is shorter), so `planes[..coeffs.len()]` is in
    // range for any stream.
    pub fn scatter(mut self, coeffs: &mut [u64]) {
        transpose64(&mut self.planes);
        coeffs.copy_from_slice(&self.planes[..coeffs.len()]);
    }
}

/// Encodes bit planes `intprec-1 .. kmin` of `coeffs` (negabinary, one u64
/// per coefficient, `coeffs.len() <= 64`).
pub fn encode_planes(w: &mut BitWriter, coeffs: &[u64], intprec: u32, kmin: u32) {
    let size = coeffs.len();
    debug_assert!(size <= 64);
    // Full 3D blocks: gather every plane up front with one bit transpose.
    // Smaller standalone blocks (4, 16 coefficients) extract plane words
    // with the short loop; chunked call sites batch them through a shared
    // transpose instead (see [`PlaneBatch`]).
    let mut planes = [0u64; 64];
    if size == 64 {
        planes.copy_from_slice(coeffs);
        transpose64(&mut planes);
    } else {
        for k in kmin..intprec {
            let mut x = 0;
            for (i, &c) in coeffs.iter().enumerate() {
                x |= ((c >> k) & 1) << i;
            }
            planes[k as usize] = x;
        }
    }
    encode_plane_words(w, &planes, size, intprec, kmin);
}

/// Group-test encodes pre-gathered plane words (bit `i` of `planes[k]` =
/// coefficient `i`'s bit `k`) for a block of `size` coefficients. Core of
/// every encode entry point; the stream is bit-identical to the reference
/// per-plane/per-bit loop.
pub fn encode_plane_words(
    w: &mut BitWriter,
    planes: &[u64; 64],
    size: usize,
    intprec: u32,
    kmin: u32,
) {
    // The first `n` coefficients are already significant.
    let mut n: usize = 0;
    let mut k = intprec;
    while k > kmin {
        k -= 1;
        // While no coefficient is significant yet, an empty plane costs
        // exactly one 0 control bit. Those planes dominate scaled blocks
        // (~40 of 48 on the Nyx field), so emit the whole run as a single
        // multi-bit write instead of per-plane write_bit calls.
        if n == 0 && planes[k as usize] == 0 {
            let mut j = 1;
            while k > kmin && planes[(k - 1) as usize] == 0 && j < 64 {
                k -= 1;
                j += 1;
            }
            w.write_bits(0, j);
            continue;
        }
        let mut x = planes[k as usize];
        // Significant coefficients: verbatim bits.
        w.write_bits_lsb(x, n as u32);
        x = if n >= 64 { 0 } else { x >> n };
        // Group-test the rest, emitting whole unary runs in bulk. `z` is
        // the next significant coefficient's offset; `z == d` means it
        // sits in the final slot and its 1 is implicit.
        while n < size {
            if x == 0 {
                w.write_bit(false);
                break;
            }
            let d = size - 1 - n;
            let z = x.trailing_zeros() as usize;
            if z < d {
                // Control 1, z zeros, then the explicit terminating 1 —
                // one MSB-first write (z ≤ 62, so z + 2 ≤ 64 bits).
                w.write_bits((1 << (z + 1)) | 1, z as u32 + 2);
                x >>= z + 1;
                n += z + 1;
            } else {
                // Control 1 then d zeros; the final slot's 1 is implicit
                // (d ≤ 63, so d + 1 ≤ 64 bits).
                w.write_bits(1 << d, d as u32 + 1);
                n = size;
            }
        }
    }
}

/// Reads one group-test unary run: up to `d` zeros terminated by an
/// explicit 1, or exactly `d` zeros with the terminator implicit (the
/// significant coefficient is the block's last slot). Returns the zero
/// count.
///
/// Runs are scanned a buffered word at a time — `refill` + `peek_word` +
/// `leading_zeros` — instead of bit-by-bit; a run of `z` zeros costs
/// ~`z/57` refills rather than `z` reader calls.
#[inline]
fn read_unary_capped(r: &mut BitReader, d: usize) -> Result<usize> {
    // Cap of zero: the significant coefficient is already known to sit in
    // the final slot, its 1 is implicit and no bits are consumed. This must
    // be answered before probing the stream — the run may be the very last
    // thing in the payload, with nothing left to refill.
    if d == 0 {
        return Ok(0);
    }
    let mut zeros = 0usize;
    loop {
        r.refill();
        let avail = r.buffered_bits();
        if avail == 0 {
            return Err(pwrel_bitstream::Error::UnexpectedEof);
        }
        // Bits below the top `avail` of the window are zero and must not
        // count toward the run, hence the cap.
        let lz = (r.peek_word().leading_zeros().min(avail)) as usize;
        if zeros + lz >= d {
            r.consume((d - zeros) as u32);
            return Ok(d);
        }
        if lz < avail as usize {
            r.consume(lz as u32 + 1);
            return Ok(zeros + lz);
        }
        r.consume(avail);
        zeros += lz;
    }
}

/// Decodes bit planes written by [`encode_planes`] into `coeffs`
/// (must be zero-initialized, length = block size).
// audit:allow-fn(L1): `planes` is a fixed [u64; 64] and the plane index
// `k` iterates downward from `intprec <= 64`, so `planes[k as usize]`
// stays in range for any stream.
pub fn decode_planes(r: &mut BitReader, coeffs: &mut [u64], intprec: u32, kmin: u32) -> Result<()> {
    let size = coeffs.len();
    debug_assert!(size <= 64);
    // Mirror of the encoder's gather: plane words accumulate in a local
    // matrix and scatter into coefficients once at the end (full blocks
    // via one transpose, small blocks via the short per-plane loop).
    let mut planes = [0u64; 64];
    decode_plane_words(r, &mut planes, size, intprec, kmin)?;
    if size == 64 {
        transpose64(&mut planes);
        for (c, p) in coeffs.iter_mut().zip(&planes) {
            *c |= p;
        }
    } else {
        for k in kmin..intprec {
            let x = planes[k as usize];
            if x == 0 {
                continue;
            }
            for (i, c) in coeffs.iter_mut().enumerate() {
                *c |= ((x >> i) & 1) << k;
            }
        }
    }
    Ok(())
}

/// Group-test decodes one block's planes into pre-zeroed plane words
/// (mirror of [`encode_plane_words`]); scattering words back into
/// coefficients is the caller's job, so chunked call sites can batch it
/// through one shared transpose (see [`PlaneBatch`]).
pub fn decode_plane_words(
    r: &mut BitReader,
    planes: &mut [u64; 64],
    size: usize,
    intprec: u32,
    kmin: u32,
) -> Result<()> {
    // The first `n` coefficients are already significant.
    let mut n: usize = 0;
    let mut k = intprec;
    'outer: while k > kmin {
        k -= 1;
        // Mirror of the encoder's zero-plane batch: while nothing is
        // significant yet, each empty plane is a lone 0 control bit, so a
        // run of empty planes sits as a run of zeros in the buffered
        // window — skip them all with one peek + consume per refill.
        if n == 0 {
            loop {
                r.refill();
                let avail = r.buffered_bits();
                if avail == 0 {
                    return Err(pwrel_bitstream::Error::UnexpectedEof);
                }
                let lz = r.peek_word().leading_zeros().min(avail);
                let take = lz.min(k - kmin + 1);
                if take == 0 {
                    break; // plane k's control bit is a 1
                }
                r.consume(take);
                if take == k - kmin + 1 {
                    break 'outer; // every remaining plane was empty
                }
                k -= take;
                if lz < avail {
                    break; // a 1 follows in the buffer: plane k is live
                }
                // The window held nothing but zeros — refill and rescan.
            }
        }
        let mut x: u64 = r.read_bits_lsb(n as u32)?;
        // Mirror of the encoder's bulk runs: control bit + unary run are
        // parsed together from the peeked window ("1", z zeros, "1" —
        // terminator implicit when the run reaches the last slot). `avail`
        // tracks the window locally so several short runs share one refill.
        let mut avail = r.buffered_bits();
        while n < size {
            if avail < 34 {
                r.refill();
                avail = r.buffered_bits();
                if avail == 0 {
                    return Err(pwrel_bitstream::Error::UnexpectedEof);
                }
            }
            let wd = r.peek_word();
            if wd >> 63 == 0 {
                r.consume(1);
                break; // control 0: plane over
            }
            let d = size - 1 - n;
            if d == 0 {
                // Last slot: its terminating 1 is implicit.
                r.consume(1);
                x += 1u64 << n;
                n += 1;
                continue;
            }
            let lz = ((wd << 1).leading_zeros()).min(avail - 1) as usize;
            if lz >= d {
                // d buffered zeros: the run caps out, terminator implicit.
                r.consume(d as u32 + 1);
                avail -= d as u32 + 1;
                n += d;
            } else if (lz as u32) < avail - 1 {
                // Explicit terminating 1 inside the window.
                r.consume(lz as u32 + 2);
                avail -= lz as u32 + 2;
                n += lz;
            } else {
                // The zero run outlives the window: fall back to the
                // multi-refill scan for this (rare) case.
                r.consume(1);
                n += read_unary_capped(r, d)?;
                avail = r.buffered_bits();
            }
            x += 1u64 << n;
            n += 1;
        }
        planes[k as usize] = x;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_matches_naive_extraction() {
        let mut a = [0u64; 64];
        for (i, v) in a.iter_mut().enumerate() {
            *v = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(i as u32);
        }
        let orig = a;
        transpose64(&mut a);
        for (k, &plane) in a.iter().enumerate() {
            let mut naive = 0u64;
            for (i, &c) in orig.iter().enumerate() {
                naive |= ((c >> k) & 1) << i;
            }
            assert_eq!(plane, naive, "plane {k}");
        }
        // Involution: a second transpose restores the input.
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn negabinary_round_trip_64() {
        for x in [0i64, 1, -1, 2, -2, 1000, -1000, i64::MAX / 4, i64::MIN / 4] {
            assert_eq!(nb_decode(nb_encode(x, 64), 64), x, "x = {x}");
        }
    }

    #[test]
    fn negabinary_round_trip_32() {
        for x in [0i64, 1, -1, 123456, -123456, (1 << 30) - 1, -(1 << 30)] {
            assert_eq!(nb_decode(nb_encode(x, 32), 32), x, "x = {x}");
        }
    }

    #[test]
    fn negabinary_zero_is_zero() {
        assert_eq!(nb_encode(0, 32), 0);
        assert_eq!(nb_encode(0, 64), 0);
    }

    #[test]
    fn negabinary_magnitude_monotone_truncation() {
        // Truncating low planes of negabinary must give error < 2^planes.
        for x in [-100_000i64, -37, 12, 99_999] {
            let u = nb_encode(x, 64);
            for drop in [0u32, 4, 8] {
                let trunc = u >> drop << drop;
                let back = nb_decode(trunc, 64);
                assert!(
                    (back - x).abs() < (1i64 << (drop + 1)),
                    "x={x} drop={drop} back={back}"
                );
            }
        }
    }

    fn plane_round_trip(vals: &[i64], intprec: u32, kmin: u32) -> Vec<i64> {
        let coeffs: Vec<u64> = vals.iter().map(|&v| nb_encode(v, intprec)).collect();
        let mut w = BitWriter::new();
        encode_planes(&mut w, &coeffs, intprec, kmin);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = vec![0u64; vals.len()];
        decode_planes(&mut r, &mut out, intprec, kmin).unwrap();
        out.into_iter().map(|u| nb_decode(u, intprec)).collect()
    }

    #[test]
    fn all_planes_is_lossless() {
        let vals = [7i64, -13, 0, 255, -1_000_000, 1, 1 << 40, -(1 << 40)];
        assert_eq!(plane_round_trip(&vals, 64, 0), vals);
    }

    #[test]
    fn lossless_various_block_sizes() {
        for size in [4usize, 16, 64] {
            let vals: Vec<i64> = (0..size).map(|i| (i as i64 - 7) * 1001).collect();
            assert_eq!(plane_round_trip(&vals, 64, 0), vals);
        }
    }

    #[test]
    fn truncated_planes_bound_error() {
        let vals: Vec<i64> = (0..16).map(|i| (i as i64 * 7919) % 10007 - 5000).collect();
        for kmin in [4u32, 8, 12] {
            let out = plane_round_trip(&vals, 64, kmin);
            for (a, b) in vals.iter().zip(&out) {
                assert!(
                    (a - b).abs() < 1i64 << (kmin + 1),
                    "kmin={kmin}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn sparse_block_costs_few_bits() {
        // One significant coefficient among 64: group testing must keep the
        // stream tiny compared to 64 * 64 raw bits.
        let mut vals = vec![0i64; 64];
        vals[0] = 3;
        let coeffs: Vec<u64> = vals.iter().map(|&v| nb_encode(v, 64)).collect();
        let mut w = BitWriter::new();
        encode_planes(&mut w, &coeffs, 64, 0);
        let bits = w.bit_len();
        assert!(bits < 300, "bits = {bits}");
        assert_eq!(plane_round_trip(&vals, 64, 0), vals);
    }

    #[test]
    fn implicit_final_slot_one_at_byte_boundary_round_trips() {
        // Regression: the last significant coefficient sits in the block's
        // final slot, so its terminating 1 is implicit (zero run bits), and
        // the payload ends exactly on a byte boundary. The decoder must not
        // report EOF for the zero-bit run. These coefficients encode to
        // exactly 8 bits: three empty planes (3 bits) + plane 0's group
        // test (1 + "001" + 1 = 5 bits).
        let coeffs = [0u64, 0, 1, 1];
        let mut w = BitWriter::new();
        encode_planes(&mut w, &coeffs, 4, 0);
        assert_eq!(w.bit_len(), 8);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = vec![0u64; 4];
        decode_planes(&mut r, &mut out, 4, 0).unwrap();
        assert_eq!(out, coeffs);
    }

    #[test]
    fn zero_block_is_one_bit_per_plane() {
        let vals = [0i64; 16];
        let coeffs: Vec<u64> = vals.iter().map(|&v| nb_encode(v, 64)).collect();
        let mut w = BitWriter::new();
        encode_planes(&mut w, &coeffs, 64, 0);
        assert_eq!(w.bit_len(), 64);
    }
}
