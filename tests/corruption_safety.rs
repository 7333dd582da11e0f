//! Decoder robustness: corrupted or truncated streams must produce errors
//! (or garbage data of the right shape), never panics or unbounded
//! allocations.

use proptest::prelude::*;
use pwrel::core::{LogBase, PwRelCompressor};
use pwrel::data::{AbsErrorCodec, Dims};
use pwrel::fpzip::FpzipCompressor;
use pwrel::isabela::IsabelaCompressor;
use pwrel::lossless::lz;
use pwrel::sz::SzCompressor;
use pwrel::zfp::ZfpCompressor;
use pwrel_trace::noop;

fn read_uvarint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        value |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return value;
        }
        shift += 7;
    }
}

fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Uvarint image of the interleaved Huffman marker `(1 << 29) | 4` that
/// leads every 4-way packed buffer.
const INTERLEAVED_MARKER_BYTES: [u8; 5] = [0x84, 0x80, 0x80, 0x80, 0x02];

/// Descriptor forgeries for the first interleaved Huffman buffer inside
/// a raw byte image: each `(what, forged_copy)` violates one field the
/// format makes fully redundant (lane symbol counts must equal the
/// round-robin split of `n`, lane byte lengths must sum to the payload
/// length, the marker routes the mode), so every entry must decode as
/// `Corrupt` — never panic — at every engine level.
fn forged_interleaved_descriptors(raw: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let at = raw
        .windows(INTERLEAVED_MARKER_BYTES.len())
        .position(|w| w == INTERLEAVED_MARKER_BYTES)
        .expect("interleaved marker present");
    // Walk marker | table (alphabet, n_used, n_used x (delta, len)) |
    // n | payload_len to the descriptor's count and length fields.
    let mut pos = at + INTERLEAVED_MARKER_BYTES.len();
    read_uvarint(raw, &mut pos);
    let n_used = read_uvarint(raw, &mut pos);
    for _ in 0..2 * n_used {
        read_uvarint(raw, &mut pos);
    }
    read_uvarint(raw, &mut pos);
    read_uvarint(raw, &mut pos);
    let counts_at = pos;
    for _ in 0..4 {
        read_uvarint(raw, &mut pos);
    }
    let lens_at = pos;
    for _ in 0..4 {
        read_uvarint(raw, &mut pos);
    }
    let payload_at = pos;

    let mut bad_count = raw.to_vec();
    bad_count[counts_at] ^= 0x01;
    let mut bad_len = raw.to_vec();
    bad_len[lens_at] ^= 0x01;
    let mut bad_marker = raw.to_vec();
    bad_marker[at + 4] = 0x03; // marker becomes (3 << 28) | 4: legacy route
    let mut overflow = raw[..lens_at].to_vec();
    for _ in 0..4 {
        write_uvarint(&mut overflow, u64::MAX / 2);
    }
    overflow.extend_from_slice(&raw[payload_at..]);
    vec![
        ("lane symbol count off by one", bad_count),
        ("lane byte length off by one", bad_len),
        ("marker tag corrupted", bad_marker),
        ("lane byte lengths overflow", overflow),
    ]
}

/// Splits a `PWT1` transform container into its header prefix (through
/// the sign section, before the inner-length field) and the *raw* inner
/// SZ body, undoing the inner stream's optional LZ wrapper so forgeries
/// can address the Huffman bytes directly.
fn split_transform(pwt1: &[u8]) -> (Vec<u8>, Vec<u8>) {
    assert_eq!(&pwt1[..4], b"PWT1");
    let mut pos = 4 + 1 + 1 + 1 + 8 + 8; // magic, width, base, sign flag, bounds
    if pwt1[6] == 1 {
        let n = read_uvarint(pwt1, &mut pos);
        pos += n as usize;
    }
    let len_at = pos;
    let inner_len = read_uvarint(pwt1, &mut pos) as usize;
    assert_eq!(
        pos + inner_len,
        pwt1.len(),
        "inner stream fills the container"
    );
    let inner = &pwt1[pos..];
    let raw = match inner[0] {
        0 => inner[1..].to_vec(),
        1 => lz::decompress(&inner[1..]).expect("valid LZ wrapper"),
        w => panic!("unknown SZ wrapper byte {w}"),
    };
    (pwt1[..len_at].to_vec(), raw)
}

/// Re-assembles a `PWT1` container around a (possibly forged) raw SZ
/// body using the always-valid uncompressed wrapper.
fn rebuild_transform(prefix: &[u8], raw_body: &[u8]) -> Vec<u8> {
    let mut out = prefix.to_vec();
    write_uvarint(&mut out, raw_body.len() as u64 + 1);
    out.push(0);
    out.extend_from_slice(raw_body);
    out
}

fn sample_field() -> (Vec<f32>, Dims) {
    let dims = Dims::d2(16, 24);
    let data = (0..dims.len())
        .map(|i| ((i as f32) * 0.37).sin() * 40.0 + 1.0)
        .collect();
    (data, dims)
}

/// All valid streams to mutate.
fn streams() -> Vec<(&'static str, Vec<u8>)> {
    let (data, dims) = sample_field();
    vec![
        (
            "sz_abs",
            SzCompressor::default()
                .compress_abs(&data, dims, 0.01, noop())
                .unwrap(),
        ),
        (
            "sz_pwr",
            SzCompressor::default()
                .compress_pwr(&data, dims, 0.01)
                .unwrap(),
        ),
        (
            "zfp",
            ZfpCompressor
                .compress_accuracy(&data, dims, 0.01, noop())
                .unwrap(),
        ),
        (
            "fpzip",
            FpzipCompressor::new(16).compress(&data, dims).unwrap(),
        ),
        (
            "isabela",
            IsabelaCompressor::default()
                .compress_rel(&data, dims, 0.01)
                .unwrap(),
        ),
        (
            "sz_t",
            PwRelCompressor::new(SzCompressor::default(), LogBase::Two)
                .compress(&data, dims, 0.01, noop())
                .unwrap(),
        ),
    ]
}

/// Decodes a stream with every decoder; must never panic.
fn try_all_decoders(name: &str, bytes: &[u8]) {
    let _ = SzCompressor::default().decompress::<f32>(bytes, noop());
    let _ = ZfpCompressor.decompress::<f32>(bytes, noop());
    let _ = pwrel::fpzip::decompress::<f32>(bytes);
    let _ = pwrel::isabela::decompress::<f32>(bytes);
    let _ = PwRelCompressor::new(SzCompressor::default(), LogBase::Two)
        .decompress::<f32>(bytes, noop());
    let _ = name;
}

#[test]
fn truncation_never_panics() {
    for (name, stream) in streams() {
        for cut in 0..stream.len().min(64) {
            try_all_decoders(name, &stream[..cut]);
        }
        // Also a few cuts spread through the body.
        for frac in 1..8 {
            let cut = stream.len() * frac / 8;
            try_all_decoders(name, &stream[..cut]);
        }
    }
}

#[test]
fn single_byte_flips_never_panic() {
    for (name, stream) in streams() {
        // Exhaustive over header bytes, sampled over the body.
        let positions: Vec<usize> = (0..stream.len().min(48))
            .chain((48..stream.len()).step_by(37))
            .collect();
        for pos in positions {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = stream.clone();
                bad[pos] ^= flip;
                try_all_decoders(name, &bad);
            }
        }
    }
}

/// Targeted forgeries for decode-path panic sites converted to
/// structured errors (audit lint L1): each test drives the exact parse
/// the site guards and asserts an `Err`, not a panic.
mod forged {
    use super::*;
    use pwrel::data::CodecError;
    use pwrel::lossless::huffman;
    use pwrel::pipeline::{container, global};

    /// `PwRelCompressor::decompress_full` header reads (and the
    /// `bytesio::take_n` f64 reads behind them): every truncation of the
    /// `PWT1` header must error.
    #[test]
    fn truncated_transform_header_errors() {
        let (data, dims) = sample_field();
        let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
        let stream = codec.compress(&data, dims, 0.01, noop()).unwrap();
        for cut in 0..stream.len().min(40) {
            assert!(
                codec.decompress::<f32>(&stream[..cut], noop()).is_err(),
                "cut={cut}"
            );
        }
    }

    /// ZFP header byte reads in `decompress`: a stream cut inside the
    /// 7-byte header must error, never index out of bounds.
    #[test]
    fn truncated_zfp_header_errors() {
        let (data, dims) = sample_field();
        let stream = ZfpCompressor
            .compress_accuracy(&data, dims, 0.01, noop())
            .unwrap();
        for cut in 0..8 {
            assert!(
                ZfpCompressor
                    .decompress::<f32>(&stream[..cut], noop())
                    .is_err(),
                "cut={cut}"
            );
        }
    }

    /// Unified-container magic probe on inputs shorter than the magic.
    #[test]
    fn short_container_probe_is_safe() {
        assert!(!container::is_unified(b""));
        assert!(!container::is_unified(b"PW"));
        assert!(container::unwrap(b"PWU1").is_err());
    }

    /// SZ mode byte 2 was the Lorenzo/regression predictor's mode, which
    /// no encoder writes any more: an absolute-bound stream with its mode
    /// byte rewritten from 0 to 2 is an unknown mode, not a stream to
    /// parse further.
    #[test]
    fn sz_mode_byte_2_is_an_unknown_mode() {
        let (data, dims) = sample_field();
        let cfg = SzCompressor {
            lossless_pass: false,
            ..SzCompressor::default()
        };
        let mut stream = cfg.compress_abs(&data, dims, 0.01, noop()).unwrap();
        assert!(cfg.decompress::<f32>(&stream, noop()).is_ok());
        // wrapper byte, magic, float width, then the mode byte.
        let mode_at = 1 + 4 + 1;
        assert_eq!(stream[mode_at], 0);
        stream[mode_at] = 2;
        match cfg.decompress::<f32>(&stream, noop()) {
            Err(CodecError::Corrupt("unknown mode")) => {}
            other => panic!("expected unknown mode, got {:?}", other.map(|_| ())),
        }
    }

    /// An SZ header whose capacity uvarint exceeds `u32`: 2^32 + 65536
    /// once truncated to 65536, the stream's real capacity, and decoded
    /// as if it were valid. It must be `Corrupt`.
    #[test]
    fn sz_capacity_past_u32_is_corrupt() {
        let (data, dims) = sample_field();
        let cfg = SzCompressor {
            lossless_pass: false,
            ..SzCompressor::default()
        };
        let stream = cfg.compress_abs(&data, dims, 0.01, noop()).unwrap();
        assert!(cfg.decompress::<f32>(&stream, noop()).is_ok());
        // wrapper byte, magic, float width, mode, rank, then nx, ny, nz.
        let mut pos = 1 + 4 + 3;
        for _ in 0..3 {
            read_uvarint(&stream, &mut pos);
        }
        let cap_at = pos;
        assert_eq!(read_uvarint(&stream, &mut pos), 65536);
        let mut forged = stream[..cap_at].to_vec();
        write_uvarint(&mut forged, (1 << 32) + 65536);
        forged.extend_from_slice(&stream[pos..]);
        match cfg.decompress::<f32>(&forged, noop()) {
            Err(CodecError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// An LZ Huffman-token container whose table codes symbols past the
    /// byte alphabet: every token symbol re-coded as `s + 256`, which a
    /// truncating cast maps back onto the original token bytes. It must
    /// be rejected, not decoded.
    #[test]
    fn lz_token_symbols_past_a_byte_are_rejected() {
        let mut x = 0x2545_F491u32;
        let input: Vec<u8> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                b'a' + (x % 16) as u8
            })
            .collect();
        let packed = lz::compress(&input);
        assert_eq!(packed[0], 2, "input takes the Huffman-token mode");
        assert_eq!(lz::decompress(&packed).unwrap(), input);
        // mode byte, raw length, then the Huffman buffer of token bytes.
        let mut pos = 1;
        read_uvarint(&packed, &mut pos);
        let header_end = pos;
        let wide: Vec<u32> = huffman::decode_symbols(&packed, &mut pos)
            .unwrap()
            .into_iter()
            .map(|s| s + 256)
            .collect();
        let mut forged = packed[..header_end].to_vec();
        forged.extend_from_slice(&huffman::encode_symbols(&wide, 512));
        assert!(lz::decompress(&forged).is_err());
    }

    /// An SZ stream with a forged mode byte that no decoder routes:
    /// previously an `unreachable!` in the plain decoder, now `Corrupt`.
    #[test]
    fn unrouted_sz_mode_errors_not_panics() {
        let (data, dims) = sample_field();
        let stream = SzCompressor::default()
            .compress_abs(&data, dims, 0.01, noop())
            .unwrap();
        // Flip the mode tag (byte 5, after magic + float_bits) through all
        // 256 values; decoding must never panic and unknown or
        // inconsistent modes must error.
        for tag in 0u8..=255 {
            let mut bad = stream.clone();
            bad[5] = tag;
            let _ = SzCompressor::default().decompress::<f32>(&bad, noop());
        }
    }

    /// A 16-value FPZ1 stream whose header is rewritten to rank 2 with
    /// nx = 2^63 + 8 and ny = 2: the point count wraps `usize` to 16, the
    /// stream's real count, and the decoder then indexed past its class
    /// table. `Dims::from_header` must refuse the header, both when fpzip
    /// is called directly and when the registry routes the payload out of
    /// a container.
    #[test]
    fn dims_whose_point_count_wraps_are_corrupt() {
        let dims = Dims::d1(16);
        let data: Vec<f32> = (0..16).map(|i| i as f32 * 0.75 + 1.0).collect();
        let stream = FpzipCompressor::new(16).compress(&data, dims).unwrap();
        assert!(pwrel::fpzip::decompress::<f32>(&stream).is_ok());
        // magic, float width, precision, then rank and nx, ny, nz.
        let rank_at = 4 + 2;
        let mut pos = rank_at + 1;
        for _ in 0..3 {
            read_uvarint(&stream, &mut pos);
        }
        let mut forged = stream[..rank_at].to_vec();
        forged.push(2);
        for extent in [(1 << 63) + 8, 2, 1] {
            write_uvarint(&mut forged, extent);
        }
        forged.extend_from_slice(&stream[pos..]);
        let direct = pwrel::fpzip::decompress::<f32>(&forged).map(|_| ());
        let opts = pwrel::pipeline::CompressOpts::rel(1e-3);
        let unified = global().compress("fpzip", &data, dims, &opts).unwrap();
        let (header, _) = container::unwrap(&unified).unwrap();
        let routed = global()
            .decompress::<f32>(&container::wrap(&header, &forged))
            .map(|_| ());
        for (path, result) in [("fpzip", direct), ("registry", routed)] {
            match result {
                Err(CodecError::Corrupt("bad dims")) => {}
                other => panic!("{path}: expected Corrupt(bad dims), got {other:?}"),
            }
        }
    }

    /// An FPZ1 stream whose class table codes a class past the raw escape
    /// (65): the residual decoder handles bit lengths up to 64 only.
    #[test]
    fn fpzip_class_past_the_raw_escape_is_corrupt() {
        let dims = Dims::d1(16);
        let data: Vec<f32> = (0..16).map(|i| i as f32 * 0.75 + 1.0).collect();
        let stream = FpzipCompressor::new(16).compress(&data, dims).unwrap();
        // magic, float width, precision, rank, then nx, ny, nz.
        let mut pos = 4 + 3;
        for _ in 0..3 {
            read_uvarint(&stream, &mut pos);
        }
        let len_at = pos;
        let classes_len = read_uvarint(&stream, &mut pos) as usize;
        let classes_end = pos + classes_len;
        let mut classes = huffman::decode_symbols(&stream, &mut pos).unwrap();
        classes[0] = 70;
        let table = huffman::encode_symbols(&classes, 128);
        let mut forged = stream[..len_at].to_vec();
        write_uvarint(&mut forged, table.len() as u64);
        forged.extend_from_slice(&table);
        forged.extend_from_slice(&stream[classes_end..]);
        match pwrel::fpzip::decompress::<f32>(&forged) {
            Err(CodecError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    /// ISABELA's escape count times the element width: a count whose
    /// byte length wraps (2^61 f64 escapes wrap to 0 bytes) must be
    /// corrupt, not an overflow panic or a decode that ignores it.
    #[test]
    fn isabela_escape_count_whose_bytes_wrap_is_corrupt() {
        let dims = Dims::d1(64);
        let data: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin() + 2.0).collect();
        let stream = IsabelaCompressor::default()
            .compress_rel(&data, dims, 1e-2)
            .unwrap();
        // magic, float width, rank, nx ny nz, bound f64, window, knots,
        // then three length-prefixed sections (permutation, knots,
        // symbols) before the escape count.
        let mut pos = 4 + 2;
        for _ in 0..3 {
            read_uvarint(&stream, &mut pos);
        }
        pos += 8;
        read_uvarint(&stream, &mut pos);
        read_uvarint(&stream, &mut pos);
        for _ in 0..3 {
            let len = read_uvarint(&stream, &mut pos) as usize;
            pos += len;
        }
        let count_at = pos;
        let mut forged = stream[..count_at].to_vec();
        read_uvarint(&stream, &mut pos);
        write_uvarint(&mut forged, 1 << 61);
        forged.extend_from_slice(&stream[pos..]);
        match pwrel::isabela::decompress::<f64>(&forged) {
            Err(CodecError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    /// Walks a Huffman buffer from `encode_symbols` to its first table
    /// entry: past the interleaved marker, the alphabet and the used count.
    fn first_table_entry(buf: &[u8]) -> usize {
        assert!(buf.starts_with(&INTERLEAVED_MARKER_BYTES));
        let mut pos = INTERLEAVED_MARKER_BYTES.len();
        read_uvarint(buf, &mut pos);
        read_uvarint(buf, &mut pos);
        pos
    }

    /// A Huffman table entry of length 2^32 + 1 once truncated to length
    /// 1, the entry's real length, and the buffer decoded as if valid.
    #[test]
    fn huffman_code_length_past_u32_is_rejected() {
        let symbols: Vec<u32> = (0..64).map(|i| i % 2).collect();
        let buf = huffman::encode_symbols(&symbols, 2);
        let mut pos = first_table_entry(&buf);
        assert_eq!(read_uvarint(&buf, &mut pos), 0, "first symbol");
        let len_at = pos;
        assert_eq!(read_uvarint(&buf, &mut pos), 1, "first length");
        let mut forged = buf[..len_at].to_vec();
        write_uvarint(&mut forged, (1 << 32) + 1);
        forged.extend_from_slice(&buf[pos..]);
        match huffman::decode_symbols(&forged, &mut 0) {
            Err(pwrel::bitstream::Error::InvalidValue(_)) => {}
            other => panic!("expected InvalidValue, got {other:?}"),
        }
    }

    /// A Huffman table whose second symbol delta is u64::MAX: the running
    /// symbol sum overflowed, and a wrapped sum built the table from
    /// unsorted pairs.
    #[test]
    fn huffman_symbol_sum_overflow_is_rejected() {
        let symbols: Vec<u32> = (0..64).map(|i| 1 + i % 2).collect();
        let buf = huffman::encode_symbols(&symbols, 3);
        let mut pos = first_table_entry(&buf);
        assert_eq!(read_uvarint(&buf, &mut pos), 1, "first symbol");
        assert_eq!(read_uvarint(&buf, &mut pos), 1, "first length");
        let delta_at = pos;
        assert_eq!(read_uvarint(&buf, &mut pos), 1, "second delta");
        let mut forged = buf[..delta_at].to_vec();
        write_uvarint(&mut forged, u64::MAX);
        forged.extend_from_slice(&buf[pos..]);
        match huffman::decode_symbols(&forged, &mut 0) {
            Err(pwrel::bitstream::Error::InvalidValue(_)) => {}
            other => panic!("expected InvalidValue, got {other:?}"),
        }
    }

    /// A ZFP precision-mode stream (`-p 5`) with its precision field
    /// rewritten to values the encoder refuses: 2^32 + 5, which a
    /// truncating cast read as 5 and decoded as if valid, then 0 and
    /// F::BITS + 3.
    #[test]
    fn zfp_precision_outside_the_encoder_range_is_corrupt() {
        let (data, dims) = sample_field();
        let stream = ZfpCompressor
            .compress_precision(&data, dims, 5, noop())
            .unwrap();
        // magic, float width, mode, rank, then nx, ny, nz.
        let mut pos = 4 + 3;
        for _ in 0..3 {
            read_uvarint(&stream, &mut pos);
        }
        let p_at = pos;
        assert_eq!(read_uvarint(&stream, &mut pos), 5);
        for p in [(1 << 32) + 5, 0, 35] {
            let mut forged = stream[..p_at].to_vec();
            write_uvarint(&mut forged, p);
            forged.extend_from_slice(&stream[pos..]);
            match ZfpCompressor.decompress::<f32>(&forged, noop()) {
                Err(CodecError::Corrupt("bad precision")) => {}
                other => panic!(
                    "precision {p}: expected Corrupt, got {:?}",
                    other.map(|_| ())
                ),
            }
        }
    }

    /// ZFP mode byte 2 was fixed-rate mode, which no encoder writes any
    /// more: it is an unknown mode, not a stream to parse further.
    #[test]
    fn zfp_mode_byte_2_is_an_unknown_mode() {
        let (data, dims) = sample_field();
        let mut forged = ZfpCompressor
            .compress_precision(&data, dims, 5, noop())
            .unwrap();
        // Byte 5, after magic + float width.
        assert_eq!(forged[5], 1);
        forged[5] = 2;
        match ZfpCompressor.decompress::<f32>(&forged, noop()) {
            Err(CodecError::Corrupt("unknown zfp mode")) => {}
            other => panic!("expected unknown zfp mode, got {:?}", other.map(|_| ())),
        }
    }
}

/// Allocation bombs found by the L5 taint lint: decode-path length
/// fields that used to size `Vec` allocations straight from the stream.
/// Each forgery claims an absurd length in a header a decoder once
/// trusted; the fixed decoders must reject (or cap the reservation)
/// before any memory proportional to the claim is touched.
mod allocation_bombs {
    use super::*;
    use pwrel::lossless::{lz, rle};

    /// `rle::decompress_bits` previously did
    /// `Vec::with_capacity(read_uvarint(..))` — a forged bitmap header
    /// could demand an arbitrary allocation before any run was decoded.
    /// The fix gates the stored count on the caller's `max_bits`.
    #[test]
    fn rle_bit_count_bomb_is_rejected() {
        for forged_count in [u64::MAX, 1 << 60, 4097] {
            for mode in [0u8, 1] {
                // MODE_RLE / MODE_PACKED header claiming `forged_count` bits.
                let mut forged = vec![mode];
                write_uvarint(&mut forged, forged_count);
                forged.push(1);
                let mut pos = 0;
                assert!(
                    rle::decompress_bits(&forged, &mut pos, 4096).is_err(),
                    "mode={mode} count={forged_count}"
                );
            }
        }
    }

    /// `lz::detokenize` previously did `Vec::with_capacity(raw_len)`
    /// with `raw_len` read straight from the container header. The fix
    /// caps the upfront reservation; growth past the cap is paid for by
    /// actual decoded bytes, so a tiny stream claiming 2^60 bytes fails
    /// at its first token instead of reserving the claim.
    #[test]
    fn lz_raw_len_bomb_is_capped() {
        // MODE_TOKENS (tag 1): claims u64::MAX/2 output bytes, supplies
        // one 4-byte literal run and nothing else.
        let mut forged = vec![1u8];
        write_uvarint(&mut forged, u64::MAX / 2);
        write_uvarint(&mut forged, 4);
        forged.extend_from_slice(b"abcd");
        assert!(lz::decompress(&forged).is_err());

        // MODE_STORED (tag 0): claims 2^60 stored bytes, supplies 4.
        let mut forged = vec![0u8];
        write_uvarint(&mut forged, 1 << 60);
        forged.extend_from_slice(b"abcd");
        assert!(lz::decompress(&forged).is_err());
    }

    /// A match token longer than any encoder emits (`MAX_MATCH` = 64 KiB):
    /// a handful of token bytes used to expand to the header's whole raw
    /// length, up to gigabytes. A 16 MiB claim keeps the old decoder's
    /// output bearable; it must now be rejected.
    #[test]
    fn lz_match_longer_than_any_encoder_emits_is_rejected() {
        let raw_len = 1u64 << 24;
        // MODE_TOKENS (tag 1): one literal, then one match repeating it.
        let mut forged = vec![1u8];
        write_uvarint(&mut forged, raw_len);
        write_uvarint(&mut forged, 1);
        forged.push(b'a');
        write_uvarint(&mut forged, raw_len - 1 - 4); // match_len - MIN_MATCH
        write_uvarint(&mut forged, 0); // distance - 1
        assert!(lz::decompress(&forged).is_err());
    }

    /// End to end through the `PWT1` transform container: a forged sign
    /// section whose inner RLE bitmap claims u64::MAX bits must surface
    /// as a decode error from the public codec entry point — the sign
    /// plane is one bit per element, and the decoder knows the element
    /// count before it ever reads the bitmap header.
    #[test]
    fn forged_sign_bitmap_count_errors() {
        let dims = Dims::d2(8, 8);
        let data: Vec<f32> = (0..dims.len())
            .map(|i| (if i % 3 == 0 { -2.0 } else { 1.5 }) * (1.0 + i as f32 * 0.01))
            .collect();
        let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
        let stream = codec.compress(&data, dims, 0.01, noop()).unwrap();
        assert_eq!(stream[6], 1, "mixed-sign field stores a sign section");
        let sign_len_at = 4 + 1 + 1 + 1 + 8 + 8; // magic, width, base, flag, bounds
        let mut pos = sign_len_at;
        let n = read_uvarint(&stream, &mut pos);
        let sign_end = pos + n as usize;
        // Forged bitmap: RLE mode (tag 0) claiming u64::MAX bits, wrapped
        // in the LZ layer the section format expects.
        let mut bomb = vec![0u8];
        write_uvarint(&mut bomb, u64::MAX);
        bomb.push(1);
        let blob = lz::compress(&bomb);
        let mut bad = stream[..sign_len_at].to_vec();
        write_uvarint(&mut bad, blob.len() as u64);
        bad.extend_from_slice(&blob);
        bad.extend_from_slice(&stream[sign_end..]);
        assert!(codec.decompress::<f32>(&bad, noop()).is_err());
    }
}

/// Framed-stream (`PWS1`) forgeries: every corruption class the format
/// is specified to reject — truncated stream header, truncated frame
/// payload, inflated payload-length fields, reordered frames — must
/// surface `Corrupt` from both the sequential registry decoder and the
/// pipelined `ChunkedCodec` decoder, never panic.
mod framed {
    use super::*;
    use pwrel::data::CodecError;
    use pwrel::parallel::{ChunkedCodec, WorkerPool};
    use pwrel::pipeline::{global, CompressOpts, SliceSource, VecSink};

    /// Elements per chunk used by every forgery (4 slices of the 16x24
    /// sample field: 6 frames).
    const CHUNK_ELEMS: usize = 4 * 16;

    /// A valid framed `sz_t` stream over the sample field.
    fn framed_stream() -> Vec<u8> {
        let (data, dims) = sample_field();
        let mut src = SliceSource::new(&data);
        let mut out = Vec::new();
        global()
            .compress_stream::<f32>(
                "sz_t",
                &mut src,
                &mut out,
                dims,
                &CompressOpts::rel(0.01),
                CHUNK_ELEMS,
            )
            .unwrap();
        out
    }

    /// Byte offsets of every structural landmark in a framed stream:
    /// the header end plus, per frame, `(frame_start, len_field_start,
    /// payload_start, payload_len)`.
    fn frame_spans(bytes: &[u8]) -> (usize, Vec<(usize, usize, usize, u64)>) {
        let mut pos = 4 + 1 + 1 + 1 + 1; // magic, version, codec, bits, rank
        for _ in 0..3 {
            read_uvarint(bytes, &mut pos); // nx ny nz
        }
        pos += 8 + 1 + 1; // bound, base, entropy mode (v2)
        let n_chunks = read_uvarint(bytes, &mut pos);
        let header_end = pos;
        let mut frames = Vec::new();
        for _ in 0..n_chunks {
            let frame_start = pos;
            assert_eq!(bytes[pos], 0xF7, "frame marker");
            pos += 1;
            for _ in 0..3 {
                read_uvarint(bytes, &mut pos); // index, start, n_elems
            }
            pos += 8; // bound
            let len_field_start = pos;
            let payload_len = read_uvarint(bytes, &mut pos);
            frames.push((frame_start, len_field_start, pos, payload_len));
            pos += payload_len as usize;
        }
        assert_eq!(pos, bytes.len(), "walker covered the stream");
        (header_end, frames)
    }

    /// Runs a forged stream through the stream engine on both executors
    /// (inline and pooled); each must return `Corrupt` without panicking.
    fn assert_corrupt(bytes: &[u8], what: &str) {
        let mut sink = VecSink::<f32>::new();
        match global().decompress_stream::<f32>(&mut &bytes[..], &mut sink) {
            Err(CodecError::Corrupt(_)) => {}
            other => panic!("{what}: sequential decode gave {other:?}"),
        }
        let chunked = ChunkedCodec::new(WorkerPool::new(2), CHUNK_ELEMS);
        let mut sink = VecSink::<f32>::new();
        match chunked.decompress_stream::<f32>(global(), &mut &bytes[..], &mut sink) {
            Err(CodecError::Corrupt(_)) => {}
            other => panic!("{what}: pipelined decode gave {other:?}"),
        }
        // The one-shot entry sniffs the magic and routes here too.
        let _ = global().decompress::<f32>(bytes);
    }

    /// Sanity: the unforged stream decodes identically through both
    /// engines.
    #[test]
    fn intact_stream_decodes_on_both_engines() {
        let (data, dims) = sample_field();
        let stream = framed_stream();
        let mut seq = VecSink::<f32>::new();
        let (h, _) = global()
            .decompress_stream::<f32>(&mut &stream[..], &mut seq)
            .unwrap();
        assert_eq!(h.dims, dims);
        let chunked = ChunkedCodec::new(WorkerPool::new(2), CHUNK_ELEMS);
        let mut par = VecSink::<f32>::new();
        chunked
            .decompress_stream::<f32>(global(), &mut &stream[..], &mut par)
            .unwrap();
        let (seq, par) = (seq.into_inner(), par.into_inner());
        assert_eq!(seq, par);
        assert_eq!(seq.len(), data.len());
    }

    /// Every cut inside the stream header is `Corrupt`.
    #[test]
    fn truncated_stream_header_errors() {
        let stream = framed_stream();
        let (header_end, _) = frame_spans(&stream);
        for cut in 0..header_end {
            assert_corrupt(&stream[..cut], &format!("header cut={cut}"));
        }
    }

    /// Cuts inside a frame header or mid-payload are `Corrupt`, for the
    /// first frame and the last.
    #[test]
    fn truncated_mid_frame_errors() {
        let stream = framed_stream();
        let (_, frames) = frame_spans(&stream);
        for &(frame_start, _, payload_start, payload_len) in
            [frames[0], *frames.last().unwrap()].iter()
        {
            for cut in [
                frame_start,                              // before the marker
                frame_start + 1,                          // inside the frame header
                payload_start,                            // zero payload bytes
                payload_start + payload_len as usize / 2, // mid-payload
                payload_start + payload_len as usize - 1, // one byte short
            ] {
                assert_corrupt(&stream[..cut], &format!("frame cut={cut}"));
            }
        }
    }

    /// A payload-length field larger than the remaining bytes is
    /// `Corrupt` — both a modest lie (within the decoder's plausibility
    /// cap, caught by the short read) and an absurd one (beyond the cap,
    /// rejected before any allocation).
    #[test]
    fn inflated_payload_len_errors() {
        let stream = framed_stream();
        let (_, frames) = frame_spans(&stream);
        let (_, len_field_start, payload_start, payload_len) = frames[0];
        for forged_len in [
            stream.len() as u64, // modest: more than remains
            payload_len + 1,     // off by one
            u64::MAX / 2,        // absurd: fails the plausibility cap
        ] {
            let mut bad = stream[..len_field_start].to_vec();
            write_uvarint(&mut bad, forged_len);
            bad.extend_from_slice(&stream[payload_start..]);
            assert_corrupt(&bad, &format!("payload_len={forged_len}"));
        }
    }

    /// Replaces frame 0's payload, fixing its recorded length.
    fn splice_payload(
        stream: &[u8],
        len_field_start: usize,
        payload_start: usize,
        payload_len: u64,
        new_payload: &[u8],
    ) -> Vec<u8> {
        let mut out = stream[..len_field_start].to_vec();
        write_uvarint(&mut out, new_payload.len() as u64);
        out.extend_from_slice(new_payload);
        out.extend_from_slice(&stream[payload_start + payload_len as usize..]);
        out
    }

    /// Interleaved-Huffman descriptor forgeries inside a frame payload:
    /// the 4-way descriptor is validated before any sub-stream byte is
    /// read, so a forged lane count, lane length, marker, or
    /// overflowing length field inside frame 0 must surface `Corrupt`
    /// on both framed engines.
    #[test]
    fn forged_interleaved_descriptor_in_frame_errors() {
        let stream = framed_stream();
        let (_, frames) = frame_spans(&stream);
        let (_, len_field_start, payload_start, payload_len) = frames[0];
        let payload = &stream[payload_start..payload_start + payload_len as usize];
        let (prefix, raw) = super::split_transform(payload);
        // Walker sanity: the re-wrapped (unforged) frame still decodes.
        let rebuilt = splice_payload(
            &stream,
            len_field_start,
            payload_start,
            payload_len,
            &super::rebuild_transform(&prefix, &raw),
        );
        let mut sink = VecSink::<f32>::new();
        global()
            .decompress_stream::<f32>(&mut &rebuilt[..], &mut sink)
            .expect("rebuilt frame decodes");
        for (what, bad_raw) in super::forged_interleaved_descriptors(&raw) {
            let bad = splice_payload(
                &stream,
                len_field_start,
                payload_start,
                payload_len,
                &super::rebuild_transform(&prefix, &bad_raw),
            );
            assert_corrupt(&bad, what);
        }
    }

    /// Swapping two frames breaks the strictly-sequential index rule:
    /// `Corrupt`, not a silently reordered reconstruction.
    #[test]
    fn reordered_frames_error() {
        let stream = framed_stream();
        let (_, frames) = frame_spans(&stream);
        assert!(frames.len() >= 3, "need several frames to reorder");
        let (f0, _, _, _) = frames[0];
        let (f1, _, _, _) = frames[1];
        let (f2, _, _, _) = frames[2];
        let mut bad = stream[..f0].to_vec();
        bad.extend_from_slice(&stream[f1..f2]); // frame 1 first
        bad.extend_from_slice(&stream[f0..f1]); // then frame 0
        bad.extend_from_slice(&stream[f2..]);
        assert_eq!(bad.len(), stream.len());
        assert_corrupt(&bad, "frames 0 and 1 swapped");
    }
}

/// One-shot (`PWU1` unified container) forgeries of the interleaved
/// Huffman descriptor, plus the worker-count determinism contract of
/// pooled stream runs.
mod interleaved {
    use super::*;
    use pwrel::data::CodecError;
    use pwrel::parallel::{ChunkedCodec, WorkerPool};
    use pwrel::pipeline::{container, global, CompressOpts, SliceSource, VecSink};

    /// Every descriptor forgery inside a one-shot `sz_t` container is
    /// `Corrupt` from the unified decode entry and panics nowhere.
    #[test]
    fn forged_descriptors_are_corrupt_one_shot() {
        let (data, dims) = sample_field();
        let stream = global()
            .compress("sz_t", &data, dims, &CompressOpts::rel(0.01))
            .unwrap();
        let (header, pwt1) = container::unwrap(&stream).unwrap();
        let (prefix, raw) = super::split_transform(pwt1);
        // Walker sanity: re-wrapping the unforged body reproduces the
        // original values.
        let intact = container::wrap(&header, &super::rebuild_transform(&prefix, &raw));
        let (vals, d) = global().decompress::<f32>(&intact).unwrap();
        assert_eq!(d, dims);
        assert_eq!(vals.len(), data.len());
        for (what, bad_raw) in super::forged_interleaved_descriptors(&raw) {
            let bad = container::wrap(&header, &super::rebuild_transform(&prefix, &bad_raw));
            match global().decompress::<f32>(&bad) {
                Err(CodecError::Corrupt(_)) => {}
                other => panic!("{what}: one-shot decode gave {other:?}"),
            }
            try_all_decoders("forged sz_t container", &bad);
        }
    }

    /// Where chunks are coded is an execution detail: compressing and
    /// decompressing interleaved-entropy `sz_t` streams through 1, 2, and
    /// 4 workers must produce byte-identical streams and reconstructions
    /// identical to the inline executor's.
    #[test]
    fn worker_count_never_changes_bytes() {
        let dims = Dims::d2(64, 256);
        let data: Vec<f32> = (0..dims.len())
            .map(|i| ((i as f32) * 0.11).sin() * 300.0 + 5.0)
            .collect();
        let chunk = 4096;
        let opts = CompressOpts::rel(0.001);
        let mut seq_out = Vec::new();
        let mut src = SliceSource::new(&data);
        global()
            .compress_stream::<f32>("sz_t", &mut src, &mut seq_out, dims, &opts, chunk)
            .unwrap();
        let mut seq_sink = VecSink::<f32>::new();
        global()
            .decompress_stream::<f32>(&mut &seq_out[..], &mut seq_sink)
            .unwrap();
        let seq_dec = seq_sink.into_inner();
        assert_eq!(seq_dec.len(), data.len());
        for workers in [1usize, 2, 4] {
            let codec = ChunkedCodec::new(WorkerPool::new(workers), chunk);
            let mut out = Vec::new();
            let mut src = SliceSource::new(&data);
            codec
                .compress_stream::<f32>(global(), "sz_t", &mut src, &mut out, dims, &opts)
                .unwrap();
            assert_eq!(out, seq_out, "{workers} workers changed the stream bytes");
            let mut sink = VecSink::<f32>::new();
            codec
                .decompress_stream::<f32>(global(), &mut &out[..], &mut sink)
                .unwrap();
            assert_eq!(
                sink.into_inner(),
                seq_dec,
                "{workers} workers changed the reconstruction"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_mutations_never_panic(
        which in 0usize..6,
        mutations in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8)
    ) {
        let all = streams();
        let (name, stream) = &all[which];
        let mut bad = stream.clone();
        for (idx, byte) in mutations {
            let i = idx.index(bad.len());
            bad[i] = byte;
        }
        try_all_decoders(name, &bad);
    }

    #[test]
    fn random_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        try_all_decoders("garbage", &bytes);
    }

    // Framed streams under random byte mutations: both streaming decode
    // engines may reject but must never panic.
    #[test]
    fn framed_random_mutations_never_panic(
        mutations in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8)
    ) {
        use pwrel::pipeline::{global, CompressOpts, SliceSource, VecSink};
        use pwrel::parallel::{ChunkedCodec, WorkerPool};
        let (data, dims) = sample_field();
        let mut src = SliceSource::new(&data);
        let mut stream = Vec::new();
        global()
            .compress_stream::<f32>(
                "sz_t", &mut src, &mut stream, dims, &CompressOpts::rel(0.01), 4 * 16,
            )
            .unwrap();
        for (idx, byte) in mutations {
            let i = idx.index(stream.len());
            stream[i] = byte;
        }
        let mut sink = VecSink::<f32>::new();
        let _ = global().decompress_stream::<f32>(&mut &stream[..], &mut sink);
        let chunked = ChunkedCodec::new(WorkerPool::new(2), 4 * 16);
        let mut sink = VecSink::<f32>::new();
        let _ = chunked.decompress_stream::<f32>(global(), &mut &stream[..], &mut sink);
    }
}
