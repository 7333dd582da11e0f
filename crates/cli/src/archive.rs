//! Multi-field snapshot archives.
//!
//! The paper's workload is a simulation *snapshot*: many named fields
//! dumped together (NYX has 6, CESM-ATM 79). An archive packs each field's
//! compressed stream with its name and shape into one self-describing
//! file:
//!
//! ```text
//! magic "PWA1" | n_entries uvarint
//! per entry: name (uvarint len + UTF-8) | dims header | elem u8
//!          | stream uvarint len + bytes
//! ```
//!
//! Entries are independently compressed, so fields can be extracted
//! without touching the rest. `pwrel unpack` writes each field to
//! `<output dir>/<name>.f32|.f64`, so a name is one path component:
//! names holding `/`, `\` or NUL are refused on both sides.

use crate::CliError;
use pwrel_bitstream::{bytesio, varint};
use pwrel_data::Dims;

const MAGIC: &[u8; 4] = b"PWA1";
/// Sanity cap on field names.
const MAX_NAME: usize = 4096;

/// Whether `name` could leave the output directory (or truncate a path)
/// when joined onto it.
fn escapes_dir(name: &str) -> bool {
    name.contains(['/', '\\', '\0'])
}

/// One archived field.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Field name (e.g. `dark_matter_density`).
    pub name: String,
    /// Grid shape of the original data.
    pub dims: Dims,
    /// Element width in bits (32 or 64).
    pub elem_bits: u8,
    /// The compressed stream (any codec; self-identifying).
    pub stream: Vec<u8>,
}

/// Serializes entries into an archive.
///
/// Rejects field names `unpack` would refuse — longer than the cap, or
/// holding a path separator or NUL — since such a name would produce an
/// archive this tool itself refuses to read.
pub fn pack(entries: &[Entry]) -> Result<Vec<u8>, CliError> {
    if let Some(e) = entries.iter().find(|e| e.name.len() > MAX_NAME) {
        return Err(CliError::Usage(format!(
            "field name of {} bytes exceeds the {MAX_NAME}-byte cap",
            e.name.len()
        )));
    }
    if let Some(e) = entries.iter().find(|e| escapes_dir(&e.name)) {
        return Err(CliError::Usage(format!(
            "field name {:?} contains a path separator or NUL",
            e.name
        )));
    }
    let total: usize = entries
        .iter()
        .map(|e| e.stream.len() + e.name.len() + 32)
        .sum();
    let mut out = Vec::with_capacity(total + 16);
    out.extend_from_slice(MAGIC);
    varint::write_uvarint(&mut out, entries.len() as u64);
    for e in entries {
        varint::write_uvarint(&mut out, e.name.len() as u64);
        out.extend_from_slice(e.name.as_bytes());
        let (rank, nx, ny, nz) = e.dims.to_header();
        out.push(rank);
        varint::write_uvarint(&mut out, nx);
        varint::write_uvarint(&mut out, ny);
        varint::write_uvarint(&mut out, nz);
        out.push(e.elem_bits);
        varint::write_uvarint(&mut out, e.stream.len() as u64);
        out.extend_from_slice(&e.stream);
    }
    Ok(out)
}

/// Parses an archive back into entries. Every name is checked before any
/// entry is returned, so a forged name fails the whole archive.
pub fn unpack(bytes: &[u8]) -> Result<Vec<Entry>, CliError> {
    let corrupt = |w: &'static str| CliError::Codec(pwrel_data::CodecError::Corrupt(w));
    if bytes.len() < 5 || &bytes[..4] != MAGIC {
        return Err(CliError::Codec(pwrel_data::CodecError::Mismatch(
            "bad archive magic",
        )));
    }
    let mut pos = 4usize;
    let n = varint::read_uvarint(bytes, &mut pos).map_err(|_| corrupt("entry count"))? as usize;
    if n > bytes.len() {
        return Err(corrupt("entry count exceeds archive"));
    }
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let name_len =
            varint::read_uvarint(bytes, &mut pos).map_err(|_| corrupt("name length"))? as usize;
        if name_len > MAX_NAME {
            return Err(corrupt("field name too long"));
        }
        let name_bytes =
            bytesio::get_bytes(bytes, &mut pos, name_len).map_err(|_| corrupt("name"))?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| corrupt("field name not UTF-8"))?
            .to_string();
        if escapes_dir(&name) {
            return Err(corrupt("field name contains a path separator or NUL"));
        }
        let rank = *bytes.get(pos).ok_or_else(|| corrupt("rank"))?;
        pos += 1;
        let nx = varint::read_uvarint(bytes, &mut pos).map_err(|_| corrupt("nx"))?;
        let ny = varint::read_uvarint(bytes, &mut pos).map_err(|_| corrupt("ny"))?;
        let nz = varint::read_uvarint(bytes, &mut pos).map_err(|_| corrupt("nz"))?;
        let dims = Dims::from_header(rank, nx, ny, nz).ok_or_else(|| corrupt("dims"))?;
        let elem_bits = *bytes.get(pos).ok_or_else(|| corrupt("elem"))?;
        pos += 1;
        if elem_bits != 32 && elem_bits != 64 {
            return Err(corrupt("element width"));
        }
        let stream_len =
            varint::read_uvarint(bytes, &mut pos).map_err(|_| corrupt("stream length"))? as usize;
        let stream =
            bytesio::get_bytes(bytes, &mut pos, stream_len).map_err(|_| corrupt("stream"))?;
        out.push(Entry {
            name,
            dims,
            elem_bits,
            stream: stream.to_vec(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwrel_core::{LogBase, PwRelCompressor};
    use pwrel_sz::SzCompressor;
    use pwrel_trace::noop;

    fn sample_entries() -> Vec<Entry> {
        let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
        let mut entries = Vec::new();
        for (name, n) in [("density", 300usize), ("velocity_x", 200)] {
            let dims = Dims::d1(n);
            let data: Vec<f32> = (0..n).map(|i| (i as f32 + 1.0) * 0.5).collect();
            entries.push(Entry {
                name: name.into(),
                dims,
                elem_bits: 32,
                stream: codec.compress(&data, dims, 1e-2, noop()).unwrap(),
            });
        }
        entries
    }

    #[test]
    fn pack_unpack_round_trip() {
        let entries = sample_entries();
        let archive = pack(&entries).unwrap();
        let back = unpack(&archive).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn overlong_name_rejected_at_pack_time() {
        let mut entries = sample_entries();
        entries[0].name = "x".repeat(4097);
        assert!(matches!(pack(&entries), Err(CliError::Usage(_))));
    }

    #[test]
    fn streams_decode_after_round_trip() {
        let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
        let archive = pack(&sample_entries()).unwrap();
        let back = unpack(&archive).unwrap();
        for e in &back {
            let (dec, _) = codec.decompress::<f32>(&e.stream, noop()).unwrap();
            assert_eq!(dec.len(), e.dims.len(), "{}", e.name);
        }
    }

    /// A one-entry archive whose name is `name`, bypassing `pack`'s
    /// check: pack under a same-length placeholder, then patch the bytes.
    fn forged(name: &str) -> Vec<u8> {
        let placeholder = "#".repeat(name.len());
        let mut entries = sample_entries();
        entries.truncate(1);
        entries[0].name = placeholder.clone();
        let mut archive = pack(&entries).unwrap();
        let at = archive
            .windows(name.len())
            .position(|w| w == placeholder.as_bytes())
            .unwrap();
        archive[at..at + name.len()].copy_from_slice(name.as_bytes());
        archive
    }

    #[test]
    fn unpack_rejects_names_that_leave_the_output_dir() {
        assert_eq!(unpack(&forged("escaped")).unwrap()[0].name, "escaped");
        for name in ["../x", "/tmp/x", "a/b", "..\\x", "a\0b"] {
            assert!(
                matches!(
                    unpack(&forged(name)),
                    Err(CliError::Codec(pwrel_data::CodecError::Corrupt(_)))
                ),
                "{name:?}"
            );
        }
    }

    #[test]
    fn pack_rejects_names_that_leave_the_output_dir() {
        for name in ["../x", "/tmp/x", "a/b", "..\\x", "a\0b"] {
            let mut entries = sample_entries();
            entries[1].name = name.into();
            assert!(
                matches!(pack(&entries), Err(CliError::Usage(_))),
                "{name:?}"
            );
        }
    }

    #[test]
    fn empty_archive() {
        let archive = pack(&[]).unwrap();
        assert!(unpack(&archive).unwrap().is_empty());
    }

    #[test]
    fn corrupt_archives_error_not_panic() {
        let archive = pack(&sample_entries()).unwrap();
        assert!(unpack(&archive[..3]).is_err());
        assert!(unpack(b"XXXX").is_err());
        for cut in [5usize, 10, 20, archive.len() - 3] {
            let _ = unpack(&archive[..cut]); // must not panic
        }
        let mut bad = archive.clone();
        bad[5] = 0xFF; // mangle the first name length varint
        let _ = unpack(&bad);
    }

    #[test]
    fn proptest_arbitrary_entries_round_trip() {
        use proptest::prelude::*;
        let entry = (
            "[a-z_]{0,24}",
            1usize..64,
            prop_oneof![Just(32u8), Just(64u8)],
            prop::collection::vec(any::<u8>(), 0..128),
        )
            .prop_map(|(name, n, elem_bits, stream)| Entry {
                name,
                dims: Dims::d1(n),
                elem_bits,
                stream,
            });
        proptest!(ProptestConfig::with_cases(64), |(entries in prop::collection::vec(entry, 0..12))| {
            let back = unpack(&pack(&entries).unwrap()).unwrap();
            prop_assert_eq!(back, entries);
        });
    }

    #[test]
    fn unicode_names_survive() {
        let mut entries = sample_entries();
        entries[0].name = "密度_ρ".into();
        let back = unpack(&pack(&entries).unwrap()).unwrap();
        assert_eq!(back[0].name, "密度_ρ");
    }
}
