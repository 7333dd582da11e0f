//! Little-endian scalar put/get helpers for byte-aligned headers.

use crate::{Error, Result};

/// Appends an `f64` little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take<'a>(data: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let end = pos.checked_add(n).ok_or(Error::UnexpectedEof)?;
    let out = data.get(*pos..end).ok_or(Error::UnexpectedEof)?;
    *pos = end;
    Ok(out)
}

/// [`take`] for a compile-time width, returning an owned array so the
/// `from_le_bytes` calls need no fallible slice→array conversion.
fn take_n<const N: usize>(data: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let chunk = data
        .get(*pos..)
        .and_then(|tail| tail.first_chunk::<N>())
        .ok_or(Error::UnexpectedEof)?;
    *pos += N;
    Ok(*chunk)
}

/// Reads a `u16` little-endian at `pos`, advancing it.
pub fn get_u16(data: &[u8], pos: &mut usize) -> Result<u16> {
    Ok(u16::from_le_bytes(take_n(data, pos)?))
}

/// Reads a `u32` little-endian at `pos`, advancing it.
pub fn get_u32(data: &[u8], pos: &mut usize) -> Result<u32> {
    Ok(u32::from_le_bytes(take_n(data, pos)?))
}

/// Reads a `u64` little-endian at `pos`, advancing it.
pub fn get_u64(data: &[u8], pos: &mut usize) -> Result<u64> {
    Ok(u64::from_le_bytes(take_n(data, pos)?))
}

/// Reads an `f32` little-endian at `pos`, advancing it.
pub fn get_f32(data: &[u8], pos: &mut usize) -> Result<f32> {
    Ok(f32::from_le_bytes(take_n(data, pos)?))
}

/// Reads an `f64` little-endian at `pos`, advancing it.
pub fn get_f64(data: &[u8], pos: &mut usize) -> Result<f64> {
    Ok(f64::from_le_bytes(take_n(data, pos)?))
}

/// Reads `n` raw bytes at `pos`, advancing it.
pub fn get_bytes<'a>(data: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    take(data, pos, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xBEEFu16.to_le_bytes());
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        buf.extend_from_slice(&(-1.5f32).to_le_bytes());
        put_f64(&mut buf, std::f64::consts::PI);
        let mut pos = 0;
        assert_eq!(get_u16(&buf, &mut pos).unwrap(), 0xBEEF);
        assert_eq!(get_u32(&buf, &mut pos).unwrap(), 0xDEAD_BEEF);
        assert_eq!(get_u64(&buf, &mut pos).unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(get_f32(&buf, &mut pos).unwrap(), -1.5);
        assert_eq!(get_f64(&buf, &mut pos).unwrap(), std::f64::consts::PI);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_reads_fail() {
        let buf = vec![0u8; 3];
        let mut pos = 0;
        assert_eq!(get_u32(&buf, &mut pos), Err(Error::UnexpectedEof));
        assert_eq!(pos, 0, "failed read must not advance");
    }
}
