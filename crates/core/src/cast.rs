//! Documented numeric casts for the bound-arithmetic modules.
//!
//! Audit lint L2 bans bare `as` casts in the transform/bound code
//! (`core::transform`, `core::pwrel`, the quantizers): a silent
//! truncation there corrupts an error bound instead of a pixel.
//! Conversions with a `From` impl should use it directly; the helpers
//! here cover the conversions `From` cannot express, each documenting
//! the range argument that makes it exact. This file is the single
//! allowlisted home for those casts.

/// Length → `u64` for stream serialization. Lossless: `usize` is at
/// most 64 bits on every supported target.
#[inline]
pub fn u64_from_len(n: usize) -> u64 {
    n as u64
}

/// Float width in bits (32 or 64) → container header byte.
#[inline]
pub fn width_byte(bits: u32) -> u8 {
    debug_assert!(bits == 32 || bits == 64, "not a float width: {bits}");
    bits as u8
}

/// Rounded quantization offset → integer code. The caller must already
/// have checked `v.is_finite() && v.abs() < radius` with
/// `radius ≤ 2^31`, so the truncating cast is exact.
#[inline]
pub fn quant_code(v: f64) -> i64 {
    v as i64
}

/// Integer quantization code → `f64` reconstruction arithmetic. Exact:
/// codes are bounded by the interval capacity, `|q| < 2^32 ≪ 2^53`.
#[inline]
pub fn f64_from_quant(q: i64) -> f64 {
    q as f64
}

/// Biased code `radius + q`, in `[0, capacity)` by the quantizer's range
/// check, → `u32` symbol for the entropy stage.
#[inline]
pub fn symbol_u32(v: i64) -> u32 {
    debug_assert!(u32::try_from(v).is_ok(), "code out of symbol range: {v}");
    v as u32
}

/// Element/set-bit count → `f64` for recorded diagnostics (densities,
/// rates). Exact for counts up to `2^53`; beyond that it rounds, which
/// only perturbs an observability ratio, never a bound.
#[inline]
pub fn f64_from_count(n: usize) -> f64 {
    n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_in_documented_ranges() {
        assert_eq!(u64_from_len(usize::MAX), usize::MAX as u64);
        assert_eq!(f64_from_count(1 << 24), 16777216.0);
        assert_eq!(width_byte(32), 32);
        assert_eq!(width_byte(64), 64);
        assert_eq!(quant_code(-3.0), -3);
        assert_eq!(quant_code(2147483647.0), (1 << 31) - 1);
        assert_eq!(f64_from_quant(-(1 << 32)), -4294967296.0);
        assert_eq!(symbol_u32(65535), 65535);
    }
}
