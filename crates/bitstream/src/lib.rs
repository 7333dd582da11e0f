#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Bit-level I/O primitives shared by every codec in the workspace.
//!
//! The compressors built here (SZ-like, ZFP-like, FPZIP-like, ISABELA-like,
//! and the lossless stages) all serialize into dense bit streams. This crate
//! provides:
//!
//! * [`BitWriter`] / [`BitReader`] — MSB-first bit streams built on 64-bit
//!   accumulators with unaligned 8-byte refills and whole-word stores: bulk
//!   `write_bits`/`read_bits` (up to 64 bits per call), O(1) LSB-first
//!   variants for ZFP bit-plane payloads, and a
//!   `refill`/`peek_word`/`consume` protocol for check-free bulk entropy
//!   decoding (see DESIGN.md Sec. 9),
//! * [`varint`] — LEB128 and zigzag integer codecs for headers,
//! * [`bytesio`] — little-endian scalar put/get helpers for byte-aligned
//!   container headers.
//!
//! All readers are bounds-checked and return [`Error::UnexpectedEof`] rather
//! than panicking on truncated input, so corrupted archives surface as
//! recoverable errors.

pub mod bytesio;
pub mod reader;
pub mod varint;
pub mod writer;

pub use reader::BitReader;
pub use writer::BitWriter;

/// Errors produced while decoding bit/byte streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input ended before the requested number of bits/bytes was read.
    UnexpectedEof,
    /// A value in the stream is outside the range the format permits.
    InvalidValue(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnexpectedEof => write!(f, "unexpected end of stream"),
            Error::InvalidValue(what) => write!(f, "invalid value in stream: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias used across the decoding paths.
pub type Result<T> = std::result::Result<T, Error>;
