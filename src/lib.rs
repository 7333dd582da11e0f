#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # pwrel — point-wise relative-error-bounded lossy compression
//!
//! Umbrella crate re-exporting the workspace: a full reproduction of
//! *"An Efficient Transformation Scheme for Lossy Data Compression with
//! Point-wise Relative Error Bound"* (Liang et al., IEEE CLUSTER 2018).
//!
//! The headline idea: a logarithmic data transform turns any
//! absolute-error-bounded compressor into a point-wise
//! relative-error-bounded one. See [`core::PwRelCompressor`].
//!
//! ## Quick start
//!
//! ```
//! use pwrel::core::{PwRelCompressor, LogBase};
//! use pwrel::sz::SzCompressor;
//! use pwrel::data::Dims;
//! use pwrel::trace::noop;
//!
//! let data: Vec<f32> = (1..=4096).map(|i| (i as f32).sin().abs() + 0.5).collect();
//! let codec = PwRelCompressor::new(SzCompressor::default(), LogBase::Two);
//! let compressed = codec.compress(&data, Dims::d1(data.len()), 1e-3, noop()).unwrap();
//! let (restored, _) = codec.decompress::<f32>(&compressed, noop()).unwrap();
//! for (a, b) in data.iter().zip(&restored) {
//!     assert!(((a - b) / a).abs() <= 1e-3);
//! }
//! ```

pub use pwrel_bitstream as bitstream;
pub use pwrel_core as core;
pub use pwrel_data as data;
pub use pwrel_fpzip as fpzip;
pub use pwrel_isabela as isabela;
pub use pwrel_lossless as lossless;
pub use pwrel_metrics as metrics;
pub use pwrel_parallel as parallel;
pub use pwrel_pipeline as pipeline;
pub use pwrel_serve as serve;
pub use pwrel_sz as sz;
pub use pwrel_trace as trace;
pub use pwrel_zfp as zfp;
