#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Data model and synthetic scientific datasets.
//!
//! This crate plays two roles:
//!
//! 1. **Shared data model** for every codec in the workspace: the [`Float`]
//!    trait (bit-level access to `f32`/`f64`), the [`Dims`] grid descriptor,
//!    the [`Field`] container, and the [`AbsErrorCodec`] contract the
//!    paper's transform wraps. A codec's stages (prediction, quantization,
//!    entropy and lossless coding, lifting, plane coding) are plain
//!    functions in its own crate: each has one implementation, so no
//!    stage trait stands between them. Scheduling work across threads is
//!    decided above the codecs, by `pwrel-pipeline`'s chunk executors.
//! 2. **Synthetic stand-ins** for the four HPC applications evaluated in the
//!    paper — HACC (1D particle velocities), CESM-ATM (2D climate fields),
//!    NYX (3D cosmology) and Hurricane ISABEL (3D storm simulation). The
//!    real datasets total ~12 TB and are not redistributable; the generators
//!    here reproduce the *statistical properties that drive compression
//!    behaviour* (documented per generator), at laptop-scale sizes, from
//!    fixed seeds.

pub mod codec;
mod dataset_ext;
pub mod dims;
pub mod field;
pub mod float;
pub mod grf;

pub mod cesm;
pub mod hacc;
pub mod hurricane;
pub mod nyx;

pub use codec::{AbsErrorCodec, CodecError};
pub use dims::Dims;
pub use field::Field;
pub use float::Float;

/// Dataset size preset. `Small` keeps the whole suite (all four apps) under
/// a second of generation time for tests; `Medium` matches the per-field
/// sizes used by the bench binaries; `Large` approaches the paper's
/// per-snapshot field sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny grids for unit/integration tests.
    Small,
    /// Default for benchmark binaries (≈0.25–2 M points per field).
    Medium,
    /// Stress-test sizes (≈16–128 M points per field).
    Large,
}

/// A named application dataset: a bag of fields sharing provenance.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Application name as used in the paper ("HACC", "CESM-ATM", ...).
    pub name: &'static str,
    /// The synthetic fields.
    pub fields: Vec<Field<f32>>,
}

impl Dataset {
    /// Total number of points across all fields.
    pub fn total_points(&self) -> usize {
        self.fields.iter().map(|f| f.data.len()).sum()
    }

    /// Total size in bytes (f32).
    pub fn total_bytes(&self) -> usize {
        self.total_points() * 4
    }
}

/// Generates all four application datasets at the given scale.
pub fn all_datasets(scale: Scale) -> Vec<Dataset> {
    vec![
        hacc::dataset(scale),
        cesm::dataset(scale),
        nyx::dataset(scale),
        hurricane::dataset(scale),
    ]
}
