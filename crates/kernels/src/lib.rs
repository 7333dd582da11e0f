#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Batched, allocation-free transform kernels for the log mapping.
//!
//! The paper's transform spends essentially all of its time in `log` and
//! `exp` calls (Table III ranks bases by exactly that cost). This crate
//! provides the hot-path primitives the rest of the workspace builds on:
//!
//! * [`fast`] — branchless `log2`/`exp2` approximations built from
//!   exponent-field extraction plus a short polynomial on the mantissa.
//!   Every operation in their bodies is a select or arithmetic op, so the
//!   fixed-width batch entry points auto-vectorize. Their worst-case
//!   errors are *documented constants* ([`fast::FAST_LOG2_ABS_ERR`],
//!   [`fast::FAST_EXP2_REL_ERR`]) that the bound theory folds into the
//!   Lemma 2 round-off correction — the point-wise relative bound still
//!   provably holds with the fast kernels enabled.
//! * [`mod@scan`] — a single integer sweep over the raw bits of a field that
//!   validates finiteness and yields the sign/zero flags plus an
//!   exponent-field upper bound on `max |log2 x|`, replacing the exact
//!   (and serializing) max-reduction over mapped values. Over-estimating
//!   the max only *shrinks* the corrected bound, so the substitution is
//!   always sound.
//! * [`kernel::Kernel`] — the `Fast`/`Libm` choice, always passed
//!   explicitly. `Fast` is what every codec path runs; `Libm` reproduces
//!   the scalar `log2()`/`exp2()` reference path bit-for-bit for the
//!   paper's Table III and the fast-vs-libm bench. `Fast` routes all
//!   bases through `log2`/`exp2` with a constant scale, which also removes
//!   the base-10 `powf` penalty the paper measures.
//! * [`base::LogBase`] — the base enum (moved here from `pwrel-core` so
//!   the codec crates can use it without a dependency cycle; `pwrel-core`
//!   re-exports it from the old path).
//! * [`predict`] — the row-specialized Lorenzo predict/quantize sweep:
//!   neighbour addressing batched per raster row with boundary zeros
//!   rows, bit-identical to the per-point reference, behind a per-point
//!   sink so all four SZ engine loops share one driver.
//! * [`blocklift`] — ZFP's 4^d lifting transform fused into straight-line
//!   structure-of-arrays lane code (16 lines per pass in 3D), again
//!   bit-identical: every reordered op is an integer wrapping add/sub
//!   or shift.
//! * [`hist`] — the lane-batched entropy histogram: `HIST_LANES` partial
//!   frequency tables indexed by symbol position, merged exactly at the
//!   end, so runs of equal quantization codes stop serializing on
//!   store-forwarding.
//! * [`mod@cast`] — the kernels-local allowlisted home for the documented
//!   numeric casts the lane code needs (audit lint L2 applies here).
//!
//! The codecs call the batched sweep, lift and histogram kernels directly.
//! Each keeps a scalar reference (`predict::sweep_reference`, the ZFP
//! per-line lift, a dense counter in the histogram tests) that the parity
//! tests and the `batch_kernels` bench compare against.

pub mod base;
pub mod blocklift;
pub mod cast;
pub mod fast;
pub mod hist;
pub mod kernel;
pub mod plan;
pub mod predict;
pub mod scan;

pub use base::LogBase;
pub use kernel::Kernel;
pub use plan::{FusedOutput, LogFusedCodec, LogPlan, CHUNK};
pub use scan::{scan, FieldScan};
