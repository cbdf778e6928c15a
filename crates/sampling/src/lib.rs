#![warn(missing_docs)]

//! # neurodeanon-sampling
//!
//! Matrix row-sampling algorithms (§3.1.2 of the paper): the machinery that
//! finds the small set of connectome features ("signature edges") that
//! discriminates individuals.
//!
//! * [`distribution`] — the sampling distributions of Algorithm 1: uniform,
//!   ℓ₂ row-norm (Equation 1), and leverage scores (Equation 3).
//! * [`mod@row_sample`] — the randomized meta-algorithm (Algorithm 1) with the
//!   `1/√(s·pᵢ)` rescaling that makes `ÃᵀÃ` an unbiased estimate of `AᵀA`.
//! * [`principal`] — the deterministic top-`t` leverage selection, the
//!   *Principal Features Subspace* method of Ravindra et al. (2018) that the
//!   attack actually uses, plus [`LeverageBank`], the memoized form that
//!   factors a matrix once and serves every `(t, rank_k)` selection.
//! * [`sketch`] — error functionals for both guarantees: the additive bound
//!   of Equation 2 and the relative projection bound of Equation 4.
//! * [`support`] — feature-support intersection for degraded inputs: which
//!   rows of a NaN-containing known/anonymous pair the attack can still use.

pub mod distribution;
pub mod error;
pub mod principal;
pub mod row_sample;
pub mod sketch;
pub mod support;

pub use distribution::SamplingDistribution;
pub use error::SamplingError;
pub use principal::{principal_features, LeverageBank, PrincipalFeatures};
pub use row_sample::{row_sample, RowSample};
pub use support::{finite_rows, intersect_sorted, rows_with_any_finite, shared_support};

/// Result alias for sampling operations.
pub type Result<T> = std::result::Result<T, SamplingError>;
