#![warn(missing_docs)]

//! # neurodeanon-embedding
//!
//! Non-linear dimensionality reduction for the task-identification attack
//! (§3.1.3 / §3.3.2 of the paper).
//!
//! * [`mod@tsne`] — exact t-distributed Stochastic Neighbor Embedding
//!   (Algorithm 2): Gaussian input affinities with per-point perplexity
//!   calibration, symmetrized `P`, Student-t output kernel, gradient descent
//!   with momentum and early exaggeration, KL-divergence tracking.
//! * [`mod@pca`] — principal component analysis via the in-workspace SVD, used
//!   both as a t-SNE initialization option and as the linear baseline the
//!   embedding ablation compares against (DESIGN.md §4.4).
//! * [`quality`] — trustworthiness/continuity metrics that make the paper's
//!   "maintains pairwise distance well" claim for t-SNE measurable.

pub mod error;
pub mod pca;
pub mod quality;
pub mod tsne;

pub use error::EmbeddingError;
pub use pca::pca;
pub use tsne::{tsne, Tsne, TsneConfig};

/// Result alias for embedding operations.
pub type Result<T> = std::result::Result<T, EmbeddingError>;
