//! Randomized SVD (Halko–Martinsson–Tropp range finder).
//!
//! The paper's §3.1.2 machinery descends from randomized numerical linear
//! algebra; this module completes the family with the randomized
//! range-finder SVD: project onto `A Ω` for a Gaussian test matrix `Ω`,
//! orthonormalize, and solve the small projected problem. With `q` power
//! iterations the approximation error decays rapidly for matrices with
//! decaying spectra — exactly the group matrices the attack builds — and
//! the cost drops from `O(mn²)` to `O(mn(k+p))`.
//!
//! Regime note (measured by the `kernels` bench's `bank_build` records, which
//! time the exact, subspace and Jacobi bank builds): for the paper's group
//! matrices the column count is the *subject* count (≈ 100), so the exact
//! Gram-route SVD is already `O(mn²)` with tiny `n` and beats this code.
//! The randomized path pays off when the column count grows — e.g.
//! voxel-level feature spaces or stacked multi-condition designs.

use crate::eigen::sym_eigen;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::qr::qr;
use crate::rng::Rng64;
use crate::svd::{leverage_scores_from_svd, thin_svd, Svd, RANK_TOL};
use crate::Result;

/// Configuration for the randomized SVD.
#[derive(Debug, Clone)]
pub struct RsvdConfig {
    /// Target rank `k` (number of singular triplets returned).
    pub rank: usize,
    /// Oversampling `p` (extra random directions; 5–10 is standard).
    pub oversample: usize,
    /// Power iterations `q` (0–2; each sharpens the spectrum's tail).
    pub power_iters: usize,
    /// RNG seed for the Gaussian test matrix.
    pub seed: u64,
}

impl Default for RsvdConfig {
    fn default() -> Self {
        RsvdConfig {
            rank: 10,
            oversample: 8,
            power_iters: 1,
            seed: 0x125d,
        }
    }
}

/// Computes a rank-`k` approximate SVD of `a` (`m × n`, any shape with
/// `m ≥ k`): returns `U ∈ R^{m×k}`, `σ₁ ≥ … ≥ σ_k`, `V ∈ R^{n×k}` such that
/// `A ≈ U Σ Vᵀ`.
pub fn randomized_svd(a: &Matrix, config: &RsvdConfig) -> Result<Svd> {
    let (m, n) = a.shape();
    if a.is_empty() {
        return Err(LinalgError::EmptyMatrix {
            op: "randomized_svd",
        });
    }
    let k = config.rank;
    if k == 0 || k > m.min(n) {
        return Err(LinalgError::InvalidParameter {
            name: "rank",
            reason: "need 1 <= rank <= min(rows, cols)",
        });
    }
    let l = (k + config.oversample).min(n);
    // Gaussian test matrix Ω ∈ R^{n×l}.
    let mut rng = Rng64::new(config.seed);
    let omega = Matrix::from_fn(n, l, |_, _| rng.gaussian());
    // Sample the range: Y = A Ω, with optional power iterations
    // Y ← A (Aᵀ Y) re-orthonormalized each half-step for stability.
    let mut y = a.matmul(&omega)?;
    for _ in 0..config.power_iters {
        let q1 = qr(&y)?.q;
        let z = a.transpose().matmul(&q1)?;
        let q2 = qr(&z)?.q;
        y = a.matmul(&q2)?;
    }
    let q_basis = qr(&y)?.q; // m × l orthonormal
                             // Project: B = Qᵀ A (l × n), solve the small SVD.
    let b = q_basis.transpose().matmul(a)?;
    // thin_svd requires rows ≥ cols; transpose if needed.
    let small = if b.rows() >= b.cols() {
        thin_svd(&b)?
    } else {
        let f = thin_svd(&b.transpose())?;
        Svd {
            u: f.v,
            sigma: f.sigma,
            v: f.u,
        }
    };
    // Lift back: U = Q · U_b, truncate to k.
    let idx: Vec<usize> = (0..k.min(small.sigma.len())).collect();
    let u = q_basis.matmul(&small.u.select_cols(&idx)?)?;
    let v = small.v.select_cols(&idx)?;
    let sigma: Vec<f64> = idx.iter().map(|&i| small.sigma[i]).collect();
    Ok(Svd { u, sigma, v })
}

/// Blocked randomized subspace iteration on the Gram operator `AᵀA` — the
/// tall-matrix route (`m ≥ 2n`). One blocked [`Matrix::gram`] pass reduces
/// the problem to `n × n`; a seeded Gaussian start block plus
/// `config.power_iters` power iterations (re-orthonormalized each step)
/// converge the leading `rank + oversample` eigendirections; a Rayleigh–Ritz
/// projection extracts the singular pairs; and only the retained `rank`
/// left singular vectors are recovered via `U_k = A V_k Σ_k⁻¹`.
///
/// Two costs vanish compared to the alternatives: the `n − k` trailing
/// columns of the full Gram-route `U` recovery (the dominant `O(mn²)` term
/// of an exact thin SVD), and the HMT range finder's orthonormalization of
/// `m × l` panels ([`randomized_svd`] QR-decomposes tall sample matrices,
/// which strides column-wise across row-major storage and is cache-hostile
/// at feature-space heights). Like the exact Gram route this squares the
/// condition number, so directions near the rank tolerance are noisier
/// than Jacobi's — leverage selection only consumes the leading subspace,
/// where the squaring is harmless.
///
/// Deterministic per `config.seed`, and bit-identical at any thread count
/// (every kernel underneath carries the `linalg::par` contract).
pub fn subspace_svd(a: &Matrix, config: &RsvdConfig) -> Result<Svd> {
    let (m, n) = a.shape();
    if a.is_empty() {
        return Err(LinalgError::EmptyMatrix { op: "subspace_svd" });
    }
    let k = config.rank;
    if k == 0 || k > m.min(n) {
        return Err(LinalgError::InvalidParameter {
            name: "rank",
            reason: "need 1 <= rank <= min(rows, cols)",
        });
    }
    let l = (k + config.oversample).min(n);
    let mut rng = Rng64::new(config.seed);
    let omega = Matrix::from_fn(n, l, |_, _| rng.gaussian());
    let g = a.gram();
    let mut x = g.matmul(&omega)?;
    for _ in 0..config.power_iters {
        x = g.matmul(&qr(&x)?.q)?;
    }
    let q_basis = qr(&x)?.q; // n × l orthonormal
                             // Rayleigh–Ritz on the Gram operator: H = Qᵀ G Q, symmetrized against
                             // rounding so the eigensolver sees an exactly symmetric block.
    let gq = g.matmul(&q_basis)?;
    let mut h = q_basis.transpose().matmul(&gq)?;
    for i in 0..l {
        for j in (i + 1)..l {
            let s = 0.5 * (h[(i, j)] + h[(j, i)]);
            h[(i, j)] = s;
            h[(j, i)] = s;
        }
    }
    let eig = sym_eigen(&h)?;
    let idx: Vec<usize> = (0..k.min(eig.values.len())).collect();
    let v = q_basis.matmul(&eig.vectors.select_cols(&idx)?)?; // n × k
                                                              // Eigenvalues of AᵀA are σ²; clamp tiny negatives from rounding.
    let sigma: Vec<f64> = idx.iter().map(|&i| eig.values[i].max(0.0).sqrt()).collect();
    // U_k = A V_k Σ_k⁻¹ column by column, zeroing directions below the
    // Gram-route tolerance (same recovery as the exact path).
    let mut u = a.matmul(&v)?;
    let smax = sigma.first().copied().unwrap_or(0.0);
    let tol = RANK_TOL * smax.max(f64::MIN_POSITIVE) * (m as f64).sqrt();
    for (c, &s) in sigma.iter().enumerate() {
        if s > tol {
            let inv = 1.0 / s;
            for r in 0..u.rows() {
                u[(r, c)] *= inv;
            }
        } else {
            for r in 0..u.rows() {
                u[(r, c)] = 0.0;
            }
        }
    }
    Ok(Svd { u, sigma, v })
}

/// Shape-dispatched randomized SVD: tall matrices (`m ≥ 2n`, the attack's
/// feature-space group matrices) take the Gram-operator
/// [`subspace_svd`]; squarish ones take the HMT range finder
/// ([`randomized_svd`]), whose sampling does not square the condition
/// number. Callers that must agree bit-for-bit on the same input — the
/// direct randomized attack and the memoized plan's subspace bank — route
/// through this single dispatch.
pub fn randomized_svd_auto(a: &Matrix, config: &RsvdConfig) -> Result<Svd> {
    if a.rows() >= 2 * a.cols() {
        subspace_svd(a, config)
    } else {
        randomized_svd(a, config)
    }
}

/// Approximate leverage scores from a randomized rank-`k` SVD — the fast
/// path for feature selection on very large group matrices. Tall inputs
/// take the [`subspace_svd`] route via [`randomized_svd_auto`]; scores are
/// row norms of the retained `U` columns, rank-truncated exactly like the
/// exact path's [`leverage_scores_from_svd`].
pub fn randomized_leverage_scores(a: &Matrix, config: &RsvdConfig) -> Result<Vec<f64>> {
    let f = randomized_svd_auto(a, config)?;
    Ok(leverage_scores_from_svd(&f, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::leverage_scores;
    use crate::vector::argsort_desc;

    /// A tall matrix with sharply decaying spectrum (rank-3 + noise).
    fn structured(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |r, c| {
            let u1 = (r as f64 * 0.13).sin();
            let u2 = (r as f64 * 0.041).cos();
            let u3 = ((r * r) as f64 * 0.002).sin();
            8.0 * u1 * ((c + 1) as f64 * 0.5).cos()
                + 3.0 * u2 * (c as f64 * 0.9).sin()
                + 1.0 * u3 * ((c * c) as f64 * 0.1).cos()
                + 0.01 * (((r * 31 + c * 7) % 13) as f64 - 6.0)
        })
    }

    #[test]
    fn matches_exact_svd_on_leading_triplets() {
        let a = structured(300, 40);
        let exact = thin_svd(&a).unwrap();
        let approx = randomized_svd(
            &a,
            &RsvdConfig {
                rank: 5,
                power_iters: 2,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..3 {
            let rel = (approx.sigma[i] - exact.sigma[i]).abs() / exact.sigma[i];
            assert!(
                rel < 0.02,
                "σ_{i}: {} vs {}",
                approx.sigma[i],
                exact.sigma[i]
            );
        }
    }

    #[test]
    fn low_rank_reconstruction_error_near_optimal() {
        let a = structured(200, 30);
        let k = 3;
        let approx = randomized_svd(
            &a,
            &RsvdConfig {
                rank: k,
                power_iters: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let rec = approx.reconstruct().unwrap();
        let err = a.sub(&rec).unwrap().frobenius_norm();
        let exact = thin_svd(&a).unwrap();
        let opt: f64 = exact.sigma[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!(err < 1.6 * opt + 1e-9, "err {err} vs optimal {opt}");
    }

    #[test]
    fn randomized_leverage_agrees_on_top_features() {
        // The top-20 deterministic and randomized selections overlap
        // heavily on a spectrally decaying matrix.
        let a = structured(400, 20);
        let exact = leverage_scores(&a, Some(5)).unwrap();
        let approx = randomized_leverage_scores(
            &a,
            &RsvdConfig {
                rank: 5,
                power_iters: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let top_exact: std::collections::HashSet<usize> =
            argsort_desc(&exact)[..20].iter().copied().collect();
        let top_approx = argsort_desc(&approx);
        let overlap = top_approx[..20]
            .iter()
            .filter(|i| top_exact.contains(i))
            .count();
        assert!(overlap >= 15, "only {overlap}/20 overlap");
    }

    #[test]
    fn u_and_v_orthonormal() {
        let a = structured(150, 25);
        let f = randomized_svd(&a, &RsvdConfig::default()).unwrap();
        let utu = f.u.transpose().matmul(&f.u).unwrap();
        let vtv = f.v.transpose().matmul(&f.v).unwrap();
        let k = f.sigma.len();
        assert!(utu.sub(&Matrix::identity(k)).unwrap().max_abs() < 1e-8);
        assert!(vtv.sub(&Matrix::identity(k)).unwrap().max_abs() < 1e-8);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = structured(100, 15);
        let f1 = randomized_svd(&a, &RsvdConfig::default()).unwrap();
        let f2 = randomized_svd(&a, &RsvdConfig::default()).unwrap();
        assert_eq!(f1.sigma, f2.sigma);
    }

    #[test]
    fn validations() {
        let a = structured(50, 10);
        assert!(randomized_svd(
            &a,
            &RsvdConfig {
                rank: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(randomized_svd(
            &a,
            &RsvdConfig {
                rank: 11,
                ..Default::default()
            }
        )
        .is_err());
        assert!(subspace_svd(
            &a,
            &RsvdConfig {
                rank: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(subspace_svd(
            &a,
            &RsvdConfig {
                rank: 11,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn subspace_matches_exact_svd_on_leading_triplets() {
        let a = structured(500, 40);
        let exact = thin_svd(&a).unwrap();
        let approx = subspace_svd(
            &a,
            &RsvdConfig {
                rank: 5,
                power_iters: 2,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..3 {
            let rel = (approx.sigma[i] - exact.sigma[i]).abs() / exact.sigma[i];
            assert!(
                rel < 0.02,
                "σ_{i}: {} vs {}",
                approx.sigma[i],
                exact.sigma[i]
            );
        }
        // Leading left singular directions agree up to sign.
        for i in 0..2 {
            let mut dot = 0.0;
            for r in 0..a.rows() {
                dot += approx.u[(r, i)] * exact.u[(r, i)];
            }
            assert!(
                dot.abs() > 0.99,
                "u_{i} misaligned: |<u,û>| = {}",
                dot.abs()
            );
        }
    }

    #[test]
    fn subspace_u_and_v_orthonormal() {
        let a = structured(300, 24);
        let f = subspace_svd(
            &a,
            &RsvdConfig {
                rank: 6,
                power_iters: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let k = f.sigma.len();
        assert_eq!(f.u.shape(), (300, k));
        assert_eq!(f.v.shape(), (24, k));
        let utu = f.u.transpose().matmul(&f.u).unwrap();
        let vtv = f.v.transpose().matmul(&f.v).unwrap();
        assert!(utu.sub(&Matrix::identity(k)).unwrap().max_abs() < 1e-8);
        assert!(vtv.sub(&Matrix::identity(k)).unwrap().max_abs() < 1e-8);
        for w in f.sigma.windows(2) {
            assert!(w[0] >= w[1], "sigma not descending: {:?}", f.sigma);
        }
    }

    #[test]
    fn subspace_deterministic_per_seed() {
        let a = structured(200, 16);
        let f1 = subspace_svd(&a, &RsvdConfig::default()).unwrap();
        let f2 = subspace_svd(&a, &RsvdConfig::default()).unwrap();
        for (x, y) in f1.sigma.iter().zip(&f2.sigma) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in f1.u.as_slice().iter().zip(f2.u.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn auto_dispatches_on_aspect_ratio() {
        let config = RsvdConfig {
            rank: 4,
            power_iters: 1,
            ..Default::default()
        };
        // Tall: auto must be bitwise the subspace route.
        let tall = structured(120, 10);
        let auto = randomized_svd_auto(&tall, &config).unwrap();
        let sub = subspace_svd(&tall, &config).unwrap();
        for (x, y) in auto.u.as_slice().iter().zip(sub.u.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Squarish: auto must be bitwise the HMT range-finder route.
        let squarish = structured(30, 20);
        let auto = randomized_svd_auto(&squarish, &config).unwrap();
        let hmt = randomized_svd(&squarish, &config).unwrap();
        for (x, y) in auto.u.as_slice().iter().zip(hmt.u.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
