//! Thin singular value decomposition.
//!
//! Two routes, selected automatically by shape:
//!
//! * **Gram route** (tall matrices, `m ≥ 2n`): eigendecompose the `n × n`
//!   Gram matrix `AᵀA = V Σ² Vᵀ`, then recover `U = A V Σ⁻¹`. This is the
//!   path the paper's group matrices take (64,620 × 100 → a 100 × 100
//!   eigenproblem), costing `O(mn²)` instead of Jacobi's `O(mn²·sweeps)`.
//! * **One-sided Jacobi** (square-ish matrices): orthogonalize column pairs
//!   of a working copy of `A`; singular values emerge as column norms.
//!   Slower but does not square the condition number, so it also serves as
//!   the cross-check oracle in tests.
//!
//! The leverage scores of Equation 3/5 in the paper are row norms of the
//! thin `U` computed here; [`leverage_scores`] exposes them directly.

use crate::eigen::sym_eigen;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::par::{self, DisjointMut};
use crate::vector::{dot, norm2_sq};
use crate::Result;

/// Maximum one-sided Jacobi sweeps.
const MAX_SWEEPS: usize = 60;

/// Cached handle of the `svd.thin_calls` observability counter: process-wide
/// count of [`thin_svd`] factorizations, for benches and tests that assert
/// how many SVDs a code path actually performed (e.g. the attack-plan sweep
/// bench, which requires a whole feature-count ablation to cost exactly one
/// factorization). Concurrent callers share it, so only deltas around a
/// workload nothing else runs beside are meaningful; `obs::reset()` zeroes
/// it.
fn thin_calls_counter() -> &'static neurodeanon_obs::Counter {
    static HANDLE: std::sync::OnceLock<&'static neurodeanon_obs::Counter> =
        std::sync::OnceLock::new();
    HANDLE.get_or_init(|| neurodeanon_obs::counter("svd.thin_calls"))
}

/// Minimum per-round work (pairs × 8·column length) before one Jacobi round
/// spawns threads. Rounds run many times per sweep, so the bar is lower than
/// for one-shot kernels but still high enough that small matrices (the common
/// connectome case) stay on the inline path.
const JACOBI_PAR_THRESHOLD: usize = 1 << 16;

/// Relative threshold below which singular values are treated as zero when
/// forming `U` columns (they get a zero column instead of `A v / σ` blowup).
///
/// The Gram route squares the condition number, so noise on a zero singular
/// value is O(sqrt(eps)·σ_max) ≈ 1.5e-8·σ_max; the tolerance sits above that.
/// Shared with `rsvd::subspace_svd`, which recovers `U` the same way.
pub(crate) const RANK_TOL: f64 = 1e-7;

/// Thin SVD `A = U Σ Vᵀ` with `U ∈ R^{m×n}`, `Σ` diagonal (descending),
/// `V ∈ R^{n×n}`, for `m ≥ n`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (columns), `m × n`.
    pub u: Matrix,
    /// Singular values, descending, length `n`.
    pub sigma: Vec<f64>,
    /// Right singular vectors (columns), `n × n`.
    pub v: Matrix,
}

impl Svd {
    /// Numerical rank: number of singular values above
    /// `RANK_TOL · σ_max · max(m, n)`.
    pub fn rank(&self) -> usize {
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        if smax <= 0.0 {
            return 0;
        }
        let tol = RANK_TOL * smax * (self.u.rows().max(self.v.rows()) as f64).sqrt();
        self.sigma.iter().filter(|&&s| s > tol).count()
    }

    /// Reconstructs `A` from the factors (mainly for tests and diagnostics).
    pub fn reconstruct(&self) -> Result<Matrix> {
        let n = self.sigma.len();
        let mut us = self.u.clone();
        for c in 0..n {
            let s = self.sigma[c];
            for r in 0..us.rows() {
                us[(r, c)] *= s;
            }
        }
        us.matmul(&self.v.transpose())
    }

    /// Best rank-`k` approximation `A_k` (Eckart–Young), used by the sketch
    /// error-bound checks for Equation 4.
    pub fn truncated(&self, k: usize) -> Result<Matrix> {
        let k = k.min(self.sigma.len());
        let idx: Vec<usize> = (0..k).collect();
        let uk = self.u.select_cols(&idx)?;
        let vk = self.v.select_cols(&idx)?;
        let mut us = uk;
        for c in 0..k {
            let s = self.sigma[c];
            for r in 0..us.rows() {
                us[(r, c)] *= s;
            }
        }
        us.matmul(&vk.transpose())
    }
}

/// Computes the thin SVD of `a` (`m ≥ n` required; transpose wide inputs at
/// the call site — the group matrices of the attack are always tall).
pub fn thin_svd(a: &Matrix) -> Result<Svd> {
    thin_calls_counter().incr();
    let _span = neurodeanon_obs::span("svd.thin");
    let (m, n) = a.shape();
    if a.is_empty() {
        return Err(LinalgError::EmptyMatrix { op: "thin_svd" });
    }
    if m < n {
        return Err(LinalgError::DimensionMismatch {
            op: "thin_svd (need rows >= cols)",
            lhs: (m, n),
            rhs: (n, n),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite { op: "thin_svd" });
    }
    if m >= 2 * n {
        gram_svd(a)
    } else {
        jacobi_svd(a)
    }
}

/// Gram-matrix SVD for tall inputs.
fn gram_svd(a: &Matrix) -> Result<Svd> {
    let n = a.cols();
    let g = a.gram();
    let eig = sym_eigen(&g)?;
    // Eigenvalues of AᵀA are σ²; clamp tiny negatives from rounding.
    let sigma: Vec<f64> = eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
    let v = eig.vectors;
    // U = A V Σ⁻¹ column by column; rank-deficient directions get zeros.
    let av = a.matmul(&v)?;
    let mut u = av;
    let smax = sigma.first().copied().unwrap_or(0.0);
    let tol = RANK_TOL * smax.max(f64::MIN_POSITIVE) * (a.rows() as f64).sqrt();
    for c in 0..n {
        if sigma[c] > tol {
            let inv = 1.0 / sigma[c];
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

/// Round-robin ("circle method") Jacobi ordering for `n` columns: `n − 1`
/// rounds (`n` for odd `n`, one index sitting out per round) of `⌊n/2⌋`
/// pairs, every unordered pair appearing exactly once across the rounds and
/// the pairs within one round touching pairwise-disjoint columns.
///
/// Disjointness is what makes a round safe to execute in parallel without
/// changing any bit: rotations in the same round read and write different
/// columns, so their order cannot matter.
fn round_robin_rounds(n: usize) -> Vec<Vec<(usize, usize)>> {
    if n < 2 {
        return Vec::new();
    }
    // Pad odd n with a dummy index; pairs touching it are dropped.
    let nn = if n % 2 == 0 { n } else { n + 1 };
    let mut arr: Vec<usize> = (0..nn).collect();
    let mut rounds = Vec::with_capacity(nn - 1);
    for _ in 0..nn - 1 {
        let mut round = Vec::with_capacity(nn / 2);
        for i in 0..nn / 2 {
            let (a, b) = (arr[i], arr[nn - 1 - i]);
            if a < n && b < n {
                round.push((a.min(b), a.max(b)));
            }
        }
        rounds.push(round);
        // Rotate every position except arr[0] one step clockwise.
        arr[1..].rotate_right(1);
    }
    rounds
}

/// One-sided Jacobi SVD: rotate column pairs of `W` (a copy of `A`) until all
/// pairs are orthogonal; then `σ_j = ‖w_j‖`, `u_j = w_j/σ_j`, and `V`
/// accumulates the rotations.
///
/// Works on column-major copies (`wt` holds `Wᵀ`, so column `c` of `W` is the
/// contiguous row `c` of `wt`) and visits pairs in round-robin ("circle
/// method") order: each round's pairs touch disjoint columns, so the round
/// runs in parallel with bit-identical results at any thread count.
///
/// Public so benches can time this route directly against [`thin_svd`]'s
/// shape dispatch and the randomized subspace path; library code should call
/// [`thin_svd`], which picks the cheaper Gram route for tall inputs.
pub fn jacobi_svd(a: &Matrix) -> Result<Svd> {
    let _span = neurodeanon_obs::span("svd.jacobi");
    let (m, n) = a.shape();
    let mut wt = a.transpose();
    let mut vt = Matrix::identity(n);
    // Convergence threshold for column-pair orthogonality. Tighter values
    // can cycle forever on degenerate inputs (repeated rows/columns) where
    // rounding keeps |a_pq| hovering a few ulps above machine epsilon.
    let eps = 1e-12;
    // Columns whose squared norm falls below ε²·‖A‖²_F are numerically zero:
    // rotations preserve the Frobenius norm, and near-duplicate columns decay
    // toward denormals while staying ~100% correlated with a live column, so
    // the relative `apq` test alone never fires and the sweep cycles forever.
    // Such columns carry σ ≤ ε·‖A‖_F, far below RANK_TOL, so skipping them
    // cannot change the extracted factors.
    let fro2: f64 = wt.as_slice().iter().map(|x| x * x).sum();
    let col_floor = f64::EPSILON * f64::EPSILON * fro2;
    let rounds = round_robin_rounds(n);

    let mut converged = n < 2;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for round in &rounds {
            let mut flags = vec![0u8; round.len()];
            {
                let wshare = DisjointMut::new(wt.as_mut_slice());
                let vshare = DisjointMut::new(vt.as_mut_slice());
                let fshare = DisjointMut::new(&mut flags);
                par::par_tiles(round.len(), 1, 8 * m, JACOBI_PAR_THRESHOLD, |tile| {
                    for pi in tile.range() {
                        let (p, q) = round[pi];
                        // SAFETY: pairs within a round touch pairwise-
                        // disjoint columns and each pair index belongs to
                        // exactly one tile, so all these regions are owned
                        // exclusively by this iteration.
                        let wp = unsafe { wshare.slice(p * m, m) };
                        let wq = unsafe { wshare.slice(q * m, m) };
                        // The 2×2 Gram block of columns p, q.
                        let app = norm2_sq(wp);
                        let aqq = norm2_sq(wq);
                        let apq = dot(wp, wq);
                        if apq == 0.0
                            || app <= col_floor
                            || aqq <= col_floor
                            || apq.abs() <= eps * (app * aqq).sqrt()
                        {
                            continue;
                        }
                        unsafe { *fshare.get(pi) = 1 };
                        let theta = (aqq - app) / (2.0 * apq);
                        let t = if theta >= 0.0 {
                            1.0 / (theta + (1.0 + theta * theta).sqrt())
                        } else {
                            -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                        };
                        let c = 1.0 / (1.0 + t * t).sqrt();
                        let s = t * c;
                        for (x, y) in wp.iter_mut().zip(wq.iter_mut()) {
                            let (wpv, wqv) = (*x, *y);
                            *x = c * wpv - s * wqv;
                            *y = s * wpv + c * wqv;
                        }
                        let vp = unsafe { vshare.slice(p * n, n) };
                        let vq = unsafe { vshare.slice(q * n, n) };
                        for (x, y) in vp.iter_mut().zip(vq.iter_mut()) {
                            let (vpv, vqv) = (*x, *y);
                            *x = c * vpv - s * vqv;
                            *y = s * vpv + c * vqv;
                        }
                    }
                });
            }
            rotated |= flags.iter().any(|&f| f != 0);
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::NoConvergence {
            algo: "one-sided jacobi svd",
            iterations: MAX_SWEEPS,
        });
    }

    // Extract singular values (column norms = row norms of wt) and sort
    // descending, permuting U and V consistently (row selects on the
    // transposed copies).
    let mut sigma: Vec<f64> = (0..n).map(|c| norm2_sq(wt.row(c)).sqrt()).collect();
    let order = crate::vector::argsort_desc(&sigma);
    let mut ut = wt.select_rows(&order)?;
    let vt = vt.select_rows(&order)?;
    sigma = order.iter().map(|&i| sigma[i]).collect();

    let smax = sigma.first().copied().unwrap_or(0.0);
    let tol = RANK_TOL * smax.max(f64::MIN_POSITIVE) * (m as f64).sqrt();
    for c in 0..n {
        let urow = ut.row_mut(c);
        if sigma[c] > tol {
            let inv = 1.0 / sigma[c];
            for x in urow {
                *x *= inv;
            }
        } else {
            for x in urow {
                *x = 0.0;
            }
        }
    }
    Ok(Svd {
        u: ut.transpose(),
        sigma,
        v: vt.transpose(),
    })
}

/// Leverage scores of the rows of `a`: `ℓᵢ = ‖Uᵢ,⋆‖²` where `U` holds the
/// top-`rank` left singular vectors (Equation 5 of the paper).
///
/// When `k = None` all columns of the thin `U` (i.e. the full column space,
/// the paper's default) contribute; `k = Some(r)` restricts to the leading
/// `r` singular directions, the rank-`k` leverage scores used by the
/// relative-error bound of Equation 4.
pub fn leverage_scores(a: &Matrix, k: Option<usize>) -> Result<Vec<f64>> {
    let svd = thin_svd(a)?;
    Ok(leverage_scores_from_svd(&svd, k))
}

/// Leverage scores from a precomputed SVD (avoids refactorizing when both
/// scores and singular values are needed).
pub fn leverage_scores_from_svd(svd: &Svd, k: Option<usize>) -> Vec<f64> {
    let rank = svd.rank();
    let keep = k.map_or(rank, |kk| kk.min(rank));
    let m = svd.u.rows();
    let mut scores = vec![0.0; m];
    for (r, score) in scores.iter_mut().enumerate() {
        let row = svd.u.row(r);
        *score = row[..keep].iter().map(|x| x * x).sum();
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_svd(a: &Matrix, tol: f64) {
        let f = thin_svd(a).unwrap();
        // Reconstruction.
        let rec = f.reconstruct().unwrap();
        assert!(
            a.sub(&rec).unwrap().max_abs() < tol,
            "reconstruction error {} for {:?}",
            a.sub(&rec).unwrap().max_abs(),
            a.shape()
        );
        // Descending sigma, non-negative.
        for w in f.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(f.sigma.iter().all(|&s| s >= 0.0));
        // V orthonormal.
        let vtv = f.v.transpose().matmul(&f.v).unwrap();
        assert!(vtv.sub(&Matrix::identity(a.cols())).unwrap().max_abs() < 1e-8);
    }

    #[test]
    fn round_robin_covers_every_pair_once_disjointly() {
        for n in [2usize, 3, 4, 5, 8, 9] {
            let rounds = round_robin_rounds(n);
            let mut seen = std::collections::HashSet::new();
            for round in &rounds {
                let mut cols = std::collections::HashSet::new();
                for &(p, q) in round {
                    assert!(p < q && q < n);
                    // Disjoint columns within one round.
                    assert!(cols.insert(p) && cols.insert(q), "n={n}");
                    assert!(seen.insert((p, q)), "pair repeated for n={n}");
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn jacobi_converges_on_duplicate_row_sketch() {
        // Regression: this rank-2 uniform-sampling sketch (three identical
        // rows) sent the round-robin sweep into a rotation cycle — the dying
        // duplicate columns decayed to denormals while staying fully
        // correlated with a live column, so the relative skip test alone
        // never fired. The ε²·‖A‖²_F column floor breaks the cycle.
        let v = 0.2738612787525831;
        let a = Matrix::from_rows(&[
            &[v, v, v, v],
            &[v, v, v, v],
            &[0.0, 0.0, 16.431676725154983, 10.954451150103322],
            &[v, v, v, v],
        ])
        .unwrap();
        let f = jacobi_svd(&a).unwrap();
        assert_eq!(f.rank(), 2);
        assert!(a.sub(&f.reconstruct().unwrap()).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn svd_of_diagonal() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0], &[0.0, 0.0]]).unwrap();
        let f = thin_svd(&a).unwrap();
        assert!((f.sigma[0] - 4.0).abs() < 1e-10);
        assert!((f.sigma[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_route_squareish() {
        // m < 2n forces the Jacobi path.
        let a = Matrix::from_fn(6, 5, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0);
        check_svd(&a, 1e-9);
    }

    #[test]
    fn gram_route_tall() {
        // m >= 2n forces the Gram path.
        let a = Matrix::from_fn(40, 6, |r, c| ((r * 5 + c * 13) % 17) as f64 * 0.3 - 2.0);
        check_svd(&a, 1e-8);
    }

    #[test]
    fn both_routes_agree_on_singular_values() {
        let a = Matrix::from_fn(12, 5, |r, c| ((r * 3 + c * 7) % 13) as f64 - 6.0);
        let j = jacobi_svd(&a).unwrap();
        let g = gram_svd(&a).unwrap();
        for (sj, sg) in j.sigma.iter().zip(&g.sigma) {
            assert!((sj - sg).abs() < 1e-8, "{sj} vs {sg}");
        }
    }

    #[test]
    fn u_orthonormal_on_full_rank() {
        let a = Matrix::from_fn(30, 4, |r, c| ((r * 11 + c * 5) % 19) as f64 - 9.0);
        let f = thin_svd(&a).unwrap();
        assert_eq!(f.rank(), 4);
        let utu = f.u.transpose().matmul(&f.u).unwrap();
        assert!(utu.sub(&Matrix::identity(4)).unwrap().max_abs() < 1e-8);
    }

    #[test]
    fn rank_deficient_detected() {
        // Third column = first + second.
        let base = Matrix::from_fn(20, 2, |r, c| ((r * 7 + c * 5) % 9) as f64 - 4.0);
        let third: Vec<f64> = (0..20).map(|r| base[(r, 0)] + base[(r, 1)]).collect();
        let mut a = Matrix::zeros(20, 3);
        for r in 0..20 {
            a[(r, 0)] = base[(r, 0)];
            a[(r, 1)] = base[(r, 1)];
            a[(r, 2)] = third[r];
        }
        let f = thin_svd(&a).unwrap();
        assert_eq!(f.rank(), 2);
        // Reconstruction still exact (zero sigma direction contributes 0).
        assert!(a.sub(&f.reconstruct().unwrap()).unwrap().max_abs() < 1e-8);
    }

    #[test]
    fn zero_matrix_svd() {
        let a = Matrix::zeros(8, 3);
        let f = thin_svd(&a).unwrap();
        assert_eq!(f.rank(), 0);
        assert!(f.sigma.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn truncated_is_best_rank_k() {
        let a = Matrix::from_fn(10, 4, |r, c| ((r * 3 + c) % 7) as f64 + 0.1 * r as f64);
        let f = thin_svd(&a).unwrap();
        let a1 = f.truncated(1).unwrap();
        // Error of rank-1 approx equals sqrt(σ₂²+σ₃²+σ₄²) in Frobenius norm.
        let err = a.sub(&a1).unwrap().frobenius_norm();
        let expect = (f.sigma[1..].iter().map(|s| s * s).sum::<f64>()).sqrt();
        assert!((err - expect).abs() < 1e-8);
    }

    #[test]
    fn rejects_wide_and_nan() {
        assert!(thin_svd(&Matrix::zeros(2, 5)).is_err());
        let mut a = Matrix::zeros(4, 2);
        a[(0, 0)] = f64::NAN;
        assert!(thin_svd(&a).is_err());
    }

    #[test]
    fn leverage_scores_sum_to_rank() {
        let a = Matrix::from_fn(25, 4, |r, c| ((r * 13 + c * 3) % 23) as f64 - 11.0);
        let l = leverage_scores(&a, None).unwrap();
        let sum: f64 = l.iter().sum();
        assert!((sum - 4.0).abs() < 1e-8, "sum {sum}");
        assert!(l.iter().all(|&s| (0.0..=1.0 + 1e-12).contains(&s)));
    }

    #[test]
    fn leverage_scores_highlight_outlier_row() {
        // One row far outside the bulk subspace should have leverage near 1.
        let mut a = Matrix::from_fn(30, 3, |r, c| ((r + c) % 3) as f64 * 0.1);
        a.set_row(7, &[100.0, -50.0, 25.0]).unwrap();
        let l = leverage_scores(&a, None).unwrap();
        let top = crate::vector::argmax(&l).unwrap();
        assert_eq!(top, 7);
        assert!(l[7] > 0.9);
    }

    #[test]
    fn rank_k_leverage_restricts_columns() {
        let a = Matrix::from_fn(20, 4, |r, c| ((r * 7 + c * 5) % 13) as f64 - 6.0);
        let svd = thin_svd(&a).unwrap();
        let l1 = leverage_scores_from_svd(&svd, Some(1));
        let sum: f64 = l1.iter().sum();
        assert!((sum - 1.0).abs() < 1e-8);
    }
}
