//! Sketch-quality functionals for the paper's two guarantees.
//!
//! * Equation 2 (additive): `E‖AᵀA − ÃᵀÃ‖_F ≤ ‖A‖_F²/√s` for ℓ₂ sampling.
//! * Equation 4 (relative): `‖A − A Ã†Ã‖ ≤ (1+ε)‖A − A_k‖` for leverage
//!   sampling of `O(k log k / ε²)` rows.
//!
//! These are used by the property and integration tests to verify that the
//! implemented samplers actually deliver their theory.

use crate::Result;
use neurodeanon_linalg::pinv::pinv;
use neurodeanon_linalg::svd::thin_svd;
use neurodeanon_linalg::Matrix;

/// Additive sketch error `‖AᵀA − ÃᵀÃ‖_F` (the left side of Equation 2).
pub fn gram_error(a: &Matrix, sketch: &Matrix) -> Result<f64> {
    let ga = a.gram();
    let gs = sketch.gram();
    Ok(ga.sub(&gs)?.frobenius_norm())
}

/// The Equation-2 bound `‖A‖_F² / √s` for a sketch of `s` rows.
pub fn additive_bound(a: &Matrix, s: usize) -> f64 {
    a.frobenius_norm().powi(2) / (s as f64).sqrt()
}

/// Relative projection error `‖A − A Ã†Ã‖_F` (the left side of Equation 4):
/// how much of `A` is lost by projecting onto the row space of the sketch.
pub fn projection_error(a: &Matrix, sketch: &Matrix) -> Result<f64> {
    // P = Ã†Ã projects onto the sketch's row space; shapes: (n×s)(s×n) = n×n.
    let p = pinv(sketch)?.matmul(sketch)?;
    let projected = a.matmul(&p)?;
    Ok(a.sub(&projected)?.frobenius_norm())
}

/// Frobenius error of the best rank-`k` approximation `‖A − A_k‖_F`
/// (the right-side reference of Equation 4, via Eckart–Young).
pub fn best_rank_k_error(a: &Matrix, k: usize) -> Result<f64> {
    let svd = thin_svd(a)?;
    let tail: f64 = svd.sigma.iter().skip(k).map(|s| s * s).sum();
    Ok(tail.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::SamplingDistribution;
    use crate::principal::principal_features;
    use crate::row_sample::row_sample;
    use neurodeanon_linalg::Rng64;

    /// A low-rank-plus-noise matrix: rank-2 structure with a small tail.
    fn structured(m: usize) -> Matrix {
        Matrix::from_fn(m, 6, |r, c| {
            let u1 = (r as f64 * 0.17).sin();
            let u2 = (r as f64 * 0.05).cos();
            3.0 * u1 * (c as f64 + 1.0)
                + 2.0 * u2 * ((c * c) as f64 - 2.0)
                + 0.01 * (((r * 31 + c * 7) % 13) as f64 - 6.0)
        })
    }

    #[test]
    fn gram_error_zero_for_full_sketch() {
        let a = structured(30);
        assert!(gram_error(&a, &a).unwrap() < 1e-9);
    }

    #[test]
    fn projection_error_zero_when_sketch_spans_rows() {
        // Any row basis that spans A's row space gives zero loss; use A itself.
        let a = structured(25);
        assert!(projection_error(&a, &a).unwrap() < 1e-6);
    }

    #[test]
    fn best_rank_k_error_decreases_in_k() {
        let a = structured(40);
        let mut prev = f64::INFINITY;
        for k in 0..=6 {
            let e = best_rank_k_error(&a, k).unwrap();
            assert!(e <= prev + 1e-12);
            prev = e;
        }
        assert!(best_rank_k_error(&a, 6).unwrap() < 1e-9);
    }

    #[test]
    fn leverage_sampling_achieves_near_optimal_projection() {
        // Equation 4 in action: a leverage sketch of modest size projects A
        // almost as well as the best rank-k approximation.
        let a = structured(200);
        let k = 2;
        let opt = best_rank_k_error(&a, k).unwrap();
        let mut rng = Rng64::new(31);
        let sketch = row_sample(&a, 40, SamplingDistribution::Leverage, &mut rng)
            .unwrap()
            .sketch;
        let err = projection_error(&a, &sketch).unwrap();
        // ε well under 1 for this comfortable oversampling.
        assert!(err <= 2.0 * opt + 1e-9, "err {err} vs opt {opt}");
    }

    #[test]
    fn deterministic_top_t_error_shrinks_with_t() {
        // Projection error of the deterministic selection is (weakly)
        // monotone in t and hits ~0 when every row is kept.
        let a = structured(60);
        let mut prev = f64::INFINITY;
        for t in [5, 15, 30, 60] {
            let r = principal_features(&a, t, None).unwrap().reduce(&a).unwrap();
            let err = projection_error(&a, &r).unwrap();
            assert!(err <= prev + 1e-6, "t={t}: {err} > {prev}");
            prev = err;
        }
        assert!(prev < 1e-6, "full selection should be lossless: {prev}");
    }

    #[test]
    fn deterministic_leverage_beats_uniform_on_skewed_input() {
        // On a matrix whose informative rows are few, deterministic
        // leverage selection dominates uniform random picks of equal size.
        let mut a = Matrix::filled(120, 4, 0.05);
        a.set_row(10, &[5.0, 0.0, 0.0, 0.0]).unwrap();
        a.set_row(50, &[0.0, 4.0, 0.0, 0.0]).unwrap();
        a.set_row(90, &[0.0, 0.0, 3.0, 2.0]).unwrap();
        let det = principal_features(&a, 4, None).unwrap().reduce(&a).unwrap();
        let det_err = projection_error(&a, &det).unwrap();
        let mut rng = Rng64::new(17);
        let mut uni_mean = 0.0;
        for _ in 0..20 {
            let s = row_sample(&a, 4, SamplingDistribution::Uniform, &mut rng).unwrap();
            uni_mean += projection_error(&a, &s.sketch).unwrap();
        }
        uni_mean /= 20.0;
        assert!(
            det_err < uni_mean * 0.5,
            "deterministic {det_err} vs uniform mean {uni_mean}"
        );
    }

    #[test]
    fn additive_bound_formula() {
        let a = structured(20);
        let b = additive_bound(&a, 16);
        assert!((b - a.frobenius_norm().powi(2) / 4.0).abs() < 1e-12);
    }
}
