//! Property tests for the sampling layer.

use neurodeanon_linalg::par::with_thread_count;
use neurodeanon_linalg::svd::{leverage_scores_from_svd, thin_svd};
use neurodeanon_linalg::vector::argsort_desc;
use neurodeanon_linalg::{Matrix, Rng64};
use neurodeanon_sampling::sketch::{best_rank_k_error, projection_error};
use neurodeanon_sampling::{principal_features, row_sample, LeverageBank, SamplingDistribution};
use neurodeanon_testkit::gen::{matrix_in, u64_in, usize_in, Gen};
use neurodeanon_testkit::{forall, tk_assert, tk_assert_eq, Config};

fn cfg() -> Config {
    Config::cases(48)
}

fn matrix(rows: usize, cols: usize) -> impl Gen<Value = Matrix> {
    matrix_in(rows, cols, -3.0, 3.0)
}

#[test]
fn probabilities_are_distributions() {
    forall!(cfg(), (a in matrix(25, 4)) => {
        for dist in [SamplingDistribution::Uniform, SamplingDistribution::L2Norm, SamplingDistribution::Leverage] {
            match dist.probabilities(&a) {
                Ok(p) => {
                    tk_assert_eq!(p.len(), 25);
                    let total: f64 = p.iter().sum();
                    tk_assert!((total - 1.0).abs() < 1e-8);
                    tk_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
                }
                // All-zero matrices legitimately degenerate for norm-based
                // distributions.
                Err(_) => tk_assert!(a.max_abs() == 0.0),
            }
        }
    });
}

#[test]
fn row_sample_shape_and_indices() {
    forall!(cfg(), (a in matrix(30, 3), s in usize_in(1..20), seed in u64_in(0..500)) => {
        let out = row_sample(&a, s, SamplingDistribution::Uniform, &mut Rng64::new(seed)).unwrap();
        tk_assert_eq!(out.sketch.shape(), (s, 3));
        tk_assert_eq!(out.indices.len(), s);
        tk_assert!(out.indices.iter().all(|&i| i < 30));
    });
}

#[test]
fn principal_features_count_and_determinism() {
    forall!(cfg(), (a in matrix(40, 4), t in usize_in(1..=40)) => {
        let x = principal_features(&a, t, None).unwrap();
        let y = principal_features(&a, t, None).unwrap();
        tk_assert_eq!(&x.indices, &y.indices);
        tk_assert_eq!(x.indices.len(), t);
        // Indices are valid and distinct.
        let mut sorted = x.indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        tk_assert_eq!(sorted.len(), t);
        tk_assert!(x.indices.iter().all(|&i| i < 40));
    });
}

/// The memoized bank must be indistinguishable from the selection written
/// out step by step (`thin_svd` → `leverage_scores_from_svd` →
/// `argsort_desc`, truncated to `t`): for any matrix, any sampled `t`, both
/// rank paths, and at 1 or 8 threads, indices and scores agree bit-for-bit,
/// through the bank and through `principal_features`. This is the contract
/// that lets the attack plan amortize one SVD across a whole experiment
/// sweep without changing a single published number.
#[test]
fn leverage_bank_equals_principal_features_bitwise() {
    forall!(Config::cases(24), (a in matrix(40, 5), t in usize_in(1..=40), k in usize_in(1..=5)) => {
        for threads in [1usize, 8] {
            with_thread_count(threads, || -> Result<(), String> {
                let bank = LeverageBank::new(&a).unwrap();
                let svd = thin_svd(&a).unwrap();
                for rank_k in [None, Some(k)] {
                    let scores = leverage_scores_from_svd(&svd, rank_k);
                    let mut indices = argsort_desc(&scores);
                    indices.truncate(t);
                    for (what, got) in [
                        ("bank", bank.select(t, rank_k).unwrap()),
                        ("principal_features", principal_features(&a, t, rank_k).unwrap()),
                    ] {
                        tk_assert_eq!(
                            &got.indices, &indices,
                            "{} threads={} t={} rank_k={:?}", what, threads, t, rank_k
                        );
                        tk_assert_eq!(got.scores.len(), scores.len());
                        for (i, (x, y)) in got.scores.iter().zip(&scores).enumerate() {
                            tk_assert_eq!(
                                x.to_bits(), y.to_bits(),
                                "{} score {} diverges: {} vs {} (threads={} rank_k={:?})",
                                what, i, x, y, threads, rank_k
                            );
                        }
                    }
                    tk_assert_eq!(bank.select_indices(t, rank_k).unwrap(), indices);
                }
                Ok(())
            })?;
        }
    });
}

#[test]
fn projection_error_nonincreasing_in_t() {
    forall!(cfg(), (a in matrix(30, 4)) => {
        let mut prev = f64::INFINITY;
        for t in [3usize, 10, 30] {
            let r = principal_features(&a, t, None).unwrap().reduce(&a).unwrap();
            let e = projection_error(&a, &r).unwrap();
            tk_assert!(e <= prev + 1e-6, "t={} error {} > prev {}", t, e, prev);
            prev = e;
        }
    });
}

#[test]
fn best_rank_error_brackets_projection() {
    forall!(cfg(), (a in matrix(20, 4)) => {
        // For any sketch, projection error ≥ best same-rank truncation error.
        let sk = principal_features(&a, 4, None).unwrap().reduce(&a).unwrap();
        let err = projection_error(&a, &sk).unwrap();
        let opt = best_rank_k_error(&a, 4).unwrap();
        tk_assert!(err + 1e-8 >= opt);
    });
}
