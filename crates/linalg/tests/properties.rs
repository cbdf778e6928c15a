//! Property-based tests for the linear-algebra substrate.
//!
//! Each property restates the mathematical definition the implementation
//! must satisfy, on randomized inputs — the testkit counterpart of the
//! hand-picked unit tests inside each module.

use neurodeanon_linalg::cholesky::{cholesky, cholesky_solve};
use neurodeanon_linalg::eigen::sym_eigen;
use neurodeanon_linalg::matrix::Matrix;
use neurodeanon_linalg::pinv::pinv;
use neurodeanon_linalg::qr::qr;
use neurodeanon_linalg::stats;
use neurodeanon_linalg::svd::{leverage_scores, thin_svd};
use neurodeanon_linalg::vector;
use neurodeanon_testkit::gen::{f64_in, from_fn, matrix_in, vec_of, Gen};
use neurodeanon_testkit::{forall, tk_assert, tk_assert_eq, Config};

fn cfg() -> Config {
    Config::cases(64)
}

/// Generator: a random tall matrix with 4..=20 rows, 2..=4 cols, rows >= cols.
fn tall_matrix() -> impl Gen<Value = Matrix> {
    from_fn(|rng| {
        let n = 2 + rng.below(3); // 2..=4
        let m = (4 + rng.below(17)).max(n); // 4..=20
        Matrix::from_fn(m, n, |_, _| rng.uniform_range(-10.0, 10.0))
    })
}

#[test]
fn matmul_is_associative() {
    forall!(cfg(), (a in matrix_in(4, 3, -10.0, 10.0),
                    b in matrix_in(3, 5, -10.0, 10.0),
                    c in matrix_in(5, 2, -10.0, 10.0)) => {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        tk_assert!(left.sub(&right).unwrap().max_abs() < 1e-8);
    });
}

#[test]
fn matmul_distributes_over_add() {
    forall!(cfg(), (a in matrix_in(3, 4, -10.0, 10.0),
                    b in matrix_in(4, 3, -10.0, 10.0),
                    c in matrix_in(4, 3, -10.0, 10.0)) => {
        let left = a.matmul(&b.add(&c).unwrap()).unwrap();
        let right = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        tk_assert!(left.sub(&right).unwrap().max_abs() < 1e-8);
    });
}

#[test]
fn transpose_of_product() {
    forall!(cfg(), (a in matrix_in(4, 3, -10.0, 10.0), b in matrix_in(3, 5, -10.0, 10.0)) => {
        // (AB)ᵀ = BᵀAᵀ
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        tk_assert!(left.sub(&right).unwrap().max_abs() < 1e-9);
    });
}

#[test]
fn gram_equals_ata() {
    forall!(cfg(), (a in tall_matrix()) => {
        let g = a.gram();
        let ata = a.transpose().matmul(&a).unwrap();
        tk_assert!(g.sub(&ata).unwrap().max_abs() < 1e-8);
    });
}

#[test]
fn svd_reconstructs() {
    forall!(cfg(), (a in tall_matrix()) => {
        let f = thin_svd(&a).unwrap();
        let rec = f.reconstruct().unwrap();
        let scale = a.max_abs().max(1.0);
        tk_assert!(a.sub(&rec).unwrap().max_abs() < 1e-7 * scale);
    });
}

#[test]
fn svd_v_orthonormal() {
    forall!(cfg(), (a in tall_matrix()) => {
        let f = thin_svd(&a).unwrap();
        let vtv = f.v.transpose().matmul(&f.v).unwrap();
        tk_assert!(vtv.sub(&Matrix::identity(a.cols())).unwrap().max_abs() < 1e-8);
    });
}

#[test]
fn svd_frobenius_identity() {
    forall!(cfg(), (a in tall_matrix()) => {
        // ‖A‖_F² = Σ σᵢ²
        let f = thin_svd(&a).unwrap();
        let fro2 = a.frobenius_norm().powi(2);
        let ssum: f64 = f.sigma.iter().map(|s| s * s).sum();
        tk_assert!((fro2 - ssum).abs() < 1e-6 * fro2.max(1.0));
    });
}

#[test]
fn leverage_scores_sum_to_rank_prop() {
    forall!(cfg(), (a in tall_matrix()) => {
        let f = thin_svd(&a).unwrap();
        let scores = leverage_scores(&a, None).unwrap();
        let sum: f64 = scores.iter().sum();
        tk_assert!((sum - f.rank() as f64).abs() < 1e-6,
            "sum {} rank {}", sum, f.rank());
        for &s in &scores {
            tk_assert!((-1e-9..=1.0 + 1e-9).contains(&s));
        }
    });
}

#[test]
fn qr_reconstructs_and_q_orthonormal() {
    forall!(cfg(), (a in tall_matrix()) => {
        let f = qr(&a).unwrap();
        let rec = f.q.matmul(&f.r).unwrap();
        let scale = a.max_abs().max(1.0);
        tk_assert!(a.sub(&rec).unwrap().max_abs() < 1e-8 * scale);
        let qtq = f.q.transpose().matmul(&f.q).unwrap();
        tk_assert!(qtq.sub(&Matrix::identity(a.cols())).unwrap().max_abs() < 1e-8);
    });
}

#[test]
fn cholesky_roundtrip_on_generated_spd() {
    forall!(cfg(), (b in matrix_in(5, 5, -10.0, 10.0)) => {
        // A = B Bᵀ + 5 I is SPD for any B.
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..5 { a[(i, i)] += 5.0; }
        let l = cholesky(&a).unwrap();
        let llt = l.matmul(&l.transpose()).unwrap();
        tk_assert!(a.sub(&llt).unwrap().max_abs() < 1e-7 * a.max_abs());
        // And the solver inverts it.
        let x_true = Matrix::from_fn(5, 1, |r, _| r as f64 - 2.0);
        let rhs = a.matmul(&x_true).unwrap();
        let x = cholesky_solve(&l, &rhs).unwrap();
        tk_assert!(x.sub(&x_true).unwrap().max_abs() < 1e-6);
    });
}

#[test]
fn sym_eigen_trace_and_orthogonality() {
    forall!(cfg(), (b in matrix_in(4, 4, -10.0, 10.0)) => {
        let a = b.add(&b.transpose()).unwrap(); // symmetrize
        let e = sym_eigen(&a).unwrap();
        let trace: f64 = (0..4).map(|i| a[(i, i)]).sum();
        let esum: f64 = e.values.iter().sum();
        tk_assert!((trace - esum).abs() < 1e-7 * trace.abs().max(1.0));
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        tk_assert!(vtv.sub(&Matrix::identity(4)).unwrap().max_abs() < 1e-8);
    });
}

#[test]
fn pinv_satisfies_apa_eq_a() {
    forall!(cfg(), (a in tall_matrix()) => {
        let p = pinv(&a).unwrap();
        let apa = a.matmul(&p).unwrap().matmul(&a).unwrap();
        let scale = a.max_abs().max(1.0);
        tk_assert!(apa.sub(&a).unwrap().max_abs() < 1e-5 * scale);
    });
}

#[test]
fn pearson_bounded_and_symmetric() {
    forall!(cfg(), (x in vec_of(f64_in(-100.0..100.0), 5..40),
                    y_seed in vec_of(f64_in(-100.0..100.0), 5..40)) => {
        let n = x.len().min(y_seed.len());
        let xs = &x[..n];
        let ys = &y_seed[..n];
        let r = stats::pearson(xs, ys).unwrap();
        tk_assert!((-1.0..=1.0).contains(&r));
        let r2 = stats::pearson(ys, xs).unwrap();
        tk_assert!((r - r2).abs() < 1e-12);
    });
}

#[test]
fn pearson_invariant_to_affine() {
    forall!(cfg(), (x in vec_of(f64_in(-10.0..10.0), 8..20),
                    scale in f64_in(0.1..10.0), shift in f64_in(-100.0..100.0)) => {
        let y: Vec<f64> = x.iter().enumerate().map(|(i, &v)| v + (i as f64).sin()).collect();
        let r1 = stats::pearson(&x, &y).unwrap();
        let xs: Vec<f64> = x.iter().map(|v| scale * v + shift).collect();
        let r2 = stats::pearson(&xs, &y).unwrap();
        tk_assert!((r1 - r2).abs() < 1e-8);
    });
}

#[test]
fn zscore_idempotent() {
    forall!(cfg(), (x in vec_of(f64_in(-50.0..50.0), 4..30)) => {
        let mut x = x;
        stats::zscore_in_place(&mut x);
        let once = x.clone();
        stats::zscore_in_place(&mut x);
        for (a, b) in once.iter().zip(&x) {
            tk_assert!((a - b).abs() < 1e-9);
        }
    });
}

#[test]
fn correlation_matrix_is_valid() {
    forall!(cfg(), (m in matrix_in(4, 12, -10.0, 10.0)) => {
        let c = stats::correlation_matrix(&m).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                tk_assert!((-1.0..=1.0).contains(&c[(i, j)]));
                tk_assert!((c[(i, j)] - c[(j, i)]).abs() < 1e-10);
            }
        }
    });
}

#[test]
fn argsort_desc_is_sorted_permutation() {
    forall!(cfg(), (v in vec_of(f64_in(-1000.0..1000.0), 0..50)) => {
        let idx = vector::argsort_desc(&v);
        tk_assert_eq!(idx.len(), v.len());
        let mut seen = idx.clone();
        seen.sort_unstable();
        tk_assert_eq!(seen, (0..v.len()).collect::<Vec<_>>());
        for w in idx.windows(2) {
            tk_assert!(v[w[0]] >= v[w[1]]);
        }
    });
}

#[test]
fn dot_is_bilinear() {
    forall!(cfg(), (a in vec_of(f64_in(-5.0..5.0), 10..11),
                    b in vec_of(f64_in(-5.0..5.0), 10..11),
                    c in vec_of(f64_in(-5.0..5.0), 10..11),
                    alpha in f64_in(-3.0..3.0)) => {
        // dot(αa + b, c) = α·dot(a,c) + dot(b,c)
        let combo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| alpha * x + y).collect();
        let left = vector::dot(&combo, &c);
        let right = alpha * vector::dot(&a, &c) + vector::dot(&b, &c);
        tk_assert!((left - right).abs() < 1e-8);
    });
}

#[test]
fn nrmse_scale_behaviour() {
    forall!(cfg(), (truth in vec_of(f64_in(0.0..100.0), 4..20),
                    noise in f64_in(-0.5..0.5)) => {
        // Non-constant target guaranteed by adding an index ramp.
        let truth: Vec<f64> = truth.iter().enumerate().map(|(i, &t)| t + i as f64 * 10.0).collect();
        let pred: Vec<f64> = truth.iter().map(|&t| t + noise).collect();
        let e = stats::nrmse_percent(&pred, &truth).unwrap();
        tk_assert!(e >= 0.0);
        // Error of a constant-offset prediction is |noise| / range * 100.
        let range = truth.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - truth.iter().cloned().fold(f64::INFINITY, f64::min);
        tk_assert!((e - 100.0 * noise.abs() / range).abs() < 1e-6);
    });
}

#[test]
fn impute_row_means_matches_plain_mean_bitwise() {
    // Ordinary rows (sums that cannot overflow) fill every missing cell with
    // exactly `sum / n` of the row's finite entries, summed left to right.
    let gapped = from_fn(|rng| {
        let (rows, cols) = (1 + rng.below(6), 1 + rng.below(9));
        Matrix::from_fn(rows, cols, |_, _| match rng.below(5) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => rng.uniform_range(-1e6, 1e6),
        })
    });
    forall!(cfg(), (m in gapped) => {
        let mut filled = m.clone();
        stats::impute_row_means(&mut filled);
        for r in 0..m.rows() {
            let finite: Vec<f64> = m.row(r).iter().copied().filter(|x| x.is_finite()).collect();
            let mut sum = 0.0;
            for &x in &finite {
                sum += x;
            }
            let want = if finite.is_empty() { 0.0 } else { sum / finite.len() as f64 };
            for (c, &x) in m.row(r).iter().enumerate() {
                let expect = if x.is_finite() { x } else { want };
                tk_assert_eq!(filled[(r, c)].to_bits(), expect.to_bits(), "cell ({r}, {c})");
            }
        }
    });
}
