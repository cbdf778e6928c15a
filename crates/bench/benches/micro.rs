//! Micro-benchmarks of the numerical substrates the attack is built on:
//! matrix multiplication, Gram products, SVD (both routes), leverage
//! scores, Pearson connectome construction, FIR/FFT filtering, and t-SNE
//! iterations. These are the kernels whose cost the paper's "computationally
//! inexpensive, and can scale to large datasets" claim rests on. Timed by
//! the in-repo `neurodeanon_bench::timing` harness.

use neurodeanon_bench::fail;
use neurodeanon_bench::timing::{self, Bench, Sample};
use neurodeanon_embedding::tsne::{tsne, TsneConfig};
use neurodeanon_linalg::stats::correlation_matrix;
use neurodeanon_linalg::svd::{leverage_scores, thin_svd};
use neurodeanon_linalg::{par, Matrix, Rng64};
use neurodeanon_preprocess::filter::{fft_bandpass, fir_bandpass, Band};
use neurodeanon_testkit::json;
use std::path::{Path, PathBuf};

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::new(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gaussian())
}

/// Path of the bench JSON trajectory file (`NEURODEANON_BENCH_JSON`
/// overrides the default `bench_results.jsonl` in the working directory).
fn bench_json_path() -> PathBuf {
    std::env::var("NEURODEANON_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("bench_results.jsonl"))
}

/// Appends one thread-sweep sample to the bench JSON trajectory.
fn record_sweep(path: &Path, s: &Sample, threads: usize) {
    let rec = json!({
        "group": "paper_scale_thread_sweep",
        "label": s.label.as_str(),
        "threads": threads,
        "min_ns": s.min.as_nanos() as f64,
        "median_ns": s.median.as_nanos() as f64,
        "mean_ns": s.mean.as_nanos() as f64,
    });
    if let Err(e) = timing::append_jsonl(path, &rec) {
        eprintln!("bench json append failed for {}: {e}", path.display());
    }
}

fn main() {
    let b = Bench::new("matmul").iters(10);
    for n in [64usize, 128, 256] {
        let a = random_matrix(n, n, 1);
        let bm = random_matrix(n, n, 2);
        b.run(&format!("{n}"), || {
            a.matmul(&bm)
                .unwrap_or_else(|e| fail(&format!("{e} at micro.rs:{}", line!())))
        });
    }

    let b = Bench::new("gram_group_matrix").iters(10);
    // Tall group-matrix shapes: features × subjects.
    for (rows, cols) in [(6_670usize, 50usize), (20_000, 50)] {
        let a = random_matrix(rows, cols, 3);
        b.run(&format!("{rows}x{cols}"), || a.gram());
    }

    let b = Bench::new("thin_svd").iters(10);
    // Gram route (tall) and Jacobi route (square-ish).
    let tall = random_matrix(6_670, 40, 4);
    b.run("gram_route_6670x40", || {
        thin_svd(&tall).unwrap_or_else(|e| fail(&format!("{e} at micro.rs:{}", line!())))
    });
    let squareish = random_matrix(120, 80, 5);
    b.run("jacobi_route_120x80", || {
        thin_svd(&squareish).unwrap_or_else(|e| fail(&format!("{e} at micro.rs:{}", line!())))
    });

    let b = Bench::new("leverage").iters(10);
    let a = random_matrix(6_670, 40, 6);
    b.run("leverage_scores_6670x40", || {
        leverage_scores(&a, None).unwrap_or_else(|e| fail(&format!("{e} at micro.rs:{}", line!())))
    });
    // Randomized fast path at the same shape.
    let cfg = neurodeanon_linalg::rsvd::RsvdConfig {
        rank: 10,
        power_iters: 1,
        ..Default::default()
    };
    b.run("randomized_leverage_6670x40", || {
        neurodeanon_linalg::rsvd::randomized_leverage_scores(&a, &cfg)
            .unwrap_or_else(|e| fail(&format!("{e} at micro.rs:{}", line!())))
    });

    let b = Bench::new("correlation_matrix").iters(10);
    for (regions, t) in [(116usize, 500usize), (360, 800)] {
        let ts = random_matrix(regions, t, 7);
        b.run(&format!("{regions}x{t}"), || {
            correlation_matrix(&ts)
                .unwrap_or_else(|e| fail(&format!("{e} at micro.rs:{}", line!())))
        });
    }

    let b = Bench::new("bandpass").iters(10);
    let band = Band::hcp_resting();
    let ts = random_matrix(116, 500, 8);
    b.run("fft_116x500", || {
        let mut m = ts.clone();
        fft_bandpass(&mut m, band)
            .unwrap_or_else(|e| fail(&format!("{e} at micro.rs:{}", line!())));
        m
    });
    b.run("fir_116x500", || {
        let mut m = ts.clone();
        fir_bandpass(&mut m, band, 101)
            .unwrap_or_else(|e| fail(&format!("{e} at micro.rs:{}", line!())));
        m
    });

    let b = Bench::new("tsne").iters(10);
    let points = random_matrix(160, 64, 9);
    let cfg = TsneConfig {
        perplexity: 20.0,
        n_iter: 250,
        ..TsneConfig::default()
    };
    b.run("160pts_250iters", || {
        tsne(&points, &cfg).unwrap_or_else(|e| fail(&format!("{e} at micro.rs:{}", line!())))
    });

    // Paper-scale shapes (the 64,620 × 100 HCP group matrix of §4) swept
    // over thread counts; medians land in the bench JSON trajectory so the
    // NEURODEANON_THREADS=1 vs default speedup is recorded, not just printed.
    let json_path = bench_json_path();
    let a = random_matrix(64_620, 100, 10);
    let bm = random_matrix(100, 100, 11);
    let mut sweep: Vec<usize> = Vec::new();
    for t in [1, 2, par::num_threads()] {
        if !sweep.contains(&t) {
            sweep.push(t);
        }
    }
    for &t in &sweep {
        par::with_thread_count(t, || {
            let b = Bench::new("paper_scale").iters(3);
            let s = b.run(&format!("matmul_64620x100_100x100_t{t}"), || {
                a.matmul(&bm)
                    .unwrap_or_else(|e| fail(&format!("{e} at micro.rs:{}", line!())))
            });
            record_sweep(&json_path, &s, t);
            let s = b.run(&format!("gram_64620x100_t{t}"), || a.gram());
            record_sweep(&json_path, &s, t);
            let s = b.run(&format!("thin_svd_64620x100_t{t}"), || {
                thin_svd(&a).unwrap_or_else(|e| fail(&format!("{e} at micro.rs:{}", line!())))
            });
            record_sweep(&json_path, &s, t);
        });
    }
}
