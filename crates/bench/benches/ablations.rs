//! Ablation benches for the design choices DESIGN.md §4 calls out:
//! sampling strategy, retained-feature count, matching rule, atlas
//! granularity, and the t-SNE vs PCA embedding comparison that motivates
//! the paper's choice of a non-linear reduction for task identification.
//! Timed by the in-repo `neurodeanon_bench::timing` harness.

use neurodeanon_bench::fail;
use neurodeanon_bench::timing::Bench;
use neurodeanon_core::experiments::ablations::embedding_ablation_groups;
use neurodeanon_core::experiments::{
    ablation_atlas_granularity, ablation_feature_count, ablation_matching_rule,
    ablation_sampling_strategy,
};
use neurodeanon_datasets::{HcpCohort, HcpCohortConfig};
use neurodeanon_embedding::pca;
use neurodeanon_embedding::tsne::{tsne, TsneConfig};
use neurodeanon_linalg::Matrix;
use neurodeanon_ml::metrics::accuracy;
use neurodeanon_ml::KnnClassifier;

fn cohort() -> HcpCohort {
    HcpCohort::generate(HcpCohortConfig::small(12, 0xab))
        .unwrap_or_else(|e| fail(&format!("valid config: {e}")))
}

fn main() {
    let cohort = cohort();

    let b = Bench::new("ablation_sampling_strategy").iters(10);
    b.run("four_strategies", || {
        let rows = ablation_sampling_strategy(&cohort, 60, 3)
            .unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!())));
        // The paper's claim: leverage-based selection dominates.
        let det = rows
            .iter()
            .find(|r| r.strategy == "deterministic-leverage")
            .unwrap_or_else(|| fail("missing deterministic-leverage strategy row"))
            .accuracy;
        let uni = rows
            .iter()
            .find(|r| r.strategy == "uniform")
            .unwrap_or_else(|| fail("missing uniform strategy row"))
            .accuracy;
        assert!(det >= uni);
        rows
    });

    let b = Bench::new("ablation_feature_count").iters(10);
    b.run("sweep_5_to_400", || {
        ablation_feature_count(&cohort, &[5, 20, 100, 400])
            .unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!())))
    });

    let b = Bench::new("ablation_matching_rule").iters(10);
    b.run("argmax_vs_hungarian", || {
        ablation_matching_rule(&cohort)
            .unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!())))
    });

    let b = Bench::new("ablation_atlas_granularity").iters(10);
    b.run("regions_20_40", || {
        ablation_atlas_granularity(&[20, 40], 8, 5)
            .unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!())))
    });

    bench_ablation_embedding(&cohort);
}

/// t-SNE vs PCA for task clustering: embed the stacked conditions to 2-D
/// with both methods, transfer labels by 1-NN from half the subjects, and
/// compare accuracy — the paper's implicit justification for preferring the
/// non-linear embedding.
fn bench_ablation_embedding(cohort: &HcpCohort) {
    let groups = embedding_ablation_groups(cohort)
        .unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!())));
    let n_subjects = groups[0].n_subjects();
    // Stack points condition-major.
    let n_features = groups[0].n_features();
    let n_points = groups.len() * n_subjects;
    let mut points = Matrix::zeros(n_points, n_features);
    let mut labels = Vec::new();
    for (cond, grp) in groups.iter().enumerate() {
        let p = grp.to_points();
        for s in 0..n_subjects {
            points
                .set_row(cond * n_subjects + s, p.row(s))
                .unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!())));
            labels.push(cond);
        }
    }
    // Labeled = first half of subjects (all their conditions).
    let labeled: Vec<usize> = (0..n_points)
        .filter(|p| (p % n_subjects) < n_subjects / 2)
        .collect();
    let unlabeled: Vec<usize> = (0..n_points)
        .filter(|p| (p % n_subjects) >= n_subjects / 2)
        .collect();
    let eval = |embedding: &Matrix| -> f64 {
        let train_x = embedding
            .select_rows(&labeled)
            .unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!())));
        let train_y: Vec<usize> = labeled.iter().map(|&p| labels[p]).collect();
        let test_x = embedding
            .select_rows(&unlabeled)
            .unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!())));
        let truth: Vec<usize> = unlabeled.iter().map(|&p| labels[p]).collect();
        let mut knn = KnnClassifier::new(1)
            .unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!())));
        knn.fit(&train_x, &train_y)
            .unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!())));
        accuracy(
            &knn.predict(&test_x)
                .unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!()))),
            &truth,
        )
        .unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!())))
    };

    let b = Bench::new("ablation_embedding").iters(10);
    let cfg = TsneConfig {
        perplexity: 10.0,
        n_iter: 250,
        ..TsneConfig::default()
    };
    b.run("tsne_2d_plus_1nn", || {
        let emb = tsne(&points, &cfg)
            .unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!())));
        eval(&emb.embedding)
    });
    b.run("pca_2d_plus_1nn", || {
        let emb =
            pca(&points, 2).unwrap_or_else(|e| fail(&format!("{e} at ablations.rs:{}", line!())));
        eval(&emb)
    });
}
