//! Ablation studies for the design choices DESIGN.md §4 calls out:
//! sampling strategy, retained-feature count, matching rule, atlas
//! granularity, and the t-SNE vs PCA embedding for task clustering.

use crate::attack::{match_with_features, AttackConfig, AttackPlan, MatchRule};
use crate::Result;
use neurodeanon_datasets::{HcpCohort, HcpCohortConfig, Session, Task};
use neurodeanon_embedding::pca;
use neurodeanon_embedding::tsne::{tsne, TsneConfig};
use neurodeanon_linalg::{Matrix, Rng64};
use neurodeanon_ml::metrics::accuracy;
use neurodeanon_ml::KnnClassifier;
use neurodeanon_sampling::{principal_features, row_sample, SamplingDistribution};

/// Accuracy of the attack when features are chosen by the given strategy.
#[derive(Debug, Clone)]
pub struct SamplingAblationRow {
    /// Strategy label.
    pub strategy: String,
    /// Rest-rest identification accuracy.
    pub accuracy: f64,
}

/// Compares deterministic top-t leverage (the paper's method) against
/// randomized leverage / ℓ₂ / uniform sampling of the same feature budget.
pub fn ablation_sampling_strategy(
    cohort: &HcpCohort,
    n_features: usize,
    seed: u64,
) -> Result<Vec<SamplingAblationRow>> {
    let known = cohort.group_matrix(Task::Rest, Session::One)?;
    let anon = cohort.group_matrix(Task::Rest, Session::Two)?;
    let mut rng = Rng64::new(seed);
    let mut rows = Vec::new();

    // Deterministic top-t leverage (the paper's principal features).
    let pf = principal_features(known.as_matrix(), n_features, None)?;
    rows.push(SamplingAblationRow {
        strategy: "deterministic-leverage".to_string(),
        accuracy: match_with_features(&known, &anon, &pf.indices)?,
    });
    // Randomized strategies: sample with replacement, dedup, keep order.
    for (label, dist) in [
        ("randomized-leverage", SamplingDistribution::Leverage),
        ("l2-norm", SamplingDistribution::L2Norm),
        ("uniform", SamplingDistribution::Uniform),
    ] {
        let sample = row_sample(known.as_matrix(), n_features, dist, &mut rng)?;
        let mut idx = sample.indices.clone();
        idx.sort_unstable();
        idx.dedup();
        rows.push(SamplingAblationRow {
            strategy: label.to_string(),
            accuracy: match_with_features(&known, &anon, &idx)?,
        });
    }
    Ok(rows)
}

/// Accuracy as a function of the retained-feature count `t` (the paper's
/// claim: < 100 of 64,620 rows suffice).
pub fn ablation_feature_count(
    cohort: &HcpCohort,
    feature_counts: &[usize],
) -> Result<Vec<(usize, f64)>> {
    let known = cohort.group_matrix(Task::Rest, Session::One)?;
    let anon = cohort.group_matrix(Task::Rest, Session::Two)?;
    // One plan serves every `t`: the whole sweep costs a single thin SVD.
    let mut plan = AttackPlan::prepare(known, AttackConfig::default())?;
    let mut out = Vec::with_capacity(feature_counts.len());
    for &t in feature_counts {
        out.push((t, plan.run_with(&anon, t, MatchRule::Argmax)?.accuracy));
    }
    Ok(out)
}

/// Argmax vs Hungarian matching accuracy on the same similarity structure.
pub fn ablation_matching_rule(cohort: &HcpCohort) -> Result<Vec<(String, f64)>> {
    let known = cohort.group_matrix(Task::Rest, Session::One)?;
    let anon = cohort.group_matrix(Task::Rest, Session::Two)?;
    // Both rules read the same similarity structure: one plan, one SVD.
    let mut plan = AttackPlan::prepare(known, AttackConfig::default())?;
    let n_features = plan.config().n_features;
    let mut out = Vec::new();
    for (label, rule) in [
        ("argmax", MatchRule::Argmax),
        ("hungarian", MatchRule::Hungarian),
    ] {
        out.push((
            label.to_string(),
            plan.run_with(&anon, n_features, rule)?.accuracy,
        ));
    }
    Ok(out)
}

/// Rest-rest accuracy across atlas granularities (region counts). Each
/// granularity gets its own cohort with proportionally scaled signature
/// support, mirroring how a coarser atlas dilutes signature edges.
pub fn ablation_atlas_granularity(
    region_counts: &[usize],
    n_subjects: usize,
    seed: u64,
) -> Result<Vec<(usize, f64)>> {
    let mut out = Vec::with_capacity(region_counts.len());
    for &n_regions in region_counts {
        let cohort = HcpCohort::generate(HcpCohortConfig {
            n_subjects,
            n_regions,
            n_timepoints: 420,
            n_pop_factors: (n_regions / 4).max(4),
            n_task_factors: 6,
            n_sig_factors: 4,
            n_sig_regions: (n_regions / 4).max(2),
            noise_std: 0.35,
            session_strength: 0.12,
            signature_gain: 1.6,
            signature_instability: 0.58,
            seed,
            scrub_fd_threshold: None,
        })?;
        let known = cohort.group_matrix(Task::Rest, Session::One)?;
        let anon = cohort.group_matrix(Task::Rest, Session::Two)?;
        let mut plan = AttackPlan::prepare(known, AttackConfig::default())?;
        out.push((n_regions, plan.run_against(&anon)?.accuracy));
    }
    Ok(out)
}

/// t-SNE vs PCA-2D for task clustering: stacks rest and three tasks
/// (session one) condition-major, embeds the points to 2-D with each
/// method, transfers condition labels by 1-NN from the first half of the
/// subjects to the second, and returns `("tsne-2d", accuracy)` then
/// `("pca-2d", accuracy)` — the paper's implicit case for a non-linear
/// reduction.
pub fn ablation_embedding(cohort: &HcpCohort) -> Result<Vec<(String, f64)>> {
    let groups = [Task::Rest, Task::Motor, Task::Language, Task::Emotion]
        .iter()
        .map(|&t| cohort.group_matrix(t, Session::One))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let n_subjects = groups[0].n_subjects();
    let n_points = groups.len() * n_subjects;
    let mut points = Matrix::zeros(n_points, groups[0].n_features());
    let mut labels = Vec::with_capacity(n_points);
    for (cond, group) in groups.iter().enumerate() {
        let p = group.to_points();
        for s in 0..n_subjects {
            points.set_row(cond * n_subjects + s, p.row(s))?;
            labels.push(cond);
        }
    }
    // Labeled = every condition of the first half of the subjects.
    let (labeled, unlabeled): (Vec<usize>, Vec<usize>) =
        (0..n_points).partition(|p| p % n_subjects < n_subjects / 2);
    let label_transfer = |embedding: &Matrix| -> Result<f64> {
        let train_y: Vec<usize> = labeled.iter().map(|&p| labels[p]).collect();
        let truth: Vec<usize> = unlabeled.iter().map(|&p| labels[p]).collect();
        let mut knn = KnnClassifier::new(1)?;
        knn.fit(&embedding.select_rows(&labeled)?, &train_y)?;
        let predicted = knn.predict(&embedding.select_rows(&unlabeled)?)?;
        Ok(accuracy(&predicted, &truth)?)
    };
    let tsne_cfg = TsneConfig {
        perplexity: 10.0,
        n_iter: 250,
        ..TsneConfig::default()
    };
    Ok(vec![
        (
            "tsne-2d".to_string(),
            label_transfer(&tsne(&points, &tsne_cfg)?.embedding)?,
        ),
        ("pca-2d".to_string(), label_transfer(&pca(&points, 2)?)?),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cohort() -> HcpCohort {
        HcpCohort::generate(HcpCohortConfig::small(10, 71)).unwrap()
    }

    #[test]
    fn leverage_beats_uniform() {
        let rows = ablation_sampling_strategy(&cohort(), 60, 3).unwrap();
        let get = |s: &str| rows.iter().find(|r| r.strategy == s).unwrap().accuracy;
        let det = get("deterministic-leverage");
        let uni = get("uniform");
        assert!(det >= uni, "deterministic {det} vs uniform {uni}");
        assert!(det >= 0.8, "deterministic accuracy {det}");
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn accuracy_saturates_with_features() {
        let sweep = ablation_feature_count(&cohort(), &[5, 50, 400]).unwrap();
        // More features should not make things dramatically worse, and a
        // tiny budget is the weakest.
        assert!(sweep[0].1 <= sweep[1].1 + 0.2, "{sweep:?}");
        assert!(sweep[1].1 >= 0.7, "{sweep:?}");
    }

    #[test]
    fn hungarian_at_least_matches_argmax() {
        let rows = ablation_matching_rule(&cohort()).unwrap();
        let argmax = rows[0].1;
        let hungarian = rows[1].1;
        assert!(hungarian + 1e-9 >= argmax * 0.9, "{rows:?}");
    }

    #[test]
    fn embedding_ablation_reports_both_accuracies() {
        let rows = ablation_embedding(&cohort()).unwrap();
        let labels: Vec<&str> = rows.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["tsne-2d", "pca-2d"]);
        for (label, acc) in &rows {
            assert!((0.0..=1.0).contains(acc), "{label}: accuracy {acc}");
        }
    }

    #[test]
    fn granularity_sweep_runs() {
        let sweep = ablation_atlas_granularity(&[20, 40], 8, 5).unwrap();
        assert_eq!(sweep.len(), 2);
        for (n, acc) in sweep {
            assert!(acc >= 0.5, "{n} regions: accuracy {acc}");
        }
    }
}
