//! E1 / E2 — Figures 1 and 2: pairwise similarity matrices of resting-state
//! and task connectomes across the two sessions, with diagonal-dominance
//! statistics and identification accuracy.

use crate::attack::{AttackConfig, AttackPlan};
use crate::Result;
use neurodeanon_datasets::{HcpCohort, Session, Task};
use neurodeanon_linalg::Matrix;

/// Result of a similarity-matrix experiment.
#[derive(Debug, Clone)]
pub struct SimilarityResult {
    /// The condition examined.
    pub task: Task,
    /// Known × anonymous similarity matrix (the figure's heat map).
    pub similarity: Matrix,
    /// Mean same-subject (diagonal) similarity.
    pub mean_diagonal: f64,
    /// Mean different-subject (off-diagonal) similarity.
    pub mean_offdiagonal: f64,
    /// Identification accuracy.
    pub accuracy: f64,
}

impl SimilarityResult {
    /// Diagonal-to-off-diagonal contrast (the visual strength of the
    /// figure's diagonal; Figure 2's contrast is weaker than Figure 1's).
    pub fn contrast(&self) -> f64 {
        self.mean_diagonal - self.mean_offdiagonal
    }
}

/// Runs the session-1 → session-2 similarity experiment for one condition.
///
/// Figure 1 is `task = Task::Rest`; Figure 2 is `task = Task::Language`.
pub fn similarity_experiment(
    cohort: &HcpCohort,
    task: Task,
    attack_config: AttackConfig,
) -> Result<SimilarityResult> {
    let known = cohort.group_matrix(task, Session::One)?;
    let anon = cohort.group_matrix(task, Session::Two)?;
    let out = AttackPlan::prepare(known, attack_config)?.run_against(&anon)?;
    Ok(SimilarityResult {
        task,
        mean_diagonal: out.mean_diagonal_similarity(),
        mean_offdiagonal: out.mean_offdiagonal_similarity(),
        accuracy: out.accuracy,
        similarity: out.similarity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurodeanon_datasets::HcpCohortConfig;

    #[test]
    fn rest_diagonal_dominates_and_beats_task_contrast() {
        let cohort = HcpCohort::generate(HcpCohortConfig::small(10, 21)).unwrap();
        let rest = similarity_experiment(&cohort, Task::Rest, AttackConfig::default()).unwrap();
        let lang = similarity_experiment(&cohort, Task::Language, AttackConfig::default()).unwrap();
        // Figure 1: strong diagonal at rest.
        assert!(rest.mean_diagonal > rest.mean_offdiagonal, "rest contrast");
        assert!(rest.contrast() > 0.15, "rest contrast {}", rest.contrast());
        // Figure 2 vs 1: the task contrast is weaker than at rest.
        assert!(
            lang.contrast() < rest.contrast(),
            "lang {} vs rest {}",
            lang.contrast(),
            rest.contrast()
        );
        // Both conditions still identify most subjects on a small cohort.
        assert!(rest.accuracy >= 0.8, "rest accuracy {}", rest.accuracy);
        assert_eq!(rest.similarity.shape(), (10, 10));
    }
}
