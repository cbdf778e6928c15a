//! Open-world evaluation: enrollment-rate sweep with impostor queries,
//! CMC curves, rank-k accuracy, and ROC/DET operating points over a
//! rejection-threshold sweep.
//!
//! The paper's protocol (and every other experiment in this crate) is
//! closed-world — the query subject is always enrolled in the gallery.
//! This sweep measures the attack as an *open-set* recognizer: for each
//! enrollment rate, only that fraction of the cohort is enrolled
//! ([`crate::splits::enrollment_split`]), every subject queries anyway, and
//! the margin-thresholded decision layer ([`crate::matching::decide`]) must
//! identify the genuine queries while rejecting the impostors. Standard
//! open-set identification metrics apply:
//!
//! * **CMC** (cumulative match characteristic): `cmc[k]` = fraction of
//!   genuine queries whose true gallery subject ranks within the top
//!   `k + 1` similarity scores. `cmc[0]` is rank-1 accuracy and equals the
//!   closed-world [`matching_accuracy`](crate::matching::matching_accuracy)
//!   of the argmax predictions exactly.
//! * **TPIR / FPIR** (true/false positive identification rate): at a given
//!   threshold, the fraction of genuine queries accepted *and* correctly
//!   identified, and the fraction of impostor queries wrongly accepted.
//!   `(FPIR, FNIR = 1 − TPIR)` pairs are the DET operating points.

use crate::attack::{AttackConfig, AttackPlan};
use crate::matching::{decide, match_scores, Decision};
use crate::splits::enrollment_split;
use crate::Result;
use neurodeanon_datasets::{HcpCohort, Session, Task};
use neurodeanon_linalg::Matrix;

/// Rank of the true gallery subject in column `j` of the similarity
/// matrix, 1-based, with the same first-max-wins tie convention as
/// [`crate::matching::argmax_matching`]: ties ahead of the truth (lower
/// row index, equal score) outrank it. `None` when the true score is not
/// finite (the subject can never be retrieved at any rank).
fn rank_of_truth(similarity: &Matrix, j: usize, truth_row: usize) -> Option<usize> {
    let s_true = similarity[(truth_row, j)];
    if s_true.is_nan() {
        return None;
    }
    let mut rank = 1usize;
    for i in 0..similarity.rows() {
        if i == truth_row {
            continue;
        }
        let v = similarity[(i, j)];
        if v.is_nan() {
            continue;
        }
        if v > s_true || (v == s_true && i < truth_row) {
            rank += 1;
        }
    }
    Some(rank)
}

/// The cumulative match characteristic over the genuine (enrolled) queries
/// of a similarity matrix: `cmc[k]` = fraction of genuine queries whose
/// truth ranks ≤ `k + 1`. The curve has one entry per gallery subject, is
/// monotone non-decreasing, and its last entry is the closed-set hit rate
/// (1.0 whenever every genuine query's true score is finite).
pub fn cmc_curve(similarity: &Matrix, truth: &[usize]) -> Result<Vec<f64>> {
    if truth.len() != similarity.cols() {
        return Err(crate::CoreError::InvalidParameter {
            name: "truth",
            reason: "truth length must equal the similarity column count",
        });
    }
    let genuine: Vec<usize> = (0..truth.len())
        .filter(|&j| truth[j] != usize::MAX)
        .collect();
    if genuine.is_empty() {
        return Err(crate::CoreError::InvalidParameter {
            name: "truth",
            reason: "CMC needs at least one genuine (enrolled) query",
        });
    }
    let n_ranks = similarity.rows();
    let mut hits_at = vec![0usize; n_ranks];
    for &j in &genuine {
        if let Some(rank) = rank_of_truth(similarity, j, truth[j]) {
            // rank is within 1..=n_ranks by construction.
            hits_at[rank - 1] += 1;
        }
    }
    let mut cum = 0usize;
    Ok(hits_at
        .iter()
        .map(|&h| {
            cum += h;
            cum as f64 / genuine.len() as f64
        })
        .collect())
}

/// One ROC/DET operating point of the open-world decision layer.
#[derive(Debug, Clone, Copy)]
pub struct RocPoint {
    /// The margin threshold this point was measured at.
    pub threshold: f64,
    /// True positive identification rate: genuine queries accepted *and*
    /// correctly identified, over all genuine queries.
    pub tpir: f64,
    /// False positive identification rate: impostor queries wrongly
    /// accepted, over all impostor queries (`NaN` when the split has no
    /// impostors — the closed-world corner).
    pub fpir: f64,
    /// False negative identification rate, `1 − tpir` (the DET y-axis).
    pub fnir: f64,
}

/// Sweeps the rejection threshold over a similarity matrix, producing one
/// ROC/DET point per threshold. Both TPIR and FPIR are weakly decreasing
/// in the threshold: raising the bar only ever converts acceptances into
/// rejections.
pub fn roc_curve(
    similarity: &Matrix,
    truth: &[usize],
    thresholds: &[f64],
) -> Result<Vec<RocPoint>> {
    if truth.len() != similarity.cols() {
        return Err(crate::CoreError::InvalidParameter {
            name: "truth",
            reason: "truth length must equal the similarity column count",
        });
    }
    let scores = match_scores(similarity)?;
    let n_genuine = truth.iter().filter(|&&t| t != usize::MAX).count();
    let n_impostor = truth.len() - n_genuine;
    if n_genuine == 0 {
        return Err(crate::CoreError::InvalidParameter {
            name: "truth",
            reason: "ROC needs at least one genuine (enrolled) query",
        });
    }
    Ok(thresholds
        .iter()
        .map(|&threshold| {
            let decisions = decide(&scores, threshold);
            let mut true_accepts = 0usize;
            let mut false_accepts = 0usize;
            for (j, d) in decisions.iter().enumerate() {
                match (*d, truth[j]) {
                    (Decision::Match(p), t) if t != usize::MAX && p == t => true_accepts += 1,
                    (Decision::Match(_), t) if t == usize::MAX => false_accepts += 1,
                    _ => {}
                }
            }
            let tpir = true_accepts as f64 / n_genuine as f64;
            let fpir = if n_impostor == 0 {
                f64::NAN
            } else {
                false_accepts as f64 / n_impostor as f64
            };
            RocPoint {
                threshold,
                tpir,
                fpir,
                fnir: 1.0 - tpir,
            }
        })
        .collect())
}

/// Open-world measurements at one enrollment rate.
#[derive(Debug, Clone)]
pub struct OpenWorldResult {
    /// Fraction of query subjects enrolled in the gallery.
    pub enroll_rate: f64,
    /// Gallery size after the split.
    pub n_enrolled: usize,
    /// Impostor query count.
    pub n_impostors: usize,
    /// CMC curve over the genuine queries (one entry per gallery subject).
    pub cmc: Vec<f64>,
    /// Rank-1 identification accuracy (`cmc[0]`); bit-identical to the
    /// attack's closed-world accuracy over the enrolled queries.
    pub rank1_accuracy: f64,
    /// ROC/DET operating points, one per swept threshold.
    pub roc: Vec<RocPoint>,
}

/// The full sweep: per-rate open-world results plus the historical
/// closed-world baseline the rate-1.0 row must collapse onto.
#[derive(Debug, Clone)]
pub struct OpenWorldSweep {
    /// Closed-world accuracy of the full-gallery attack (the pre-existing
    /// protocol, no split, no rejection).
    pub baseline_accuracy: f64,
    /// One result per requested enrollment rate, in input order.
    pub results: Vec<OpenWorldResult>,
}

/// Runs the open-world sweep on the cohort's rest/rest release pair: for
/// each enrollment rate, a seeded split enrolls that fraction of subjects
/// into the gallery (`REST1` side), **every** subject queries with their
/// `REST2` connectome, and CMC plus a threshold-swept ROC are measured.
///
/// The split (and therefore every downstream number) is a pure function of
/// `(n_subjects, rate, seed)` — bit-identical at any thread count — and at
/// `enroll_rate = 1.0` the gallery is the identity selection, so the
/// rank-1 accuracy reproduces `baseline_accuracy` bit-for-bit.
pub fn openworld_sweep(
    cohort: &HcpCohort,
    enroll_rates: &[f64],
    thresholds: &[f64],
    seed: u64,
) -> Result<OpenWorldSweep> {
    let known = cohort.group_matrix(Task::Rest, Session::One)?;
    let anon = cohort.group_matrix(Task::Rest, Session::Two)?;
    let baseline_accuracy = AttackPlan::prepare(known.clone(), AttackConfig::default())?
        .run_against(&anon)?
        .accuracy;

    let mut results = Vec::with_capacity(enroll_rates.len());
    for &rate in enroll_rates {
        let split = enrollment_split(known.n_subjects(), rate, seed)?;
        let gallery = split.gallery(&known)?;
        // One factorization per gallery; the threshold sweep reuses the
        // similarity matrix, not the plan, so this is the only SVD.
        let mut plan = AttackPlan::prepare(gallery, AttackConfig::default())?;
        let out = plan.run_against(&anon)?;
        let cmc = cmc_curve(&out.similarity, &out.truth)?;
        let roc = roc_curve(&out.similarity, &out.truth, thresholds)?;
        results.push(OpenWorldResult {
            enroll_rate: rate,
            n_enrolled: split.enrolled().len(),
            n_impostors: split.impostors().len(),
            rank1_accuracy: cmc[0],
            cmc,
            roc,
        });
    }
    Ok(OpenWorldSweep {
        baseline_accuracy,
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{argmax_matching, matching_accuracy};
    use neurodeanon_datasets::HcpCohortConfig;

    fn cohort() -> HcpCohort {
        HcpCohort::generate(HcpCohortConfig::small(10, 31)).unwrap()
    }

    #[test]
    fn cmc_is_monotone_and_ends_at_one_on_finite_scores() {
        let s = Matrix::from_fn(6, 9, |i, j| (((i * 11 + j * 7) % 13) as f64) / 13.0);
        let truth: Vec<usize> = (0..9).map(|j| j % 6).collect();
        let cmc = cmc_curve(&s, &truth).unwrap();
        assert_eq!(cmc.len(), 6);
        for w in cmc.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(cmc[5], 1.0);
    }

    #[test]
    fn rank1_equals_argmax_accuracy() {
        let s = Matrix::from_fn(7, 7, |i, j| (((i * 5 + j * 9) % 17) as f64) / 17.0);
        let truth: Vec<usize> = (0..7).collect();
        let cmc = cmc_curve(&s, &truth).unwrap();
        let acc = matching_accuracy(&argmax_matching(&s).unwrap(), &truth).unwrap();
        assert_eq!(cmc[0].to_bits(), acc.to_bits());
    }

    #[test]
    fn rank_handles_ties_first_max_wins() {
        // Column 0: rows 0 and 1 tie at the top; truth row 1 is outranked
        // by the earlier row, so its rank is 2 (argmax would miss it too).
        let s = Matrix::from_rows(&[&[0.9, 0.1], &[0.9, 0.8], &[0.2, 0.3]]).unwrap();
        assert_eq!(rank_of_truth(&s, 0, 1), Some(2));
        assert_eq!(rank_of_truth(&s, 0, 0), Some(1));
        assert_eq!(rank_of_truth(&s, 1, 1), Some(1));
    }

    #[test]
    fn cmc_counts_unretrievable_truth_as_never_hit() {
        let mut s = Matrix::from_fn(3, 3, |i, j| ((i + 2 * j) % 4) as f64 * 0.2);
        // Query 1's true score is NaN: retrievable at no rank.
        s[(1, 1)] = f64::NAN;
        let truth = vec![0, 1, 2];
        let cmc = cmc_curve(&s, &truth).unwrap();
        assert!(cmc[2] < 1.0);
        assert!((cmc[2] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cmc_validations() {
        let s = Matrix::from_fn(2, 2, |_, _| 0.5);
        assert!(cmc_curve(&s, &[0]).is_err());
        assert!(cmc_curve(&s, &[usize::MAX, usize::MAX]).is_err());
    }

    #[test]
    fn roc_is_monotone_in_threshold() {
        let s = Matrix::from_fn(5, 8, |i, j| (((i * 3 + j * 11) % 19) as f64) / 19.0);
        // Half the queries are impostors.
        let truth: Vec<usize> = (0..8)
            .map(|j| if j % 2 == 0 { j % 5 } else { usize::MAX })
            .collect();
        let roc = roc_curve(&s, &truth, &[0.0, 0.02, 0.05, 0.1, 0.5, 2.0]).unwrap();
        for w in roc.windows(2) {
            assert!(w[1].tpir <= w[0].tpir);
            assert!(w[1].fpir <= w[0].fpir);
            assert!((w[0].fnir - (1.0 - w[0].tpir)).abs() < 1e-15);
        }
        // An impossible threshold rejects everything.
        assert_eq!(roc.last().unwrap().tpir, 0.0);
        assert_eq!(roc.last().unwrap().fpir, 0.0);
    }

    #[test]
    fn roc_fpir_is_nan_without_impostors() {
        let s = Matrix::from_fn(3, 3, |i, j| ((i * 2 + j) % 5) as f64 * 0.1);
        let truth = vec![0, 1, 2];
        let roc = roc_curve(&s, &truth, &[0.0]).unwrap();
        assert!(roc[0].fpir.is_nan());
        assert!(roc[0].tpir.is_finite());
    }

    #[test]
    fn sweep_covers_rates_and_collapses_at_full_enrollment() {
        let c = cohort();
        let sweep = openworld_sweep(&c, &[0.5, 1.0], &[0.0, 0.05, 0.2], 77).unwrap();
        assert!(
            sweep.baseline_accuracy.is_finite() && sweep.baseline_accuracy > 0.5,
            "implausible closed-world baseline {}",
            sweep.baseline_accuracy
        );
        assert_eq!(sweep.results.len(), 2);
        let half = &sweep.results[0];
        assert_eq!(half.n_enrolled, 5);
        assert_eq!(half.n_impostors, 5);
        assert_eq!(half.cmc.len(), 5);
        assert_eq!(half.roc.len(), 3);
        let full = &sweep.results[1];
        assert_eq!(full.n_impostors, 0);
        // The acceptance criterion: full enrollment reproduces the
        // closed-world accuracy bit-for-bit.
        assert_eq!(
            full.rank1_accuracy.to_bits(),
            sweep.baseline_accuracy.to_bits()
        );
    }

    #[test]
    fn impostors_score_lower_than_genuine_queries() {
        // The identification signal must actually separate the two
        // populations: at a moderate threshold, TPIR should exceed FPIR.
        let c = cohort();
        let sweep = openworld_sweep(&c, &[0.5], &[0.1], 77).unwrap();
        let p = sweep.results[0].roc[0];
        assert!(
            p.tpir > p.fpir,
            "no genuine/impostor separation: tpir {} fpir {}",
            p.tpir,
            p.fpir
        );
    }
}
