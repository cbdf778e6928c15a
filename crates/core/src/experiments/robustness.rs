//! Degraded-data robustness sweep: identification accuracy vs corruption
//! severity, one curve per fault kind.
//!
//! The paper's evaluation assumes pristine releases; real neuroimaging
//! shares arrive with dropped regions, censored frames, truncated sessions,
//! spike artifacts, and whole-missing subjects. This sweep injects each
//! fault kind from [`neurodeanon_datasets::corruption`] at a severity grid
//! into the anonymous release and measures how the attack degrades under a
//! chosen [`DegradedInput`] policy — the robustness counterpart to the
//! defense trade-off curve. For spike artifacts the sweep additionally
//! replays the corrupted scans through motion scrubbing
//! ([`HcpCohort::with_scrub_threshold`]) to measure *recovered* accuracy.

use crate::attack::{AttackConfig, AttackPlan, DegradedInput};
use crate::Result;
use neurodeanon_datasets::{
    corrupted_hcp_group, CorruptionKind, CorruptionSpec, HcpCohort, Session, Task,
};

/// Framewise-displacement threshold used for the spike-recovery replay.
pub const RECOVERY_FD_THRESHOLD: f64 = 3.0;

/// One (kind, severity) cell of the robustness surface.
#[derive(Debug, Clone)]
pub struct RobustnessPoint {
    /// Fault kind injected into the anonymous release.
    pub kind: CorruptionKind,
    /// Severity in `[0, 1]` (0 = identity).
    pub severity: f64,
    /// Identification accuracy, when the attack completed. `None` when the
    /// policy rejected the degraded input (see `error`).
    pub accuracy: Option<f64>,
    /// Mean finite match margin (best minus second-best similarity).
    /// `None` when the attack errored or no margin was finite.
    pub mean_margin: Option<f64>,
    /// Accuracy after replaying the corrupted scans through spike
    /// scrubbing. Only populated for [`CorruptionKind::Spikes`].
    pub recovered_accuracy: Option<f64>,
    /// Display form of the typed error, when the attack refused to run.
    pub error: Option<String>,
}

/// The full sweep: a clean baseline plus one point per (kind, severity).
#[derive(Debug, Clone)]
pub struct RobustnessResult {
    /// Degradation policy the attack ran under.
    pub policy: DegradedInput,
    /// Accuracy on the uncorrupted release (severity-0 reference).
    pub baseline_accuracy: f64,
    /// Points in `CorruptionKind::ALL` × severity order.
    pub points: Vec<RobustnessPoint>,
}

/// Mean of the finite margins, `None` when none is finite.
fn mean_finite_margin(margins: &[f64]) -> Option<f64> {
    let finite: Vec<f64> = margins.iter().copied().filter(|m| m.is_finite()).collect();
    if finite.is_empty() {
        None
    } else {
        Some(finite.iter().sum::<f64>() / finite.len() as f64)
    }
}

/// Sweeps every corruption kind over `severities` on the cohort's
/// rest/rest release pair. The known matrix stays clean (the adversary's
/// reference data is curated); only the anonymous release is corrupted.
pub fn robustness_sweep(
    cohort: &HcpCohort,
    severities: &[f64],
    policy: DegradedInput,
    seed: u64,
) -> Result<RobustnessResult> {
    let known = cohort.group_matrix(Task::Rest, Session::One)?;
    let clean_anon = cohort.group_matrix(Task::Rest, Session::Two)?;
    let config = AttackConfig {
        degraded: policy,
        ..Default::default()
    };
    // One factorization serves the clean baseline and the whole surface.
    let mut plan = AttackPlan::prepare(known, config)?;
    let baseline_accuracy = plan.run_against(&clean_anon)?.accuracy;
    // Scrub-enabled twin of the cohort for the spike-recovery replay.
    let scrubbed = cohort.with_scrub_threshold(Some(RECOVERY_FD_THRESHOLD))?;

    let mut points = Vec::with_capacity(CorruptionKind::ALL.len() * severities.len());
    for &kind in CorruptionKind::ALL.iter() {
        for &severity in severities {
            let spec = CorruptionSpec {
                kind,
                severity,
                seed,
            };
            let anon = corrupted_hcp_group(cohort, Task::Rest, Session::Two, &spec)?;
            let (accuracy, mean_margin, error) = match plan.run_against(&anon) {
                Ok(out) => (
                    Some(out.accuracy),
                    mean_finite_margin(&out.match_margins()),
                    None,
                ),
                Err(e) => (None, None, Some(e.to_string())),
            };
            let recovered_accuracy = if kind == CorruptionKind::Spikes {
                let recovered = corrupted_hcp_group(&scrubbed, Task::Rest, Session::Two, &spec)?;
                plan.run_against(&recovered).ok().map(|o| o.accuracy)
            } else {
                None
            };
            points.push(RobustnessPoint {
                kind,
                severity,
                accuracy,
                mean_margin,
                recovered_accuracy,
                error,
            });
        }
    }
    Ok(RobustnessResult {
        policy,
        baseline_accuracy,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurodeanon_datasets::HcpCohortConfig;
    use std::sync::OnceLock;

    const SEVERITIES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

    /// One sweep per policy, computed once and shared by the tests below.
    fn sweep(policy: DegradedInput) -> &'static RobustnessResult {
        static REJECT: OnceLock<RobustnessResult> = OnceLock::new();
        static MASK: OnceLock<RobustnessResult> = OnceLock::new();
        static IMPUTE: OnceLock<RobustnessResult> = OnceLock::new();
        let cell = match policy {
            DegradedInput::Reject => &REJECT,
            DegradedInput::Mask => &MASK,
            DegradedInput::Impute => &IMPUTE,
        };
        cell.get_or_init(|| {
            let cohort = HcpCohort::generate(HcpCohortConfig::small(8, 55)).unwrap();
            robustness_sweep(&cohort, &SEVERITIES, policy, 11).unwrap()
        })
    }

    #[test]
    fn severity_zero_matches_clean_baseline() {
        for policy in [DegradedInput::Mask, DegradedInput::Impute] {
            let res = sweep(policy);
            assert!(res.baseline_accuracy >= 0.7, "{}", res.baseline_accuracy);
            for p in res.points.iter().filter(|p| p.severity == 0.0) {
                // Identity corruption must reproduce the clean result exactly.
                assert_eq!(
                    p.accuracy.unwrap().to_bits(),
                    res.baseline_accuracy.to_bits(),
                    "{policy}/{}: severity-0 diverged",
                    p.kind
                );
                assert!(p.error.is_none());
            }
        }
    }

    #[test]
    fn mask_policy_reports_no_nan_and_covers_grid() {
        for policy in [DegradedInput::Mask, DegradedInput::Impute] {
            let res = sweep(policy);
            assert_eq!(
                res.points.len(),
                CorruptionKind::ALL.len() * SEVERITIES.len()
            );
            for p in &res.points {
                if let Some(a) = p.accuracy {
                    assert!(
                        a.is_finite(),
                        "{policy}/{}@{}: NaN accuracy",
                        p.kind,
                        p.severity
                    );
                    assert!((0.0..=1.0).contains(&a));
                }
                if let Some(m) = p.mean_margin {
                    assert!(
                        m.is_finite(),
                        "{policy}/{}@{}: NaN margin",
                        p.kind,
                        p.severity
                    );
                }
            }
            // Spikes rows carry the recovery column; others do not.
            for p in &res.points {
                assert_eq!(
                    p.recovered_accuracy.is_some(),
                    p.kind == CorruptionKind::Spikes && p.accuracy.is_some(),
                    "{policy}/{}@{}",
                    p.kind,
                    p.severity
                );
            }
        }
    }

    #[test]
    fn accuracy_never_rises_with_severity_by_more_than_one_flip() {
        // 0.15 absorbs one of the 8 subjects flipping to a correct match.
        for policy in [DegradedInput::Mask, DegradedInput::Impute] {
            let res = sweep(policy);
            for &kind in CorruptionKind::ALL.iter() {
                let curve: Vec<(f64, f64)> = res
                    .points
                    .iter()
                    .filter(|p| p.kind == kind)
                    .filter_map(|p| p.accuracy.map(|a| (p.severity, a)))
                    .collect();
                for w in curve.windows(2) {
                    assert!(
                        w[1].1 <= w[0].1 + 0.15,
                        "{policy}/{kind}: accuracy rose with severity: {:?} -> {:?}",
                        w[0],
                        w[1]
                    );
                }
            }
        }
    }

    #[test]
    fn reject_policy_errors_on_nan_kinds_only() {
        let res = sweep(DegradedInput::Reject);
        for p in &res.points {
            if p.severity == 0.0 {
                assert!(p.error.is_none(), "{}: clean input rejected", p.kind);
                continue;
            }
            match p.kind {
                // These kinds introduce NaN cells ⇒ typed rejection.
                CorruptionKind::NanRegions
                | CorruptionKind::NanCells
                | CorruptionKind::DropSubjects => {
                    assert!(p.error.is_some(), "{}: expected rejection", p.kind);
                    assert!(p.accuracy.is_none());
                }
                // Frame-level faults keep the matrix finite ⇒ attack runs.
                CorruptionKind::CensorFrames
                | CorruptionKind::TruncateSession
                | CorruptionKind::Spikes => {
                    assert!(p.error.is_none(), "{}: {:?}", p.kind, p.error);
                }
            }
        }
    }

    #[test]
    fn scrubbing_recovers_spike_damage() {
        let cohort = HcpCohort::generate(HcpCohortConfig::small(8, 55)).unwrap();
        let res = robustness_sweep(&cohort, &[1.0], DegradedInput::Mask, 11).unwrap();
        let spike = res
            .points
            .iter()
            .find(|p| p.kind == CorruptionKind::Spikes)
            .unwrap();
        let (acc, rec) = (spike.accuracy.unwrap(), spike.recovered_accuracy.unwrap());
        assert!(
            rec + 1e-12 >= acc,
            "scrubbing made things worse: {rec} < {acc}"
        );
    }
}
