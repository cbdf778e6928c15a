//! Property suite for the degraded-data robustness layer (the fault model
//! of DESIGN.md §1.3): under arbitrary corruption of the anonymous release,
//! the attack must never panic — it returns `Ok` with finite, bounded
//! scores or a typed `CoreError` — and the `Mask`/`Impute` paths must be
//! bit-identical at any thread count, like every other kernel in the
//! workspace.

use neurodeanon_core::attack::{AttackConfig, AttackOutcome, AttackPlan, DeanonAttack};
use neurodeanon_core::{CoreError, DegradedInput};
use neurodeanon_datasets::{
    corrupt_group, corrupted_hcp_group, CorruptionKind, CorruptionSpec, HcpCohort, HcpCohortConfig,
    Session, Task,
};
use neurodeanon_linalg::par::with_thread_count;
use neurodeanon_linalg::rsvd::{randomized_svd_auto, RsvdConfig};
use neurodeanon_linalg::svd::{leverage_scores_from_svd, thin_svd};
use neurodeanon_linalg::vector::argsort_desc;
use neurodeanon_sampling::{finite_rows, intersect_sorted, rows_with_any_finite};
use neurodeanon_testkit::gen::{u64_in, usize_in};
use neurodeanon_testkit::{forall, tk_assert, tk_assert_eq, Config};

const POLICIES: [DegradedInput; 3] = [
    DegradedInput::Reject,
    DegradedInput::Mask,
    DegradedInput::Impute,
];

fn tiny(seed: u64) -> HcpCohort {
    HcpCohort::generate(HcpCohortConfig::small(6, seed)).unwrap()
}

fn check_outcome(out: &AttackOutcome, what: &str) -> Result<(), String> {
    tk_assert!(
        out.accuracy.is_finite() && (0.0..=1.0).contains(&out.accuracy),
        "{what}: accuracy {}",
        out.accuracy
    );
    for m in out.match_margins() {
        // Margins may be NaN (undefined), but never infinite.
        tk_assert!(!m.is_infinite(), "{what}: infinite margin");
    }
    Ok(())
}

/// Ok-or-typed-error, never a panic, for every fault kind × severity ×
/// policy — the headline contract of the degradation layer.
#[test]
fn attack_never_panics_under_arbitrary_corruption() {
    forall!(Config::cases(10), (seed in u64_in(0..1000), kind_idx in usize_in(0..6),
                                sev_step in usize_in(0..5)) => {
        let kind = CorruptionKind::ALL[kind_idx];
        let severity = sev_step as f64 * 0.25;
        let cohort = tiny(seed);
        let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let spec = CorruptionSpec { kind, severity, seed };
        let anon = corrupted_hcp_group(&cohort, Task::Rest, Session::Two, &spec).unwrap();
        for policy in POLICIES {
            let attack = DeanonAttack::new(AttackConfig {
                degraded: policy,
                ..Default::default()
            })
            .unwrap();
            match attack.run(&known, &anon) {
                Ok(out) => check_outcome(&out, &format!("{policy}/{kind}@{severity}"))?,
                Err(e) => {
                    // Only the documented degradation errors may surface.
                    tk_assert!(
                        matches!(
                            e,
                            CoreError::NonFiniteInput { .. }
                                | CoreError::InsufficientSupport { .. }
                                | CoreError::UnmatchableColumn { .. }
                        ),
                        "{policy}/{kind}@{severity}: unexpected error {e}"
                    );
                    // Finite inputs are never rejected.
                    tk_assert!(
                        !anon.as_matrix().is_finite(),
                        "{policy}/{kind}@{severity}: finite input errored: {e}"
                    );
                }
            }
        }
    });
}

/// On an uncorrupted cohort, the Mask and Impute policies take the exact
/// clean code path: bit-identical outcomes, including through a plan.
#[test]
fn policies_collapse_to_clean_path_on_clean_cohort() {
    forall!(Config::cases(6), (seed in u64_in(0..1000)) => {
        let cohort = tiny(seed);
        let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
        let baseline = DeanonAttack::new(AttackConfig::default())
            .unwrap()
            .run(&known, &anon)
            .unwrap();
        for policy in POLICIES {
            let config = AttackConfig { degraded: policy, ..Default::default() };
            let direct = DeanonAttack::new(config.clone()).unwrap().run(&known, &anon).unwrap();
            let mut plan = AttackPlan::prepare(known.clone(), config).unwrap();
            let planned = plan.run_against(&anon).unwrap();
            for out in [&direct, &planned] {
                tk_assert_eq!(baseline.predicted, out.predicted, "{policy}");
                tk_assert_eq!(baseline.selected_features, out.selected_features);
                tk_assert_eq!(baseline.accuracy.to_bits(), out.accuracy.to_bits());
                for (x, y) in baseline.similarity.as_slice().iter().zip(out.similarity.as_slice()) {
                    tk_assert_eq!(x.to_bits(), y.to_bits(), "{policy}");
                }
            }
        }
    });
}

/// The degraded paths inherit the `linalg::par` determinism contract:
/// bit-identical outcomes at 1 and 8 threads, for both recovery policies,
/// on both time-series-level and group-level corruption.
#[test]
fn degraded_paths_bit_identical_across_thread_counts() {
    forall!(Config::cases(6), (seed in u64_in(0..1000), kind_idx in usize_in(0..6)) => {
        let kind = CorruptionKind::ALL[kind_idx];
        let cohort = tiny(seed);
        let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let spec = CorruptionSpec { kind, severity: 0.5, seed };
        let anon = corrupted_hcp_group(&cohort, Task::Rest, Session::Two, &spec).unwrap();
        for policy in [DegradedInput::Mask, DegradedInput::Impute] {
            let attack = DeanonAttack::new(AttackConfig {
                degraded: policy,
                ..Default::default()
            })
            .unwrap();
            let reference = with_thread_count(1, || attack.run(&known, &anon));
            let par = with_thread_count(8, || attack.run(&known, &anon));
            match (reference, par) {
                (Ok(reference), Ok(par)) => {
                    tk_assert_eq!(reference.predicted, par.predicted, "{policy}/{kind}");
                    tk_assert_eq!(reference.selected_features, par.selected_features);
                    tk_assert_eq!(reference.accuracy.to_bits(), par.accuracy.to_bits());
                    for (x, y) in reference
                        .similarity
                        .as_slice()
                        .iter()
                        .zip(par.similarity.as_slice())
                    {
                        tk_assert_eq!(x.to_bits(), y.to_bits(), "{policy}/{kind}");
                    }
                }
                // A typed refusal (e.g. insufficient masked support) is
                // fine, but it too must be thread-count independent.
                (Err(a), Err(b)) => tk_assert_eq!(a, b, "{policy}/{kind}"),
                (a, b) => tk_assert!(
                    false,
                    "{policy}/{kind}: thread counts disagree: {a:?} vs {b:?}"
                ),
            }
        }
    });
}

/// Group-level corruption of the *known* side: the Mask policy still runs
/// (or reports insufficient support, for extreme dropout), and a plan over
/// the degraded known agrees with the direct attack.
#[test]
fn degraded_known_side_is_survivable_under_mask() {
    forall!(Config::cases(6), (seed in u64_in(0..1000), sev_step in usize_in(1..5)) => {
        let severity = sev_step as f64 * 0.25;
        let cohort = tiny(seed);
        let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
        let spec = CorruptionSpec { kind: CorruptionKind::NanRegions, severity, seed };
        let (bad_known, _) = corrupt_group(&known, &spec).unwrap();
        let config = AttackConfig { degraded: DegradedInput::Mask, ..Default::default() };
        let direct = DeanonAttack::new(config.clone()).unwrap().run(&bad_known, &anon);
        let planned = AttackPlan::prepare(bad_known, config)
            .and_then(|mut p| p.run_against(&anon));
        match (direct, planned) {
            (Ok(d), Ok(p)) => {
                check_outcome(&d, "mask/known")?;
                tk_assert_eq!(d.predicted, p.predicted);
                tk_assert_eq!(d.accuracy.to_bits(), p.accuracy.to_bits());
            }
            (Err(CoreError::InsufficientSupport { .. }),
             Err(CoreError::InsufficientSupport { .. })) => {}
            (d, p) => tk_assert!(false, "plan/direct disagree: {d:?} vs {p:?}"),
        }
    });
}

/// The masked path's leverage selection under a rank restriction and under
/// the randomized bank. With `Mask`, a cell-degraded anonymous release and
/// a clean or region-degraded known side, `selected_features` equals a
/// reference written out from public calls: the shared support
/// (`finite_rows(known)` ∩ `rows_with_any_finite(anon)`), `select_rows`,
/// `thin_svd` or `randomized_svd_auto`, `leverage_scores_from_svd`,
/// `argsort_desc`, and the top `t` mapped back through the support — at 1
/// and 8 threads. The randomized bank ignores `rank_k`.
#[test]
fn masked_selection_matches_reference_under_rank_k_and_randomized() {
    forall!(Config::cases(6), (seed in u64_in(0..1000), t in usize_in(5..120),
                               k in usize_in(1..6), known_step in usize_in(0..3)) => {
        let cohort = tiny(seed);
        let mut known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        if known_step > 0 {
            let severity = known_step as f64 * 0.25;
            let spec = CorruptionSpec { kind: CorruptionKind::NanRegions, severity, seed };
            known = corrupt_group(&known, &spec).unwrap().0;
        }
        let anon = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
        let spec = CorruptionSpec { kind: CorruptionKind::NanCells, severity: 0.5, seed };
        let (anon, _) = corrupt_group(&anon, &spec).unwrap();
        let shared = intersect_sorted(
            &finite_rows(known.as_matrix()),
            &rows_with_any_finite(anon.as_matrix()),
        );
        let known_sub = known.as_matrix().select_rows(&shared).unwrap();
        let rsvd = RsvdConfig { rank: 4, power_iters: 2, ..Default::default() };
        for (rank_k, randomized) in [
            (Some(k), None),
            (None, Some(rsvd.clone())),
            (Some(k), Some(rsvd.clone())),
        ] {
            let (svd, score_rank) = match &randomized {
                None => (thin_svd(&known_sub).unwrap(), rank_k),
                Some(cfg) => (randomized_svd_auto(&known_sub, cfg).unwrap(), None),
            };
            let order = argsort_desc(&leverage_scores_from_svd(&svd, score_rank));
            let expected: Vec<usize> =
                order[..t.min(shared.len())].iter().map(|&i| shared[i]).collect();
            let what = format!("rank_k={rank_k:?} randomized={}", randomized.is_some());
            let attack = DeanonAttack::new(AttackConfig {
                n_features: t,
                rank_k,
                randomized,
                degraded: DegradedInput::Mask,
                ..Default::default()
            })
            .unwrap();
            for threads in [1usize, 8] {
                let out = with_thread_count(threads, || attack.run(&known, &anon)).unwrap();
                tk_assert_eq!(&out.selected_features, &expected, "threads={threads} {what}");
            }
        }
    });
}
