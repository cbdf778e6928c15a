//! Property tests for the attack-pipeline core: matching invariants and
//! defense monotonicity, on the testkit harness.

use neurodeanon_connectome::GroupMatrix;
use neurodeanon_core::attack::{AttackConfig, AttackPlan, DeanonAttack, MatchRule};
use neurodeanon_core::defense::{evaluate_defense, signature_edges, DefensePlan};
use neurodeanon_core::matching::{argmax_matching, hungarian_matching, matching_accuracy};
use neurodeanon_datasets::{HcpCohort, HcpCohortConfig, Session, Task};
use neurodeanon_linalg::par::with_thread_count;
use neurodeanon_linalg::stats::zscored_cols_into;
use neurodeanon_linalg::svd::{leverage_scores_from_svd, thin_svd};
use neurodeanon_linalg::vector::{argsort_desc, dot};
use neurodeanon_linalg::{Matrix, Rng64};
use neurodeanon_testkit::gen::{from_fn, u64_in, usize_in};
use neurodeanon_testkit::{forall, tk_assert, tk_assert_eq, Config};

/// Accuracy is a fraction of matched columns, so it must stay in [0, 1]
/// for any prediction/truth pair of equal length.
#[test]
fn matching_accuracy_bounded() {
    forall!(Config::cases(64), (pt in from_fn(|rng| {
        let n = 1 + rng.below(40);
        let pred: Vec<usize> = (0..n).map(|_| rng.below(n)).collect();
        let truth: Vec<usize> = (0..n).map(|_| rng.below(n)).collect();
        (pred, truth)
    })) => {
        let (pred, truth) = pt;
        let acc = matching_accuracy(&pred, &truth).unwrap();
        tk_assert!((0.0..=1.0).contains(&acc), "accuracy {acc}");
        // Perfect agreement with itself is exactly 1.
        tk_assert_eq!(matching_accuracy(&truth, &truth).unwrap(), 1.0);
    });
}

/// Hungarian assignment must be a permutation of the known subjects —
/// unlike greedy argmax it can never assign one row twice.
#[test]
fn hungarian_assignment_is_a_permutation() {
    forall!(Config::cases(48), (s in from_fn(|rng| {
        let n = 2 + rng.below(12);
        Matrix::from_fn(n, n, |_, _| rng.uniform_range(-1.0, 1.0))
    })) => {
        let n = s.rows();
        let assignment = hungarian_matching(&s).unwrap();
        tk_assert_eq!(assignment.len(), n);
        let mut seen = assignment.clone();
        seen.sort_unstable();
        tk_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        // Argmax predictions are at least valid row indices.
        let greedy = argmax_matching(&s).unwrap();
        tk_assert!(greedy.iter().all(|&r| r < n));
    });
}

/// Running the attack with the release equal to the known group is the
/// degenerate self-match: every subject is its own best match.
#[test]
fn self_match_on_identical_groups_is_perfect() {
    forall!(Config::cases(8), (seed in u64_in(0..1000), n in usize_in(5..9)) => {
        let cohort = HcpCohort::generate(HcpCohortConfig::small(n, seed)).unwrap();
        let g = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let attack = DeanonAttack::new(AttackConfig::default()).unwrap();
        let out = attack.run(&g, &g).unwrap();
        tk_assert_eq!(out.accuracy, 1.0, "self-match must identify everyone");
        // The diagonal is exact self-correlation.
        tk_assert!(out.mean_diagonal_similarity() > 0.999);
    });
}

/// Attack accuracy is always a valid fraction, whatever the cohort.
#[test]
fn attack_accuracy_bounded() {
    forall!(Config::cases(8), (seed in u64_in(0..1000)) => {
        let cohort = HcpCohort::generate(HcpCohortConfig::small(6, seed)).unwrap();
        let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
        let attack = DeanonAttack::new(AttackConfig::default()).unwrap();
        let out = attack.run(&known, &anon).unwrap();
        tk_assert!((0.0..=1.0).contains(&out.accuracy));
        tk_assert!(out.predicted.iter().all(|&p| p < known.n_subjects()));
    });
}

/// Defense monotonicity: strengthening the targeted noise never helps the
/// attacker. Zero noise leaves accuracy at the baseline exactly; a heavy
/// perturbation of the signature edges must not *increase* accuracy (a
/// small tolerance absorbs the randomness of individual noise draws).
#[test]
fn more_targeted_noise_never_helps_the_attacker() {
    forall!(Config::cases(6), (seed in u64_in(0..500)) => {
        let cohort = HcpCohort::generate(HcpCohortConfig::small(8, seed)).unwrap();
        let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let release = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
        let edges = signature_edges(&release, 60).unwrap();
        let mut accs = Vec::new();
        for sigma in [0.0, 0.5, 2.0] {
            // Deterministic noise per case so the run is replayable.
            let mut rng = Rng64::new(seed.wrapping_add(7));
            let plan = DefensePlan { edges: edges.clone(), sigma };
            let out = evaluate_defense(
                &known,
                &release,
                &plan,
                AttackConfig::default(),
                &mut rng,
            )
            .unwrap();
            if sigma == 0.0 {
                tk_assert_eq!(out.accuracy_after, out.accuracy_before);
            }
            tk_assert!((0.0..=1.0).contains(&out.accuracy_after));
            accs.push(out.accuracy_after);
        }
        for w in accs.windows(2) {
            tk_assert!(
                w[1] <= w[0] + 0.13,
                "accuracy rose under stronger defense: {:?}",
                accs
            );
        }
    });
}

/// An independent attack built only from public linalg and matching calls:
/// `thin_svd` → `leverage_scores_from_svd` → `argsort_desc` selects the top
/// `t` known rows, `select_rows` restricts both groups, `zscored_cols_into`
/// prepares both sides, every similarity is the element-wise
/// `(dot · 1/t).clamp(±1)`, and `argmax_matching` predicts. Returns the
/// selection, the similarity matrix, and the predictions.
fn reference_attack(
    known: &GroupMatrix,
    anon: &GroupMatrix,
    t: usize,
) -> (Vec<usize>, Matrix, Vec<usize>) {
    let svd = thin_svd(known.as_matrix()).unwrap();
    let mut selected = argsort_desc(&leverage_scores_from_svd(&svd, None));
    selected.truncate(t.min(known.n_features()));
    let (mut kz, mut az) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    zscored_cols_into(&known.as_matrix().select_rows(&selected).unwrap(), &mut kz);
    zscored_cols_into(&anon.as_matrix().select_rows(&selected).unwrap(), &mut az);
    let inv = 1.0 / selected.len() as f64;
    let similarity = Matrix::from_fn(kz.rows(), az.rows(), |i, j| {
        (dot(kz.row(i), az.row(j)) * inv).clamp(-1.0, 1.0)
    });
    let predicted = argmax_matching(&similarity).unwrap();
    (selected, similarity, predicted)
}

/// The memoized plan is indistinguishable from the direct attack and from
/// an independent reference: for any cohort and feature budget, a plan
/// already run against another release returns bit-identical similarities,
/// predictions, and selections to a fresh `DeanonAttack::run` (a one-shot
/// plan) and to [`reference_attack`] — at 1 and 8 threads. This is the
/// contract that lets every experiment sweep reuse one factorization.
#[test]
fn attack_plan_is_bitwise_equal_to_direct_attack() {
    forall!(Config::cases(6), (seed in u64_in(0..1000), t in usize_in(5..120)) => {
        let cohort = HcpCohort::generate(HcpCohortConfig::small(7, seed)).unwrap();
        let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = cohort.group_matrix(Task::Motor, Session::Two).unwrap();
        let other_release = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
        let config = AttackConfig { n_features: t, ..Default::default() };
        for threads in [1usize, 8] {
            let (direct, planned, reference) = with_thread_count(threads, || {
                let direct = DeanonAttack::new(config.clone())
                    .unwrap()
                    .run(&known, &anon)
                    .unwrap();
                let mut plan = AttackPlan::prepare(known.clone(), config.clone()).unwrap();
                // One plan, many releases: warm the cache on another
                // release, then the compared call must still agree.
                plan.run_with(&other_release, t, MatchRule::Argmax).unwrap();
                let planned = plan.run_against(&anon).unwrap();
                (direct, planned, reference_attack(&known, &anon, t))
            });
            tk_assert_eq!(direct.predicted, planned.predicted, "threads={threads}");
            tk_assert_eq!(direct.truth, planned.truth);
            tk_assert_eq!(direct.selected_features, planned.selected_features);
            tk_assert_eq!(direct.accuracy.to_bits(), planned.accuracy.to_bits());
            for (x, y) in direct.similarity.as_slice().iter().zip(planned.similarity.as_slice()) {
                tk_assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
            }
            let (selected, similarity, predicted) = reference;
            tk_assert_eq!(&planned.selected_features, &selected, "reference selection, threads={threads}");
            tk_assert_eq!(&planned.predicted, &predicted, "reference predictions, threads={threads}");
            tk_assert_eq!(planned.similarity.shape(), similarity.shape());
            for (x, y) in planned.similarity.as_slice().iter().zip(similarity.as_slice()) {
                tk_assert_eq!(x.to_bits(), y.to_bits(), "reference similarity, threads={threads}");
            }
        }
    });
}

/// The subspace-iteration bank (`LeverageBank::new_subspace`, reached via
/// `AttackConfig::randomized`) must track the exact thin-SVD path through
/// the feature-count ablation. On a small cohort accuracy is quantized in
/// units of one matched subject, so the ISSUE's 0.5pp budget is asserted
/// at paper scale in the `kernels` bench; here the bound is the quantized
/// analogue — the subspace path may *degrade* the exact accuracy by at
/// most one flipped match per `t`, at most one net flip across the whole
/// sweep — and selections must overlap the exact top-`t` substantially.
#[test]
fn subspace_bank_ablation_tracks_exact_accuracy() {
    use neurodeanon_linalg::rsvd::RsvdConfig;
    forall!(Config::cases(4), (seed in u64_in(0..500)) => {
        let cohort = HcpCohort::generate(HcpCohortConfig::small(10, seed)).unwrap();
        let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
        let n = known.n_subjects() as f64;
        let exact_cfg = AttackConfig::default();
        let sub_cfg = AttackConfig {
            randomized: Some(RsvdConfig { rank: 8, power_iters: 2, ..Default::default() }),
            ..Default::default()
        };
        let mut exact = AttackPlan::prepare(known.clone(), exact_cfg).unwrap();
        let mut subspace = AttackPlan::prepare(known.clone(), sub_cfg).unwrap();
        let mut degradation = 0.0f64;
        for t in [20usize, 60, 120, 240] {
            let e = exact.run_with(&anon, t, MatchRule::Argmax).unwrap();
            let s = subspace.run_with(&anon, t, MatchRule::Argmax).unwrap();
            tk_assert!(
                e.accuracy - s.accuracy < 1.0 / n + 1e-9,
                "t={t}: subspace lost more than one match: exact {} vs {}",
                e.accuracy,
                s.accuracy
            );
            degradation += (e.accuracy - s.accuracy).max(0.0);
            let es: std::collections::HashSet<usize> =
                e.selected_features.iter().copied().collect();
            let overlap = s.selected_features.iter().filter(|i| es.contains(i)).count();
            tk_assert!(
                overlap * 2 >= t,
                "t={t}: only {overlap}/{t} selected features overlap exact"
            );
        }
        tk_assert!(
            degradation < 1.0 / n + 1e-9,
            "subspace lost {degradation} accuracy across the sweep"
        );
    });
}

/// `linalg::par` determinism contract at the matching layer: the per-column
/// argmax scan must return the identical prediction vector at any thread
/// count, and must agree with the scalar per-column reference.
#[test]
fn argmax_matching_identical_across_thread_counts() {
    forall!(Config::cases(8), (s in from_fn(|rng| {
        Matrix::from_fn(300, 300, |_, _| rng.uniform_range(-1.0, 1.0))
    })) => {
        let reference = with_thread_count(1, || argmax_matching(&s).unwrap());
        for t in [2usize, 8] {
            let par = with_thread_count(t, || argmax_matching(&s).unwrap());
            tk_assert_eq!(reference, par);
        }
        // Scalar reference: vector::argmax on each copied column.
        for (j, &pred) in reference.iter().enumerate() {
            let col = s.col(j);
            tk_assert_eq!(pred, neurodeanon_linalg::vector::argmax(&col).unwrap());
        }
    });
}
