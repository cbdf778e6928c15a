//! The leverage-score de-anonymization attack (Figure 3 of the paper).
//!
//! Given a *de-anonymized* group matrix (subject identities known) and an
//! *anonymous* one:
//!
//! 1. compute leverage scores of the de-anonymized matrix and keep the top
//!    `t` features (the principal features subspace, §3.1.2);
//! 2. restrict **both** matrices to those features;
//! 3. Pearson-correlate every known subject column against every anonymous
//!    subject column;
//! 4. predict matches (argmax per anonymous subject, or the optimal
//!    Hungarian assignment).
//!
//! Ground truth for accuracy scoring comes from the subject-id prefix
//! (`"sub0042/REST/LR"` → `"sub0042"`), so group matrices from different
//! tasks/sessions of the same cohort score correctly.

use crate::error::CoreError;
use crate::matching::{
    argmax_matching, argmax_matching_lenient, hungarian_matching, matching_accuracy, Decision,
};
use crate::Result;
use neurodeanon_connectome::GroupMatrix;
use neurodeanon_linalg::rsvd::RsvdConfig;
use neurodeanon_linalg::stats::{
    cross_correlation, cross_correlation_fused_into, cross_correlation_masked,
    cross_correlation_rows_into, impute_row_means, zscored_cols_into,
};
use neurodeanon_linalg::Matrix;
use neurodeanon_sampling::{finite_rows, intersect_sorted, rows_with_any_finite, LeverageBank};
use std::sync::Arc;

/// Minimum pairwise-complete observations the masked correlation requires
/// before reporting a similarity; pairs below this yield NaN entries (see
/// [`cross_correlation_masked`]), and a masked attack whose *entire* shared
/// support is below this errors with [`CoreError::InsufficientSupport`].
pub const MASKED_MIN_OVERLAP: usize = 4;

/// What to do when an input group matrix contains NaN/inf cells (censored
/// frames, dropped regions, missing subjects — the fault model of
/// DESIGN.md §1.3).
///
/// On fully finite inputs every policy takes the identical clean code path,
/// so enabling `Mask` or `Impute` costs nothing (and changes no bit) until
/// degradation actually appears.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedInput {
    /// Refuse degraded inputs with [`CoreError::NonFiniteInput`] — the
    /// strict default: silent NaN propagation was this system's worst
    /// failure mode, so rejection is opt-out, not opt-in.
    #[default]
    Reject,
    /// Attack on the valid intersection: leverage features are selected from
    /// the fully finite known rows that the anonymous side also (at least
    /// partially) observed, similarities are pairwise-complete Pearson, and
    /// unmatchable subjects score as misses instead of aborting the run.
    Mask,
    /// Replace every non-finite cell with its feature row's finite mean
    /// (cohort average), then run the clean attack unchanged.
    Impute,
}

impl DegradedInput {
    /// Parses a CLI flag value (`reject` | `mask` | `impute`).
    pub fn parse(s: &str) -> Result<Self> {
        match s.to_ascii_lowercase().as_str() {
            "reject" => Ok(DegradedInput::Reject),
            "mask" => Ok(DegradedInput::Mask),
            "impute" => Ok(DegradedInput::Impute),
            _ => Err(CoreError::InvalidParameter {
                name: "degraded-policy",
                reason: "expected one of: reject, mask, impute",
            }),
        }
    }

    /// Stable lowercase name (CLI/JSONL).
    pub fn name(self) -> &'static str {
        match self {
            DegradedInput::Reject => "reject",
            DegradedInput::Mask => "mask",
            DegradedInput::Impute => "impute",
        }
    }
}

impl std::fmt::Display for DegradedInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How predicted matches are derived from the similarity matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchRule {
    /// Per-anonymous-subject argmax (the paper's rule).
    Argmax,
    /// Globally optimal one-to-one assignment (requires equal group sizes).
    Hungarian,
}

/// Attack configuration.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Number of leverage features to retain (paper: < 100 out of 64,620
    /// suffices for resting state).
    pub n_features: usize,
    /// Restrict leverage scores to the top-`k` singular directions
    /// (`None` = full column space, the paper's default).
    pub rank_k: Option<usize>,
    /// Use the randomized-SVD fast path for feature selection instead of
    /// the exact thin SVD (`None` = exact, the paper's method). Useful when
    /// the feature space is voxel-scale rather than region-pair-scale.
    pub randomized: Option<RsvdConfig>,
    /// Matching rule.
    pub match_rule: MatchRule,
    /// Policy for NaN/inf cells in either input ([`DegradedInput::Reject`]
    /// by default).
    pub degraded: DegradedInput,
    /// Open-world rejection threshold on the match margin (best minus
    /// runner-up similarity): a predicted match whose margin falls below
    /// this value is demoted to [`Decision::Reject`] instead of naming a
    /// gallery subject. `None` (the default) disables rejection entirely —
    /// the historical closed-world behavior, bit-for-bit. See DESIGN.md
    /// §1.4 for the decision contract.
    pub reject_margin: Option<f64>,
}

impl AttackConfig {
    /// Checks the configuration's parameter domains (shared by
    /// [`DeanonAttack::new`] and [`AttackPlan::prepare`]).
    pub fn validate(&self) -> Result<()> {
        if self.n_features == 0 {
            return Err(CoreError::InvalidParameter {
                name: "n_features",
                reason: "must retain at least one feature",
            });
        }
        if let Some(k) = self.rank_k {
            if k == 0 {
                return Err(CoreError::InvalidParameter {
                    name: "rank_k",
                    reason: "rank restriction must be at least 1",
                });
            }
        }
        if let Some(m) = self.reject_margin {
            if !m.is_finite() {
                return Err(CoreError::InvalidParameter {
                    name: "reject_margin",
                    reason: "rejection threshold must be finite",
                });
            }
        }
        Ok(())
    }
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            n_features: 100,
            rank_k: None,
            randomized: None,
            match_rule: MatchRule::Argmax,
            degraded: DegradedInput::default(),
            reject_margin: None,
        }
    }
}

/// Outcome of one attack run.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Similarity matrix: known subjects (rows) × anonymous subjects
    /// (columns), Pearson correlation in the reduced feature space. This is
    /// the matrix visualized in Figures 1/2/7/8/9.
    pub similarity: Matrix,
    /// Predicted known-subject index for each anonymous subject.
    pub predicted: Vec<usize>,
    /// Thresholded open-world decision per anonymous subject. With
    /// [`AttackConfig::reject_margin`] unset, this mirrors `predicted`
    /// (`Match(p)` everywhere, `Reject` only for the `usize::MAX`
    /// no-prediction sentinel of the mask policy); with a threshold set,
    /// low-margin predictions are demoted to [`Decision::Reject`].
    pub decisions: Vec<Decision>,
    /// Ground-truth known index for each anonymous subject (`usize::MAX`
    /// when the anonymous subject has no counterpart in the known group).
    pub truth: Vec<usize>,
    /// Fraction of anonymous subjects correctly identified (among those
    /// with a counterpart).
    pub accuracy: f64,
    /// The selected feature indices (into the full vectorized connectome).
    pub selected_features: Vec<usize>,
}

impl AttackOutcome {
    /// Mean of the diagonal (same-subject) similarities — the bright
    /// diagonal of Figure 1.
    pub fn mean_diagonal_similarity(&self) -> f64 {
        let vals: Vec<f64> = self
            .truth
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != usize::MAX)
            .map(|(j, &t)| self.similarity[(t, j)])
            .collect();
        if vals.is_empty() {
            return f64::NAN;
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    /// Per-anonymous-subject match margin: `best - second`, the gap between
    /// the best and second-best similarity in that subject's column. Small
    /// margins mean low-confidence matches — the quantity a cautious
    /// attacker thresholds on and a defender tries to shrink.
    ///
    /// When a column has no finite second-best candidate the margin is
    /// `NaN`, not `+inf`: with a single known subject (or a column whose
    /// remaining entries are all `-inf`) there is no runner-up to measure a
    /// gap against, so "margin" is undefined rather than infinitely
    /// confident. Callers aggregating margins should filter with
    /// [`f64::is_finite`].
    pub fn match_margins(&self) -> Vec<f64> {
        let rows = self.similarity.rows();
        (0..self.similarity.cols())
            .map(|j| {
                let mut best = f64::NEG_INFINITY;
                let mut second = f64::NEG_INFINITY;
                for i in 0..rows {
                    let v = self.similarity[(i, j)];
                    if v > best {
                        second = best;
                        best = v;
                    } else if v > second {
                        second = v;
                    }
                }
                if second.is_finite() {
                    best - second
                } else {
                    f64::NAN
                }
            })
            .collect()
    }

    /// Number of queries the decision layer rejected as unidentifiable.
    pub fn n_rejected(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_reject()).count()
    }

    /// Mean of the off-diagonal (different-subject) similarities.
    pub fn mean_offdiagonal_similarity(&self) -> f64 {
        let mut acc = 0.0;
        let mut n = 0.0;
        for j in 0..self.similarity.cols() {
            let t = self.truth[j];
            for i in 0..self.similarity.rows() {
                if i != t {
                    acc += self.similarity[(i, j)];
                    n += 1.0;
                }
            }
        }
        if n == 0.0 {
            f64::NAN
        } else {
            acc / n
        }
    }
}

/// The de-anonymization attack.
#[derive(Debug, Clone)]
pub struct DeanonAttack {
    config: AttackConfig,
}

impl DeanonAttack {
    /// Creates an attack with the given configuration.
    pub fn new(config: AttackConfig) -> Result<Self> {
        config.validate()?;
        Ok(DeanonAttack { config })
    }

    /// Active configuration.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// Runs the attack: `known` is the de-anonymized group, `anon` the
    /// target. Both must share the feature space (same atlas).
    ///
    /// This is a one-shot [`AttackPlan`]: prepared from a copy of `known`,
    /// run once against `anon`, and dropped. Non-finite cells in either
    /// operand are handled per the configured [`DegradedInput`] policy; on
    /// fully finite inputs every policy takes the same path.
    ///
    /// Errors are checked in a fixed order: a feature-count mismatch
    /// ([`CoreError::IncompatibleGroups`]) wins over a non-finite operand on
    /// either side, and under `Reject` a non-finite `known` is reported
    /// before a non-finite `anon`.
    pub fn run(&self, known: &GroupMatrix, anon: &GroupMatrix) -> Result<AttackOutcome> {
        if known.n_features() != anon.n_features() {
            return Err(CoreError::IncompatibleGroups {
                known: known.n_features(),
                anon: anon.n_features(),
            });
        }
        // Count on the caller's matrix, so the copy inherits the count and
        // repeated runs against one known matrix count it once.
        known.n_non_finite();
        AttackPlan::prepare(known.clone(), self.config.clone())?.run_against(anon)
    }
}

/// The full descending leverage order of `a` under `config`: the exact
/// [`LeverageBank`] restricted to `config.rank_k`, or the seeded subspace
/// bank of `config.randomized`, which ignores `rank_k`. The bank lives only
/// long enough to yield the order.
fn leverage_order(a: &Matrix, config: &AttackConfig) -> Result<Vec<usize>> {
    let m = a.rows();
    Ok(match &config.randomized {
        None => LeverageBank::new(a)?.select_indices(m, config.rank_k)?,
        Some(cfg) => LeverageBank::new_subspace(a, cfg)?.select_indices(m, None)?,
    })
}

/// The graceful-degradation path of the `Mask` policy: restrict feature
/// selection to the shared valid support (fully finite known rows ∩
/// anonymous rows with any finite entry), correlate pairwise-complete, and
/// score unmatchable subjects as misses. Indices in the outcome are global
/// feature indices, so selections stay comparable with the clean path.
fn masked_attack(
    known: &GroupMatrix,
    anon: &GroupMatrix,
    config: &AttackConfig,
) -> Result<AttackOutcome> {
    let known_valid = finite_rows(known.as_matrix());
    let anon_valid = rows_with_any_finite(anon.as_matrix());
    let shared = intersect_sorted(&known_valid, &anon_valid);
    if shared.len() < MASKED_MIN_OVERLAP {
        return Err(CoreError::InsufficientSupport {
            known_valid: known_valid.len(),
            anon_valid: anon_valid.len(),
            shared: shared.len(),
        });
    }
    // Leverage selection on the known matrix restricted to the support; the
    // selected local indices map back through `shared` to global features.
    let known_sub = known.as_matrix().select_rows(&shared)?;
    let t = config.n_features.min(shared.len());
    let indices: Vec<usize> = leverage_order(&known_sub, config)?[..t]
        .iter()
        .map(|&i| shared[i])
        .collect();
    let known_red = known.as_matrix().select_rows(&indices)?;
    let anon_red = anon.as_matrix().select_rows(&indices)?;
    let similarity = cross_correlation_masked(&known_red, &anon_red, MASKED_MIN_OVERLAP)?;
    let predicted = match config.match_rule {
        MatchRule::Argmax => argmax_matching_lenient(&similarity)?,
        MatchRule::Hungarian => {
            // The assignment needs finite costs; an unmeasurable similarity
            // is worse than any real correlation, so pin it below −1.
            let floored = Matrix::from_fn(similarity.rows(), similarity.cols(), |i, j| {
                let v = similarity[(i, j)];
                if v.is_nan() {
                    -2.0
                } else {
                    v
                }
            });
            hungarian_matching(&floored)?
        }
    };
    score_predictions(
        similarity,
        indices,
        predicted,
        known.subject_ids(),
        anon.subject_ids(),
        config.reject_margin,
    )
}

/// The [`CoreError::NonFiniteInput`] blaming `side` for the non-finite
/// cells of `group`.
fn non_finite_error(side: &'static str, group: &GroupMatrix) -> CoreError {
    CoreError::NonFiniteInput {
        side,
        n_non_finite: group.n_non_finite(),
    }
}

/// Matching + ground-truth scoring of the memoized path: derives
/// predictions from the similarity matrix under the given rule and scores
/// them against the id-prefix ground truth.
fn outcome_from_similarity(
    similarity: Matrix,
    selected_features: Vec<usize>,
    known_ids: &[String],
    anon_ids: &[String],
    match_rule: MatchRule,
    reject_margin: Option<f64>,
) -> Result<AttackOutcome> {
    let predicted = match match_rule {
        MatchRule::Argmax => argmax_matching(&similarity)?,
        MatchRule::Hungarian => hungarian_matching(&similarity)?,
    };
    score_predictions(
        similarity,
        selected_features,
        predicted,
        known_ids,
        anon_ids,
        reject_margin,
    )
}

/// Ground-truth scoring shared by the clean and masked paths. A prediction
/// of `usize::MAX` ("unmatchable", from the lenient matcher) scores as a
/// miss for subjects that do have a counterpart, so degraded runs report a
/// real accuracy instead of NaN or an abort.
///
/// `accuracy` is always the *closed-world* score of the raw predictions —
/// the decision layer never changes it, so enabling `reject_margin` leaves
/// every historical accuracy number bit-identical. Open-world rates
/// (TPIR/FPIR) are derived from `decisions` by the callers that need them
/// (`experiments::openworld`).
fn score_predictions(
    similarity: Matrix,
    selected_features: Vec<usize>,
    predicted: Vec<usize>,
    known_ids: &[String],
    anon_ids: &[String],
    reject_margin: Option<f64>,
) -> Result<AttackOutcome> {
    let truth = ground_truth(known_ids, anon_ids);
    let scored: Vec<(usize, usize)> = predicted
        .iter()
        .zip(&truth)
        .filter(|&(_, &t)| t != usize::MAX)
        .map(|(&p, &t)| (p, t))
        .collect();
    let accuracy = if scored.is_empty() {
        f64::NAN
    } else {
        scored.iter().filter(|(p, t)| p == t).count() as f64 / scored.len() as f64
    };
    let decisions = decisions_from(&similarity, &predicted, reject_margin);
    Ok(AttackOutcome {
        similarity,
        predicted,
        decisions,
        truth,
        accuracy,
        selected_features,
    })
}

/// The decision layer over a prediction vector: each predicted index is
/// accepted unless its margin over the best *other* gallery candidate falls
/// below the threshold. For the argmax rule this is exactly
/// [`crate::matching::decide_matching`] (best minus second-best); for the
/// Hungarian rule the margin is measured around the *assigned* subject, so
/// an assignment that is not even its column's argmax carries a negative
/// margin and rejects first.
fn decisions_from(
    similarity: &Matrix,
    predicted: &[usize],
    reject_margin: Option<f64>,
) -> Vec<Decision> {
    let Some(threshold) = reject_margin else {
        // Rejection disabled: only the no-prediction sentinel rejects.
        return predicted
            .iter()
            .map(|&p| {
                if p == usize::MAX {
                    Decision::Reject
                } else {
                    Decision::Match(p)
                }
            })
            .collect();
    };
    let rows = similarity.rows();
    predicted
        .iter()
        .enumerate()
        .map(|(j, &p)| {
            if p == usize::MAX {
                return Decision::Reject;
            }
            let score = similarity[(p, j)];
            if score.is_nan() {
                return Decision::Reject;
            }
            let mut runner_up = f64::NEG_INFINITY;
            for i in 0..rows {
                if i == p {
                    continue;
                }
                let v = similarity[(i, j)];
                if v > runner_up {
                    runner_up = v;
                }
            }
            // No finite runner-up ⇒ undefined margin ⇒ accept (NaN < t is
            // false), mirroring `matching::decide`.
            let margin = if runner_up.is_finite() {
                score - runner_up
            } else {
                f64::NAN
            };
            if margin < threshold {
                Decision::Reject
            } else {
                Decision::Match(p)
            }
        })
        .collect()
}

/// The immutable half of a prepared plan, shared through an [`Arc`] by every
/// clone, serve worker and respawn.
#[derive(Debug)]
struct Gallery {
    known: GroupMatrix,
    config: AttackConfig,
    /// Full descending leverage order of `known` under `config` (see
    /// `leverage_order`). `None` when the known matrix is degraded under the
    /// `Mask` policy: nothing can be factored, so every run takes the masked
    /// path.
    order: Option<Vec<usize>>,
}

/// A prepared, memoized attack: the expensive artifacts of the *known*
/// (de-anonymized) side are computed once and reused across every anonymous
/// matrix and every retained-feature count of an experiment sweep.
///
/// [`DeanonAttack::run`] pays one thin SVD plus one known-side reduction and
/// z-scoring *per call*. But the paper's evaluation is sweep-shaped — the
/// Figure 4 ablation varies `t` against one known matrix, Figure 5 runs an
/// 8 × 8 task grid where each row shares its known matrix, Table 2 re-attacks
/// one known matrix under many noise draws — so the known-side work is
/// identical across calls. A plan caches:
///
/// * an immutable gallery behind an [`Arc`]: the known matrix, the
///   configuration, and the full descending leverage order from the plan's
///   one [`LeverageBank`] factorization (exact, or the seeded subspace bank,
///   whose `m × n` `U` is dropped before [`AttackPlan::prepare`] returns).
///   Clones — one per serve worker and respawn — share it;
/// * per `t`: the selected indices and the z-scored reduced known columns
///   (O(`t · n_known`), copied per clone), so repeated attacks at the same
///   feature count skip straight to the anonymous side.
///
/// Scratch matrices for the anonymous side are reused across calls, so a
/// steady-state sweep performs no large allocations — only the returned
/// similarity matrix (subjects × subjects, small) is freshly allocated.
///
/// The degraded-input policy reads each operand's cached count
/// ([`GroupMatrix::n_non_finite`]) instead of scanning it, so a sweep that
/// attacks one anonymous matrix at many `t` counts its cells once, on the
/// first call. `Reject` still refuses a non-finite value in any cell,
/// selected or not; an edit through [`GroupMatrix::as_matrix_mut`] drops
/// the count, so the next call recounts.
///
/// [`DeanonAttack::run`] is a plan prepared, run once and dropped, so a
/// long-lived plan must agree with it **bit for bit**, whatever its cache
/// holds: each selection is a prefix of the order (on the exact path,
/// [`neurodeanon_sampling::principal_features`] at that `t`), and the
/// similarity is [`cross_correlation`] split in two — `zscored_cols_into`
/// on the known side, cached per `t`, then `cross_correlation_fused_into`
/// per anonymous matrix. `tests/properties.rs` pins both against a
/// reference built from public linalg calls.
#[derive(Debug, Clone)]
pub struct AttackPlan {
    gallery: Arc<Gallery>,
    /// `t` of the artifacts currently in the known-side buffers.
    selection: Option<usize>,
    indices: Vec<usize>,
    known_red: Matrix,
    known_z: Matrix,
    anon_red: Matrix,
    /// Query-row scratch of the correlation kernels: the z-scored anonymous
    /// columns, or a serve batch's gathered query rows (`Q × t`).
    anon_z: Matrix,
}

impl AttackPlan {
    /// Factors the known matrix (the plan's only factorization) and stores
    /// the reusable artifacts. `known` is taken by value: the plan outlives
    /// individual attacks and needs the subject ids for scoring.
    ///
    /// A degraded (non-finite) known matrix is handled at preparation per
    /// the configured policy: `Reject` errors here, `Impute` stores the
    /// mean-imputed matrix (one imputation serves every query), and `Mask`
    /// stores the matrix as-is and runs every query on the masked path.
    ///
    /// Errors are checked in a fixed order: an invalid configuration, then
    /// a non-finite `known` under `Reject`
    /// ([`CoreError::NonFiniteInput`] with `side: "known"`). `prepare` sees
    /// no anonymous matrix, so a feature-count mismatch surfaces only later,
    /// from [`AttackPlan::run_with`].
    pub fn prepare(mut known: GroupMatrix, config: AttackConfig) -> Result<Self> {
        let _span = neurodeanon_obs::span("plan.prepare");
        config.validate()?;
        let factor = if known.n_non_finite() == 0 {
            true
        } else {
            match config.degraded {
                DegradedInput::Reject => {
                    return Err(non_finite_error("known", &known));
                }
                DegradedInput::Mask => false,
                DegradedInput::Impute => {
                    impute_row_means(known.as_matrix_mut());
                    true
                }
            }
        };
        let order = if factor {
            Some(leverage_order(known.as_matrix(), &config)?)
        } else {
            None
        };
        Ok(AttackPlan {
            gallery: Arc::new(Gallery {
                known,
                config,
                order,
            }),
            selection: None,
            indices: Vec::new(),
            known_red: Matrix::zeros(0, 0),
            known_z: Matrix::zeros(0, 0),
            anon_red: Matrix::zeros(0, 0),
            anon_z: Matrix::zeros(0, 0),
        })
    }

    /// The de-anonymized group this plan attacks from.
    pub fn known(&self) -> &GroupMatrix {
        &self.gallery.known
    }

    /// Active configuration.
    pub fn config(&self) -> &AttackConfig {
        &self.gallery.config
    }

    /// Runs the attack against one anonymous group with the plan's
    /// configured feature count and matching rule. Equivalent to
    /// [`DeanonAttack::run`] with the same configuration, minus the
    /// per-call factorization.
    pub fn run_against(&mut self, anon: &GroupMatrix) -> Result<AttackOutcome> {
        self.run_with(anon, self.config().n_features, self.config().match_rule)
    }

    /// Runs the attack with an overridden feature count and matching rule —
    /// the sweep entry point (vary `t` or the rule without refactorizing).
    ///
    /// Degraded operands follow [`AttackConfig::degraded`]: `Reject` errors,
    /// `Impute` imputes a clone of the anonymous matrix and reuses the
    /// memoized known-side artifacts, and `Mask` falls back to the
    /// unmemoized masked path (the usable support depends on each query's
    /// own missingness, so nothing can be cached across calls).
    pub fn run_with(
        &mut self,
        anon: &GroupMatrix,
        n_features: usize,
        match_rule: MatchRule,
    ) -> Result<AttackOutcome> {
        let _span = neurodeanon_obs::span("plan.run");
        if n_features == 0 {
            return Err(CoreError::InvalidParameter {
                name: "n_features",
                reason: "must retain at least one feature",
            });
        }
        let g = &*self.gallery;
        if g.known.n_features() != anon.n_features() {
            return Err(CoreError::IncompatibleGroups {
                known: g.known.n_features(),
                anon: anon.n_features(),
            });
        }
        let t = n_features.min(g.known.n_features());
        if g.order.is_none() || anon.n_non_finite() != 0 {
            match g.config.degraded {
                // `prepare` refused a non-finite known under `Reject`.
                DegradedInput::Reject => {
                    return Err(non_finite_error("anon", anon));
                }
                DegradedInput::Mask => {
                    let cfg = AttackConfig {
                        n_features: t,
                        match_rule,
                        ..g.config.clone()
                    };
                    return masked_attack(&g.known, anon, &cfg);
                }
                DegradedInput::Impute => {
                    // The known side was imputed at `prepare`; only the
                    // anonymous operand needs filling before the memoized
                    // path applies.
                    let mut filled = anon.clone();
                    impute_row_means(filled.as_matrix_mut());
                    return self.run_memoized(&filled, t, match_rule);
                }
            }
        }
        self.run_memoized(anon, t, match_rule)
    }

    /// The historical memoized path: selection cache + known-side buffers +
    /// dense correlation kernels. Requires a leverage order and
    /// `anon` to be fully finite.
    fn run_memoized(
        &mut self,
        anon: &GroupMatrix,
        t: usize,
        match_rule: MatchRule,
    ) -> Result<AttackOutcome> {
        self.ensure_selection(t)?;
        // Anonymous side: reduce into the reusable scratch, then one fused
        // z-score + correlate pass (bit-identical to the split kernels, see
        // `cross_correlation_fused_into`); `anon_z` keeps receiving the
        // z-scored queries so the scratch-reuse shape is unchanged.
        let corr_span = neurodeanon_obs::span("plan.correlate");
        anon.as_matrix()
            .select_rows_into(&self.indices, &mut self.anon_red)?;
        let mut similarity = Matrix::zeros(0, 0);
        cross_correlation_fused_into(
            &self.known_z,
            &self.anon_red,
            &mut self.anon_z,
            &mut similarity,
        )?;
        drop(corr_span);
        let _match_span = neurodeanon_obs::span("plan.match");
        outcome_from_similarity(
            similarity,
            self.indices.clone(),
            self.known().subject_ids(),
            anon.subject_ids(),
            match_rule,
            self.config().reject_margin,
        )
    }

    /// The serve layer's steady-state batch path: correlates `Q` full-length
    /// query feature vectors against the memoized gallery in **one** fused
    /// z-score + cross-correlation GEMM, returning the `n_known × Q`
    /// similarity matrix (column `j` scores query `j`).
    ///
    /// Bitwise contract (DESIGN.md §1.7): column `j` of the result is
    /// bit-identical to the similarity column produced by running query `j`
    /// alone through [`AttackPlan::run_with`] on the clean memoized path —
    /// the gather below reproduces `select_rows_into` element-for-element
    /// and [`cross_correlation_rows_into`] runs the fused kernel's
    /// per-column expressions exactly. Batch packing and batch order can
    /// therefore never change a response.
    ///
    /// The batched path is clean-only. Every query is checked here in one
    /// pass, in order, and the first bad one fails the batch: an empty batch
    /// is [`CoreError::InvalidParameter`], a query whose length is not the
    /// gallery's feature count is [`CoreError::IncompatibleGroups`], and a
    /// query with NaN/inf cells is [`CoreError::NonFiniteInput`] with its
    /// count (degraded queries go through the per-query policy paths
    /// instead). The plan must have a factorization (a mask-degraded known
    /// matrix has none).
    pub fn correlate_batch(&mut self, queries: &[&[f64]]) -> Result<Matrix> {
        if queries.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "queries",
                reason: "batch must contain at least one query",
            });
        }
        let want = self.known().n_features();
        let clean = queries
            .iter()
            .map(|q| match CleanQuery::check(q, want) {
                QueryCheck::Clean(c) => Ok(c),
                QueryCheck::WrongLength { got } => Err(CoreError::IncompatibleGroups {
                    known: want,
                    anon: got,
                }),
                QueryCheck::NonFinite { n_non_finite } => Err(CoreError::NonFiniteInput {
                    side: "anon",
                    n_non_finite,
                }),
            })
            .collect::<Result<Vec<_>>>()?;
        self.correlate_clean(&clean)
    }

    /// [`AttackPlan::correlate_batch`] after validation: gathers each
    /// query's `t` selected features straight into the kernel's query-row
    /// scratch and correlates them. Only [`CleanQuery::check`] builds its
    /// input, so nothing here re-scans a query.
    pub(crate) fn correlate_clean(&mut self, queries: &[CleanQuery<'_>]) -> Result<Matrix> {
        let _span = neurodeanon_obs::span("plan.batch");
        let t = self.config().n_features.min(self.known().n_features());
        self.ensure_selection(t)?;
        // The same elements, in the same order, that `select_rows_into`
        // lays out as columns on the per-query path; the scratch keeps its
        // allocation across batch sizes.
        let mut rows = std::mem::replace(&mut self.anon_z, Matrix::zeros(0, 0)).into_vec();
        rows.clear();
        for q in queries {
            rows.extend(self.indices.iter().map(|&i| q.0[i]));
        }
        self.anon_z = Matrix::from_vec(queries.len(), t, rows)?;
        let mut similarity = Matrix::zeros(0, 0);
        cross_correlation_rows_into(&self.known_z, &mut self.anon_z, &mut similarity)?;
        Ok(similarity)
    }

    /// Refreshes the cached selection + known-side buffers when `t`
    /// changes; a no-op (zero allocations) otherwise.
    fn ensure_selection(&mut self, t: usize) -> Result<()> {
        if self.selection == Some(t) {
            return Ok(());
        }
        let _span = neurodeanon_obs::span("plan.select");
        // Invalidate first so a failed refresh can't leave a stale key.
        self.selection = None;
        let g = &*self.gallery;
        let order = g.order.as_deref().ok_or(CoreError::InvalidParameter {
            name: "known",
            reason: "no factorization available for a mask-degraded known matrix",
        })?;
        self.indices.clear();
        self.indices.extend_from_slice(&order[..t]);
        g.known
            .as_matrix()
            .select_rows_into(&self.indices, &mut self.known_red)?;
        zscored_cols_into(&self.known_red, &mut self.known_z);
        self.selection = Some(t);
        gallery_bytes_gauge().set(std::mem::size_of_val(self.known_z.as_slice()) as f64);
        Ok(())
    }
}

/// A query vector of the gallery's full feature length with no NaN/inf
/// cell: the only input [`AttackPlan::correlate_clean`] takes. Only
/// [`CleanQuery::check`] builds one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CleanQuery<'a>(&'a [f64]);

/// What one validation pass found in a query vector.
#[derive(Debug)]
pub(crate) enum QueryCheck<'a> {
    /// Full length and fully finite: ready for the batched kernel.
    Clean(CleanQuery<'a>),
    /// The vector has `got` features, not the gallery's count.
    WrongLength { got: usize },
    /// Full length, with this many NaN/inf cells.
    NonFinite { n_non_finite: usize },
}

impl<'a> CleanQuery<'a> {
    /// Checks `values` against a gallery of `want` features in one pass:
    /// its length, then its non-finite count.
    pub(crate) fn check(values: &'a [f64], want: usize) -> QueryCheck<'a> {
        if values.len() != want {
            return QueryCheck::WrongLength { got: values.len() };
        }
        match values.iter().filter(|x| !x.is_finite()).count() {
            0 => QueryCheck::Clean(CleanQuery(values)),
            n_non_finite => QueryCheck::NonFinite { n_non_finite },
        }
    }
}

/// Cached handle of the `plan.gallery_bytes` gauge: resident bytes of the
/// prepared gallery (the z-scored `t × n_known` buffer) as of the latest
/// selection refresh. Deterministic — a pure function of the
/// plan shape — so it participates in the observability fingerprint.
fn gallery_bytes_gauge() -> &'static neurodeanon_obs::Gauge {
    static HANDLE: std::sync::OnceLock<&'static neurodeanon_obs::Gauge> =
        std::sync::OnceLock::new();
    HANDLE.get_or_init(|| neurodeanon_obs::gauge("plan.gallery_bytes"))
}

/// Shared tail of the per-experiment "restrict both groups to a feature
/// list, correlate, argmax-match" protocol: reduces both groups to
/// `features`, cross-correlates, and scores argmax predictions against the
/// **identity** truth — both groups must therefore list the same subjects
/// in the same column order. Used by the sampling ablation, the ADHD
/// train/test transfer, and the localization experiment, which probe
/// externally chosen feature sets rather than the plan's own selection.
pub fn match_with_features(
    known: &GroupMatrix,
    anon: &GroupMatrix,
    features: &[usize],
) -> Result<f64> {
    let k = known.select_features(features)?;
    let a = anon.select_features(features)?;
    let sim = cross_correlation(k.as_matrix(), a.as_matrix())?;
    let predicted = argmax_matching(&sim)?;
    let truth: Vec<usize> = (0..known.n_subjects()).collect();
    matching_accuracy(&predicted, &truth)
}

/// Subject key: the id prefix before the first `/`.
pub fn subject_key(id: &str) -> &str {
    id.split('/').next().unwrap_or(id)
}

/// For each anonymous subject, the index of the known subject with the same
/// key (or `usize::MAX` when absent).
fn ground_truth(known_ids: &[String], anon_ids: &[String]) -> Vec<usize> {
    use std::collections::HashMap;
    let index: HashMap<&str, usize> = known_ids
        .iter()
        .enumerate()
        .map(|(i, id)| (subject_key(id), i))
        .collect();
    anon_ids
        .iter()
        .map(|id| index.get(subject_key(id)).copied().unwrap_or(usize::MAX))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurodeanon_datasets::{HcpCohort, HcpCohortConfig, Session, Task};

    fn cohort() -> HcpCohort {
        HcpCohort::generate(HcpCohortConfig::small(10, 77)).unwrap()
    }

    #[test]
    fn rest_to_rest_identification_succeeds() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let attack = DeanonAttack::new(AttackConfig::default()).unwrap();
        let out = attack.run(&known, &anon).unwrap();
        assert!(out.accuracy >= 0.8, "accuracy {}", out.accuracy);
        assert_eq!(out.similarity.shape(), (10, 10));
        assert_eq!(out.selected_features.len(), 100);
        // Diagonal dominance, the Figure 1 phenomenon.
        assert!(out.mean_diagonal_similarity() > out.mean_offdiagonal_similarity() + 0.1);
    }

    #[test]
    fn truth_resolves_by_prefix_across_tasks() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Language, Session::Two).unwrap();
        let attack = DeanonAttack::new(AttackConfig::default()).unwrap();
        let out = attack.run(&known, &anon).unwrap();
        // Ids differ in task/session but share subject prefixes.
        assert_eq!(out.truth, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn hungarian_rule_yields_permutation() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let attack = DeanonAttack::new(AttackConfig {
            match_rule: MatchRule::Hungarian,
            ..Default::default()
        })
        .unwrap();
        let out = attack.run(&known, &anon).unwrap();
        let mut p = out.predicted.clone();
        p.sort_unstable();
        assert_eq!(p, (0..10).collect::<Vec<_>>());
        assert!(out.accuracy >= 0.8);
    }

    #[test]
    fn feature_count_is_capped_at_available() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let attack = DeanonAttack::new(AttackConfig {
            n_features: usize::MAX,
            ..Default::default()
        })
        .unwrap();
        let out = attack.run(&known, &anon).unwrap();
        assert_eq!(out.selected_features.len(), known.n_features());
    }

    #[test]
    fn selected_features_hit_signature_regions() {
        // The attack must rediscover the planted signature support.
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let attack = DeanonAttack::new(AttackConfig::default()).unwrap();
        let out = attack.run(&known, &anon).unwrap();
        let sig: std::collections::HashSet<usize> = c.signature_regions().iter().copied().collect();
        let idx = neurodeanon_connectome::EdgeIndex::new(60).unwrap();
        let sig_hits = out
            .selected_features
            .iter()
            .filter(|&&f| {
                let (i, j) = idx.edge_of(f).unwrap();
                sig.contains(&i) && sig.contains(&j)
            })
            .count();
        // Signature-pair edges are ~5% of all edges; the selection should be
        // massively enriched.
        let frac = sig_hits as f64 / out.selected_features.len() as f64;
        assert!(frac > 0.5, "signature enrichment only {frac}");
    }

    #[test]
    fn rejects_incompatible_groups() {
        let c = cohort();
        let small = HcpCohort::generate(HcpCohortConfig {
            n_regions: 30,
            ..HcpCohortConfig::small(10, 5)
        })
        .unwrap();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = small.group_matrix(Task::Rest, Session::Two).unwrap();
        let attack = DeanonAttack::new(AttackConfig::default()).unwrap();
        assert!(matches!(
            attack.run(&known, &anon),
            Err(CoreError::IncompatibleGroups { .. })
        ));
        // A mismatch wins over a non-finite known under every policy; the
        // plan sees no anonymous side, so under `Reject` it reports the
        // non-finite known at preparation instead.
        let bad_known = corrupted(&known, CorruptionKind::NanRegions, 0.5);
        for degraded in [
            DegradedInput::Reject,
            DegradedInput::Mask,
            DegradedInput::Impute,
        ] {
            let config = AttackConfig {
                degraded,
                ..Default::default()
            };
            assert!(matches!(
                DeanonAttack::new(config.clone())
                    .unwrap()
                    .run(&bad_known, &anon),
                Err(CoreError::IncompatibleGroups {
                    known: 1770,
                    anon: 435
                })
            ));
            let prepared = AttackPlan::prepare(bad_known.clone(), config);
            if degraded == DegradedInput::Reject {
                assert!(matches!(
                    prepared,
                    Err(CoreError::NonFiniteInput { side: "known", .. })
                ));
            } else {
                assert!(matches!(
                    prepared.unwrap().run_against(&anon),
                    Err(CoreError::IncompatibleGroups {
                        known: 1770,
                        anon: 435
                    })
                ));
            }
        }
    }

    #[test]
    fn randomized_leverage_path_matches_exact_accuracy() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let exact = DeanonAttack::new(AttackConfig::default())
            .unwrap()
            .run(&known, &anon)
            .unwrap();
        let approx = DeanonAttack::new(AttackConfig {
            randomized: Some(neurodeanon_linalg::rsvd::RsvdConfig {
                rank: 9, // one less than the subject count
                power_iters: 2,
                ..Default::default()
            }),
            ..Default::default()
        })
        .unwrap()
        .run(&known, &anon)
        .unwrap();
        assert!(
            approx.accuracy + 0.11 >= exact.accuracy,
            "randomized {} vs exact {}",
            approx.accuracy,
            exact.accuracy
        );
    }

    #[test]
    fn config_validation() {
        assert!(DeanonAttack::new(AttackConfig {
            n_features: 0,
            ..Default::default()
        })
        .is_err());
        assert!(DeanonAttack::new(AttackConfig {
            rank_k: Some(0),
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn match_margins_positive_for_correct_matches() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let attack = DeanonAttack::new(AttackConfig::default()).unwrap();
        let out = attack.run(&known, &anon).unwrap();
        let margins = out.match_margins();
        assert_eq!(margins.len(), 10);
        assert!(margins.iter().all(|m| m.is_finite()));
        // Correctly matched subjects should mostly have positive margins.
        let mean: f64 = margins.iter().sum::<f64>() / margins.len() as f64;
        assert!(mean > 0.0, "mean margin {mean}");
    }

    #[test]
    fn rejection_disabled_mirrors_predictions() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let out = DeanonAttack::new(AttackConfig::default())
            .unwrap()
            .run(&known, &anon)
            .unwrap();
        assert_eq!(out.decisions.len(), out.predicted.len());
        for (d, &p) in out.decisions.iter().zip(&out.predicted) {
            assert_eq!(*d, Decision::Match(p));
        }
        assert_eq!(out.n_rejected(), 0);
    }

    #[test]
    fn zero_margin_threshold_rejects_nothing_and_changes_no_bits() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let baseline = DeanonAttack::new(AttackConfig::default())
            .unwrap()
            .run(&known, &anon)
            .unwrap();
        let thresholded = DeanonAttack::new(AttackConfig {
            reject_margin: Some(0.0),
            ..Default::default()
        })
        .unwrap()
        .run(&known, &anon)
        .unwrap();
        outcomes_bit_identical(&baseline, &thresholded);
    }

    #[test]
    fn absurd_margin_threshold_rejects_everyone_but_keeps_accuracy() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let baseline = DeanonAttack::new(AttackConfig::default())
            .unwrap()
            .run(&known, &anon)
            .unwrap();
        let out = DeanonAttack::new(AttackConfig {
            reject_margin: Some(10.0),
            ..Default::default()
        })
        .unwrap()
        .run(&known, &anon)
        .unwrap();
        assert_eq!(out.n_rejected(), 10);
        assert!(out.decisions.iter().all(|d| d.is_reject()));
        // The closed-world accuracy is a property of the raw predictions
        // and must not move when the decision layer rejects.
        assert_eq!(out.accuracy.to_bits(), baseline.accuracy.to_bits());
        assert_eq!(out.predicted, baseline.predicted);
    }

    #[test]
    fn plan_and_direct_agree_under_rejection() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Language, Session::Two).unwrap();
        let config = AttackConfig {
            reject_margin: Some(0.05),
            ..Default::default()
        };
        let direct = DeanonAttack::new(config.clone())
            .unwrap()
            .run(&known, &anon)
            .unwrap();
        let mut plan = AttackPlan::prepare(known, config).unwrap();
        outcomes_bit_identical(&direct, &plan.run_against(&anon).unwrap());
    }

    #[test]
    fn argmax_decisions_match_the_matching_layer() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let threshold = 0.08;
        let out = DeanonAttack::new(AttackConfig {
            reject_margin: Some(threshold),
            ..Default::default()
        })
        .unwrap()
        .run(&known, &anon)
        .unwrap();
        let reference = crate::matching::decide_matching(&out.similarity, threshold).unwrap();
        assert_eq!(out.decisions, reference);
    }

    #[test]
    fn non_finite_reject_margin_is_invalid() {
        assert!(DeanonAttack::new(AttackConfig {
            reject_margin: Some(f64::NAN),
            ..Default::default()
        })
        .is_err());
        assert!(DeanonAttack::new(AttackConfig {
            reject_margin: Some(f64::INFINITY),
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn mask_sentinel_becomes_a_first_class_rejection() {
        // The robustness PR printed `unidentifiable` off the usize::MAX
        // sentinel; the decision layer now carries that as Decision::Reject
        // even with no threshold configured.
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let spec = CorruptionSpec {
            kind: CorruptionKind::DropSubjects,
            severity: 0.6,
            seed: 3,
        };
        let (bad_anon, report) = corrupt_group(&anon, &spec).unwrap();
        assert!(report.affected > 0);
        let out = DeanonAttack::new(AttackConfig {
            degraded: DegradedInput::Mask,
            ..Default::default()
        })
        .unwrap()
        .run(&known, &bad_anon)
        .unwrap();
        assert_eq!(out.n_rejected(), report.affected);
        for (d, &p) in out.decisions.iter().zip(&out.predicted) {
            assert_eq!(d.is_reject(), p == usize::MAX);
        }
    }

    #[test]
    fn subject_key_parsing() {
        assert_eq!(subject_key("sub0042/REST/LR"), "sub0042");
        assert_eq!(subject_key("plain"), "plain");
    }

    /// With a single known subject there is no second-best candidate, so
    /// every margin is NaN (documented contract of `match_margins`).
    #[test]
    fn match_margins_nan_with_one_known_subject() {
        let c = cohort();
        let known = c
            .group_matrix(Task::Rest, Session::One)
            .unwrap()
            .select_subjects(&[0])
            .unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let attack = DeanonAttack::new(AttackConfig {
            n_features: 50,
            ..Default::default()
        })
        .unwrap();
        let out = attack.run(&known, &anon).unwrap();
        let margins = out.match_margins();
        assert_eq!(margins.len(), 10);
        assert!(margins.iter().all(|m| m.is_nan()), "{margins:?}");
    }

    fn outcomes_bit_identical(a: &AttackOutcome, b: &AttackOutcome) {
        assert_eq!(a.predicted, b.predicted);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.selected_features, b.selected_features);
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        assert_eq!(a.similarity.shape(), b.similarity.shape());
        for (x, y) in a.similarity.as_slice().iter().zip(b.similarity.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn plan_matches_direct_attack_bitwise() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon1 = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let anon2 = c.group_matrix(Task::Language, Session::Two).unwrap();
        for rank_k in [None, Some(4)] {
            let config = AttackConfig {
                rank_k,
                ..Default::default()
            };
            let mut plan = AttackPlan::prepare(known.clone(), config.clone()).unwrap();
            // Many anon matrices and t values against one plan, out of order
            // so the cache is exercised in both hit and refresh directions.
            for t in [30usize, 100, 30, 5] {
                let attack = DeanonAttack::new(AttackConfig {
                    n_features: t,
                    ..config.clone()
                })
                .unwrap();
                for anon in [&anon1, &anon2] {
                    let direct = attack.run(&known, anon).unwrap();
                    let planned = plan.run_with(anon, t, MatchRule::Argmax).unwrap();
                    outcomes_bit_identical(&direct, &planned);
                }
            }
        }
    }

    #[test]
    fn plan_matches_direct_attack_on_approx_path() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        // The randomized path ignores `rank_k` on both sides.
        for rank_k in [None, Some(3)] {
            let config = AttackConfig {
                rank_k,
                randomized: Some(neurodeanon_linalg::rsvd::RsvdConfig {
                    rank: 8,
                    power_iters: 2,
                    ..Default::default()
                }),
                ..Default::default()
            };
            let mut plan = AttackPlan::prepare(known.clone(), config.clone()).unwrap();
            for t in [20usize, 100] {
                let attack = DeanonAttack::new(AttackConfig {
                    n_features: t,
                    ..config.clone()
                })
                .unwrap();
                let direct = attack.run(&known, &anon).unwrap();
                let planned = plan.run_with(&anon, t, MatchRule::Argmax).unwrap();
                outcomes_bit_identical(&direct, &planned);
            }
        }
    }

    #[test]
    fn plan_validates_like_direct_attack() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        assert!(AttackPlan::prepare(
            known.clone(),
            AttackConfig {
                n_features: 0,
                ..Default::default()
            }
        )
        .is_err());
        let small = HcpCohort::generate(HcpCohortConfig {
            n_regions: 30,
            ..HcpCohortConfig::small(10, 5)
        })
        .unwrap();
        let anon = small.group_matrix(Task::Rest, Session::Two).unwrap();
        let mut plan = AttackPlan::prepare(known, AttackConfig::default()).unwrap();
        assert!(matches!(
            plan.run_against(&anon),
            Err(CoreError::IncompatibleGroups { .. })
        ));
        assert!(plan
            .run_with(
                &small.group_matrix(Task::Rest, Session::One).unwrap(),
                0,
                MatchRule::Argmax
            )
            .is_err());
    }

    #[test]
    fn match_with_features_agrees_with_direct_pipeline() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let pf = neurodeanon_sampling::principal_features(known.as_matrix(), 60, None).unwrap();
        let acc = match_with_features(&known, &anon, &pf.indices).unwrap();
        let direct = DeanonAttack::new(AttackConfig {
            n_features: 60,
            ..Default::default()
        })
        .unwrap()
        .run(&known, &anon)
        .unwrap();
        assert_eq!(acc.to_bits(), direct.accuracy.to_bits());
    }

    use neurodeanon_datasets::{corrupt_group, CorruptionKind, CorruptionSpec};

    fn corrupted(g: &GroupMatrix, kind: CorruptionKind, severity: f64) -> GroupMatrix {
        corrupt_group(
            g,
            &CorruptionSpec {
                kind,
                severity,
                seed: 0xFA017,
            },
        )
        .unwrap()
        .0
    }

    #[test]
    fn degraded_policy_parsing() {
        assert_eq!(DegradedInput::parse("mask").unwrap(), DegradedInput::Mask);
        assert_eq!(
            DegradedInput::parse("impute").unwrap(),
            DegradedInput::Impute
        );
        assert_eq!(
            DegradedInput::parse("reject").unwrap(),
            DegradedInput::Reject
        );
        assert!(DegradedInput::parse("yolo").is_err());
        assert_eq!(DegradedInput::default(), DegradedInput::Reject);
    }

    /// The acceptance criterion of the degradation layer: on fully finite
    /// inputs, every policy takes the exact historical code path.
    #[test]
    fn policies_bit_identical_on_clean_inputs() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let baseline = DeanonAttack::new(AttackConfig::default())
            .unwrap()
            .run(&known, &anon)
            .unwrap();
        for degraded in [DegradedInput::Mask, DegradedInput::Impute] {
            let out = DeanonAttack::new(AttackConfig {
                degraded,
                ..Default::default()
            })
            .unwrap()
            .run(&known, &anon)
            .unwrap();
            outcomes_bit_identical(&baseline, &out);
            let mut plan = AttackPlan::prepare(
                known.clone(),
                AttackConfig {
                    degraded,
                    ..Default::default()
                },
            )
            .unwrap();
            outcomes_bit_identical(&baseline, &plan.run_against(&anon).unwrap());
        }
    }

    #[test]
    fn reject_policy_errors_identify_the_degraded_side() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let bad_anon = corrupted(&anon, CorruptionKind::NanCells, 0.5);
        let attack = DeanonAttack::new(AttackConfig::default()).unwrap();
        assert!(matches!(
            attack.run(&known, &bad_anon),
            Err(CoreError::NonFiniteInput { side: "anon", .. })
        ));
        let bad_known = corrupted(&known, CorruptionKind::NanRegions, 0.5);
        assert!(matches!(
            attack.run(&bad_known, &anon),
            Err(CoreError::NonFiniteInput { side: "known", .. })
        ));
        // The plan refuses a degraded known matrix at preparation time.
        assert!(matches!(
            AttackPlan::prepare(bad_known, AttackConfig::default()),
            Err(CoreError::NonFiniteInput { side: "known", .. })
        ));
    }

    #[test]
    fn mask_and_impute_survive_degraded_inputs() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let bad_anon = corrupted(&anon, CorruptionKind::NanCells, 0.3);
        for degraded in [DegradedInput::Mask, DegradedInput::Impute] {
            let out = DeanonAttack::new(AttackConfig {
                degraded,
                ..Default::default()
            })
            .unwrap()
            .run(&known, &bad_anon)
            .unwrap();
            assert!(out.accuracy.is_finite(), "{degraded}: {}", out.accuracy);
            // Mild cell dropout must not destroy identification.
            assert!(out.accuracy >= 0.5, "{degraded}: accuracy {}", out.accuracy);
        }
    }

    #[test]
    fn mask_handles_degraded_known_side_too() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let bad_known = corrupted(&known, CorruptionKind::NanRegions, 0.4);
        let config = AttackConfig {
            degraded: DegradedInput::Mask,
            ..Default::default()
        };
        let direct = DeanonAttack::new(config.clone())
            .unwrap()
            .run(&bad_known, &anon)
            .unwrap();
        assert!(direct.accuracy.is_finite());
        // A plan over a mask-degraded known has no factorization to memoize
        // but must produce the identical outcome through the masked path.
        let mut plan = AttackPlan::prepare(bad_known, config).unwrap();
        outcomes_bit_identical(&direct, &plan.run_against(&anon).unwrap());
    }

    #[test]
    fn plan_parity_with_direct_attack_under_policies() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let bad_anon = corrupted(&anon, CorruptionKind::NanCells, 0.6);
        for degraded in [DegradedInput::Mask, DegradedInput::Impute] {
            let config = AttackConfig {
                degraded,
                ..Default::default()
            };
            let direct = DeanonAttack::new(config.clone())
                .unwrap()
                .run(&known, &bad_anon)
                .unwrap();
            let mut plan = AttackPlan::prepare(known.clone(), config).unwrap();
            outcomes_bit_identical(&direct, &plan.run_against(&bad_anon).unwrap());
        }
    }

    /// A whole-missing anonymous subject is scored as a miss under `Mask`
    /// (argmax) rather than aborting the attack on everyone else.
    #[test]
    fn dropped_subjects_count_as_misses_under_mask() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let spec = CorruptionSpec {
            kind: CorruptionKind::DropSubjects,
            severity: 0.6,
            seed: 3,
        };
        let (bad_anon, report) = corrupt_group(&anon, &spec).unwrap();
        assert!(report.affected > 0);
        let out = DeanonAttack::new(AttackConfig {
            degraded: DegradedInput::Mask,
            ..Default::default()
        })
        .unwrap()
        .run(&known, &bad_anon)
        .unwrap();
        let unmatched = out.predicted.iter().filter(|&&p| p == usize::MAX).count();
        assert_eq!(unmatched, report.affected);
        assert!(out.accuracy.is_finite());
        assert!(out.accuracy <= 1.0 - report.affected as f64 / 10.0 + 1e-12);
    }

    #[test]
    fn an_edit_after_a_cached_count_is_still_seen() {
        // A clean run caches the anonymous matrix's count as 0. One NaN then
        // written through `as_matrix_mut`, in a row outside the top-t
        // selection, must still be rejected with its count under `Reject`.
        // Under `Mask` and `Impute` such a cell cannot change the answer, so
        // the edited value must answer exactly like a never-counted copy.
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        for degraded in [
            DegradedInput::Reject,
            DegradedInput::Mask,
            DegradedInput::Impute,
        ] {
            let config = AttackConfig {
                degraded,
                ..Default::default()
            };
            let mut plan = AttackPlan::prepare(known.clone(), config.clone()).unwrap();
            let mut edited = anon.clone();
            let clean = plan.run_against(&edited).unwrap();
            assert_eq!(edited.n_non_finite(), 0);
            let row = (0..edited.n_features())
                .find(|r| !clean.selected_features.contains(r))
                .unwrap();
            edited.as_matrix_mut()[(row, 1)] = f64::NAN;
            let out = plan.run_against(&edited);
            if degraded == DegradedInput::Reject {
                assert!(
                    matches!(
                        out,
                        Err(CoreError::NonFiniteInput {
                            side: "anon",
                            n_non_finite: 1
                        })
                    ),
                    "{out:?}"
                );
                continue;
            }
            let out = out.unwrap();
            let copy = GroupMatrix::from_matrix(
                edited.as_matrix().clone(),
                edited.subject_ids().to_vec(),
                edited.n_regions(),
            )
            .unwrap();
            let want = AttackPlan::prepare(known.clone(), config)
                .unwrap()
                .run_against(&copy)
                .unwrap();
            assert_eq!(out.predicted, want.predicted, "{degraded}");
            assert_eq!(out.selected_features, want.selected_features, "{degraded}");
            for (x, y) in out
                .similarity
                .as_slice()
                .iter()
                .zip(want.similarity.as_slice())
            {
                assert_eq!(x.to_bits(), y.to_bits(), "{degraded}");
            }
        }
    }

    #[test]
    fn correlate_batch_refuses_bad_batches_typed() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        let n = known.n_features();
        let mut plan = AttackPlan::prepare(known, AttackConfig::default()).unwrap();
        assert!(matches!(
            plan.correlate_batch(&[]),
            Err(CoreError::InvalidParameter {
                name: "queries",
                ..
            })
        ));
        let good = anon.subject_features(0);
        let short = &good[..n - 1];
        assert!(matches!(
            plan.correlate_batch(&[good.as_slice(), short]),
            Err(CoreError::IncompatibleGroups { known, anon }) if known == n && anon == n - 1
        ));
        let mut nan = anon.subject_features(1);
        nan[3] = f64::NAN;
        nan[7] = f64::NAN;
        let mut inf = anon.subject_features(2);
        inf[5] = f64::INFINITY;
        assert!(matches!(
            plan.correlate_batch(&[good.as_slice(), nan.as_slice(), inf.as_slice()]),
            Err(CoreError::NonFiniteInput {
                side: "anon",
                n_non_finite: 2
            })
        ));
        // The first bad query decides the error.
        assert!(matches!(
            plan.correlate_batch(&[inf.as_slice(), nan.as_slice()]),
            Err(CoreError::NonFiniteInput {
                side: "anon",
                n_non_finite: 1
            })
        ));
        // A clean batch still answers after the refusals.
        assert_eq!(plan.correlate_batch(&[good.as_slice()]).unwrap().cols(), 1);
    }

    #[test]
    fn insufficient_support_is_typed() {
        let c = cohort();
        let known = c.group_matrix(Task::Rest, Session::One).unwrap();
        let anon = c.group_matrix(Task::Rest, Session::Two).unwrap();
        // Leave fewer than MASKED_MIN_OVERLAP fully finite feature rows.
        let n = known.n_features();
        let mut data = known.as_matrix().clone();
        for r in 0..n.saturating_sub(MASKED_MIN_OVERLAP - 1) {
            for s in 0..known.n_subjects() {
                data[(r, s)] = f64::NAN;
            }
        }
        let starved =
            GroupMatrix::from_matrix(data, known.subject_ids().to_vec(), c.config().n_regions)
                .unwrap();
        let attack = DeanonAttack::new(AttackConfig {
            degraded: DegradedInput::Mask,
            ..Default::default()
        })
        .unwrap();
        assert!(matches!(
            attack.run(&starved, &anon),
            Err(CoreError::InsufficientSupport { .. })
        ));
    }
}
