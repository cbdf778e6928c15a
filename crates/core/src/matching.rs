//! Subject matching from a similarity matrix.
//!
//! The paper's rule: "Pairs of subjects with high correlation correspond to
//! predicted matches" — per anonymous subject, take the known subject with
//! the highest correlation ([`argmax_matching`]). The ablation additionally
//! evaluates the globally optimal one-to-one assignment
//! ([`hungarian_matching`], Kuhn–Munkres on the negated similarity).
//!
//! The closed-world rules above always name *some* gallery subject. The
//! open-world layer (DESIGN.md §1.4) is built from two additions:
//! [`match_scores`], the one column scan, exposing each column's best
//! candidate plus its margin over the runner-up, and [`decide`], the
//! margin-thresholded decision rule mapping every query to
//! [`Decision::Match`] or [`Decision::Reject`]. Every attack outcome and
//! every served response takes its predictions, margins and decisions from
//! these two.

use crate::error::CoreError;
use crate::Result;
use neurodeanon_linalg::{par, Matrix};

/// Minimum similarity-matrix element count before [`match_scores`] spreads
/// columns over threads; each element costs one strided load + compare.
const MATCH_PAR_THRESHOLD: usize = 1 << 16;

/// Per-column argmax: `result[j]` = row index of the best-matching known
/// subject for anonymous subject `j` — the `best` of [`match_scores`], so
/// the prediction vector is identical at any thread count. A column with no
/// finite entry is a typed [`CoreError::UnmatchableColumn`].
pub fn argmax_matching(similarity: &Matrix) -> Result<Vec<usize>> {
    let _span = neurodeanon_obs::span("match.argmax");
    best_rows(&match_scores(similarity)?)
}

/// The `best` of every score; the first `None` column is a typed
/// [`CoreError::UnmatchableColumn`] (an all-NaN column must not silently
/// corrupt downstream accuracy).
pub(crate) fn best_rows(scores: &[Option<MatchScore>]) -> Result<Vec<usize>> {
    scores
        .iter()
        .enumerate()
        .map(|(column, s)| {
            s.map(|ms| ms.best)
                .ok_or(CoreError::UnmatchableColumn { column })
        })
        .collect()
}

/// Verdict of the open-world decision layer for one anonymous query.
///
/// `Reject` is the first-class form of the CLI's historical
/// `unidentifiable` sentinel: a cautious attacker (or an honest evaluator
/// facing impostor queries) declines to name anyone rather than fabricate
/// a low-confidence identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Accepted: the predicted known-subject (gallery) index.
    Match(usize),
    /// Rejected as unidentifiable — the margin fell below the threshold or
    /// the query had no usable candidate at all.
    Reject,
}

impl Decision {
    /// The accepted gallery index, `None` on rejection.
    pub fn matched(self) -> Option<usize> {
        match self {
            Decision::Match(i) => Some(i),
            Decision::Reject => None,
        }
    }

    /// Whether this query was rejected.
    pub fn is_reject(self) -> bool {
        self == Decision::Reject
    }
}

/// One query's candidate, with the evidence the decision layer thresholds
/// on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchScore {
    /// Row index of the candidate: in [`match_scores`], the column's best
    /// finite entry (first-max-wins, NaN skipped); for a Hungarian outcome,
    /// the assigned row.
    pub best: usize,
    /// The candidate's similarity itself.
    pub score: f64,
    /// Gap to the best *other* row (`score − runner-up`): never negative
    /// for the argmax, negative for an assigned row that another row beats.
    /// `NaN` when no finite runner-up exists (single-row gallery): the
    /// margin is *undefined*, not infinitely confident.
    /// [`AttackOutcome::match_margins`](crate::AttackOutcome::match_margins)
    /// reads it from here.
    pub margin: f64,
}

/// Per-column best scores — the one column scan behind every argmax
/// prediction, margin and decision: `result[j]` describes the strongest
/// known-subject candidate for anonymous subject `j`, or `None` when the
/// column has no finite entry. Each column is scanned sequentially with the
/// first-max-wins rule of [`neurodeanon_linalg::vector::argmax`] (NaN
/// entries skipped), one column per chunk, so the scores are identical at
/// any thread count.
pub fn match_scores(similarity: &Matrix) -> Result<Vec<Option<MatchScore>>> {
    if similarity.is_empty() {
        return Err(CoreError::InvalidParameter {
            name: "similarity",
            reason: "empty similarity matrix",
        });
    }
    let rows = similarity.rows();
    let mut out: Vec<Option<MatchScore>> = vec![None; similarity.cols()];
    par::par_chunks_mut(&mut out, 1, rows, MATCH_PAR_THRESHOLD, |j, slot| {
        let mut best: Option<(usize, f64)> = None;
        let mut second = f64::NEG_INFINITY;
        for i in 0..rows {
            let v = similarity[(i, j)];
            if v.is_nan() {
                continue;
            }
            match best {
                Some((_, bv)) if bv >= v => {
                    if v > second {
                        second = v;
                    }
                }
                Some((_, bv)) => {
                    second = second.max(bv);
                    best = Some((i, v));
                }
                None => best = Some((i, v)),
            }
        }
        slot[0] = best.map(|(bi, bv)| MatchScore {
            best: bi,
            score: bv,
            margin: if second.is_finite() {
                bv - second
            } else {
                f64::NAN
            },
        });
    });
    Ok(out)
}

/// The margin-thresholded decision rule: a query matches its candidate
/// when its margin is at least `margin_threshold`, and is rejected
/// otherwise (or when it has no candidate at all).
///
/// Contract details:
/// * A threshold of `0.0` (or anything non-positive) never rejects a
///   query with a genuine argmax — argmax margins are non-negative by
///   construction, so thresholding only begins to bite above zero.
/// * A threshold of `−∞` (no `reject_margin` configured) rejects exactly
///   the `None` scores.
/// * An *undefined* margin (`NaN`, single-row gallery) never rejects: with
///   no runner-up there is no evidence of ambiguity to threshold on.
pub fn decide(scores: &[Option<MatchScore>], margin_threshold: f64) -> Vec<Decision> {
    scores
        .iter()
        .map(|&s| decide_one(s, margin_threshold))
        .collect()
}

/// [`decide`] for one query's score.
pub(crate) fn decide_one(score: Option<MatchScore>, margin_threshold: f64) -> Decision {
    match score {
        // NaN < t is false, so undefined margins always accept.
        Some(ms) if ms.margin < margin_threshold => Decision::Reject,
        Some(ms) => Decision::Match(ms.best),
        None => Decision::Reject,
    }
}

/// Optimal one-to-one assignment maximizing total similarity (Kuhn–Munkres,
/// a.k.a. Hungarian algorithm, O(n³)). Requires a square matrix; `result[j]`
/// = the known subject assigned to anonymous subject `j`.
pub fn hungarian_matching(similarity: &Matrix) -> Result<Vec<usize>> {
    let _span = neurodeanon_obs::span("match.hungarian");
    let n = similarity.rows();
    if n == 0 || similarity.cols() != n {
        return Err(CoreError::InvalidParameter {
            name: "similarity",
            reason: "hungarian matching needs a non-empty square matrix",
        });
    }
    if !similarity.is_finite() {
        // Same typed-error contract as `argmax_matching`: a whole-missing
        // column names the unmatchable subject; any other non-finite cell
        // is a degraded similarity the assignment cannot rank (previously a
        // generic invalid-parameter error).
        for j in 0..n {
            if (0..n).all(|i| !similarity[(i, j)].is_finite()) {
                return Err(CoreError::UnmatchableColumn { column: j });
            }
        }
        let n_non_finite = similarity
            .as_slice()
            .iter()
            .filter(|v| !v.is_finite())
            .count();
        return Err(CoreError::NonFiniteInput {
            side: "similarity",
            n_non_finite,
        });
    }
    // Minimize cost = -similarity. Classic O(n³) potentials formulation
    // (1-indexed arrays with a virtual 0 row/column).
    let inf = f64::INFINITY;
    let cost = |i: usize, j: usize| -similarity[(i, j)];
    let mut u = vec![0.0_f64; n + 1];
    let mut v = vec![0.0_f64; n + 1];
    // way[j] = previous column in the augmenting path; p[j] = row matched
    // to column j (0 = unmatched virtual row).
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    // p[j] = row assigned to column j (1-indexed).
    let mut out = vec![0usize; n];
    for j in 1..=n {
        out[j - 1] = p[j] - 1;
    }
    Ok(out)
}

/// Fraction of columns whose predicted row equals the ground-truth row
/// (`truth[j]` = correct known index for anonymous subject `j`).
pub fn matching_accuracy(predicted: &[usize], truth: &[usize]) -> Result<f64> {
    if predicted.len() != truth.len() || predicted.is_empty() {
        return Err(CoreError::InvalidParameter {
            name: "predicted",
            reason: "prediction/truth length mismatch or empty",
        });
    }
    let hits = predicted.iter().zip(truth).filter(|(a, b)| a == b).count();
    Ok(hits as f64 / predicted.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_picks_column_maxima() {
        let s = Matrix::from_rows(&[&[0.9, 0.1, 0.2], &[0.3, 0.8, 0.1], &[0.2, 0.4, 0.7]]).unwrap();
        assert_eq!(argmax_matching(&s).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn argmax_allows_double_assignment() {
        // Greedy rule can map two anon columns to the same known row.
        let s = Matrix::from_rows(&[&[0.9, 0.8], &[0.1, 0.2]]).unwrap();
        assert_eq!(argmax_matching(&s).unwrap(), vec![0, 0]);
    }

    #[test]
    fn hungarian_resolves_conflicts_optimally() {
        // Same matrix: optimal assignment must be a permutation with total
        // 0.9 + 0.2 = 1.1 (vs 0.8 + 0.1 = 0.9 for the swap).
        let s = Matrix::from_rows(&[&[0.9, 0.8], &[0.1, 0.2]]).unwrap();
        assert_eq!(hungarian_matching(&s).unwrap(), vec![0, 1]);
    }

    #[test]
    fn hungarian_on_identity_like() {
        let n = 6;
        let s = Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 });
        let m = hungarian_matching(&s).unwrap();
        assert_eq!(m, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn hungarian_is_a_permutation() {
        let s = Matrix::from_fn(8, 8, |i, j| (((i * 7 + j * 13) % 11) as f64) / 11.0);
        let m = hungarian_matching(&s).unwrap();
        let mut sorted = m.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn hungarian_maximizes_total() {
        // Brute-force check on a 4×4.
        let s = Matrix::from_fn(4, 4, |i, j| (((i * 5 + j * 3) % 7) as f64) * 0.1);
        let m = hungarian_matching(&s).unwrap();
        let total: f64 = m.iter().enumerate().map(|(j, &i)| s[(i, j)]).sum();
        // Enumerate all 24 permutations.
        let mut best = f64::NEG_INFINITY;
        let perm = [0usize, 1, 2, 3];
        let mut idx = perm;
        // Heap's algorithm (fixed size 4).
        fn heap(k: usize, arr: &mut [usize; 4], s: &Matrix, best: &mut f64) {
            if k == 1 {
                let total: f64 = arr.iter().enumerate().map(|(j, &i)| s[(i, j)]).sum();
                if total > *best {
                    *best = total;
                }
                return;
            }
            for i in 0..k {
                heap(k - 1, arr, s, best);
                if k % 2 == 0 {
                    arr.swap(i, k - 1);
                } else {
                    arr.swap(0, k - 1);
                }
            }
        }
        heap(4, &mut idx, &s, &mut best);
        assert!(
            (total - best).abs() < 1e-9,
            "hungarian {total} vs best {best}"
        );
    }

    #[test]
    fn all_nan_column_is_typed_error() {
        // Regression: this used to surface as a generic invalid-parameter
        // error (and before that, silently as whatever Vector::argmax did).
        let mut s = Matrix::from_fn(3, 3, |i, j| ((i + j) % 3) as f64 * 0.1);
        for i in 0..3 {
            s[(i, 1)] = f64::NAN;
        }
        assert!(matches!(
            argmax_matching(&s),
            Err(CoreError::UnmatchableColumn { column: 1 })
        ));
        // The scores report the column as `None` instead.
        let scores = match_scores(&s).unwrap();
        assert!(scores[1].is_none());
        assert!(scores[0].is_some());
        assert!(scores[2].is_some());
    }

    #[test]
    fn hungarian_one_by_one_assigns_the_only_pair() {
        let s = Matrix::from_rows(&[&[0.3]]).unwrap();
        assert_eq!(hungarian_matching(&s).unwrap(), vec![0]);
    }

    #[test]
    fn hungarian_non_square_is_rejected() {
        assert!(matches!(
            hungarian_matching(&Matrix::zeros(2, 3)),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            hungarian_matching(&Matrix::zeros(3, 2)),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn hungarian_all_nan_column_is_typed_error() {
        // Parity with `argmax_matching`'s all_nan_column_is_typed_error:
        // the unmatchable subject is named, not folded into a generic
        // parameter error.
        let mut s = Matrix::from_fn(3, 3, |i, j| ((i + j) % 3) as f64 * 0.1);
        for i in 0..3 {
            s[(i, 2)] = f64::NAN;
        }
        assert!(matches!(
            hungarian_matching(&s),
            Err(CoreError::UnmatchableColumn { column: 2 })
        ));
    }

    #[test]
    fn hungarian_partially_degraded_similarity_is_typed_error() {
        let mut s = Matrix::from_fn(3, 3, |i, j| ((i * 3 + j) % 5) as f64 * 0.1);
        s[(0, 1)] = f64::NAN;
        s[(2, 0)] = f64::INFINITY;
        match hungarian_matching(&s) {
            Err(CoreError::NonFiniteInput {
                side: "similarity",
                n_non_finite,
            }) => assert_eq!(n_non_finite, 2),
            other => panic!("expected NonFiniteInput, got {other:?}"),
        }
    }

    #[test]
    fn match_scores_agree_with_lenient_argmax() {
        let mut s =
            Matrix::from_rows(&[&[0.9, 0.1, 0.2], &[0.3, 0.8, 0.1], &[0.2, 0.4, 0.7]]).unwrap();
        s[(0, 1)] = f64::NAN;
        let scores = match_scores(&s).unwrap();
        // First max wins per column, the NaN in column 1 skipped.
        for (j, sc) in scores.iter().enumerate() {
            assert_eq!(sc.unwrap().best, j);
        }
        // Column 0: best 0.9 over runner-up 0.3.
        let ms = scores[0].unwrap();
        assert_eq!(ms.best, 0);
        assert_eq!(ms.score, 0.9);
        assert!((ms.margin - 0.6).abs() < 1e-12);
    }

    #[test]
    fn match_scores_margin_undefined_with_single_row() {
        let s = Matrix::from_rows(&[&[0.5, -0.2]]).unwrap();
        let scores = match_scores(&s).unwrap();
        for sc in &scores {
            let ms = sc.unwrap();
            assert_eq!(ms.best, 0);
            assert!(ms.margin.is_nan());
        }
        // Undefined margins never reject, at any threshold.
        let d = decide(&scores, 10.0);
        assert_eq!(d, vec![Decision::Match(0), Decision::Match(0)]);
    }

    #[test]
    fn match_scores_none_for_all_nan_column() {
        let mut s = Matrix::from_fn(2, 2, |_, _| 0.1);
        s[(0, 1)] = f64::NAN;
        s[(1, 1)] = f64::NAN;
        let scores = match_scores(&s).unwrap();
        assert!(scores[0].is_some());
        assert!(scores[1].is_none());
        assert_eq!(
            decide(&scores, f64::NEG_INFINITY),
            vec![Decision::Match(0), Decision::Reject]
        );
    }

    #[test]
    fn zero_threshold_never_rejects_a_genuine_argmax() {
        let s = Matrix::from_fn(4, 5, |i, j| (((i * 7 + j * 3) % 11) as f64) / 11.0);
        let decisions = decide(&match_scores(&s).unwrap(), 0.0);
        let argmax = argmax_matching(&s).unwrap();
        for (d, &p) in decisions.iter().zip(&argmax) {
            assert_eq!(*d, Decision::Match(p));
        }
        // Ties produce margin 0, which a zero threshold still accepts.
        let tied = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.1]]).unwrap();
        let d = decide(&match_scores(&tied).unwrap(), 0.0);
        assert_eq!(d, vec![Decision::Match(0), Decision::Match(0)]);
    }

    #[test]
    fn rejections_grow_monotonically_with_the_threshold() {
        let s = Matrix::from_fn(6, 8, |i, j| (((i * 13 + j * 5) % 17) as f64) / 17.0);
        let scores = match_scores(&s).unwrap();
        let mut last = 0usize;
        for t in [0.0, 0.05, 0.1, 0.3, 0.8, 2.0] {
            let n_rej = decide(&scores, t).iter().filter(|d| d.is_reject()).count();
            assert!(n_rej >= last, "rejections shrank at threshold {t}");
            last = n_rej;
        }
        assert_eq!(last, 8, "a threshold above any margin rejects everyone");
    }

    #[test]
    fn decision_accessors() {
        assert_eq!(Decision::Match(3).matched(), Some(3));
        assert_eq!(Decision::Reject.matched(), None);
        assert!(Decision::Reject.is_reject());
        assert!(!Decision::Match(0).is_reject());
    }

    #[test]
    fn argmax_skips_nan_entries() {
        let mut s = Matrix::from_rows(&[&[0.9, 0.1], &[0.3, 0.8]]).unwrap();
        s[(0, 0)] = f64::NAN;
        assert_eq!(argmax_matching(&s).unwrap(), vec![1, 1]);
    }

    #[test]
    fn validations() {
        assert!(argmax_matching(&Matrix::zeros(0, 0)).is_err());
        assert!(match_scores(&Matrix::zeros(0, 0)).is_err());
        assert!(hungarian_matching(&Matrix::zeros(2, 3)).is_err());
        let mut s = Matrix::zeros(2, 2);
        s[(0, 0)] = f64::NAN;
        assert!(hungarian_matching(&s).is_err());
        assert!(matching_accuracy(&[0], &[0, 1]).is_err());
        assert_eq!(
            matching_accuracy(&[0, 1, 1], &[0, 1, 2]).unwrap(),
            2.0 / 3.0
        );
    }
}
