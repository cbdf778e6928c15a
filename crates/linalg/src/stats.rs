//! Statistical kernels: means, variances, z-scoring, Pearson correlation.
//!
//! These implement the paper's §3.1.1 data path: time-series matrices are
//! z-score normalized and turned into Pearson correlation ("co-firing")
//! matrices, and the attack's final matching step correlates subject columns
//! across reduced group matrices.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::par::{self, DisjointMut};
use crate::vector::dot;
use crate::Result;

/// Minimum element count before `zscore_rows` spreads rows over threads;
/// z-scoring is two cheap streaming passes, so the bar is low but nonzero.
const ZSCORE_PAR_THRESHOLD: usize = 1 << 16;

/// Edge of the square row-pair blocks `correlation_matrix` tiles the upper
/// triangle into. 32 × 32 output blocks over a shared `regions × time`
/// operand keep both row streams cache-resident.
const CORR_TILE: usize = 32;

/// Minimum multiply-add count before `correlation_matrix` goes parallel.
const CORR_PAR_THRESHOLD: usize = 1 << 20;

/// Minimum multiply-add count before `cross_correlation` goes parallel.
const CROSS_PAR_THRESHOLD: usize = 1 << 20;

/// Minimum element count before the masked (NaN-aware) cross-correlation
/// spreads output rows over threads. The masked kernel does per-pair work,
/// so the bar matches the dense kernel's.
const MASKED_PAR_THRESHOLD: usize = 1 << 20;

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Used by the preprocessing QC metrics to summarize long voxel time series
/// in one pass without storing them.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// New, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (÷ n). 0 when fewer than one observation.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (÷ n−1). 0 when fewer than two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    crate::vector::mean(xs)
}

/// Population variance of a slice (÷ n, 0 for empty).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Z-scores a slice in place: subtract the mean, divide by the population
/// standard deviation. A constant (zero-variance) series becomes all zeros
/// rather than NaN — constant voxel series are common at brain-mask edges
/// and must not poison downstream correlations.
pub fn zscore_in_place(xs: &mut [f64]) {
    let m = mean(xs);
    let s = std_dev(xs);
    if s <= f64::EPSILON * m.abs().max(1.0) {
        for x in xs.iter_mut() {
            *x = 0.0;
        }
        return;
    }
    let inv = 1.0 / s;
    for x in xs.iter_mut() {
        *x = (*x - m) * inv;
    }
}

/// NaN-aware z-scoring: normalizes the *finite* entries of a slice by their
/// own mean and population standard deviation, leaving non-finite entries
/// untouched (NaN stays NaN, so downstream masked kernels still see which
/// observations are missing).
///
/// On a fully finite slice this takes exactly the [`zscore_in_place`] code
/// path, so the masked and dense kernels are bit-identical on clean data —
/// the contract the `Mask` degradation policy rests on. Degenerate cases
/// follow the dense conventions: fewer than one finite entry is a no-op, and
/// a constant finite subset becomes zeros.
pub fn zscore_masked_in_place(xs: &mut [f64]) {
    if xs.iter().all(|x| x.is_finite()) {
        zscore_in_place(xs);
        return;
    }
    let mut n = 0usize;
    let mut sum = 0.0;
    for &x in xs.iter() {
        if x.is_finite() {
            n += 1;
            sum += x;
        }
    }
    if n == 0 {
        return;
    }
    let m = sum / n as f64;
    let mut ss = 0.0;
    for &x in xs.iter() {
        if x.is_finite() {
            ss += (x - m) * (x - m);
        }
    }
    let s = (ss / n as f64).sqrt();
    if s <= f64::EPSILON * m.abs().max(1.0) {
        for x in xs.iter_mut() {
            if x.is_finite() {
                *x = 0.0;
            }
        }
        return;
    }
    let inv = 1.0 / s;
    for x in xs.iter_mut() {
        if x.is_finite() {
            *x = (*x - m) * inv;
        }
    }
}

/// Masked analogue of [`zscore_rows`]: every row is z-scored over its finite
/// entries via [`zscore_masked_in_place`]; non-finite entries survive as NaN
/// markers. Bit-identical to [`zscore_rows`] on a fully finite matrix.
pub fn zscore_rows_masked(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    par::par_chunks_mut(m.as_mut_slice(), cols, 2, ZSCORE_PAR_THRESHOLD, |_, row| {
        zscore_masked_in_place(row)
    });
}

/// Z-scores every row of a matrix in place (each row treated as one series).
///
/// Rows are independent, so this parallelizes one row per chunk; each row is
/// normalized by the same sequential two-pass kernel at any thread count.
pub fn zscore_rows(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    par::par_chunks_mut(m.as_mut_slice(), cols, 2, ZSCORE_PAR_THRESHOLD, |_, row| {
        zscore_in_place(row)
    });
}

/// Pearson correlation coefficient of two equal-length series.
///
/// Returns an error on length mismatch or empty input. A zero-variance
/// series yields correlation `0.0` (no linear association measurable),
/// matching the convention used for constant parcels.
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "pearson",
            lhs: (1, x.len()),
            rhs: (1, y.len()),
        });
    }
    if x.is_empty() {
        return Err(LinalgError::EmptyMatrix { op: "pearson" });
    }
    let mx = mean(x);
    let my = mean(y);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return Ok(0.0);
    }
    // Clamp to [-1, 1]: rounding can push |r| epsilon past 1.
    Ok((sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0))
}

/// Row-by-row Pearson correlation matrix of `m` (rows are series).
///
/// For a `regions × time` matrix this produces the `regions × regions`
/// functional connectome of §3.1.1. Implemented by z-scoring a copy of the
/// rows and taking a scaled Gram product, so the heavy lifting is one
/// matmul rather than `n²/2` pair scans.
pub fn correlation_matrix(m: &Matrix) -> Result<Matrix> {
    let _span = neurodeanon_obs::span("stats.corr_matrix");
    if m.is_empty() {
        return Err(LinalgError::EmptyMatrix {
            op: "correlation_matrix",
        });
    }
    if m.cols() < 2 {
        return Err(LinalgError::InvalidParameter {
            name: "time points",
            reason: "need at least 2 samples per series for correlation",
        });
    }
    let mut z = m.clone();
    zscore_rows(&mut z);
    // corr = Z Zᵀ / T  (population normalization matches zscore_in_place).
    // Symmetry means only the upper triangle is computed: the triangle is
    // tiled into fixed CORR_TILE × CORR_TILE row-pair blocks, each block
    // writing a disjoint region of the output, so block scheduling cannot
    // change a single bit.
    let n = z.rows();
    let t_len = z.cols();
    let inv_t = 1.0 / t_len as f64;
    let n_blocks = n.div_ceil(CORR_TILE);
    let mut blocks: Vec<(usize, usize)> = Vec::with_capacity(n_blocks * (n_blocks + 1) / 2);
    for bi in 0..n_blocks {
        for bj in bi..n_blocks {
            blocks.push((bi, bj));
        }
    }
    let mut c = Matrix::zeros(n, n);
    {
        let zref = &z;
        let cdata = DisjointMut::new(c.as_mut_slice());
        par::par_tiles(
            blocks.len(),
            1,
            CORR_TILE * CORR_TILE * t_len,
            CORR_PAR_THRESHOLD,
            |tile| {
                for &(bi, bj) in &blocks[tile.range()] {
                    let (i0, i1) = (bi * CORR_TILE, ((bi + 1) * CORR_TILE).min(n));
                    let (j0, j1) = (bj * CORR_TILE, ((bj + 1) * CORR_TILE).min(n));
                    for i in i0..i1 {
                        let jlo = j0.max(i);
                        if jlo >= j1 {
                            continue;
                        }
                        let zi = zref.row(i);
                        // SAFETY: block (bi, bj) exclusively owns the
                        // upper-triangle output range [i*n+jlo, i*n+j1).
                        let crow = unsafe { cdata.slice(i * n + jlo, j1 - jlo) };
                        for (o, j) in crow.iter_mut().zip(jlo..j1) {
                            *o = dot(zi, zref.row(j)) * inv_t;
                        }
                    }
                }
            },
        );
    }
    // Sequential fixup: exact ones on the diagonal, clamp rounding noise
    // elsewhere, mirror the upper triangle into the lower.
    for i in 0..n {
        for j in i..n {
            let v = c[(i, j)].clamp(-1.0, 1.0);
            let v = if i == j {
                // A zero-variance row z-scored to zeros has self-corr 0.
                if v == 0.0 {
                    0.0
                } else {
                    1.0
                }
            } else {
                v
            };
            c[(i, j)] = v;
            c[(j, i)] = v;
        }
    }
    Ok(c)
}

/// Pearson correlation between every column of `a` and every column of `b`.
///
/// Output is `a.cols() × b.cols()`; entry `(i, j)` is the correlation of
/// `a[:, i]` with `b[:, j]`. This is the attack's cross-dataset similarity
/// matrix (Figure 1/2): columns are subjects, rows are the retained features.
pub fn cross_correlation(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let _span = neurodeanon_obs::span("stats.xcorr");
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "cross_correlation",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if a.is_empty() || b.is_empty() {
        return Err(LinalgError::EmptyMatrix {
            op: "cross_correlation",
        });
    }
    // Z-score the columns of `a` (as rows of its transpose), then let the
    // fused query kernel z-score each column of `b` and correlate it.
    let mut az = Matrix::zeros(0, 0);
    zscored_cols_into(a, &mut az);
    let mut bz = Matrix::zeros(0, 0);
    let mut out = Matrix::zeros(0, 0);
    cross_correlation_fused_into(&az, b, &mut bz, &mut out)?;
    Ok(out)
}

/// Writes the z-scored columns of `a` into `out` as rows (`out` becomes
/// `a.cols() × a.rows()`), reusing `out`'s allocation.
///
/// This is the preparation half of [`cross_correlation`], split out so a
/// sweep can z-score its de-anonymized operand once and hold the result
/// while many anonymous operands stream through
/// [`cross_correlation_fused_into`].
pub fn zscored_cols_into(a: &Matrix, out: &mut Matrix) {
    let _span = neurodeanon_obs::span("stats.zscore_cols");
    a.transpose_into(out);
    zscore_rows(out);
}

/// Fused query-path kernel: transposes + z-scores the columns of `b` and
/// correlates them against the pre-z-scored rows of `az`, in one pass per
/// query column.
///
/// Output element `(i, j)` is `(dot(az_i, bz_j) · 1/t).clamp(±1)`, where
/// `bz_j` is column `j` of `b` z-scored exactly as [`zscored_cols_into`]
/// would (the transpose is an exact copy and [`zscore_rows`] runs the same
/// sequential [`zscore_in_place`] kernel per row). Each query column is
/// z-scored and immediately consumed for its `az.rows()` dot products while
/// still cache-hot. `bz` receives the z-scored queries (it is the
/// steady-state scratch the attack plan reuses). [`cross_correlation`] is
/// this kernel after [`zscored_cols_into`] on its first operand.
///
/// Parallelism is over query columns (each owns one column of `out`, written
/// through [`DisjointMut`]); the determinism contract holds because each
/// element's value depends only on its own row/column operands.
pub fn cross_correlation_fused_into(
    az: &Matrix,
    b: &Matrix,
    bz: &mut Matrix,
    out: &mut Matrix,
) -> Result<()> {
    let _span = neurodeanon_obs::span("stats.xcorr_fused");
    if az.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "cross_correlation",
            lhs: az.shape(),
            rhs: (b.cols(), b.rows()),
        });
    }
    if az.is_empty() || b.is_empty() {
        return Err(LinalgError::EmptyMatrix {
            op: "cross_correlation",
        });
    }
    b.transpose_into(bz);
    correlate_query_rows(az, bz, out);
    Ok(())
}

/// Batched serve-path kernel: correlates `queries.len()` already-reduced
/// query rows (each of length `az.cols()`) against the pre-z-scored gallery
/// rows of `az` in one fused z-score + GEMM pass — the `t×n_known · t×Q`
/// product of the attack-as-a-service batch path.
///
/// This is [`cross_correlation_fused_into`] with the transpose peeled off:
/// the queries already arrive as rows and are copied into `bz` directly,
/// then both kernels run the same query-row body. A transpose is an exact
/// element copy, so output column `j` is **bit-identical** to the fused
/// kernel run on a matrix whose `j`-th column is `queries[j]` — and
/// therefore bit-identical to running query `j` alone through the
/// per-query path: each column depends on no other column of the batch.
/// Batch packing, batch order, and thread count cannot change a bit.
///
/// Errors on an empty gallery, an empty batch, or any query whose length
/// differs from `az.cols()` (mid-stream gallery-shape changes surface here
/// as a typed error, never as a slice panic).
pub fn cross_correlation_batched_into(
    az: &Matrix,
    queries: &[&[f64]],
    bz: &mut Matrix,
    out: &mut Matrix,
) -> Result<()> {
    let _span = neurodeanon_obs::span("stats.xcorr_batched");
    let t_len = az.cols();
    if az.is_empty() {
        return Err(LinalgError::EmptyMatrix {
            op: "cross_correlation_batched",
        });
    }
    if queries.is_empty() {
        return Err(LinalgError::InvalidParameter {
            name: "queries",
            reason: "batch must contain at least one query",
        });
    }
    for q in queries {
        if q.len() != t_len {
            return Err(LinalgError::DimensionMismatch {
                op: "cross_correlation_batched",
                lhs: az.shape(),
                rhs: (1, q.len()),
            });
        }
    }
    bz.reshape_for_overwrite(queries.len(), t_len);
    for (row, q) in queries.iter().enumerate() {
        bz.row_mut(row).copy_from_slice(q);
    }
    correlate_query_rows(az, bz, out);
    Ok(())
}

/// Query-row kernel for callers that fill the raw query rows themselves:
/// z-scores each row `j` of `bz` (`Q × t`) in place and writes its
/// correlations against every pre-z-scored gallery row of `az` into column
/// `j` of `out` (`az.rows() × Q`).
///
/// This is the body [`cross_correlation_fused_into`] and
/// [`cross_correlation_batched_into`] run after filling `bz` (by transpose
/// and by row copy), so a caller that gathers its selected query features
/// straight into `bz` gets the same bits with no intermediate copy.
///
/// Errors on an empty gallery, a `bz` with no rows, or rows whose length
/// differs from `az.cols()`.
pub fn cross_correlation_rows_into(az: &Matrix, bz: &mut Matrix, out: &mut Matrix) -> Result<()> {
    let _span = neurodeanon_obs::span("stats.xcorr_rows");
    if az.is_empty() {
        return Err(LinalgError::EmptyMatrix {
            op: "cross_correlation_rows",
        });
    }
    if bz.rows() == 0 {
        return Err(LinalgError::InvalidParameter {
            name: "queries",
            reason: "batch must contain at least one query",
        });
    }
    if bz.cols() != az.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "cross_correlation_rows",
            lhs: az.shape(),
            rhs: bz.shape(),
        });
    }
    correlate_query_rows(az, bz, out);
    Ok(())
}

/// The query-correlation body shared by [`cross_correlation_fused_into`],
/// [`cross_correlation_batched_into`] and [`cross_correlation_rows_into`]:
/// z-scores each raw query row `j` of `bz` (`Q × t`, `t == az.cols() > 0`)
/// in place with the sequential [`zscore_in_place`] kernel and writes its
/// correlations against every pre-z-scored row of `az` into column `j` of
/// `out` (`az.rows() × Q`).
fn correlate_query_rows(az: &Matrix, bz: &mut Matrix, out: &mut Matrix) {
    let n_a = az.rows();
    let t_len = az.cols();
    let q = bz.rows();
    // The output writes below stay in bounds only if `bz` splits into
    // exactly `q` chunks of `t_len`.
    assert!(
        t_len > 0 && bz.cols() == t_len,
        "query rows must match the gallery length"
    );
    let inv = 1.0 / t_len as f64;
    out.reshape_for_overwrite(n_a, q);
    let odata = DisjointMut::new(out.as_mut_slice());
    par::par_chunks_mut(
        bz.as_mut_slice(),
        t_len,
        n_a.max(2),
        CROSS_PAR_THRESHOLD,
        |j, brow| {
            zscore_in_place(brow);
            for i in 0..n_a {
                let v = (dot(az.row(i), brow) * inv).clamp(-1.0, 1.0);
                // SAFETY: query j exclusively owns output column j, and
                // i < n_a, j < q (asserted above) keep i * q + j in bounds.
                unsafe { *odata.get(i * q + j) = v };
            }
        },
    );
}

/// Pairwise-complete Pearson correlation: correlates two equal-length
/// series over the observations where **both** are finite.
///
/// Returns `Ok(None)` when fewer than `min_overlap` complete pairs exist —
/// the documented fallback for series whose missing-data patterns barely
/// overlap: no correlation is measurable, and pretending otherwise would
/// inject an arbitrary number into the similarity matrix. Length mismatch
/// and empty input error like [`pearson`]. On fully finite input with
/// `min_overlap <= len` this is exactly [`pearson`] (same kernel).
pub fn pearson_masked(x: &[f64], y: &[f64], min_overlap: usize) -> Result<Option<f64>> {
    if x.len() != y.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "pearson_masked",
            lhs: (1, x.len()),
            rhs: (1, y.len()),
        });
    }
    if x.is_empty() {
        return Err(LinalgError::EmptyMatrix {
            op: "pearson_masked",
        });
    }
    if x.iter().all(|v| v.is_finite()) && y.iter().all(|v| v.is_finite()) {
        return if x.len() < min_overlap {
            Ok(None)
        } else {
            pearson(x, y).map(Some)
        };
    }
    let mut xs = Vec::with_capacity(x.len());
    let mut ys = Vec::with_capacity(y.len());
    for (&a, &b) in x.iter().zip(y) {
        if a.is_finite() && b.is_finite() {
            xs.push(a);
            ys.push(b);
        }
    }
    if xs.len() < min_overlap.max(1) {
        return Ok(None);
    }
    pearson(&xs, &ys).map(Some)
}

/// NaN-aware analogue of [`cross_correlation`]: Pearson correlation between
/// every column of `a` and every column of `b` over pairwise-complete
/// observations (rows where both columns are finite).
///
/// Entries whose overlap is below `min_overlap` are `NaN` — "no measurable
/// similarity" — which the matching layer treats as an unusable candidate
/// rather than a confident score. Column pairs that are fully finite take
/// the same z-score + scaled-dot kernel as [`cross_correlation`], so on a
/// fully finite input the result is **bit-identical** to the dense path;
/// partially observed pairs are re-centered on their own overlap
/// (pairwise-complete Pearson, exact, not an approximation from the global
/// z-scores).
pub fn cross_correlation_masked(a: &Matrix, b: &Matrix, min_overlap: usize) -> Result<Matrix> {
    let _span = neurodeanon_obs::span("stats.xcorr_masked");
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "cross_correlation_masked",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if a.is_empty() || b.is_empty() {
        return Err(LinalgError::EmptyMatrix {
            op: "cross_correlation_masked",
        });
    }
    // Operate on transposed copies (rows = subject series): raw for the
    // pairwise-complete entries, masked-z-scored for the dense fast path.
    let (at, bt) = par::par_join(|| a.transpose(), || b.transpose());
    let (az, bz) = par::par_join(
        || {
            let mut az = at.clone();
            zscore_rows_masked(&mut az);
            az
        },
        || {
            let mut bz = bt.clone();
            zscore_rows_masked(&mut bz);
            bz
        },
    );
    let a_finite: Vec<bool> = (0..at.rows())
        .map(|i| at.row(i).iter().all(|v| v.is_finite()))
        .collect();
    let b_finite: Vec<bool> = (0..bt.rows())
        .map(|j| bt.row(j).iter().all(|v| v.is_finite()))
        .collect();
    let t_len = at.cols();
    let inv = 1.0 / t_len as f64;
    let bcols = bt.rows();
    let mut out = Matrix::zeros(at.rows(), bcols);
    let (at, bt, az, bz) = (&at, &bt, &az, &bz);
    let (a_finite, b_finite) = (&a_finite, &b_finite);
    par::par_chunks_mut(
        out.as_mut_slice(),
        bcols,
        t_len,
        MASKED_PAR_THRESHOLD,
        |i, orow| {
            for (j, o) in orow.iter_mut().enumerate() {
                *o = if a_finite[i] && b_finite[j] {
                    if t_len < min_overlap {
                        f64::NAN
                    } else {
                        (dot(az.row(i), bz.row(j)) * inv).clamp(-1.0, 1.0)
                    }
                } else {
                    // Exact pairwise-complete Pearson on the raw series.
                    match pearson_masked(at.row(i), bt.row(j), min_overlap) {
                        Ok(Some(r)) => r,
                        // Overlap too small (or, unreachably here, a shape
                        // error): no measurable similarity.
                        _ => f64::NAN,
                    }
                };
            }
        },
    );
    Ok(out)
}

/// Replaces every non-finite cell of `m` with the mean of the *finite*
/// entries in its row (the group-level mean-imputation used by the
/// `Impute` degradation policy: a missing feature observation is replaced
/// by that feature's cohort average). Rows with no finite entry at all are
/// imputed to `0.0`. Returns the number of cells imputed.
///
/// The mean is `sum / n`. When the finite entries are so large that their
/// sum overflows, it is taken as `Σ x/n` instead, clamped to the row's
/// finite range, so every fill is finite.
pub fn impute_row_means(m: &mut Matrix) -> usize {
    let mut imputed = 0usize;
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let mut n = 0usize;
        let mut sum = 0.0;
        for &x in row.iter() {
            if x.is_finite() {
                n += 1;
                sum += x;
            }
        }
        if n == row.len() {
            continue;
        }
        let fill = if n == 0 {
            0.0
        } else if sum.is_finite() {
            sum / n as f64
        } else {
            overflow_free_mean(row, n)
        };
        for x in row.iter_mut() {
            if !x.is_finite() {
                *x = fill;
                imputed += 1;
            }
        }
    }
    imputed
}

/// Mean of the `n > 0` finite entries of `row` whose plain sum overflowed:
/// each term is scaled by `1/n` before it is added, and rounding is clamped
/// back into the entries' own range.
fn overflow_free_mean(row: &[f64], n: usize) -> f64 {
    let (mut acc, mut lo, mut hi) = (0.0, f64::INFINITY, f64::NEG_INFINITY);
    for &x in row.iter().filter(|x| x.is_finite()) {
        acc += x / n as f64;
        lo = lo.min(x);
        hi = hi.max(x);
    }
    acc.clamp(lo, hi)
}

/// Normalized root-mean-squared error, in percent, as used by Table 1.
///
/// `nRMSE = 100 · sqrt(mean((pred − truth)²)) / (max(truth) − min(truth))`.
/// Returns an error on length mismatch, empty input, or a constant truth
/// vector (zero range).
pub fn nrmse_percent(pred: &[f64], truth: &[f64]) -> Result<f64> {
    if pred.len() != truth.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "nrmse",
            lhs: (1, pred.len()),
            rhs: (1, truth.len()),
        });
    }
    if truth.is_empty() {
        return Err(LinalgError::EmptyMatrix { op: "nrmse" });
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &t in truth {
        lo = lo.min(t);
        hi = hi.max(t);
    }
    let range = hi - lo;
    if range <= 0.0 {
        return Err(LinalgError::InvalidParameter {
            name: "truth",
            reason: "constant target vector has zero range",
        });
    }
    let mse = pred
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / truth.len() as f64;
    Ok(100.0 * mse.sqrt() / range)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_batch() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - mean(&xs)).abs() < 1e-12);
        assert!((w.variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(w.count(), 5);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.variance(), 0.0);
        w.push(3.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.mean(), 3.0);
    }

    #[test]
    fn zscore_normalizes() {
        let mut xs = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        zscore_in_place(&mut xs);
        assert!(mean(&xs).abs() < 1e-12);
        assert!((variance(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zscore_constant_becomes_zero() {
        let mut xs = vec![7.0; 10];
        zscore_in_place(&mut xs);
        assert!(xs.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 4.0, 6.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z = [3.0, 2.0, 1.0];
        assert!((pearson(&x, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_shift_scale_invariant() {
        let x = [0.3, -1.2, 2.5, 0.0, 1.1];
        let y = [1.0, 0.2, -0.7, 0.9, 2.2];
        let r1 = pearson(&x, &y).unwrap();
        let xs: Vec<f64> = x.iter().map(|v| 3.0 * v + 10.0).collect();
        let r2 = pearson(&xs, &y).unwrap();
        assert!((r1 - r2).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_series_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn pearson_errors() {
        assert!(pearson(&[1.0], &[1.0, 2.0]).is_err());
        assert!(pearson(&[], &[]).is_err());
    }

    #[test]
    fn correlation_matrix_diagonal_ones() {
        let m = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0],
            &[4.0, 3.0, 2.0, 1.0],
            &[1.0, -1.0, 1.0, -1.0],
        ])
        .unwrap();
        let c = correlation_matrix(&m).unwrap();
        assert_eq!(c.shape(), (3, 3));
        for i in 0..3 {
            assert!((c[(i, i)] - 1.0).abs() < 1e-12);
        }
        assert!((c[(0, 1)] + 1.0).abs() < 1e-9);
        // Symmetry.
        for i in 0..3 {
            for j in 0..3 {
                assert!((c[(i, j)] - c[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn correlation_matrix_matches_pairwise_pearson() {
        let m = Matrix::from_fn(5, 30, |r, c| {
            ((r * 7 + c * 13) % 11) as f64 + (c as f64 * 0.1)
        });
        let cm = correlation_matrix(&m).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                let p = pearson(m.row(i), m.row(j)).unwrap();
                assert!((cm[(i, j)] - p).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn correlation_matrix_rejects_single_sample() {
        let m = Matrix::zeros(3, 1);
        assert!(correlation_matrix(&m).is_err());
    }

    #[test]
    fn cross_correlation_self_diag_is_one() {
        let a = Matrix::from_fn(20, 4, |r, c| ((r * (c + 2)) % 7) as f64 - 3.0);
        let x = cross_correlation(&a, &a).unwrap();
        for i in 0..4 {
            assert!((x[(i, i)] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cross_correlation_matches_pearson_on_columns() {
        let a = Matrix::from_fn(15, 3, |r, c| ((r + c * 5) % 6) as f64);
        let b = Matrix::from_fn(15, 2, |r, c| ((r * 2 + c) % 5) as f64);
        let x = cross_correlation(&a, &b).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                let p = pearson(&a.col(i), &b.col(j)).unwrap();
                assert!((x[(i, j)] - p).abs() < 1e-9);
            }
        }
    }

    /// Test-local reference for the dense correlation body: element-wise
    /// `(dot(az_i, bz_j) · 1/t).clamp(±1)` over already z-scored rows.
    fn reference_xcorr(az: &Matrix, bz: &Matrix) -> Matrix {
        let inv = 1.0 / az.cols() as f64;
        Matrix::from_fn(az.rows(), bz.rows(), |i, j| {
            (dot(az.row(i), bz.row(j)) * inv).clamp(-1.0, 1.0)
        })
    }

    #[test]
    fn split_cross_correlation_is_bit_identical() {
        // Preparing each side with `zscored_cols_into` and taking the scaled
        // dots element by element must reproduce cross_correlation exactly —
        // this is the contract the attack plan's cached known side rests on.
        let a = Matrix::from_fn(40, 6, |r, c| ((r * 3 + c * 7) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(40, 5, |r, c| ((r * 5 + c * 11) % 9) as f64 - 4.0);
        let direct = cross_correlation(&a, &b).unwrap();
        let mut az = Matrix::filled(3, 3, 9.0); // dirty scratch
        let mut bz = Matrix::filled(1, 7, -2.0);
        zscored_cols_into(&a, &mut az);
        zscored_cols_into(&b, &mut bz);
        let split = reference_xcorr(&az, &bz);
        assert_eq!(split.shape(), direct.shape());
        for (x, y) in split.as_slice().iter().zip(direct.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fused_cross_correlation_is_bit_identical_to_split() {
        // The fused query kernel must reproduce the split path (transpose +
        // z-score, then correlate) exactly — this is the contract that lets
        // the attack plan's steady-state path fuse without changing a bit.
        let a = Matrix::from_fn(43, 7, |r, c| ((r * 3 + c * 7) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(43, 5, |r, c| ((r * 5 + c * 11) % 9) as f64 - 4.0);
        let mut az = Matrix::zeros(0, 0);
        zscored_cols_into(&a, &mut az);
        let mut bz_split = Matrix::zeros(0, 0);
        zscored_cols_into(&b, &mut bz_split);
        let split = reference_xcorr(&az, &bz_split);
        let mut bz_fused = Matrix::filled(2, 9, 3.0); // dirty scratch
        let mut fused = Matrix::filled(1, 4, -5.0);
        cross_correlation_fused_into(&az, &b, &mut bz_fused, &mut fused).unwrap();
        assert_eq!(fused.shape(), split.shape());
        for (x, y) in fused.as_slice().iter().zip(split.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // The scratch receives the same z-scored queries as the split path.
        assert_eq!(bz_fused.shape(), bz_split.shape());
        for (x, y) in bz_fused.as_slice().iter().zip(bz_split.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fused_cross_correlation_rejects_mismatch_and_empty() {
        let az = Matrix::zeros(3, 10);
        let b = Matrix::zeros(9, 4);
        let mut bz = Matrix::zeros(0, 0);
        let mut out = Matrix::zeros(0, 0);
        assert!(cross_correlation_fused_into(&az, &b, &mut bz, &mut out).is_err());
        let empty = Matrix::zeros(0, 0);
        assert!(cross_correlation_fused_into(&empty, &b, &mut bz, &mut out).is_err());
    }

    #[test]
    fn batched_cross_correlation_is_bit_identical_to_fused() {
        // The serve batch path must reproduce the fused query kernel exactly,
        // column by column: batched(Q queries) == fused(t × Q matrix), and
        // each column == fused on that query alone. This is the contract the
        // match server's batching rests on.
        let a = Matrix::from_fn(37, 6, |r, c| ((r * 3 + c * 7) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(37, 5, |r, c| ((r * 5 + c * 11) % 9) as f64 - 4.0);
        let mut az = Matrix::zeros(0, 0);
        zscored_cols_into(&a, &mut az);
        let mut bz = Matrix::zeros(0, 0);
        let mut fused = Matrix::zeros(0, 0);
        cross_correlation_fused_into(&az, &b, &mut bz, &mut fused).unwrap();
        let cols: Vec<Vec<f64>> = (0..b.cols()).map(|j| b.col(j)).collect();
        let queries: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut bz_b = Matrix::filled(2, 9, 3.0); // dirty scratch
        let mut batched = Matrix::filled(1, 4, -5.0);
        cross_correlation_batched_into(&az, &queries, &mut bz_b, &mut batched).unwrap();
        assert_eq!(batched.shape(), fused.shape());
        for (x, y) in batched.as_slice().iter().zip(fused.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Singleton batches reproduce their fused column too.
        for (j, q) in queries.iter().enumerate() {
            let mut solo = Matrix::zeros(0, 0);
            cross_correlation_batched_into(&az, &[q], &mut bz_b, &mut solo).unwrap();
            for i in 0..az.rows() {
                assert_eq!(solo[(i, 0)].to_bits(), fused[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn batched_cross_correlation_typed_errors() {
        let a = Matrix::from_fn(12, 3, |r, c| (r + c) as f64);
        let mut az = Matrix::zeros(0, 0);
        zscored_cols_into(&a, &mut az);
        let mut bz = Matrix::zeros(0, 0);
        let mut out = Matrix::zeros(0, 0);
        // Empty batch.
        assert!(cross_correlation_batched_into(&az, &[], &mut bz, &mut out).is_err());
        // Wrong-length query (mid-stream gallery-shape change).
        let short = vec![1.0; az.cols() - 1];
        let good = vec![1.0; az.cols()];
        assert!(cross_correlation_batched_into(
            &az,
            &[good.as_slice(), short.as_slice()],
            &mut bz,
            &mut out
        )
        .is_err());
        // Empty gallery.
        let empty = Matrix::zeros(0, 0);
        assert!(
            cross_correlation_batched_into(&empty, &[good.as_slice()], &mut bz, &mut out).is_err()
        );
    }

    #[test]
    fn prefilled_rows_match_batched_and_refuse_bad_shapes_typed() {
        let a = Matrix::from_fn(21, 5, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0);
        let b = Matrix::from_fn(21, 4, |r, c| ((r * 2 + c * 5) % 7) as f64 - 3.0);
        let mut az = Matrix::zeros(0, 0);
        zscored_cols_into(&a, &mut az);
        let cols: Vec<Vec<f64>> = (0..b.cols()).map(|j| b.col(j)).collect();
        let queries: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let (mut bz, mut batched) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        cross_correlation_batched_into(&az, &queries, &mut bz, &mut batched).unwrap();
        let mut rows = b.transpose();
        let mut out = Matrix::filled(2, 2, 9.0); // dirty output
        cross_correlation_rows_into(&az, &mut rows, &mut out).unwrap();
        assert_eq!(out.shape(), batched.shape());
        for (x, y) in out.as_slice().iter().zip(batched.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(matches!(
            cross_correlation_rows_into(&Matrix::zeros(0, 0), &mut rows, &mut out),
            Err(LinalgError::EmptyMatrix { .. })
        ));
        assert!(matches!(
            cross_correlation_rows_into(&az, &mut Matrix::zeros(0, 21), &mut out),
            Err(LinalgError::InvalidParameter {
                name: "queries",
                ..
            })
        ));
        assert!(matches!(
            cross_correlation_rows_into(&az, &mut Matrix::zeros(2, 20), &mut out),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn cross_correlation_shape_mismatch() {
        let a = Matrix::zeros(5, 2);
        let b = Matrix::zeros(6, 2);
        assert!(cross_correlation(&a, &b).is_err());
    }

    #[test]
    fn zscore_masked_matches_dense_on_finite() {
        let mut a = vec![0.3, -1.2, 2.5, 0.0, 1.1, 4.4];
        let mut b = a.clone();
        zscore_in_place(&mut a);
        zscore_masked_in_place(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn zscore_masked_ignores_nan() {
        let mut xs = vec![1.0, f64::NAN, 2.0, 3.0, f64::NAN, 4.0, 5.0];
        zscore_masked_in_place(&mut xs);
        assert!(xs[1].is_nan() && xs[4].is_nan());
        let finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        assert!(mean(&finite).abs() < 1e-12);
        assert!((variance(&finite) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zscore_masked_constant_and_empty_support() {
        let mut xs = vec![7.0, f64::NAN, 7.0, 7.0];
        zscore_masked_in_place(&mut xs);
        assert_eq!(&xs[..1], &[0.0]);
        assert!(xs[1].is_nan());
        let mut none = vec![f64::NAN, f64::NAN];
        zscore_masked_in_place(&mut none);
        assert!(none.iter().all(|x| x.is_nan()));
    }

    #[test]
    fn pearson_masked_matches_pearson_on_finite() {
        let x = [0.3, -1.2, 2.5, 0.0, 1.1];
        let y = [1.0, 0.2, -0.7, 0.9, 2.2];
        let dense = pearson(&x, &y).unwrap();
        let masked = pearson_masked(&x, &y, 4).unwrap().unwrap();
        assert_eq!(dense.to_bits(), masked.to_bits());
    }

    #[test]
    fn pearson_masked_uses_pairwise_complete_overlap() {
        // NaN in either series drops that observation from both.
        let x = [1.0, 2.0, f64::NAN, 3.0, 4.0, 5.0];
        let y = [2.0, 4.0, 1.0, f64::NAN, 8.0, 10.0];
        let r = pearson_masked(&x, &y, 2).unwrap().unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_masked_small_overlap_is_none() {
        let x = [1.0, f64::NAN, f64::NAN, 4.0];
        let y = [f64::NAN, 2.0, 3.0, 8.0];
        assert_eq!(pearson_masked(&x, &y, 2).unwrap(), None);
        assert!(pearson_masked(&x, &[1.0], 2).is_err());
    }

    #[test]
    fn cross_correlation_masked_bit_identical_on_finite() {
        let a = Matrix::from_fn(40, 6, |r, c| ((r * 3 + c * 7) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(40, 5, |r, c| ((r * 5 + c * 11) % 9) as f64 - 4.0);
        let dense = cross_correlation(&a, &b).unwrap();
        let masked = cross_correlation_masked(&a, &b, 4).unwrap();
        assert_eq!(dense.shape(), masked.shape());
        for (x, y) in dense.as_slice().iter().zip(masked.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn cross_correlation_masked_recovers_through_nan() {
        // Column 0 of `a` has two missing observations; the surviving overlap
        // still correlates perfectly with column 0 of `b`.
        let mut a = Matrix::from_fn(10, 2, |r, c| (r * (c + 1)) as f64);
        let b = a.clone();
        a[(3, 0)] = f64::NAN;
        a[(7, 0)] = f64::NAN;
        let x = cross_correlation_masked(&a, &b, 4).unwrap();
        assert!((x[(0, 0)] - 1.0).abs() < 1e-12);
        // Fully observed pair is untouched.
        assert!((x[(1, 1)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cross_correlation_masked_under_overlap_is_nan() {
        let mut a = Matrix::from_fn(6, 2, |r, c| (r + c) as f64);
        let b = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as f64);
        for r in 0..5 {
            a[(r, 0)] = f64::NAN;
        }
        let x = cross_correlation_masked(&a, &b, 4).unwrap();
        assert!(x[(0, 0)].is_nan() && x[(0, 1)].is_nan());
        assert!(x[(1, 0)].is_finite());
    }

    #[test]
    fn impute_row_means_fills_and_counts() {
        let mut m =
            Matrix::from_rows(&[&[1.0, f64::NAN, 3.0], &[f64::NAN, f64::NAN, f64::NAN]]).unwrap();
        let n = impute_row_means(&mut m);
        assert_eq!(n, 4);
        assert_eq!(m[(0, 1)], 2.0);
        assert!(m.row(1).iter().all(|&x| x == 0.0));
        // Idempotent on a finite matrix.
        assert_eq!(impute_row_means(&mut m), 0);
    }

    #[test]
    fn impute_row_means_stays_finite_when_the_sum_overflows() {
        // (row, the filled cell, its expected fill)
        let cases: [(&[f64], usize, f64); 3] = [
            (&[1e308, 1e308, f64::NAN], 2, 1e308),
            (&[f64::MAX, f64::MAX, f64::MAX, f64::INFINITY], 3, f64::MAX),
            (&[-f64::MAX, f64::MAX, f64::NAN], 2, 0.0),
        ];
        for (row, at, fill) in cases {
            let mut m = Matrix::from_rows(&[row]).unwrap();
            assert_eq!(impute_row_means(&mut m), 1);
            assert!(m.is_finite(), "{row:?} -> {m:?}");
            assert_eq!(m[(0, at)], fill, "{row:?}");
        }
    }

    #[test]
    fn nrmse_zero_for_exact_prediction() {
        let t = [1.0, 2.0, 3.0];
        assert_eq!(nrmse_percent(&t, &t).unwrap(), 0.0);
    }

    #[test]
    fn nrmse_known_value() {
        // errors all 1, range 10 -> 100 * 1 / 10 = 10%.
        let truth = [0.0, 5.0, 10.0];
        let pred = [1.0, 6.0, 11.0];
        assert!((nrmse_percent(&pred, &truth).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn nrmse_rejects_constant_truth() {
        assert!(nrmse_percent(&[1.0, 1.0], &[2.0, 2.0]).is_err());
    }
}
