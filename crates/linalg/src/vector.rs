//! Free functions on `&[f64]` vectors.
//!
//! These are the scalar kernels underneath the correlation, sampling, and
//! t-SNE code. They are deliberately slice-based so callers can apply them
//! to matrix rows without copies.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Debug-asserts equal lengths; in release the shorter length governs.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Four-way unrolled accumulation: independent partial sums let the CPU
    // overlap the FMA chains (perf-book "loop unrolling for ILP").
    let mut s0 = 0.0;
    let mut s1 = 0.0;
    let mut s2 = 0.0;
    let mut s3 = 0.0;
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0;
    for j in chunks * 4..a.len().min(b.len()) {
        tail += a[j] * b[j];
    }
    s0 + s1 + s2 + s3 + tail
}

/// Euclidean norm `‖a‖₂`.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean norm `‖a‖₂²`.
#[inline]
pub fn norm2_sq(a: &[f64]) -> f64 {
    dot(a, a)
}

/// Squared Euclidean distance `‖a − b‖₂²`.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        s += d * d;
    }
    s
}

/// In-place `y ← y + alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place scaling `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// Sum of all elements.
#[inline]
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Arithmetic mean; `0.0` for an empty slice.
#[inline]
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        sum(a) / a.len() as f64
    }
}

/// Index of the maximum element (first occurrence); `None` if empty or all NaN.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the minimum element (first occurrence); `None` if empty or all NaN.
pub fn argmin(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv <= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Returns indices that would sort `a` in descending order.
///
/// NaNs sort last. Ties keep ascending index order, making feature selection
/// deterministic — the paper's deterministic top-`t` leverage selection
/// depends on this.
pub fn argsort_desc(a: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..a.len()).collect();
    idx.sort_by(|&i, &j| {
        a[j].partial_cmp(&a[i])
            .unwrap_or_else(|| {
                // Push NaNs to the end regardless of side.
                match (a[i].is_nan(), a[j].is_nan()) {
                    (true, false) => std::cmp::Ordering::Greater,
                    (false, true) => std::cmp::Ordering::Less,
                    _ => std::cmp::Ordering::Equal,
                }
            })
            .then(i.cmp(&j))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f64> = (0..37).map(|i| i as f64 * 0.5 - 3.0).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64).cos()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-10);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!((norm2_sq(&[3.0, 4.0]) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn dist_sq_known() {
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist_sq(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn argmax_argmin_basic() {
        let a = [1.0, 5.0, 3.0, 5.0];
        assert_eq!(argmax(&a), Some(1)); // first of the ties
        assert_eq!(argmin(&a), Some(0));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_skips_nan() {
        assert_eq!(argmax(&[f64::NAN, 2.0, 1.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN]), None);
    }

    #[test]
    fn argsort_desc_orders_and_breaks_ties_by_index() {
        let a = [1.0, 3.0, 2.0, 3.0];
        assert_eq!(argsort_desc(&a), vec![1, 3, 2, 0]);
    }

    #[test]
    fn argsort_desc_pushes_nan_last() {
        let a = [f64::NAN, 1.0, 2.0];
        let idx = argsort_desc(&a);
        assert_eq!(idx[2], 0);
        assert_eq!(idx[0], 2);
    }
}
