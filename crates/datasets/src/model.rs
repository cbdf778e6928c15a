//! Shared latent-factor machinery for the synthetic cohorts.
//!
//! Every cohort draws region time series as sums of factor components
//! `scale · L ζ(t)` plus white noise; the latent covariance is then
//! `Σ scale² L Lᵀ + σ² I`, and Pearson connectomes estimated from finitely
//! many time points concentrate around it. Loadings are deterministic
//! functions of (cohort seed, component id), so any subject/session/task
//! series can be regenerated on demand without storing the cohort.

use crate::Result;
use neurodeanon_connectome::{Connectome, GroupMatrix};
use neurodeanon_linalg::{par, Matrix, Rng64};

/// Scan session. The paper's two resting sessions use opposite phase
/// encodings (L-R and R-L); `Session` carries that distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Session {
    /// First session (L-R encoding in the HCP protocol).
    One,
    /// Second session (R-L encoding).
    Two,
}

impl Session {
    /// Both sessions.
    pub const BOTH: [Session; 2] = [Session::One, Session::Two];

    /// The HCP encoding label.
    pub fn encoding(&self) -> &'static str {
        match self {
            Session::One => "LR",
            Session::Two => "RL",
        }
    }

    /// Stable small integer for seed derivation.
    pub fn index(&self) -> u64 {
        match self {
            Session::One => 0,
            Session::Two => 1,
        }
    }
}

/// A weighted factor component: `scale · loadings · ζ(t)`.
#[derive(Debug, Clone)]
pub struct Component<'a> {
    /// Region × factors loading matrix.
    pub loadings: &'a Matrix,
    /// Amplitude multiplier.
    pub scale: f64,
}

/// Draws a dense `n_regions × n_factors` loading matrix with entries
/// `N(0, 1/n_factors)` so the component covariance `L Lᵀ` has unit-order
/// diagonal regardless of the factor count.
pub fn dense_loadings(n_regions: usize, n_factors: usize, rng: &mut Rng64) -> Matrix {
    let sd = (1.0 / n_factors.max(1) as f64).sqrt();
    Matrix::from_fn(n_regions, n_factors, |_, _| rng.gaussian() * sd)
}

/// Draws loadings supported only on `support` rows (all other rows zero) —
/// the subject-signature component concentrated on signature regions.
pub fn supported_loadings(
    n_regions: usize,
    support: &[usize],
    n_factors: usize,
    rng: &mut Rng64,
) -> Matrix {
    let sd = (1.0 / n_factors.max(1) as f64).sqrt();
    let member: std::collections::HashSet<usize> = support.iter().copied().collect();
    Matrix::from_fn(n_regions, n_factors, |r, _| {
        if member.contains(&r) {
            rng.gaussian() * sd
        } else {
            0.0
        }
    })
}

/// Temporal autocorrelation of the latent factor series: the AR(1)
/// coefficient applied to every factor before mixing. BOLD fluctuations are
/// band-limited (≈ 0.01–0.1 Hz); at the HCP repetition time an AR(1) with
/// φ ≈ 0.72 concentrates factor energy in exactly that band, so the
/// pipeline's band-pass stage removes thermal noise *without* removing
/// signal — matching real acquisition physics.
pub const FACTOR_AR: f64 = 0.72;

/// Synthesizes a `n_regions × t` time-series matrix from components plus
/// i.i.d. white noise of standard deviation `noise_std`.
///
/// Factor series are AR(1)-smoothed ([`FACTOR_AR`]) and re-normalized to
/// unit marginal variance, so component scales keep their covariance
/// interpretation; the additive noise stays white (thermal).
pub fn synthesize_ts(
    n_regions: usize,
    t: usize,
    components: &[Component<'_>],
    noise_std: f64,
    rng: &mut Rng64,
) -> Result<Matrix> {
    let mut out = Matrix::zeros(n_regions, t);
    // Innovation scale that keeps the AR(1) process at unit variance.
    let innov = (1.0 - FACTOR_AR * FACTOR_AR).sqrt();
    for comp in components {
        if comp.scale == 0.0 {
            continue;
        }
        let q = comp.loadings.cols();
        // Factor series ζ: q × t band-limited (AR(1)) unit-variance noise.
        let mut factors = Matrix::zeros(q, t);
        for f in 0..q {
            let row = factors.row_mut(f);
            let mut prev = rng.gaussian(); // stationary start
            row[0] = prev;
            for v in row.iter_mut().skip(1) {
                prev = FACTOR_AR * prev + innov * rng.gaussian();
                *v = prev;
            }
        }
        let mut contrib = comp.loadings.matmul(&factors)?;
        contrib.scale_mut(comp.scale);
        out = out.add(&contrib)?;
    }
    if noise_std > 0.0 {
        for v in out.as_mut_slice() {
            *v += noise_std * rng.gaussian();
        }
    }
    Ok(out)
}

/// Picks `count` regions from the complement of `exclude`, spread evenly —
/// used for the task-execution support, disjoint from signature regions so
/// execution variability corrupts a different block of connectome features
/// than the one carrying identity.
pub fn complement_regions(n_regions: usize, exclude: &[usize], count: usize) -> Vec<usize> {
    let excluded: std::collections::HashSet<usize> = exclude.iter().copied().collect();
    let available: Vec<usize> = (0..n_regions).filter(|r| !excluded.contains(r)).collect();
    let count = count.min(available.len());
    if count == 0 {
        return Vec::new();
    }
    // Even stride over the available regions.
    (0..count)
        .map(|k| available[k * available.len() / count])
        .collect()
}

/// Picks `count` signature regions deterministically from `n_regions`
/// (evenly strided with a golden-ratio offset so they spread across the
/// brain, mimicking the distributed parieto-frontal signature sites).
pub fn signature_regions(n_regions: usize, count: usize) -> Vec<usize> {
    let count = count.min(n_regions);
    let phi = 0.618_033_988_749_894_9_f64;
    let mut picked = std::collections::BTreeSet::new();
    let mut pos = 0.0;
    while picked.len() < count {
        pos = (pos + phi) % 1.0;
        let mut idx = (pos * n_regions as f64) as usize % n_regions;
        while picked.contains(&idx) {
            idx = (idx + 1) % n_regions;
        }
        picked.insert(idx);
    }
    picked.into_iter().collect()
}

/// Stacks one vectorized connectome per subject into a features × subjects
/// group matrix: column `i` is `connectome(i)` with id `id(i)`.
///
/// The connectomes are built on [`par::par_chunks_mut`], one subject per
/// tile, so ingest obeys `NEURODEANON_THREADS` and `par::with_thread_count`
/// like every kernel. Each column is a pure function of its subject, so the
/// matrix is bit-identical at any thread count. The error is the first
/// failing subject in column order.
pub(crate) fn stack_connectomes(
    n_regions: usize,
    n_subjects: usize,
    connectome: impl Fn(usize) -> Result<Connectome> + Sync,
    id: impl Fn(usize) -> String,
) -> Result<GroupMatrix> {
    let mut columns: Vec<Result<Vec<f64>>> = (0..n_subjects).map(|_| Ok(Vec::new())).collect();
    // One scan's synthesis and connectome outweigh a thread spawn at any
    // cohort shape, so the threshold is 0.
    par::par_chunks_mut(&mut columns, 1, 1, 0, |i, slot| {
        slot[0] = connectome(i).map(|c| c.vectorize());
    });
    let mut data = Matrix::zeros(n_regions * (n_regions - 1) / 2, n_subjects);
    let mut ids = Vec::with_capacity(n_subjects);
    for (i, column) in columns.into_iter().enumerate() {
        data.set_col(i, &column?)?;
        ids.push(id(i));
    }
    GroupMatrix::from_matrix(data, ids, n_regions).map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurodeanon_linalg::stats::correlation_matrix;

    #[test]
    fn session_labels() {
        assert_eq!(Session::One.encoding(), "LR");
        assert_eq!(Session::Two.encoding(), "RL");
        assert_ne!(Session::One.index(), Session::Two.index());
    }

    #[test]
    fn dense_loadings_unit_diagonal_covariance() {
        let mut rng = Rng64::new(5);
        let l = dense_loadings(50, 200, &mut rng);
        let cov = l.matmul(&l.transpose()).unwrap();
        let mean_diag: f64 = (0..50).map(|i| cov[(i, i)]).sum::<f64>() / 50.0;
        assert!((mean_diag - 1.0).abs() < 0.15, "mean diag {mean_diag}");
    }

    #[test]
    fn supported_loadings_zero_outside_support() {
        let mut rng = Rng64::new(6);
        let support = vec![2, 5, 7];
        let l = supported_loadings(10, &support, 4, &mut rng);
        for r in 0..10 {
            let zero = l.row(r).iter().all(|&x| x == 0.0);
            assert_eq!(zero, !support.contains(&r), "row {r}");
        }
    }

    #[test]
    fn synthesize_ts_shapes_and_determinism() {
        let mut rng = Rng64::new(7);
        let l = dense_loadings(8, 4, &mut rng);
        let comps = [Component {
            loadings: &l,
            scale: 1.0,
        }];
        let a = synthesize_ts(8, 30, &comps, 0.1, &mut Rng64::new(9)).unwrap();
        let b = synthesize_ts(8, 30, &comps, 0.1, &mut Rng64::new(9)).unwrap();
        assert_eq!(a.shape(), (8, 30));
        assert_eq!(a, b);
    }

    #[test]
    fn correlation_tracks_latent_covariance() {
        // Two regions loading the same single factor must correlate highly;
        // a third independent region must not.
        let mut l = Matrix::zeros(3, 2);
        l[(0, 0)] = 1.0;
        l[(1, 0)] = 1.0;
        l[(2, 1)] = 1.0;
        let comps = [Component {
            loadings: &l,
            scale: 1.0,
        }];
        let ts = synthesize_ts(3, 2000, &comps, 0.1, &mut Rng64::new(11)).unwrap();
        let c = correlation_matrix(&ts).unwrap();
        assert!(c[(0, 1)] > 0.9, "coupled pair {}", c[(0, 1)]);
        assert!(c[(0, 2)].abs() < 0.15, "independent pair {}", c[(0, 2)]);
    }

    #[test]
    fn zero_scale_component_is_skipped() {
        let l = Matrix::filled(4, 2, 1.0);
        let comps = [Component {
            loadings: &l,
            scale: 0.0,
        }];
        let ts = synthesize_ts(4, 10, &comps, 0.0, &mut Rng64::new(1)).unwrap();
        assert!(ts.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn signature_regions_distinct_sorted_spread() {
        let s = signature_regions(360, 60);
        assert_eq!(s.len(), 60);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(*s.last().unwrap() < 360);
        // Spread: regions appear in every third of the brain.
        assert!(s.iter().any(|&r| r < 120));
        assert!(s.iter().any(|&r| (120..240).contains(&r)));
        assert!(s.iter().any(|&r| r >= 240));
    }

    #[test]
    fn signature_regions_caps_at_n() {
        assert_eq!(signature_regions(5, 10).len(), 5);
    }
}
