//! Property tests for connectome construction and bookkeeping.

use neurodeanon_connectome::{Connectome, EdgeIndex, GroupMatrix};
use neurodeanon_linalg::Matrix;
use neurodeanon_linalg::Rng64;
use neurodeanon_testkit::gen::{from_fn, matrix_in, u64_in, usize_in, vec_of, Gen};
use neurodeanon_testkit::{forall, tk_assert, tk_assert_eq, Config};

fn cfg() -> Config {
    Config::cases(48)
}

fn region_ts(regions: usize, t: usize) -> impl Gen<Value = Matrix> {
    matrix_in(regions, t, -5.0, 5.0)
}

#[test]
fn edge_index_bijection() {
    forall!(cfg(), (n in usize_in(2..40)) => {
        let idx = EdgeIndex::new(n).unwrap();
        for f in 0..idx.n_features() {
            let (i, j) = idx.edge_of(f).unwrap();
            tk_assert!(i < j && j < n);
            tk_assert_eq!(idx.feature_of(i, j).unwrap(), f);
        }
    });
}

#[test]
fn vectorize_devectorize_roundtrip() {
    forall!(cfg(), (ts in region_ts(5, 24)) => {
        let c = Connectome::from_region_ts(&ts).unwrap();
        let v = c.vectorize();
        let back = Connectome::from_vectorized(&v, 5).unwrap();
        let diff = c.as_matrix().sub(back.as_matrix()).unwrap().max_abs();
        tk_assert!(diff < 1e-12);
    });
}

#[test]
fn connectome_entries_valid() {
    forall!(cfg(), (ts in region_ts(4, 16)) => {
        let c = Connectome::from_region_ts(&ts).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let w = c.edge_weight(i, j);
                tk_assert!((-1.0..=1.0).contains(&w));
                tk_assert!((w - c.edge_weight(j, i)).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn group_matrix_columns_match_sources() {
    forall!(cfg(), (seed in u64_in(0..1000)) => {
        // Deterministic pseudo-random connectomes from the seed.
        let mk = |s: u64| {
            let ts = Matrix::from_fn(4, 20, |r, c| {
                (((s + 1) as f64) * (r as f64 + 1.0) * (c as f64 * 0.37)).sin()
            });
            Connectome::from_region_ts(&ts).unwrap()
        };
        let cs = [mk(seed), mk(seed + 1), mk(seed + 2)];
        let ids: Vec<String> = (0..3).map(|i| format!("s{i}")).collect();
        let g = GroupMatrix::from_connectomes(&cs, &ids).unwrap();
        for (col, c) in cs.iter().enumerate() {
            tk_assert_eq!(g.subject_features(col), c.vectorize());
        }
    });
}

#[test]
fn select_features_then_subjects_commutes() {
    forall!(cfg(), (feat in vec_of(usize_in(0..6), 1..4),
                    subj in vec_of(usize_in(0..3), 1..3)) => {
        let mk = |s: u64| {
            let ts = Matrix::from_fn(4, 20, |r, c| {
                ((s + 2) as f64 * (r as f64 + 0.5) * (c as f64 * 0.21)).cos()
            });
            Connectome::from_region_ts(&ts).unwrap()
        };
        let cs = [mk(0), mk(1), mk(2)];
        let ids: Vec<String> = (0..3).map(|i| format!("s{i}")).collect();
        let g = GroupMatrix::from_connectomes(&cs, &ids).unwrap();
        let a = g.select_features(&feat).unwrap().select_subjects(&subj).unwrap();
        let b = g.select_subjects(&subj).unwrap().select_features(&feat).unwrap();
        tk_assert_eq!(a.as_matrix().as_slice(), b.as_matrix().as_slice());
        tk_assert_eq!(a.subject_ids(), b.subject_ids());
    });
}

#[test]
fn to_points_is_transpose() {
    forall!(cfg(), (seed in u64_in(0..100)) => {
        let mk = |s: u64| {
            let ts = Matrix::from_fn(3, 15, |r, c| ((s + 1) as f64 * (r * 5 + c) as f64 * 0.11).sin());
            Connectome::from_region_ts(&ts).unwrap()
        };
        let cs = [mk(seed), mk(seed + 7)];
        let ids: Vec<String> = (0..2).map(|i| format!("s{i}")).collect();
        let g = GroupMatrix::from_connectomes(&cs, &ids).unwrap();
        let p = g.to_points();
        for s in 0..2 {
            for f in 0..3 {
                tk_assert_eq!(p[(s, f)], g.as_matrix()[(f, s)]);
            }
        }
    });
}

/// One step of the cache-staleness property: an edit through
/// `as_matrix_mut`, a count, or a clone, each aimed at one group of the
/// pool (the original plus every clone taken so far).
#[derive(Debug, Clone)]
enum CacheOp {
    Write {
        g: usize,
        r: usize,
        c: usize,
        v: f64,
    },
    Count {
        g: usize,
    },
    Clone {
        g: usize,
    },
}

/// A NaN, ±inf or finite cell value.
fn any_cell(rng: &mut Rng64) -> f64 {
    match rng.below(4) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => rng.uniform_range(-3.0, 3.0),
    }
}

fn fresh_count(g: &GroupMatrix) -> usize {
    g.as_matrix()
        .as_slice()
        .iter()
        .filter(|x| !x.is_finite())
        .count()
}

/// The cached non-finite count never goes stale: after any interleaving of
/// in-place edits, counts and clones (taken before and after a count), each
/// group's `n_non_finite` equals a fresh count of its own cells.
#[test]
fn cached_non_finite_count_never_goes_stale() {
    let case = from_fn(|rng: &mut Rng64| {
        let (rows, cols) = (1 + rng.below(12), 1 + rng.below(5));
        let m = Matrix::from_fn(rows, cols, |_, _| {
            if rng.below(8) == 0 {
                any_cell(rng)
            } else {
                rng.uniform_range(-3.0, 3.0)
            }
        });
        let ops: Vec<CacheOp> = (0..1 + rng.below(24))
            .map(|_| {
                let g = rng.below(4);
                match rng.below(3) {
                    0 => CacheOp::Write {
                        g,
                        r: rng.below(rows),
                        c: rng.below(cols),
                        v: any_cell(rng),
                    },
                    1 => CacheOp::Count { g },
                    _ => CacheOp::Clone { g },
                }
            })
            .collect();
        (m, ops)
    });
    forall!(cfg(), (case in case) => {
        let (m, ops) = case;
        let ids: Vec<String> = (0..m.cols()).map(|i| format!("s{i}")).collect();
        let mut pool = vec![GroupMatrix::from_matrix(m, ids, 4).unwrap()];
        for op in &ops {
            match *op {
                CacheOp::Write { g, r, c, v } => {
                    let n = pool.len();
                    pool[g % n].as_matrix_mut()[(r, c)] = v;
                }
                CacheOp::Count { g } => {
                    let grp = &pool[g % pool.len()];
                    tk_assert_eq!(grp.n_non_finite(), fresh_count(grp), "after {op:?}");
                }
                CacheOp::Clone { g } => {
                    let copy = pool[g % pool.len()].clone();
                    pool.push(copy);
                }
            }
        }
        for (i, grp) in pool.iter().enumerate() {
            tk_assert_eq!(grp.n_non_finite(), fresh_count(grp), "group {i} at the end");
        }
    });
}
