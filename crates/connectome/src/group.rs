//! Group matrices: vectorized connectomes stacked column-wise.
//!
//! "We take all of the feature vectors corresponding to images in our
//! de-anonymized set and organize them into a matrix. Each column of this
//! matrix corresponds to a subject, and each row corresponds to a feature"
//! (§3.1). For the HCP setting this is the 64,620 × 100 matrix `A` of
//! §3.1.2.

use crate::error::ConnectomeError;
use crate::matrix::Connectome;
use crate::Result;
use neurodeanon_linalg::Matrix;
use std::sync::OnceLock;

/// A features × subjects matrix with subject labels.
///
/// The number of non-finite cells is a fact of the values, so it is counted
/// at most once per value ([`GroupMatrix::n_non_finite`]) and cached: a
/// clone carries the count, and [`GroupMatrix::as_matrix_mut`] drops it.
#[derive(Debug, Clone)]
pub struct GroupMatrix {
    data: Matrix,
    subject_ids: Vec<String>,
    n_regions: usize,
    /// Non-finite cells of `data`; empty until first asked for.
    non_finite: OnceLock<usize>,
}

impl GroupMatrix {
    /// Stacks vectorized connectomes (one per subject) into a group matrix.
    ///
    /// All connectomes must share a region count; `subject_ids` must match
    /// the connectome count (pass session-qualified ids like `"sub012/LR"`).
    pub fn from_connectomes(connectomes: &[Connectome], subject_ids: &[String]) -> Result<Self> {
        if connectomes.is_empty() {
            return Err(ConnectomeError::EmptyGroup);
        }
        if subject_ids.len() != connectomes.len() {
            return Err(ConnectomeError::RegionCountMismatch {
                expected: connectomes.len(),
                got: subject_ids.len(),
                at: 0,
            });
        }
        let n_regions = connectomes[0].n_regions();
        for (at, c) in connectomes.iter().enumerate() {
            if c.n_regions() != n_regions {
                return Err(ConnectomeError::RegionCountMismatch {
                    expected: n_regions,
                    got: c.n_regions(),
                    at,
                });
            }
        }
        let n_features = n_regions * (n_regions - 1) / 2;
        let mut data = Matrix::zeros(n_features, connectomes.len());
        for (s, c) in connectomes.iter().enumerate() {
            let v = c.vectorize();
            for (f, &val) in v.iter().enumerate() {
                data[(f, s)] = val;
            }
        }
        Ok(GroupMatrix {
            data,
            subject_ids: subject_ids.to_vec(),
            n_regions,
            non_finite: OnceLock::new(),
        })
    }

    /// Builds directly from a features × subjects matrix (used by dataset
    /// generators that synthesize feature vectors without full time series).
    pub fn from_matrix(data: Matrix, subject_ids: Vec<String>, n_regions: usize) -> Result<Self> {
        if data.cols() == 0 || data.rows() == 0 {
            return Err(ConnectomeError::EmptyGroup);
        }
        if subject_ids.len() != data.cols() {
            return Err(ConnectomeError::RegionCountMismatch {
                expected: data.cols(),
                got: subject_ids.len(),
                at: 0,
            });
        }
        Ok(GroupMatrix {
            data,
            subject_ids,
            n_regions,
            non_finite: OnceLock::new(),
        })
    }

    /// Number of features (rows).
    pub fn n_features(&self) -> usize {
        self.data.rows()
    }

    /// Number of subjects (columns).
    pub fn n_subjects(&self) -> usize {
        self.data.cols()
    }

    /// Region count of the underlying connectomes.
    pub fn n_regions(&self) -> usize {
        self.n_regions
    }

    /// Subject labels, column order.
    pub fn subject_ids(&self) -> &[String] {
        &self.subject_ids
    }

    /// The features × subjects matrix.
    pub fn as_matrix(&self) -> &Matrix {
        &self.data
    }

    /// Mutable access to the features × subjects matrix.
    ///
    /// Shape is fixed by construction; this exists so in-place transforms
    /// (defenses, fault injection, imputation) can edit values without
    /// rebuilding the group. It drops the cached non-finite count before
    /// handing out the matrix, so the next [`GroupMatrix::n_non_finite`]
    /// recounts whatever the edit left behind.
    pub fn as_matrix_mut(&mut self) -> &mut Matrix {
        self.non_finite.take();
        &mut self.data
    }

    /// Number of NaN/±inf cells, counted in one pass on first use and
    /// cached until [`GroupMatrix::as_matrix_mut`] hands out the values for
    /// editing. Construction never counts, so ingest pays nothing; a
    /// matrix attacked many times (the Figure 4 sweep) is counted once.
    pub fn n_non_finite(&self) -> usize {
        *self.non_finite.get_or_init(|| {
            self.data
                .as_slice()
                .iter()
                .filter(|x| !x.is_finite())
                .count()
        })
    }

    /// One subject's feature vector (a column).
    pub fn subject_features(&self, s: usize) -> Vec<f64> {
        self.data.col(s)
    }

    /// Restricts to the given feature rows (the attack's "principal
    /// features subspace" step), preserving subject labels.
    pub fn select_features(&self, features: &[usize]) -> Result<GroupMatrix> {
        let data = self.data.select_rows(features)?;
        Ok(GroupMatrix {
            data,
            subject_ids: self.subject_ids.clone(),
            n_regions: self.n_regions,
            non_finite: OnceLock::new(),
        })
    }

    /// Restricts to the given subject columns.
    pub fn select_subjects(&self, subjects: &[usize]) -> Result<GroupMatrix> {
        let data = self.data.select_cols(subjects)?;
        let ids = subjects
            .iter()
            .map(|&s| {
                self.subject_ids
                    .get(s)
                    .cloned()
                    .ok_or(ConnectomeError::FeatureOutOfRange {
                        index: s,
                        n_features: self.subject_ids.len(),
                    })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(GroupMatrix {
            data,
            subject_ids: ids,
            n_regions: self.n_regions,
            non_finite: OnceLock::new(),
        })
    }

    /// Subjects-as-rows matrix (`subjects × features`) — the point cloud
    /// layout t-SNE and the SVR regressor consume.
    pub fn to_points(&self) -> Matrix {
        self.data.transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connectome(seed: usize) -> Connectome {
        let ts = Matrix::from_fn(4, 30, |r, c| {
            ((c as f64 * (0.2 + r as f64 * 0.1) + seed as f64).sin()) * 2.0
        });
        Connectome::from_region_ts(&ts).unwrap()
    }

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("sub{i:03}")).collect()
    }

    #[test]
    fn stacks_columns_per_subject() {
        let cs: Vec<Connectome> = (0..3).map(connectome).collect();
        let g = GroupMatrix::from_connectomes(&cs, &ids(3)).unwrap();
        assert_eq!(g.n_features(), 6);
        assert_eq!(g.n_subjects(), 3);
        assert_eq!(g.n_regions(), 4);
        for (s, c) in cs.iter().enumerate() {
            assert_eq!(g.subject_features(s), c.vectorize());
        }
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(matches!(
            GroupMatrix::from_connectomes(&[], &[]),
            Err(ConnectomeError::EmptyGroup)
        ));
        let cs: Vec<Connectome> = (0..2).map(connectome).collect();
        assert!(GroupMatrix::from_connectomes(&cs, &ids(3)).is_err());
    }

    #[test]
    fn rejects_heterogeneous_region_counts() {
        let a = connectome(0);
        let ts = Matrix::from_fn(5, 30, |r, c| ((c + r) as f64).sin());
        let b = Connectome::from_region_ts(&ts).unwrap();
        let e = GroupMatrix::from_connectomes(&[a, b], &ids(2)).unwrap_err();
        assert!(matches!(
            e,
            ConnectomeError::RegionCountMismatch { at: 1, .. }
        ));
    }

    #[test]
    fn select_features_keeps_subjects() {
        let cs: Vec<Connectome> = (0..3).map(connectome).collect();
        let g = GroupMatrix::from_connectomes(&cs, &ids(3)).unwrap();
        let r = g.select_features(&[5, 0, 2]).unwrap();
        assert_eq!(r.n_features(), 3);
        assert_eq!(r.n_subjects(), 3);
        assert_eq!(r.as_matrix()[(0, 1)], g.as_matrix()[(5, 1)]);
        assert!(g.select_features(&[6]).is_err());
    }

    #[test]
    fn select_subjects_keeps_labels() {
        let cs: Vec<Connectome> = (0..4).map(connectome).collect();
        let g = GroupMatrix::from_connectomes(&cs, &ids(4)).unwrap();
        let r = g.select_subjects(&[3, 1]).unwrap();
        assert_eq!(
            r.subject_ids(),
            &["sub003".to_string(), "sub001".to_string()]
        );
        assert_eq!(r.subject_features(0), g.subject_features(3));
    }

    #[test]
    fn to_points_transposes() {
        let cs: Vec<Connectome> = (0..2).map(connectome).collect();
        let g = GroupMatrix::from_connectomes(&cs, &ids(2)).unwrap();
        let p = g.to_points();
        assert_eq!(p.shape(), (2, 6));
        assert_eq!(p.row(0), g.subject_features(0).as_slice());
    }

    #[test]
    fn from_matrix_validates() {
        let m = Matrix::zeros(10, 3);
        assert!(GroupMatrix::from_matrix(m.clone(), ids(3), 5).is_ok());
        assert!(GroupMatrix::from_matrix(m, ids(2), 5).is_err());
        assert!(GroupMatrix::from_matrix(Matrix::zeros(0, 0), vec![], 5).is_err());
    }
}
