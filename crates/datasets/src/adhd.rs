//! The ADHD-200-like cohort: resting-state scans of children with ADHD
//! (three subtypes) plus typically-developing controls, on an AAL2-like
//! 116-region atlas (§3.3.4 of the paper).

use crate::error::DatasetError;
use crate::model::{
    dense_loadings, signature_regions, stack_connectomes, supported_loadings, synthesize_ts,
    Component, Session,
};
use crate::Result;
use neurodeanon_connectome::{Connectome, GroupMatrix};
use neurodeanon_linalg::{Matrix, Rng64};

/// Diagnostic group of one subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdhdGroup {
    /// Typically developing control.
    Control,
    /// ADHD subtype (1 = combined, 2 = hyperactive-impulsive,
    /// 3 = inattentive, following the ADHD-200 coding).
    Subtype(u8),
}

impl AdhdGroup {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            AdhdGroup::Control => "control".to_string(),
            AdhdGroup::Subtype(k) => format!("adhd-{k}"),
        }
    }
}

/// Cohort configuration. The real ADHD-200 release has 362 cases and 585
/// controls; the default here is scaled to laptop runtimes while keeping
/// the case/control imbalance.
#[derive(Debug, Clone)]
pub struct AdhdCohortConfig {
    /// Controls in the cohort.
    pub n_controls: usize,
    /// Cases per subtype (subtypes 1..=3).
    pub n_cases_per_subtype: usize,
    /// Atlas regions (AAL2-like: 116 ⇒ 6,670 pair features).
    pub n_regions: usize,
    /// Time points per scan.
    pub n_timepoints: usize,
    /// Factors in the population component.
    pub n_pop_factors: usize,
    /// Factors in each subtype's pathology component.
    pub n_subtype_factors: usize,
    /// Factors per subject signature.
    pub n_sig_factors: usize,
    /// Signature-region count.
    pub n_sig_regions: usize,
    /// Signature expression (children at rest — strong, slightly under the
    /// HCP adult resting value).
    pub signature_expression: f64,
    /// Pathology-component amplitude for cases.
    pub subtype_strength: f64,
    /// Signature instability: session-fresh perturbation on the signature
    /// regions, relative to the signature expression (see the HCP cohort).
    pub signature_instability: f64,
    /// Measurement noise (pediatric scans are noisier than HCP).
    pub noise_std: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for AdhdCohortConfig {
    fn default() -> Self {
        AdhdCohortConfig {
            n_controls: 60,
            n_cases_per_subtype: 25,
            n_regions: 116,
            n_timepoints: 420,
            n_pop_factors: 24,
            n_subtype_factors: 8,
            n_sig_factors: 4,
            n_sig_regions: 28,
            signature_expression: 0.95,
            subtype_strength: 0.45,
            signature_instability: 0.35,
            noise_std: 1.0,
            seed: 0xadbd_0200,
        }
    }
}

impl AdhdCohortConfig {
    /// Reduced configuration for tests.
    pub fn small(n_controls: usize, n_cases_per_subtype: usize, seed: u64) -> Self {
        AdhdCohortConfig {
            n_controls,
            n_cases_per_subtype,
            n_regions: 40,
            n_timepoints: 360,
            n_pop_factors: 10,
            n_subtype_factors: 4,
            n_sig_factors: 3,
            n_sig_regions: 10,
            seed,
            ..Default::default()
        }
    }

    fn validate(&self) -> Result<()> {
        if self.n_controls + self.n_cases_per_subtype == 0 {
            return Err(DatasetError::InvalidConfig {
                name: "cohort size",
                reason: "need at least one subject",
            });
        }
        if self.n_regions < 4 {
            return Err(DatasetError::InvalidConfig {
                name: "n_regions",
                reason: "need at least 4 regions",
            });
        }
        if self.n_sig_regions == 0 || self.n_sig_regions > self.n_regions {
            return Err(DatasetError::InvalidConfig {
                name: "n_sig_regions",
                reason: "signature regions must be in 1..=n_regions",
            });
        }
        if self.n_timepoints < 16 {
            return Err(DatasetError::InvalidConfig {
                name: "n_timepoints",
                reason: "need at least 16 time points",
            });
        }
        Ok(())
    }
}

/// A generated ADHD-200-like cohort (resting-state only, two sessions).
#[derive(Debug, Clone)]
pub struct AdhdCohort {
    config: AdhdCohortConfig,
    groups: Vec<AdhdGroup>,
    pop_loadings: Matrix,
    subtype_loadings: [Matrix; 3],
    session_loadings: [Matrix; 2],
    sig_regions: Vec<usize>,
    subject_loadings: Vec<Matrix>,
}

impl AdhdCohort {
    /// Generates the cohort: controls first, then subtype 1, 2, 3 cases.
    pub fn generate(config: AdhdCohortConfig) -> Result<Self> {
        config.validate()?;
        let mut master = Rng64::new(config.seed);
        let mut rng_pop = master.fork(1);
        let pop_loadings = dense_loadings(config.n_regions, config.n_pop_factors, &mut rng_pop);
        let subtype_loadings = [
            dense_loadings(
                config.n_regions,
                config.n_subtype_factors,
                &mut master.fork(11),
            ),
            dense_loadings(
                config.n_regions,
                config.n_subtype_factors,
                &mut master.fork(12),
            ),
            dense_loadings(
                config.n_regions,
                config.n_subtype_factors,
                &mut master.fork(13),
            ),
        ];
        let session_loadings = [
            dense_loadings(config.n_regions, 4, &mut master.fork(21)),
            dense_loadings(config.n_regions, 4, &mut master.fork(22)),
        ];
        let sig_regions = signature_regions(config.n_regions, config.n_sig_regions);

        let mut groups = Vec::new();
        for _ in 0..config.n_controls {
            groups.push(AdhdGroup::Control);
        }
        for subtype in 1..=3u8 {
            for _ in 0..config.n_cases_per_subtype {
                groups.push(AdhdGroup::Subtype(subtype));
            }
        }
        let mut subject_loadings = Vec::with_capacity(groups.len());
        for s in 0..groups.len() {
            let mut rng_sub = master.fork(1000 + s as u64);
            subject_loadings.push(supported_loadings(
                config.n_regions,
                &sig_regions,
                config.n_sig_factors,
                &mut rng_sub,
            ));
        }
        Ok(AdhdCohort {
            config,
            groups,
            pop_loadings,
            subtype_loadings,
            session_loadings,
            sig_regions,
            subject_loadings,
        })
    }

    /// Cohort configuration.
    pub fn config(&self) -> &AdhdCohortConfig {
        &self.config
    }

    /// Total subject count (controls + all cases).
    pub fn n_subjects(&self) -> usize {
        self.groups.len()
    }

    /// Diagnostic group of each subject, cohort order.
    pub fn groups(&self) -> &[AdhdGroup] {
        &self.groups
    }

    /// Indices of subjects in `group`.
    pub fn subjects_in(&self, group: AdhdGroup) -> Vec<usize> {
        self.groups
            .iter()
            .enumerate()
            .filter_map(|(i, &g)| (g == group).then_some(i))
            .collect()
    }

    /// The signature-region indices.
    pub fn signature_regions(&self) -> &[usize] {
        &self.sig_regions
    }

    /// Synthesizes the resting region × time series for one scan session.
    pub fn region_ts(&self, subject: usize, session: Session) -> Result<Matrix> {
        if subject >= self.groups.len() {
            return Err(DatasetError::SubjectOutOfRange {
                subject,
                n_subjects: self.groups.len(),
            });
        }
        let mut rng = Rng64::new(
            self.config
                .seed
                .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                .wrapping_add((subject as u64) << 16 | session.index()),
        );
        let instab_loadings = supported_loadings(
            self.config.n_regions,
            &self.sig_regions,
            self.config.n_sig_factors,
            &mut rng,
        );
        let zero = Matrix::zeros(self.config.n_regions, 1);
        let (path_loadings, path_scale) = match self.groups[subject] {
            AdhdGroup::Control => (&zero, 0.0),
            AdhdGroup::Subtype(k) => (
                &self.subtype_loadings[(k - 1) as usize],
                self.config.subtype_strength,
            ),
        };
        let components = [
            Component {
                loadings: &self.pop_loadings,
                scale: 1.0,
            },
            Component {
                loadings: path_loadings,
                scale: path_scale,
            },
            Component {
                loadings: &self.subject_loadings[subject],
                scale: self.config.signature_expression,
            },
            Component {
                loadings: &instab_loadings,
                scale: self.config.signature_expression * self.config.signature_instability,
            },
            Component {
                loadings: &self.session_loadings[session.index() as usize],
                scale: 0.15,
            },
        ];
        synthesize_ts(
            self.config.n_regions,
            self.config.n_timepoints,
            &components,
            self.config.noise_std,
            &mut rng,
        )
    }

    /// One subject-session connectome.
    pub fn connectome(&self, subject: usize, session: Session) -> Result<Connectome> {
        let ts = self.region_ts(subject, session)?;
        Connectome::from_region_ts(&ts).map_err(Into::into)
    }

    /// Group matrix over the given subjects (e.g. one subtype, or everyone)
    /// for one session, one column per entry of `subjects` in list order.
    ///
    /// Subjects' connectomes are built in parallel on `linalg::par`, so the
    /// thread count follows `NEURODEANON_THREADS` and
    /// `par::with_thread_count`; the matrix is bit-identical at any thread
    /// count. An empty `subjects` list is an `InvalidConfig` error; otherwise
    /// the error is the first failing subject in list order.
    pub fn group_matrix_for(&self, subjects: &[usize], session: Session) -> Result<GroupMatrix> {
        if subjects.is_empty() {
            return Err(DatasetError::InvalidConfig {
                name: "subjects",
                reason: "need at least one subject",
            });
        }
        stack_connectomes(
            self.config.n_regions,
            subjects.len(),
            |col| self.connectome(subjects[col], session),
            |col| {
                let s = subjects[col];
                format!(
                    "sub{s:04}/{}/{}",
                    self.groups[s].label(),
                    session.encoding()
                )
            },
        )
    }

    /// Group matrix over the full cohort for one session.
    pub fn group_matrix(&self, session: Session) -> Result<GroupMatrix> {
        let all: Vec<usize> = (0..self.n_subjects()).collect();
        self.group_matrix_for(&all, session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurodeanon_linalg::stats::pearson;

    fn small() -> AdhdCohort {
        AdhdCohort::generate(AdhdCohortConfig::small(4, 2, 7)).unwrap()
    }

    #[test]
    fn cohort_composition() {
        let c = small();
        assert_eq!(c.n_subjects(), 4 + 3 * 2);
        assert_eq!(c.subjects_in(AdhdGroup::Control).len(), 4);
        for k in 1..=3 {
            assert_eq!(c.subjects_in(AdhdGroup::Subtype(k)).len(), 2);
        }
    }

    #[test]
    fn config_validation() {
        assert!(AdhdCohort::generate(AdhdCohortConfig::small(0, 0, 1)).is_err());
        let mut cfg = AdhdCohortConfig::small(2, 1, 1);
        cfg.n_sig_regions = 100;
        assert!(AdhdCohort::generate(cfg).is_err());
    }

    #[test]
    fn intra_subject_similarity_dominates() {
        let c = small();
        let a1 = c.connectome(0, Session::One).unwrap().vectorize();
        let a2 = c.connectome(0, Session::Two).unwrap().vectorize();
        let b2 = c.connectome(5, Session::Two).unwrap().vectorize();
        let self_sim = pearson(&a1, &a2).unwrap();
        let cross_sim = pearson(&a1, &b2).unwrap();
        assert!(self_sim > cross_sim, "{self_sim} vs {cross_sim}");
    }

    #[test]
    fn cases_share_subtype_structure() {
        // Two subjects of the same subtype are more similar than a case and
        // a control (the pathology component is shared within subtype).
        let c = AdhdCohort::generate(AdhdCohortConfig::small(4, 3, 9)).unwrap();
        let s1 = c.subjects_in(AdhdGroup::Subtype(1));
        let controls = c.subjects_in(AdhdGroup::Control);
        let a = c.connectome(s1[0], Session::One).unwrap().vectorize();
        let b = c.connectome(s1[1], Session::One).unwrap().vectorize();
        let ctrl = c.connectome(controls[0], Session::One).unwrap().vectorize();
        let within = pearson(&a, &b).unwrap();
        let across = pearson(&a, &ctrl).unwrap();
        assert!(within > across, "within {within} vs across {across}");
    }

    #[test]
    fn group_matrix_shapes_and_labels() {
        let c = small();
        let g = c.group_matrix(Session::One).unwrap();
        assert_eq!(g.n_features(), 40 * 39 / 2);
        assert_eq!(g.n_subjects(), 10);
        assert!(g.subject_ids()[0].contains("control"));
        assert!(g.subject_ids()[9].contains("adhd-3"));
        let sub = c.group_matrix_for(&c.subjects_in(AdhdGroup::Subtype(1)), Session::Two);
        assert_eq!(sub.unwrap().n_subjects(), 2);
        assert!(c.group_matrix_for(&[], Session::One).is_err());
    }

    #[test]
    fn default_feature_count_matches_paper() {
        let cfg = AdhdCohortConfig::default();
        assert_eq!(cfg.n_regions * (cfg.n_regions - 1) / 2, 6_670);
    }

    #[test]
    fn deterministic_scans() {
        let a = small().region_ts(3, Session::One).unwrap();
        let b = small().region_ts(3, Session::One).unwrap();
        assert_eq!(a, b);
    }
}
