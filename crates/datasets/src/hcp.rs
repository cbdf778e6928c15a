//! The HCP-like cohort: 100 "unrelated subjects", two sessions, resting
//! state plus seven tasks, with task-performance phenotypes.

use crate::error::DatasetError;
use crate::model::{
    complement_regions, dense_loadings, signature_regions, stack_connectomes, supported_loadings,
    synthesize_ts, Component, Session,
};
use crate::task::Task;
use crate::Result;
use neurodeanon_connectome::{Connectome, GroupMatrix};
use neurodeanon_linalg::svd::thin_svd;
use neurodeanon_linalg::{Matrix, Rng64};

/// Cohort configuration. Defaults reproduce the paper's setting: 100
/// subjects, 360 regions (⇒ 64,620 features), HCP-like scan length.
#[derive(Debug, Clone)]
pub struct HcpCohortConfig {
    /// Number of subjects (paper: 100 unrelated subjects).
    pub n_subjects: usize,
    /// Atlas regions (paper: Glasser 360).
    pub n_regions: usize,
    /// Time points per scan session.
    pub n_timepoints: usize,
    /// Factors in the population component.
    pub n_pop_factors: usize,
    /// Factors per task component.
    pub n_task_factors: usize,
    /// Factors in each subject signature.
    pub n_sig_factors: usize,
    /// Number of signature regions (support of the subject component).
    pub n_sig_regions: usize,
    /// White measurement noise standard deviation.
    pub noise_std: f64,
    /// Amplitude of the session-specific (phase-encoding) component.
    pub session_strength: f64,
    /// Overall gain on the subject-signature component (scales both the
    /// stable signature and its instability): controls how strongly
    /// signature edges correlate. Real connectome edges are strong
    /// (|ρ| ≈ 0.4–0.9); the default gain lands there.
    pub signature_gain: f64,
    /// Signature instability: amplitude (relative to the task's signature
    /// expression) of a session-fresh perturbation *on the signature
    /// regions* — day-to-day state change in the individual pattern. This
    /// is what keeps same-subject sessions from being trivially identical
    /// and gives the multi-site noise sweep (Table 2) room to erode
    /// accuracy.
    pub signature_instability: f64,
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Optional motion-scrubbing threshold applied to every synthesized
    /// region × time series before connectome construction (the multiplier
    /// handed to [`neurodeanon_preprocess::scrub::scrub_spikes`]: frames
    /// whose framewise displacement exceeds `threshold × median` are
    /// censored and interpolated). `None` (the default) leaves the series
    /// untouched, bit-identical to pre-scrubbing cohorts; the robustness
    /// sweep enables it to round-trip injected spike artifacts through the
    /// censoring path.
    pub scrub_fd_threshold: Option<f64>,
}

impl Default for HcpCohortConfig {
    fn default() -> Self {
        HcpCohortConfig {
            n_subjects: 100,
            n_regions: 360,
            n_timepoints: 480,
            n_pop_factors: 40,
            n_task_factors: 12,
            n_sig_factors: 5,
            n_sig_regions: 72,
            noise_std: 0.25,
            session_strength: 0.12,
            signature_gain: 2.2,
            signature_instability: 0.35,
            seed: 0x4c50_2021,
            scrub_fd_threshold: None,
        }
    }
}

impl HcpCohortConfig {
    /// A reduced configuration for unit/integration tests: fewer subjects
    /// and regions, same phenomenon.
    pub fn small(n_subjects: usize, seed: u64) -> Self {
        HcpCohortConfig {
            n_subjects,
            n_regions: 60,
            n_timepoints: 400,
            n_pop_factors: 15,
            n_task_factors: 6,
            n_sig_factors: 4,
            n_sig_regions: 14,
            seed,
            ..Default::default()
        }
    }

    fn validate(&self) -> Result<()> {
        if self.n_subjects == 0 {
            return Err(DatasetError::InvalidConfig {
                name: "n_subjects",
                reason: "need at least one subject",
            });
        }
        if self.n_regions < 4 {
            return Err(DatasetError::InvalidConfig {
                name: "n_regions",
                reason: "need at least 4 regions",
            });
        }
        if self.n_timepoints < 16 {
            return Err(DatasetError::InvalidConfig {
                name: "n_timepoints",
                reason: "need at least 16 time points for stable correlations",
            });
        }
        if self.n_sig_regions == 0 || self.n_sig_regions > self.n_regions {
            return Err(DatasetError::InvalidConfig {
                name: "n_sig_regions",
                reason: "signature regions must be in 1..=n_regions",
            });
        }
        if self.n_pop_factors == 0 || self.n_task_factors == 0 || self.n_sig_factors == 0 {
            return Err(DatasetError::InvalidConfig {
                name: "factors",
                reason: "every component needs at least one factor",
            });
        }
        if !(self.noise_std >= 0.0 && self.noise_std.is_finite()) {
            return Err(DatasetError::InvalidConfig {
                name: "noise_std",
                reason: "must be non-negative and finite",
            });
        }
        if let Some(th) = self.scrub_fd_threshold {
            // Same domain scrub_spikes itself enforces; reject at config
            // time so a bad threshold cannot fail deep inside a sweep.
            if !(th > 1.0 && th.is_finite()) {
                return Err(DatasetError::InvalidConfig {
                    name: "scrub_fd_threshold",
                    reason: "scrub threshold must be a finite multiplier > 1",
                });
            }
        }
        Ok(())
    }
}

/// A generated HCP-like cohort. Loadings are materialized once; time series
/// are synthesized on demand (deterministically) per (subject, task,
/// session).
#[derive(Debug, Clone)]
pub struct HcpCohort {
    pub(crate) config: HcpCohortConfig,
    pub(crate) pop_loadings: Matrix,
    /// One loading matrix per task, [`Task::ALL`] order.
    pub(crate) task_loadings: Vec<Matrix>,
    pub(crate) session_loadings: [Matrix; 2],
    pub(crate) sig_regions: Vec<usize>,
    /// Support of the task-execution variability component (disjoint from
    /// the signature regions).
    pub(crate) exec_regions: Vec<usize>,
    /// Per-subject signature loadings (shared base + population modes +
    /// idiosyncratic part, combined).
    pub(crate) subject_loadings: Vec<Matrix>,
    /// Per-subject scores on the three population variability modes.
    pub(crate) subject_modes: Vec<[f64; 3]>,
    /// Per-(task, subject) ground-truth performance scores (percent),
    /// empty for tasks without metrics.
    performance: Vec<Vec<f64>>,
}

/// Weight of the shared base pattern inside a subject signature. A strong
/// common base makes *different* subjects' connectomes realistically
/// similar (the paper's Figure 1 off-diagonals are high, not near zero),
/// which keeps identification margins slim.
const BASE_WEIGHT: f64 = 5.0;
/// Weight of each population variability mode inside a subject signature.
const MODE_WEIGHT: f64 = 2.0;
/// Weight of the idiosyncratic (fingerprint) part of a subject signature.
const IDIO_WEIGHT: f64 = 1.4;

impl HcpCohort {
    /// Generates the cohort from a configuration.
    pub fn generate(config: HcpCohortConfig) -> Result<Self> {
        config.validate()?;
        let mut master = Rng64::new(config.seed);
        let mut rng_pop = master.fork(1);
        let pop_loadings = dense_loadings(config.n_regions, config.n_pop_factors, &mut rng_pop);

        // Task components. GAMBLING shares half its factor columns with
        // REST's loading, producing the Figure 6 rest ↔ gambling confusion.
        let mut task_loadings: Vec<Matrix> = Vec::with_capacity(8);
        let mut rest_loading = None;
        for task in Task::ALL {
            let mut rng_t = master.fork(100 + task.index() as u64);
            let mut l = dense_loadings(config.n_regions, config.n_task_factors, &mut rng_t);
            if task == Task::Rest {
                rest_loading = Some(l.clone());
            }
            if task == Task::Gambling {
                // GAMBLING shares half its factor columns with REST, so
                // their t-SNE clusters sit closest together (the paper
                // reports occasional rest → gambling confusion; our
                // synthetic clusters stay separable — see EXPERIMENTS.md E4).
                let rest = rest_loading
                    .as_ref()
                    .expect("REST precedes GAMBLING in ALL");
                let shared = config.n_task_factors / 2;
                for c in 0..shared {
                    for r in 0..config.n_regions {
                        l[(r, c)] = rest[(r, c)];
                    }
                }
            }
            task_loadings.push(l);
        }

        let mut rng_s1 = master.fork(200);
        let mut rng_s2 = master.fork(201);
        let session_loadings = [
            dense_loadings(config.n_regions, 4, &mut rng_s1),
            dense_loadings(config.n_regions, 4, &mut rng_s2),
        ];

        let sig_regions = signature_regions(config.n_regions, config.n_sig_regions);
        let exec_regions = complement_regions(config.n_regions, &sig_regions, config.n_sig_regions);
        // Subject signatures decompose as
        //   G_s = (BASE_WEIGHT · B0 + MODE_WEIGHT · Σ_d z_{s,d} D_d
        //          + IDIO_WEIGHT · H_s) / norm
        // with a shared base B0, three fixed population variability modes
        // D_d scored per subject by z_{s,d} ~ N(0,1), and an idiosyncratic
        // part H_s. The modes give inter-subject connectome variation a
        // dominant low-dimensional structure (the "brain-behaviour mode"
        // phenomenon); the idiosyncratic part carries the fingerprint.
        // The shared base is rank-1: all signature regions load one common
        // factor, which is what makes signature edges *strong* (|ρ| well
        // above 0.5), as real connectome edges are.
        let base_sig = {
            let col = supported_loadings(config.n_regions, &sig_regions, 1, &mut master.fork(500));
            let mut m = Matrix::zeros(config.n_regions, config.n_sig_factors);
            for r in 0..config.n_regions {
                // supported_loadings(…, 1, …) uses sd 1; keep that scale.
                m[(r, 0)] = col[(r, 0)];
            }
            m
        };
        let mode_dirs: Vec<Matrix> = (0..3)
            .map(|d| {
                supported_loadings(
                    config.n_regions,
                    &sig_regions,
                    config.n_sig_factors,
                    &mut master.fork(501 + d),
                )
            })
            .collect();
        // Normalize so the combined signature keeps unit-order covariance.
        let norm = (BASE_WEIGHT * BASE_WEIGHT
            + 3.0 * MODE_WEIGHT * MODE_WEIGHT
            + IDIO_WEIGHT * IDIO_WEIGHT)
            .sqrt();
        let mut subject_loadings = Vec::with_capacity(config.n_subjects);
        let mut subject_modes = Vec::with_capacity(config.n_subjects);
        for s in 0..config.n_subjects {
            let mut rng_sub = master.fork(1000 + s as u64);
            let z = [rng_sub.gaussian(), rng_sub.gaussian(), rng_sub.gaussian()];
            let idio = supported_loadings(
                config.n_regions,
                &sig_regions,
                config.n_sig_factors,
                &mut rng_sub,
            );
            let mut g = base_sig.scaled(BASE_WEIGHT);
            for (d, dir) in mode_dirs.iter().enumerate() {
                g = g.add(&dir.scaled(MODE_WEIGHT * z[d]))?;
            }
            g = g.add(&idio.scaled(IDIO_WEIGHT))?;
            g.scale_mut(1.0 / norm);
            subject_loadings.push(g);
            subject_modes.push(z);
        }

        // Task performance phenotypes. Behaviour correlates with the
        // dominant modes of inter-subject connectome variation (the
        // brain-behaviour-mode premise behind Finn et al.'s fluid-
        // intelligence prediction), so each task's score is a task-specific
        // mixture of the leading principal components of the latent
        // signature-pair matrix across the cohort, standardized into a
        // percent-accuracy band, plus a grain of unmodelled noise.
        let mut cohort = HcpCohort {
            config,
            pop_loadings,
            task_loadings,
            session_loadings,
            sig_regions,
            exec_regions,
            subject_loadings,
            subject_modes,
            performance: vec![Vec::new(); 8],
        };
        cohort.performance = cohort.build_performance(&mut master)?;
        Ok(cohort)
    }

    /// The *expected* correlation features of one subject on the signature
    /// pairs, for a given condition and session: the population value the
    /// noisy per-scan Pearson estimates concentrate around.
    fn expected_sig_corr(&self, subject: usize, task: Task, session: Session) -> Vec<f64> {
        let k = self.sig_regions.len();
        let a = task.signature_expression() * self.config.signature_gain;
        let b = task.task_strength();
        let sess = self.config.session_strength;
        // Covariance restricted to signature regions:
        // Σ = A Aᵀ + b² B Bᵀ + sess² E Eᵀ + a² G Gᵀ + σ² I.
        let sub = |m: &Matrix, i: usize, j: usize| -> f64 {
            let ri = self.sig_regions[i];
            let rj = self.sig_regions[j];
            let mut acc = 0.0;
            for f in 0..m.cols() {
                acc += m[(ri, f)] * m[(rj, f)];
            }
            acc
        };
        let bl = &self.task_loadings[task.index()];
        let el = &self.session_loadings[session.index() as usize];
        let g = &self.subject_loadings[subject];
        let mut cov = Matrix::zeros(k, k);
        for i in 0..k {
            for j in i..k {
                let mut v = sub(&self.pop_loadings, i, j)
                    + b * b * sub(bl, i, j)
                    + sess * sess * sub(el, i, j)
                    + a * a * sub(g, i, j);
                if i == j {
                    v += self.config.noise_std * self.config.noise_std;
                }
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        let mut out = Vec::with_capacity(k * (k - 1) / 2);
        for i in 0..k {
            for j in (i + 1)..k {
                out.push(cov[(i, j)] / (cov[(i, i)] * cov[(j, j)]).sqrt());
            }
        }
        out
    }

    /// Builds per-task performance vectors: each task's score is a
    /// task-specific mixture of the leading principal components of the
    /// cohort's *expected* connectome features on the signature pairs —
    /// the dominant axes of inter-subject connectome variation, which is
    /// what real brain-behaviour modes look like. Scores are scaled into a
    /// percent-accuracy band plus a grain of unmodelled noise; per-task
    /// noise levels are tuned to the Table 1 ordering (Emotion lowest test
    /// error, Relational highest).
    fn build_performance(&self, master: &mut Rng64) -> Result<Vec<Vec<f64>>> {
        let n = self.config.n_subjects;
        let n_pairs = self.sig_regions.len() * (self.sig_regions.len() - 1) / 2;
        let n_modes = 3usize.min(n);
        let task_noise = |task: Task| -> f64 {
            match task {
                Task::Emotion => 0.08,
                Task::Language => 0.30,
                Task::WorkingMemory => 0.40,
                Task::Relational => 0.75,
                _ => 0.0,
            }
        };
        let mut out = vec![Vec::new(); 8];
        if n < 2 {
            for task in Task::ALL {
                if task.has_performance_metric() {
                    out[task.index()] = vec![80.0; n];
                }
            }
            return Ok(out);
        }
        for task in Task::ALL {
            if !task.has_performance_metric() {
                continue;
            }
            // Expected-feature matrix for this task (session 1, the session
            // the Table 1 protocol trains on), rows centered.
            let mut pair_matrix = Matrix::zeros(n_pairs, n);
            for s in 0..n {
                pair_matrix.set_col(s, &self.expected_sig_corr(s, task, Session::One))?;
            }
            for r in 0..pair_matrix.rows() {
                let row = pair_matrix.row_mut(r);
                let mean = row.iter().sum::<f64>() / n as f64;
                for v in row.iter_mut() {
                    *v -= mean;
                }
            }
            // Subject-space modes: right singular vectors.
            let svd = if pair_matrix.rows() >= pair_matrix.cols() {
                thin_svd(&pair_matrix)?
            } else {
                let f = thin_svd(&pair_matrix.transpose())?;
                neurodeanon_linalg::svd::Svd {
                    u: f.v.clone(),
                    sigma: f.sigma.clone(),
                    v: f.u.clone(),
                }
            };
            let mut rng_w = master.fork(300 + task.index() as u64);
            let coeffs: Vec<f64> = (0..n_modes).map(|_| rng_w.gaussian()).collect();
            let mut scores: Vec<f64> = (0..n)
                .map(|s| (0..n_modes).map(|d| coeffs[d] * svd.v[(s, d)]).sum::<f64>())
                .collect();
            // Standardize across the cohort, then scale into percent band.
            let mean = scores.iter().sum::<f64>() / n as f64;
            let var = scores.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
            let sd = var.sqrt().max(1e-12);
            for z in &mut scores {
                *z = (*z - mean) / sd;
            }
            out[task.index()] = scores
                .iter()
                .enumerate()
                .map(|(s, &z)| {
                    let mut rng_n = Rng64::new(
                        self.config.seed ^ (0xBEE5 + s as u64 * 31 + task.index() as u64),
                    );
                    let noise = rng_n.gaussian() * task_noise(task);
                    (80.0 + 8.0 * z + noise).clamp(0.0, 100.0)
                })
                .collect();
        }
        Ok(out)
    }

    /// Cohort configuration.
    pub fn config(&self) -> &HcpCohortConfig {
        &self.config
    }

    /// Number of subjects.
    pub fn n_subjects(&self) -> usize {
        self.config.n_subjects
    }

    /// The signature-region indices (ground truth the attack rediscovers).
    pub fn signature_regions(&self) -> &[usize] {
        &self.sig_regions
    }

    /// Ground-truth population-mode scores `z_{s,d}` of one subject — the
    /// latent axes behind the performance phenotypes (for diagnostics, the
    /// block-timing phenotypes and oracle comparisons in the tests).
    pub fn subject_mode_scores(&self, subject: usize) -> Result<[f64; 3]> {
        self.subject_modes
            .get(subject)
            .copied()
            .ok_or(DatasetError::SubjectOutOfRange {
                subject,
                n_subjects: self.config.n_subjects,
            })
    }

    /// Subject label used in group matrices.
    pub fn subject_id(&self, subject: usize) -> String {
        format!("sub{subject:04}")
    }

    /// Synthesizes the region × time series for one scan, applying the
    /// configured motion scrubbing (if any) — see
    /// [`HcpCohortConfig::scrub_fd_threshold`].
    pub fn region_ts(&self, subject: usize, task: Task, session: Session) -> Result<Matrix> {
        let mut ts = self.region_ts_raw(subject, task, session)?;
        if let Some(th) = self.config.scrub_fd_threshold {
            neurodeanon_preprocess::scrub::scrub_spikes(&mut ts, th)?;
        }
        Ok(ts)
    }

    /// The unscrubbed region × time series for one scan — what the scanner
    /// produced before any censoring. The corruption module injects faults
    /// here so that scrubbing can then be measured as a *recovery* step
    /// (inject → scrub → connectome), matching a real pipeline's ordering.
    pub fn region_ts_raw(&self, subject: usize, task: Task, session: Session) -> Result<Matrix> {
        if subject >= self.config.n_subjects {
            return Err(DatasetError::SubjectOutOfRange {
                subject,
                n_subjects: self.config.n_subjects,
            });
        }
        let mut rng = Rng64::new(
            self.config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(
                    (subject as u64) << 32 | (task.index() as u64) << 8 | session.index(),
                ),
        );
        // Signature instability: a session-fresh perturbation on the
        // signature regions, proportional to the signature expression.
        let instab_loadings = supported_loadings(
            self.config.n_regions,
            &self.sig_regions,
            self.config.n_sig_factors,
            &mut rng,
        );
        // Task-execution variability: a fresh loading per scan, supported
        // on the execution regions (disjoint from the signature support).
        // It is deterministic for the scan (drawn from the scan's own
        // stream) but does not reproduce across sessions, so it floods the
        // leverage selection with non-reproducible features — the Figure 5
        // mechanism that makes MOTOR/WM rows ineffective.
        let exec_loadings = supported_loadings(
            self.config.n_regions,
            &self.exec_regions,
            self.config.n_sig_factors,
            &mut rng,
        );
        let components = [
            Component {
                loadings: &self.pop_loadings,
                scale: 1.0,
            },
            Component {
                loadings: &self.task_loadings[task.index()],
                scale: task.task_strength(),
            },
            Component {
                loadings: &self.subject_loadings[subject],
                scale: task.signature_expression() * self.config.signature_gain,
            },
            Component {
                loadings: &exec_loadings,
                scale: task.execution_variability(),
            },
            Component {
                loadings: &instab_loadings,
                scale: task.signature_expression()
                    * self.config.signature_gain
                    * self.config.signature_instability,
            },
            Component {
                loadings: &self.session_loadings[session.index() as usize],
                scale: self.config.session_strength,
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

    /// A copy of this cohort with motion scrubbing switched on (or off, via
    /// `None`) for every subsequently synthesized scan. Loadings and
    /// phenotypes are shared unchanged, so the scrubbed and unscrubbed
    /// cohorts describe the same subjects — exactly what the robustness
    /// sweep needs to measure recovered accuracy after spike injection.
    pub fn with_scrub_threshold(&self, threshold: Option<f64>) -> Result<Self> {
        let mut out = self.clone();
        out.config.scrub_fd_threshold = threshold;
        out.config.validate()?;
        Ok(out)
    }

    /// The functional connectome of one scan.
    pub fn connectome(&self, subject: usize, task: Task, session: Session) -> Result<Connectome> {
        let ts = self.region_ts(subject, task, session)?;
        Connectome::from_region_ts(&ts).map_err(Into::into)
    }

    /// Builds the features × subjects group matrix for one condition and
    /// session, subjects in index order.
    ///
    /// Subjects' connectomes are built in parallel on `linalg::par`, so the
    /// thread count follows `NEURODEANON_THREADS` and
    /// `par::with_thread_count`; the matrix is bit-identical at any thread
    /// count. The error is the first failing subject in index order.
    pub fn group_matrix(&self, task: Task, session: Session) -> Result<GroupMatrix> {
        stack_connectomes(
            self.config.n_regions,
            self.config.n_subjects,
            |s| self.connectome(s, task, session),
            |s| {
                format!(
                    "{}/{}/{}",
                    self.subject_id(s),
                    task.name(),
                    session.encoding()
                )
            },
        )
    }

    /// Ground-truth task performance (percent correct) for subjects on
    /// tasks with metrics — a task-specific mixture of the leading latent
    /// connectome modes plus small idiosyncratic noise, so connectome
    /// features genuinely carry it (§3.3.3's premise).
    pub fn performance(&self, subject: usize, task: Task) -> Result<f64> {
        if subject >= self.config.n_subjects {
            return Err(DatasetError::SubjectOutOfRange {
                subject,
                n_subjects: self.config.n_subjects,
            });
        }
        if !task.has_performance_metric() {
            return Err(DatasetError::InvalidConfig {
                name: "task",
                reason: "no performance metric for this condition",
            });
        }
        Ok(self.performance[task.index()][subject])
    }

    /// All subjects' performance for one task.
    pub fn performance_vector(&self, task: Task) -> Result<Vec<f64>> {
        (0..self.config.n_subjects)
            .map(|s| self.performance(s, task))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurodeanon_linalg::stats::pearson;

    fn small() -> HcpCohort {
        HcpCohort::generate(HcpCohortConfig::small(8, 42)).unwrap()
    }

    #[test]
    fn config_validation() {
        let mut c = HcpCohortConfig::small(0, 1);
        assert!(HcpCohort::generate(c.clone()).is_err());
        c.n_subjects = 2;
        c.n_regions = 2;
        assert!(HcpCohort::generate(c.clone()).is_err());
        c.n_regions = 20;
        c.n_sig_regions = 30;
        assert!(HcpCohort::generate(c).is_err());
    }

    #[test]
    fn region_ts_shape_and_determinism() {
        let cohort = small();
        let a = cohort.region_ts(0, Task::Rest, Session::One).unwrap();
        let b = cohort.region_ts(0, Task::Rest, Session::One).unwrap();
        assert_eq!(a.shape(), (60, 400));
        assert_eq!(a, b);
        let c = cohort.region_ts(0, Task::Rest, Session::Two).unwrap();
        assert_ne!(a, c);
        assert!(cohort.region_ts(99, Task::Rest, Session::One).is_err());
    }

    #[test]
    fn intra_subject_beats_inter_subject_similarity() {
        // The core fingerprinting phenomenon (Figure 1) at rest.
        let cohort = small();
        let c0a = cohort.connectome(0, Task::Rest, Session::One).unwrap();
        let c0b = cohort.connectome(0, Task::Rest, Session::Two).unwrap();
        let c1b = cohort.connectome(1, Task::Rest, Session::Two).unwrap();
        let self_sim = pearson(&c0a.vectorize(), &c0b.vectorize()).unwrap();
        let cross_sim = pearson(&c0a.vectorize(), &c1b.vectorize()).unwrap();
        assert!(
            self_sim > cross_sim,
            "self {self_sim:.3} vs cross {cross_sim:.3}"
        );
    }

    #[test]
    fn signature_concentrates_on_signature_regions() {
        // Between-subject variance of edges inside the signature support
        // must exceed that of edges outside it.
        let cohort = small();
        let g = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let sig: std::collections::HashSet<usize> =
            cohort.signature_regions().iter().copied().collect();
        let idx = neurodeanon_connectome::EdgeIndex::new(60).unwrap();
        let mut var_in = 0.0;
        let mut n_in = 0.0;
        let mut var_out = 0.0;
        let mut n_out = 0.0;
        for (f, (i, j)) in idx.iter().enumerate() {
            let row = g.as_matrix().row(f);
            let mean: f64 = row.iter().sum::<f64>() / row.len() as f64;
            let var: f64 =
                row.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / row.len() as f64;
            if sig.contains(&i) && sig.contains(&j) {
                var_in += var;
                n_in += 1.0;
            } else if !sig.contains(&i) && !sig.contains(&j) {
                var_out += var;
                n_out += 1.0;
            }
        }
        let ratio = (var_in / n_in) / (var_out / n_out);
        assert!(ratio > 2.0, "variance ratio {ratio}");
    }

    #[test]
    fn group_matrix_layout() {
        let cohort = small();
        let g = cohort.group_matrix(Task::Language, Session::One).unwrap();
        assert_eq!(g.n_features(), 60 * 59 / 2);
        assert_eq!(g.n_subjects(), 8);
        assert!(g.subject_ids()[0].contains("LANGUAGE"));
        assert!(g.subject_ids()[0].contains("LR"));
        // Columns match individually computed connectomes.
        let c3 = cohort.connectome(3, Task::Language, Session::One).unwrap();
        assert_eq!(g.subject_features(3), c3.vectorize());
    }

    #[test]
    fn performance_metrics_available_and_bounded() {
        let cohort = small();
        for task in [
            Task::Language,
            Task::Emotion,
            Task::Relational,
            Task::WorkingMemory,
        ] {
            let y = cohort.performance_vector(task).unwrap();
            assert_eq!(y.len(), 8);
            assert!(y.iter().all(|&v| (0.0..=100.0).contains(&v)));
            // Not constant across subjects.
            let spread = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - y.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(spread > 0.5, "{task}: spread {spread}");
        }
        assert!(cohort.performance(0, Task::Motor).is_err());
        assert!(cohort.performance(100, Task::Language).is_err());
    }

    #[test]
    fn performance_is_deterministic() {
        let a = small().performance(2, Task::Language).unwrap();
        let b = small().performance(2, Task::Language).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scrub_threshold_default_is_bit_identical_legacy() {
        let cohort = small();
        let with = cohort.with_scrub_threshold(Some(4.0)).unwrap();
        let none = with.with_scrub_threshold(None).unwrap();
        let a = cohort.region_ts(1, Task::Rest, Session::One).unwrap();
        let b = none.region_ts(1, Task::Rest, Session::One).unwrap();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Raw synthesis ignores scrubbing entirely.
        let raw = with.region_ts_raw(1, Task::Rest, Session::One).unwrap();
        assert_eq!(raw.as_slice(), a.as_slice());
        assert!(cohort.with_scrub_threshold(Some(0.5)).is_err());
        assert!(cohort.with_scrub_threshold(Some(f64::NAN)).is_err());
    }

    #[test]
    fn different_seeds_give_different_cohorts() {
        let a = HcpCohort::generate(HcpCohortConfig::small(4, 1)).unwrap();
        let b = HcpCohort::generate(HcpCohortConfig::small(4, 2)).unwrap();
        let ta = a.region_ts(0, Task::Rest, Session::One).unwrap();
        let tb = b.region_ts(0, Task::Rest, Session::One).unwrap();
        assert_ne!(ta, tb);
    }
}
