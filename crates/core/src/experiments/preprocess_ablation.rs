//! E10 — Figure 4 ablation: what each preprocessing stage buys the attack.
//!
//! This is the only experiment that exercises the full voxel-level path:
//! latent region signals → synthetic scanner (artifacts injected) →
//! preprocessing pipeline → region averaging → connectomes → attack.
//!
//! The design is *targeted*: each row injects exactly one artifact class
//! and compares identification accuracy with the matching pipeline stage
//! off vs on (all other artifacts absent, all other stages off). This
//! isolates every stage's contribution; a monolithic full-vs-none
//! comparison confounds stage interactions (e.g. band-pass trades effective
//! sample count against artifact removal). A final `combined` row reports
//! the all-artifacts / full-pipeline numbers for reference.

use crate::attack::{AttackConfig, AttackPlan};
use crate::Result;
use neurodeanon_atlas::{grown_atlas, Parcellation, VoxelGrid};
use neurodeanon_connectome::{Connectome, GroupMatrix};
use neurodeanon_datasets::{HcpCohort, HcpCohortConfig, Session, Task};
use neurodeanon_fmri::scanner::{Scanner, ScannerConfig};
use neurodeanon_linalg::{Matrix, Rng64};
use neurodeanon_preprocess::{Pipeline, PipelineConfig};

/// One ablation row: an artifact class with accuracy before/after the
/// matching cleaning stage.
#[derive(Debug, Clone)]
pub struct PreprocessAblationRow {
    /// Artifact / stage pair label (e.g. `"drift<->detrend"`).
    pub variant: String,
    /// Accuracy with the cleaning stage disabled.
    pub accuracy_raw: f64,
    /// Accuracy with the cleaning stage enabled.
    pub accuracy_cleaned: f64,
}

/// Scale knobs for the ablation.
#[derive(Debug, Clone)]
pub struct PreprocessAblationConfig {
    /// Subjects in the mini-cohort.
    pub n_subjects: usize,
    /// Voxel grid edge (cube).
    pub grid_edge: usize,
    /// Atlas regions grown on the grid.
    pub n_regions: usize,
    /// Time points per scan.
    pub n_timepoints: usize,
    /// Leverage features for the attack.
    pub n_features: usize,
    /// Scanner-noise repetitions averaged into each accuracy (the cohorts
    /// are small, so single-draw accuracies are quantized to 1/n).
    pub n_repeats: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for PreprocessAblationConfig {
    fn default() -> Self {
        PreprocessAblationConfig {
            n_subjects: 10,
            grid_edge: 12,
            n_regions: 16,
            n_timepoints: 600,
            n_features: 60,
            n_repeats: 3,
            seed: 0xf164,
        }
    }
}

/// A minimal pipeline with only z-scoring (the connectome construction
/// baseline every variant shares).
fn base_pipeline() -> PipelineConfig {
    PipelineConfig {
        zscore: true,
        ..PipelineConfig::none()
    }
}

/// The targeted artifact ↔ stage pairs.
///
/// Each entry: `(label, scanner with only that artifact, pipeline with the
/// matching stage enabled for the "cleaned" arm)`.
pub fn ablation_pairs() -> Vec<(String, ScannerConfig, PipelineConfig)> {
    let quiet = ScannerConfig {
        voxel_noise: 0.25,
        anatomy_contrast: 4.0,
        ..ScannerConfig::clean()
    };
    let mut pairs = Vec::new();

    let mut drift_scan = quiet.clone();
    drift_scan.drift_amplitude = 3.0;
    let mut detrend = base_pipeline();
    detrend.detrend_degree = Some(2);
    pairs.push(("drift<->detrend".to_string(), drift_scan, detrend));

    let mut global_scan = quiet.clone();
    global_scan.global_signal = 2.0;
    let mut gsr = base_pipeline();
    gsr.gsr = true;
    pairs.push(("global-signal<->gsr".to_string(), global_scan, gsr));

    let mut resp_scan = quiet.clone();
    resp_scan.respiration = 3.0;
    let mut bandpass = base_pipeline();
    bandpass.bandpass = Some(neurodeanon_preprocess::filter::Band::hcp_resting());
    pairs.push(("respiration<->bandpass".to_string(), resp_scan, bandpass));

    let mut spike_scan = quiet.clone();
    spike_scan.n_spikes = 14;
    spike_scan.spike_magnitude = 8.0;
    let mut scrub = base_pipeline();
    scrub.scrub_threshold = Some(4.0);
    pairs.push(("spikes<->scrub".to_string(), spike_scan, scrub));

    let mut motion_scan = quiet.clone();
    motion_scan.n_motion_events = 2;
    // Near-full-voxel displacement: boundary voxels pick up wrong-region
    // signal, which region averaging does NOT wash out.
    motion_scan.motion_blend = 0.9;
    let mut realign = base_pipeline();
    realign.motion_correct = true;
    pairs.push(("motion<->realign".to_string(), motion_scan, realign));

    pairs
}

/// Builds the voxel-level group matrix for one session through a pipeline.
fn group_through_pipeline(
    cohort: &HcpCohort,
    parcellation: &Parcellation,
    scanner: &Scanner,
    pipeline: &Pipeline,
    session: Session,
    seed: u64,
) -> Result<GroupMatrix> {
    let n = cohort.n_subjects();
    let n_regions = parcellation.n_regions();
    let n_features = n_regions * (n_regions - 1) / 2;
    let mut data = Matrix::zeros(n_features, n);
    let mut ids = Vec::with_capacity(n);
    for s in 0..n {
        let latent = cohort.region_ts(s, Task::Rest, session)?;
        // Scanner noise must be identical across pipeline arms so the
        // comparison isolates the stage: seed by (subject, session).
        let mut rng = Rng64::new(seed ^ ((s as u64) << 8 | session.index()));
        let vol = scanner.acquire(&latent, parcellation, &mut rng)?;
        let (clean, _report) = pipeline.run(vol, parcellation)?;
        let c = Connectome::from_region_ts(&clean)?;
        data.set_col(s, &c.vectorize())?;
        ids.push(format!(
            "{}/REST/{}",
            cohort.subject_id(s),
            session.encoding()
        ));
    }
    GroupMatrix::from_matrix(data, ids, n_regions).map_err(Into::into)
}

fn accuracy_through(
    cohort: &HcpCohort,
    parcellation: &Parcellation,
    scanner: &Scanner,
    pipeline_cfg: PipelineConfig,
    attack: &AttackConfig,
    seed: u64,
    n_repeats: usize,
) -> Result<f64> {
    let pipeline = Pipeline::new(pipeline_cfg);
    let mut acc = 0.0;
    for rep in 0..n_repeats.max(1) {
        // Vary the scanner-noise stream per repetition; the latent cohort
        // stays fixed so repetitions measure acquisition noise only.
        let rep_seed = seed ^ (0x5151 * (rep as u64 + 1));
        let known = group_through_pipeline(
            cohort,
            parcellation,
            scanner,
            &pipeline,
            Session::One,
            rep_seed,
        )?;
        let anon = group_through_pipeline(
            cohort,
            parcellation,
            scanner,
            &pipeline,
            Session::Two,
            rep_seed,
        )?;
        acc += AttackPlan::prepare(known, attack.clone())?
            .run_against(&anon)?
            .accuracy;
    }
    Ok(acc / n_repeats.max(1) as f64)
}

/// Runs the full ablation: one row per artifact ↔ stage pair, plus a
/// `combined` row (all artifacts, full pipeline vs bare z-scoring).
pub fn preprocess_ablation(
    config: &PreprocessAblationConfig,
) -> Result<Vec<PreprocessAblationRow>> {
    let grid = VoxelGrid::new(config.grid_edge, config.grid_edge, config.grid_edge)?;
    let parcellation = grown_atlas("ablation", grid, config.n_regions, config.seed)?;
    let cohort = HcpCohort::generate(HcpCohortConfig {
        n_subjects: config.n_subjects,
        n_regions: config.n_regions,
        n_timepoints: config.n_timepoints,
        n_pop_factors: 10,
        n_task_factors: 5,
        n_sig_factors: 3,
        n_sig_regions: (config.n_regions / 3).max(2),
        noise_std: 0.6,
        session_strength: 0.1,
        signature_gain: 1.6,
        signature_instability: 0.4,
        seed: config.seed,
        scrub_fd_threshold: None,
    })?;
    let attack = AttackConfig {
        n_features: config.n_features,
        ..Default::default()
    };
    attack.validate()?;

    let mut rows = Vec::new();
    for (label, scan_cfg, stage_cfg) in ablation_pairs() {
        let scanner = Scanner::new(scan_cfg)?;
        let raw = accuracy_through(
            &cohort,
            &parcellation,
            &scanner,
            base_pipeline(),
            &attack,
            config.seed,
            config.n_repeats,
        )?;
        let cleaned = accuracy_through(
            &cohort,
            &parcellation,
            &scanner,
            stage_cfg,
            &attack,
            config.seed,
            config.n_repeats,
        )?;
        rows.push(PreprocessAblationRow {
            variant: label,
            accuracy_raw: raw,
            accuracy_cleaned: cleaned,
        });
    }

    // Combined row: every artifact on, full pipeline vs bare z-score.
    let scanner = Scanner::new(ScannerConfig {
        drift_amplitude: 3.0,
        global_signal: 2.0,
        respiration: 2.0,
        n_spikes: 8,
        spike_magnitude: 6.0,
        n_motion_events: 2,
        motion_blend: 0.9,
        ..ScannerConfig::default()
    })?;
    let raw = accuracy_through(
        &cohort,
        &parcellation,
        &scanner,
        base_pipeline(),
        &attack,
        config.seed,
        config.n_repeats,
    )?;
    let cleaned = accuracy_through(
        &cohort,
        &parcellation,
        &scanner,
        PipelineConfig::default(),
        &attack,
        config.seed,
        config.n_repeats,
    )?;
    rows.push(PreprocessAblationRow {
        variant: "combined".to_string(),
        accuracy_raw: raw,
        accuracy_cleaned: cleaned,
    });
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_stage_recovers_its_artifact() {
        let cfg = PreprocessAblationConfig {
            n_subjects: 8,
            grid_edge: 12,
            n_regions: 16,
            n_timepoints: 600,
            n_features: 60,
            ..Default::default()
        };
        let rows = preprocess_ablation(&cfg).unwrap();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            // Cleaning must never hurt much, and for the potent artifact
            // classes it must strictly help.
            assert!(
                row.accuracy_cleaned + 0.15 >= row.accuracy_raw,
                "{}: cleaned {} < raw {}",
                row.variant,
                row.accuracy_cleaned,
                row.accuracy_raw
            );
        }
        let gain = |label: &str| {
            let r = rows.iter().find(|r| r.variant.starts_with(label)).unwrap();
            r.accuracy_cleaned - r.accuracy_raw
        };
        assert!(gain("drift") > 0.15, "drift gain {}", gain("drift"));
        assert!(gain("global") > 0.15, "gsr gain {}", gain("global"));
        assert!(
            gain("respiration") > 0.05,
            "respiration gain {}",
            gain("respiration")
        );
        assert!(gain("spikes") >= 0.0, "spikes gain {}", gain("spikes"));
        assert!(gain("motion") >= 0.0, "motion gain {}", gain("motion"));
        assert!(
            gain("combined") >= 0.0,
            "combined gain {}",
            gain("combined")
        );
        // Seven rows now: five targeted pairs + combined.
    }
}
