//! The voxel stage: the shape of `examples/scanner_to_identity.rs`. Latent
//! region series come from `datasets` and are input only; each scan then
//! goes `Scanner::acquire` → `Pipeline::run` → `Connectome::from_region_ts`,
//! two sessions per subject, and the subjects done end in one attack.

use crate::metrics::Report;
use crate::stats::median;
use crate::trace::Recorder;
use crate::Budget;
use neurodeanon_atlas::{grown_atlas, region_average, Parcellation, VoxelGrid};
use neurodeanon_connectome::{Connectome, GroupMatrix};
use neurodeanon_core::attack::{AttackConfig, AttackPlan, DeanonAttack};
use neurodeanon_datasets::{HcpCohort, HcpCohortConfig, Session, Task};
use neurodeanon_fmri::scanner::{Scanner, ScannerConfig};
use neurodeanon_linalg::{Matrix, Rng64};
use neurodeanon_preprocess::motion::motion_correct;
use neurodeanon_preprocess::skullstrip::skull_strip;
use neurodeanon_preprocess::Pipeline;
use std::time::Instant;

pub const GRID: usize = 14;
pub const REGIONS: usize = 20;
pub const FRAMES: usize = 500;
pub const SUBJECTS: usize = 10;
/// Fewest subjects per run: six scans for the median.
pub const MIN_SUBJECTS: usize = 3;
/// Candidate shifts of the motion search grid (±1.5 voxels in 0.05 steps).
pub const MOTION_SHIFTS: f64 = 61.0;

struct Inputs {
    atlas: Parcellation,
    cohort: HcpCohort,
    scanner: Scanner,
    pipeline: Pipeline,
    seed: u64,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let grid = VoxelGrid::new(GRID, GRID, GRID).map_err(|e| e.to_string())?;
    let atlas = grown_atlas("perfbench", grid, REGIONS, seed).map_err(|e| e.to_string())?;
    let cohort = HcpCohort::generate(HcpCohortConfig {
        n_subjects: SUBJECTS,
        n_regions: REGIONS,
        n_timepoints: FRAMES,
        n_pop_factors: 10,
        n_task_factors: 5,
        n_sig_factors: 3,
        n_sig_regions: 6,
        noise_std: 0.4,
        session_strength: 0.1,
        signature_gain: 1.8,
        signature_instability: 0.3,
        seed,
        scrub_fd_threshold: None,
    })
    .map_err(|e| e.to_string())?;
    let scanner = Scanner::new(ScannerConfig::default()).map_err(|e| e.to_string())?;
    Ok(Inputs {
        atlas,
        cohort,
        scanner,
        pipeline: Pipeline::default(),
        seed,
    })
}

/// One scan from latent series to connectome features; `timed` receives
/// the seconds from `acquire` to `vectorize`.
fn scan(
    inp: &Inputs,
    subject: usize,
    session: Session,
    rec: &mut Recorder,
    report: &mut Report,
    timed: &mut Vec<f64>,
) -> Result<Vec<f64>, String> {
    let latent = inp
        .cohort
        .region_ts(subject, Task::Rest, session)
        .map_err(|e| e.to_string())?;
    let mut rng = Rng64::new(inp.seed ^ ((subject as u64) << 8 | session.index()));
    let t0 = Instant::now();
    let vol = rec
        .span("fmri.acquire", |_| {
            inp.scanner.acquire(&latent, &inp.atlas, &mut rng)
        })
        .map_err(|e| e.to_string())?;
    let replay_vol = rec.enabled().then(|| vol.clone());
    let (clean, _) = rec
        .span("preprocess.run", |_| inp.pipeline.run(vol, &inp.atlas))
        .map_err(|e| e.to_string())?;
    let features = rec
        .span("connectome.build_voxel", |_| {
            Connectome::from_region_ts(&clean).map(|c| c.vectorize())
        })
        .map_err(|e| e.to_string())?;
    timed.push(t0.elapsed().as_secs_f64());
    if let Some(mut v) = replay_vol {
        // Pipeline::run as its constituent public calls; the result must be
        // bitwise the boundary call's.
        let replayed: Result<Matrix, String> = rec.span("bench.replay", |rec| {
            rec.span("preprocess.motion", |_| motion_correct(&mut v))
                .map_err(|e| e.to_string())?;
            rec.span("preprocess.skullstrip", |_| skull_strip(&mut v))
                .map_err(|e| e.to_string())?;
            let mut rts = rec
                .span("atlas.region_average", |_| {
                    region_average(&inp.atlas, v.as_matrix())
                })
                .map_err(|e| e.to_string())?;
            rec.span("preprocess.temporal", |_| {
                inp.pipeline.run_temporal(&mut rts)
            })
            .map_err(|e| e.to_string())?;
            Ok(rts)
        });
        report.attempt(1);
        match replayed {
            Ok(r) if bits(r.as_slice()) == bits(clean.as_slice()) => {}
            Ok(_) => report.fail(format!(
                "replayed Pipeline::run differs (subject {subject})"
            )),
            Err(e) => report.fail(format!("replayed Pipeline::run failed: {e}")),
        }
    }
    Ok(features)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs the stage: subjects in order, both sessions each, for the budget
/// (at least [`MIN_SUBJECTS`] subjects), then a repeat of the first scan
/// that must match it bitwise and one attack over the subjects done.
/// Returns the setup seconds (atlas, latent cohort, scanner) and the
/// subjects done.
pub fn stage(
    seed: u64,
    budget: Budget,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(f64, usize), String> {
    let t_setup = Instant::now();
    let inp = inputs(seed)?;
    let setup = t_setup.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut timed = Vec::new();
    let mut cols: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    let mut subject = 0;
    while subject < SUBJECTS && (subject < MIN_SUBJECTS || !budget.spent(start, subject)) {
        for (k, session) in Session::BOTH.into_iter().enumerate() {
            report.attempt(1);
            cols[k].push(scan(&inp, subject, session, rec, report, &mut timed)?);
        }
        subject += 1;
    }
    report.set(
        "voxel_scans_per_s",
        1.0 / median(&timed).ok_or("no voxel scans")?,
    );

    // Determinism: the first scan again, untimed.
    report.attempt(1);
    let mut scratch = Vec::new();
    let mut quiet = Recorder::new(false);
    let again = scan(&inp, 0, Session::One, &mut quiet, report, &mut scratch)?;
    if bits(&again) != bits(&cols[0][0]) {
        report.fail("voxel connectome differs on a repeated scan");
    }

    // The closing attack over the subjects done.
    let group = |k: usize, session: Session| -> Result<GroupMatrix, String> {
        let n_features = REGIONS * (REGIONS - 1) / 2;
        let mut data = Matrix::zeros(n_features, subject);
        let mut ids = Vec::with_capacity(subject);
        for (s, col) in cols[k].iter().enumerate() {
            data.set_col(s, col).map_err(|e| e.to_string())?;
            ids.push(format!(
                "{}/REST/{}",
                inp.cohort.subject_id(s),
                session.encoding()
            ));
        }
        GroupMatrix::from_matrix(data, ids, REGIONS).map_err(|e| e.to_string())
    };
    let known = group(0, Session::One)?;
    let anon = group(1, Session::Two)?;
    // The one-shot attack must equal the memoized plan bitwise. Its accuracy
    // is printed, not checked: `scanner_to_identity` asserts 0.5 for its own
    // seed only, and across seeds this shape identifies 30-80% of 10
    // subjects and sometimes no better than chance among 3.
    let config = AttackConfig {
        n_features: 60,
        ..AttackConfig::default()
    };
    report.attempt(1);
    let direct = DeanonAttack::new(config.clone()).and_then(|a| a.run(&known, &anon));
    let planned = AttackPlan::prepare(known, config).and_then(|mut p| p.run_against(&anon));
    match (direct, planned) {
        (Ok(d), Ok(p)) => {
            println!(
                "  voxel attack: {subject} subjects, accuracy {:.2}",
                d.accuracy
            );
            if bits(d.similarity.as_slice()) != bits(p.similarity.as_slice())
                || d.predicted != p.predicted
            {
                report.fail("voxel attack: DeanonAttack::run differs from AttackPlan");
            }
        }
        (Err(e), _) | (_, Err(e)) => report.fail(format!("voxel attack failed: {e}")),
    }
    Ok((setup, subject))
}

/// Per-layer metrics of the traced voxel scans.
pub fn layer_metrics(rec: &Recorder, report: &mut Report) {
    let ms = |name: &str| median(&rec.durations(name)).unwrap_or(0.0) * 1e3;
    let voxels = (GRID * GRID * GRID) as f64;
    report.set("fmri.acquire_ms", ms("fmri.acquire"));
    report.set("fmri.voxel_frames", voxels * FRAMES as f64);
    report.set("preprocess.motion_ms", ms("preprocess.motion"));
    report.set("preprocess.skullstrip_ms", ms("preprocess.skullstrip"));
    report.set("preprocess.temporal_ms", ms("preprocess.temporal"));
    report.set(
        "preprocess.motion_candidates",
        MOTION_SHIFTS * voxels * FRAMES as f64,
    );
    report.set("atlas.region_average_ms", ms("atlas.region_average"));
}
