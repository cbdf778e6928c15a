//! Deterministic fault injection for robustness experiments.
//!
//! Real serving ingests connectomes from third-party pipelines with
//! censored frames, dropped regions, NaN voxels, truncated sessions, and
//! missing subjects. This module injects those faults *on purpose*,
//! severity-parameterized and seeded, so the degradation of the attack can
//! be measured as a curve rather than discovered as an outage.
//!
//! Two injection surfaces:
//!
//! * [`corrupt_ts`] — scanner-level faults on a region × time series
//!   (region dropout, NaN voxels, frame censoring, truncation, spikes).
//! * [`corrupt_group`] — pipeline-level faults on a finished features ×
//!   subjects [`GroupMatrix`] (feature dropout via region removal, NaN
//!   cells, whole-missing-subject columns).
//!
//! [`corrupted_hcp_group`] composes the first surface with connectome
//! construction (inject → optionally scrub → correlate), which is how the
//! robustness sweep produces its per-kind degradation curves.
//!
//! Severity is a dial in `[0, 1]`: `0.0` is bit-identical to the clean
//! input, `1.0` is the worst case the fault model covers (fractions below —
//! deliberately short of total destruction so the curve stays informative).

use crate::error::DatasetError;
use crate::hcp::HcpCohort;
use crate::model::Session;
use crate::task::Task;
use crate::Result;
use neurodeanon_connectome::{Connectome, EdgeIndex, GroupMatrix};
use neurodeanon_linalg::{Matrix, Rng64};

/// Fraction of regions lost at severity 1 (`NanRegions`).
const MAX_REGION_FRACTION: f64 = 0.5;
/// Fraction of cells lost at severity 1 (`NanCells`).
const MAX_CELL_FRACTION: f64 = 0.3;
/// Fraction of frames zeroed at severity 1 (`CensorFrames`).
const MAX_CENSOR_FRACTION: f64 = 0.6;
/// Fraction of the session cut at severity 1 (`TruncateSession`).
const MAX_TRUNCATE_FRACTION: f64 = 0.9;
/// Frames never truncated away: correlations need a floor of observations.
const MIN_KEPT_FRAMES: usize = 4;
/// Fraction of frames spiked at severity 1 (`Spikes`).
const MAX_SPIKE_FRACTION: f64 = 0.2;
/// Spike amplitude in units of the series' overall standard deviation.
const SPIKE_AMPLITUDE_SDS: f64 = 12.0;
/// Fraction of subjects lost at severity 1 (`DropSubjects`).
const MAX_SUBJECT_FRACTION: f64 = 0.5;

/// The fault model: every corruption kind the robustness layer injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Region dropout: whole region rows become NaN (time-series level) or
    /// every edge feature incident to a dropped region becomes NaN
    /// (group level) — an atlas/coverage failure.
    NanRegions,
    /// Scattered NaN voxels/cells — sparse reconstruction failures.
    NanCells,
    /// Censored frames: motion-flagged frames zeroed in place (the
    /// "scrubbed but not interpolated" convention some pipelines emit).
    CensorFrames,
    /// Truncated session: the scan simply stops early.
    TruncateSession,
    /// Motion spike artifacts: large additive deflections on a few frames —
    /// the fault [`scrub_spikes`](neurodeanon_preprocess::scrub::scrub_spikes)
    /// is designed to undo.
    Spikes,
    /// Whole-missing-subject columns in a group matrix (failed or withdrawn
    /// participants whose slot survives in the roster).
    DropSubjects,
}

impl CorruptionKind {
    /// Every kind, the iteration order of the robustness sweep.
    pub const ALL: [CorruptionKind; 6] = [
        CorruptionKind::NanRegions,
        CorruptionKind::NanCells,
        CorruptionKind::CensorFrames,
        CorruptionKind::TruncateSession,
        CorruptionKind::Spikes,
        CorruptionKind::DropSubjects,
    ];

    /// Stable lowercase name (JSONL records, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            CorruptionKind::NanRegions => "nan_regions",
            CorruptionKind::NanCells => "nan_cells",
            CorruptionKind::CensorFrames => "censor_frames",
            CorruptionKind::TruncateSession => "truncate_session",
            CorruptionKind::Spikes => "spikes",
            CorruptionKind::DropSubjects => "drop_subjects",
        }
    }

    /// Whether this fault happens at the scanner (time-series) level.
    /// `DropSubjects` only exists once subjects are assembled into a group.
    pub fn is_time_series_level(self) -> bool {
        !matches!(self, CorruptionKind::DropSubjects)
    }

    /// Whether this fault can be applied directly to a finished group
    /// matrix. Frame-indexed faults need the time axis, which a connectome
    /// no longer has.
    pub fn is_group_level(self) -> bool {
        matches!(
            self,
            CorruptionKind::NanRegions | CorruptionKind::NanCells | CorruptionKind::DropSubjects
        )
    }
}

impl std::fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fully specified injection: what, how hard, and from which stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionSpec {
    /// Which fault to inject.
    pub kind: CorruptionKind,
    /// Severity dial in `[0, 1]`; `0.0` leaves the input bit-identical.
    pub severity: f64,
    /// Seed of the injection stream (independent of the cohort seed, so the
    /// same cohort can be corrupted many ways).
    pub seed: u64,
}

impl CorruptionSpec {
    /// Validates the severity domain.
    pub fn validate(&self) -> Result<()> {
        if !(self.severity >= 0.0 && self.severity <= 1.0) {
            return Err(DatasetError::InvalidConfig {
                name: "severity",
                reason: "corruption severity must be in [0, 1]",
            });
        }
        Ok(())
    }
}

/// What an injection actually did — for logging next to sweep results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionReport {
    /// The injected kind.
    pub kind: CorruptionKind,
    /// The severity it was injected at.
    pub severity: f64,
    /// Units affected (regions, cells, frames, or subjects — per kind).
    pub affected: usize,
    /// Units available (denominator of `affected`).
    pub total: usize,
}

fn scaled_count(n: usize, fraction: f64, severity: f64) -> usize {
    ((n as f64) * fraction * severity).round() as usize
}

/// Injects a scanner-level fault into a region × time series, returning the
/// corrupted copy and a report. `DropSubjects` is rejected with a typed
/// error — a single scan has no subject axis.
pub fn corrupt_ts(ts: &Matrix, spec: &CorruptionSpec) -> Result<(Matrix, CorruptionReport)> {
    spec.validate()?;
    if !spec.kind.is_time_series_level() {
        return Err(DatasetError::InvalidConfig {
            name: "kind",
            reason: "subject-level corruption cannot apply to a single time series",
        });
    }
    let mut rng = Rng64::new(spec.seed);
    let (n_regions, t) = ts.shape();
    let mut out = ts.clone();
    let report = |affected, total| CorruptionReport {
        kind: spec.kind,
        severity: spec.severity,
        affected,
        total,
    };
    match spec.kind {
        CorruptionKind::NanRegions => {
            let k = scaled_count(n_regions, MAX_REGION_FRACTION, spec.severity);
            let bad = rng.sample_indices(n_regions, k);
            for &r in &bad {
                for v in out.row_mut(r) {
                    *v = f64::NAN;
                }
            }
            Ok((out, report(bad.len(), n_regions)))
        }
        CorruptionKind::NanCells => {
            let n_cells = n_regions * t;
            let k = scaled_count(n_cells, MAX_CELL_FRACTION, spec.severity);
            let bad = rng.sample_indices(n_cells, k);
            let slice = out.as_mut_slice();
            for &c in &bad {
                slice[c] = f64::NAN;
            }
            Ok((out, report(bad.len(), n_cells)))
        }
        CorruptionKind::CensorFrames => {
            let k = scaled_count(t, MAX_CENSOR_FRACTION, spec.severity);
            let bad = rng.sample_indices(t, k);
            for r in 0..n_regions {
                let row = out.row_mut(r);
                for &f in &bad {
                    row[f] = 0.0;
                }
            }
            Ok((out, report(bad.len(), t)))
        }
        CorruptionKind::TruncateSession => {
            let cut = scaled_count(t, MAX_TRUNCATE_FRACTION, spec.severity);
            let keep = t.saturating_sub(cut).max(MIN_KEPT_FRAMES.min(t));
            if keep == t {
                return Ok((out, report(0, t)));
            }
            let trunc = Matrix::from_fn(n_regions, keep, |r, c| ts[(r, c)]);
            Ok((trunc, report(t - keep, t)))
        }
        CorruptionKind::Spikes => {
            let k = scaled_count(t, MAX_SPIKE_FRACTION, spec.severity);
            let bad = rng.sample_indices(t, k);
            // Amplitude in units of the series' own spread, so the fault is
            // equally violent at any signal scale.
            let mut w = neurodeanon_linalg::stats::Welford::new();
            for &v in ts.as_slice() {
                w.push(v);
            }
            let amp = SPIKE_AMPLITUDE_SDS * w.variance().sqrt().max(1e-12);
            for &f in &bad {
                // Coherent whole-image deflection with a per-frame sign —
                // what subject motion actually looks like to an atlas.
                let sign = if rng.uniform() < 0.5 { -1.0 } else { 1.0 };
                for r in 0..n_regions {
                    out[(r, f)] += sign * amp * (1.0 + 0.1 * rng.gaussian());
                }
            }
            Ok((out, report(bad.len(), t)))
        }
        CorruptionKind::DropSubjects => unreachable!("rejected above"),
    }
}

/// Injects a pipeline-level fault into a finished group matrix, returning
/// the corrupted copy and a report. Frame-indexed kinds (`CensorFrames`,
/// `TruncateSession`, `Spikes`) are rejected with a typed error — the time
/// axis no longer exists. So is `NanRegions` on a group that is not a full
/// region-pair matrix (row count other than `n_regions·(n_regions−1)/2`):
/// its rows cannot be traced back to regions.
pub fn corrupt_group(
    group: &GroupMatrix,
    spec: &CorruptionSpec,
) -> Result<(GroupMatrix, CorruptionReport)> {
    spec.validate()?;
    if !spec.kind.is_group_level() {
        return Err(DatasetError::InvalidConfig {
            name: "kind",
            reason: "frame-indexed corruption cannot apply to a finished group matrix",
        });
    }
    let mut rng = Rng64::new(spec.seed);
    let mut out = group.clone();
    let n_subjects = out.n_subjects();
    let report = |affected, total| CorruptionReport {
        kind: spec.kind,
        severity: spec.severity,
        affected,
        total,
    };
    match spec.kind {
        CorruptionKind::NanRegions => {
            let n_regions = group.n_regions();
            let k = scaled_count(n_regions, MAX_REGION_FRACTION, spec.severity);
            let bad: std::collections::HashSet<usize> =
                rng.sample_indices(n_regions, k).into_iter().collect();
            let idx = EdgeIndex::new(n_regions)?;
            // Feature rows name region pairs only in a full region-pair
            // matrix (not, say, a feature subset or a short CSV).
            if out.n_features() != idx.n_features() {
                return Err(DatasetError::InvalidConfig {
                    name: "group",
                    reason: "nan_regions needs one feature row per region pair",
                });
            }
            let m = out.as_matrix_mut();
            for (f, (a, b)) in idx.iter().enumerate() {
                if bad.contains(&a) || bad.contains(&b) {
                    for v in m.row_mut(f) {
                        *v = f64::NAN;
                    }
                }
            }
            Ok((out, report(bad.len(), n_regions)))
        }
        CorruptionKind::NanCells => {
            let m = out.as_matrix_mut();
            let n_cells = m.rows() * m.cols();
            let k = scaled_count(n_cells, MAX_CELL_FRACTION, spec.severity);
            let bad = rng.sample_indices(n_cells, k);
            let slice = m.as_mut_slice();
            for &c in &bad {
                slice[c] = f64::NAN;
            }
            Ok((out, report(bad.len(), n_cells)))
        }
        CorruptionKind::DropSubjects => {
            let k = scaled_count(n_subjects, MAX_SUBJECT_FRACTION, spec.severity);
            let bad = rng.sample_indices(n_subjects, k);
            let m = out.as_matrix_mut();
            for r in 0..m.rows() {
                let row = m.row_mut(r);
                for &s in &bad {
                    row[s] = f64::NAN;
                }
            }
            Ok((out, report(bad.len(), n_subjects)))
        }
        _ => unreachable!("rejected above"),
    }
}

/// Builds the features × subjects group matrix for one condition with a
/// fault injected, composing injection with the real pipeline ordering:
///
/// * time-series kinds: raw scan → inject → scrub (if the cohort has
///   [`scrub_fd_threshold`](crate::HcpCohortConfig::scrub_fd_threshold)
///   set) → connectome. NaN regions propagate to NaN edge features through
///   the correlation, exactly as a real pipeline emits them.
/// * group kinds: clean group matrix → inject.
///
/// Per-subject injection streams are forked from `spec.seed`, so a given
/// `(spec, cohort)` pair is fully deterministic.
pub fn corrupted_hcp_group(
    cohort: &HcpCohort,
    task: Task,
    session: Session,
    spec: &CorruptionSpec,
) -> Result<GroupMatrix> {
    spec.validate()?;
    if spec.kind.is_group_level() && !spec.kind.is_time_series_level() {
        // DropSubjects: only expressible on the assembled group.
        let group = cohort.group_matrix(task, session)?;
        return corrupt_group(&group, spec).map(|(g, _)| g);
    }
    let mut master = Rng64::new(spec.seed);
    let n = cohort.n_subjects();
    let config = cohort.config();
    let n_features = config.n_regions * (config.n_regions - 1) / 2;
    let mut data = Matrix::zeros(n_features, n);
    let mut ids = Vec::with_capacity(n);
    for s in 0..n {
        let sub_spec = CorruptionSpec {
            seed: master.fork(s as u64).next_u64(),
            ..*spec
        };
        let raw = cohort.region_ts_raw(s, task, session)?;
        let (mut ts, _) = corrupt_ts(&raw, &sub_spec)?;
        if let Some(th) = config.scrub_fd_threshold {
            neurodeanon_preprocess::scrub::scrub_spikes(&mut ts, th)?;
        }
        let conn = Connectome::from_region_ts(&ts)?;
        data.set_col(s, &conn.vectorize())?;
        ids.push(format!(
            "{}/{}/{}",
            cohort.subject_id(s),
            task.name(),
            session.encoding()
        ));
    }
    GroupMatrix::from_matrix(data, ids, config.n_regions).map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hcp::HcpCohortConfig;

    fn ts() -> Matrix {
        Matrix::from_fn(10, 50, |r, c| ((r * 17 + c * 5) % 23) as f64 * 0.1)
    }

    fn spec(kind: CorruptionKind, severity: f64) -> CorruptionSpec {
        CorruptionSpec {
            kind,
            severity,
            seed: 7,
        }
    }

    #[test]
    fn severity_zero_is_identity() {
        let m = ts();
        for kind in CorruptionKind::ALL {
            if !kind.is_time_series_level() {
                continue;
            }
            let (out, rep) = corrupt_ts(&m, &spec(kind, 0.0)).unwrap();
            assert_eq!(out, m, "{kind}");
            assert_eq!(rep.affected, 0);
        }
    }

    #[test]
    fn injection_is_deterministic() {
        let m = ts();
        let s = spec(CorruptionKind::NanCells, 0.5);
        let (a, _) = corrupt_ts(&m, &s).unwrap();
        let (b, _) = corrupt_ts(&m, &s).unwrap();
        assert_eq!(
            a.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nan_regions_blank_whole_rows() {
        let (out, rep) = corrupt_ts(&ts(), &spec(CorruptionKind::NanRegions, 1.0)).unwrap();
        assert_eq!(rep.affected, 5); // 0.5 × 10 regions
        let nan_rows = (0..out.rows())
            .filter(|&r| out.row(r).iter().all(|x| x.is_nan()))
            .count();
        assert_eq!(nan_rows, 5);
    }

    #[test]
    fn truncate_respects_floor_and_severity() {
        let m = ts();
        let (out, rep) = corrupt_ts(&m, &spec(CorruptionKind::TruncateSession, 1.0)).unwrap();
        assert_eq!(out.cols(), 50 - rep.affected);
        assert!(out.cols() >= MIN_KEPT_FRAMES);
        let (mild, _) = corrupt_ts(&m, &spec(CorruptionKind::TruncateSession, 0.2)).unwrap();
        assert!(mild.cols() > out.cols());
    }

    #[test]
    fn spikes_change_flagged_frames_only() {
        let m = ts();
        let (out, rep) = corrupt_ts(&m, &spec(CorruptionKind::Spikes, 0.5)).unwrap();
        assert!(rep.affected > 0);
        let changed: Vec<usize> = (0..m.cols())
            .filter(|&c| (0..m.rows()).any(|r| out[(r, c)] != m[(r, c)]))
            .collect();
        assert_eq!(changed.len(), rep.affected);
    }

    #[test]
    fn kind_surface_mismatches_are_typed_errors() {
        let m = ts();
        assert!(matches!(
            corrupt_ts(&m, &spec(CorruptionKind::DropSubjects, 0.5)),
            Err(DatasetError::InvalidConfig { name: "kind", .. })
        ));
        let cohort = HcpCohort::generate(HcpCohortConfig::small(4, 3)).unwrap();
        let g = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        for kind in [
            CorruptionKind::CensorFrames,
            CorruptionKind::TruncateSession,
            CorruptionKind::Spikes,
        ] {
            assert!(matches!(
                corrupt_group(&g, &spec(kind, 0.5)),
                Err(DatasetError::InvalidConfig { name: "kind", .. })
            ));
        }
        assert!(corrupt_ts(&m, &spec(CorruptionKind::NanCells, 1.5)).is_err());
        assert!(corrupt_ts(&m, &spec(CorruptionKind::NanCells, f64::NAN)).is_err());
    }

    #[test]
    fn drop_subjects_blanks_columns() {
        let cohort = HcpCohort::generate(HcpCohortConfig::small(6, 3)).unwrap();
        let g = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let (out, rep) = corrupt_group(&g, &spec(CorruptionKind::DropSubjects, 1.0)).unwrap();
        assert_eq!(rep.affected, 3); // 0.5 × 6 subjects
        let m = out.as_matrix();
        let nan_cols = (0..m.cols())
            .filter(|&s| (0..m.rows()).all(|f| m[(f, s)].is_nan()))
            .count();
        assert_eq!(nan_cols, 3);
        assert_eq!(out.subject_ids(), g.subject_ids());
    }

    #[test]
    fn group_nan_regions_blank_incident_edges() {
        let cohort = HcpCohort::generate(HcpCohortConfig::small(4, 3)).unwrap();
        let g = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let (out, rep) = corrupt_group(&g, &spec(CorruptionKind::NanRegions, 0.4)).unwrap();
        assert!(rep.affected > 0);
        // Every feature row is either fully NaN or fully finite.
        let m = out.as_matrix();
        for f in 0..m.rows() {
            let nans = m.row(f).iter().filter(|x| x.is_nan()).count();
            assert!(nans == 0 || nans == m.cols());
        }
    }

    #[test]
    fn group_nan_regions_rejects_partial_region_pair_matrices() {
        // A short CSV that declares 40 regions but carries 3 feature rows.
        let dir = std::env::temp_dir().join("neurodeanon_corruption_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("short_group.csv");
        std::fs::write(&path, "# regions=40\na,b\n1,2\n3,4\n5,6\n").unwrap();
        let short = neurodeanon_connectome::io::read_group_csv(&path).unwrap();
        assert_eq!((short.n_regions(), short.n_features()), (40, 3));
        // A feature subset of a full 60-region group.
        let cohort = HcpCohort::generate(HcpCohortConfig::small(4, 3)).unwrap();
        let g = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let subset = g.select_features(&(0..50).collect::<Vec<_>>()).unwrap();
        for group in [&short, &subset] {
            assert!(matches!(
                corrupt_group(group, &spec(CorruptionKind::NanRegions, 0.5)),
                Err(DatasetError::InvalidConfig { name: "group", .. })
            ));
        }
    }

    #[test]
    fn corrupted_group_propagates_nan_regions_to_edges() {
        let cohort = HcpCohort::generate(HcpCohortConfig::small(4, 9)).unwrap();
        let g = corrupted_hcp_group(
            &cohort,
            Task::Rest,
            Session::One,
            &spec(CorruptionKind::NanRegions, 0.6),
        )
        .unwrap();
        let n_nan = g
            .as_matrix()
            .as_slice()
            .iter()
            .filter(|x| x.is_nan())
            .count();
        assert!(n_nan > 0, "NaN regions must surface as NaN edge features");
        // Per-subject streams differ: not every subject loses the same rows,
        // so at least one feature row is partially observed.
        let m = g.as_matrix();
        let partial = (0..m.rows()).any(|f| {
            let nans = m.row(f).iter().filter(|x| x.is_nan()).count();
            nans > 0 && nans < m.cols()
        });
        assert!(partial);
    }

    #[test]
    fn scrub_recovers_spiked_group() {
        // Inject-then-scrub must land closer to the clean group than
        // inject alone: the round trip the robustness sweep measures.
        let cohort = HcpCohort::generate(HcpCohortConfig::small(3, 11)).unwrap();
        let clean = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let s = spec(CorruptionKind::Spikes, 0.8);
        let hurt = corrupted_hcp_group(&cohort, Task::Rest, Session::One, &s).unwrap();
        let scrubbed_cohort = cohort.with_scrub_threshold(Some(3.0)).unwrap();
        let recovered =
            corrupted_hcp_group(&scrubbed_cohort, Task::Rest, Session::One, &s).unwrap();
        let dist = |a: &GroupMatrix, b: &GroupMatrix| -> f64 {
            a.as_matrix()
                .as_slice()
                .iter()
                .zip(b.as_matrix().as_slice())
                .map(|(x, y)| (x - y).abs())
                .sum::<f64>()
        };
        let d_hurt = dist(&hurt, &clean);
        let d_rec = dist(&recovered, &clean);
        assert!(d_rec < d_hurt, "scrub {d_rec} vs raw {d_hurt}");
    }
}
