//! Property tests for the synthetic cohort generators.

use neurodeanon_datasets::{
    AdhdCohort, AdhdCohortConfig, HcpCohort, HcpCohortConfig, Session, Task,
};
use neurodeanon_linalg::par::with_thread_count;
use neurodeanon_linalg::Matrix;
use neurodeanon_testkit::gen::{u64_in, usize_in};
use neurodeanon_testkit::{forall, tk_assert, tk_assert_eq, tk_assert_ne, Config};

fn cfg() -> Config {
    Config::cases(24)
}

fn tiny_hcp(seed: u64) -> HcpCohort {
    HcpCohort::generate(HcpCohortConfig {
        n_subjects: 4,
        n_regions: 12,
        n_timepoints: 64,
        n_pop_factors: 4,
        n_task_factors: 3,
        n_sig_factors: 2,
        n_sig_regions: 4,
        noise_std: 0.3,
        session_strength: 0.1,
        signature_gain: 1.5,
        signature_instability: 0.3,
        seed,
        scrub_fd_threshold: None,
    })
    .unwrap()
}

#[test]
fn scans_are_deterministic_and_distinct() {
    forall!(cfg(), (seed in u64_in(0..200)) => {
        let cohort = tiny_hcp(seed);
        let a = cohort.region_ts(0, Task::Rest, Session::One).unwrap();
        let b = cohort.region_ts(0, Task::Rest, Session::One).unwrap();
        tk_assert_eq!(a.as_slice(), b.as_slice());
        // Different subject / task / session ⇒ different series.
        let c = cohort.region_ts(1, Task::Rest, Session::One).unwrap();
        tk_assert_ne!(a.as_slice(), c.as_slice());
        let d = cohort.region_ts(0, Task::Motor, Session::One).unwrap();
        tk_assert_ne!(a.as_slice(), d.as_slice());
        let e = cohort.region_ts(0, Task::Rest, Session::Two).unwrap();
        tk_assert_ne!(a.as_slice(), e.as_slice());
    });
}

#[test]
fn all_scans_finite() {
    forall!(cfg(), (seed in u64_in(0..100), task_idx in usize_in(0..8)) => {
        let cohort = tiny_hcp(seed);
        let task = Task::ALL[task_idx];
        let ts = cohort.region_ts(2, task, Session::Two).unwrap();
        tk_assert!(ts.is_finite());
        tk_assert_eq!(ts.shape(), (12, 64));
    });
}

#[test]
fn performance_in_percent_band() {
    forall!(cfg(), (seed in u64_in(0..100)) => {
        let cohort = tiny_hcp(seed);
        for task in [Task::Language, Task::Emotion, Task::Relational, Task::WorkingMemory] {
            let y = cohort.performance_vector(task).unwrap();
            tk_assert!(y.iter().all(|&v| (0.0..=100.0).contains(&v)));
        }
    });
}

#[test]
fn mode_scores_are_standard_normal_ish() {
    forall!(cfg(), (seed in u64_in(0..50)) => {
        let cohort = tiny_hcp(seed);
        for s in 0..4 {
            let z = cohort.subject_mode_scores(s).unwrap();
            tk_assert!(z.iter().all(|v| v.abs() < 6.0));
        }
        tk_assert!(cohort.subject_mode_scores(4).is_err());
    });
}

#[test]
fn adhd_group_bookkeeping() {
    forall!(cfg(), (controls in usize_in(1..5), cases in usize_in(1..4),
                    seed in u64_in(0..100)) => {
        let cohort = AdhdCohort::generate(AdhdCohortConfig {
            n_controls: controls,
            n_cases_per_subtype: cases,
            n_regions: 10,
            n_timepoints: 48,
            n_pop_factors: 4,
            n_subtype_factors: 2,
            n_sig_factors: 2,
            n_sig_regions: 4,
            signature_expression: 0.9,
            subtype_strength: 0.4,
            signature_instability: 0.3,
            noise_std: 0.5,
            seed,
        })
        .unwrap();
        tk_assert_eq!(cohort.n_subjects(), controls + 3 * cases);
        let mut total = 0;
        for g in [neurodeanon_datasets::AdhdGroup::Control,
                  neurodeanon_datasets::AdhdGroup::Subtype(1),
                  neurodeanon_datasets::AdhdGroup::Subtype(2),
                  neurodeanon_datasets::AdhdGroup::Subtype(3)] {
            total += cohort.subjects_in(g).len();
        }
        tk_assert_eq!(total, cohort.n_subjects());
        let ts = cohort.region_ts(0, Session::One).unwrap();
        tk_assert!(ts.is_finite());
    });
}

#[test]
fn group_matrix_ids_are_unique() {
    forall!(cfg(), (seed in u64_in(0..50)) => {
        let cohort = tiny_hcp(seed);
        let g = cohort.group_matrix(Task::Rest, Session::One).unwrap();
        let set: std::collections::HashSet<&String> = g.subject_ids().iter().collect();
        tk_assert_eq!(set.len(), g.n_subjects());
    });
}

/// Bit patterns of a features × subjects matrix whose column `c` is
/// `columns[c]`: the reference ingest, one vectorized connectome per subject
/// stacked in list order.
fn stacked_bits(columns: &[Vec<f64>]) -> Vec<u64> {
    let stacked = Matrix::from_fn(columns[0].len(), columns.len(), |r, c| columns[c][r]);
    stacked.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Cohort ingest runs on `linalg::par`, so the thread count is a scheduling
/// choice only: at 1 and 8 threads `HcpCohort::group_matrix` and
/// `AdhdCohort::group_matrix_for` (with an out-of-order subject list) equal,
/// bit for bit, the reference that stacks `connectome(s).vectorize()` per
/// subject, with ids in the same order.
#[test]
fn ingest_is_thread_count_invariant() {
    forall!(Config::cases(4), (seed in u64_in(0..200)) => {
        let hcp = tiny_hcp(seed);
        let (task, session) = (Task::Rest, Session::One);
        let hcp_columns: Vec<Vec<f64>> = (0..hcp.n_subjects())
            .map(|s| hcp.connectome(s, task, session).unwrap().vectorize())
            .collect();
        let hcp_ids: Vec<String> = (0..hcp.n_subjects())
            .map(|s| format!("{}/{}/{}", hcp.subject_id(s), task.name(), session.encoding()))
            .collect();
        let adhd = AdhdCohort::generate(AdhdCohortConfig::small(4, 2, seed)).unwrap();
        let order = [5usize, 0, 3, 7];
        let adhd_columns: Vec<Vec<f64>> = order
            .iter()
            .map(|&s| adhd.connectome(s, Session::Two).unwrap().vectorize())
            .collect();
        let adhd_ids: Vec<String> = order
            .iter()
            .map(|&s| format!("sub{s:04}/{}/{}", adhd.groups()[s].label(), Session::Two.encoding()))
            .collect();
        for threads in [1usize, 8] {
            let (h, a) = with_thread_count(threads, || {
                (
                    hcp.group_matrix(task, session).unwrap(),
                    adhd.group_matrix_for(&order, Session::Two).unwrap(),
                )
            });
            tk_assert_eq!(bits(h.as_matrix()), stacked_bits(&hcp_columns), "hcp, threads={threads}");
            tk_assert_eq!(h.subject_ids(), &hcp_ids[..], "hcp ids, threads={threads}");
            tk_assert_eq!(bits(a.as_matrix()), stacked_bits(&adhd_columns), "adhd, threads={threads}");
            tk_assert_eq!(a.subject_ids(), &adhd_ids[..], "adhd ids, threads={threads}");
        }
    });
}
