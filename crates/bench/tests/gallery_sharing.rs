//! Gallery sharing (DESIGN.md §1.2, §1.7): a prepared plan's immutable
//! gallery — the known matrix and its leverage order — is shared by every
//! clone, serve worker and respawn instead of copied, and the one
//! factorization `AttackPlan::prepare` performs is the only one.
//!
//! This file is its own test binary, so no other suite factorizes or
//! allocates beside the process-wide counter and heap deltas read here; the
//! tests inside it take one lock so they also run one at a time. The heap
//! checks need the accounting allocator:
//!
//! ```text
//! cargo test -p neurodeanon-bench --features alloc-stats --test gallery_sharing
//! ```

use neurodeanon_connectome::GroupMatrix;
use neurodeanon_core::attack::{AttackConfig, AttackOutcome, AttackPlan, DeanonAttack, MatchRule};
use neurodeanon_core::serve::{MatchServer, Query, QueryError, ServeConfig};
use neurodeanon_datasets::{HcpCohort, HcpCohortConfig, ServiceFaultKind, Session, Task};
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs the calling test alone among this binary's tests.
fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; it guards no data, so carry on.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Session-one gallery and session-two probes of a cohort whose known
/// matrix (19,900 features × 20 subjects, ~3.2 MB) dwarfs a plan's per-`t`
/// selection and scratch.
fn groups(seed: u64) -> (GroupMatrix, GroupMatrix) {
    let cohort = HcpCohort::generate(HcpCohortConfig {
        n_regions: 200,
        ..HcpCohortConfig::small(20, seed)
    })
    .unwrap();
    (
        cohort.group_matrix(Task::Rest, Session::One).unwrap(),
        cohort.group_matrix(Task::Rest, Session::Two).unwrap(),
    )
}

fn four_workers() -> ServeConfig {
    ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    }
}

fn assert_bit_identical(a: &AttackOutcome, b: &AttackOutcome, what: &str) {
    assert_eq!(a.predicted, b.predicted, "{what}");
    assert_eq!(a.decisions, b.decisions, "{what}");
    assert_eq!(a.selected_features, b.selected_features, "{what}");
    assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "{what}");
    assert_eq!(a.similarity.shape(), b.similarity.shape(), "{what}");
    for (x, y) in a.similarity.as_slice().iter().zip(b.similarity.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}");
    }
}

#[test]
fn clones_share_the_known_matrix() {
    let _serial = serial();
    let (known, _) = groups(11);
    let plan = AttackPlan::prepare(known, AttackConfig::default()).unwrap();
    assert!(std::ptr::eq(plan.known(), plan.clone().known()));
}

#[test]
fn plan_and_clone_keep_their_own_selections() {
    let _serial = serial();
    let (known, anon) = groups(12);
    let plan = AttackPlan::prepare(known.clone(), AttackConfig::default()).unwrap();
    let mut plans = [plan.clone(), plan];
    // The plan runs t = 30, 100, 5 while its clone runs 100, 30 in between:
    // a selection cache shared through the gallery would hand one of them
    // the other's features.
    for (which, t) in [(1, 30usize), (0, 100), (1, 100), (0, 30), (1, 5)] {
        let direct = DeanonAttack::new(AttackConfig {
            n_features: t,
            ..AttackConfig::default()
        })
        .unwrap()
        .run(&known, &anon)
        .unwrap();
        let planned = plans[which].run_with(&anon, t, MatchRule::Argmax).unwrap();
        assert_bit_identical(&direct, &planned, &format!("plan {which}, t = {t}"));
    }
}

#[test]
fn one_factorization_serves_sweep_clones_workers_and_respawns() {
    let _serial = serial();
    let (known, anon) = groups(13);
    let svd = neurodeanon_obs::counter("svd.thin_calls");
    // A one-shot attack prepares, runs and drops a plan: one factorization
    // per call, whatever the feature count.
    for t in [10usize, 100] {
        let before = svd.get();
        DeanonAttack::new(AttackConfig {
            n_features: t,
            ..AttackConfig::default()
        })
        .unwrap()
        .run(&known, &anon)
        .unwrap();
        assert_eq!(svd.get() - before, 1, "DeanonAttack::run at t = {t}");
    }
    let svd0 = svd.get();
    let mut plan = AttackPlan::prepare(known, AttackConfig::default()).unwrap();
    for t in [10usize, 50, 100, 200] {
        plan.run_with(&anon, t, MatchRule::Argmax).unwrap();
    }
    let mut clone = plan.clone();
    clone.run_with(&anon, 30, MatchRule::Argmax).unwrap();
    let server = MatchServer::start(plan, four_workers()).unwrap();
    let mut poison = Query::new(0, "poison", anon.subject_features(0));
    poison.injected = Some(ServiceFaultKind::WorkerPanic);
    let reply = server.submit(poison).unwrap().recv().unwrap();
    assert!(
        matches!(reply, Err(QueryError::WorkerPanicked)),
        "{reply:?}"
    );
    let clean = Query::new(1, "clean", anon.subject_features(1));
    assert!(server.submit(clean).unwrap().recv().unwrap().is_ok());
    let report = server.shutdown();
    assert!(report.respawns >= 1 && report.clean_drain(), "{report:?}");
    assert_eq!(svd.get() - svd0, 1);
}

/// Heap guards: a clone or a worker costs the per-`t` selection and
/// scratch, never another copy of the known matrix.
#[cfg(feature = "alloc-stats")]
mod heap {
    use super::*;
    use neurodeanon_obs::alloc::stats;

    fn quarter_of_known(plan: &AttackPlan) -> u64 {
        std::mem::size_of_val(plan.known().as_matrix().as_slice()) as u64 / 4
    }

    #[test]
    fn plan_clone_grows_the_heap_by_under_a_quarter_of_the_known_matrix() {
        let _serial = serial();
        let (known, anon) = groups(14);
        let mut plan = AttackPlan::prepare(known, AttackConfig::default()).unwrap();
        // Warm the selection and scratch so the clone has them to copy.
        plan.run_against(&anon).unwrap();
        let before = stats().bytes_live;
        let clone = plan.clone();
        let grown = stats().bytes_live.saturating_sub(before);
        drop(clone);
        let limit = quarter_of_known(&plan);
        assert!(
            grown < limit,
            "clone grew the heap by {grown} B (limit {limit} B)"
        );
    }

    #[test]
    fn four_worker_start_grows_the_heap_by_under_a_quarter_of_the_known_matrix() {
        let _serial = serial();
        let (known, _) = groups(15);
        let plan = AttackPlan::prepare(known, AttackConfig::default()).unwrap();
        let limit = quarter_of_known(&plan);
        let before = stats().bytes_live;
        let server = MatchServer::start(plan, four_workers()).unwrap();
        let grown = stats().bytes_live.saturating_sub(before);
        assert!(server.shutdown().clean_drain());
        assert!(
            grown < limit,
            "start grew the heap by {grown} B (limit {limit} B)"
        );
    }
}
