//! Observability contract tests (DESIGN.md §1.6) at the attack level:
//! tracing never changes a single output bit, and the recorded span-tree
//! shape plus deterministic counters are identical at any thread count.
//!
//! The obs registries are process-global, so every test here serializes on
//! one mutex and resets the state around its body.

use neurodeanon_core::attack::{AttackConfig, AttackOutcome, AttackPlan, MatchRule};
use neurodeanon_datasets::{HcpCohort, HcpCohortConfig, Session, Task};
use neurodeanon_linalg::par::with_thread_count;
use neurodeanon_obs as obs;
use neurodeanon_testkit::gen::u64_in;
use neurodeanon_testkit::{forall, tk_assert, tk_assert_eq, Config};
use std::sync::Mutex;

static GLOBAL: Mutex<()> = Mutex::new(());

/// Runs one small attack (prepare + two queries, so both the cold and the
/// memoized plan paths execute) and returns the outcomes.
fn attack_pair(seed: u64) -> (AttackOutcome, AttackOutcome) {
    let cohort = HcpCohort::generate(HcpCohortConfig::small(8, seed)).unwrap();
    let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
    let anon = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
    let mut plan = AttackPlan::prepare(known, AttackConfig::default()).unwrap();
    let first = plan.run_against(&anon).unwrap();
    let second = plan.run_with(&anon, 50, MatchRule::Hungarian).unwrap();
    (first, second)
}

/// Bitwise outcome equality: similarity bits, predictions, decisions,
/// truth, selection, and the accuracy bits.
fn assert_outcomes_identical(
    a: &AttackOutcome,
    b: &AttackOutcome,
    what: &str,
) -> Result<(), String> {
    tk_assert_eq!(a.predicted, b.predicted, "{what}: predictions");
    tk_assert_eq!(a.decisions, b.decisions, "{what}: decisions");
    tk_assert_eq!(a.truth, b.truth, "{what}: truth");
    tk_assert_eq!(
        a.selected_features,
        b.selected_features,
        "{what}: selected features"
    );
    tk_assert_eq!(
        a.accuracy.to_bits(),
        b.accuracy.to_bits(),
        "{what}: accuracy"
    );
    tk_assert_eq!(a.similarity.shape(), b.similarity.shape(), "{what}: shape");
    for (x, y) in a.similarity.as_slice().iter().zip(b.similarity.as_slice()) {
        tk_assert_eq!(x.to_bits(), y.to_bits(), "{what}: similarity bits");
    }
    Ok(())
}

/// §1.6 hard contract: a traced run's `AttackOutcome` is bitwise identical
/// to an untraced run of the same workload.
#[test]
fn traced_attack_is_bitwise_identical_to_untraced() {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    forall!(Config::cases(6), (seed in u64_in(0..1000)) => {
        obs::reset();
        obs::disable();
        let untraced = attack_pair(seed);
        obs::enable();
        let traced = attack_pair(seed);
        obs::disable();
        obs::reset();
        assert_outcomes_identical(&untraced.0, &traced.0, "first query")?;
        assert_outcomes_identical(&untraced.1, &traced.1, "second query")?;
    });
}

/// §1.6 determinism: the span-tree shape (paths + hit counts) and every
/// non-`rt.` counter/gauge agree between a 1-thread and an 8-thread traced
/// run — timings and `rt.*` runtime telemetry are excluded by the
/// fingerprint itself.
#[test]
fn span_fingerprint_is_thread_count_invariant() {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let fingerprint_at = |threads: usize| {
        obs::reset();
        obs::enable();
        let outcome = with_thread_count(threads, || attack_pair(0xf19));
        let fp = obs::snapshot().fingerprint();
        obs::disable();
        obs::reset();
        (outcome, fp)
    };
    let (seq, fp1) = fingerprint_at(1);
    let (par, fp8) = fingerprint_at(8);
    let check = || -> Result<(), String> {
        assert_outcomes_identical(&seq.0, &par.0, "1 vs 8 threads, first query")?;
        assert_outcomes_identical(&seq.1, &par.1, "1 vs 8 threads, second query")?;
        tk_assert_eq!(
            fp1,
            fp8,
            "span/counter fingerprint diverged across thread counts"
        );
        // Sanity: the fingerprint actually covers the pipeline stages.
        for needle in [
            "span plan.prepare",
            "span plan.run/plan.select",
            "span plan.run/plan.correlate",
            "span plan.run/plan.match",
            "counter svd.thin_calls",
            "gauge plan.gallery_bytes = 3200 max 6400",
        ] {
            tk_assert!(fp1.contains(needle), "fingerprint missing {needle}:\n{fp1}");
        }
        Ok(())
    };
    check().unwrap();
}
