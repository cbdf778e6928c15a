//! One bench target per paper table/figure (DESIGN.md §3): each case runs
//! the corresponding experiment driver end to end at a reduced scale, so
//! the harness both times the attack pipeline and regenerates the
//! artifact's numbers on every bench run. The `repro` binary produces the
//! same numbers at paper scale. Timed by the in-repo
//! `neurodeanon_bench::timing` harness.

use neurodeanon_bench::fail;
use neurodeanon_bench::timing::Bench;
use neurodeanon_core::attack::AttackConfig;
use neurodeanon_core::experiments::preprocess_ablation::PreprocessAblationConfig;
use neurodeanon_core::experiments::{
    adhd_experiment, cross_task_matrix, multi_site_sweep, performance_table, preprocess_ablation,
    similarity_experiment, task_prediction_experiment,
};
use neurodeanon_core::performance::PerfConfig;
use neurodeanon_core::task_id::TaskIdConfig;
use neurodeanon_datasets::{
    AdhdCohort, AdhdCohortConfig, AdhdGroup, HcpCohort, HcpCohortConfig, Task,
};
use neurodeanon_embedding::tsne::TsneConfig;

fn hcp() -> HcpCohort {
    HcpCohort::generate(HcpCohortConfig::small(12, 0xbe))
        .unwrap_or_else(|e| fail(&format!("valid config: {e}")))
}

fn adhd() -> AdhdCohort {
    AdhdCohort::generate(AdhdCohortConfig::small(8, 4, 0xbe))
        .unwrap_or_else(|e| fail(&format!("valid config: {e}")))
}

fn main() {
    let cohort = hcp();

    let b = Bench::new("fig1_rest_similarity").iters(10);
    b.run("rest_session1_vs_session2", || {
        let res = similarity_experiment(&cohort, Task::Rest, AttackConfig::default())
            .unwrap_or_else(|e| fail(&format!("{e} at figures.rs:{}", line!())));
        assert!(res.mean_diagonal > res.mean_offdiagonal);
        res
    });

    let b = Bench::new("fig2_language_similarity").iters(10);
    b.run("language_session1_vs_session2", || {
        similarity_experiment(&cohort, Task::Language, AttackConfig::default())
            .unwrap_or_else(|e| fail(&format!("{e} at figures.rs:{}", line!())))
    });

    let b = Bench::new("fig5_cross_task_matrix").iters(10);
    b.run("8x8_sweep", || {
        cross_task_matrix(&cohort, AttackConfig::default())
            .unwrap_or_else(|e| fail(&format!("{e} at figures.rs:{}", line!())))
    });

    let b = Bench::new("fig6_task_prediction").iters(10);
    let cfg = TaskIdConfig {
        tsne: TsneConfig {
            perplexity: 12.0,
            n_iter: 250,
            ..TsneConfig::default()
        },
        ..TaskIdConfig::default()
    };
    b.run("tsne_plus_1nn", || {
        task_prediction_experiment(&cohort, &cfg, 1)
            .unwrap_or_else(|e| fail(&format!("{e} at figures.rs:{}", line!())))
    });

    let b = Bench::new("table1_performance").iters(10);
    let cfg = PerfConfig {
        n_repeats: 2,
        ..Default::default()
    };
    b.run("four_tasks_two_splits", || {
        performance_table(&cohort, &cfg)
            .unwrap_or_else(|e| fail(&format!("{e} at figures.rs:{}", line!())))
    });

    let adhd_cohort = adhd();
    let b = Bench::new("fig789_adhd").iters(10);
    let subtype1 = adhd_cohort.subjects_in(AdhdGroup::Subtype(1));
    b.run("subtype1_similarity", || {
        adhd_experiment(&adhd_cohort, &subtype1, "subtype1", AttackConfig::default())
            .unwrap_or_else(|e| fail(&format!("{e} at figures.rs:{}", line!())))
    });
    let all: Vec<usize> = (0..adhd_cohort.n_subjects()).collect();
    b.run("mixed_cases_controls", || {
        adhd_experiment(&adhd_cohort, &all, "mixed", AttackConfig::default())
            .unwrap_or_else(|e| fail(&format!("{e} at figures.rs:{}", line!())))
    });

    let b = Bench::new("table2_multisite").iters(10);
    b.run("noise_sweep_10_30pct", || {
        multi_site_sweep(
            &cohort,
            &adhd_cohort,
            &[0.1, 0.3],
            1,
            AttackConfig::default(),
            1,
        )
        .unwrap_or_else(|e| fail(&format!("{e} at figures.rs:{}", line!())))
    });

    let b = Bench::new("fig4_preprocess_ablation").iters(10);
    let cfg = PreprocessAblationConfig {
        n_subjects: 6,
        grid_edge: 10,
        n_regions: 12,
        n_timepoints: 300,
        n_features: 40,
        ..Default::default()
    };
    b.run("artifact_stage_pairs", || {
        preprocess_ablation(&cfg)
            .unwrap_or_else(|e| fail(&format!("{e} at figures.rs:{}", line!())))
    });
}
