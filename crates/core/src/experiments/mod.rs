//! Experiment drivers: one module per table/figure of the paper's
//! evaluation (§3.3), as indexed in DESIGN.md §3.
//!
//! Every driver takes a scale configuration (cohort size, repetition count)
//! so the same code runs at paper scale from the `repro` binary and at
//! reduced scale from tests.

pub mod ablations;
pub mod adhd;
pub mod block_perf;
pub mod cross_task;
pub mod defense_sweep;
pub mod localization;
pub mod multi_site;
pub mod openworld;
pub mod perf_table;
pub mod preprocess_ablation;
pub mod robustness;
pub mod similarity;
pub mod task_prediction;

pub use ablations::{
    ablation_atlas_granularity, ablation_embedding, ablation_feature_count, ablation_matching_rule,
    ablation_sampling_strategy,
};
pub use adhd::{adhd_experiment, AdhdExperimentResult};
pub use block_perf::{block_performance_experiment, BlockPerfResult};
pub use cross_task::{cross_task_matrix, CrossTaskResult};
pub use defense_sweep::{defense_sweep, DefenseSweepResult};
pub use localization::{signature_localization, LocalizationResult};
pub use multi_site::{multi_site_sweep, MultiSiteResult};
pub use openworld::{
    cmc_curve, openworld_sweep, roc_curve, OpenWorldResult, OpenWorldSweep, RocPoint,
};
pub use perf_table::{performance_table, PerformanceTableRow};
pub use preprocess_ablation::{preprocess_ablation, PreprocessAblationRow};
pub use robustness::{robustness_sweep, RobustnessPoint, RobustnessResult};
pub use similarity::{similarity_experiment, SimilarityResult};
pub use task_prediction::{task_prediction_experiment, TaskPredictionResult};
