//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [--scale small|paper] [--out results.jsonl] <experiment>...
//! ```
//!
//! Experiments: `fig1 fig2 fig5 fig6 table1 fig7 fig8 fig9 table2
//! fig4-ablation localization block-timing defense robustness openworld
//! ablations all`. See DESIGN.md §3 for the experiment ↔ paper-artifact
//! index.

use neurodeanon_bench::report::{pct, pm, Report};
use neurodeanon_bench::Scale;
use neurodeanon_core::attack::{AttackConfig, DegradedInput};
use neurodeanon_core::experiments::preprocess_ablation::PreprocessAblationConfig;
use neurodeanon_core::experiments::{
    ablation_atlas_granularity, ablation_embedding, ablation_feature_count, ablation_matching_rule,
    ablation_sampling_strategy, adhd_experiment, block_performance_experiment, cross_task_matrix,
    defense_sweep, multi_site_sweep, openworld_sweep, performance_table, preprocess_ablation,
    robustness_sweep, signature_localization, similarity_experiment, task_prediction_experiment,
};
use neurodeanon_core::performance::PerfConfig;
use neurodeanon_core::task_id::TaskIdConfig;
use neurodeanon_datasets::{CorruptionKind, Task};
use neurodeanon_testkit::{json, Value};
use std::path::PathBuf;

/// Prints a typed failure and exits with code 2 — an experiment or flag
/// error is a user-facing diagnostic, not a panic with a backtrace.
fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// Unwraps an experiment result, failing with the experiment's name and the
/// rendered typed error.
fn or_fail<T, E: std::fmt::Display>(what: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| fail(&format!("{what}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut out = PathBuf::from("repro_results.jsonl");
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_else(|| fail("--scale needs a value"));
                scale = Scale::parse(v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--out" => {
                out = PathBuf::from(it.next().unwrap_or_else(|| fail("--out needs a value")));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--scale small|paper] [--out FILE] \
                     fig1|fig2|fig5|fig6|table1|fig7|fig8|fig9|table2|fig4-ablation|\
                     localization|block-timing|defense|robustness|openworld|ablations|all"
                );
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |id: &str| all || wanted.iter().any(|w| w == id);

    println!("# neurodeanon repro — scale: {scale:?}");
    // Print and persist each report the moment its experiment finishes, so
    // a long paper-scale run streams results instead of buffering them.
    let mut count = 0usize;
    let mut emit = |r: Report| {
        r.print();
        if let Err(e) = r.append_json(&out) {
            eprintln!("warning: could not write {}: {e}", out.display());
        }
        count += 1;
    };

    if want("fig1") || want("fig2") {
        let cohort = scale.hcp(0x4c50);
        if want("fig1") {
            let res = or_fail(
                "fig1",
                similarity_experiment(&cohort, Task::Rest, AttackConfig::default()),
            );
            let mut r = Report::new("fig1", "pairwise similarity of resting-state connectomes");
            r.line(format!(
                "identification accuracy      {}",
                pct(res.accuracy)
            ));
            r.line(format!(
                "mean diagonal similarity     {:.3}",
                res.mean_diagonal
            ));
            r.line(format!(
                "mean off-diagonal similarity {:.3}",
                res.mean_offdiagonal
            ));
            r.line(format!(
                "diag/off-diag contrast       {:.3}",
                res.contrast()
            ));
            r.line("paper: accuracy > 94%, strong diagonal".to_string());
            r.data(json!({
                "accuracy": res.accuracy,
                "mean_diagonal": res.mean_diagonal,
                "mean_offdiagonal": res.mean_offdiagonal,
            }));
            emit(r);
        }
        if want("fig2") {
            let rest = or_fail(
                "fig2 (rest reference)",
                similarity_experiment(&cohort, Task::Rest, AttackConfig::default()),
            );
            let lang = or_fail(
                "fig2",
                similarity_experiment(&cohort, Task::Language, AttackConfig::default()),
            );
            let mut r = Report::new("fig2", "pairwise similarity of LANGUAGE task connectomes");
            r.line(format!(
                "identification accuracy      {}",
                pct(lang.accuracy)
            ));
            r.line(format!(
                "diag/off-diag contrast       {:.3}",
                lang.contrast()
            ));
            r.line(format!(
                "rest contrast (fig1 ref)     {:.3}  (task contrast must be weaker)",
                rest.contrast()
            ));
            r.data(json!({
                "accuracy": lang.accuracy,
                "contrast": lang.contrast(),
                "rest_contrast": rest.contrast(),
            }));
            emit(r);
        }
    }

    if want("fig5") {
        let cohort = scale.hcp(0x4c51);
        let res = or_fail("fig5", cross_task_matrix(&cohort, AttackConfig::default()));
        let mut r = Report::new(
            "fig5",
            "cross-task identification accuracy (rows de-anonymized, cols anonymous)",
        );
        let header = res
            .tasks
            .iter()
            .map(|t| format!("{:>10}", t.name()))
            .collect::<Vec<_>>()
            .join("");
        r.line(format!("{:>12}{header}", ""));
        for (i, t) in res.tasks.iter().enumerate() {
            let row = res.accuracy[i]
                .iter()
                .map(|a| format!("{:>10.2}", a))
                .collect::<Vec<_>>()
                .join("");
            r.line(format!("{:>12}{row}", t.name()));
        }
        r.line("paper: REST row strongest; LANGUAGE/RELATIONAL > 0.9; MOTOR/WM ineffective");
        r.data(json!({
            "tasks": res.tasks.iter().map(|t| t.name()).collect::<Vec<_>>(),
            "accuracy": res.accuracy,
        }));
        emit(r);
    }

    if want("fig6") {
        let cohort = scale.hcp(0x4c52);
        let reps = match scale {
            Scale::Small => 3,
            Scale::Paper => 10,
        };
        let res = or_fail(
            "fig6",
            task_prediction_experiment(&cohort, &TaskIdConfig::default(), reps),
        );
        let mut r = Report::new("fig6", "t-SNE task clusters + 1-NN task prediction");
        r.line(format!(
            "overall accuracy         {}",
            pm(res.overall_accuracy)
        ));
        for (t, acc) in res.tasks.iter().zip(&res.per_task_accuracy) {
            r.line(format!("{:>12}             {}", t.name(), pm(*acc)));
        }
        let conf = res
            .rest_confusions
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(t, &c)| format!("{}:{}", res.tasks[t].name(), c))
            .collect::<Vec<_>>()
            .join(", ");
        r.line(format!("rest misclassified as    [{conf}]"));
        r.line("paper: 100% on tasks, 99.01 ± 0.52% on rest; rest confused with gambling");
        r.data(json!({
            "overall": res.overall_accuracy,
            "per_task": res.per_task_accuracy,
            "rest_confusions": res.rest_confusions,
        }));
        emit(r);
    }

    if want("table1") {
        let cohort = scale.hcp(0x4c53);
        let cfg = PerfConfig {
            n_repeats: scale.repeats(),
            ..Default::default()
        };
        let rows = or_fail("table1", performance_table(&cohort, &cfg));
        let mut r = Report::new("table1", "task-performance prediction error (nRMSE %)");
        r.line(format!(
            "{:>16} {:>16} {:>16}",
            "task", "train nRMSE", "test nRMSE"
        ));
        let mut data = Vec::new();
        for row in &rows {
            r.line(format!(
                "{:>16} {:>16} {:>16}",
                row.task.name(),
                pm(row.train),
                pm(row.test)
            ));
            data.push(json!({
                "task": row.task.name(),
                "train": row.train,
                "test": row.test,
            }));
        }
        r.line("paper: Language 0.33/1.52, Emotion 0.28/0.60, Relational 0.44/2.74, WM 0.57/1.93");
        r.data(Value::Array(data));
        emit(r);
    }

    if want("fig7") || want("fig8") || want("fig9") {
        let cohort = scale.adhd(0xadbd);
        for (id, label, subjects) in [
            (
                "fig7",
                "ADHD subtype 1 intra/inter-subject similarity",
                cohort.subjects_in(neurodeanon_datasets::AdhdGroup::Subtype(1)),
            ),
            (
                "fig8",
                "ADHD subtype 3 intra/inter-subject similarity",
                cohort.subjects_in(neurodeanon_datasets::AdhdGroup::Subtype(3)),
            ),
            (
                "fig9",
                "ADHD cases + controls similarity",
                (0..cohort.n_subjects()).collect::<Vec<_>>(),
            ),
        ] {
            if !want(id) {
                continue;
            }
            let res = or_fail(
                id,
                adhd_experiment(&cohort, &subjects, label, AttackConfig::default()),
            );
            let mut r = Report::new(id, label);
            r.line(format!("subjects                 {}", subjects.len()));
            r.line(format!("identification accuracy  {}", pct(res.accuracy)));
            r.line(format!("mean diagonal            {:.3}", res.mean_diagonal));
            r.line(format!(
                "mean off-diagonal        {:.3}",
                res.mean_offdiagonal
            ));
            if id == "fig9" {
                let (mean, std) = or_fail(
                    "fig9 (train/test transfer)",
                    neurodeanon_core::experiments::adhd::adhd_train_test_transfer(
                        &cohort,
                        100,
                        0.3,
                        scale.repeats(),
                        7,
                    ),
                );
                r.line(format!(
                    "train/test transfer acc  {mean:.1} ± {std:.1}%  (paper: 97.2 ± 0.9%)"
                ));
            }
            r.data(json!({
                "subjects": subjects.len(),
                "accuracy": res.accuracy,
                "mean_diagonal": res.mean_diagonal,
                "mean_offdiagonal": res.mean_offdiagonal,
            }));
            emit(r);
        }
    }

    if want("table2") {
        let hcp = scale.hcp(0x4c54);
        let adhd = scale.adhd(0xadbe);
        // The paper sweeps 10–30%; our synthetic connectomes need larger
        // fractions before estimation noise erodes matching, so the sweep
        // extends to 400% — the paper's accuracy band (≈91% → 79%) appears
        // in the extended range (see EXPERIMENTS.md).
        let res = or_fail(
            "table2",
            multi_site_sweep(
                &hcp,
                &adhd,
                &[0.10, 0.20, 0.30, 1.0, 2.0, 4.0],
                scale.repeats().min(5),
                AttackConfig::default(),
                11,
            ),
        );
        let mut r = Report::new("table2", "multi-site noise sweep (accuracy %)");
        r.line(format!(
            "{:>12} {:>16} {:>16}",
            "noise var", "HCP", "ADHD-200"
        ));
        for (i, f) in res.noise_fractions.iter().enumerate() {
            r.line(format!(
                "{:>11.0}% {:>16} {:>16}",
                f * 100.0,
                pm(res.hcp[i]),
                pm(res.adhd[i])
            ));
        }
        r.line("paper: 10% → 91.14/96.33, 20% → 86.71/89.17, 30% → 79.05/84.10");
        r.data(json!({
            "noise_fractions": res.noise_fractions,
            "hcp": res.hcp,
            "adhd": res.adhd,
        }));
        emit(r);
    }

    if want("fig4-ablation") {
        let cfg = match scale {
            Scale::Small => PreprocessAblationConfig {
                n_subjects: 8,
                grid_edge: 12,
                n_regions: 16,
                n_timepoints: 600,
                n_features: 60,
                ..Default::default()
            },
            Scale::Paper => PreprocessAblationConfig::default(),
        };
        let rows = or_fail("fig4-ablation", preprocess_ablation(&cfg));
        let mut r = Report::new(
            "fig4-ablation",
            "preprocessing-stage ablation (voxel-level path)",
        );
        r.line(format!(
            "{:>26} {:>10} {:>10}",
            "artifact<->stage", "raw", "cleaned"
        ));
        let mut data = Vec::new();
        for row in &rows {
            r.line(format!(
                "{:>26} {:>10} {:>10}",
                row.variant,
                pct(row.accuracy_raw),
                pct(row.accuracy_cleaned)
            ));
            data.push(json!({
                "variant": row.variant.as_str(),
                "raw": row.accuracy_raw,
                "cleaned": row.accuracy_cleaned,
            }));
        }
        r.data(Value::Array(data));
        emit(r);
    }

    if want("block-timing") {
        let cohort = scale.hcp(0x4c57);
        let cfg = PerfConfig {
            n_repeats: scale.repeats().min(10),
            ..Default::default()
        };
        let res = or_fail(
            "block-timing",
            block_performance_experiment(&cohort, Task::Language, &cfg),
        );
        let mut r = Report::new(
            "block-timing",
            "§3.3.3 extension: block-timing-aware per-subtype performance prediction",
        );
        for u in 0..2 {
            r.line(format!(
                "subtype {u}: timing-aware {}  vs  timing-blind {}",
                pm(res.timing_aware[u]),
                pm(res.timing_blind[u])
            ));
        }
        r.line("paper (§3.3.3): \"the use of this additional data further improves prediction\"");
        r.data(json!({
            "timing_aware": res.timing_aware.as_slice(),
            "timing_blind": res.timing_blind.as_slice(),
        }));
        emit(r);
    }

    if want("defense") {
        let cohort = scale.hcp(0x4c58);
        let res = or_fail(
            "defense",
            defense_sweep(&cohort, 100, &[0.2, 0.4, 0.6, 1.0], 9),
        );
        let mut r = Report::new(
            "defense",
            "§4 defense sweep: targeted vs untargeted noise on signature edges",
        );
        r.line(format!(
            "baseline accuracy {}   untouched features {:.2}%",
            pct(res.baseline_accuracy),
            res.untouched_fraction * 100.0
        ));
        r.line(format!(
            "{:>8} {:>12} {:>12}",
            "sigma", "targeted", "untargeted"
        ));
        let mut data = Vec::new();
        for p in &res.points {
            r.line(format!(
                "{:>8.2} {:>12} {:>12}",
                p.sigma,
                pct(p.targeted_accuracy),
                pct(p.untargeted_accuracy)
            ));
            data.push(json!({
                "sigma": p.sigma,
                "targeted": p.targeted_accuracy,
                "untargeted": p.untargeted_accuracy,
            }));
        }
        r.data(json!({
            "baseline": res.baseline_accuracy,
            "untouched_fraction": res.untouched_fraction,
            "points": data,
        }));
        emit(r);
    }

    if want("localization") {
        let cohort = scale.hcp(0x4c56);
        let res = or_fail("localization", signature_localization(&cohort, 100));
        let mut r = Report::new(
            "localization",
            "signature localization (the paper's parieto-frontal restriction, §2/§4)",
        );
        r.line(format!(
            "features restricted to signature pairs:   {}",
            pct(res.signature_only)
        ));
        r.line(format!(
            "features restricted to non-signature:     {}",
            pct(res.outside_only)
        ));
        r.line(format!(
            "unrestricted attack:                      {}",
            pct(res.unrestricted)
        ));
        r.line(format!(
            "signature-pair pool size:                 {}",
            res.n_signature_features
        ));
        r.data(json!({
            "signature_only": res.signature_only,
            "outside_only": res.outside_only,
            "unrestricted": res.unrestricted,
            "n_signature_features": res.n_signature_features,
        }));
        emit(r);
    }

    if want("robustness") {
        let cohort = scale.hcp(0x0b5e55ed);
        let severities: &[f64] = match scale {
            Scale::Small => &[0.0, 0.25, 0.5, 1.0],
            Scale::Paper => &[0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
        };
        let mut r = Report::new(
            "robustness",
            "degraded-data robustness: accuracy vs corruption severity",
        );
        let header: String = severities.iter().map(|s| format!("{s:>9.2}")).collect();
        let cell = |a: Option<f64>| format!("{:>9}", a.map(pct).unwrap_or_else(|| "error".into()));
        let mut policies = Vec::new();
        for policy in [DegradedInput::Mask, DegradedInput::Impute] {
            let res = or_fail(
                "robustness",
                robustness_sweep(&cohort, severities, policy, 0xDE6),
            );
            r.line(format!(
                "policy {policy}: clean baseline {}",
                pct(res.baseline_accuracy)
            ));
            r.line(format!("{:>16}{header}", "severity"));
            for &kind in CorruptionKind::ALL.iter() {
                let curve = res.points.iter().filter(|p| p.kind == kind);
                let row: String = curve.clone().map(|p| cell(p.accuracy)).collect();
                r.line(format!("{:>16}{row}", kind.name()));
                if kind == CorruptionKind::Spikes {
                    let row: String = curve.map(|p| cell(p.recovered_accuracy)).collect();
                    r.line(format!("{:>16}{row}", "spikes+scrub"));
                }
            }
            let points: Vec<Value> = res
                .points
                .iter()
                .map(|p| {
                    json!({
                        "kind": p.kind.name(),
                        "severity": p.severity,
                        "accuracy": p.accuracy.unwrap_or(f64::NAN),
                        "mean_margin": p.mean_margin.unwrap_or(f64::NAN),
                        "recovered_accuracy": p.recovered_accuracy.unwrap_or(f64::NAN),
                        "error": p.error.clone().unwrap_or_default(),
                    })
                })
                .collect();
            policies.push(json!({
                "policy": policy.name(),
                "baseline": res.baseline_accuracy,
                "points": points,
            }));
        }
        r.data(json!({ "severities": severities, "policies": policies }));
        emit(r);
    }

    if want("openworld") {
        let cohort = scale.hcp(0x09e2_11d0);
        let (rates, thresholds): (&[f64], &[f64]) = match scale {
            Scale::Small => (&[0.25, 0.5, 1.0], &[0.0, 0.02, 0.05, 0.1, 0.5]),
            Scale::Paper => (
                &[0.1, 0.25, 0.5, 0.75, 0.9, 1.0],
                &[0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 1.0],
            ),
        };
        let res = or_fail(
            "openworld",
            openworld_sweep(&cohort, rates, thresholds, 0x5eed),
        );
        let mut r = Report::new(
            "openworld",
            "open-world identification: enrollment rate x rejection margin",
        );
        r.line(format!(
            "closed-world baseline {}",
            pct(res.baseline_accuracy)
        ));
        r.line(format!(
            "{:>6} {:>8} {:>10} {:>8} {:>8}",
            "rate", "gallery", "impostors", "rank-1", "rank-5"
        ));
        for o in &res.results {
            r.line(format!(
                "{:>6.2} {:>8} {:>10} {:>8} {:>8}",
                o.enroll_rate,
                o.n_enrolled,
                o.n_impostors,
                pct(o.rank1_accuracy),
                // A gallery under 5 subjects reads its last rank.
                pct(o.cmc[o.cmc.len().min(5) - 1])
            ));
        }
        r.line("TPIR / FPIR per margin threshold:");
        let header: String = rates
            .iter()
            .map(|q| format!("{:>16}", format!("rate {q:.2}")))
            .collect();
        r.line(format!("{:>10}{header}", "threshold"));
        for (i, t) in thresholds.iter().enumerate() {
            let row: String = res
                .results
                .iter()
                .map(|o| {
                    format!(
                        "{:>16}",
                        format!("{:.3} / {:.3}", o.roc[i].tpir, o.roc[i].fpir)
                    )
                })
                .collect();
            r.line(format!("{t:>10.2}{row}"));
        }
        let results: Vec<Value> = res
            .results
            .iter()
            .map(|o| {
                let roc: Vec<Value> = o
                    .roc
                    .iter()
                    .map(|p| {
                        json!({
                            "threshold": p.threshold,
                            "tpir": p.tpir,
                            "fpir": p.fpir,
                            "fnir": p.fnir,
                        })
                    })
                    .collect();
                json!({
                    "enroll_rate": o.enroll_rate,
                    "n_enrolled": o.n_enrolled,
                    "n_impostors": o.n_impostors,
                    "rank1": o.rank1_accuracy,
                    "cmc": o.cmc.clone(),
                    "roc": roc,
                })
            })
            .collect();
        r.data(json!({
            "baseline": res.baseline_accuracy,
            "results": results,
        }));
        emit(r);
    }

    if want("ablations") {
        let cohort = scale.hcp(0x4c55);
        let mut r = Report::new("ablations", "design-choice ablations (DESIGN.md §4)");
        let strategies = or_fail(
            "ablations (sampling strategy)",
            ablation_sampling_strategy(&cohort, 100, 3),
        );
        r.line("feature-selection strategy (rest-rest accuracy):");
        let mut strat_data = Vec::new();
        for row in &strategies {
            r.line(format!("  {:>24} {}", row.strategy, pct(row.accuracy)));
            strat_data.push(json!({
                "strategy": row.strategy.as_str(), "accuracy": row.accuracy
            }));
        }
        let counts = match scale {
            Scale::Small => vec![5, 20, 100, 400],
            Scale::Paper => vec![10, 50, 100, 500, 2000, 10_000],
        };
        let sweep = or_fail(
            "ablations (feature count)",
            ablation_feature_count(&cohort, &counts),
        );
        r.line("retained-feature sweep:");
        for (t, acc) in &sweep {
            r.line(format!("  t = {:>6} {}", t, pct(*acc)));
        }
        let rules = or_fail("ablations (matching rule)", ablation_matching_rule(&cohort));
        r.line("matching rule:");
        for (rule, acc) in &rules {
            r.line(format!("  {:>24} {}", rule, pct(*acc)));
        }
        let grans = match scale {
            Scale::Small => vec![20, 40, 60],
            Scale::Paper => vec![60, 120, 240, 360],
        };
        let gran = or_fail(
            "ablations (atlas granularity)",
            ablation_atlas_granularity(&grans, 20, 5),
        );
        r.line("atlas granularity (20 subjects):");
        for (n, acc) in &gran {
            r.line(format!("  {:>5} regions {}", n, pct(*acc)));
        }
        let embedding = or_fail("ablations (embedding)", ablation_embedding(&cohort));
        r.line("task-clustering embedding (1-NN label transfer):");
        for (method, acc) in &embedding {
            r.line(format!("  {:>24} {}", method, pct(*acc)));
        }
        r.data(json!({
            "strategies": strat_data,
            "feature_sweep": sweep,
            "matching": rules,
            "granularity": gran,
            "embedding": embedding,
        }));
        emit(r);
    }

    println!("\n{count} experiment(s) written to {}", out.display());
}
