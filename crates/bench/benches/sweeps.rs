//! Sweep-shaped attack benchmarks: the memoized `AttackPlan` against the
//! direct per-call path, on the two sweep shapes the paper's evaluation is
//! built from — the Figure 4 retained-feature-count sweep and the Figure 5
//! 8 × 8 cross-task grid.
//!
//! Both paths must produce **bit-identical** outcomes (asserted here, not
//! just in the unit suites), and the plan path must perform exactly one
//! thin SVD per known matrix (asserted via the `svd.thin_calls` obs counter).
//! Timings land in the bench JSON trajectory (`NEURODEANON_BENCH_JSON`,
//! default `bench_results.jsonl`), including the measured speedup, and the
//! trajectory is re-parsed with `testkit::json` before exit.
//!
//! Scale comes from `NEURODEANON_BENCH_SCALE` (`small` default; `paper`
//! runs the 64,620 × 100 HCP shape of §3.1.2).

use neurodeanon_bench::fail;
use neurodeanon_bench::scale::Scale;
use neurodeanon_bench::timing::{self, Bench, Sample};
use neurodeanon_core::attack::{AttackConfig, AttackOutcome, AttackPlan, DeanonAttack, MatchRule};
use neurodeanon_datasets::{Session, Task};
use neurodeanon_testkit::json;
use std::path::{Path, PathBuf};

/// Thin SVDs this process has performed (the `svd.thin_calls` obs counter).
fn thin_svd_calls() -> u64 {
    neurodeanon_obs::counter("svd.thin_calls").get()
}

/// Path of the bench JSON trajectory file (`NEURODEANON_BENCH_JSON`
/// overrides the default `bench_results.jsonl` in the working directory).
fn bench_json_path() -> PathBuf {
    std::env::var("NEURODEANON_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("bench_results.jsonl"))
}

/// Appends one sweep sample to the bench JSON trajectory; plan-path samples
/// carry the measured direct/plan speedup.
fn record(path: &Path, s: &Sample, scale: &str, speedup: Option<f64>) {
    let rec = match speedup {
        Some(x) => json!({
            "group": "attack_plan_sweeps",
            "label": s.label.as_str(),
            "scale": scale,
            "min_ns": s.min.as_nanos() as f64,
            "median_ns": s.median.as_nanos() as f64,
            "mean_ns": s.mean.as_nanos() as f64,
            "speedup": x,
        }),
        None => json!({
            "group": "attack_plan_sweeps",
            "label": s.label.as_str(),
            "scale": scale,
            "min_ns": s.min.as_nanos() as f64,
            "median_ns": s.median.as_nanos() as f64,
            "mean_ns": s.mean.as_nanos() as f64,
        }),
    };
    if let Err(e) = timing::append_jsonl(path, &rec) {
        eprintln!("bench json append failed for {}: {e}", path.display());
    }
}

/// Every observable field of the outcome must agree to the bit.
fn assert_bit_identical(direct: &AttackOutcome, planned: &AttackOutcome, what: &str) {
    assert_eq!(direct.predicted, planned.predicted, "{what}: predictions");
    assert_eq!(direct.truth, planned.truth, "{what}: truth");
    assert_eq!(
        direct.selected_features, planned.selected_features,
        "{what}: features"
    );
    assert_eq!(
        direct.accuracy.to_bits(),
        planned.accuracy.to_bits(),
        "{what}: accuracy"
    );
    assert_eq!(direct.similarity.shape(), planned.similarity.shape());
    for (x, y) in direct
        .similarity
        .as_slice()
        .iter()
        .zip(planned.similarity.as_slice())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: similarity");
    }
}

fn main() {
    // Same contract as the kernels bench: `--trace` only adds reporting.
    let traced = std::env::args().skip(1).any(|a| a == "--trace");
    if traced {
        neurodeanon_obs::enable();
    }
    let scale = match std::env::var("NEURODEANON_BENCH_SCALE") {
        Ok(v) => Scale::parse(&v).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        Err(_) => Scale::Small,
    };
    let scale_name = match scale {
        Scale::Small => "small",
        Scale::Paper => "paper",
    };
    let json_path = bench_json_path();
    let cohort = scale.hcp(0x5eed);
    let b = Bench::new("attack_sweeps").iters(1).warmup(0);

    // ---- Figure 4 shape: one known matrix, eight retained-feature counts.
    let known = cohort
        .group_matrix(Task::Rest, Session::One)
        .unwrap_or_else(|e| fail(&format!("{e} at sweeps.rs:{}", line!())));
    let anon = cohort
        .group_matrix(Task::Rest, Session::Two)
        .unwrap_or_else(|e| fail(&format!("{e} at sweeps.rs:{}", line!())));
    let t_values: Vec<usize> = [10usize, 25, 50, 75, 100, 150, 200, 300]
        .iter()
        .map(|&t| t.min(known.n_features()))
        .collect();

    let mut direct_runs: Vec<AttackOutcome> = Vec::new();
    let svd0 = thin_svd_calls();
    let s_direct = b.run(&format!("feature_sweep_direct_{scale_name}"), || {
        direct_runs.clear();
        for &t in &t_values {
            let attack = DeanonAttack::new(AttackConfig {
                n_features: t,
                ..Default::default()
            })
            .unwrap_or_else(|e| fail(&format!("{e} at sweeps.rs:{}", line!())));
            direct_runs.push(
                attack
                    .run(&known, &anon)
                    .unwrap_or_else(|e| fail(&format!("{e} at sweeps.rs:{}", line!()))),
            );
        }
    });
    assert_eq!(
        (thin_svd_calls() - svd0) as usize,
        t_values.len(),
        "direct sweep factors once per feature count"
    );

    let mut plan_runs: Vec<AttackOutcome> = Vec::new();
    let svd0 = thin_svd_calls();
    let s_plan = b.run(&format!("feature_sweep_plan_{scale_name}"), || {
        plan_runs.clear();
        let mut plan = AttackPlan::prepare(known.clone(), AttackConfig::default())
            .unwrap_or_else(|e| fail(&format!("{e} at sweeps.rs:{}", line!())));
        for &t in &t_values {
            plan_runs.push(
                plan.run_with(&anon, t, MatchRule::Argmax)
                    .unwrap_or_else(|e| fail(&format!("{e} at sweeps.rs:{}", line!()))),
            );
        }
    });
    assert_eq!(
        thin_svd_calls() - svd0,
        1,
        "the whole plan sweep must perform exactly one thin SVD"
    );

    assert_eq!(direct_runs.len(), plan_runs.len());
    for (i, (d, p)) in direct_runs.iter().zip(&plan_runs).enumerate() {
        assert_bit_identical(d, p, &format!("feature sweep t={}", t_values[i]));
    }
    let sweep_speedup = s_direct.median.as_nanos() as f64 / s_plan.median.as_nanos().max(1) as f64;
    record(&json_path, &s_direct, scale_name, None);
    record(&json_path, &s_plan, scale_name, Some(sweep_speedup));
    println!("feature sweep: plan is {sweep_speedup:.2}x faster than direct");

    // ---- Figure 5 shape: the 8 × 8 cross-task grid. Features come from
    // the row (known) dataset, so the plan path factors 8 matrices instead
    // of the direct path's 64.
    let tasks = Task::ALL;
    let known_grid: Vec<_> = tasks
        .iter()
        .map(|&t| {
            cohort
                .group_matrix(t, Session::One)
                .unwrap_or_else(|e| fail(&format!("{e} at sweeps.rs:{}", line!())))
        })
        .collect();
    let anon_grid: Vec<_> = tasks
        .iter()
        .map(|&t| {
            cohort
                .group_matrix(t, Session::Two)
                .unwrap_or_else(|e| fail(&format!("{e} at sweeps.rs:{}", line!())))
        })
        .collect();

    let mut direct_grid: Vec<AttackOutcome> = Vec::new();
    let svd0 = thin_svd_calls();
    let s_direct = b.run(&format!("cross_task_grid_direct_{scale_name}"), || {
        direct_grid.clear();
        let attack = DeanonAttack::new(AttackConfig::default())
            .unwrap_or_else(|e| fail(&format!("{e} at sweeps.rs:{}", line!())));
        for kg in &known_grid {
            for ag in &anon_grid {
                direct_grid.push(
                    attack
                        .run(kg, ag)
                        .unwrap_or_else(|e| fail(&format!("{e} at sweeps.rs:{}", line!()))),
                );
            }
        }
    });
    assert_eq!(
        (thin_svd_calls() - svd0) as usize,
        tasks.len() * tasks.len(),
        "direct grid factors once per cell"
    );

    let mut plan_grid: Vec<AttackOutcome> = Vec::new();
    let svd0 = thin_svd_calls();
    let s_plan = b.run(&format!("cross_task_grid_plan_{scale_name}"), || {
        plan_grid.clear();
        for kg in &known_grid {
            let mut plan = AttackPlan::prepare(kg.clone(), AttackConfig::default())
                .unwrap_or_else(|e| fail(&format!("{e} at sweeps.rs:{}", line!())));
            for ag in &anon_grid {
                plan_grid.push(
                    plan.run_against(ag)
                        .unwrap_or_else(|e| fail(&format!("{e} at sweeps.rs:{}", line!()))),
                );
            }
        }
    });
    assert_eq!(
        (thin_svd_calls() - svd0) as usize,
        tasks.len(),
        "plan grid factors once per row"
    );

    assert_eq!(direct_grid.len(), plan_grid.len());
    for (i, (d, p)) in direct_grid.iter().zip(&plan_grid).enumerate() {
        assert_bit_identical(d, p, &format!("grid cell {i}"));
    }
    let grid_speedup = s_direct.median.as_nanos() as f64 / s_plan.median.as_nanos().max(1) as f64;
    record(&json_path, &s_direct, scale_name, None);
    record(&json_path, &s_plan, scale_name, Some(grid_speedup));
    println!("cross-task grid: plan is {grid_speedup:.2}x faster than direct");

    // ---- The trajectory file must stay machine-readable: every line
    // parses with the in-repo JSON parser and our records are present.
    let text = std::fs::read_to_string(&json_path)
        .unwrap_or_else(|e| fail(&format!("bench trajectory readable: {e}")));
    let mut ours = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = neurodeanon_testkit::json::parse(line)
            .unwrap_or_else(|e| fail(&format!("trajectory line parses as JSON: {e}")));
        if v.get("group").and_then(|g| g.as_str()) == Some("attack_plan_sweeps") {
            ours += 1;
        }
    }
    assert!(
        ours >= 4,
        "expected the four sweep records in the trajectory, found {ours}"
    );
    println!(
        "trajectory {} verified: {ours} attack_plan_sweeps records",
        json_path.display()
    );

    if traced {
        let snap = neurodeanon_obs::snapshot();
        eprintln!("--- trace ---");
        eprint!("{}", snap.render_tree());
        neurodeanon_bench::trace::export_jsonl(&snap, "sweeps", &json_path)
            .unwrap_or_else(|e| fail(&format!("trace export writes: {e}")));
    }
}
