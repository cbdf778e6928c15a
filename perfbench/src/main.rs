//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <attack_sweep|serve_stream|voxel_pipeline>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the whole scanner→match path through the crates'
//! public APIs, so every run reports every metric; the workloads differ in
//! which stage gets the measured time (see `perfbench/DESIGN.md`):
//!
//! 1. ingest — paper-shape `HcpCohort::group_matrix` builds;
//! 2. setup — `AttackPlan::prepare` + `MatchServer::start`, three times;
//! 3. sweep — the Figure-4 `run_with(release, t)` sweep, t = 10…800;
//! 4. serve — open-loop low-rate, high-rate, rate-ladder and chaos phases;
//! 5. voxel — `Scanner::acquire` → `Pipeline::run` → connectome, then one
//!    attack.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics.
//! With `--trace 1` the run measures the host ceilings, runs the workload
//! once untraced and once traced with the same amount of work, replays each
//! boundary call as its constituent public calls (bitwise checked), writes
//! the spans to `.bench_build/perfbench-trace/`, and reports the per-layer
//! metrics.

mod host;
mod metrics;
mod serve;
mod stats;
mod trace;
mod voxel;

use metrics::{Report, END_TO_END, PER_LAYER};
use neurodeanon_connectome::{Connectome, GroupMatrix};
use neurodeanon_core::attack::{AttackConfig, AttackPlan, DeanonAttack, MatchRule};
use neurodeanon_core::matching::argmax_matching;
use neurodeanon_core::serve::MatchServer;
use neurodeanon_datasets::{HcpCohort, HcpCohortConfig, Session, Task};
use neurodeanon_linalg::stats::{
    cross_correlation_batched_into, cross_correlation_fused_into, zscored_cols_into,
};
use neurodeanon_linalg::Matrix;
use neurodeanon_sampling::LeverageBank;
use stats::{median, percentile};
use std::time::Instant;
use trace::Recorder;

/// Feature counts of the Figure-4 sweep.
const T_GRID: &[usize] = &[10, 20, 50, 100, 200, 400, 800];
/// The paper's default feature count (the serve gallery's `t`).
const T_DEFAULT: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Workload {
    AttackSweep,
    ServeStream,
    VoxelPipeline,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "attack_sweep" => Some(Workload::AttackSweep),
            "serve_stream" => Some(Workload::ServeStream),
            "voxel_pipeline" => Some(Workload::VoxelPipeline),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::AttackSweep => "attack_sweep",
            Workload::ServeStream => "serve_stream",
            Workload::VoxelPipeline => "voxel_pipeline",
        }
    }

    /// Releases ingested: the REST session-1 gallery, then session-2
    /// releases (the first of them is the serve stage's probe set).
    fn releases(self) -> &'static [(Task, Session)] {
        match self {
            Workload::AttackSweep => &[
                (Task::Rest, Session::One),
                (Task::Rest, Session::Two),
                (Task::Gambling, Session::Two),
                (Task::Language, Session::Two),
            ],
            _ => &[
                (Task::Rest, Session::One),
                (Task::Rest, Session::Two),
                (Task::Gambling, Session::Two),
            ],
        }
    }

    /// Shares of `--seconds` for the sweep, serve and voxel stages; a voxel
    /// share of 0 runs the voxel stage's minimum of subjects. The serve
    /// share sets the low-rate, high-rate and chaos phases; the rate ladder
    /// behind `serve_max_qps` is the same in every workload.
    fn shares(self) -> (f64, f64, f64) {
        match self {
            Workload::AttackSweep => (0.6, 0.15, 0.0),
            Workload::ServeStream => (0.15, 1.0, 0.0),
            Workload::VoxelPipeline => (0.15, 0.15, 1.0),
        }
    }
}

/// How much work a time-boxed stage does: a time budget (untraced runs) or
/// the count an untraced pass reached (the traced pass repeats it).
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Seconds(f64),
    Count(usize),
}

impl Budget {
    /// Whether a stage that started at `start` and has done `done` units is
    /// finished.
    pub fn spent(self, start: Instant, done: usize) -> bool {
        match self {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Budget::Count(n) => done >= n,
        }
    }
}

fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Work counts of a pass, so a traced pass can repeat an untraced one.
#[derive(Clone, Copy, Default)]
struct Counts {
    sweep_passes: usize,
    voxel_subjects: usize,
}

/// What one pass over the workload measured, and what the traced
/// pass's per-layer metrics still need.
struct Pass {
    wall: f64,
    counts: Counts,
    serve: serve::Phases,
    probes: serve::Probes,
    plan: AttackPlan,
}

/// Traced-pass state: the bank and the known side the replays rebuild.
struct Replay {
    bank: Option<LeverageBank>,
    last_t: Option<usize>,
    indices: Vec<usize>,
    known_red: Matrix,
    known_z: Matrix,
    anon_red: Matrix,
    anon_z: Matrix,
    unattributed_ms: Vec<f64>,
}

impl Replay {
    fn new() -> Self {
        Replay {
            bank: None,
            last_t: None,
            indices: Vec::new(),
            known_red: Matrix::zeros(0, 0),
            known_z: Matrix::zeros(0, 0),
            anon_red: Matrix::zeros(0, 0),
            anon_z: Matrix::zeros(0, 0),
            unattributed_ms: Vec::new(),
        }
    }
}

/// Ingest: one `group_matrix` build per release. Traced, each build is
/// replayed scan by scan (`region_ts` → `from_region_ts` + `vectorize`).
fn ingest(
    cohort: &HcpCohort,
    releases: &[(Task, Session)],
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<Vec<GroupMatrix>, String> {
    let mut busy = 0.0;
    let mut scans = 0usize;
    let mut out = Vec::with_capacity(releases.len());
    for &(task, session) in releases {
        report.attempt(1);
        let t0 = Instant::now();
        let g = rec
            .span("datasets.group_matrix", |_| {
                cohort.group_matrix(task, session)
            })
            .map_err(|e| format!("group_matrix: {e}"))?;
        busy += t0.elapsed().as_secs_f64();
        scans += g.n_subjects();
        if rec.enabled() {
            rec.span("bench.replay", |rec| {
                for s in 0..g.n_subjects() {
                    report.attempt(1);
                    let col = rec
                        .span("datasets.region_ts", |_| cohort.region_ts(s, task, session))
                        .map_err(|e| e.to_string())
                        .and_then(|ts| {
                            rec.span("connectome.build", |_| {
                                Connectome::from_region_ts(&ts).map(|c| c.vectorize())
                            })
                            .map_err(|e| e.to_string())
                        });
                    match col {
                        Ok(v) if same_bits(&v, &g.subject_features(s)) => {}
                        Ok(_) => report.fail(format!("replayed connectome {s} differs")),
                        Err(e) => report.fail(format!("replayed connectome {s}: {e}")),
                    }
                }
            });
        }
        out.push(g);
    }
    report.set("connectomes_per_s", scans as f64 / busy);
    Ok(out)
}

/// Setup: `AttackPlan::prepare` + `MatchServer::start`, [`SETUP_REPS`]
/// times; returns a plan for the sweep and the last server.
fn setup(
    gallery: &GroupMatrix,
    cores: usize,
    rec: &mut Recorder,
    report: &mut Report,
    replay: &mut Replay,
) -> Result<(AttackPlan, MatchServer), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let known = gallery.clone();
        let t0 = Instant::now();
        let plan = rec
            .span("core.plan_prepare", |_| {
                AttackPlan::prepare(known, AttackConfig::default())
            })
            .map_err(|e| format!("prepare: {e}"))?;
        let prepare = t0.elapsed().as_secs_f64();
        // Only the last set-up is kept; its plan also drives the sweep.
        let sweep_plan = (rep + 1 == SETUP_REPS).then(|| plan.clone());
        let t1 = Instant::now();
        let server = rec
            .span("core.serve_start", |_| {
                MatchServer::start(plan, serve::serve_config(cores))
            })
            .map_err(|e| format!("start: {e}"))?;
        times.push(prepare + t1.elapsed().as_secs_f64());
        if rec.enabled() && rep == 0 {
            let bank = rec
                .span("bench.replay", |rec| {
                    rec.span("sampling.bank_build", |_| {
                        LeverageBank::new(gallery.as_matrix())
                    })
                })
                .map_err(|e| format!("bank: {e}"))?;
            replay.bank = Some(bank);
        }
        match sweep_plan {
            Some(p) => kept = Some((p, server)),
            None => {
                server.shutdown();
            }
        }
    }
    report.set("setup_s", median(&times).unwrap_or(f64::NAN));
    kept.ok_or_else(|| "no setup".to_string())
}

/// Once per run: the one-shot attack at the default `t` must equal the
/// plan's `run_with` bitwise, similarity and predictions.
fn check_direct(
    plan: &mut AttackPlan,
    gallery: &GroupMatrix,
    probes: &GroupMatrix,
    report: &mut Report,
) -> Result<(), String> {
    report.attempt(1);
    let direct = DeanonAttack::new(AttackConfig::default())
        .and_then(|a| a.run(gallery, probes))
        .map_err(|e| format!("DeanonAttack::run: {e}"))?;
    let planned = plan
        .run_with(probes, T_DEFAULT, MatchRule::Argmax)
        .map_err(|e| format!("run_with: {e}"))?;
    if !(same_bits(direct.similarity.as_slice(), planned.similarity.as_slice())
        && direct.predicted == planned.predicted)
    {
        report.fail("DeanonAttack::run differs from AttackPlan::run_with");
    }
    Ok(())
}

/// One `run_with` replayed as its constituent public calls, bitwise
/// checked against the boundary call's outcome.
#[allow(clippy::too_many_arguments)]
fn replay_run_with(
    rec: &mut Recorder,
    r: &mut Replay,
    known: &GroupMatrix,
    anon: &GroupMatrix,
    t: usize,
    similarity: &Matrix,
    predicted: &[usize],
    boundary: f64,
    report: &mut Report,
) -> Result<(), String> {
    let key = t as u64;
    let t0 = Instant::now();
    let (sim, pred) = rec.span(
        "bench.replay",
        |rec| -> Result<(Matrix, Vec<usize>), String> {
            if !rec.span_keyed("linalg.is_finite", key, |_| anon.as_matrix().is_finite()) {
                return Err("release is not finite".into());
            }
            if r.last_t != Some(t) {
                let bank = r.bank.as_ref().ok_or("no bank")?;
                r.indices = rec
                    .span_keyed("sampling.select_indices", key, |_| {
                        bank.select_indices(t, None)
                    })
                    .map_err(|e| e.to_string())?;
                rec.span_keyed("linalg.select_rows_known", key, |_| {
                    known
                        .as_matrix()
                        .select_rows_into(&r.indices, &mut r.known_red)
                })
                .map_err(|e| e.to_string())?;
                rec.span_keyed("linalg.zscored_cols", key, |_| {
                    zscored_cols_into(&r.known_red, &mut r.known_z)
                });
                r.last_t = Some(t);
            }
            rec.span_keyed("linalg.select_rows", key, |_| {
                anon.as_matrix()
                    .select_rows_into(&r.indices, &mut r.anon_red)
            })
            .map_err(|e| e.to_string())?;
            let mut sim = Matrix::zeros(0, 0);
            rec.span_keyed("linalg.xcorr_fused", key, |_| {
                cross_correlation_fused_into(&r.known_z, &r.anon_red, &mut r.anon_z, &mut sim)
            })
            .map_err(|e| e.to_string())?;
            let pred = rec
                .span_keyed("core.argmax_matching", key, |_| argmax_matching(&sim))
                .map_err(|e| e.to_string())?;
            Ok((sim, pred))
        },
    )?;
    r.unattributed_ms
        .push((boundary - t0.elapsed().as_secs_f64()) * 1e3);
    report.attempt(1);
    if !(same_bits(sim.as_slice(), similarity.as_slice()) && pred == predicted) {
        report.fail(format!("replayed run_with at t = {t} differs"));
    }
    Ok(())
}

/// The Figure-4 sweep: passes over `T_GRID` × releases until the budget is
/// spent; `attacks_per_s` is the median pass rate. Every point's
/// predictions must repeat across passes. Returns the passes done.
fn sweep(
    plan: &mut AttackPlan,
    known: &GroupMatrix,
    releases: &[GroupMatrix],
    budget: Budget,
    rec: &mut Recorder,
    report: &mut Report,
    replay: &mut Replay,
) -> Result<usize, String> {
    let mut first: Vec<Vec<usize>> = Vec::new();
    let mut rates = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || !budget.spent(start, passes) {
        let p0 = Instant::now();
        let mut point = 0;
        for &t in T_GRID {
            for anon in releases {
                report.attempt(1);
                let c0 = Instant::now();
                let out = rec
                    .span_keyed("core.run_with", t as u64, |_| {
                        plan.run_with(anon, t, MatchRule::Argmax)
                    })
                    .map_err(|e| format!("run_with(t = {t}): {e}"))?;
                let boundary = c0.elapsed().as_secs_f64();
                if passes == 0 {
                    first.push(out.predicted.clone());
                } else if first[point] != out.predicted {
                    report.fail(format!("sweep point t = {t} changed its predictions"));
                }
                if rec.enabled() {
                    replay_run_with(
                        rec,
                        replay,
                        known,
                        anon,
                        t,
                        &out.similarity,
                        &out.predicted,
                        boundary,
                        report,
                    )?;
                }
                point += 1;
            }
        }
        rates.push(point as f64 / p0.elapsed().as_secs_f64());
        passes += 1;
    }
    report.set("attacks_per_s", median(&rates).unwrap_or(f64::NAN));
    Ok(passes)
}

/// Peak resident set of this process (VmHWM) in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One pass over the workload. `fixed` repeats an earlier pass's counts.
fn run_pass(
    w: Workload,
    seed: u64,
    seconds: f64,
    cores: usize,
    fixed: Option<Counts>,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<Pass, String> {
    let (sweep_share, serve_share, voxel_share) = w.shares();
    let t_pass = Instant::now();
    let mut replay = Replay::new();
    let cohort = HcpCohort::generate(HcpCohortConfig {
        seed: mix(seed, 1),
        ..HcpCohortConfig::default()
    })
    .map_err(|e| format!("cohort: {e}"))?;

    let releases = rec.span("bench.ingest", |rec| {
        ingest(&cohort, w.releases(), rec, report)
    })?;
    let (gallery, anon) = releases.split_first().ok_or("no releases")?;
    let (mut plan, server) = rec.span("bench.setup", |rec| {
        setup(gallery, cores, rec, report, &mut replay)
    })?;
    check_direct(&mut plan, gallery, &anon[0], report)?;

    let sweep_budget = match fixed {
        Some(c) => Budget::Count(c.sweep_passes),
        None => Budget::Seconds(sweep_share * seconds),
    };
    let sweep_passes = rec.span("bench.sweep", |rec| {
        sweep(
            &mut plan,
            gallery,
            anon,
            sweep_budget,
            rec,
            report,
            &mut replay,
        )
    })?;
    if rec.enabled() {
        layer_metrics_attack(rec, &replay, gallery, &anon[0], report);
    }

    let probes = serve::Probes::new(gallery, &anon[0])?;
    let serve_out = rec.span("bench.serve", |_| {
        serve::stage(
            &server,
            &probes,
            serve_share * seconds,
            mix(seed, 2),
            report,
        )
    });
    let drained = server.shutdown();
    if !drained.clean_drain() {
        report.fail(format!("server did not drain clean: {drained:?}"));
    }
    drop(releases);

    let voxel_budget = match (fixed, voxel_share > 0.0) {
        (Some(c), _) => Budget::Count(c.voxel_subjects),
        (None, true) => Budget::Seconds(voxel_share * seconds),
        (None, false) => Budget::Count(voxel::MIN_SUBJECTS),
    };
    let (_, voxel_subjects) = rec.span("bench.voxel", |rec| {
        voxel::stage(mix(seed, 3), voxel_budget, rec, report)
    })?;

    Ok(Pass {
        wall: t_pass.elapsed().as_secs_f64(),
        counts: Counts {
            sweep_passes,
            voxel_subjects,
        },
        serve: serve_out,
        probes,
        plan,
    })
}

/// Per-layer metrics of the ingest, setup and sweep replays.
fn layer_metrics_attack(
    rec: &Recorder,
    replay: &Replay,
    gallery: &GroupMatrix,
    anon: &GroupMatrix,
    report: &mut Report,
) {
    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    let key = T_DEFAULT as u64;
    let n_known = gallery.n_subjects() as f64;
    let n_anon = anon.n_subjects() as f64;
    let t = T_DEFAULT as f64;

    report.set(
        "datasets.region_ts_ms",
        med(rec.durations("datasets.region_ts")) * 1e3,
    );
    let build = med(rec.durations("connectome.build"));
    let regions = (1.0 + (1.0 + 8.0 * gallery.n_features() as f64).sqrt()) / 2.0;
    let frames = HcpCohortConfig::default().n_timepoints as f64;
    let build_flop = regions * regions * frames;
    report.set("connectome.build_ms", build * 1e3);
    report.set("connectome.build_gflops", build_flop / build / 1e9);
    report.set("connectome.build_gflop_computed", build_flop / 1e9);
    report.set(
        "connectome.build_mb_computed",
        (regions * frames + regions * regions) * 8.0 / 1e6,
    );

    report.set(
        "sampling.bank_build_ms",
        med(rec.durations("sampling.bank_build")) * 1e3,
    );
    report.set(
        "sampling.select_us",
        med(rec.durations("sampling.select_indices")) * 1e6,
    );

    let finite = med(rec.durations_keyed("linalg.is_finite", key));
    let finite_bytes = (anon.n_features() * anon.n_subjects() * 8) as f64;
    report.set("linalg.finite_scan_ms", finite * 1e3);
    report.set("linalg.finite_scan_gbps", finite_bytes / finite / 1e9);
    report.set("linalg.finite_scan_mb_computed", finite_bytes / 1e6);
    report.set(
        "linalg.gather_us",
        med(rec.durations_keyed("linalg.select_rows", key)) * 1e6,
    );
    report.set(
        "linalg.zscore_us",
        med(rec.durations_keyed("linalg.zscored_cols", key)) * 1e6,
    );
    let xcorr = med(rec.durations_keyed("linalg.xcorr_fused", key));
    let xcorr_flop = 2.0 * n_known * n_anon * t;
    report.set("linalg.xcorr_ms", xcorr * 1e3);
    report.set("linalg.xcorr_gflops", xcorr_flop / xcorr / 1e9);
    report.set("linalg.xcorr_mflop_computed", xcorr_flop / 1e6);
    report.set(
        "linalg.xcorr_kb_computed",
        (n_known * t + t * n_anon + n_known * n_anon) * 8.0 / 1e3,
    );

    report.set(
        "core.plan_prepare_ms",
        med(rec.durations("core.plan_prepare")) * 1e3,
    );
    let runs: Vec<f64> = rec
        .durations("core.run_with")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    report.set("core.plan_run_p50_ms", median(&runs).unwrap_or(0.0));
    report.set(
        "core.plan_run_p99_ms",
        percentile(&runs, 0.99)
            .or_else(|| runs.iter().copied().reduce(f64::max))
            .unwrap_or(0.0),
    );
    report.set("core.plan_run_samples", runs.len() as f64);
    report.set(
        "core.match_us",
        med(rec.durations_keyed("core.argmax_matching", key)) * 1e6,
    );
    report.set(
        "core.plan_unattributed_ms",
        median(&replay.unattributed_ms).unwrap_or(0.0),
    );
}

/// The batched correlation kernel on `Q = 16` reduced probes against the
/// z-scored gallery, checked bitwise against `AttackPlan::correlate_batch`.
fn layer_metrics_batched(
    plan: &mut AttackPlan,
    probes: &serve::Probes,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let gallery = plan.known().clone();
    let bank = LeverageBank::new(gallery.as_matrix()).map_err(|e| e.to_string())?;
    let idx = bank
        .select_indices(T_DEFAULT, None)
        .map_err(|e| e.to_string())?;
    let mut known_red = Matrix::zeros(0, 0);
    let mut known_z = Matrix::zeros(0, 0);
    gallery
        .as_matrix()
        .select_rows_into(&idx, &mut known_red)
        .map_err(|e| e.to_string())?;
    zscored_cols_into(&known_red, &mut known_z);
    let rows: Vec<Vec<f64>> = probes
        .columns
        .iter()
        .take(16)
        .map(|c| idx.iter().map(|&i| c[i]).collect())
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let mut bz = Matrix::zeros(0, 0);
    let mut out = Matrix::zeros(0, 0);
    rec.span("bench.replay", |rec| {
        for _ in 0..64 {
            let _ = rec.span_keyed("linalg.xcorr_batched", 16, |_| {
                cross_correlation_batched_into(&known_z, &refs, &mut bz, &mut out)
            });
        }
    });
    let full: Vec<&[f64]> = probes.columns.iter().take(16).map(Vec::as_slice).collect();
    let want = plan.correlate_batch(&full).map_err(|e| e.to_string())?;
    report.attempt(1);
    if !same_bits(want.as_slice(), out.as_slice()) {
        report.fail("batched kernel differs from AttackPlan::correlate_batch");
    }
    let secs = median(&rec.durations_keyed("linalg.xcorr_batched", 16)).unwrap_or(f64::NAN);
    let (n_known, t, q) = (gallery.n_subjects() as f64, T_DEFAULT as f64, 16.0);
    let flop = 2.0 * n_known * q * t;
    report.set("linalg.batched_xcorr_us", secs * 1e6);
    report.set("linalg.batched_xcorr_gflops", flop / secs / 1e9);
    report.set("linalg.batched_xcorr_mflop_computed", flop / 1e6);
    report.set(
        "linalg.batched_xcorr_kb_computed",
        (n_known * t + t * q + n_known * q) * 8.0 / 1e3,
    );
    Ok(())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or("unknown workload")?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(15.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn print_metrics(report: &Report, list: &[(&str, &str)]) {
    for &(name, unit) in list {
        if let Some(v) = report.get(name) {
            println!("  {name:<38} {v:>14.4} {unit}");
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    println!(
        "perfbench {} seed {} seconds {} trace {} cores {cores}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    if !args.trace {
        let mut rec = Recorder::new(false);
        let mut report = Report::default();
        let pass = run_pass(
            w,
            args.seed,
            args.seconds,
            cores,
            None,
            &mut rec,
            &mut report,
        )?;
        report.set("peak_rss_mib", peak_rss_mib());
        println!("  wall {:.2} s", pass.wall);
        print_metrics(&report, END_TO_END);
        return report.result_line(END_TO_END);
    }

    let ceilings = host::measure(cores);
    let mut untraced = Report::default();
    let Pass {
        wall: a_wall,
        counts: a_counts,
        ..
    } = run_pass(
        w,
        args.seed,
        args.seconds,
        cores,
        None,
        &mut Recorder::new(false),
        &mut untraced,
    )?;
    let mut rec = Recorder::new(true);
    let mut report = Report::default();
    let b_start = rec.at(Instant::now());
    let b = run_pass(
        w,
        args.seed,
        args.seconds,
        cores,
        Some(a_counts),
        &mut rec,
        &mut report,
    )?;
    let replayed: f64 = rec.durations("bench.replay").iter().sum();
    let b_end = rec.at(Instant::now());
    let Pass {
        wall: b_wall,
        serve: serve_out,
        probes,
        mut plan,
        ..
    } = b;
    serve::layer_metrics(&serve_out, &probes, &mut plan, &mut rec, &mut report);
    let unattributed = rec.unattributed(b_start, b_end);
    layer_metrics_batched(&mut plan, &probes, &mut rec, &mut report)?;
    voxel::layer_metrics(&rec, &mut report);
    report.set(
        "core.match_scores_us",
        median(&rec.durations_keyed("core.match_scores", 1)).unwrap_or(0.0) * 1e6,
    );
    report.set(
        "core.serve_start_ms",
        median(&rec.durations("core.serve_start")).unwrap_or(0.0) * 1e3,
    );
    report.set(
        "trace.overhead_pct",
        (b_wall - replayed - a_wall) / a_wall * 100.0,
    );
    report.set(
        "trace.unattributed_pct",
        unattributed / (b_end - b_start) * 100.0,
    );
    report.set("host.mem_gbps", ceilings.mem_gbps);
    report.set("host.mem_array_mib", ceilings.array_mib);
    report.set("host.llc_mib", ceilings.llc_mib);
    report.set("host.fma_gflops_1t", ceilings.fma_gflops_1t);
    report.set("host.fma_gflops_nt", ceilings.fma_gflops_nt);
    let pct = |report: &Report, name: &str, ceiling: f64| {
        report.get(name).unwrap_or(0.0) / ceiling * 100.0
    };
    report.set(
        "connectome.build_pct_fma_peak",
        pct(&report, "connectome.build_gflops", ceilings.fma_gflops_nt),
    );
    report.set(
        "linalg.finite_scan_pct_mem_bw",
        pct(&report, "linalg.finite_scan_gbps", ceilings.mem_gbps),
    );
    report.set(
        "linalg.xcorr_pct_fma_peak",
        pct(&report, "linalg.xcorr_gflops", ceilings.fma_gflops_nt),
    );
    report.set(
        "linalg.batched_xcorr_pct_fma_peak",
        pct(
            &report,
            "linalg.batched_xcorr_gflops",
            ceilings.fma_gflops_nt,
        ),
    );
    let path = std::path::PathBuf::from(format!(
        ".bench_build/perfbench-trace/{}-{}.jsonl",
        w.name(),
        args.seed
    ));
    if let Err(e) = rec.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
    println!(
        "  untraced wall {:.2} s, traced wall {:.2} s ({:.2} s replaying), {} spans -> {}",
        a_wall,
        b_wall,
        replayed,
        rec.spans().len(),
        path.display()
    );
    print_metrics(&report, PER_LAYER);
    report.result_line(PER_LAYER)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <attack_sweep|serve_stream|voxel_pipeline> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
