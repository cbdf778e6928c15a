//! The serve stage: an open-loop, seeded stream of single session-2
//! connectomes into a `MatchServer` over the paper-shape gallery.
//!
//! One sender thread keeps the arrival schedule (exponential gaps at a fixed
//! mean rate, seeded from the workload seed) and one collector thread waits
//! for the replies in submission order. Latency runs from each query's due
//! time, so a stall also delays every query due during it. A refused
//! (`QueueFull`), shed, failed or wrong answer misses every latency limit:
//! it enters the latency samples as infinity and counts as a failed
//! operation.

use crate::metrics::Report;
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use neurodeanon_core::attack::{AttackConfig, AttackPlan};
use neurodeanon_core::matching::match_scores;
use neurodeanon_core::serve::{MatchResponse, MatchServer, Query, QueryResult, ServeConfig};
use neurodeanon_datasets::{ChaosSpec, ServiceFaultKind};
use neurodeanon_linalg::Rng64;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Low rate: the worker is idle most of the time, so batches are about 1.
pub const LO_QPS: f64 = 250.0;
/// High rate: about half the one-worker capacity on the reference host
/// (the knee sits near 3–4k queries/s), so batching engages.
pub const HI_QPS: f64 = 1500.0;
/// Rate ladder for `serve_max_qps`, about 10% apart.
pub const LADDER_QPS: &[f64] = &[
    1500.0, 1800.0, 2000.0, 2200.0, 2400.0, 2650.0, 2900.0, 3200.0, 3500.0, 3850.0, 4250.0, 4700.0,
    5150.0, 5700.0, 6250.0,
];
/// Seconds of one ladder step.
pub const LADDER_STEP_S: f64 = 0.5;
/// The p99 a ladder step must meet, well above the host's idle hiccups
/// (10–50 ms observed on the reference host).
pub const LADDER_P99_LIMIT_MS: f64 = 150.0;
/// Fault rate of the chaos phase (payload faults and worker panics).
pub const CHAOS_RATE: f64 = 0.05;
/// Seed of the chaos schedule. It is fixed, not drawn from the workload
/// seed, so every run injects the same faults into the same query ids and
/// `serve_chaos_p50_ms` compares like with like; arrivals still vary.
pub const CHAOS_SEED: u64 = 0xc4a0_5eed;
const CHAOS_FIRST_ID: u64 = 1 << 40;
/// Queue between the sender and the workers.
pub const QUEUE_CAPACITY: usize = 256;
/// Most queries one worker folds into a batch.
pub const BATCH_MAX: usize = 16;

/// Serve configuration: one sender and one collector thread leave
/// `nproc - 1` cores for workers.
pub fn serve_config(cores: usize) -> ServeConfig {
    ServeConfig {
        workers: cores.saturating_sub(1).max(1),
        queue_capacity: QUEUE_CAPACITY,
        batch_max: BATCH_MAX,
        submit_timeout: Duration::from_secs(5),
        max_respawns: u32::MAX,
    }
}

/// The probe stream: one full-length session-2 connectome per subject.
pub struct Probes {
    pub columns: Vec<Vec<f64>>,
    pub ids: Vec<String>,
    /// Each probe's answer from a one-worker, batch-1 server.
    pub reference: Vec<MatchResponse>,
}

impl Probes {
    /// Builds the probes and their reference answers.
    pub fn new(
        known: &neurodeanon_connectome::GroupMatrix,
        anon: &neurodeanon_connectome::GroupMatrix,
    ) -> Result<Probes, String> {
        let columns: Vec<Vec<f64>> = (0..anon.n_subjects())
            .map(|s| anon.subject_features(s))
            .collect();
        let ids = anon.subject_ids().to_vec();
        let plan = AttackPlan::prepare(known.clone(), AttackConfig::default())
            .map_err(|e| format!("reference plan: {e}"))?;
        let cfg = ServeConfig {
            workers: 1,
            batch_max: 1,
            ..ServeConfig::default()
        };
        let server = MatchServer::start(plan, cfg).map_err(|e| format!("reference server: {e}"))?;
        let mut reference = Vec::with_capacity(columns.len());
        for (i, (col, id)) in columns.iter().zip(&ids).enumerate() {
            let rx = server
                .submit(Query::new(i as u64, id.clone(), col.clone()))
                .map_err(|(_, e)| format!("reference submit: {e}"))?;
            let reply = rx.recv().map_err(|e| format!("reference reply: {e}"))?;
            reference.push(reply.map_err(|e| format!("reference answer: {e}"))?);
        }
        let report = server.shutdown();
        if !report.clean_drain() {
            return Err(format!("reference server did not drain: {report:?}"));
        }
        Ok(Probes {
            columns,
            ids,
            reference,
        })
    }
}

/// Bitwise response identity (the query id is per stream, not compared).
fn same_answer(got: &MatchResponse, want: &MatchResponse) -> bool {
    got.best == want.best
        && got.best_id == want.best_id
        && got.score.to_bits() == want.score.to_bits()
        && got.margin.to_bits() == want.margin.to_bits()
        && got.decision == want.decision
}

struct Sent {
    id: u64,
    due: Instant,
    submitted: Instant,
    rx: mpsc::Receiver<QueryResult>,
}

/// One answered query.
pub struct Done {
    pub id: u64,
    pub due: Instant,
    pub submitted: Instant,
    pub replied: Instant,
    pub result: QueryResult,
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    pub sent: usize,
    pub refused: usize,
    pub done: Vec<Done>,
    /// Latency from due time (ms) of every clean query; failures are +inf.
    pub latency_ms: Vec<f64>,
    /// Wrong answers and unexpected errors.
    pub failures: Vec<String>,
    pub late_ms: Vec<f64>,
    pub payload_us: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub depth: Vec<f64>,
    /// Whether the sender stopped early on a growing backlog.
    pub backlogged: bool,
    /// First due time to last reply, seconds.
    pub span_s: f64,
    pub batches: u64,
    pub answered: u64,
    pub shed: u64,
    pub quarantined: u64,
    pub respawns: u64,
}

/// Runs one open-loop phase of `rate × secs` queries with ids from
/// `first_id`. With `stop_on_backlog` the sender stops once the queue is
/// half full (a ladder step past the knee), so it never meets `QueueFull`.
#[allow(clippy::too_many_arguments)]
pub fn phase(
    server: &MatchServer,
    probes: &Probes,
    rate: f64,
    secs: f64,
    chaos: Option<ChaosSpec>,
    first_id: u64,
    seed: u64,
    stop_on_backlog: bool,
) -> Phase {
    let n = ((rate * secs).round() as usize).max(1);
    let mut rng = Rng64::new(seed);
    let before = server.stats();
    let (tx, rx) = mpsc::channel::<Sent>();
    let collector = std::thread::spawn(move || {
        let mut done = Vec::new();
        for s in rx {
            let result =
                s.rx.recv()
                    .unwrap_or(Err(neurodeanon_core::serve::QueryError::Closed));
            done.push(Done {
                id: s.id,
                due: s.due,
                submitted: s.submitted,
                replied: Instant::now(),
                result,
            });
        }
        done
    });
    let mut out = Phase::default();
    let start = Instant::now() + Duration::from_millis(2);
    let mut offset = 0.0f64;
    for i in 0..n {
        offset += -(1.0 - rng.uniform()).ln() / rate;
        let due = start + Duration::from_secs_f64(offset);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        out.late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let id = first_id + i as u64;
        let col = (id % probes.columns.len() as u64) as usize;
        let p0 = Instant::now();
        let mut values = probes.columns[col].clone();
        let fault = chaos.and_then(|c| c.apply(id, &mut values));
        out.payload_us.push(p0.elapsed().as_secs_f64() * 1e6);
        let mut query = Query::new(id, probes.ids[col].clone(), values);
        if fault == Some(ServiceFaultKind::WorkerPanic) {
            query.injected = Some(ServiceFaultKind::WorkerPanic);
        }
        let s0 = Instant::now();
        let submitted = server.try_submit(query);
        out.submit_us.push(s0.elapsed().as_secs_f64() * 1e6);
        let depth = server.queue_depth();
        out.depth.push(depth as f64);
        out.sent += 1;
        match submitted {
            Ok(reply) => {
                // The collector outlives the sender; a send cannot fail.
                let _ = tx.send(Sent {
                    id,
                    due,
                    submitted: s0,
                    rx: reply,
                });
            }
            Err(_) => {
                out.refused += 1;
                out.latency_ms.push(f64::INFINITY);
            }
        }
        if stop_on_backlog && depth * 2 >= QUEUE_CAPACITY {
            out.backlogged = true;
            break;
        }
    }
    drop(tx);
    out.done = collector.join().expect("collector thread");
    let after = server.stats();
    out.batches = after.batches - before.batches;
    out.answered = after.answered - before.answered;
    out.shed = after.shed - before.shed;
    out.quarantined = after.quarantined - before.quarantined;
    out.respawns = after.respawns - before.respawns;
    let last = out.done.iter().map(|d| d.replied).max().unwrap_or(start);
    out.span_s = last.saturating_duration_since(start).as_secs_f64();
    check(&mut out, probes, chaos);
    out
}

/// Checks every answer: a clean query must equal the reference bitwise, an
/// injected fault must fail with exactly its typed error.
fn check(out: &mut Phase, probes: &Probes, chaos: Option<ChaosSpec>) {
    let n_cols = probes.columns.len() as u64;
    for d in &out.done {
        let fault = chaos
            .and_then(|c| c.fault_for(d.id))
            .filter(|&f| f != ServiceFaultKind::StallProducer);
        let latency = d.replied.saturating_duration_since(d.due).as_secs_f64() * 1e3;
        match (fault, &d.result) {
            (None, Ok(resp)) => {
                if same_answer(resp, &probes.reference[(d.id % n_cols) as usize]) {
                    out.latency_ms.push(latency);
                } else {
                    out.latency_ms.push(f64::INFINITY);
                    out.failures
                        .push(format!("query {} differs from the batch-1 reference", d.id));
                }
            }
            (None, Err(e)) => {
                out.latency_ms.push(f64::INFINITY);
                out.failures
                    .push(format!("clean query {} failed: {e}", d.id));
            }
            (Some(kind), result) => {
                let want = match kind {
                    ServiceFaultKind::TruncatePayload => "wrong_dimension",
                    ServiceFaultKind::NanPayload => "non_finite",
                    _ => "panic",
                };
                match result {
                    Err(e) if e.taxonomy() == want => {}
                    Err(e) => out.failures.push(format!(
                        "query {} with {} failed as {}, want {want}",
                        d.id,
                        kind.name(),
                        e.taxonomy()
                    )),
                    Ok(_) => out.failures.push(format!(
                        "query {} with {} was answered",
                        d.id,
                        kind.name()
                    )),
                }
            }
        }
    }
}

/// Stage budget split: low rate, high rate, chaos (the ladder runs its
/// fixed steps on top).
const LO_SHARE: f64 = 0.3;
const HI_SHARE: f64 = 0.3;
const CHAOS_SHARE: f64 = 0.25;

/// Every phase the serve stage ran, by name, for the per-layer metrics.
pub type Phases = Vec<(&'static str, Phase)>;

/// Runs the serve stage for `budget` seconds and sets its end-to-end
/// metrics.
pub fn stage(
    server: &MatchServer,
    probes: &Probes,
    budget: f64,
    seed: u64,
    report: &mut Report,
) -> Phases {
    let mut next_id = 0u64;
    let mut phases = Vec::new();
    let mut run = |name: &'static str,
                   rate: f64,
                   secs: f64,
                   chaos: Option<ChaosSpec>,
                   ladder: bool,
                   report: &mut Report| {
        // Chaos ids start at a fixed base so the fault schedule does not
        // depend on how far the ladder climbed.
        let first = if chaos.is_some() {
            CHAOS_FIRST_ID
        } else {
            next_id
        };
        let p = phase(
            server,
            probes,
            rate,
            secs,
            chaos,
            first,
            seed ^ first.wrapping_mul(0x9e37_79b9),
            ladder,
        );
        next_id += p.sent as u64;
        report.attempt(p.sent as u64);
        for f in &p.failures {
            report.fail(format!("serve {name}: {f}"));
        }
        if p.refused > 0 {
            report.fail(format!(
                "serve {name}: {} queries refused (QueueFull)",
                p.refused
            ));
        }
        p
    };

    let lo = run("lo", LO_QPS, LO_SHARE * budget, None, false, report);
    let hi = run("hi", HI_QPS, HI_SHARE * budget, None, false, report);
    // The highest step that meets every limit. Every step runs, so a stall
    // that fails one step cannot end the climb; past the knee a step stops
    // as soon as the queue is half full, so those steps are short.
    let mut best: Option<f64> = None;
    for &rate in LADDER_QPS {
        let p = run("ladder", rate, LADDER_STEP_S, None, true, report);
        let p99 = percentile(&p.latency_ms, 0.99)
            .or_else(|| p.latency_ms.iter().copied().reduce(f64::max))
            .unwrap_or(f64::INFINITY);
        if !p.backlogged && p.refused == 0 && p.failures.is_empty() && p99 <= LADDER_P99_LIMIT_MS {
            best = Some(p.answered as f64 / p.span_s.max(1e-9));
            phases.push(("ladder", p));
        }
    }
    let chaos = ChaosSpec {
        seed: CHAOS_SEED,
        rate: CHAOS_RATE,
    };
    let chaos_phase = run(
        "chaos",
        LO_QPS,
        CHAOS_SHARE * budget,
        Some(chaos),
        false,
        report,
    );

    let p50 = |p: &Phase| {
        percentile(&p.latency_ms, 0.5)
            .or_else(|| median(&p.latency_ms))
            .unwrap_or(f64::INFINITY)
    };
    report.set("serve_lo_p50_ms", p50(&lo));
    report.set("serve_hi_p50_ms", p50(&hi));
    report.set("serve_chaos_p50_ms", p50(&chaos_phase));
    match best {
        Some(qps) => report.set("serve_max_qps", qps),
        None => report.fail("serve ladder: no rate met the limits"),
    }
    phases.push(("lo", lo));
    phases.push(("hi", hi));
    phases.push(("chaos", chaos_phase));
    phases
}

/// Per-layer serve metrics and the traced replay of the low-rate queries:
/// each answer is recomputed as `correlate_batch` + `match_scores` on a
/// plan prepared from the same gallery and must equal the served answer
/// bitwise.
pub fn layer_metrics(
    phases: &Phases,
    probes: &Probes,
    plan: &mut AttackPlan,
    rec: &mut Recorder,
    report: &mut Report,
) {
    let all = || phases.iter().map(|(_, p)| p);
    let collect = |f: &dyn Fn(&Phase) -> &Vec<f64>| -> Vec<f64> {
        all().flat_map(|p| f(p).iter().copied()).collect()
    };
    let tail = |v: &[f64]| percentile(v, 0.99).or_else(|| v.iter().copied().reduce(f64::max));
    let submit = collect(&|p| &p.submit_us);
    let depth = collect(&|p| &p.depth);
    let late = collect(&|p| &p.late_ms);
    let payload = collect(&|p| &p.payload_us);
    let reply: Vec<f64> = all()
        .flat_map(|p| p.done.iter())
        .map(|d| {
            d.replied
                .saturating_duration_since(d.submitted)
                .as_secs_f64()
                * 1e3
        })
        .collect();
    let stage = rec.last("bench.serve");
    for p in all() {
        for d in &p.done {
            rec.push("core.serve_query", d.due, d.replied, stage, Some(d.id));
        }
    }
    let sum = |f: &dyn Fn(&Phase) -> u64| all().map(f).sum::<u64>() as f64;
    report.set("core.serve_submit_p50_us", median(&submit).unwrap_or(0.0));
    report.set("core.serve_submit_p99_us", tail(&submit).unwrap_or(0.0));
    report.set("core.serve_reply_p50_ms", median(&reply).unwrap_or(0.0));
    report.set("core.serve_reply_p99_ms", tail(&reply).unwrap_or(0.0));
    report.set(
        "core.serve_queue_depth_mean",
        crate::stats::mean(&depth).unwrap_or(0.0),
    );
    report.set(
        "core.serve_queue_depth_max",
        depth.iter().copied().fold(0.0, f64::max),
    );
    report.set(
        "core.serve_batch_mean",
        sum(&|p| p.answered) / sum(&|p| p.batches).max(1.0),
    );
    report.set("core.serve_shed", sum(&|p| p.shed));
    report.set("core.serve_quarantined", sum(&|p| p.quarantined));
    report.set("core.serve_respawns", sum(&|p| p.respawns));
    report.set("bench.gen_late_ms", tail(&late).unwrap_or(0.0));
    report.set("bench.gen_payload_us", median(&payload).unwrap_or(0.0));
    for (name, samples, key) in [
        ("lo", "serve_lo_samples", "serve_lo_p99_ms"),
        ("hi", "serve_hi_samples", "serve_hi_p99_ms"),
        ("chaos", "serve_chaos_samples", "serve_chaos_p99_ms"),
    ] {
        if let Some((_, p)) = phases.iter().find(|(n, _)| *n == name) {
            report.set(samples, p.latency_ms.len() as f64);
            report.set(key, tail(&p.latency_ms).unwrap_or(0.0));
        }
    }

    // Replay the low-rate answers as their constituent public calls.
    let Some((_, lo)) = phases.iter().find(|(n, _)| *n == "lo") else {
        return;
    };
    let n_cols = probes.columns.len() as u64;
    rec.span("bench.replay", |rec| {
        for d in &lo.done {
            let Ok(resp) = &d.result else { continue };
            let col = &probes.columns[(d.id % n_cols) as usize];
            let sim = rec.span_keyed("core.correlate_batch", 1, |_| {
                plan.correlate_batch(&[col.as_slice()])
            });
            let scores =
                sim.and_then(|s| rec.span_keyed("core.match_scores", 1, |_| match_scores(&s)));
            let same = matches!(&scores, Ok(s) if s.len() == 1 && s[0].is_some_and(|ms| {
                Some(ms.best) == resp.best
                    && ms.score.to_bits() == resp.score.to_bits()
                    && ms.margin.to_bits() == resp.margin.to_bits()
            }));
            report.attempt(1);
            if !same {
                report.fail(format!("replay of served query {} differs", d.id));
            }
        }
        let batch: Vec<&[f64]> = probes.columns.iter().take(16).map(Vec::as_slice).collect();
        for _ in 0..64 {
            let _ = rec.span_keyed("core.correlate_batch", 16, |_| plan.correlate_batch(&batch));
        }
    });
    let us = |k| median(&rec.durations_keyed("core.correlate_batch", k)).unwrap_or(0.0) * 1e6;
    report.set("core.correlate_batch_us.q1", us(1));
    report.set("core.correlate_batch_us.q16", us(16));
}
