//! Attack-as-a-service: a long-lived, batched, fault-tolerant match server
//! over a memoized [`AttackPlan`] (DESIGN.md §1.7).
//!
//! The paper's attack is a one-shot batch job; the serving shape is a
//! gallery prepared once and a stream of query connectomes answered for as
//! long as the process lives. This module supplies that shape with
//! robustness as the headline contract:
//!
//! * **Batched queries** — workers collect up to `batch_max` queued queries
//!   and answer them with *one* fused z-score + cross-correlation GEMM
//!   ([`AttackPlan::correlate_batch`]), bit-identical per column to running
//!   each query alone. Batching buys throughput and can never change a
//!   response.
//! * **Backpressure** — a bounded MPMC queue ([`BoundedQueue`]) between
//!   producers and workers. [`MatchServer::submit`] blocks until space or a
//!   deadline ([`SubmitError::Timeout`]); [`MatchServer::try_submit`] fails
//!   fast ([`SubmitError::QueueFull`]). Overload degrades batch size first
//!   (smaller GEMMs ⇒ more frequent deadline checks ⇒ shedding engages as
//!   late as possible) and sheds by per-query deadline second
//!   ([`QueryError::DeadlineExceeded`]); accepted queries are never
//!   silently dropped.
//! * **Poison isolation** — every query is validated individually; a
//!   malformed or degraded query yields a typed [`QueryError`] while the
//!   rest of its batch completes. A worker panic (chaos-injected or
//!   otherwise) is contained by `catch_unwind`: the worker re-clones its
//!   plan from the pristine one (deterministic respawn; the clone shares the
//!   immutable gallery and copies only the selection), re-runs the batch
//!   one query at a time so exactly the poison query fails
//!   ([`QueryError::WorkerPanicked`]), and applies a capped exponential
//!   backoff *in units of work* (the next `2^respawns` batches run at size
//!   1 — deterministic, unlike wall-clock backoff). A worker exceeding
//!   `max_respawns` parks; the last worker to park closes the queue so
//!   nothing hangs.
//! * **Clean drain** — [`MatchServer::shutdown`] closes the queue, lets
//!   workers drain every accepted query, joins them, and answers anything
//!   left (only possible when all workers died) with [`QueryError::Closed`]:
//!   every submitted query receives exactly one reply.
//!
//! Determinism: a response depends only on its own query and the prepared
//! plan — never on batch packing, arrival order, worker count, or thread
//! count — so serve output is byte-identical across all of those (asserted
//! by `tests/serve_properties.rs` and the CI serve smoke). The `rt.serve.*`
//! obs metrics (queue depth, batches, sheds, quarantines) *are*
//! arrival-timing-dependent, so they live in the `rt.` namespace that the
//! observability fingerprint excludes.

mod queue;

pub use queue::{BoundedQueue, QueueError};

use crate::attack::{AttackPlan, CleanQuery, DegradedInput, MatchRule, QueryCheck};
use crate::error::CoreError;
use crate::matching::{match_scores, Decision, MatchScore};
use crate::Result;
use neurodeanon_connectome::GroupMatrix;
use neurodeanon_datasets::ServiceFaultKind;
use neurodeanon_linalg::Matrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// Interval at which an idle worker re-checks its (possibly closed) queue.
const IDLE_POP_TIMEOUT: Duration = Duration::from_millis(25);

/// Queue-depth fraction (numerator/denominator of capacity) above which
/// workers halve their batch size — the "degrade before dropping" stage of
/// overload shedding.
const SHED_WATERMARK_NUM: usize = 3;
const SHED_WATERMARK_DEN: usize = 4;

/// Cap on the exponent of the respawn backoff (`2^min(respawns, CAP)`
/// size-1 batches after a contained panic).
const BACKOFF_EXP_CAP: u32 = 6;

/// Name prefix of the server's worker threads; the panic hook below keys
/// on it to keep contained panics quiet.
const WORKER_THREAD_PREFIX: &str = "serve-worker-";

/// Installs (once per process) a panic hook that demotes panics on serve
/// worker threads to a single stderr line. Worker panics are *contained* —
/// caught, quarantined, and reported as typed [`QueryError::WorkerPanicked`]
/// per query — so the default full-backtrace dump would be pure noise on a
/// path the server survives by design. Panics on every other thread keep
/// the previously installed hook's behavior.
fn install_worker_panic_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_THREAD_PREFIX));
            if on_worker {
                let message = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                eprintln!("[serve] contained worker panic: {message}");
            } else {
                previous(info);
            }
        }));
    });
}

/// Configuration of a [`MatchServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads answering queries. Each owns a clone of the prepared
    /// plan: the immutable gallery (known matrix and leverage order) is
    /// shared, and only the O(`t · n_known`) selection and scratch are
    /// copied per worker.
    pub workers: usize,
    /// Bounded queue capacity between producers and workers.
    pub queue_capacity: usize,
    /// Most queries a worker folds into one batched GEMM.
    pub batch_max: usize,
    /// How long [`MatchServer::submit`] blocks for queue space before
    /// returning [`SubmitError::Timeout`].
    pub submit_timeout: Duration,
    /// Consecutive contained panics a worker survives (respawning its plan
    /// each time) before it parks as dead.
    pub max_respawns: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            batch_max: 16,
            submit_timeout: Duration::from_millis(200),
            max_respawns: 64,
        }
    }
}

impl ServeConfig {
    /// Validates the parameter domains.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(CoreError::InvalidParameter {
                name: "workers",
                reason: "need at least one worker thread",
            });
        }
        if self.queue_capacity == 0 {
            return Err(CoreError::InvalidParameter {
                name: "queue_capacity",
                reason: "need a queue capacity of at least one",
            });
        }
        if self.batch_max == 0 {
            return Err(CoreError::InvalidParameter {
                name: "batch_max",
                reason: "need a batch size of at least one",
            });
        }
        Ok(())
    }
}

/// One query connectome submitted to the server.
#[derive(Debug, Clone)]
pub struct Query {
    /// Caller-chosen id echoed in the response (dedup/ordering handle).
    pub id: u64,
    /// Label echoed in the response (the anonymous record's id).
    pub subject_id: String,
    /// Full-length feature vector (the gallery's `n_features`).
    pub values: Vec<f64>,
    /// Optional service deadline: a query still queued past it is shed
    /// with [`QueryError::DeadlineExceeded`] instead of computed late.
    pub deadline: Option<Instant>,
    /// Chaos-testing hook: a [`ServiceFaultKind::WorkerPanic`] marker makes
    /// the processing worker panic mid-batch (the injected fault the
    /// containment contract is tested against). Payload faults are already
    /// materialized in `values` by [`neurodeanon_datasets::ChaosSpec`];
    /// other kinds are inert here.
    pub injected: Option<ServiceFaultKind>,
}

impl Query {
    /// A plain query with no deadline and no injected fault.
    pub fn new(id: u64, subject_id: impl Into<String>, values: Vec<f64>) -> Self {
        Query {
            id,
            subject_id: subject_id.into(),
            values,
            deadline: None,
            injected: None,
        }
    }

    /// Sets the service deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A successfully computed match for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchResponse {
    /// Echo of [`Query::id`].
    pub query_id: u64,
    /// Echo of [`Query::subject_id`].
    pub subject_id: String,
    /// Gallery index of the best candidate (`None` when the query had no
    /// usable candidate at all — only reachable on degraded-policy paths).
    pub best: Option<usize>,
    /// Identity of the best candidate.
    pub best_id: Option<String>,
    /// Best similarity (`NaN` when `best` is `None`).
    pub score: f64,
    /// Margin over the runner-up (`NaN` when undefined).
    pub margin: f64,
    /// The open-world decision under the plan's `reject_margin`.
    pub decision: Decision,
}

/// Typed per-query failure: one bad query fails alone, with a reason.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Payload length differs from the gallery's feature count (malformed
    /// payload, or a mid-stream gallery-shape change).
    WrongDimension {
        /// Features the payload carried.
        got: usize,
        /// Features the gallery expects.
        want: usize,
    },
    /// Non-finite payload cells under the `Reject` degraded-input policy.
    NonFinite {
        /// Number of non-finite cells.
        n_non_finite: usize,
    },
    /// The query's deadline passed while it waited (overload shedding).
    DeadlineExceeded,
    /// The worker processing this query panicked; the query is quarantined
    /// (its batchmates were re-run and answered normally).
    WorkerPanicked,
    /// The server shut down (or every worker died) before this query was
    /// processed.
    Closed,
    /// The attack itself reported a typed error for this query (e.g.
    /// insufficient masked support).
    Attack {
        /// Rendered [`CoreError`].
        message: String,
    },
}

impl QueryError {
    /// Stable lowercase taxonomy name (JSONL records, CLI output).
    pub fn taxonomy(&self) -> &'static str {
        match self {
            QueryError::WrongDimension { .. } => "wrong_dimension",
            QueryError::NonFinite { .. } => "non_finite",
            QueryError::DeadlineExceeded => "deadline",
            QueryError::WorkerPanicked => "panic",
            QueryError::Closed => "closed",
            QueryError::Attack { .. } => "attack",
        }
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::WrongDimension { got, want } => {
                write!(
                    f,
                    "wrong dimension: query has {got} features, gallery expects {want}"
                )
            }
            QueryError::NonFinite { n_non_finite } => {
                write!(
                    f,
                    "query has {n_non_finite} non-finite cell(s) under the reject policy"
                )
            }
            QueryError::DeadlineExceeded => write!(f, "deadline exceeded before processing"),
            QueryError::WorkerPanicked => write!(f, "worker panicked on this query (quarantined)"),
            QueryError::Closed => write!(f, "server closed before processing"),
            QueryError::Attack { message } => write!(f, "attack error: {message}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Typed submission failure; the query is handed back untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Non-blocking submit found the queue at capacity.
    QueueFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// Blocking submit waited the full timeout without space freeing.
    Timeout {
        /// How long it waited.
        waited: Duration,
    },
    /// The server is shut down (or every worker died).
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            SubmitError::Timeout { waited } => {
                write!(f, "backpressure timeout after {waited:?}")
            }
            SubmitError::Closed => write!(f, "server closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Outcome delivered on a query's reply channel: exactly one per
/// successfully submitted query.
pub type QueryResult = std::result::Result<MatchResponse, QueryError>;

/// Per-server counters (authoritative, unlike the process-global
/// `rt.serve.*` obs metrics, which aggregate over every server in the
/// process).
#[derive(Debug, Default)]
struct ServeStats {
    submitted: AtomicU64,
    answered: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    quarantined: AtomicU64,
    respawns: AtomicU64,
    batches: AtomicU64,
    drained: AtomicU64,
}

/// Snapshot of a server's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Queries accepted into the queue.
    pub submitted: u64,
    /// Queries answered with a [`MatchResponse`].
    pub answered: u64,
    /// Queries answered with a [`QueryError`] (includes sheds, quarantines,
    /// and drain-time closures).
    pub failed: u64,
    /// Queries shed on deadline.
    pub shed: u64,
    /// Queries quarantined after a contained worker panic.
    pub quarantined: u64,
    /// Plan rebuilds performed by panic containment.
    pub respawns: u64,
    /// Batches processed (each one GEMM on the happy path).
    pub batches: u64,
    /// Queries answered [`QueryError::Closed`] by the shutdown drain.
    pub drained: u64,
}

impl ServeReport {
    /// The clean-drain invariant: every accepted query was answered.
    pub fn clean_drain(&self) -> bool {
        self.submitted == self.answered + self.failed
    }
}

impl ServeStats {
    fn report(&self) -> ServeReport {
        ServeReport {
            submitted: self.submitted.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
        }
    }
}

/// Cached handles for the `rt.serve.*` runtime metrics (excluded from the
/// obs fingerprint: batching and shedding are arrival-timing-dependent).
mod metrics {
    use super::OnceLock;
    fn handle_counter(name: &'static str) -> &'static neurodeanon_obs::Counter {
        neurodeanon_obs::counter(name)
    }
    fn handle_gauge(name: &'static str) -> &'static neurodeanon_obs::Gauge {
        neurodeanon_obs::gauge(name)
    }
    pub(super) fn queue_depth() -> &'static neurodeanon_obs::Gauge {
        static H: OnceLock<&'static neurodeanon_obs::Gauge> = OnceLock::new();
        H.get_or_init(|| handle_gauge("rt.serve.queue_depth"))
    }
    pub(super) fn batches() -> &'static neurodeanon_obs::Counter {
        static H: OnceLock<&'static neurodeanon_obs::Counter> = OnceLock::new();
        H.get_or_init(|| handle_counter("rt.serve.batches"))
    }
    pub(super) fn sheds() -> &'static neurodeanon_obs::Counter {
        static H: OnceLock<&'static neurodeanon_obs::Counter> = OnceLock::new();
        H.get_or_init(|| handle_counter("rt.serve.sheds"))
    }
    pub(super) fn quarantined() -> &'static neurodeanon_obs::Counter {
        static H: OnceLock<&'static neurodeanon_obs::Counter> = OnceLock::new();
        H.get_or_init(|| handle_counter("rt.serve.quarantined"))
    }
}

/// A queued query plus its reply channel.
struct Job {
    query: Query,
    reply: mpsc::Sender<QueryResult>,
}

/// The long-lived batched match server. See the module docs.
pub struct MatchServer {
    queue: Arc<BoundedQueue<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stats: Arc<ServeStats>,
    cfg: ServeConfig,
    n_features: usize,
}

impl MatchServer {
    /// Starts `cfg.workers` worker threads over clones of `plan`.
    ///
    /// The plan's selection is warmed once here, so no worker re-derives
    /// it: each clone shares the immutable gallery through an `Arc` and
    /// copies only the warmed O(`t · n_known`) selection. Serve
    /// requires the argmax rule (Hungarian assignment is defined over a
    /// whole anon *group*, not a stream) and a factorizable plan (a
    /// mask-degraded known matrix has no memoized batch path).
    pub fn start(mut plan: AttackPlan, cfg: ServeConfig) -> Result<MatchServer> {
        cfg.validate()?;
        install_worker_panic_hook();
        if plan.config().match_rule != MatchRule::Argmax {
            return Err(CoreError::InvalidParameter {
                name: "match_rule",
                reason: "serve answers per-query; only the argmax rule applies to a stream",
            });
        }
        // Warm the selection (and surface mask-degraded plans as a typed
        // error now rather than per query).
        let probe = vec![0.0; plan.known().n_features()];
        plan.correlate_batch(&[probe.as_slice()])?;
        let n_features = plan.known().n_features();
        let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(cfg.queue_capacity));
        let stats = Arc::new(ServeStats::default());
        let live = Arc::new(AtomicUsize::new(cfg.workers));
        let pristine = Arc::new(plan);
        let mut workers = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let worker = Worker {
                plan: (*pristine).clone(),
                pristine: Arc::clone(&pristine),
                queue: Arc::clone(&queue),
                cfg: cfg.clone(),
                stats: Arc::clone(&stats),
                live: Arc::clone(&live),
                respawns: 0,
                penalty: 0,
            };
            let handle = std::thread::Builder::new()
                .name(format!("{WORKER_THREAD_PREFIX}{i}"))
                .spawn(move || worker.run())
                .map_err(|_| CoreError::InvalidParameter {
                    name: "workers",
                    reason: "failed to spawn a worker thread",
                });
            match handle {
                Ok(h) => workers.push(h),
                Err(e) => {
                    queue.close();
                    for h in workers {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(MatchServer {
            queue,
            workers,
            stats,
            cfg,
            n_features,
        })
    }

    /// Feature length queries must carry.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Queries currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Snapshot of the server's lifetime counters.
    pub fn stats(&self) -> ServeReport {
        self.stats.report()
    }

    /// Blocking submit with backpressure: waits up to the configured
    /// `submit_timeout` for queue space. Returns the reply channel —
    /// exactly one [`QueryResult`] will arrive on it.
    pub fn submit(
        &self,
        query: Query,
    ) -> std::result::Result<mpsc::Receiver<QueryResult>, (Query, SubmitError)> {
        let deadline = Instant::now() + self.cfg.submit_timeout;
        let (tx, rx) = mpsc::channel();
        let job = Job { query, reply: tx };
        match self.queue.push_deadline(job, deadline) {
            Ok(()) => {
                self.after_accept();
                Ok(rx)
            }
            Err((job, e)) => Err((job.query, submit_error(e, self.cfg.submit_timeout))),
        }
    }

    /// Non-blocking submit: fails fast with [`SubmitError::QueueFull`]
    /// instead of waiting.
    pub fn try_submit(
        &self,
        query: Query,
    ) -> std::result::Result<mpsc::Receiver<QueryResult>, (Query, SubmitError)> {
        let (tx, rx) = mpsc::channel();
        let job = Job { query, reply: tx };
        match self.queue.try_push(job) {
            Ok(()) => {
                self.after_accept();
                Ok(rx)
            }
            Err((job, e)) => Err((job.query, submit_error(e, self.cfg.submit_timeout))),
        }
    }

    fn after_accept(&self) {
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        metrics::queue_depth().set(self.queue.len() as f64);
    }

    /// Shuts down: closes the queue, lets workers drain every accepted
    /// query, joins them, and answers any leftovers (possible only when
    /// every worker died) with [`QueryError::Closed`]. Returns the final
    /// counter snapshot — `report.clean_drain()` holds on return.
    pub fn shutdown(self) -> ServeReport {
        self.queue.close();
        for h in self.workers {
            let _ = h.join();
        }
        while let Some(job) = self.queue.try_pop() {
            self.stats.drained.fetch_add(1, Ordering::Relaxed);
            send_reply(job, Err(QueryError::Closed), &self.stats);
        }
        self.stats.report()
    }
}

fn submit_error(e: QueueError, submit_timeout: Duration) -> SubmitError {
    match e {
        QueueError::Full { capacity } => SubmitError::QueueFull { capacity },
        QueueError::Timeout => SubmitError::Timeout {
            waited: submit_timeout,
        },
        QueueError::Closed => SubmitError::Closed,
    }
}

/// Sends one reply, bookkeeping the server counters and the process-global
/// `rt.serve.*` metrics. Receivers may already be dropped; that is the
/// caller's prerogative, not an error.
fn send_reply(job: Job, result: QueryResult, stats: &ServeStats) {
    match &result {
        Ok(_) => {
            stats.answered.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            stats.failed.fetch_add(1, Ordering::Relaxed);
            match e {
                QueryError::DeadlineExceeded => {
                    stats.shed.fetch_add(1, Ordering::Relaxed);
                    metrics::sheds().add(1);
                }
                QueryError::WorkerPanicked => {
                    stats.quarantined.fetch_add(1, Ordering::Relaxed);
                    metrics::quarantined().add(1);
                }
                _ => {}
            }
        }
    }
    let _ = job.reply.send(result);
}

/// One worker thread: pops batches, processes them, contains panics.
struct Worker {
    plan: AttackPlan,
    pristine: Arc<AttackPlan>,
    queue: Arc<BoundedQueue<Job>>,
    cfg: ServeConfig,
    stats: Arc<ServeStats>,
    live: Arc<AtomicUsize>,
    /// Contained panics so far (caps at `cfg.max_respawns`).
    respawns: u32,
    /// Remaining batches forced to size 1 by the respawn backoff.
    penalty: u32,
}

impl Worker {
    fn run(mut self) {
        self.run_loop();
        // Last worker out (clean drain or death) closes the queue so
        // producers fail typed instead of queueing into the void.
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.queue.close();
        }
    }

    fn run_loop(&mut self) {
        loop {
            let Some(batch) = self.collect_batch() else {
                return; // closed and drained
            };
            metrics::queue_depth().set(self.queue.len() as f64);
            let outcome = catch_unwind(AssertUnwindSafe(|| process_batch(&mut self.plan, &batch)));
            self.stats.batches.fetch_add(1, Ordering::Relaxed);
            metrics::batches().add(1);
            match outcome {
                Ok(results) => {
                    for (job, result) in batch.into_iter().zip(results) {
                        send_reply(job, result, &self.stats);
                    }
                }
                Err(_) => {
                    // The batch hit a poison query: rebuild the plan (its
                    // scratch state is suspect mid-unwind), then isolate by
                    // re-running the batch one query at a time. Clean
                    // batchmates produce bit-identical results to the
                    // batched path, so isolation never changes an answer.
                    if !self.respawn() {
                        self.park(batch);
                        return;
                    }
                    let mut it = batch.into_iter();
                    for job in it.by_ref() {
                        let solo = catch_unwind(AssertUnwindSafe(|| {
                            process_one(&mut self.plan, &job.query)
                        }));
                        match solo {
                            Ok(result) => send_reply(job, result, &self.stats),
                            Err(_) => {
                                send_reply(job, Err(QueryError::WorkerPanicked), &self.stats);
                                if !self.respawn() {
                                    self.park(it.collect());
                                    return;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Blocks for the next query, then folds in up to `effective_batch - 1`
    /// more without waiting. `None` once the queue is closed and drained.
    fn collect_batch(&mut self) -> Option<Vec<Job>> {
        let first = loop {
            match self.queue.pop_timeout(IDLE_POP_TIMEOUT) {
                Ok(job) => break job,
                Err(QueueError::Timeout) => continue,
                Err(QueueError::Closed) => return None,
                Err(QueueError::Full { .. }) => unreachable!("pop never reports Full"),
            }
        };
        let cap = self.effective_batch();
        if self.penalty > 0 {
            self.penalty -= 1;
        }
        let mut batch = vec![first];
        while batch.len() < cap {
            match self.queue.try_pop() {
                Some(job) => batch.push(job),
                None => break,
            }
        }
        Some(batch)
    }

    /// The overload-aware batch cap: backoff penalty forces size 1; a queue
    /// past the shed watermark halves the batch so deadline checks run more
    /// often (degrade before dropping).
    fn effective_batch(&self) -> usize {
        if self.penalty > 0 {
            return 1;
        }
        let depth = self.queue.len();
        if depth * SHED_WATERMARK_DEN >= self.queue.capacity() * SHED_WATERMARK_NUM {
            (self.cfg.batch_max / 2).max(1)
        } else {
            self.cfg.batch_max
        }
    }

    /// Deterministic supervisor respawn: replace the (suspect) plan with a
    /// fresh clone of the pristine one (sharing its gallery) and arm the
    /// work-unit backoff.
    /// Returns `false` when the respawn budget is exhausted.
    fn respawn(&mut self) -> bool {
        self.respawns += 1;
        self.stats.respawns.fetch_add(1, Ordering::Relaxed);
        if self.respawns > self.cfg.max_respawns {
            return false;
        }
        self.plan = (*self.pristine).clone();
        self.penalty = 1u32 << self.respawns.min(BACKOFF_EXP_CAP);
        true
    }

    /// Worker death: hand unprocessed queries back to surviving workers
    /// (or fail them typed when the queue won't take them).
    fn park(&self, jobs: Vec<Job>) {
        for job in jobs {
            if let Err((job, _)) = self.queue.try_push(job) {
                send_reply(job, Err(QueryError::Closed), &self.stats);
            }
        }
    }
}

/// Where one validation pass sends a query.
enum Admission<'a> {
    /// Full length and finite: joins the batched GEMM.
    Clean(CleanQuery<'a>),
    /// Non-finite under `Mask`/`Impute`: answered alone on the policy path.
    Degraded,
    /// Must not reach a kernel.
    Refused(QueryError),
}

/// Validation shared by the batch and solo paths, one pass per query: the
/// chaos hook, the deadline, then [`CleanQuery::check`]'s length and
/// non-finite count, which decide the query's [`Admission`].
fn prevalidate<'a>(
    query: &'a Query,
    want: usize,
    policy: DegradedInput,
    now: Instant,
) -> Admission<'a> {
    if query.injected == Some(ServiceFaultKind::WorkerPanic) {
        // The chaos hook: a poison query takes down its worker mid-batch.
        panic!("chaos: injected worker panic (query {})", query.id);
    }
    if query.deadline.is_some_and(|d| d < now) {
        return Admission::Refused(QueryError::DeadlineExceeded);
    }
    match CleanQuery::check(&query.values, want) {
        QueryCheck::Clean(clean) => Admission::Clean(clean),
        QueryCheck::WrongLength { got } => {
            Admission::Refused(QueryError::WrongDimension { got, want })
        }
        QueryCheck::NonFinite { n_non_finite } if policy == DegradedInput::Reject => {
            Admission::Refused(QueryError::NonFinite { n_non_finite })
        }
        QueryCheck::NonFinite { .. } => Admission::Degraded,
    }
}

/// Answers a whole batch: validation and policy per query, then one fused
/// GEMM over the clean majority. Returns one result per job, in order.
/// Panics only via a poison query (contained by the caller).
fn process_batch(plan: &mut AttackPlan, batch: &[Job]) -> Vec<QueryResult> {
    let now = Instant::now();
    let want = plan.known().n_features();
    let policy = plan.config().degraded;
    let mut results: Vec<Option<QueryResult>> = (0..batch.len()).map(|_| None).collect();
    let mut clean: Vec<usize> = Vec::with_capacity(batch.len());
    let mut queries: Vec<CleanQuery<'_>> = Vec::with_capacity(batch.len());
    for (i, job) in batch.iter().enumerate() {
        let q = &job.query;
        match prevalidate(q, want, policy, now) {
            Admission::Clean(c) => {
                clean.push(i);
                queries.push(c);
            }
            // The policy path is per-query by construction (masked support
            // depends on the query's own missingness), identical to the
            // one-shot degraded pipeline.
            Admission::Degraded => results[i] = Some(solo_degraded(plan, q)),
            Admission::Refused(err) => results[i] = Some(Err(err)),
        }
    }
    if !clean.is_empty() {
        match plan
            .correlate_clean(&queries)
            .and_then(|sim| match_scores(&sim))
        {
            Ok(scores) => {
                for (k, &i) in clean.iter().enumerate() {
                    results[i] = Some(Ok(response_from_score(plan, &batch[i].query, scores[k])));
                }
            }
            Err(e) => {
                let message = e.to_string();
                for &i in &clean {
                    results[i] = Some(Err(QueryError::Attack {
                        message: message.clone(),
                    }));
                }
            }
        }
    }
    results
        .into_iter()
        .map(|r| r.unwrap_or(Err(QueryError::Closed)))
        .collect()
}

/// Answers one query alone — the quarantine path after a contained panic,
/// bit-identical to the batched path for clean queries (a singleton batch
/// is a one-column GEMM through the same kernels).
fn process_one(plan: &mut AttackPlan, query: &Query) -> QueryResult {
    let now = Instant::now();
    let want = plan.known().n_features();
    let policy = plan.config().degraded;
    let clean = match prevalidate(query, want, policy, now) {
        Admission::Clean(c) => c,
        Admission::Degraded => return solo_degraded(plan, query),
        Admission::Refused(err) => return Err(err),
    };
    match plan
        .correlate_clean(&[clean])
        .and_then(|sim| match_scores(&sim))
    {
        Ok(scores) => Ok(response_from_score(plan, query, scores[0])),
        Err(e) => Err(QueryError::Attack {
            message: e.to_string(),
        }),
    }
}

/// Builds the response for a clean query from its similarity column's
/// [`MatchScore`], applying the plan's `reject_margin` with exactly the
/// decision semantics of the one-shot pipeline's `decisions_from`.
fn response_from_score(
    plan: &AttackPlan,
    query: &Query,
    score: Option<MatchScore>,
) -> MatchResponse {
    match score {
        None => MatchResponse {
            query_id: query.id,
            subject_id: query.subject_id.clone(),
            best: None,
            best_id: None,
            score: f64::NAN,
            margin: f64::NAN,
            decision: Decision::Reject,
        },
        Some(ms) => {
            // NaN margins never reject (`NaN < t` is false): with no
            // runner-up there is no ambiguity evidence to threshold on.
            let decision = match plan.config().reject_margin {
                Some(threshold) if ms.margin < threshold => Decision::Reject,
                _ => Decision::Match(ms.best),
            };
            MatchResponse {
                query_id: query.id,
                subject_id: query.subject_id.clone(),
                best: Some(ms.best),
                best_id: Some(plan.known().subject_ids()[ms.best].clone()),
                score: ms.score,
                margin: ms.margin,
                decision,
            }
        }
    }
}

/// The degraded-policy path: wrap the query as a one-subject group and run
/// it through [`AttackPlan::run_with`], so serve's `Mask`/`Impute` handling
/// is the one-shot pipeline's, response included.
fn solo_degraded(plan: &mut AttackPlan, query: &Query) -> QueryResult {
    let data = Matrix::from_fn(query.values.len(), 1, |r, _| query.values[r]);
    let group = GroupMatrix::from_matrix(
        data,
        vec![query.subject_id.clone()],
        plan.known().n_regions(),
    )
    .map_err(|e| QueryError::Attack {
        message: e.to_string(),
    })?;
    let n_features = plan.config().n_features;
    let outcome = plan
        .run_with(&group, n_features, MatchRule::Argmax)
        .map_err(|e| match e {
            CoreError::NonFiniteInput { n_non_finite, .. } => {
                QueryError::NonFinite { n_non_finite }
            }
            other => QueryError::Attack {
                message: other.to_string(),
            },
        })?;
    let p = outcome.predicted[0];
    let decision = outcome.decisions[0];
    if p == usize::MAX {
        Ok(MatchResponse {
            query_id: query.id,
            subject_id: query.subject_id.clone(),
            best: None,
            best_id: None,
            score: f64::NAN,
            margin: f64::NAN,
            decision,
        })
    } else {
        Ok(MatchResponse {
            query_id: query.id,
            subject_id: query.subject_id.clone(),
            best: Some(p),
            best_id: Some(plan.known().subject_ids()[p].clone()),
            score: outcome.similarity[(p, 0)],
            margin: outcome.match_margins()[0],
            decision,
        })
    }
}
