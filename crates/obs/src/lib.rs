#![warn(missing_docs)]

//! # neurodeanon-obs
//!
//! Zero-dependency observability for the attack stack: hierarchical wall-time
//! spans, named counters and gauges, and (behind the off-by-default
//! `alloc-stats` feature) a byte/alloc-count accounting allocator.
//!
//! The module exists to make the pipeline's cost structure *attributable* —
//! per-stage latency instead of end-to-end medians — without perturbing
//! results. Its hard contract (DESIGN.md §1.6):
//!
//! * **Observability never changes bits.** Instrumentation only ever reads
//!   clocks and bumps atomics; a traced run's numerical output is bitwise
//!   identical to an untraced one at any thread count.
//! * **Disabled tracing is near-free.** [`span()`] starts with one relaxed
//!   atomic load and returns an inert guard when tracing is off; no clock is
//!   read, no lock is taken, no allocation happens. Counters and gauges stay
//!   live even with tracing disabled (they are single relaxed atomic RMWs and
//!   several invariants — e.g. the one-SVD-per-plan bench gate — read them
//!   unconditionally), but they are placed at call-granularity sites, never
//!   inner loops.
//! * **Deterministic shape.** The span tree (paths and hit counts) and every
//!   counter/gauge *not* prefixed `rt.` depend only on the workload, never on
//!   the thread count or timing. Runtime-dependent telemetry (worker busy
//!   nanoseconds, imbalance ratios, allocator bytes) must live under the
//!   `rt.` prefix, which [`Snapshot::fingerprint`] excludes — that is what
//!   lets the property suites assert identical telemetry at
//!   `NEURODEANON_THREADS=1` and `8`.
//!
//! Span names use dotted lowercase words (`plan.prepare`, `stats.xcorr`);
//! nesting joins them with `/` into paths such as
//! `plan.run/plan.correlate/stats.xcorr`. Names must not contain `/`.
//!
//! JSONL export intentionally lives in `bench::timing` (which owns the
//! host-metadata stamping) — this crate only produces [`Snapshot`]s and a
//! human-readable tree rendering, so it can sit below `linalg` in the
//! dependency graph.

pub mod metrics;
pub mod report;
pub mod span;

#[cfg(feature = "alloc-stats")]
pub mod alloc;

pub use metrics::{counter, gauge, Counter, Gauge};
pub use report::{snapshot, Snapshot};
pub use span::{span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

/// Prefix marking runtime-dependent (thread-count- or timing-sensitive)
/// counters and gauges, excluded from [`Snapshot::fingerprint`].
pub const RUNTIME_PREFIX: &str = "rt.";

/// Process-wide tracing switch. Off by default; spans are inert until
/// [`enable`] flips this.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span tracing on for the whole process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span tracing off. Spans already open keep recording on drop (their
/// entry fee is paid; dropping the record would unbalance the tree).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether span tracing is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears the span registry and zeroes every registered counter and gauge.
///
/// Registered counter/gauge handles stay valid (they are `&'static`); only
/// their values reset. Intended for tests and long-lived processes that
/// export deltas; concurrent writers simply land in the fresh epoch.
pub fn reset() {
    span::reset_registry();
    metrics::reset_all();
}

/// `true` when `name` is runtime-dependent telemetry (the `rt.` namespace).
pub fn is_runtime_metric(name: &str) -> bool {
    name.starts_with(RUNTIME_PREFIX)
}
