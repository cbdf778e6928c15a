//! Named counters and gauges.
//!
//! Both are registered on first use and live for the process lifetime:
//! [`counter`] / [`gauge`] return `&'static` handles, so hot call sites can
//! cache the handle in a `OnceLock` and pay only a relaxed atomic RMW per
//! update. Unlike spans, counters and gauges are **not** gated on
//! [`crate::enabled`] — several invariants (the one-SVD-per-plan test,
//! the scheduler's tile accounting) read them in untraced runs.
//!
//! Naming: dotted lowercase words (`svd.thin_calls`, `plan.gallery_bytes`).
//! Values that depend on thread count or wall time — worker busy
//! nanoseconds, imbalance ratios, allocator bytes — must use the
//! [`crate::RUNTIME_PREFIX`] (`rt.`) namespace so the determinism
//! fingerprint can exclude them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing (between [`crate::reset`]s) event counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-plus-running-max gauge for sampled quantities (bytes held,
/// imbalance ratios). Stores `f64` bit patterns in atomics, so updates are
/// lock-free; `max` uses the IEEE total order on non-negative finite values,
/// which every gauge in this workspace satisfies.
#[derive(Debug)]
pub struct Gauge {
    last_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Gauge {
    /// Records a new sample, updating both the last value and the max.
    pub fn set(&self, v: f64) {
        self.last_bits.store(v.to_bits(), Ordering::Relaxed);
        let mut cur = self.max_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.max_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Most recent sample (0.0 before the first [`Gauge::set`]).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.last_bits.load(Ordering::Relaxed))
    }

    /// Largest sample seen since the last reset (0.0 before the first).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.last_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        self.max_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Name → handle registries. Handles are leaked `Box`es: registration is
/// permanent, so `&'static` references stay valid across [`crate::reset`].
static COUNTERS: Mutex<BTreeMap<String, &'static Counter>> = Mutex::new(BTreeMap::new());
static GAUGES: Mutex<BTreeMap<String, &'static Gauge>> = Mutex::new(BTreeMap::new());

/// Returns the process-wide counter named `name`, registering it (at zero)
/// on first use. The handle is `&'static`; cache it at hot call sites.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(c) = reg.get(name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter {
        value: AtomicU64::new(0),
    }));
    reg.insert(name.to_string(), c);
    c
}

/// Returns the process-wide gauge named `name`, registering it (at zero) on
/// first use.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = GAUGES.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(g) = reg.get(name) {
        return g;
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge {
        last_bits: AtomicU64::new(0.0f64.to_bits()),
        max_bits: AtomicU64::new(0.0f64.to_bits()),
    }));
    reg.insert(name.to_string(), g);
    g
}

/// Sorted copy of every registered counter's value.
pub(crate) fn counters_snapshot() -> Vec<(String, u64)> {
    COUNTERS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(name, c)| (name.clone(), c.get()))
        .collect()
}

/// Sorted copy of every registered gauge's `(last, max)`.
pub(crate) fn gauges_snapshot() -> Vec<(String, f64, f64)> {
    GAUGES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(name, g)| (name.clone(), g.get(), g.max()))
        .collect()
}

/// Zeroes every registered counter and gauge (registration survives).
pub(crate) fn reset_all() {
    for c in COUNTERS.lock().unwrap_or_else(|e| e.into_inner()).values() {
        c.reset();
    }
    for g in GAUGES.lock().unwrap_or_else(|e| e.into_inner()).values() {
        g.reset();
    }
}
