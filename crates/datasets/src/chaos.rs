//! Service-plane fault injection: the chaos layer of the match server.
//!
//! [`crate::corruption`] injects *data* faults — NaN cells, dropped
//! regions, truncated scans — into matrices before an attack runs.
//! A long-lived server faces a second fault surface: *operational* faults
//! that arrive one query at a time. This module injects those, seeded and
//! rate-parameterized, so the serve layer's isolation contract ("exactly
//! the faulted queries fail, with typed errors; everything else is
//! bit-identical to a fault-free run") can be asserted by property tests
//! and exercised by the `deanon serve` chaos demo.
//!
//! Fault classes ([`ServiceFaultKind`]):
//!
//! * `TruncatePayload` — the query arrives with the wrong number of
//!   features, as if the producer's pipeline changed its atlas (or the
//!   gallery shape changed mid-stream). Surfaces as a typed
//!   wrong-dimension error at validation, never as a slice panic.
//! * `NanPayload` — scattered non-finite cells, the service-plane twin of
//!   [`crate::corruption::CorruptionKind::NanCells`]; handled per the
//!   configured `DegradedInput` policy.
//! * `WorkerPanic` — the query carries a poison marker that makes the
//!   worker thread panic mid-batch, exercising `catch_unwind` containment
//!   and supervisor respawn.
//! * `StallProducer` — the producer sleeps before submitting, exercising
//!   queue timeouts and deadline shedding. Latency-only: a stalled query
//!   that still arrives in time must produce a bit-identical result.
//!
//! Determinism: whether query `i` is faulted, and with which class, is a
//! pure function of `(seed, i)` via a forked [`Rng64`] stream — independent
//! of arrival order, batch packing, worker count, and thread count. Two
//! runs over the same query stream inject exactly the same faults.

use crate::error::DatasetError;
use crate::Result;
use neurodeanon_linalg::Rng64;

/// Fraction of payload cells poisoned by `NanPayload` (at least one).
const NAN_CELL_FRACTION: f64 = 0.1;

/// Milliseconds a `StallProducer` fault asks the producer to sleep.
const STALL_MS: u64 = 2;

/// Every operational fault class the service chaos layer injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFaultKind {
    /// Malformed payload: wrong feature count (truncated to roughly half).
    TruncatePayload,
    /// Scattered NaN cells in the payload.
    NanPayload,
    /// Poison marker that panics the worker processing the query.
    WorkerPanic,
    /// Producer-side stall before submission (latency fault, not a data
    /// fault — the query itself stays clean).
    StallProducer,
}

impl ServiceFaultKind {
    /// Every kind, in the injection-choice order of [`ChaosSpec::fault_for`].
    pub const ALL: [ServiceFaultKind; 4] = [
        ServiceFaultKind::TruncatePayload,
        ServiceFaultKind::NanPayload,
        ServiceFaultKind::WorkerPanic,
        ServiceFaultKind::StallProducer,
    ];

    /// Stable lowercase name (JSONL records, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            ServiceFaultKind::TruncatePayload => "truncate_payload",
            ServiceFaultKind::NanPayload => "nan_payload",
            ServiceFaultKind::WorkerPanic => "worker_panic",
            ServiceFaultKind::StallProducer => "stall_producer",
        }
    }
}

impl std::fmt::Display for ServiceFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded service-plane chaos schedule: which queries of a stream get
/// faulted, and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// Master seed; each query index forks its own decision stream.
    pub seed: u64,
    /// Fraction of queries faulted, in `[0, 1]`. `0.0` injects nothing
    /// (the stream is bit-identical to an un-chaosed run).
    pub rate: f64,
}

impl ChaosSpec {
    /// Validates the rate domain.
    pub fn validate(&self) -> Result<()> {
        if !self.rate.is_finite() || !(0.0..=1.0).contains(&self.rate) {
            return Err(DatasetError::InvalidConfig {
                name: "rate",
                reason: "fault rate must be a finite fraction in [0, 1]",
            });
        }
        Ok(())
    }

    /// The fault assigned to query `index`, or `None` for a clean query.
    ///
    /// Pure in `(self.seed, index)`: the decision stream is
    /// `Rng64::new(seed).fork(index)`, so assignments are independent of
    /// the order in which queries are generated, submitted, or processed.
    pub fn fault_for(&self, index: u64) -> Option<ServiceFaultKind> {
        if self.rate <= 0.0 {
            return None;
        }
        let mut rng = Rng64::new(self.seed).fork(index);
        if rng.uniform() >= self.rate {
            return None;
        }
        let k = rng.below(ServiceFaultKind::ALL.len());
        Some(ServiceFaultKind::ALL[k])
    }

    /// Applies query `index`'s fault to its payload, returning the kind
    /// injected (also for non-payload faults, which leave `values` alone —
    /// the caller forwards `WorkerPanic` as the query's poison marker and
    /// honors `StallProducer` by sleeping [`stall_duration`] first).
    pub fn apply(&self, index: u64, values: &mut Vec<f64>) -> Option<ServiceFaultKind> {
        let kind = self.fault_for(index)?;
        match kind {
            ServiceFaultKind::TruncatePayload => {
                values.truncate(values.len() / 2);
            }
            ServiceFaultKind::NanPayload => {
                if !values.is_empty() {
                    let n = ((values.len() as f64 * NAN_CELL_FRACTION) as usize).max(1);
                    // A dedicated sub-stream so cell choice is independent
                    // of the class-choice draws above.
                    let mut cells = Rng64::new(self.seed ^ 0x9e3779b97f4a7c15).fork(index);
                    for _ in 0..n {
                        let at = cells.below(values.len());
                        values[at] = f64::NAN;
                    }
                }
            }
            ServiceFaultKind::WorkerPanic | ServiceFaultKind::StallProducer => {}
        }
        Some(kind)
    }
}

/// How long a [`ServiceFaultKind::StallProducer`] fault stalls the
/// producer. Small and fixed: long enough to perturb batching, short
/// enough that chaos runs stay fast.
pub fn stall_duration() -> std::time::Duration {
    std::time::Duration::from_millis(STALL_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_assignment_is_deterministic_and_order_free() {
        let spec = ChaosSpec { seed: 7, rate: 0.3 };
        let forward: Vec<_> = (0..200).map(|i| spec.fault_for(i)).collect();
        let backward: Vec<_> = (0..200).rev().map(|i| spec.fault_for(i)).collect();
        for (i, b) in backward.iter().rev().enumerate() {
            assert_eq!(forward[i], *b);
        }
        // Roughly the configured rate, and every class appears at scale.
        let spec = ChaosSpec { seed: 7, rate: 0.5 };
        let hits: Vec<_> = (0..2000).filter_map(|i| spec.fault_for(i)).collect();
        let frac = hits.len() as f64 / 2000.0;
        assert!((0.4..0.6).contains(&frac), "rate off: {frac}");
        for kind in ServiceFaultKind::ALL {
            assert!(hits.contains(&kind), "missing {kind}");
        }
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let spec = ChaosSpec { seed: 1, rate: 0.0 };
        assert!((0..500).all(|i| spec.fault_for(i).is_none()));
        let mut v = vec![1.0, 2.0];
        assert_eq!(spec.apply(3, &mut v), None);
        assert_eq!(v, vec![1.0, 2.0]);
    }

    #[test]
    fn payload_faults_mutate_payloads_only() {
        let spec = ChaosSpec {
            seed: 42,
            rate: 1.0,
        };
        let mut seen_truncate = false;
        let mut seen_nan = false;
        for i in 0..200u64 {
            let mut v: Vec<f64> = (0..50).map(|x| x as f64).collect();
            let kind = spec.apply(i, &mut v).expect("rate 1.0 always faults");
            assert_eq!(kind, spec.fault_for(i).unwrap());
            match kind {
                ServiceFaultKind::TruncatePayload => {
                    assert_eq!(v.len(), 25);
                    seen_truncate = true;
                }
                ServiceFaultKind::NanPayload => {
                    assert_eq!(v.len(), 50);
                    assert!(v.iter().any(|x| x.is_nan()));
                    seen_nan = true;
                }
                _ => {
                    assert_eq!(v.len(), 50);
                    assert!(v.iter().all(|x| x.is_finite()));
                }
            }
        }
        assert!(seen_truncate && seen_nan);
    }

    #[test]
    fn rate_domain_is_validated() {
        assert!(ChaosSpec { seed: 0, rate: 0.5 }.validate().is_ok());
        assert!(ChaosSpec {
            seed: 0,
            rate: -0.1
        }
        .validate()
        .is_err());
        assert!(ChaosSpec { seed: 0, rate: 1.5 }.validate().is_err());
        assert!(ChaosSpec {
            seed: 0,
            rate: f64::NAN
        }
        .validate()
        .is_err());
    }
}
