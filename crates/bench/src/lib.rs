#![warn(missing_docs)]

//! # neurodeanon-bench
//!
//! Reproduction harness for the paper's evaluation: the [`scale`] presets,
//! small formatting/reporting helpers shared by the `repro` binary (which
//! regenerates every table and figure as text + JSON), and the in-repo
//! [`timing`] harness used by the `kernels` bench and the `deanon` CLI.

pub mod report;
pub mod scale;
pub mod timing;
pub mod trace;

pub use report::Report;
pub use scale::Scale;
pub use timing::TimingError;

/// Aborts a bench or binary harness with exit code 2 and a one-line reason
/// on stderr — harness paths fail typed instead of panicking with a
/// backtrace (assertions about *measured results* stay `assert!`s; this is
/// for setup, experiment, and I/O fallibility).
pub fn fail(msg: &str) -> ! {
    eprintln!("bench: {msg}");
    std::process::exit(2);
}
