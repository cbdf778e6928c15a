#![warn(missing_docs)]

//! # neurodeanon-testkit
//!
//! A from-scratch, dependency-free verification substrate for the
//! workspace: a property-testing harness (the [`forall!`] macro plus the
//! [`gen`] generators and [`runner`]) and a minimal JSON reader/writer
//! ([`mod@json`]) used by the reproduction harness's machine-readable reports.
//!
//! The whole workspace promises **zero external dependencies** so that
//! `cargo build --release --offline && cargo test -q --offline` passes from
//! a clean checkout; this crate is what lets the 500+ tests keep their
//! randomized property coverage (formerly `proptest`) and the `repro`
//! binaries keep their JSONL output (formerly `serde_json`) under that
//! constraint. Randomness comes from the same deterministic xoshiro256++
//! generator ([`neurodeanon_linalg::Rng64`]) that drives the synthetic
//! cohorts, so every counterexample is replayable from a reported seed.
//!
//! ## Writing a property
//!
//! ```
//! use neurodeanon_testkit::{forall, tk_assert, Config};
//! use neurodeanon_testkit::gen::{f64_in, vec_of};
//!
//! forall!(Config::cases(64), (xs in vec_of(f64_in(-10.0..10.0), 1..30)) => {
//!     let sum: f64 = xs.iter().sum();
//!     tk_assert!(sum.abs() <= 10.0 * xs.len() as f64 + 1e-9);
//! });
//! ```
//!
//! On failure the runner shrinks the counterexample and panics with a
//! replayable seed: rerun the test with `TESTKIT_SEED=<seed>
//! TESTKIT_CASES=1` to reproduce the exact failing input.

pub mod gen;
pub mod json;
pub mod runner;

pub use gen::Gen;
pub use json::Value;
pub use runner::{Config, Failure};

/// Runs a property over randomized inputs: `forall!(config, (a in gen_a,
/// b in gen_b) => { body })`.
///
/// Each binding draws from its generator; the body runs once per case and
/// reports failures via [`tk_assert!`]/[`tk_assert_eq!`]/[`tk_assert_ne!`]
/// (which shrink) or ordinary panics (reported without shrinking). The
/// bindings are owned clones of the generated values, so the body can
/// consume them; rebind with `let mut x = x;` where mutation is needed.
#[macro_export]
macro_rules! forall {
    ($cfg:expr, ( $($name:ident in $gen:expr),+ $(,)? ) => $body:block) => {{
        let __cfg = $cfg;
        let __gens = ( $( $gen, )+ );
        $crate::runner::check(
            concat!(file!(), ":", line!()),
            &__cfg,
            &__gens,
            |__value| {
                let ( $( $name, )+ ) = ::std::clone::Clone::clone(__value);
                $body
                Ok(())
            },
        )
    }};
}

/// Property-body assertion: on failure, returns an `Err` describing the
/// condition so the runner can shrink the counterexample.
#[macro_export]
macro_rules! tk_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !($cond) {
            return Err(format!(
                "assertion failed: {} — {}",
                stringify!($cond),
                format!($($arg)+)
            ));
        }
    };
}

/// Property-body equality assertion; see [`tk_assert!`].
#[macro_export]
macro_rules! tk_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return Err(format!(
                "assertion failed: {} == {}\n    left:  {:?}\n    right: {:?}",
                stringify!($a),
                stringify!($b),
                __a,
                __b
            ));
        }
    }};
    ($a:expr, $b:expr, $($arg:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return Err(format!(
                "assertion failed: {} == {} — {}\n    left:  {:?}\n    right: {:?}",
                stringify!($a),
                stringify!($b),
                format!($($arg)+),
                __a,
                __b
            ));
        }
    }};
}

/// Property-body inequality assertion; see [`tk_assert!`].
#[macro_export]
macro_rules! tk_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return Err(format!(
                "assertion failed: {} != {}\n    both:  {:?}",
                stringify!($a),
                stringify!($b),
                __a
            ));
        }
    }};
}
