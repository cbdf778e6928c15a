//! Minimal wall-clock benchmark harness for the `cargo bench` targets.
//!
//! A deliberately small stand-in for an external benchmarking framework:
//! each benchmark runs a warm-up pass, then a fixed number of timed
//! iterations, and reports min / median / mean wall time. Results are
//! printed as a table; no statistics beyond the basics are attempted, so
//! use the medians for coarse comparisons, not for microbenchmark claims.

use neurodeanon_testkit::{json, Value};
use std::collections::HashSet;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A group of named timings sharing warm-up and iteration settings.
pub struct Bench {
    name: String,
    warmup: usize,
    iters: usize,
}

/// Timing summary for one benchmark case.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Case label.
    pub label: String,
    /// Fastest observed iteration.
    pub min: Duration,
    /// Median iteration (the 50th percentile).
    pub median: Duration,
    /// Mean iteration.
    pub mean: Duration,
    /// 95th-percentile iteration (nearest rank).
    pub p95: Duration,
    /// 99th-percentile iteration (nearest rank).
    pub p99: Duration,
    /// Number of timed iterations behind the statistics.
    pub iters: usize,
}

/// Typed failure of the timing statistics layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingError {
    /// Statistics over zero samples are undefined; callers get this typed
    /// error instead of a panic (or a garbage duration) on an empty input —
    /// e.g. a bench whose measured section shed every query.
    EmptySample,
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingError::EmptySample => write!(f, "no samples: statistics are undefined"),
        }
    }
}

impl std::error::Error for TimingError {}

/// Nearest-rank percentile over an ascending-sorted sample.
pub fn percentile(sorted: &[Duration], p: f64) -> Result<Duration, TimingError> {
    if sorted.is_empty() {
        return Err(TimingError::EmptySample);
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    Ok(sorted[idx.min(sorted.len() - 1)])
}

impl Bench {
    /// Creates a benchmark group with the default 1 warm-up + 10 timed runs.
    pub fn new(name: &str) -> Self {
        Bench {
            name: name.to_string(),
            warmup: 1,
            iters: 10,
        }
    }

    /// Overrides the number of timed iterations (min 1).
    pub fn iters(mut self, n: usize) -> Self {
        self.iters = n.max(1);
        self
    }

    /// Overrides the number of warm-up iterations.
    pub fn warmup(mut self, n: usize) -> Self {
        self.warmup = n;
        self
    }

    /// Times `f`, printing one table row, and returns the sample. The
    /// closure's return value is passed through [`std::hint::black_box`] so
    /// the work cannot be optimized away.
    pub fn run<T>(&self, label: &str, mut f: impl FnMut() -> T) -> Sample {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut times = Vec::with_capacity(self.iters);
        for _ in 0..self.iters {
            let t0 = Instant::now();
            std::hint::black_box(f());
            times.push(t0.elapsed());
        }
        let s = match Sample::from_times(label, times) {
            Ok(s) => s,
            // `iters` is clamped to >= 1 in the builder.
            Err(TimingError::EmptySample) => unreachable!("Bench always times at least one iter"),
        };
        println!(
            "{}/{label:<40} min {:>10}  median {:>10}  mean {:>10}  ({} iters)",
            self.name,
            fmt_duration(s.min),
            fmt_duration(s.median),
            fmt_duration(s.mean),
            self.iters,
        );
        s
    }
}

impl Sample {
    /// Builds the summary statistics from raw iteration times (any order;
    /// sorted internally). The entry point for callers that collected their
    /// own latencies — e.g. `deanon serve`'s per-query response times —
    /// rather than timing through [`Bench::run`]. Typed
    /// [`TimingError::EmptySample`] on an empty input.
    pub fn from_times(label: &str, mut times: Vec<Duration>) -> Result<Sample, TimingError> {
        times.sort_unstable();
        let min = *times.first().ok_or(TimingError::EmptySample)?;
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        Ok(Sample {
            label: label.to_string(),
            min,
            median: percentile(&times, 50.0)?,
            mean,
            p95: percentile(&times, 95.0)?,
            p99: percentile(&times, 99.0)?,
            iters: times.len(),
        })
    }
    /// Renders the sample as one JSON record for the bench trajectory file,
    /// tagged with its benchmark `group` name.
    pub fn to_json(&self, group: &str) -> Value {
        json!({
            "group": group,
            "label": self.label.as_str(),
            "min_ns": self.min.as_nanos() as f64,
            "median_ns": self.median.as_nanos() as f64,
            "mean_ns": self.mean.as_nanos() as f64,
            "p50_ns": self.median.as_nanos() as f64,
            "p95_ns": self.p95.as_nanos() as f64,
            "p99_ns": self.p99.as_nanos() as f64,
            "iters": self.iters as f64,
        })
    }
}

/// Process-wide ordinal for [`append_jsonl`] records: interleaved writers
/// (bench groups, trace exports) stay totally ordered within one run even
/// when wall-clock resolution cannot separate them.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Appends one JSON record as a line to a JSONL file, creating it if needed.
///
/// Object records are stamped with host metadata before writing (existing
/// keys are never overwritten — membership is checked against one
/// `HashSet` of the record's keys rather than a scan per field), so every
/// `bench::timing` trajectory line carries the context needed to compare
/// runs across machines and configs:
///
/// * `seq` — a process-wide monotonic record ordinal;
/// * `threads` — the effective `linalg::par` worker count;
/// * `threads_env` — the raw `NEURODEANON_THREADS` value (absent when the
///   variable is unset), which may exceed `threads` on small hosts because
///   the pool clamps to the core count;
/// * `profile` — `"debug"` or `"release"` build profile.
///
/// A trailing *partial* line (a previous writer crashed mid-record, leaving
/// no final newline) is tolerated: the new record starts on a fresh line
/// instead of being glued onto the damaged one, so one truncated record
/// never corrupts the lines appended after it.
pub fn append_jsonl(path: &Path, record: &Value) -> std::io::Result<()> {
    let mut stamped = record.clone();
    if let Value::Object(fields) = &mut stamped {
        let present: HashSet<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let mut missing: Vec<(String, Value)> = Vec::new();
        let mut put = |key: &str, value: Value| {
            if !present.contains(key) {
                missing.push((key.to_string(), value));
            }
        };
        put(
            "seq",
            Value::Number(SEQ.fetch_add(1, Ordering::Relaxed) as f64),
        );
        put(
            "threads",
            Value::Number(neurodeanon_linalg::par::num_threads() as f64),
        );
        if let Ok(env) = std::env::var("NEURODEANON_THREADS") {
            put("threads_env", Value::String(env));
        }
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        put("profile", Value::String(profile.to_string()));
        fields.extend(missing);
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)?;
    if missing_final_newline(&mut f)? {
        f.write_all(b"\n")?;
    }
    writeln!(f, "{stamped}")
}

/// Whether a non-empty file's last byte is not `\n` (a truncated record).
/// The seek only moves the read cursor; append-mode writes still go to the
/// end of the file.
fn missing_final_newline(f: &mut std::fs::File) -> std::io::Result<bool> {
    use std::io::{Read as _, Seek as _, SeekFrom};
    if f.metadata()?.len() == 0 {
        return Ok(false);
    }
    f.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    Ok(last[0] != b'\n')
}

/// Formats a duration with an adaptive unit (ns / µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_orders_stats() {
        let b = Bench::new("test").iters(5).warmup(0);
        let s = b.run("spin", || {
            let mut acc = 0u64;
            for i in 0..1000 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert_eq!(s.label, "spin");
        assert!(s.min <= s.median);
        assert!(s.min <= s.mean);
    }

    #[test]
    fn sample_json_record_and_jsonl_append() {
        let s = Sample {
            label: "gram_64620x100".to_string(),
            min: Duration::from_nanos(5),
            median: Duration::from_nanos(7),
            mean: Duration::from_nanos(6),
            p95: Duration::from_nanos(9),
            p99: Duration::from_nanos(11),
            iters: 10,
        };
        let v = s.to_json("thread_sweep");
        assert_eq!(v.get("group").and_then(Value::as_str), Some("thread_sweep"));
        assert_eq!(v.get("median_ns").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("p50_ns").and_then(Value::as_f64), Some(7.0));
        assert_eq!(v.get("p95_ns").and_then(Value::as_f64), Some(9.0));
        assert_eq!(v.get("p99_ns").and_then(Value::as_f64), Some(11.0));
        assert_eq!(v.get("iters").and_then(Value::as_f64), Some(10.0));

        let path = std::env::temp_dir().join(format!("nd_timing_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_jsonl(&path, &v).unwrap();
        append_jsonl(&path, &v).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let parsed = neurodeanon_testkit::json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(parsed.get("min_ns").and_then(Value::as_f64), Some(5.0));
        // Consecutive records carry strictly increasing sequence numbers.
        let second = neurodeanon_testkit::json::parse(text.lines().nth(1).unwrap()).unwrap();
        let s0 = parsed.get("seq").and_then(Value::as_f64).unwrap();
        let s1 = second.get("seq").and_then(Value::as_f64).unwrap();
        assert!(s1 > s0, "seq must be monotonic: {s0} then {s1}");
        // Host metadata is stamped on write.
        assert_eq!(
            parsed.get("threads").and_then(Value::as_f64),
            Some(neurodeanon_linalg::par::num_threads() as f64)
        );
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        assert_eq!(parsed.get("profile").and_then(Value::as_str), Some(profile));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_jsonl_never_overwrites_caller_fields() {
        let v = json!({ "group": "g", "threads": 99.0, "profile": "custom" });
        let path = std::env::temp_dir().join(format!("nd_meta_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_jsonl(&path, &v).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = neurodeanon_testkit::json::parse(text.trim()).unwrap();
        assert_eq!(parsed.get("threads").and_then(Value::as_f64), Some(99.0));
        assert_eq!(
            parsed.get("profile").and_then(Value::as_str),
            Some("custom")
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duration_formatting_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }

    #[test]
    fn duration_formatting_unit_boundaries() {
        // The last value of each unit and the first of the next.
        assert_eq!(fmt_duration(Duration::from_nanos(999)), "999 ns");
        assert_eq!(fmt_duration(Duration::from_nanos(1_000)), "1.00 µs");
        assert_eq!(fmt_duration(Duration::from_nanos(999_999)), "1000.00 µs");
        assert_eq!(fmt_duration(Duration::from_nanos(1_000_000)), "1.00 ms");
        assert_eq!(
            fmt_duration(Duration::from_nanos(999_999_999)),
            "1000.00 ms"
        );
        assert_eq!(fmt_duration(Duration::from_nanos(1_000_000_000)), "1.00 s");
        assert_eq!(fmt_duration(Duration::ZERO), "0 ns");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let times: Vec<Duration> = (1..=100).map(Duration::from_nanos).collect();
        assert_eq!(percentile(&times, 50.0), Ok(Duration::from_nanos(51)));
        assert_eq!(percentile(&times, 95.0), Ok(Duration::from_nanos(95)));
        assert_eq!(percentile(&times, 99.0), Ok(Duration::from_nanos(99)));
        assert_eq!(percentile(&times, 100.0), Ok(Duration::from_nanos(100)));
        let one = [Duration::from_nanos(7)];
        assert_eq!(percentile(&one, 99.0), Ok(Duration::from_nanos(7)));
    }

    #[test]
    fn empty_samples_are_a_typed_error_not_a_panic() {
        assert_eq!(percentile(&[], 50.0), Err(TimingError::EmptySample));
        assert_eq!(
            Sample::from_times("empty", Vec::new()).unwrap_err(),
            TimingError::EmptySample
        );
        // Non-empty inputs summarize, unsorted accepted.
        let s = Sample::from_times(
            "three",
            vec![
                Duration::from_nanos(9),
                Duration::from_nanos(1),
                Duration::from_nanos(5),
            ],
        )
        .unwrap();
        assert_eq!(s.min, Duration::from_nanos(1));
        assert_eq!(s.median, Duration::from_nanos(5));
        assert_eq!(s.p99, Duration::from_nanos(9));
        assert_eq!(s.iters, 3);
    }

    #[test]
    fn append_jsonl_repairs_a_trailing_partial_line() {
        let path = std::env::temp_dir().join(format!("nd_partial_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // A writer died mid-record: no trailing newline.
        std::fs::write(&path, "{\"group\":\"g\",\"truncat").unwrap();
        append_jsonl(&path, &json!({ "group": "h", "ok": 1.0 })).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "partial line must be terminated: {text:?}");
        // The damaged record stays damaged; the new one parses.
        assert!(neurodeanon_testkit::json::parse(lines[0]).is_err());
        let parsed = neurodeanon_testkit::json::parse(lines[1]).unwrap();
        assert_eq!(parsed.get("ok").and_then(Value::as_f64), Some(1.0));
        // A well-terminated file gains no spurious blank line.
        append_jsonl(&path, &json!({ "group": "h", "ok": 2.0 })).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(!text.contains("\n\n"), "no blank lines: {text:?}");
        std::fs::remove_file(&path).unwrap();
    }
}
