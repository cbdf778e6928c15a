//! Metric names, units and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` (a test keeps them
//! equal). An untraced run prints every end-to-end metric, a traced run
//! every per-layer metric; a run missing one is a bug and exits non-zero.

use std::collections::BTreeMap;

/// End-to-end metrics: measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("connectomes_per_s", "1/s"),
    ("attacks_per_s", "1/s"),
    ("serve_max_qps", "1/s"),
    ("voxel_scans_per_s", "1/s"),
];

/// Per-layer metrics: measured in a separate traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.region_ts_ms", "ms"),
    ("connectome.build_ms", "ms"),
    ("connectome.build_gflops", "GFLOP/s"),
    ("connectome.build_gflop_computed", "GFLOP"),
    ("connectome.build_mb_computed", "MB"),
    ("connectome.build_pct_fma_peak", "%"),
    ("sampling.bank_build_ms", "ms"),
    ("sampling.select_us", "us"),
    ("linalg.finite_scan_ms", "ms"),
    ("linalg.finite_scan_gbps", "GB/s"),
    ("linalg.finite_scan_mb_computed", "MB"),
    ("linalg.finite_scan_pct_mem_bw", "%"),
    ("linalg.gather_us", "us"),
    ("linalg.zscore_us", "us"),
    ("linalg.xcorr_ms", "ms"),
    ("linalg.xcorr_gflops", "GFLOP/s"),
    ("linalg.xcorr_mflop_computed", "MFLOP"),
    ("linalg.xcorr_kb_computed", "KB"),
    ("linalg.xcorr_pct_fma_peak", "%"),
    ("linalg.batched_xcorr_us", "us"),
    ("linalg.batched_xcorr_gflops", "GFLOP/s"),
    ("linalg.batched_xcorr_mflop_computed", "MFLOP"),
    ("linalg.batched_xcorr_kb_computed", "KB"),
    ("linalg.batched_xcorr_pct_fma_peak", "%"),
    ("core.plan_prepare_ms", "ms"),
    ("core.plan_run_p50_ms", "ms"),
    ("core.plan_run_p99_ms", "ms"),
    ("core.plan_run_samples", "count"),
    ("core.match_us", "us"),
    ("core.correlate_batch_us.q1", "us"),
    ("core.correlate_batch_us.q16", "us"),
    ("core.match_scores_us", "us"),
    ("core.plan_unattributed_ms", "ms"),
    ("core.serve_start_ms", "ms"),
    ("core.serve_submit_p50_us", "us"),
    ("core.serve_submit_p99_us", "us"),
    ("core.serve_reply_p50_ms", "ms"),
    ("core.serve_reply_p99_ms", "ms"),
    ("core.serve_queue_depth_mean", "count"),
    ("core.serve_queue_depth_max", "count"),
    ("core.serve_batch_mean", "count"),
    ("core.serve_shed", "count"),
    ("core.serve_quarantined", "count"),
    ("core.serve_respawns", "count"),
    ("serve_lo_p50_ms", "ms"),
    ("serve_lo_p99_ms", "ms"),
    ("serve_hi_p50_ms", "ms"),
    ("serve_hi_p99_ms", "ms"),
    ("serve_chaos_p50_ms", "ms"),
    ("serve_chaos_p99_ms", "ms"),
    ("serve_lo_samples", "count"),
    ("serve_hi_samples", "count"),
    ("serve_chaos_samples", "count"),
    ("fmri.acquire_ms", "ms"),
    ("fmri.voxel_frames", "count"),
    ("preprocess.motion_ms", "ms"),
    ("preprocess.skullstrip_ms", "ms"),
    ("preprocess.temporal_ms", "ms"),
    ("preprocess.motion_candidates", "count"),
    ("atlas.region_average_ms", "ms"),
    ("bench.gen_late_ms", "ms"),
    ("bench.gen_payload_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("host.mem_gbps", "GB/s"),
    ("host.mem_array_mib", "MiB"),
    ("host.llc_mib", "MiB"),
    ("host.fma_gflops_1t", "GFLOP/s"),
    ("host.fma_gflops_nt", "GFLOP/s"),
];

/// A metric name: starts with a letter or digit, at most 64 of letters,
/// digits, `_`, `.` and `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Operation counts and metric values of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation and says why on stderr.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("perfbench: failed: {why}");
    }

    /// The result line for the metric class `list`; an error names the
    /// first metric that is missing or not finite.
    pub fn result_line(&self, list: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurodeanon_testkit::json::{self, Value};

    #[test]
    fn name_and_unit_charsets() {
        assert!(valid_name("core.correlate_batch_us.q16"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_unit("GFLOP/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"x".repeat(17)));
    }

    #[test]
    fn every_metric_is_valid_and_named_once() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_needs_every_metric() {
        let mut r = Report::default();
        assert!(r.result_line(&[("setup_s", "s")]).is_err());
        r.set("setup_s", 0.25);
        r.attempt(3);
        let line = r.result_line(&[("setup_s", "s")]).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(3.0));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.25));
        r.set("setup_s", f64::NAN);
        assert!(r.result_line(&[("setup_s", "s")]).is_err());
    }
}
