//! JSONL export of an observability snapshot.
//!
//! The `obs` crate sits below the workspace's JSON layer, so it only
//! *collects* span/counter/gauge state; this module renders a
//! [`neurodeanon_obs::Snapshot`] into the bench trajectory format — one
//! record per span node (`"record": "obs_span"`), counter
//! (`"obs_counter"`), and gauge (`"obs_gauge"`) — through
//! [`crate::timing::append_jsonl`], which stamps every line with the host
//! metadata (`seq`, `threads`, `profile`) shared by all bench records.

use crate::timing::append_jsonl;
use neurodeanon_obs::Snapshot;
use neurodeanon_testkit::{json, Value};
use std::path::Path;

/// Renders every span node of `snap` as JSON records, parents before
/// children (the snapshot's path order).
pub fn span_records(snap: &Snapshot, run: &str) -> Vec<Value> {
    snap.spans
        .iter()
        .map(|n| {
            json!({
                "record": "obs_span",
                "run": run,
                "path": n.path.as_str(),
                "name": n.name.as_str(),
                "depth": n.depth as f64,
                "count": n.stats.count as f64,
                "total_ns": n.stats.total_ns as f64,
                "min_ns": n.stats.min_ns as f64,
                "max_ns": n.stats.max_ns as f64,
            })
        })
        .collect()
}

/// Renders every counter and gauge of `snap` as JSON records.
pub fn metric_records(snap: &Snapshot, run: &str) -> Vec<Value> {
    let counters = snap.counters.iter().map(|(name, value)| {
        json!({
            "record": "obs_counter",
            "run": run,
            "name": name.as_str(),
            "value": *value as f64,
        })
    });
    let gauges = snap.gauges.iter().map(|(name, last, max)| {
        json!({
            "record": "obs_gauge",
            "run": run,
            "name": name.as_str(),
            "last": *last,
            "max": *max,
        })
    });
    counters.chain(gauges).collect()
}

/// Appends the whole snapshot (spans, then counters, then gauges) to a
/// JSONL file. `run` tags every record so several exports can share one
/// trajectory file.
pub fn export_jsonl(snap: &Snapshot, run: &str, path: &Path) -> std::io::Result<()> {
    for record in span_records(snap, run)
        .iter()
        .chain(metric_records(snap, run).iter())
    {
        append_jsonl(path, record)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurodeanon_obs as obs;
    use neurodeanon_testkit::json::parse;

    #[test]
    fn exported_snapshot_round_trips_through_the_json_parser() {
        // Build a tiny snapshot by hand via the public obs API. The obs
        // registries are process-global; this is the only bench test that
        // touches them, so no cross-test lock is needed.
        obs::reset();
        obs::enable();
        {
            let _root = obs::span("export.root");
            let _child = obs::span("export.child");
        }
        obs::counter("export.events").add(3);
        obs::gauge("export.level").set(0.5);
        let snap = obs::snapshot();
        obs::disable();

        let path =
            std::env::temp_dir().join(format!("nd_trace_export_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        export_jsonl(&snap, "unit", &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<Value> = text.lines().map(|l| parse(l).unwrap()).collect();
        // The obs registries are process-global, so sibling tests may have
        // registered extra counters; look our records up by name/path
        // instead of asserting an exact total.
        let by = |key: &str, want: &str| {
            records
                .iter()
                .find(|r| r.get(key).and_then(Value::as_str) == Some(want))
                .unwrap_or_else(|| panic!("no record with {key}={want}"))
        };

        let root = by("path", "export.root");
        assert_eq!(root.get("record").and_then(Value::as_str), Some("obs_span"));
        assert_eq!(root.get("run").and_then(Value::as_str), Some("unit"));
        let child = by("path", "export.root/export.child");
        assert_eq!(child.get("depth").and_then(Value::as_f64), Some(1.0));
        assert_eq!(child.get("count").and_then(Value::as_f64), Some(1.0));
        let counter = by("name", "export.events");
        assert_eq!(
            counter.get("record").and_then(Value::as_str),
            Some("obs_counter")
        );
        assert_eq!(counter.get("value").and_then(Value::as_f64), Some(3.0));
        let gauge = by("name", "export.level");
        assert_eq!(
            gauge.get("record").and_then(Value::as_str),
            Some("obs_gauge")
        );
        assert_eq!(gauge.get("last").and_then(Value::as_f64), Some(0.5));
        // Host stamping applies to trace records too.
        assert!(root.get("seq").is_some());
        assert!(root.get("threads").is_some());
        obs::reset();
        std::fs::remove_file(&path).unwrap();
    }
}
