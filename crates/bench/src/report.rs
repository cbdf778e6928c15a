//! Text + JSON experiment reports.
//!
//! The `repro` binary prints a human-readable block per experiment and
//! appends a machine-readable JSON record to `repro_results.jsonl`, which
//! EXPERIMENTS.md quotes. JSON is written and parsed by the in-repo
//! [`neurodeanon_testkit::json`](mod@neurodeanon_testkit::json) module, so
//! the harness has no external serialization dependency.

use neurodeanon_testkit::{json, Value};
use std::io::Write as _;

/// One experiment's report: a title, free-form text lines, and a JSON
/// payload for the results file.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. `"fig5"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Result payload (arbitrary JSON).
    pub data: Value,
    /// Pre-formatted table lines for the terminal (not serialized).
    pub lines: Vec<String>,
}

impl Report {
    /// Creates a report.
    pub fn new(id: &str, title: &str) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            data: Value::Null,
            lines: Vec::new(),
        }
    }

    /// Adds a display line.
    pub fn line(&mut self, s: impl Into<String>) -> &mut Self {
        self.lines.push(s.into());
        self
    }

    /// Sets the JSON payload.
    pub fn data(&mut self, v: Value) -> &mut Self {
        self.data = v;
        self
    }

    /// Prints the report block to stdout.
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        for l in &self.lines {
            println!("{l}");
        }
    }

    /// The JSON record appended to the results file.
    pub fn record(&self) -> Value {
        json!({
            "id": self.id.as_str(),
            "title": self.title.as_str(),
            "data": self.data.clone(),
        })
    }

    /// Appends the JSON record to `path` (JSON-lines format).
    pub fn append_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.record())
    }
}

/// Formats a `(mean, std)` pair the way the paper's tables do.
pub fn pm(v: (f64, f64)) -> String {
    format!("{:.2} ± {:.2}", v.0, v.1)
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurodeanon_testkit::json::parse;

    #[test]
    fn report_builds_and_serializes() {
        let mut r = Report::new("fig1", "rest similarity");
        r.line("hello").data(json!({"acc": 0.94}));
        assert_eq!(r.lines.len(), 1);
        let dir = std::env::temp_dir().join("neurodeanon_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let _ = std::fs::remove_file(&path);
        r.append_json(&path).unwrap();
        r.append_json(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2);
        assert!(content.contains("fig1"));
    }

    #[test]
    fn written_record_parses_back_with_fields_intact() {
        let mut r = Report::new("e9", "round trip");
        r.data(json!({
            "accuracy": 0.875,
            "n": 16,
            "curve": vec![0.5, 0.75, 0.875],
        }));
        let dir = std::env::temp_dir().join("neurodeanon_report_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let _ = std::fs::remove_file(&path);
        r.append_json(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let back = parse(content.lines().next().unwrap()).unwrap();
        assert_eq!(back["id"].as_str(), Some("e9"));
        assert_eq!(back["title"].as_str(), Some("round trip"));
        assert_eq!(back["data"]["accuracy"].as_f64(), Some(0.875));
        assert_eq!(back["data"]["n"].as_f64(), Some(16.0));
        assert_eq!(back["data"]["curve"][2].as_f64(), Some(0.875));
        assert_eq!(back, r.record());
    }

    #[test]
    fn formatting() {
        assert_eq!(pm((1.234, 0.5)), "1.23 ± 0.50");
        assert_eq!(pct(0.944), "94.4%");
    }
}
