//! `summarize` — renders a `repro_results.jsonl` file (written by the
//! `repro` binary) as a compact table: one line per experiment record with
//! its headline numbers, newest record per experiment id winning. This is
//! the tooling EXPERIMENTS.md is assembled from.
//!
//! ```text
//! summarize [results.jsonl]
//! ```

use neurodeanon_testkit::{json, Value};
use std::collections::BTreeMap;

/// Extracts a one-line headline from an experiment's JSON payload.
fn headline(id: &str, data: &Value) -> String {
    let pct = |v: &Value| -> String {
        v.as_f64()
            .map(|x| format!("{:.1}%", x * 100.0))
            .unwrap_or_else(|| "—".into())
    };
    match id {
        "fig2" => format!(
            "accuracy {}, contrast {:.3} (rest ref {:.3})",
            pct(&data["accuracy"]),
            data["contrast"].as_f64().unwrap_or(f64::NAN),
            data["rest_contrast"].as_f64().unwrap_or(f64::NAN),
        ),
        "fig1" | "fig7" | "fig8" | "fig9" => {
            format!(
                "accuracy {}, diag {:.3} vs off {:.3}",
                pct(&data["accuracy"]),
                data["mean_diagonal"].as_f64().unwrap_or(f64::NAN),
                data["mean_offdiagonal"].as_f64().unwrap_or(f64::NAN),
            )
        }
        "fig5" => {
            let acc = &data["accuracy"];
            let diag: Vec<String> = (0..8)
                .map(|i| {
                    acc[i][i]
                        .as_f64()
                        .map(|v| format!("{v:.2}"))
                        .unwrap_or_else(|| "—".into())
                })
                .collect();
            format!("same-task diagonal: [{}]", diag.join(", "))
        }
        "fig6" => format!(
            "overall {:.1}%, rest {:.1}%",
            data["overall"][0].as_f64().unwrap_or(f64::NAN),
            data["per_task"][0][0].as_f64().unwrap_or(f64::NAN),
        ),
        "table1" => {
            let rows: Vec<String> = data
                .as_array()
                .map(|arr| {
                    arr.iter()
                        .map(|r| {
                            format!(
                                "{} {:.1}%",
                                r["task"].as_str().unwrap_or("?"),
                                r["test"][0].as_f64().unwrap_or(f64::NAN)
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            format!("test nRMSE: {}", rows.join(", "))
        }
        "table2" => {
            let hcp: Vec<String> = data["hcp"]
                .as_array()
                .map(|arr| {
                    arr.iter()
                        .map(|p| format!("{:.1}", p[0].as_f64().unwrap_or(f64::NAN)))
                        .collect()
                })
                .unwrap_or_default();
            format!("HCP accuracy over noise sweep: [{}]", hcp.join(", "))
        }
        "localization" => format!(
            "signature-only {}, outside {}, unrestricted {}",
            pct(&data["signature_only"]),
            pct(&data["outside_only"]),
            pct(&data["unrestricted"]),
        ),
        "defense" => format!(
            "baseline {}, targeted @max-σ {}",
            pct(&data["baseline"]),
            data["points"]
                .as_array()
                .and_then(|p| p.last())
                .map(|p| pct(&p["targeted"]))
                .unwrap_or_else(|| "—".into()),
        ),
        "robustness" => {
            let policies: Vec<String> = data["policies"]
                .as_array()
                .map(|arr| {
                    arr.iter()
                        .map(|p| {
                            let worst = p["points"]
                                .as_array()
                                .into_iter()
                                .flatten()
                                .filter_map(|pt| pt["accuracy"].as_f64())
                                .reduce(f64::min)
                                .map_or(Value::Null, Value::Number);
                            format!(
                                "{} baseline {}, worst {}",
                                p["policy"].as_str().unwrap_or("?"),
                                pct(&p["baseline"]),
                                pct(&worst),
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            policies.join("; ")
        }
        "openworld" => {
            let rates: Vec<String> = data["results"]
                .as_array()
                .map(|arr| {
                    arr.iter()
                        .map(|r| {
                            format!(
                                "{:.2} → {}",
                                r["enroll_rate"].as_f64().unwrap_or(f64::NAN),
                                pct(&r["rank1"])
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            format!(
                "baseline {}, rank-1 by enroll rate: [{}]",
                pct(&data["baseline"]),
                rates.join(", ")
            )
        }
        "block-timing" => format!(
            "timing-aware [{:.1}%, {:.1}%] vs blind [{:.1}%, {:.1}%]",
            data["timing_aware"][0][0].as_f64().unwrap_or(f64::NAN),
            data["timing_aware"][1][0].as_f64().unwrap_or(f64::NAN),
            data["timing_blind"][0][0].as_f64().unwrap_or(f64::NAN),
            data["timing_blind"][1][0].as_f64().unwrap_or(f64::NAN),
        ),
        _ => "(see JSON payload)".to_string(),
    }
}

/// Fits a title into the 44-column title field: titles longer than 42
/// characters keep their first 41 and gain an ellipsis. Counts characters,
/// not bytes, so a multi-byte title is never cut inside a character.
fn short_title(title: &str) -> String {
    if title.chars().count() > 42 {
        format!("{}…", title.chars().take(41).collect::<String>())
    } else {
        title.to_string()
    }
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "repro_results.jsonl".to_string());
    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("summarize: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    // Latest record per experiment id wins.
    let mut latest: BTreeMap<String, Value> = BTreeMap::new();
    for (lineno, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match json::parse(line) {
            Ok(v) => {
                if let Some(id) = v["id"].as_str() {
                    latest.insert(id.to_string(), v);
                }
            }
            Err(e) => eprintln!("summarize: skipping malformed line {}: {e}", lineno + 1),
        }
    }
    if latest.is_empty() {
        eprintln!("summarize: no records in {path}");
        std::process::exit(1);
    }
    println!("{:<14} {:<44} headline", "experiment", "title");
    for (id, v) in &latest {
        let title = short_title(v["title"].as_str().unwrap_or(""));
        println!("{:<14} {:<44} {}", id, title, headline(id, &v["data"]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_title_counts_characters_not_bytes() {
        // 30 two-byte characters: 60 bytes, but short enough to keep whole.
        let narrow = "×".repeat(30);
        assert_eq!(short_title(&narrow), narrow);
        let long = "×".repeat(50);
        assert_eq!(short_title(&long), format!("{}…", "×".repeat(41)));
        assert_eq!(short_title(&"a".repeat(42)), "a".repeat(42));
        assert_eq!(short_title(&"a".repeat(43)), format!("{}…", "a".repeat(41)));
    }

    #[test]
    fn robustness_and_openworld_have_headlines() {
        let robustness = json::parse(
            r#"{"policies":[{"policy":"mask","baseline":1.0,"points":[
                {"accuracy":0.5},{"accuracy":null},{"accuracy":0.75}]}]}"#,
        )
        .unwrap();
        assert_eq!(
            headline("robustness", &robustness),
            "mask baseline 100.0%, worst 50.0%"
        );
        let openworld =
            json::parse(r#"{"baseline":0.5,"results":[{"enroll_rate":0.25,"rank1":1.0}]}"#)
                .unwrap();
        assert_eq!(
            headline("openworld", &openworld),
            "baseline 50.0%, rank-1 by enroll rate: [0.25 → 100.0%]"
        );
    }
}
