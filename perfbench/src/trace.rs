//! The benchmark's in-memory span recorder.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer's public functions, never inside the program. A span has a name
//! (`<layer>.<call>`), start and end times, the span that caused it and,
//! for serve queries, a request id. A span's self time is its duration
//! minus the part of its interval that its child spans cover.

use std::io::Write;
use std::time::Instant;

/// One recorded span; times are seconds since the recorder's origin.
/// `key` is the request id of a serve query, the feature count `t` of an
/// attack-path call, or the batch size of a batched correlation.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub key: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when enabled; a disabled recorder only runs the closures.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds since the recorder's origin.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span; spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.open_span(name, None, f)
    }

    /// [`Recorder::span`] with a key (see [`Span`]).
    pub fn span_keyed<T>(
        &mut self,
        name: &'static str,
        key: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.open_span(name, Some(key), f)
    }

    fn open_span<T>(
        &mut self,
        name: &'static str,
        key: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.at(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            key,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.at(Instant::now());
        out
    }

    /// Adds a finished span measured elsewhere (a serve query timed on the
    /// reply thread) under the span `parent`.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        key: Option<u64>,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            key,
        });
    }

    /// Index of the latest span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Seconds of `[lo, hi]` that no layer span covers: the self time of the
    /// benchmark's own spans (names starting `bench.`) plus the part of the
    /// window outside every root span.
    pub fn unattributed(&self, lo: f64, hi: f64) -> f64 {
        let roots: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start >= lo && s.end <= hi)
            .map(|s| (s.start, s.end))
            .collect();
        let own: f64 = (0..self.spans.len())
            .filter(|&i| {
                let s = &self.spans[i];
                s.name.starts_with("bench.") && s.start >= lo && s.end <= hi
            })
            .map(|i| self_time(&self.spans, i))
            .sum();
        (hi - lo) - union_len(&roots) + own
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Durations in seconds of every span named `name` with key `key`.
    pub fn durations_keyed(&self, name: &str, key: u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.key == Some(key))
            .map(Span::duration)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let key = s.key.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"key\":{key}}}",
                s.name,
                s.start * 1e6,
                s.end * 1e6
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals` (each `(start, end)`).
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Self time of span `idx`: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
pub fn self_time(spans: &[Span], idx: usize) -> f64 {
    let p = &spans[idx];
    let children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start.max(p.start), s.end.min(p.end)))
        .collect();
    p.duration() - union_len(&children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            key: None,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_gaps() {
        assert_eq!(union_len(&[(1.0, 3.0), (2.0, 5.0), (8.0, 10.0)]), 6.0);
        assert_eq!(union_len(&[(8.0, 10.0), (1.0, 3.0)]), 4.0);
        assert_eq!(union_len(&[(1.0, 5.0), (2.0, 3.0)]), 4.0);
        assert_eq!(union_len(&[(1.0, 1.0)]), 0.0);
        assert_eq!(union_len(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_covered_part_of_children() {
        let spans = vec![
            span("core.run_with", 0.0, 10.0, None),
            span("linalg.gather", 1.0, 3.0, Some(0)),
            span("linalg.xcorr", 2.0, 5.0, Some(0)),
            // Runs past its parent: only [8, 10] is covered.
            span("core.match", 8.0, 12.0, Some(0)),
            // A grandchild covers nothing of the root directly.
            span("linalg.zscore", 3.5, 4.0, Some(2)),
        ];
        assert_eq!(self_time(&spans, 0), 10.0 - 6.0);
        assert_eq!(self_time(&spans, 2), 3.0 - 0.5);
        assert_eq!(self_time(&spans, 4), 0.5);
    }

    #[test]
    fn unattributed_counts_bench_self_time_and_root_gaps() {
        let mut rec = Recorder::new(true);
        rec.spans = vec![
            span("bench.sweep", 1.0, 5.0, None),
            span("core.run_with", 1.5, 3.0, Some(0)),
            span("bench.replay", 3.0, 4.5, Some(0)),
            span("linalg.xcorr_fused", 3.5, 4.0, Some(2)),
            span("bench.serve", 6.0, 8.0, None),
            span("core.serve_query", 6.0, 7.0, Some(4)),
            span("core.serve_query", 6.5, 7.5, Some(4)),
        ];
        // Window [0, 10]: 4 s outside roots; bench.sweep self 1.0,
        // bench.replay self 1.0, bench.serve self 0.5.
        assert_eq!(rec.unattributed(0.0, 10.0), 4.0 + 1.0 + 1.0 + 0.5);
    }

    #[test]
    fn recorder_nests_and_skips_when_disabled() {
        let mut rec = Recorder::new(true);
        let v = rec.span("outer", |rec| rec.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(self_time(rec.spans(), 0) >= 0.0);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", |rec| rec.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
