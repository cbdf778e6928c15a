//! Behavioural suite for the observability crate: span nesting and RAII
//! balance (early returns, `?`-propagation, out-of-LIFO drops), counter and
//! gauge semantics across resets, and the determinism fingerprint's
//! exclusion of `rt.*` runtime telemetry.
//!
//! The span registry, counters, and gauges are process-global, so every
//! test serializes on one mutex and starts from `obs::reset()`.

use neurodeanon_obs as obs;
use std::sync::Mutex;

/// Global-state lock: the test harness runs tests on several threads, but
/// all of these mutate the same registries.
static GLOBAL: Mutex<()> = Mutex::new(());

fn isolated<T>(f: impl FnOnce() -> T) -> T {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::enable();
    let out = f();
    obs::disable();
    obs::reset();
    out
}

#[test]
fn nested_spans_build_slash_joined_paths() {
    isolated(|| {
        {
            let _root = obs::span("plan.run");
            {
                let _child = obs::span("plan.correlate");
                let _leaf = obs::span("stats.xcorr");
            }
            let _child2 = obs::span("plan.match");
        }
        let snap = obs::snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "plan.run",
                "plan.run/plan.correlate",
                "plan.run/plan.correlate/stats.xcorr",
                "plan.run/plan.match",
            ]
        );
        // Depth and leaf names are derived from the path.
        let leaf = snap.span("plan.run/plan.correlate/stats.xcorr").unwrap();
        assert_eq!(leaf.depth, 2);
        assert_eq!(leaf.name, "stats.xcorr");
        assert!(snap.spans.iter().all(|n| n.stats.count == 1));
    });
}

#[test]
fn repeated_spans_aggregate_counts_and_times() {
    isolated(|| {
        for _ in 0..5 {
            let _g = obs::span("stage");
        }
        let snap = obs::snapshot();
        let node = snap.span("stage").unwrap();
        assert_eq!(node.stats.count, 5);
        assert!(node.stats.min_ns <= node.stats.max_ns);
        assert!(node.stats.total_ns >= node.stats.max_ns);
    });
}

#[test]
fn spans_balance_across_early_returns_and_question_mark() {
    fn early(n: usize) -> usize {
        let _g = obs::span("early");
        if n == 0 {
            return 0;
        }
        n * 2
    }
    fn fallible(fail: bool) -> Result<usize, String> {
        let _g = obs::span("fallible");
        let inner = || -> Result<usize, String> {
            let _h = obs::span("inner");
            if fail {
                return Err("boom".to_string());
            }
            Ok(1)
        };
        let v = inner()?;
        Ok(v + 1)
    }
    isolated(|| {
        assert_eq!(early(0), 0);
        assert_eq!(early(3), 6);
        assert!(fallible(true).is_err());
        assert_eq!(fallible(false).unwrap(), 2);
        // Every exit path closed its spans: nothing left open, and the
        // error path recorded `inner` exactly as often as the happy path.
        assert_eq!(obs::span::open_depth(), 0);
        let snap = obs::snapshot();
        assert_eq!(snap.span("early").unwrap().stats.count, 2);
        assert_eq!(snap.span("fallible").unwrap().stats.count, 2);
        assert_eq!(snap.span("fallible/inner").unwrap().stats.count, 2);
    });
}

#[test]
fn out_of_lifo_drop_does_not_corrupt_sibling_paths() {
    isolated(|| {
        let outer = obs::span("outer");
        let inner = obs::span("inner");
        // Dropping the *outer* guard first truncates the stack back to its
        // own frame; the inner guard then records without a double-pop.
        drop(outer);
        let _sibling = obs::span("sibling");
        drop(inner);
        assert_eq!(obs::span::open_depth(), 1); // `sibling` still open
        drop(_sibling);
        let snap = obs::snapshot();
        assert!(snap.span("outer").is_some());
        assert!(snap.span("outer/inner").is_some());
        // The sibling opened *after* outer closed, so it is a root span.
        assert!(snap.span("sibling").is_some());
        assert_eq!(obs::span::open_depth(), 0);
    });
}

#[test]
fn disabled_spans_are_inert() {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::disable();
    {
        let _g = obs::span("ghost");
        assert_eq!(obs::span::open_depth(), 0);
    }
    assert!(obs::snapshot().spans.is_empty());
    obs::reset();
}

#[test]
fn counters_and_gauges_survive_reset_as_handles() {
    isolated(|| {
        let c = obs::counter("test.events");
        c.add(41);
        c.incr();
        assert_eq!(c.get(), 42);
        let g = obs::gauge("test.level");
        g.set(3.5);
        g.set(1.0);
        assert_eq!(g.get(), 1.0);
        assert_eq!(g.max(), 3.5);

        obs::reset();
        // Same handles, zeroed values; re-lookup returns the same counter.
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(g.max(), 0.0);
        c.incr();
        assert_eq!(obs::counter("test.events").get(), 1);
    });
}

#[test]
fn fingerprint_excludes_runtime_namespace() {
    isolated(|| {
        {
            let _g = obs::span("work");
        }
        obs::counter("svd.thin_calls").add(3);
        obs::counter("rt.par.busy_ns").add(123_456);
        obs::gauge("plan.gallery_bytes").set(800.0);
        obs::gauge("rt.par.imbalance").set(1.7);
        let fp = obs::snapshot().fingerprint();
        assert!(fp.contains("span work ×1"), "{fp}");
        assert!(fp.contains("counter svd.thin_calls = 3"), "{fp}");
        assert!(fp.contains("gauge plan.gallery_bytes = 800"), "{fp}");
        assert!(!fp.contains("rt.par.busy_ns"), "{fp}");
        assert!(!fp.contains("rt.par.imbalance"), "{fp}");
        assert!(obs::is_runtime_metric("rt.par.busy_ns"));
        assert!(!obs::is_runtime_metric("par.tiles"));
        // The match server's metrics are runtime telemetry too: batching
        // and shedding are arrival-timing-dependent, so rt.serve.* metrics
        // must never enter the fingerprint.
        assert!(obs::is_runtime_metric("rt.serve.queue_depth"));
        assert!(obs::is_runtime_metric("rt.serve.batches"));
        assert!(!obs::is_runtime_metric("served.total"));
    });
}

#[test]
fn fingerprint_ignores_timings_entirely() {
    isolated(|| {
        // Two epochs of the same shape with very different durations must
        // fingerprint identically.
        {
            let _g = obs::span("stage");
        }
        obs::counter("n.calls").incr();
        let fast = obs::snapshot().fingerprint();
        obs::reset();
        {
            let _g = obs::span("stage");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        obs::counter("n.calls").incr();
        let slow = obs::snapshot().fingerprint();
        assert_eq!(fast, slow);
    });
}

#[test]
fn child_fraction_attributes_stage_time() {
    isolated(|| {
        {
            let _root = obs::span("root");
            {
                let _a = obs::span("a");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
            {
                let _b = obs::span("b");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let snap = obs::snapshot();
        let frac = snap.child_fraction("root").unwrap();
        assert!(
            frac > 0.5 && frac <= 1.0 + 1e-9,
            "children should dominate the root: {frac}"
        );
        assert!(snap.child_fraction("missing").is_none());
    });
}

#[test]
fn render_tree_indents_children_and_lists_metrics() {
    isolated(|| {
        {
            let _root = obs::span("root");
            let _child = obs::span("child");
        }
        obs::counter("events").add(7);
        obs::gauge("level").set(2.5);
        let text = obs::snapshot().render_tree();
        assert!(text.contains("root"), "{text}");
        assert!(text.contains("\n  child"), "child must be indented: {text}");
        assert!(text.contains("events"), "{text}");
        assert!(text.contains("level"), "{text}");
    });
}

#[test]
fn worker_thread_spans_root_at_their_own_thread() {
    // Spans opened on another thread must not attach to this thread's open
    // span (nesting is thread-local by design; the workspace convention is
    // that worker closures record counters, not spans).
    isolated(|| {
        let _root = obs::span("main.root");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = obs::span("worker.task");
            });
        });
        drop(_root);
        let snap = obs::snapshot();
        assert!(snap.span("worker.task").is_some());
        assert!(snap.span("main.root/worker.task").is_none());
    });
}

#[cfg(feature = "alloc-stats")]
#[test]
fn alloc_accountant_tracks_heap_growth() {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = obs::alloc::stats();
    let v: Vec<u8> = vec![0u8; 1 << 20];
    let during = obs::alloc::stats();
    assert!(during.calls > before.calls);
    assert!(during.bytes_peak >= before.bytes_peak.max(1 << 20));
    drop(v);
    obs::alloc::publish_gauges();
    assert!(obs::gauge("rt.alloc.bytes_peak").get() >= (1 << 20) as f64);
}
