//! Integration coverage for droplens-obs: histogram edge cases,
//! concurrent counters, span nesting, and the JSON report shape.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use droplens_obs::{Histogram, Registry, RunReport, SpanStat};

/// One recorded span of `total_ns`, as a run report row.
fn stat(total_ns: u64) -> SpanStat {
    SpanStat {
        count: 1,
        total_ns,
        ..SpanStat::default()
    }
}

#[test]
fn empty_histogram_has_no_quantiles() {
    let h = Histogram::new();
    assert_eq!(h.count(), 0);
    assert_eq!(h.min(), None);
    assert_eq!(h.max(), None);
    assert_eq!(h.quantile(0.5), None);
    let s = h.summary();
    assert_eq!(s.count, 0);
    assert_eq!((s.min, s.max, s.p50, s.p90, s.p99), (0, 0, 0, 0, 0));
}

#[test]
fn single_sample_is_every_quantile() {
    let h = Histogram::new();
    h.record(37);
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(h.quantile(q), Some(37), "q={q}");
    }
    let s = h.summary();
    assert_eq!((s.count, s.sum, s.min, s.max), (1, 37, 37, 37));
    assert_eq!((s.p50, s.p90, s.p99), (37, 37, 37));
}

#[test]
fn zero_samples_land_in_the_zero_bucket() {
    let h = Histogram::new();
    h.record(0);
    h.record(0);
    assert_eq!(h.quantile(0.5), Some(0));
    assert_eq!(h.min(), Some(0));
    assert_eq!(h.max(), Some(0));
}

#[test]
fn overflow_bucket_samples_clamp_to_observed_max() {
    let h = Histogram::new();
    // Far beyond the last finite bucket boundary (2^62).
    h.record(u64::MAX);
    h.record(u64::MAX - 1);
    assert_eq!(h.quantile(0.99), Some(u64::MAX));
    assert_eq!(h.min(), Some(u64::MAX - 1));
    // The estimate never exceeds the observed extremes even though the
    // overflow bucket nominally spans to u64::MAX.
    assert!(h.quantile(0.01).unwrap() >= u64::MAX - 1);
}

#[test]
fn quantiles_are_within_a_bucket_of_truth() {
    let h = Histogram::new();
    for v in 1..=1000u64 {
        h.record(v);
    }
    // Log-bucket estimation: correct bucket, so within a factor of two.
    let p50 = h.quantile(0.5).unwrap();
    assert!((256..=1000).contains(&p50), "p50={p50}");
    let p99 = h.quantile(0.99).unwrap();
    assert!((512..=1000).contains(&p99), "p99={p99}");
    assert_eq!(h.quantile(1.0), Some(1000));
    assert_eq!(h.quantile(0.0), Some(1));
    assert_eq!(h.sum(), 500500);
}

#[test]
fn duration_recording_saturates() {
    let h = Histogram::new();
    h.record_duration(Duration::from_nanos(1500));
    h.record_duration(Duration::MAX); // > u64::MAX ns
    assert_eq!(h.count(), 2);
    assert_eq!(h.max(), Some(u64::MAX));
    assert_eq!(h.min(), Some(1500));
}

#[test]
fn concurrent_counter_increments_are_lossless() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let registry = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                // Resolve once, update often — the intended hot path.
                let c = registry.counter("shared");
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    assert_eq!(
        registry.counter("shared").value(),
        THREADS as u64 * PER_THREAD
    );
}

#[test]
fn concurrent_histogram_records_are_lossless() {
    let registry = Arc::new(Registry::new());
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                let h = registry.histogram("latency");
                for i in 0..1000u64 {
                    h.record(t * 1000 + i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    assert_eq!(registry.histogram("latency").count(), 4000);
}

#[test]
fn span_nesting_order_is_reflected_in_paths() {
    let r = Registry::new();
    {
        let _a = r.span("outer");
        {
            let _b = r.span("mid");
            let _c = r.span("inner");
        }
        // After the nested pair closes, new spans nest under `outer` only.
        let _d = r.span("second");
    }
    let report = r.report();
    let paths: Vec<&str> = report.spans.keys().map(String::as_str).collect();
    assert_eq!(
        paths,
        vec!["outer", "outer/mid", "outer/mid/inner", "outer/second"]
    );
    // A parent's total covers its children.
    assert!(report.spans["outer"].total_ns >= report.spans["outer/mid"].total_ns);
}

#[test]
fn spans_nest_per_thread_not_across_threads() {
    let registry = Arc::new(Registry::new());
    let outer = registry.span("main_thread");
    let r2 = Arc::clone(&registry);
    thread::spawn(move || {
        // Opened on a different thread: no `main_thread/` prefix.
        let s = r2.span("worker");
        assert_eq!(s.path(), "worker");
    })
    .join()
    .expect("worker panicked");
    drop(outer);
    let report = registry.report();
    assert!(report.spans.contains_key("worker"));
    assert!(report.spans.contains_key("main_thread"));
}

#[test]
fn json_report_is_stable_and_escaped() {
    let r = Registry::new();
    r.counter("b.count").add(2);
    r.counter("a.count").inc();
    r.gauge("depth").set(-3);
    r.histogram("lat").record(8);
    r.error_sample("src", "bad \"line\"\n1");
    let mut report = r.report();
    report.meta.insert("seed".to_owned(), "42".to_owned());
    report.spans.insert("stage/sub".to_owned(), stat(500));

    let expected = concat!(
        "{\"schema\":\"droplens-obs/1\",",
        "\"meta\":{\"seed\":\"42\"},",
        "\"counters\":{\"a.count\":1,\"b.count\":2},",
        "\"gauges\":{\"depth\":-3},",
        "\"histograms\":{\"lat\":{\"count\":1,\"sum\":8,\"min\":8,\"max\":8,",
        "\"p50\":8,\"p90\":8,\"p99\":8}},",
        "\"spans\":{\"stage/sub\":{\"count\":1,\"total_ns\":500,\"mean_ns\":500}},",
        "\"errors\":{\"src\":{\"seen\":1,\"samples\":[\"bad \\\"line\\\"\\n1\"]}}}\n",
    );
    assert_eq!(report.to_json(), expected);
    // Same registry state → byte-identical document.
    let mut again = r.report();
    again.meta.insert("seed".to_owned(), "42".to_owned());
    again.spans.insert("stage/sub".to_owned(), stat(500));
    assert_eq!(again.to_json(), expected);
}

#[test]
fn text_report_renders_all_sections() {
    let r = Registry::new();
    r.counter("records").add(7);
    r.gauge("pool").set(5);
    r.histogram("lat").record(100);
    r.error_sample("parser", "oops");
    let mut report = r.report();
    report.meta.insert("scale".to_owned(), "small".to_owned());
    report.spans.insert("stage".to_owned(), stat(2_000_000));
    let text = report.to_text();
    for needle in ["scale", "stage", "records", "pool", "lat", "parser", "oops"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn empty_run_report_defaults() {
    let report = RunReport {
        meta: BTreeMap::new(),
        ..RunReport::default()
    };
    assert!(report.is_empty());
    assert!(report.to_json().contains("\"counters\":{}"));
}
