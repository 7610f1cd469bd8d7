//! End-to-end tests of the allocation-tracking profiler.
//!
//! This binary installs the tracking allocator for real (the obs unit
//! tests drive the shard machinery manually instead), so every test
//! here exercises the actual `GlobalAlloc` path: counter flow,
//! per-span attribution through local tracers and the registry, peak
//! nesting, threads that allocate before any span opens, and alloc
//! attribution across `par::join2..5` adoption. Tests run on separate
//! harness threads and shards are per-thread, so they do not disturb
//! each other's counters.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

use std::hint::black_box;

use droplens_obs::trace::{ArgValue, EventKind, Tracer};
use droplens_obs::{alloc, Registry};

#[global_allocator]
static ALLOC: alloc::TrackingAlloc = alloc::TrackingAlloc::system();

const MIB: usize = 1 << 20;

/// Allocate (and immediately drop) `n` bytes the optimizer cannot elide.
fn churn(n: usize) {
    let v: Vec<u8> = black_box(vec![7u8; n]);
    black_box(v.len());
}

#[test]
fn allocator_counts_thread_allocations() {
    let before = alloc::thread_counts().expect("tracking allocator active");
    churn(MIB);
    let after = alloc::thread_counts().unwrap();
    assert!(
        after.alloc_bytes - before.alloc_bytes >= MIB as u64,
        "1 MiB churn under-counted: {before:?} -> {after:?}"
    );
    assert!(
        after.freed_bytes - before.freed_bytes >= MIB as u64,
        "free not counted: {before:?} -> {after:?}"
    );
    assert!(alloc::is_active());
    // The process-wide snapshot includes this thread's shard.
    let snap = alloc::snapshot();
    assert!(snap.alloc_bytes >= after.alloc_bytes);
    assert!(snap.alloc_ops > 0);
    assert!(snap.threads > 0);
}

#[test]
fn thread_allocating_before_any_span_is_counted() {
    // A thread that allocates before opening any span lands in its own
    // tid-level shard — the bytes are not dropped on the floor.
    let counts = std::thread::spawn(|| {
        churn(2 * MIB);
        alloc::thread_counts().expect("fresh thread sees active allocator")
    })
    .join()
    .unwrap();
    assert!(
        counts.alloc_bytes >= 2 * MIB as u64,
        "pre-span thread bytes lost: {counts:?}"
    );
    // And a mark opened *after* allocations still brackets correctly.
    let delta = std::thread::spawn(|| {
        churn(MIB); // before the mark: must not leak into the delta below
        let m = alloc::mark().unwrap();
        churn(64 * 1024);
        m.finish()
    })
    .join()
    .unwrap();
    assert!(delta.alloc_bytes >= 64 * 1024, "{delta:?}");
    assert!(
        delta.alloc_bytes < MIB as u64,
        "pre-mark churn leaked into the mark: {delta:?}"
    );
}

#[test]
fn trace_spans_carry_alloc_attribution() {
    let t = Tracer::new();
    t.enable();
    {
        let _g = t.span("hungry", "test");
        let keep: Vec<u8> = black_box(vec![1u8; 4 * MIB]);
        black_box(keep.len());
        // `keep` drops before the guard: both columns see ≥ 4 MiB.
    }
    t.disable();
    let trace = t.drain();
    let span = trace
        .events
        .iter()
        .find(|e| e.name == "hungry" && e.kind == EventKind::Span)
        .expect("span recorded");
    let arg = |key: &str| {
        span.args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    };
    let alloc_bytes = arg("alloc_bytes").expect("span carries alloc_bytes");
    let freed_bytes = arg("freed_bytes").expect("span carries freed_bytes");
    let peak_delta = arg("peak_delta").expect("span carries peak_delta");
    assert!(alloc_bytes >= 4 * MIB as u64, "{alloc_bytes}");
    assert!(freed_bytes >= 4 * MIB as u64, "{freed_bytes}");
    assert!(peak_delta >= 4 * MIB as u64, "{peak_delta}");
    // Each span close also sampled this worker's live bytes.
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.kind == EventKind::Counter && e.name == "live_bytes"),
        "no live_bytes counter sample"
    );
    // And the counter renders as a per-worker Chrome track.
    assert!(trace.to_chrome_json().contains("\"ph\":\"C\""));
}

#[test]
fn nested_spans_compose_peaks() {
    let t = Tracer::new();
    t.enable();
    {
        let _outer = t.span("outer", "test");
        churn(4 * MIB); // excursion before the inner span opens
        let _inner = t.span("inner", "test");
        churn(256 * 1024);
    }
    t.disable();
    let trace = t.drain();
    let peak_of = |name: &str| {
        trace
            .events
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| {
                e.args.iter().find_map(|(k, v)| match v {
                    ArgValue::U64(n) if *k == "peak_delta" => Some(*n),
                    _ => None,
                })
            })
            .unwrap_or_else(|| panic!("{name}: no peak_delta"))
    };
    let inner = peak_of("inner");
    let outer = peak_of("outer");
    // The inner span only saw its own 256 KiB excursion (the mark
    // rebased the peak), while the outer span still reports the 4 MiB
    // one from before the inner span opened.
    assert!(inner >= 256 * 1024, "{inner}");
    assert!(
        inner < 4 * MIB as u64,
        "inner absorbed the outer peak: {inner}"
    );
    assert!(outer >= 4 * MIB as u64, "{outer}");
}

#[test]
fn registry_spans_gain_byte_columns() {
    let r = Registry::new();
    {
        let _s = r.span("stage");
        churn(3 * MIB);
    }
    let report = r.report();
    let stat = &report.spans["stage"];
    assert!(
        stat.alloc_bytes >= 3 * MIB as u64,
        "registry span missed bytes: {stat:?}"
    );
    assert!(stat.freed_bytes >= 3 * MIB as u64, "{stat:?}");
    // The byte columns reach the JSON report.
    let json = report.to_json();
    assert!(json.contains("\"alloc_bytes\""), "{json}");
    // mem gauges fold into the same registry on demand.
    alloc::record_gauges(&r);
    let report = r.report();
    assert!(report.gauges["mem.alloc_bytes"] > 0);
    assert!(report.gauges["mem.peak_rss_bytes"] > 0);
    // The text table renders the humanized alloc column.
    assert!(report.to_text().contains("alloc"), "{}", report.to_text());
}

#[test]
fn join_adoption_attributes_worker_allocations() {
    // Spans opened inside `par::join2..5` closures run on scoped worker
    // threads but adopt the calling thread's open span; their alloc
    // columns must carry the *worker's* bytes and still nest under the
    // adopting parent.
    std::env::set_var("DROPLENS_THREADS", "4");
    let tracer = droplens_obs::trace::global();
    tracer.enable();
    let parent = tracer.span("fanout", "test");
    let pid = parent.id();
    let spanned_churn = |name: &'static str, bytes: usize| {
        move || {
            let _g = droplens_obs::trace::global().span(name, "test");
            churn(bytes);
        }
    };
    droplens_par::join(spanned_churn("j2.a", MIB), spanned_churn("j2.b", 2 * MIB));
    droplens_par::join3(
        spanned_churn("j3.a", MIB),
        spanned_churn("j3.b", MIB),
        spanned_churn("j3.c", MIB),
    );
    droplens_par::join4(
        spanned_churn("j4.a", MIB),
        spanned_churn("j4.b", MIB),
        spanned_churn("j4.c", MIB),
        spanned_churn("j4.d", MIB),
    );
    droplens_par::join5(
        spanned_churn("j5.a", MIB),
        spanned_churn("j5.b", MIB),
        spanned_churn("j5.c", MIB),
        spanned_churn("j5.d", MIB),
        spanned_churn("j5.e", MIB),
    );
    drop(parent);
    tracer.disable();
    let trace = tracer.drain();

    let by_id: std::collections::BTreeMap<u64, &droplens_obs::TraceEvent> =
        trace.events.iter().map(|e| (e.id, e)).collect();
    let under_parent = |mut id: u64| {
        while let Some(e) = by_id.get(&id) {
            if e.id == pid {
                return true;
            }
            id = e.parent;
        }
        false
    };
    for name in [
        "j2.a", "j2.b", "j3.a", "j3.b", "j3.c", "j4.a", "j4.b", "j4.c", "j4.d", "j5.a", "j5.b",
        "j5.c", "j5.d", "j5.e",
    ] {
        let span = trace
            .events
            .iter()
            .find(|e| e.name == name && e.kind == EventKind::Span)
            .unwrap_or_else(|| panic!("no {name} span"));
        assert!(under_parent(span.id), "{name} not under the adopting span");
        let alloc_bytes = span
            .args
            .iter()
            .find_map(|(k, v)| match v {
                ArgValue::U64(n) if *k == "alloc_bytes" => Some(*n),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{name}: no alloc_bytes arg"));
        assert!(
            alloc_bytes >= MIB as u64,
            "{name} under-attributed: {alloc_bytes}"
        );
    }
    // The deeper side of join2 attributed its larger churn.
    let j2b = trace
        .events
        .iter()
        .find(|e| e.name == "j2.b")
        .and_then(|e| {
            e.args.iter().find_map(|(k, v)| match v {
                ArgValue::U64(n) if *k == "alloc_bytes" => Some(*n),
                _ => None,
            })
        })
        .unwrap();
    assert!(j2b >= 2 * MIB as u64, "{j2b}");
}

#[test]
fn mem_snapshot_summary_renders() {
    churn(MIB);
    let snap = alloc::snapshot();
    let line = snap.summary();
    assert!(line.starts_with("mem: "), "{line}");
    assert!(line.contains("allocated"), "{line}");
    assert!(line.contains("peak RSS"), "{line}");
    // Linux CI: the RSS sample is real, not "n/a".
    if cfg!(target_os = "linux") {
        assert!(!line.contains("n/a"), "{line}");
    }
}
