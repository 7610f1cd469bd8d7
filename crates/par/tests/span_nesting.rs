//! Registry span nesting across the fork-join helpers with tracing off.
//!
//! Lives alone in its own test binary: it sets `DROPLENS_THREADS`,
//! which every helper in the process reads.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use droplens_obs::Registry;

/// The span paths `r` recorded, with their counts.
fn paths(r: &Registry) -> Vec<(String, u64)> {
    r.report()
        .spans
        .into_iter()
        .map(|(path, stat)| (path, stat.count))
        .collect()
}

/// Open `inner` on the spawned side of `join`, and `chunk` inside every
/// `par_map` chunk, while `outer` is open on the calling thread.
fn fan_out(r: &Registry) {
    let outer = r.span("outer");
    droplens_par::join(|| (), || drop(r.span("inner")));
    let items: Vec<u32> = (0..8).collect();
    droplens_par::par_map(&items, |_| drop(r.span("chunk")));
    drop(outer);
}

#[test]
fn spawned_spans_nest_under_the_caller_with_tracing_off() {
    droplens_obs::trace::global().disable();
    let expected = vec![
        ("outer".to_owned(), 1),
        ("outer/chunk".to_owned(), 8),
        ("outer/inner".to_owned(), 1),
    ];
    for threads in ["2", "1"] {
        std::env::set_var("DROPLENS_THREADS", threads);
        let r = Registry::new();
        fan_out(&r);
        assert_eq!(paths(&r), expected, "DROPLENS_THREADS={threads}");
    }
}
