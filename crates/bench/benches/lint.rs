//! Whole-workspace lint wall time: every file is read, lexed and
//! checked on its own, fanned out over `droplens-par`. Sequential vs.
//! parallel pins the speedup and catches a regression in either.
//!
//! Run with `cargo bench -p droplens-bench --bench lint`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use std::path::Path;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use droplens_lint::{collect_rs_files, lint_files_with};

fn bench_lint(c: &mut Criterion) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = collect_rs_files(&[root]).expect("walk workspace");
    let mut g = c.benchmark_group("lint");
    g.sample_size(10).measurement_time(Duration::from_secs(10));

    g.bench_function("bench_lint_workspace_seq", |b| {
        b.iter(|| lint_files_with(1, &files).expect("lint workspace"));
    });
    g.bench_function("bench_lint_workspace_par", |b| {
        b.iter(|| lint_files_with(droplens_par::max_threads(), &files).expect("lint workspace"));
    });
    g.finish();
}

criterion_group!(benches, bench_lint);
criterion_main!(benches);
