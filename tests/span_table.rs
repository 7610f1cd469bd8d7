//! The pipeline's run-report span table, pinned.
//!
//! CI's scale-smoke job compares span totals path by path between 1 and
//! 8 workers, so the table `Study::from_text` +
//! `ExperimentResults::compute` records must not depend on the worker
//! count or on whether tracing is on.
//! Lives alone in its own test binary: it owns the process-global
//! registry, the global tracer and `DROPLENS_THREADS`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use std::collections::BTreeMap;

use droplens_core::paper::ExperimentResults;
use droplens_core::{Study, StudyConfig};
use droplens_net::DateRange;
use droplens_synth::{World, WorldConfig};

/// Every span path one study build plus one experiment suite records,
/// each exactly once.
const PINNED: [&str; 25] = [
    "annotate",
    "correlate",
    "experiments",
    "experiments/ext_maxlen",
    "experiments/ext_profiles",
    "experiments/ext_rov",
    "experiments/fig1",
    "experiments/fig2",
    "experiments/fig3",
    "experiments/fig4",
    "experiments/fig5",
    "experiments/fig6",
    "experiments/fig7",
    "experiments/sec4",
    "experiments/sec5",
    "experiments/sec6",
    "experiments/summary",
    "experiments/table1",
    "experiments/table2",
    "index",
    "ledger",
    "load",
    "load/drop_repair",
    "load/rir_repair",
    "release",
];

#[test]
fn span_table_is_the_same_at_any_thread_count_traced_or_not() {
    let world = World::generate(42, &WorldConfig::small());
    let text = world.to_text_archives();
    let mut config = StudyConfig::new(DateRange::inclusive(
        world.config.study_start,
        world.config.study_end,
    ));
    config.manual_labels = world.manual_labels();

    let registry = droplens_obs::global();
    let tracer = droplens_obs::trace::global();
    let pinned: BTreeMap<String, u64> = PINNED.iter().map(|p| ((*p).to_owned(), 1)).collect();
    for threads in ["1", "2"] {
        for traced in [false, true] {
            std::env::set_var("DROPLENS_THREADS", threads);
            registry.reset();
            if traced {
                tracer.enable();
            }
            let study = Study::from_text(config.clone(), world.peers.clone(), &text)
                .expect("clean archives parse");
            ExperimentResults::compute(&study);
            tracer.disable();
            drop(tracer.drain());
            let table: BTreeMap<String, u64> = registry
                .report()
                .spans
                .into_iter()
                .map(|(path, stat)| (path, stat.count))
                .collect();
            assert_eq!(table, pinned, "DROPLENS_THREADS={threads} traced={traced}");
        }
    }
}
