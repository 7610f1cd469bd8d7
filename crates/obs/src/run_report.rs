//! The run report: a plain-data snapshot of a registry, renderable as a
//! human text summary or a stable machine-readable JSON document.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::json::JsonObject;
use crate::metrics::HistogramSummary;
use crate::registry::{ErrorLog, SpanStat};
use crate::report::TextTable;

/// One row of the hierarchical rollup over span paths.
///
/// Recorded spans already *include* the wall-clock of spans nested under
/// them (an RAII span is open while its children run), so a recorded
/// path's rollup is simply its own total. The rollup exists for paths
/// that were never recorded themselves but have recorded descendants —
/// `stage` when only `stage/a` and `stage/b` were timed: their rollup is
/// the sum of their direct children's rollups, making `a` and `a/b`
/// consistently related in every report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanRollup {
    /// The directly recorded stat (zeroed for synthesized interior
    /// nodes).
    pub own: SpanStat,
    /// Own total when recorded, else the sum of direct children rollups.
    pub rollup_ns: u64,
    /// Bytes allocated: own when recorded, else the sum of direct
    /// children rollups (same rule as `rollup_ns` — a recorded RAII
    /// span's counters already include its children's).
    pub rollup_alloc_bytes: u64,
    /// Bytes freed, aggregated like `rollup_alloc_bytes`.
    pub rollup_freed_bytes: u64,
}

/// Everything a registry knew at snapshot time.
///
/// Produced by [`crate::Registry::report`]; `meta` is caller-populated
/// (seed, scale, command line) and travels into both renderings.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Free-form run context (seed, scale, ...), caller-populated.
    pub meta: BTreeMap<String, String>,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Span timings by nested path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Error tallies by source.
    pub errors: BTreeMap<String, ErrorLog>,
}

/// Render nanoseconds the way `Duration`'s `Debug` does (`1.23ms`).
fn ns(n: u64) -> String {
    format!("{:?}", Duration::from_nanos(n))
}

impl RunReport {
    /// True when nothing was recorded (meta is ignored).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
            && self.errors.is_empty()
    }

    /// Human-readable multi-section summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if !self.meta.is_empty() {
            let mut t = TextTable::new(vec!["meta", "value"]);
            for (k, v) in &self.meta {
                t.row(vec![k.as_str(), v.as_str()]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.spans.is_empty() {
            let mut t = TextTable::new(vec!["span", "count", "total", "mean", "rollup", "alloc"]);
            for (path, r) in self.span_rollups() {
                let (count, total, mean) = if r.own.count > 0 {
                    (
                        r.own.count.to_string(),
                        ns(r.own.total_ns),
                        ns(r.own.mean_ns()),
                    )
                } else {
                    // Synthesized interior node: no direct recordings.
                    ("-".to_owned(), "-".to_owned(), "-".to_owned())
                };
                // Byte column only when a tracking allocator recorded
                // anything — timing-only reports keep a quiet table.
                let alloc = if r.rollup_alloc_bytes > 0 {
                    crate::alloc::format_bytes(r.rollup_alloc_bytes)
                } else {
                    "-".to_owned()
                };
                t.row(vec![path, count, total, mean, ns(r.rollup_ns), alloc]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.counters.is_empty() {
            let mut t = TextTable::new(vec!["counter", "value"]);
            for (k, v) in &self.counters {
                t.row(vec![k.clone(), v.to_string()]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.gauges.is_empty() {
            let mut t = TextTable::new(vec!["gauge", "value"]);
            for (k, v) in &self.gauges {
                t.row(vec![k.clone(), v.to_string()]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.histograms.is_empty() {
            let mut t = TextTable::new(vec![
                "histogram",
                "count",
                "min",
                "p50",
                "p90",
                "p99",
                "max",
            ]);
            for (k, h) in &self.histograms {
                t.row(vec![
                    k.clone(),
                    h.count.to_string(),
                    h.min.to_string(),
                    h.p50.to_string(),
                    h.p90.to_string(),
                    h.p99.to_string(),
                    h.max.to_string(),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.errors.is_empty() {
            let mut t = TextTable::new(vec!["errors", "seen", "first samples"]);
            for (k, e) in &self.errors {
                t.row(vec![k.clone(), e.seen.to_string(), e.samples.join(" | ")]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// The hierarchical rollup over span paths: every recorded path plus
    /// synthesized interior nodes for unrecorded ancestors, so nested
    /// paths always aggregate under their parent prefix. See
    /// [`SpanRollup`] for the aggregation rule.
    pub fn span_rollups(&self) -> BTreeMap<String, SpanRollup> {
        let mut out: BTreeMap<String, SpanRollup> = BTreeMap::new();
        for (path, stat) in &self.spans {
            out.insert(
                path.clone(),
                SpanRollup {
                    own: *stat,
                    rollup_ns: stat.total_ns,
                    rollup_alloc_bytes: stat.alloc_bytes,
                    rollup_freed_bytes: stat.freed_bytes,
                },
            );
            // Synthesize every missing ancestor.
            let mut prefix = path.as_str();
            while let Some(cut) = prefix.rfind('/') {
                prefix = &prefix[..cut];
                out.entry(prefix.to_owned()).or_default();
            }
        }
        // Children sort strictly after their parent, so a reverse pass
        // sees every child's final rollup before its parent.
        let paths: Vec<String> = out.keys().cloned().collect();
        for path in paths.iter().rev() {
            let r = out[path];
            if r.own.count > 0 {
                continue; // recorded totals already include descendants
            }
            let prefix = format!("{path}/");
            let (sum_ns, sum_alloc, sum_freed) = out
                .iter()
                .filter(|(p, _)| {
                    p.strip_prefix(&prefix)
                        .is_some_and(|rest| !rest.contains('/'))
                })
                .fold((0u64, 0u64, 0u64), |(ns, ab, fb), (_, c)| {
                    (
                        ns + c.rollup_ns,
                        ab + c.rollup_alloc_bytes,
                        fb + c.rollup_freed_bytes,
                    )
                });
            if let Some(r) = out.get_mut(path) {
                r.rollup_ns = sum_ns;
                r.rollup_alloc_bytes = sum_alloc;
                r.rollup_freed_bytes = sum_freed;
            }
        }
        out
    }

    /// Look up a path's rollup total in nanoseconds (0 when the path has
    /// neither recordings nor recorded descendants).
    pub fn rollup_ns(&self, path: &str) -> u64 {
        self.span_rollups().get(path).map_or(0, |r| r.rollup_ns)
    }

    /// Stable machine-readable JSON (schema `droplens-obs/1`).
    ///
    /// Key order is deterministic (maps are sorted by name, field order
    /// is fixed), so identical runs produce byte-identical documents that
    /// scripts can read back (CI's `scale-smoke` compares span totals
    /// across worker counts this way).
    pub fn to_json(&self) -> String {
        let mut root = JsonObject::new();
        root.field_str("schema", "droplens-obs/1");

        let mut meta = JsonObject::new();
        for (k, v) in &self.meta {
            meta.field_str(k, v);
        }
        root.field_object("meta", meta);

        let mut counters = JsonObject::new();
        for (k, v) in &self.counters {
            counters.field_u64(k, *v);
        }
        root.field_object("counters", counters);

        let mut gauges = JsonObject::new();
        for (k, v) in &self.gauges {
            gauges.field_i64(k, *v);
        }
        root.field_object("gauges", gauges);

        let mut histograms = JsonObject::new();
        for (k, h) in &self.histograms {
            let mut o = JsonObject::new();
            o.field_u64("count", h.count)
                .field_u64("sum", h.sum)
                .field_u64("min", h.min)
                .field_u64("max", h.max)
                .field_u64("p50", h.p50)
                .field_u64("p90", h.p90)
                .field_u64("p99", h.p99);
            histograms.field_object(k, o);
        }
        root.field_object("histograms", histograms);

        let mut spans = JsonObject::new();
        for (k, s) in &self.spans {
            let mut o = JsonObject::new();
            o.field_u64("count", s.count)
                .field_u64("total_ns", s.total_ns)
                .field_u64("mean_ns", s.mean_ns());
            // Byte columns appear only when recorded, so timing-only
            // documents stay byte-identical to pre-mem reports.
            if s.alloc_bytes > 0 || s.freed_bytes > 0 {
                o.field_u64("alloc_bytes", s.alloc_bytes)
                    .field_u64("freed_bytes", s.freed_bytes);
            }
            spans.field_object(k, o);
        }
        root.field_object("spans", spans);

        let mut errors = JsonObject::new();
        for (k, e) in &self.errors {
            let mut o = JsonObject::new();
            o.field_u64("seen", e.seen)
                .field_str_array("samples", &e.samples);
            errors.field_object(k, o);
        }
        root.field_object("errors", errors);

        let mut out = root.finish();
        out.push('\n');
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    #[test]
    fn empty_report_renders() {
        let r = RunReport::default();
        assert!(r.is_empty());
        assert_eq!(r.to_text(), "(no metrics recorded)\n");
        assert!(r.to_json().starts_with("{\"schema\":\"droplens-obs/1\""));
    }

    fn stat(count: u64, total_ns: u64) -> SpanStat {
        SpanStat {
            count,
            total_ns,
            ..SpanStat::default()
        }
    }

    fn stat_mem(count: u64, total_ns: u64, alloc_bytes: u64, freed_bytes: u64) -> SpanStat {
        SpanStat {
            count,
            total_ns,
            alloc_bytes,
            freed_bytes,
        }
    }

    #[test]
    fn rollups_synthesize_unrecorded_ancestors() {
        let mut r = RunReport::default();
        r.spans.insert("run/exp/fig1".into(), stat(1, 100));
        r.spans.insert("run/exp/fig2".into(), stat(2, 300));
        r.spans.insert("run/load".into(), stat(1, 50));
        let rollups = r.span_rollups();
        // `run/exp` was never recorded: synthesized from its children.
        let exp = &rollups["run/exp"];
        assert_eq!(exp.own.count, 0);
        assert_eq!(exp.rollup_ns, 400);
        // `run` itself was never recorded either: children are its
        // *direct* children's rollups (run/exp + run/load), not a double
        // count of the leaves.
        assert_eq!(rollups["run"].rollup_ns, 450);
        assert_eq!(r.rollup_ns("run"), 450);
        assert_eq!(r.rollup_ns("absent"), 0);
    }

    #[test]
    fn recorded_parents_keep_their_own_total_as_rollup() {
        // An RAII parent span's total already includes its children;
        // its rollup must not add them again.
        let mut r = RunReport::default();
        r.spans.insert("study".into(), stat(1, 1000));
        r.spans.insert("study/load".into(), stat(1, 400));
        r.spans.insert("study/index".into(), stat(1, 500));
        let rollups = r.span_rollups();
        assert_eq!(rollups["study"].rollup_ns, 1000);
        assert_eq!(rollups["study"].own.count, 1);
    }

    #[test]
    fn rollups_aggregate_byte_columns() {
        // Synthesized ancestors sum the byte columns of their direct
        // children — rollup totals equal the sum of the leaf spans.
        let mut r = RunReport::default();
        r.spans
            .insert("run/exp/fig1".into(), stat_mem(1, 100, 4096, 1024));
        r.spans
            .insert("run/exp/fig2".into(), stat_mem(2, 300, 8192, 2048));
        r.spans.insert("run/load".into(), stat_mem(1, 50, 512, 0));
        let rollups = r.span_rollups();
        let leaves_alloc = 4096 + 8192;
        let leaves_freed = 1024 + 2048;
        assert_eq!(rollups["run/exp"].rollup_alloc_bytes, leaves_alloc);
        assert_eq!(rollups["run/exp"].rollup_freed_bytes, leaves_freed);
        assert_eq!(rollups["run"].rollup_alloc_bytes, leaves_alloc + 512);
        assert_eq!(rollups["run"].rollup_freed_bytes, leaves_freed);
        // A recorded parent keeps its own bytes (they already include
        // the children's) instead of double-counting.
        let mut r2 = RunReport::default();
        r2.spans
            .insert("study".into(), stat_mem(1, 1000, 10_000, 0));
        r2.spans
            .insert("study/load".into(), stat_mem(1, 400, 6_000, 0));
        assert_eq!(r2.span_rollups()["study"].rollup_alloc_bytes, 10_000);
    }

    #[test]
    fn span_table_shows_alloc_column() {
        let mut r = RunReport::default();
        r.spans
            .insert("run/a".into(), stat_mem(1, 1_000_000, 3 << 20, 1 << 20));
        r.spans.insert("run/b".into(), stat(1, 1_000));
        let text = r.to_text();
        assert!(text.contains("alloc"), "{text}");
        assert!(text.contains("3.0MiB"), "{text}");
        // Timing-only rows show a dash, not 0B.
        assert!(
            text.lines()
                .any(|l| l.starts_with("run/b") && l.ends_with('-')),
            "{text}"
        );
    }

    #[test]
    fn json_round_trips_byte_columns() {
        let mut r = RunReport::default();
        r.spans
            .insert("run/load".into(), stat_mem(1, 500, 2048, 1024));
        r.spans.insert("run/plain".into(), stat(1, 100));
        let json = r.to_json();
        assert!(json.contains("\"alloc_bytes\":2048"), "{json}");
        // Timing-only spans omit the byte fields entirely.
        assert!(!json.contains("\"alloc_bytes\":0"), "{json}");
    }

    #[test]
    fn rollups_do_not_mix_sibling_name_prefixes() {
        // "a" and "ab" share a string prefix but not a path prefix.
        let mut r = RunReport::default();
        r.spans.insert("a/x".into(), stat(1, 10));
        r.spans.insert("ab/x".into(), stat(1, 20));
        let rollups = r.span_rollups();
        assert_eq!(rollups["a"].rollup_ns, 10);
        assert_eq!(rollups["ab"].rollup_ns, 20);
    }

    #[test]
    fn span_table_shows_rollup_column() {
        let mut r = RunReport::default();
        r.spans.insert("run/a".into(), stat(1, 1_000_000));
        let text = r.to_text();
        assert!(text.contains("rollup"), "{text}");
        // Synthesized interior row for `run` with only a rollup.
        assert!(
            text.lines()
                .any(|l| l.starts_with("run ") && l.contains('-')),
            "{text}"
        );
    }
}
