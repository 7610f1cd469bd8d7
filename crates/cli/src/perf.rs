//! `droplens perf diff` / `droplens mem diff` — metric-by-metric
//! comparison of run reports with a noise-aware regression gate.
//!
//! Each side of a diff is a comma-separated list of run-report JSON
//! files (written by `--metrics=PATH` / `--mem=PATH` /
//! `reproduce --metrics-json`). Multiple reports per side are collapsed
//! **best-of-N**: a metric's value is its minimum across the side's
//! reports, which strips scheduler and cache noise the same way
//! `hyperfine --min` does. Metrics whose best base value sits under the
//! per-metric floor (`--floor-ms` / `--floor-bytes`) are compared but
//! never gated — a 2 ms span doubling is measurement noise, and a 4 KiB
//! scratch buffer doubling is allocator jitter, not a regression.
//!
//! Both commands share one engine ([`diff_gate`]) parameterized over
//! the unit ([`DiffUnit`]): `perf diff` compares span wall-clock in
//! seconds, `mem diff` compares `mem.*` gauges and per-span
//! `alloc_bytes` columns in bytes.

use std::collections::{BTreeMap, BTreeSet};

use droplens_obs::report::TextTable;
use droplens_obs::RunReport;

use crate::CliError;

/// The unit a diff compares in — controls rendering and the floor label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffUnit {
    /// Wall-clock nanoseconds, rendered as milliseconds.
    Seconds,
    /// Bytes, rendered with binary-unit suffixes.
    Bytes,
}

impl DiffUnit {
    fn render(self, v: u64) -> String {
        match self {
            DiffUnit::Seconds => format!("{:.3}ms", v as f64 / 1e6),
            DiffUnit::Bytes => droplens_obs::alloc::format_bytes(v),
        }
    }

    fn render_floor(self, floor: u64) -> String {
        match self {
            DiffUnit::Seconds => format!("{} ms", floor as f64 / 1e6),
            DiffUnit::Bytes => droplens_obs::alloc::format_bytes(floor),
        }
    }

    fn metric_label(self) -> &'static str {
        match self {
            DiffUnit::Seconds => "span",
            DiffUnit::Bytes => "metric",
        }
    }
}

/// Options for [`diff`].
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Fail (exit nonzero) when any gated span regresses by more than
    /// this percentage. `None` = report only, never fail.
    pub gate_pct: Option<f64>,
    /// Spans whose best-of-N base time is below this floor (milliseconds)
    /// are exempt from gating.
    pub floor_ms: f64,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            gate_pct: None,
            floor_ms: 5.0,
        }
    }
}

/// Options for [`mem_diff`].
#[derive(Debug, Clone)]
pub struct MemDiffOptions {
    /// Fail (exit nonzero) when any gated metric regresses by more than
    /// this percentage. `None` = report only, never fail.
    pub gate_pct: Option<f64>,
    /// Metrics whose best-of-N base value is below this floor (bytes)
    /// are exempt from gating.
    pub floor_bytes: u64,
}

impl Default for MemDiffOptions {
    fn default() -> MemDiffOptions {
        MemDiffOptions {
            gate_pct: None,
            floor_bytes: 1 << 20, // 1 MiB: allocator jitter territory below
        }
    }
}

/// Compare two sides of run reports span-by-span on wall-clock. Returns
/// the rendered table on success; a gated regression returns
/// [`CliError::Gate`] carrying the same rendering so the caller can
/// print it and exit nonzero.
pub fn diff(base_list: &str, head_list: &str, opts: &DiffOptions) -> Result<String, CliError> {
    let floor_ns = (opts.floor_ms * 1e6).max(0.0) as u64;
    diff_gate(
        base_list,
        head_list,
        DiffUnit::Seconds,
        opts.gate_pct,
        floor_ns,
        span_totals,
    )
}

/// Compare two sides of run reports on memory: every `mem.*` gauge plus
/// each span's `alloc_bytes` column (keyed `{path} alloc_bytes`). Gate
/// semantics as [`diff`], with the floor in bytes.
pub fn mem_diff(
    base_list: &str,
    head_list: &str,
    opts: &MemDiffOptions,
) -> Result<String, CliError> {
    diff_gate(
        base_list,
        head_list,
        DiffUnit::Bytes,
        opts.gate_pct,
        opts.floor_bytes,
        mem_metrics,
    )
}

/// The shared diff/gate engine: load both sides, collapse best-of-N via
/// `extract`, render the comparison table, and apply the gate.
fn diff_gate(
    base_list: &str,
    head_list: &str,
    unit: DiffUnit,
    gate_pct: Option<f64>,
    floor: u64,
    extract: fn(&RunReport) -> BTreeMap<String, u64>,
) -> Result<String, CliError> {
    let base_reports = load_side("base", base_list)?;
    let head_reports = load_side("head", head_list)?;
    let base = best_of(&base_reports, extract);
    let head = best_of(&head_reports, extract);

    let keys: BTreeSet<&String> = base.keys().chain(head.keys()).collect();
    let mut table = TextTable::new(vec![unit.metric_label(), "base", "head", "delta", "status"]);
    let mut regressions: Vec<String> = Vec::new();
    for key in keys {
        let (b, h) = (base.get(key), head.get(key));
        let row = match (b, h) {
            (Some(&b), Some(&h)) => {
                let delta_pct = match b {
                    0 => 0.0,
                    _ => (h as f64 - b as f64) / b as f64 * 100.0,
                };
                let gated = b >= floor;
                let status = match gate_pct {
                    Some(gate) if gated && delta_pct > gate => {
                        regressions.push(format!("{key} {delta_pct:+.1}%"));
                        "REGRESSED".to_owned()
                    }
                    _ if !gated => "below-floor".to_owned(),
                    _ => "ok".to_owned(),
                };
                vec![
                    key.clone(),
                    unit.render(b),
                    unit.render(h),
                    format!("{delta_pct:+.1}%"),
                    status,
                ]
            }
            (Some(&b), None) => vec![
                key.clone(),
                unit.render(b),
                "-".into(),
                "-".into(),
                "gone".into(),
            ],
            (None, Some(&h)) => vec![
                key.clone(),
                "-".into(),
                unit.render(h),
                "-".into(),
                "new".into(),
            ],
            (None, None) => unreachable!("key came from one of the maps"),
        };
        table.row(row);
    }

    let mut out = table.render();
    out.push_str(&format!(
        "\n{} {}s; best of {} base / {} head report(s); floor {}",
        table.len(),
        unit.metric_label(),
        base_reports.len(),
        head_reports.len(),
        unit.render_floor(floor),
    ));
    match gate_pct {
        Some(gate) if !regressions.is_empty() => {
            out.push_str(&format!(
                "\nFAIL: {} {}(s) regressed past the {gate}% gate: {}\n",
                regressions.len(),
                unit.metric_label(),
                regressions.join(", "),
            ));
            Err(CliError::Gate(out))
        }
        Some(gate) => {
            out.push_str(&format!(
                "\nPASS: no {} regressed past the {gate}% gate\n",
                unit.metric_label(),
            ));
            Ok(out)
        }
        None => {
            out.push('\n');
            Ok(out)
        }
    }
}

/// Read one side's comma-separated report list.
fn load_side(side: &str, list: &str) -> Result<Vec<RunReport>, CliError> {
    let reports: Vec<RunReport> = list
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| CliError::Io(p.to_owned(), e))?;
            RunReport::from_json(&text).map_err(|m| CliError::Usage(format!("{p}: {m}")))
        })
        .collect::<Result<_, _>>()?;
    if reports.is_empty() {
        return Err(CliError::Usage(format!(
            "diff: {side} side names no report files"
        )));
    }
    Ok(reports)
}

/// Best-of-N: each metric's minimum across the side's reports.
fn best_of(
    reports: &[RunReport],
    extract: fn(&RunReport) -> BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for r in reports {
        for (key, v) in extract(r) {
            out.entry(key).and_modify(|e| *e = (*e).min(v)).or_insert(v);
        }
    }
    out
}

/// `perf diff` metrics: span wall-clock totals by path.
fn span_totals(r: &RunReport) -> BTreeMap<String, u64> {
    r.spans
        .iter()
        .map(|(path, stat)| (path.clone(), stat.total_ns))
        .collect()
}

/// `mem diff` metrics: `mem.*` gauges plus per-span allocation columns.
/// Negative gauges (a live-byte reading can dip below zero per-shard)
/// clamp to 0 — a diff over byte magnitudes, not signed drift.
fn mem_metrics(r: &RunReport) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = r
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("mem."))
        .map(|(k, v)| (k.clone(), u64::try_from(*v).unwrap_or(0)))
        .collect();
    for (path, stat) in &r.spans {
        if stat.alloc_bytes > 0 {
            out.insert(format!("{path} alloc_bytes"), stat.alloc_bytes);
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;
    use droplens_obs::SpanStat;

    /// One recorded span per `(path, ms)`.
    fn report_json(spans: &[(&str, u64)]) -> String {
        let mut r = RunReport::default();
        for (path, ms) in spans {
            let stat = SpanStat {
                count: 1,
                total_ns: ms * 1_000_000,
                ..SpanStat::default()
            };
            r.spans.insert((*path).to_owned(), stat);
        }
        r.to_json()
    }

    /// A report with `mem.*` gauges and byte-carrying spans.
    fn mem_report_json(gauges: &[(&str, i64)], spans: &[(&str, u64)]) -> String {
        let mut r = RunReport::default();
        for (name, v) in gauges {
            r.gauges.insert((*name).to_owned(), *v);
        }
        for (path, bytes) in spans {
            let stat = SpanStat {
                count: 1,
                total_ns: 10_000_000,
                alloc_bytes: *bytes,
                freed_bytes: 0,
            };
            r.spans.insert((*path).to_owned(), stat);
        }
        r.to_json()
    }

    fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("droplens-perf-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let json = report_json(&[("reproduce", 100), ("reproduce/study", 60)]);
        let a = write_temp("ident_a.json", &json);
        let b = write_temp("ident_b.json", &json);
        let opts = DiffOptions {
            gate_pct: Some(15.0),
            floor_ms: 5.0,
        };
        let out = diff(a.to_str().unwrap(), b.to_str().unwrap(), &opts).unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("+0.0%"), "{out}");
    }

    #[test]
    fn regression_past_gate_fails() {
        let base = report_json(&[("reproduce", 100), ("reproduce/study", 60)]);
        let head = report_json(&[("reproduce", 130), ("reproduce/study", 61)]);
        let a = write_temp("reg_a.json", &base);
        let b = write_temp("reg_b.json", &head);
        let opts = DiffOptions {
            gate_pct: Some(15.0),
            floor_ms: 5.0,
        };
        let err = diff(a.to_str().unwrap(), b.to_str().unwrap(), &opts).unwrap_err();
        let CliError::Gate(out) = err else {
            panic!("expected gate failure");
        };
        assert!(out.contains("FAIL"), "{out}");
        assert!(out.contains("reproduce +30.0%"), "{out}");
        // The small within-gate drift is reported but not gated.
        assert!(out.contains("+1.7%"), "{out}");
    }

    #[test]
    fn best_of_n_takes_the_minimum_per_side() {
        let noisy = report_json(&[("reproduce", 140)]);
        let quiet = report_json(&[("reproduce", 100)]);
        let a1 = write_temp("bon_a1.json", &noisy);
        let a2 = write_temp("bon_a2.json", &quiet);
        let b = write_temp("bon_b.json", &quiet);
        let opts = DiffOptions {
            gate_pct: Some(15.0),
            floor_ms: 5.0,
        };
        // Base min is 100ms, not 140ms, so an identical head passes.
        let list = format!("{},{}", a1.display(), a2.display());
        let out = diff(&list, b.to_str().unwrap(), &opts).unwrap();
        assert!(out.contains("PASS"), "{out}");
    }

    #[test]
    fn below_floor_spans_never_gate() {
        let base = report_json(&[("reproduce", 100), ("tiny", 2)]);
        let head = report_json(&[("reproduce", 100), ("tiny", 4)]);
        let a = write_temp("floor_a.json", &base);
        let b = write_temp("floor_b.json", &head);
        let opts = DiffOptions {
            gate_pct: Some(15.0),
            floor_ms: 5.0,
        };
        // `tiny` doubled (+100%) but sits under the 5ms floor.
        let out = diff(a.to_str().unwrap(), b.to_str().unwrap(), &opts).unwrap();
        assert!(out.contains("below-floor"), "{out}");
        assert!(out.contains("PASS"), "{out}");
    }

    #[test]
    fn new_and_gone_spans_are_reported() {
        let base = report_json(&[("reproduce", 100), ("old_stage", 50)]);
        let head = report_json(&[("reproduce", 100), ("new_stage", 50)]);
        let a = write_temp("ng_a.json", &base);
        let b = write_temp("ng_b.json", &head);
        let out = diff(
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            &DiffOptions::default(),
        )
        .unwrap();
        assert!(out.contains("gone"), "{out}");
        assert!(out.contains("new"), "{out}");
    }

    #[test]
    fn mem_diff_gates_on_synthetic_regression() {
        // Peak RSS up 50% past a 15% gate: the acceptance fixture.
        let base = mem_report_json(
            &[
                ("mem.peak_rss_bytes", 100 << 20),
                ("mem.alloc_bytes", 80 << 20),
            ],
            &[("reproduce/load", 40 << 20)],
        );
        let head = mem_report_json(
            &[
                ("mem.peak_rss_bytes", 150 << 20),
                ("mem.alloc_bytes", 81 << 20),
            ],
            &[("reproduce/load", 41 << 20)],
        );
        let a = write_temp("memreg_a.json", &base);
        let b = write_temp("memreg_b.json", &head);
        let opts = MemDiffOptions {
            gate_pct: Some(15.0),
            ..MemDiffOptions::default()
        };
        let err = mem_diff(a.to_str().unwrap(), b.to_str().unwrap(), &opts).unwrap_err();
        let CliError::Gate(out) = err else {
            panic!("expected gate failure");
        };
        assert!(out.contains("FAIL"), "{out}");
        assert!(out.contains("mem.peak_rss_bytes +50.0%"), "{out}");
        // Within-gate drift on the others is reported but not gated.
        assert!(out.contains("ok"), "{out}");
        // Values render in bytes, not milliseconds.
        assert!(out.contains("MiB"), "{out}");
    }

    #[test]
    fn mem_diff_floor_exempts_small_metrics() {
        // A tiny scratch span triples, but sits under the 1 MiB floor;
        // identical big numbers pass.
        let base = mem_report_json(&[("mem.alloc_bytes", 80 << 20)], &[("tiny", 100 << 10)]);
        let head = mem_report_json(&[("mem.alloc_bytes", 80 << 20)], &[("tiny", 300 << 10)]);
        let a = write_temp("memfloor_a.json", &base);
        let b = write_temp("memfloor_b.json", &head);
        let opts = MemDiffOptions {
            gate_pct: Some(15.0),
            ..MemDiffOptions::default()
        };
        let out = mem_diff(a.to_str().unwrap(), b.to_str().unwrap(), &opts).unwrap();
        assert!(out.contains("below-floor"), "{out}");
        assert!(out.contains("PASS"), "{out}");
    }

    #[test]
    fn mem_diff_ignores_non_mem_gauges() {
        let base = mem_report_json(&[("mem.alloc_bytes", 10 << 20), ("queue.depth", 5)], &[]);
        let head = mem_report_json(&[("mem.alloc_bytes", 10 << 20), ("queue.depth", 500)], &[]);
        let a = write_temp("memskip_a.json", &base);
        let b = write_temp("memskip_b.json", &head);
        let opts = MemDiffOptions {
            gate_pct: Some(15.0),
            ..MemDiffOptions::default()
        };
        // queue.depth exploded but is not a mem metric.
        let out = mem_diff(a.to_str().unwrap(), b.to_str().unwrap(), &opts).unwrap();
        assert!(!out.contains("queue.depth"), "{out}");
        assert!(out.contains("PASS"), "{out}");
    }
}
