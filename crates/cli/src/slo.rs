//! `droplens slo check` — gate a load-gen report against per-kind
//! service-level objectives.
//!
//! The spec is a small TOML subset (all this workspace needs, parsed
//! here so the gate stays dependency-free): `#` comments, a `[default]`
//! section, and one `[kind.NAME]` section per query kind, each carrying
//! `p99_ms` (latency ceiling, milliseconds) and/or `max_error_rate`
//! (failed/sent ceiling, 0..1). A kind section inherits whatever the
//! default leaves set; a kind the report never sent (`sent == 0`) is
//! reported as `no-data` and never gated — an SLO over zero traffic is
//! vacuous, not green.
//!
//! The report side is the JSON written by `droplens serve --load-gen
//! --report PATH`, whose `kinds` array carries per-kind sent/ok/failed
//! tallies and end-to-end latency quantiles. Violations always render
//! in the table; `--gate` additionally turns them into
//! [`CliError::Gate`] so CI exits nonzero.

use std::collections::BTreeMap;
use std::path::Path;

use droplens_obs::json::{self, Value};
use droplens_obs::report::TextTable;

use crate::CliError;

/// Targets for one query kind (or the default section). `None` means
/// "no objective set" — that dimension is never checked.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloTarget {
    /// End-to-end p99 latency ceiling, milliseconds.
    pub p99_ms: Option<f64>,
    /// Failed/sent ceiling, 0..=1.
    pub max_error_rate: Option<f64>,
}

impl SloTarget {
    /// True when neither dimension carries an objective.
    pub fn is_empty(&self) -> bool {
        self.p99_ms.is_none() && self.max_error_rate.is_none()
    }
}

/// A parsed SLO spec: the `[default]` targets plus per-kind overrides.
#[derive(Debug, Clone, Default)]
pub struct SloSpec {
    /// Targets applied to every kind that has no override.
    pub default: SloTarget,
    /// Per-kind overrides, keyed by the `KIND_LABELS` name.
    pub kinds: BTreeMap<String, SloTarget>,
}

impl SloSpec {
    /// Parse the TOML subset. Errors carry the 1-based line number.
    pub fn parse(text: &str) -> Result<SloSpec, String> {
        let mut spec = SloSpec::default();
        // Which section the cursor is in; None until the first header.
        let mut section: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if let Some(inner) = line.strip_prefix('[') {
                let Some(name) = inner.strip_suffix(']') else {
                    return Err(format!("line {lineno}: unterminated section header"));
                };
                let name = name.trim();
                if name == "default" {
                    section = Some("default".to_owned());
                } else if let Some(kind) = name.strip_prefix("kind.") {
                    let kind = kind.trim();
                    if kind.is_empty() {
                        return Err(format!("line {lineno}: empty kind name"));
                    }
                    spec.kinds.entry(kind.to_owned()).or_default();
                    section = Some(kind.to_owned());
                } else {
                    return Err(format!(
                        "line {lineno}: unknown section [{name}] (want [default] or [kind.NAME])"
                    ));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {lineno}: expected `key = value`"));
            };
            let (key, value) = (key.trim(), value.trim());
            let number: f64 = value
                .parse()
                .map_err(|_| format!("line {lineno}: {key} wants a number, got {value:?}"))?;
            if !number.is_finite() || number < 0.0 {
                return Err(format!(
                    "line {lineno}: {key} must be a finite non-negative number"
                ));
            }
            let Some(current) = &section else {
                return Err(format!(
                    "line {lineno}: {key} outside any section (start with [default])"
                ));
            };
            let target = if current == "default" {
                &mut spec.default
            } else {
                spec.kinds.entry(current.clone()).or_default()
            };
            match key {
                "p99_ms" => target.p99_ms = Some(number),
                "max_error_rate" => {
                    if number > 1.0 {
                        return Err(format!("line {lineno}: max_error_rate must be in 0..=1"));
                    }
                    target.max_error_rate = Some(number);
                }
                other => {
                    return Err(format!(
                        "line {lineno}: unknown key {other:?} (want p99_ms or max_error_rate)"
                    ))
                }
            }
        }
        Ok(spec)
    }

    /// The effective targets for `kind`: the kind's own section with
    /// unset dimensions inherited from `[default]`.
    pub fn target_for(&self, kind: &str) -> SloTarget {
        let own = self.kinds.get(kind).copied().unwrap_or_default();
        SloTarget {
            p99_ms: own.p99_ms.or(self.default.p99_ms),
            max_error_rate: own.max_error_rate.or(self.default.max_error_rate),
        }
    }
}

/// What the report said about one kind.
struct KindRow {
    kind: String,
    sent: u64,
    failed: u64,
    p99_ns: u64,
}

/// Pull the per-kind rows out of a load-report JSON document.
fn report_kinds(report: &Value) -> Result<Vec<KindRow>, String> {
    let kinds = report
        .get("kinds")
        .ok_or("report has no `kinds` array (need a load-gen --report file)")?;
    let mut rows = Vec::with_capacity(kinds.items().len());
    for item in kinds.items() {
        let field = |key: &str| {
            item.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("kind entry missing numeric {key:?}"))
        };
        rows.push(KindRow {
            kind: item
                .get("kind")
                .and_then(Value::as_str)
                .ok_or("kind entry missing `kind` label")?
                .to_owned(),
            sent: field("sent")?,
            failed: field("failed")?,
            p99_ns: item
                .get("latency_ns")
                .and_then(|l| l.get("p99"))
                .and_then(Value::as_u64)
                .ok_or("kind entry missing latency_ns.p99")?,
        });
    }
    Ok(rows)
}

/// `droplens slo check`: evaluate `report_path` against `spec_path`.
/// Violations always show in the table; with `gate` they become
/// [`CliError::Gate`] (report printed, exit nonzero, no usage noise).
pub fn check(spec_path: &Path, report_path: &Path, gate: bool) -> Result<String, CliError> {
    let spec_text = std::fs::read_to_string(spec_path)
        .map_err(|e| CliError::Io(spec_path.display().to_string(), e))?;
    let spec = SloSpec::parse(&spec_text)
        .map_err(|m| CliError::Usage(format!("{}: {m}", spec_path.display())))?;
    let report_text = std::fs::read_to_string(report_path)
        .map_err(|e| CliError::Io(report_path.display().to_string(), e))?;
    let report = json::parse(&report_text)
        .map_err(|e| CliError::Usage(format!("{}: {e}", report_path.display())))?;
    let rows = report_kinds(&report)
        .map_err(|m| CliError::Usage(format!("{}: {m}", report_path.display())))?;
    render_check(&spec, &rows, gate)
}

/// The check engine behind [`check`], separated from file IO for tests.
fn render_check(spec: &SloSpec, rows: &[KindRow], gate: bool) -> Result<String, CliError> {
    let mut table = TextTable::new(vec![
        "kind", "sent", "p99", "target", "err-rate", "target", "status",
    ]);
    let mut violations: Vec<String> = Vec::new();
    let fmt_ms = |ns: u64| format!("{:.1}ms", ns as f64 / 1e6);
    let fmt_target_ms = |t: Option<f64>| match t {
        Some(ms) => format!("{ms}ms"),
        None => "-".to_owned(),
    };
    let fmt_target_rate = |t: Option<f64>| match t {
        Some(rate) => format!("{rate}"),
        None => "-".to_owned(),
    };
    for row in rows {
        let target = spec.target_for(&row.kind);
        let status = if row.sent == 0 {
            "no-data".to_owned()
        } else if target.is_empty() {
            "no-target".to_owned()
        } else {
            let mut broken: Vec<String> = Vec::new();
            if let Some(p99_ms) = target.p99_ms {
                if row.p99_ns as f64 > p99_ms * 1e6 {
                    broken.push(format!(
                        "{} p99 {} > {p99_ms}ms",
                        row.kind,
                        fmt_ms(row.p99_ns)
                    ));
                }
            }
            if let Some(max_rate) = target.max_error_rate {
                let rate = row.failed as f64 / row.sent as f64;
                if rate > max_rate {
                    broken.push(format!("{} error rate {rate:.4} > {max_rate}", row.kind));
                }
            }
            if broken.is_empty() {
                "ok".to_owned()
            } else {
                violations.extend(broken);
                "VIOLATED".to_owned()
            }
        };
        let err_rate = if row.sent == 0 {
            "-".to_owned()
        } else {
            format!("{:.4}", row.failed as f64 / row.sent as f64)
        };
        table.row(vec![
            row.kind.clone(),
            row.sent.to_string(),
            if row.sent == 0 {
                "-".to_owned()
            } else {
                fmt_ms(row.p99_ns)
            },
            fmt_target_ms(target.p99_ms),
            err_rate,
            fmt_target_rate(target.max_error_rate),
            status,
        ]);
    }
    let mut out = table.render();
    if violations.is_empty() {
        out.push_str(&format!(
            "\nPASS: {} kind(s) within SLO targets\n",
            rows.len()
        ));
        Ok(out)
    } else {
        out.push_str(&format!(
            "\nFAIL: {} SLO violation(s): {}\n",
            violations.len(),
            violations.join("; "),
        ));
        if gate {
            Err(CliError::Gate(out))
        } else {
            Ok(out)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    const SPEC: &str = "\
# serve SLOs for CI
[default]
p99_ms = 50          # every kind unless overridden
max_error_rate = 0.0

[kind.scorecard]
p99_ms = 200         # big render, slower ceiling

[kind.stats]
max_error_rate = 0.05
";

    #[test]
    fn parse_sections_and_inheritance() {
        let spec = SloSpec::parse(SPEC).unwrap();
        assert_eq!(spec.default.p99_ms, Some(50.0));
        // scorecard overrides latency, inherits the error rate.
        let sc = spec.target_for("scorecard");
        assert_eq!(sc.p99_ms, Some(200.0));
        assert_eq!(sc.max_error_rate, Some(0.0));
        // stats overrides the rate, inherits latency.
        let st = spec.target_for("stats");
        assert_eq!(st.p99_ms, Some(50.0));
        assert_eq!(st.max_error_rate, Some(0.05));
        // unmentioned kinds get the default wholesale.
        assert_eq!(spec.target_for("ping"), spec.default);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = SloSpec::parse("[default]\np99_ms = fast\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = SloSpec::parse("p99_ms = 5\n").unwrap_err();
        assert!(err.contains("outside any section"), "{err}");
        let err = SloSpec::parse("[kind.ping]\nmax_error_rate = 2.0\n").unwrap_err();
        assert!(err.contains("0..=1"), "{err}");
        let err = SloSpec::parse("[typo]\n").unwrap_err();
        assert!(err.contains("unknown section"), "{err}");
        let err = SloSpec::parse("[default]\nburst = 9\n").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
    }

    fn row(kind: &str, sent: u64, failed: u64, p99_ns: u64) -> KindRow {
        KindRow {
            kind: kind.to_owned(),
            sent,
            failed,
            p99_ns,
        }
    }

    #[test]
    fn within_targets_passes() {
        let spec = SloSpec::parse(SPEC).unwrap();
        let rows = [
            row("ping", 100, 0, 10_000_000),
            row("scorecard", 10, 0, 150_000_000),
        ];
        let out = render_check(&spec, &rows, true).unwrap();
        assert!(out.contains("PASS"), "{out}");
    }

    #[test]
    fn latency_violation_gates() {
        let spec = SloSpec::parse(SPEC).unwrap();
        let rows = [row("ping", 100, 0, 80_000_000)];
        let err = render_check(&spec, &rows, true).unwrap_err();
        let CliError::Gate(out) = err else {
            panic!("expected gate failure");
        };
        assert!(out.contains("VIOLATED"), "{out}");
        assert!(out.contains("ping p99 80.0ms > 50ms"), "{out}");
        // Without --gate the same violation renders but returns Ok.
        let out = render_check(&spec, &rows, false).unwrap();
        assert!(out.contains("FAIL"), "{out}");
    }

    #[test]
    fn error_rate_violation_gates() {
        let spec = SloSpec::parse(SPEC).unwrap();
        let rows = [row("stats", 100, 10, 1_000_000)];
        let err = render_check(&spec, &rows, true).unwrap_err();
        let CliError::Gate(out) = err else {
            panic!("expected gate failure");
        };
        assert!(out.contains("error rate 0.1000 > 0.05"), "{out}");
    }

    #[test]
    fn zero_traffic_is_no_data_not_a_pass_or_fail() {
        let spec = SloSpec::parse(SPEC).unwrap();
        let rows = [row("rov", 0, 0, 0), row("ping", 10, 0, 1_000_000)];
        let out = render_check(&spec, &rows, true).unwrap();
        assert!(out.contains("no-data"), "{out}");
        assert!(out.contains("PASS"), "{out}");
    }

    #[test]
    fn check_reads_a_real_load_report() {
        let dir = std::env::temp_dir().join("droplens-slo-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.toml");
        std::fs::write(&spec_path, "[default]\np99_ms = 1000\nmax_error_rate = 0\n").unwrap();
        let report_path = dir.join("report.json");
        std::fs::write(
            &report_path,
            "{\"sent\": 10, \"ok\": 10, \"failed\": 0, \"mismatched\": 0, \"qps\": 5.0,\n \
             \"latency_ns\": {\"p50\": 1, \"p90\": 2, \"p99\": 3, \"max\": 4},\n \
             \"kinds\": [{\"kind\": \"ping\", \"sent\": 10, \"ok\": 10, \"failed\": 0,\n \
             \"latency_ns\": {\"p50\": 1, \"p90\": 2, \"p99\": 3, \"max\": 4}}]}\n",
        )
        .unwrap();
        let out = check(&spec_path, &report_path, true).unwrap();
        assert!(out.contains("PASS"), "{out}");
        // A report without kinds is a usage error, not a pass.
        std::fs::write(&report_path, "{\"sent\": 10}").unwrap();
        let err = check(&spec_path, &report_path, true).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }
}
