//! The run's result: metrics, the correctness tally, and the lines
//! printed on stdout.
//!
//! The last stdout line is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`. A `details` line
//! before it carries what the metrics do not: sample counts, the basis
//! of each tail figure, the error rate (failed / attempted) and set-up
//! breakdowns.

/// One named, unit-tagged figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `(key, JSON value)` pairs for the details line.
    details: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            ..Outcome::default()
        }
    }

    /// Add a details entry; `json` must already be a JSON value.
    pub fn detail(&mut self, key: &str, json: &str) {
        self.details.push((key.to_owned(), json.to_owned()));
    }

    /// Fold another outcome's tally and details into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.details.extend(other.details);
    }

    /// Print the details line, then the result line. A metric that is
    /// not a finite number is a broken measurement, not a result.
    pub fn print(&self) {
        if let Some(bad) = self.metrics.iter().find(|m| !m.value.is_finite()) {
            crate::fail(&format!("metric {} is not finite", bad.name));
        }
        if self.attempted == 0 {
            crate::fail("no operation was attempted");
        }
        let error_rate = self.failed as f64 / self.attempted as f64;
        let details: Vec<String> = self
            .details
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .chain([format!("\"error_rate\": {error_rate}")])
            .collect();
        println!("{{\"details\": {{{}}}}}", details.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
