//! The `reproduce` workload: the paper's own batch job.
//!
//! Set-up generates the paper-scale world (scale 1) and serializes it to
//! the text archives. The timed region is what the `reproduce` binary
//! does with them: `Study::from_text`, `ExperimentResults::compute`, and
//! the rendered report plus scorecard — rendered into a string that must
//! equal the binary's stdout byte for byte.

use std::fmt::{Display, Write as _};
use std::time::Instant;

use droplens_core::paper::{self, ExperimentResults, Target};
use droplens_core::{Study, StudyConfig};
use droplens_net::DateRange;
use droplens_synth::{TextArchives, World, WorldConfig};

use crate::mem::PeakSampler;
use crate::report::{Metric, Outcome};
use crate::stats::{median, Basis, Samples};

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Jobs timed at least, however short `--seconds` is.
const MIN_JOBS: usize = 3;
/// The seed `REPRODUCTION_OUTPUT.txt` was recorded at.
pub const REFERENCE_SEED: u64 = 42;
/// The scorecard line a correct paper-scale run ends with.
const ALL_IN_BAND: &str = "39 of 39 targets in band";

/// The generated inputs of one seed.
pub struct Inputs {
    pub world: World,
    pub text: TextArchives,
}

/// Wall-clock seconds of each set-up step, one entry per repetition.
#[derive(Default)]
pub struct SetupTimes {
    pub generate_s: Vec<f64>,
    pub serialize_s: Vec<f64>,
}

impl SetupTimes {
    /// Median of generate + serialize.
    pub fn setup_s(&self) -> f64 {
        let totals: Vec<f64> = self
            .generate_s
            .iter()
            .zip(&self.serialize_s)
            .map(|(g, s)| g + s)
            .collect();
        median(&totals)
    }
}

/// `World::generate` then `to_text_archives`, `reps` times; keeps the
/// last inputs.
pub fn generate(seed: u64, reps: usize) -> (Inputs, SetupTimes) {
    let config = WorldConfig::paper_scaled(1);
    let mut times = SetupTimes::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let world = World::generate(seed, &config);
        let t1 = Instant::now();
        let text = world.to_text_archives();
        let t2 = Instant::now();
        times.generate_s.push((t1 - t0).as_secs_f64());
        times.serialize_s.push((t2 - t1).as_secs_f64());
        last = Some(Inputs { world, text });
    }
    (last.expect("at least one set-up repetition"), times)
}

/// The analysis configuration `reproduce` builds for a world.
pub fn study_config(world: &World) -> StudyConfig {
    let mut config = StudyConfig::new(DateRange::inclusive(
        world.config.study_start,
        world.config.study_end,
    ));
    config.manual_labels = world.manual_labels();
    config
}

/// Parse the archives into a study, as the timed region does.
pub fn study_from_text(inputs: &Inputs) -> Study {
    Study::from_text(
        study_config(&inputs.world),
        inputs.world.peers.clone(),
        &inputs.text,
    )
    .unwrap_or_else(|e| crate::fail(&format!("clean archives failed to ingest: {e}")))
}

/// A finished job: its rendered output, plus the study and results it
/// built, handed back so that freeing them stays outside the timed
/// region (as in the `reproduce` binary, whose total span closes before
/// they drop).
pub struct Job {
    pub output: String,
    _built: (Study, ExperimentResults),
}

/// One whole job: the timed region of the workload.
pub fn job(seed: u64, inputs: &Inputs) -> Job {
    let study = study_from_text(inputs);
    let results = ExperimentResults::compute(&study);
    let targets = paper::scorecard_with(&study, &results);
    Job {
        output: render(seed, &results, &targets),
        _built: (study, results),
    }
}

/// What stdout must be: `REPRODUCTION_OUTPUT.txt` at the reference seed,
/// otherwise the rendering of a study built in memory by
/// `Study::from_world` (no parsing), computed outside any timed region.
pub fn expected_output(seed: u64, inputs: &Inputs, reference: &Option<String>) -> String {
    if seed == REFERENCE_SEED {
        if let Some(text) = reference {
            return text.clone();
        }
        crate::fail("seed 42 needs the reference output (--reference REPRODUCTION_OUTPUT.txt)");
    }
    let study = Study::from_world(&inputs.world);
    let results = ExperimentResults::compute(&study);
    let targets = paper::scorecard_with(&study, &results);
    render(seed, &results, &targets)
}

/// A job's output passes when it equals the expected text, and at the
/// reference seed also reports every scorecard target in band.
pub fn output_ok(seed: u64, got: &str, expected: &str) -> bool {
    got == expected && (seed != REFERENCE_SEED || got.trim_end().ends_with(ALL_IN_BAND))
}

/// The `reproduce` binary's stdout, section for section.
pub fn render(seed: u64, r: &ExperimentResults, targets: &[Target]) -> String {
    let mut out = format!("=== droplens reproduction (seed {seed}) ===\n\n");
    present(&mut out, "Study overview", &r.summary);
    present(
        &mut out,
        "Figure 1 — classification of DROP entries",
        &r.fig1,
    );
    present(
        &mut out,
        "Figure 2 — effects of blocklisting on visibility",
        &r.fig2,
    );
    present(&mut out, "Table 1 — RPKI signing rates", &r.table1);
    present(&mut out, "Section 5 — effectiveness of the IRR", &r.sec5);
    present(&mut out, "Figure 3 — forged-IRR lead times", &r.fig3);
    present(
        &mut out,
        "Figure 4 / Section 6.1 — RPKI-signed hijacks",
        &r.fig4,
    );
    present(&mut out, "Figure 5 — routing status of ROAs", &r.fig5);
    present(
        &mut out,
        "Figure 6 — unallocated space on DROP vs AS0 policies",
        &r.fig6,
    );
    present(&mut out, "Figure 7 — RIR free pools", &r.fig7);
    present(
        &mut out,
        "Table 2 / Appendix A — SBL categorization",
        &r.table2,
    );
    present(
        &mut out,
        "Section 4.1 — deallocation after listing",
        &r.sec4,
    );
    present(
        &mut out,
        "Section 6.2 — AS0 at operator and RIR level",
        &r.sec6,
    );
    present(
        &mut out,
        "Extension — maxLength sub-prefix hijack surface",
        &r.ext_maxlen,
    );
    present(
        &mut out,
        "Extension — counterfactual ROV deployment",
        &r.ext_rov,
    );
    present(
        &mut out,
        "Extension — attacker-AS dossiers",
        &r.ext_profiles,
    );
    section(&mut out, "Scorecard — paper vs measured");
    let _ = writeln!(out, "{}", paper::render(targets));
    out
}

fn present<T: Display>(out: &mut String, title: &str, result: &T) {
    section(out, title);
    let _ = writeln!(out, "{result}");
}

fn section(out: &mut String, title: &str) {
    out.push_str("──────────────────────────────────────────────────────────\n");
    out.push_str(title);
    out.push_str("\n──────────────────────────────────────────────────────────\n");
}

/// The untraced run: set up, then time whole jobs for `seconds`.
pub fn run(seed: u64, seconds: f64, reference: &Option<String>) -> Outcome {
    let (inputs, setup) = generate(seed, SETUP_REPS);
    let expected = expected_output(seed, &inputs, reference);

    let sampler = PeakSampler::start();
    let mut job_s = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while job_s.len() < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let done = std::hint::black_box(job(seed, &inputs));
        job_s.push(t0.elapsed().as_secs_f64());
        if !output_ok(seed, &done.output, &expected) {
            failed += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let peak_mb = sampler.peak_mb();
    drop(sampler);

    let jobs = job_s.len() as u64;
    let latency = Samples::new(job_s.iter().map(|s| s * 1e3).collect());
    let p50 = latency.p50().unwrap_or(0.0);
    let (p90, p90_basis) = latency.tail(0.90).unwrap_or((0.0, Basis::Max));
    let mut outcome = Outcome::new(jobs, failed);
    outcome.metrics = vec![
        Metric::new("setup_s", setup.setup_s(), "s"),
        Metric::new("peak_live_mb", peak_mb, "MB"),
        Metric::new("qps", (jobs - failed) as f64 / elapsed, "1/s"),
        Metric::new("p50_ms", p50, "ms"),
        Metric::new("p90_ms", p90, "ms"),
    ];
    outcome.detail("operation", "\"one whole reproduce job\"");
    outcome.detail("wall_s", &median(&job_s).to_string());
    outcome.detail("job_s", &format!("{job_s:?}"));
    outcome.detail("samples", &jobs.to_string());
    outcome.detail("p90_basis", &format!("\"{}\"", p90_basis.label()));
    outcome.detail(
        "setup",
        &format!(
            "{{\"reps\": {}, \"generate_s\": {}, \"serialize_s\": {}}}",
            setup.generate_s.len(),
            median(&setup.generate_s),
            median(&setup.serialize_s)
        ),
    );
    outcome.detail(
        "output_check",
        &format!(
            "\"{}\"",
            if seed == REFERENCE_SEED {
                "byte-identical to REPRODUCTION_OUTPUT.txt, 39 of 39 in band"
            } else {
                "equal to a Study::from_world rendering"
            }
        ),
    );
    outcome
}
