//! The droplens benchmark binary.
//!
//! ```text
//! perfbench --workload reproduce|serve_clean --seed N
//!     --seconds S --trace 0|1 [--reference REPRODUCTION_OUTPUT.txt]
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics; with
//! `--trace 1` it runs the traced per-layer sweep instead. Either way
//! the last stdout line is the JSON result. `perfbench/run.py` builds
//! this binary and runs it; `perfbench/README.md` describes the
//! workloads and every metric.

mod layers;
mod mem;
mod report;
mod reproduce;
mod serve;
mod stats;

use std::path::PathBuf;

/// Peak live heap comes from this allocator's counters.
#[global_allocator]
static ALLOC: droplens_obs::alloc::TrackingAlloc = droplens_obs::alloc::TrackingAlloc::system();

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Reproduce,
    ServeClean,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: Option<PathBuf>,
}

/// Abort the run: no result line, nonzero exit.
pub fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut reference = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} wants a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "reproduce" => Workload::Reproduce,
                    "serve_clean" => Workload::ServeClean,
                    other => fail(&format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--reference" => reference = Some(PathBuf::from(value)),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| fail("--workload is required")),
        seed: seed.unwrap_or_else(|| fail("--seed wants a u64")),
        seconds: seconds.unwrap_or_else(|| fail("--seconds wants a positive number")),
        trace: trace.unwrap_or_else(|| fail("--trace wants 0 or 1")),
        reference,
    }
}

fn main() {
    let args = parse_args();
    let reference = args.reference.as_ref().map(|path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())))
    });
    let mut outcome = match (args.trace, args.workload) {
        (true, _) => layers::run(args.seed, args.seconds, &reference),
        (false, Workload::Reproduce) => reproduce::run(args.seed, args.seconds, &reference),
        (false, Workload::ServeClean) => serve::run(args.seed, args.seconds),
    };
    outcome.detail(
        "config",
        &format!(
            "{{\"droplens_threads\": {}, \"available_parallelism\": {}, \"server_workers\": {}, \"client_threads\": {}}}",
            droplens_par::max_threads(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            serve::SERVER_WORKERS,
            serve::CLIENT_THREADS
        ),
    );
    outcome.print();
}
