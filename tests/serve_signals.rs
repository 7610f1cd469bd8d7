//! The real `droplens serve` binary:
//!
//! * signal-driven graceful shutdown: on SIGTERM the process stops
//!   accepting, finishes in-flight replies whole (no torn frames on any
//!   client), writes its final summary to stdout, and exits 0;
//! * the `--metrics` run report: its `serve.*` counters read the
//!   server's own record, so they agree with the summary line.

#![cfg(unix)]
#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use droplens_obs::json::Value;
use droplens_serve::net::DeadlineStream;
use droplens_serve::{Reply, Request, WireError};

/// A scratch world directory unique to this test process and `tag`.
fn world_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("droplens-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    droplens_cli::commands::generate(&dir, 7, "small").expect("generate world");
    dir
}

#[test]
fn sigterm_drains_cleanly_with_no_torn_replies() {
    let dir = world_dir("signals");
    let mut child = Command::new(env!("CARGO_BIN_EXE_droplens"))
        .args(["serve", "--dir"])
        .arg(&dir)
        .args(["--timeout-ms", "2000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn droplens serve");

    // The bound address is announced on stderr once the study loads.
    let stderr = child.stderr.take().expect("stderr piped");
    let mut stderr_lines = BufReader::new(stderr).lines();
    let addr: SocketAddr = loop {
        let line = stderr_lines
            .next()
            .expect("serve announced its address")
            .expect("read stderr");
        if let Some(rest) = line.strip_prefix("droplens: serving on ") {
            break rest.trim().parse().expect("parse announced address");
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    let drain_stderr = std::thread::spawn(move || {
        let mut rest = Vec::new();
        for line in stderr_lines.map_while(Result::ok) {
            rest.push(line);
        }
        rest
    });

    // Hammer the server while the signal lands: count replies that
    // start arriving and break (torn) — the drain contract says zero.
    let torn = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let pingers: Vec<_> = (0..3)
        .map(|_| {
            let (torn, ok) = (Arc::clone(&torn), Arc::clone(&ok));
            std::thread::spawn(move || {
                for _ in 0..2000 {
                    let Ok(mut conn) = DeadlineStream::connect(addr, Duration::from_secs(1)) else {
                        return; // server gone: the drain finished
                    };
                    if Request::Ping.write_to(&mut conn).is_err() {
                        continue;
                    }
                    match Reply::read_from(&mut conn) {
                        Ok(Some(Reply::Pong | Reply::Busy)) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(Some(other)) => panic!("unexpected reply {other:?}"),
                        Ok(None) => {} // whole, just empty: closed pre-reply
                        Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(WireError::Frame(_)) => {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(WireError::Io(_)) => {} // reset/timeout: not torn
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(200));
    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -TERM failed");

    // The process must exit on its own, promptly and cleanly.
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "serve exited {status:?}");

    for p in pingers {
        p.join().expect("pinger thread");
    }
    let stderr_rest = drain_stderr.join().expect("stderr drain");
    assert!(
        stderr_rest.iter().any(|l| l.contains("drain requested")),
        "drain was announced: {stderr_rest:?}"
    );

    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut stdout)
        .expect("read stdout");
    assert!(
        stdout.contains("served"),
        "final summary on stdout: {stdout:?}"
    );

    assert_eq!(
        torn.load(Ordering::Relaxed),
        0,
        "torn replies during signal drain"
    );
    assert!(
        ok.load(Ordering::Relaxed) > 0,
        "some queries succeeded before the signal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `droplens --metrics=PATH serve --load-gen …`: the run report's
/// `serve.queries` and `serve.connections` are the counts the summary
/// line prints.
#[test]
fn metrics_run_report_counts_what_the_summary_prints() {
    let dir = world_dir("run-report");
    let report_path = dir.join("run-report.json");
    let output = Command::new(env!("CARGO_BIN_EXE_droplens"))
        .arg(format!("--metrics={}", report_path.display()))
        .args(["serve", "--dir"])
        .arg(&dir)
        .args(["--load-gen", "2", "--queries", "5", "--seed", "7"])
        .output()
        .expect("run droplens serve");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "serve exited {:?}: {stdout}",
        output.status
    );

    // "served N queries over M connections (…)"
    let summary = stdout
        .lines()
        .find_map(|l| l.strip_prefix("served "))
        .unwrap_or_else(|| panic!("no summary line in {stdout:?}"));
    let words: Vec<&str> = summary.split_whitespace().collect();
    let queries: u64 = words[0].parse().expect("query count");
    let connections: u64 = words[3].parse().expect("connection count");
    assert!(queries >= 10, "2 load connections × 5 queries: {summary}");

    let json = std::fs::read_to_string(&report_path).expect("read run report");
    let doc = droplens_obs::json::parse(&json).expect("run report parses");
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
    };
    assert_eq!(counter("serve.queries"), Some(queries), "{json}");
    assert_eq!(counter("serve.connections"), Some(connections), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}
