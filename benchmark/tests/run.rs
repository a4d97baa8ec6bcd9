//! An end-to-end run of the benchmark binary: exit code and the result
//! line's shape. It takes a few seconds with `--release` and about half a
//! minute in a debug build.

use std::process::{Command, Output};

fn run() -> Output {
    Command::new(env!("CARGO_BIN_EXE_churnbal-benchmark"))
        .args([
            "--workload",
            "churn-cascade",
            "--seed",
            "5",
            "--seconds",
            "0.01",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn a_clean_run_reports_every_end_to_end_metric() {
    let out = run();
    let line = last_line(&out);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    for name in [
        "setup_s",
        "events_per_s",
        "rep_ms_tail",
        "rerun_s",
        "peak_rss_mb",
    ] {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {line}"
        );
    }
}
