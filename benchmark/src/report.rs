//! Metric tables, the host fingerprint and the result line.

use std::collections::BTreeMap;
use std::process::Command;

/// End-to-end metrics `(name, unit)`: every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("rep_ms_p50", "ms"),
    ("rep_ms_tail", "ms"),
    ("reps_per_s", "1/s"),
    ("wall_s", "s"),
    ("rerun_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)` of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stochastic.exp_ns", "ns"),
    ("stochastic.stream_setup_ns", "ns"),
    ("desim.cancel_ns.heap", "ns"),
    ("desim.hold_ns.heap", "ns"),
    ("desim.hold_ns.calendar", "ns"),
    ("core.hook_calls_per_event", "count"),
    ("core.orders_per_call", "count"),
    ("core.hook_ns", "ns"),
    ("core.hook_share", "fraction"),
    ("engine.sim_new_ms", "ms"),
    ("engine.reset_us", "us"),
    ("engine.self_ns_per_event", "ns"),
    ("engine.events_per_rep", "count"),
    ("engine.churn_per_event", "count"),
    ("engine.clamped_frac", "fraction"),
    ("exec.busy_frac", "fraction"),
    ("exec.task_us", "us"),
    ("exec.idle_claims", "count"),
    ("exec.rebinds_per_task", "count"),
    ("lab.load_s", "s"),
    ("lab.rounds", "count"),
    ("lab.reps_run", "count"),
    ("lab.cache_bytes", "bytes"),
    ("lab.theory_ms", "ms"),
    ("lab.report_ms", "ms"),
    ("model.cdf_s", "s"),
    ("model.optimize_s", "s"),
    ("model.mean_lattice_ms", "ms"),
    ("model.mc_validate_s", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be a listed metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// One correctness check.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted (replications, campaign passes, pipeline
    /// passes) and how many of them failed a check or aborted.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Digest of the workload's results at [`crate::inputs::DEFAULT_SEED`].
    pub digest: u64,
    /// Free-form lines printed before the result.
    pub info: Vec<String>,
}

impl Outcome {
    /// Records a check; a failed one also counts as a failed operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The single-line result object. Metrics of the mode that were not
/// measured on this workload read 0; `missing` names them.
pub fn result_line(outcome: &Outcome, correct: bool, traced: bool) -> (String, Vec<&'static str>) {
    let table = if traced { PER_LAYER } else { END_TO_END };
    let mut missing = Vec::new();
    let fields: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.get(name).unwrap_or_else(|| {
                missing.push(name);
                0.0
            });
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    (line, missing)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// First line of a command's standard output, or `none`.
fn command_line(program: &str, args: &[&str]) -> String {
    // Keep git from searching directories above the working directory.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_os_string()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "none".to_string())
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The host fingerprint written into every result: results whose
/// `nproc`, `cpu` or `rustc` differ must not be compared.
pub fn fingerprint(workload: &str, seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"workload\": {}, \"seed\": {seed}}}",
        nproc(),
        json_str(&cpu),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(workload),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names listed in `BENCHMARK.json` under `key`.
    fn listed(key: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layer);
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        o.metrics.set("setup_s", 0.5);
        let (line, missing) = result_line(&o, true, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(missing.len(), END_TO_END.len() - 1);
    }

    #[test]
    fn failed_checks_count_as_failures() {
        let mut o = Outcome::default();
        o.check("a", true, "");
        o.check("b", false, "broken");
        assert_eq!(o.failed, 1);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
