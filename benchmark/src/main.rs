//! The churnbal benchmark: one workload per run, end-to-end metrics with
//! tracing off (`--trace 0`) or per-layer metrics from a traced run
//! (`--trace 1`). The last line of standard output is the result object.
//!
//! ```text
//! churnbal-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod campaign;
mod engine;
mod inputs;
mod layers;
mod model;
mod report;
mod stats;

use std::process::ExitCode;

use report::{fingerprint, peak_rss_mb, result_line, Outcome};

/// The workloads, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "churn-cascade",
    "fleet-lbp2",
    "campaign-grid",
    "paper-model",
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: churnbal-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Result digests at [`inputs::DEFAULT_SEED`], one per workload.
const PINS: &str = include_str!("../pins.txt");

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut seen = [false; 4];
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value}; expected one of {WORKLOADS:?}"
                    ));
                }
                args.workload = value.clone();
                seen[0] = true;
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: {value} is not a u64"))?;
                seen[1] = true;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds: {value} is not a positive number"))?;
                seen[2] = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                };
                seen[3] = true;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if seen.contains(&false) {
        return Err("--workload, --seed, --seconds and --trace are all required".to_string());
    }
    Ok(args)
}

/// The digest pinned for `workload` in a pins file (`name 0xhex` lines,
/// `#` comments).
fn pinned(pins: &str, workload: &str) -> Option<u64> {
    pins.lines()
        .map(|l| {
            l.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect::<Vec<_>>()
        })
        .find(|f| f.len() == 2 && f[0] == workload)
        .and_then(|f| u64::from_str_radix(f[1].trim_start_matches("0x"), 16).ok())
}

/// Checks `outcome.digest` against the digest `pins` holds for
/// `workload`.
fn check_pin(pins: &str, workload: &str, outcome: &mut Outcome) {
    let want = pinned(pins, workload);
    let got = outcome.digest;
    outcome.check(
        "default seed reproduces the pinned digest",
        want == Some(got),
        match want {
            Some(w) => format!("computed {got:#018x}, pinned {w:#018x}"),
            None => format!("computed {got:#018x}, no pin for this workload"),
        },
    );
}

fn run(args: &Args) -> Outcome {
    match (args.workload.as_str(), args.trace) {
        ("churn-cascade", false) => engine::churn_cascade().measure(args),
        ("churn-cascade", true) => engine::churn_cascade().trace(args),
        ("fleet-lbp2", false) => engine::fleet_lbp2().measure(args),
        ("fleet-lbp2", true) => engine::fleet_lbp2().trace(args),
        ("campaign-grid", false) => campaign::measure(args),
        ("campaign-grid", true) => campaign::trace(args),
        ("paper-model", false) => model::measure(args),
        ("paper-model", true) => model::trace(args),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("host: {}", fingerprint(&args.workload, args.seed));
    let mut outcome = run(&args);
    if !args.trace {
        outcome.metrics.set("peak_rss_mb", peak_rss_mb());
        // The pin is checked on the untraced run, which computes it.
        check_pin(PINS, &args.workload, &mut outcome);
    }
    for c in &outcome.checks {
        let status = if c.ok { "ok" } else { "FAILED" };
        println!("check {}: {status} {}", c.name, c.detail);
    }
    for line in &outcome.info {
        println!("info: {line}");
    }
    println!(
        "failed_frac {:?} ({} of {} attempted)",
        stats::failed_frac(outcome.failed, outcome.attempted),
        outcome.failed,
        outcome.attempted
    );
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|c| c.ok);
    let (line, missing) = result_line(&outcome, correct, args.trace);
    for name in missing {
        println!(
            "info: {name} is not measured on {} and reads 0",
            args.workload
        );
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload fleet-lbp2 --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, "fleet-lbp2");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_incomplete_or_unknown_arguments() {
        assert!(parse_args(&argv("--workload fleet-lbp2 --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload paper-model --seed 7 --seconds 0 --trace 0"
        ))
        .is_err());
    }

    #[test]
    fn reads_pins() {
        let pins = "# comment\nchurn-cascade 0x00ff  # trailing\nfleet-lbp2 0x10\n";
        assert_eq!(pinned(pins, "churn-cascade"), Some(255));
        assert_eq!(pinned(pins, "fleet-lbp2"), Some(16));
        assert_eq!(pinned(pins, "paper-model"), None);
    }

    #[test]
    fn every_workload_has_a_pin() {
        for w in WORKLOADS {
            assert!(pinned(PINS, w).is_some(), "{w} has no pin");
        }
    }

    #[test]
    fn a_wrong_pinned_digest_fails_the_run() {
        let pins = "churn-cascade 0x0123456789abcdef\n";
        let mut right = Outcome {
            digest: 0x0123_4567_89ab_cdef,
            ..Outcome::default()
        };
        check_pin(pins, "churn-cascade", &mut right);
        assert_eq!((right.failed, right.checks[0].ok), (0, true));
        let mut wrong = Outcome {
            digest: 0xfedc_ba98_7654_3210,
            ..Outcome::default()
        };
        check_pin(pins, "churn-cascade", &mut wrong);
        assert_eq!((wrong.failed, wrong.checks[0].ok), (1, false));
        // A workload without a pin fails too.
        let mut unpinned = Outcome::default();
        check_pin(pins, "fleet-lbp2", &mut unpinned);
        assert_eq!(unpinned.failed, 1);
    }
}
