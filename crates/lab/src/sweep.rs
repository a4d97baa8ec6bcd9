//! Sweep axes, grid expansion and the options shared by every run.
//!
//! A sweep grid-expands a [`Scenario`] over axes (its baked-in
//! [`Scenario::axes`] plus any extra ones) into [`GridPoint`]s, row-major
//! with the last axis varying fastest; [`RunOptions`] carries the
//! replication, seed and scheduling overrides. Execution and rendering
//! belong to [`crate::experiment`]: an
//! [`Experiment`](crate::experiment::Experiment) runs the expanded grid
//! through one scheduler pass and renders rows as CSV or JSON lines.
//! This module also holds the number and escaping helpers those
//! renderers share, so equal values always print as equal bytes.

use churnbal_cluster::ArrivalKind;

use crate::scenario::{ArrivalsSpec, Scenario, ScenarioError, ScenarioErrorKind};

/// A sweepable scenario parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AxisParam {
    /// The policy gain `K` (policies with a gain parameter only).
    Gain,
    /// Multiplies every node's failure rate.
    FailureScale,
    /// Multiplies every node's recovery rate.
    RecoveryScale,
    /// Multiplies the arrival process's rate(s).
    ArrivalScale,
    /// Sets the network's mean per-task delay (seconds).
    DelayPerTask,
    /// Sets the total node count by resizing the last node template.
    NodeCount,
}

impl AxisParam {
    /// All parameters, for help text.
    pub const ALL: [Self; 6] = [
        Self::Gain,
        Self::FailureScale,
        Self::RecoveryScale,
        Self::ArrivalScale,
        Self::DelayPerTask,
        Self::NodeCount,
    ];

    /// Stable kebab-case key (CLI flag value and TOML/CSV column name).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Self::Gain => "gain",
            Self::FailureScale => "failure-scale",
            Self::RecoveryScale => "recovery-scale",
            Self::ArrivalScale => "arrival-scale",
            Self::DelayPerTask => "delay-per-task",
            Self::NodeCount => "node-count",
        }
    }

    /// Parses a key.
    ///
    /// # Errors
    /// Lists the known parameters when the key is unknown.
    pub fn parse(key: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|p| p.key() == key)
            .ok_or_else(|| {
                let known: Vec<&str> = Self::ALL.iter().map(|p| p.key()).collect();
                format!(
                    "unknown sweep parameter \"{key}\" (known: {})",
                    known.join(" | ")
                )
            })
    }
}

/// One sweep axis: a parameter and the values it takes.
#[derive(Clone, Debug, PartialEq)]
pub struct Axis {
    /// The swept parameter.
    pub param: AxisParam,
    /// The grid values (non-empty, finite).
    pub values: Vec<f64>,
}

impl Axis {
    /// Checks the axis is non-empty with finite values.
    ///
    /// # Errors
    /// Names the axis parameter in the message.
    pub fn validate(&self) -> Result<(), String> {
        if self.values.is_empty() {
            return Err(format!(
                "axis {}: needs at least one value",
                self.param.key()
            ));
        }
        if let Some(v) = self.values.iter().find(|v| !v.is_finite()) {
            return Err(format!("axis {}: non-finite value {v}", self.param.key()));
        }
        Ok(())
    }
}

/// Rewrites a scenario for one axis value.
///
/// # Errors
/// Fails when the parameter does not apply to this scenario (e.g. a gain
/// axis on a gainless policy) or the value is out of range.
pub fn apply_axis(scenario: &Scenario, param: AxisParam, value: f64) -> Result<Scenario, String> {
    let mut sc = scenario.clone();
    match param {
        AxisParam::Gain => {
            sc.policy = sc.policy.with_gain(value)?;
        }
        AxisParam::FailureScale => {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!("failure-scale must be >= 0, got {value}"));
            }
            for n in &mut sc.nodes {
                n.failure_rate *= value;
            }
        }
        AxisParam::RecoveryScale => {
            if !(value.is_finite() && value > 0.0) {
                return Err(format!("recovery-scale must be positive, got {value}"));
            }
            for n in &mut sc.nodes {
                n.recovery_rate *= value;
            }
        }
        AxisParam::ArrivalScale => {
            if !(value.is_finite() && value > 0.0) {
                return Err(format!("arrival-scale must be positive, got {value}"));
            }
            let ArrivalsSpec::Process(p) = &mut sc.arrivals else {
                return Err(
                    "arrival-scale requires a stochastic arrival process in the scenario".into(),
                );
            };
            match &mut p.kind {
                ArrivalKind::Poisson { rate } => *rate *= value,
                ArrivalKind::Mmpp { rates, .. } => {
                    for r in rates {
                        *r *= value;
                    }
                }
                ArrivalKind::Diurnal { base_rate, .. }
                | ArrivalKind::FlashCrowd { base_rate, .. } => *base_rate *= value,
            }
        }
        AxisParam::DelayPerTask => {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!("delay-per-task must be >= 0, got {value}"));
            }
            sc.network.per_task = value;
        }
        AxisParam::NodeCount => {
            let n = value.round();
            if (value - n).abs() > 1e-9 || !(2.0..=4096.0).contains(&n) {
                return Err(format!(
                    "node-count must be an integer in [2, 4096], got {value}"
                ));
            }
            let want = n as u32;
            let fixed: u32 = sc.nodes[..sc.nodes.len() - 1].iter().map(|t| t.count).sum();
            let last = sc.nodes.last_mut().expect("scenarios have node templates");
            if want <= fixed {
                return Err(format!(
                    "node-count {want} would leave no instance of the last node template \
                     ({fixed} nodes come from the preceding templates)"
                ));
            }
            last.count = want - fixed;
        }
    }
    // The rewritten scenario must still be internally consistent.
    sc.validate()?;
    Ok(sc)
}

/// One point of the expanded grid.
#[derive(Clone, Debug)]
pub struct GridPoint {
    /// Row-major index in the expanded grid.
    pub index: usize,
    /// Axis coordinates of this point, in axis order.
    pub coords: Vec<(AxisParam, f64)>,
    /// The fully rewritten scenario.
    pub scenario: Scenario,
}

/// Expands a scenario over its baked-in axes plus `extra` axes, row-major
/// with the **last** axis varying fastest.
///
/// # Errors
/// Propagates axis-validation and axis-application failures.
pub fn expand_grid(scenario: &Scenario, extra: &[Axis]) -> Result<Vec<GridPoint>, String> {
    let mut axes: Vec<Axis> = scenario.axes.clone();
    axes.extend_from_slice(extra);
    for axis in &axes {
        axis.validate()?;
    }
    if axes.is_empty() {
        return Ok(vec![GridPoint {
            index: 0,
            coords: Vec::new(),
            scenario: scenario.clone(),
        }]);
    }
    let total: usize = axes.iter().map(|a| a.values.len()).product();
    let mut points = Vec::with_capacity(total);
    for index in 0..total {
        let mut rem = index;
        let mut coords = Vec::with_capacity(axes.len());
        // Row-major decode: later axes vary fastest.
        for axis in axes.iter().rev() {
            let k = rem % axis.values.len();
            rem /= axis.values.len();
            coords.push((axis.param, axis.values[k]));
        }
        coords.reverse();
        let mut sc = scenario.clone();
        sc.axes.clear();
        for &(param, value) in &coords {
            sc = apply_axis(&sc, param, value)?;
        }
        points.push(GridPoint {
            index,
            coords,
            scenario: sc,
        });
    }
    Ok(points)
}

/// Execution options shared by `run` and `sweep`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Overrides the scenario's replication count. `Some(0)` is rejected
    /// with [`ScenarioErrorKind::ZeroReps`] when the run starts.
    pub reps: Option<u64>,
    /// Overrides the scenario's master seed.
    pub seed: Option<u64>,
    /// `--quick`: a tenth of the replications (at least 10).
    pub quick: bool,
    /// Worker threads shared across the whole sweep (0 = auto).
    pub threads: usize,
    /// Scheduler chunk size: `(point, replication)` tasks claimed per
    /// atomic grab (0 = auto). Output bytes do not depend on it.
    pub chunk: usize,
    /// Event-queue backend (`auto` resolves per node count). Output bytes
    /// do not depend on it — both backends pop in identical order.
    pub backend: churnbal_cluster::QueueBackend,
    /// Simulation-time probe cadence override (seconds between fleet
    /// samples). `None` defers to the scenario's own `[probe]` table;
    /// probing stays off when both are absent. Probing never changes a
    /// trajectory, so the base output columns are byte-identical either
    /// way.
    pub probe_dt: Option<f64>,
    /// `--metrics full`: append the extended telemetry columns
    /// (recoveries, transfers, clamped orders, transit task·seconds, and
    /// — when probing is on — merged histogram quantiles) to CSV/JSONL
    /// rows.
    pub metrics_full: bool,
    /// Runaway-task watchdog: abort any single replication whose
    /// wall-clock time exceeds this many seconds and quarantine it
    /// (`--task-timeout`). `None` disables the watchdog. The check is
    /// cooperative (polled in the engine's event loop) and never fires on
    /// a healthy run, so it cannot change result bytes.
    pub task_timeout: Option<f64>,
    /// `--audit`: run the engine's task-conservation auditor in release
    /// builds (debug builds always audit). Auditing reads state and draws
    /// nothing, so it cannot change result bytes — a violation panics the
    /// replication instead.
    pub audit: bool,
}

impl RunOptions {
    pub(crate) fn effective_reps(self, scenario: &Scenario) -> u64 {
        match self.reps {
            Some(r) => r,
            None if self.quick => scenario.quick_reps(),
            None => scenario.reps,
        }
    }

    /// [`RunOptions::effective_reps`], rejecting an explicit zero with the
    /// same typed error a scenario file with `reps = 0` gets.
    pub(crate) fn checked_reps(self, scenario: &Scenario) -> Result<u64, ScenarioError> {
        match self.effective_reps(scenario) {
            0 => Err(ScenarioError {
                scenario: scenario.name.clone(),
                kind: ScenarioErrorKind::ZeroReps,
            }),
            reps => Ok(reps),
        }
    }

    /// The probe cadence actually in force: the CLI override wins, then
    /// the scenario's `[probe]` table, then off.
    pub(crate) fn effective_probe_dt(self, scenario: &Scenario) -> Option<f64> {
        self.probe_dt.or(scenario.probe_dt)
    }
}

/// Sample standard deviation (n − 1 denominator; 0 for n < 2).
pub(crate) fn sample_sd(xs: impl Iterator<Item = f64> + Clone) -> f64 {
    let n = xs.clone().count();
    if n < 2 {
        return 0.0;
    }
    let mean = xs.clone().sum::<f64>() / n as f64;
    let ss: f64 = xs.map(|x| (x - mean) * (x - mean)).sum();
    (ss / (n - 1) as f64).sqrt()
}

/// Formats a float for machine-readable output: Rust's shortest
/// round-trip representation, so equal numbers always yield equal bytes.
pub(crate) fn fnum(x: f64) -> String {
    format!("{x:?}")
}

/// RFC 4180 field quoting: wraps fields containing separators, quotes or
/// line breaks, doubling embedded quotes. Scenario names are user data.
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// JSON string escaping for user data (quotes, backslashes, controls).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{
        CsvSink, Experiment, ExperimentResult, ExperimentRow, ExperimentSpec, JsonlSink, RowSink,
    };
    use crate::registry;

    fn sweep(scenario: &Scenario, axes: &[Axis], options: RunOptions) -> ExperimentResult {
        Experiment::new(ExperimentSpec::sweep(
            scenario.clone(),
            axes.to_vec(),
            options,
        ))
        .collect()
        .expect("sweep runs")
    }

    #[test]
    fn grid_expansion_is_row_major_with_last_axis_fastest() {
        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.axes = vec![
            Axis {
                param: AxisParam::FailureScale,
                values: vec![1.0, 2.0],
            },
            Axis {
                param: AxisParam::Gain,
                values: vec![0.0, 0.5, 1.0],
            },
        ];
        let grid = expand_grid(&sc, &[]).expect("expands");
        assert_eq!(grid.len(), 6);
        let coords: Vec<(f64, f64)> = grid
            .iter()
            .map(|p| (p.coords[0].1, p.coords[1].1))
            .collect();
        assert_eq!(
            coords,
            vec![
                (1.0, 0.0),
                (1.0, 0.5),
                (1.0, 1.0),
                (2.0, 0.0),
                (2.0, 0.5),
                (2.0, 1.0)
            ]
        );
        assert_eq!(grid[3].index, 3);
        // The rewrites really land in the scenario.
        assert_eq!(grid[5].scenario.policy.gain(), Some(1.0));
        assert_eq!(grid[5].scenario.nodes[0].failure_rate, 2.0 * (1.0 / 20.0));
    }

    #[test]
    fn gain_axis_on_gainless_policy_is_rejected() {
        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.policy = churnbal_core::PolicySpec::NoBalancing;
        sc.axes = vec![Axis {
            param: AxisParam::Gain,
            values: vec![0.5],
        }];
        let err = expand_grid(&sc, &[]).unwrap_err();
        assert!(err.contains("no gain parameter"), "{err}");
    }

    #[test]
    fn arrival_scale_requires_a_process() {
        let sc = registry::get("paper-fig3").expect("preset");
        let err = apply_axis(&sc, AxisParam::ArrivalScale, 2.0).unwrap_err();
        assert!(err.contains("arrival process"), "{err}");
        let bursty = registry::get("mmpp-bursty").expect("preset");
        let scaled = apply_axis(&bursty, AxisParam::ArrivalScale, 2.0).expect("ok");
        let (a, b) = match (&bursty.arrivals, &scaled.arrivals) {
            (
                crate::scenario::ArrivalsSpec::Process(p),
                crate::scenario::ArrivalsSpec::Process(q),
            ) => (p, q),
            _ => panic!("both scenarios carry processes"),
        };
        let (ArrivalKind::Mmpp { rates: ra, .. }, ArrivalKind::Mmpp { rates: rb, .. }) =
            (&a.kind, &b.kind)
        else {
            panic!("mmpp preset")
        };
        assert_eq!(rb[0], 2.0 * ra[0]);
    }

    #[test]
    fn node_count_axis_resizes_the_last_template() {
        let sc = registry::get("volunteer-grid").expect("preset");
        let grown = apply_axis(&sc, AxisParam::NodeCount, 12.0).expect("ok");
        let total: u32 = grown.nodes.iter().map(|t| t.count).sum();
        assert_eq!(total, 12);
        let err = apply_axis(&sc, AxisParam::NodeCount, 2.5).unwrap_err();
        assert!(err.contains("integer"), "{err}");
    }

    #[test]
    fn estimate_equals_direct_replications() {
        use churnbal_cluster::{run_replications, SimOptions, SystemConfig};
        use churnbal_core::Lbp2;
        let sc = registry::get("paper-delay-crossover").expect("preset");
        let point = apply_axis(&sc, AxisParam::DelayPerTask, 0.02).expect("ok");
        let est = Experiment::new(ExperimentSpec::sweep(
            point,
            Vec::new(),
            RunOptions {
                reps: Some(16),
                threads: 2,
                ..RunOptions::default()
            },
        ))
        .estimate()
        .expect("runs");
        let mut cfg = SystemConfig::paper([100, 60]);
        cfg.network = churnbal_cluster::NetworkConfig::exponential(0.02);
        let direct = run_replications(
            &cfg,
            &|_| Lbp2::new(1.0),
            16,
            sc.seed,
            3,
            SimOptions::default(),
        );
        assert_eq!(est.completion_times, direct.completion_times);
    }

    #[test]
    fn sweep_csv_is_bit_identical_across_thread_counts() {
        let sc = registry::get("mmpp-bursty").expect("preset");
        let axes = vec![
            Axis {
                param: AxisParam::Gain,
                values: vec![0.5, 1.0],
            },
            Axis {
                param: AxisParam::FailureScale,
                values: vec![0.5, 1.5],
            },
        ];
        let csv = |threads: usize| {
            sweep(
                &sc,
                &axes,
                RunOptions {
                    reps: Some(6),
                    threads,
                    ..RunOptions::default()
                },
            )
            .to_csv()
        };
        let one = csv(1);
        assert_eq!(one, csv(4), "4 threads changed the CSV bytes");
        assert_eq!(one, csv(7), "7 threads changed the CSV bytes");
        // Shape: header + 4 grid points, with both axis columns present.
        assert_eq!(one.lines().count(), 5, "{one}");
        assert!(
            one.starts_with("scenario,point,gain,failure-scale,policy,"),
            "{one}"
        );
    }

    #[test]
    fn jsonl_has_one_parseable_looking_object_per_point() {
        let sc = registry::get("paper-fig3").expect("preset");
        let jsonl = sweep(
            &sc,
            &[],
            RunOptions {
                reps: Some(2),
                threads: 1,
                ..RunOptions::default()
            },
        )
        .to_jsonl();
        assert_eq!(jsonl.lines().count(), 21, "one line per gain value");
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"scenario\":\"paper-fig3\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(line.contains("\"gain\":"), "{line}");
        }
    }

    #[test]
    fn hostile_scenario_names_are_escaped_in_csv_and_jsonl() {
        let mut sc = registry::get("paper-fig5").expect("preset");
        sc.name = "run \"A\", phase\n2".into();
        let result = sweep(
            &sc,
            &[],
            RunOptions {
                reps: Some(2),
                threads: 1,
                ..RunOptions::default()
            },
        );
        let csv = result.to_csv();
        let data_line = csv.lines().nth(1).expect("one data row").to_string()
            + "\n"
            + csv.lines().nth(2).unwrap_or("");
        assert!(
            data_line.starts_with("\"run \"\"A\"\", phase\n2\","),
            "RFC 4180 quoting expected:\n{csv}"
        );
        let jsonl = result.to_jsonl();
        assert!(
            jsonl.starts_with("{\"scenario\":\"run \\\"A\\\", phase\\n2\","),
            "JSON escaping expected:\n{jsonl}"
        );
        assert_eq!(jsonl.lines().count(), 1, "escapes keep one line per row");
    }

    #[test]
    fn streaming_rows_reproduce_the_buffered_bytes() {
        // The streaming sinks must emit exactly the bytes of the buffered
        // renderers, row for row, with rows in grid order.
        let axes = vec![Axis {
            param: AxisParam::Gain,
            values: vec![0.25, 0.75],
        }];
        let options = RunOptions {
            reps: Some(4),
            threads: 2,
            ..RunOptions::default()
        };
        let sc = registry::get("mmpp-bursty").expect("preset");
        let experiment = Experiment::new(ExperimentSpec::sweep(sc, axes, options));
        let buffered = experiment.collect().expect("buffered runs");
        let mut csv = CsvSink::new(Vec::new());
        let schema = experiment.run(&mut csv).expect("CSV streams");
        let mut jsonl = JsonlSink::new(Vec::new());
        experiment.run(&mut jsonl).expect("JSONL streams");
        assert_eq!(csv.into_inner(), buffered.to_csv().into_bytes());
        assert_eq!(jsonl.into_inner(), buffered.to_jsonl().into_bytes());
        let indices: Vec<usize> = buffered.rows.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 1], "rows must arrive in grid order");
        assert_eq!(schema.points, 2);
        assert_eq!(schema.axes, vec![AxisParam::Gain]);
    }

    #[test]
    fn streaming_propagates_sink_errors() {
        struct Full;
        impl RowSink for Full {
            fn row(&mut self, _row: &ExperimentRow) -> Result<(), String> {
                Err("disk full".to_string())
            }
        }
        let sc = registry::get("paper-fig5").expect("preset");
        let err = Experiment::new(ExperimentSpec::sweep(
            sc,
            Vec::new(),
            RunOptions {
                reps: Some(2),
                threads: 1,
                ..RunOptions::default()
            },
        ))
        .run(&mut Full)
        .unwrap_err();
        assert_eq!(err, "disk full");
    }

    #[test]
    fn sample_sd_matches_hand_computation() {
        assert_eq!(sample_sd([].iter().copied()), 0.0);
        assert_eq!(sample_sd([4.0].iter().copied()), 0.0);
        let sd = sample_sd([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied());
        assert!((sd - 2.138_089_935_299_395).abs() < 1e-12, "{sd}");
    }
}
