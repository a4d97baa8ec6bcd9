//! The first-class experiment API: one concept for runs, sweeps and
//! multi-policy comparisons.
//!
//! An [`ExperimentSpec`] is `scenario × axes × policy set × options`. Its
//! [`Experiment`] executes the whole thing in **one pass** through the
//! shared work-stealing scheduler
//! ([`churnbal_cluster::exec::run_grid_policies_resumable`]): the policy
//! set is just another axis of the flattened task space, and replication
//! `r` of *every* policy at a grid point runs on the streams derived from
//! `(seed, r)` — common random numbers across policies by construction.
//! That makes the per-replication differences between two policies paired
//! samples, and [`ExperimentRow::delta`] reports their mean with a
//! t-based 95% confidence interval
//! ([`churnbal_stochastic::paired_comparison`]).
//!
//! Output is decoupled from execution through [`RowSink`]: CSV, JSON
//! lines and collecting (for tables/tests) are sink implementations, and
//! rows stream to the sink in `(grid point, policy)` order as cells
//! complete. Where a grid point is a two-node closed system, the Eq. 4
//! theory mean joins each row ([`ExperimentSpec::theory`],
//! [`crate::theory`]).
//!
//! This module owns the only row renderer: [`experiment_csv_header`],
//! [`experiment_csv_row`] and [`experiment_jsonl_row`] print the base
//! statistics columns of every run, sweep and comparison, then the
//! theory, delta and telemetry columns the schema asks for. A
//! single-policy experiment without theory prints exactly the columns a
//! plain `run` or `sweep` always printed, and the pinned sweep-CSV
//! digests hold that. [`Experiment::estimate`] is the programmatic
//! primitive for one base point's raw Monte-Carlo estimate.

use std::io::Write;
use std::path::Path;

use churnbal_cluster::exec::{
    run_grid_policies_resumable, run_grid_policies_streaming_with_report, ExecReport, PointJob,
    PointStats,
};
use churnbal_cluster::mc::McEstimate;
use churnbal_cluster::{ProbeReport, SimOptions, SystemConfig};
use churnbal_core::PolicySpec;
use churnbal_stochastic::{paired_comparison, Fnv1a, PairedComparison};

use crate::journal::{JournalConfig, RunJournal};
use crate::scenario::Scenario;
use crate::sweep::{
    csv_field, expand_grid, fnum, json_string, sample_sd, Axis, AxisParam, RunOptions,
};
use crate::theory::TheoryCache;

/// One labelled policy of a comparison: the display/CSV label (usually the
/// CLI token it was parsed from, e.g. `none` or `lbp2@0.5`) and the spec.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyEntry {
    /// Label printed in the `policy` column.
    pub label: String,
    /// The policy itself.
    pub spec: PolicySpec,
    /// When true, a `gain` axis does **not** rewrite this entry's gain:
    /// the policy rides along the axis at its own fixed gain, like a
    /// gainless policy. Set by the CLI for explicit `@gain` suffixes —
    /// `lbp2@0.2` must stay at 0.2 even when the grid sweeps gains.
    pub pinned_gain: bool,
}

impl PolicyEntry {
    /// Labels the entry with the spec's stable kind identifier; the gain
    /// (if any) follows a `gain` axis.
    #[must_use]
    pub fn from_spec(spec: PolicySpec) -> Self {
        Self {
            label: spec.kind().to_string(),
            spec,
            pinned_gain: false,
        }
    }

    /// An entry with an explicit label; the gain follows a `gain` axis.
    #[must_use]
    pub fn named(label: impl Into<String>, spec: PolicySpec) -> Self {
        Self {
            label: label.into(),
            spec,
            pinned_gain: false,
        }
    }

    /// This entry's policy at a grid point: a `gain` coordinate rewrites
    /// a gain-bearing entry unless its gain is pinned (`lbp2@0.2` stays
    /// at 0.2). Gainless and pinned entries ride along the axis as flat
    /// baselines, exactly the shape of the paper's Fig. 3.
    pub(crate) fn at_point(&self, coords: &[(AxisParam, f64)]) -> Result<PolicySpec, String> {
        let mut policy = self.spec.clone();
        for &(param, value) in coords {
            if param == AxisParam::Gain && policy.gain().is_some() && !self.pinned_gain {
                policy = policy.with_gain(value)?;
            }
        }
        Ok(policy)
    }
}

/// A complete experiment description: scenario × axes × policy set ×
/// execution options.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// The base scenario (its baked-in axes are part of the grid).
    pub scenario: Scenario,
    /// Extra sweep axes on top of the scenario's baked-in ones.
    pub axes: Vec<Axis>,
    /// The policy set evaluated at every grid point. Empty = the
    /// scenario's own policy (a plain run/sweep); two or more entries
    /// make this a comparison: every row carries CRN-paired deltas
    /// against the [`ExperimentSpec::baseline`] entry.
    pub policies: Vec<PolicyEntry>,
    /// Index into [`ExperimentSpec::policies`] of the delta baseline.
    /// Defaults to 0 (the first policy); with a non-zero baseline each
    /// grid point's cells are buffered until the baseline cell arrives,
    /// so rows still stream in `(point, policy)` order.
    pub baseline: usize,
    /// Replications, seed, threads, chunking.
    pub options: RunOptions,
    /// Join the Eq. 4 theory mean (and `mc − theory`) where the model
    /// covers the point and policy; out-of-domain rows render empty
    /// cells.
    pub theory: bool,
    /// Write-ahead result journal (`--journal` / `--resume`): completed
    /// cells are appended to a content-addressed file under
    /// [`JournalConfig::dir`] and replayed on resume — see
    /// [`crate::journal`]. `None` falls back to the scenario's own
    /// `[journal]` table (without resume), or no journal at all.
    pub journal: Option<JournalConfig>,
}

impl ExperimentSpec {
    /// A plain run/sweep of the scenario under its own policy.
    #[must_use]
    pub fn sweep(scenario: Scenario, axes: Vec<Axis>, options: RunOptions) -> Self {
        Self {
            scenario,
            axes,
            policies: Vec::new(),
            baseline: 0,
            options,
            theory: false,
            journal: None,
        }
    }

    /// A multi-policy comparison (first entry as baseline), theory
    /// columns on. Reassign [`ExperimentSpec::baseline`] to delta against
    /// a different entry.
    #[must_use]
    pub fn compare(
        scenario: Scenario,
        axes: Vec<Axis>,
        policies: Vec<PolicyEntry>,
        options: RunOptions,
    ) -> Self {
        Self {
            scenario,
            axes,
            policies,
            baseline: 0,
            options,
            theory: true,
            journal: None,
        }
    }

    /// Content digest of the fully-resolved experiment: FNV-1a over the
    /// scenario's canonical TOML, the extra axes, the policy set (labels,
    /// full specs, pins), the baseline index and the *effective*
    /// replication count and seed. Two specs that could produce different
    /// output bytes digest differently; presentation-only options
    /// (threads, chunk, backend, metrics columns) are deliberately
    /// excluded — they never change result values. This digest names the
    /// write-ahead journal file, so a resume can never mix results from a
    /// different spec.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.update(self.scenario.to_toml().as_bytes());
        h.update_u64(self.axes.len() as u64);
        for axis in &self.axes {
            h.update(axis.param.key().as_bytes());
            h.update_u64(axis.values.len() as u64);
            for &v in &axis.values {
                h.update_u64(v.to_bits());
            }
        }
        h.update_u64(self.policies.len() as u64);
        for entry in &self.policies {
            h.update(entry.label.as_bytes());
            // The Debug form covers every parameter of every variant
            // (gains, sender/receiver, chaos-panic rep, ...).
            h.update(format!("{:?}", entry.spec).as_bytes());
            h.update_u64(u64::from(entry.pinned_gain));
        }
        h.update_u64(self.baseline as u64);
        h.update_u64(self.options.effective_reps(&self.scenario));
        h.update_u64(self.options.seed.unwrap_or(self.scenario.seed));
        h.finish()
    }
}

/// What a streaming consumer knows before the first row: the column
/// layout and the grid size.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSchema {
    /// Scenario name.
    pub scenario: String,
    /// Axis parameters, in column order.
    pub axes: Vec<AxisParam>,
    /// Grid points (each yields one row per policy).
    pub points: usize,
    /// Policy labels, in evaluation order.
    pub policies: Vec<String>,
    /// Index into [`ExperimentSchema::policies`] of the delta baseline.
    pub baseline: usize,
    /// Whether rows carry `theory_mean` / `mc_minus_theory` columns.
    pub theory: bool,
    /// Whether rows carry paired-delta columns (≥ 2 policies).
    pub paired: bool,
    /// Whether rows carry the extended telemetry columns
    /// (`--metrics full`).
    pub metrics_full: bool,
    /// Whether simulation-time probing is armed for this experiment —
    /// rows then carry per-replication [`ProbeReport`]s through
    /// [`RowSink::probes`], and `--metrics full` additionally renders the
    /// merged histogram quantile columns.
    pub probe: bool,
}

impl ExperimentSchema {
    /// Total rows the experiment will emit.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.points * self.policies.len()
    }
}

/// CRN-paired delta of one policy against the baseline policy of the
/// same grid point: the per-replication difference statistics of
/// [`churnbal_stochastic::paired_comparison`] (`policy − baseline`;
/// identically zero for the baseline row itself).
pub type PairedDelta = PairedComparison;

/// One result row: a `(grid point, policy)` cell.
#[derive(Clone, Debug)]
pub struct ExperimentRow {
    /// Grid-point index.
    pub index: usize,
    /// Axis coordinates, in axis order.
    pub coords: Vec<(AxisParam, f64)>,
    /// Index into [`ExperimentSchema::policies`].
    pub policy_index: usize,
    /// Policy label.
    pub policy: String,
    /// Replications run.
    pub reps: u64,
    /// Master seed used.
    pub seed: u64,
    /// Mean overall completion time (s).
    pub mean_completion: f64,
    /// 95% confidence half-width of the mean (normal approximation).
    pub ci95: f64,
    /// Sample standard deviation of the completion time.
    pub sd_completion: f64,
    /// Mean failures per replication.
    pub mean_failures: f64,
    /// Sample standard deviation of failures per replication.
    pub sd_failures: f64,
    /// Mean tasks shipped per replication.
    pub mean_tasks_shipped: f64,
    /// Sample standard deviation of tasks shipped per replication.
    pub sd_tasks_shipped: f64,
    /// Replications that hit the deadline without completing.
    pub incomplete: u64,
    /// Replications quarantined (panicked or timed out) and excluded
    /// from every statistic of this row; [`ExperimentRow::reps`] already
    /// counts only the survivors. Nonzero marks the row as degraded.
    pub quarantined: u64,
    /// Eq. 4 theory mean, when the model covers this point and policy.
    pub theory_mean: Option<f64>,
    /// `mean_completion − theory_mean`, when theory is available.
    pub mc_minus_theory: Option<f64>,
    /// Paired delta vs the point's baseline policy (`None` on plain
    /// sweeps).
    pub delta: Option<PairedDelta>,
    /// Mean node recoveries per replication.
    pub mean_recoveries: f64,
    /// Mean transfer batches per replication.
    pub mean_transfers: f64,
    /// Mean clamped transfer orders per replication (tasks a policy
    /// ordered that the source queue could not supply) — satellite of the
    /// observability PR.
    pub mean_tasks_clamped: f64,
    /// Mean in-transit task·seconds per replication.
    pub mean_transit_task_seconds: f64,
    /// Mean tasks permanently lost by the transfer channel per
    /// replication (0 under a reliable channel).
    pub mean_tasks_lost: f64,
    /// Mean channel redelivery attempts per replication.
    pub mean_retries: f64,
    /// Mean bounced batches per replication.
    pub mean_bounces: f64,
    /// Probe telemetry merged across this cell's replications (empty
    /// histograms when probing is off). Quantiles come from
    /// [`churnbal_stochastic::LogHistogram::quantile`].
    pub telemetry: ProbeReport,
}

/// A consumer of experiment rows. Rows arrive in `(grid point, policy)`
/// order as cells complete; `begin` always precedes the first row and
/// `finish` follows the last (when the run succeeds).
pub trait RowSink {
    /// Announces the schema before any row.
    ///
    /// # Errors
    /// An error aborts the experiment before it starts executing.
    fn begin(&mut self, schema: &ExperimentSchema) -> Result<(), String> {
        let _ = schema;
        Ok(())
    }

    /// Consumes one row.
    ///
    /// # Errors
    /// An error aborts the remaining grid (workers stop claiming tasks).
    fn row(&mut self, row: &ExperimentRow) -> Result<(), String>;

    /// Receives the per-replication probe reports of a row (replication
    /// order, immediately after [`RowSink::row`] for the same row). Only
    /// called when probing is armed; the default implementation ignores
    /// them, so probe-oblivious sinks keep their exact bytes.
    ///
    /// # Errors
    /// An error aborts the remaining grid, like a `row` error.
    fn probes(&mut self, row: &ExperimentRow, reports: &[ProbeReport]) -> Result<(), String> {
        let _ = (row, reports);
        Ok(())
    }

    /// Flushes after the last row.
    ///
    /// # Errors
    /// Propagated to the experiment's caller.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

// ---- renderers ---------------------------------------------------------

/// Renders an optional numeric cell: the shortest-round-trip float or an
/// empty CSV field.
fn csv_opt(x: Option<f64>) -> String {
    x.map(|v| format!("{v:?}")).unwrap_or_default()
}

/// JSON value for an optional number (`null` when absent).
fn json_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_string(), |v| format!("{v:?}"))
}

/// The CSV header (with trailing newline) for `schema`: scenario, point
/// and one column per axis, the 11 base statistics columns, then
/// `theory_mean,mc_minus_theory` when theory is joined,
/// `delta_mean,delta_sd,delta_ci95` when the experiment is paired, and
/// the telemetry columns under `--metrics full`.
#[must_use]
pub fn experiment_csv_header(schema: &ExperimentSchema) -> String {
    let mut out = String::from("scenario,point");
    for a in &schema.axes {
        out.push(',');
        out.push_str(a.key());
    }
    out.push_str(
        ",policy,reps,seed,mean_completion,ci95,sd_completion,mean_failures,\
         sd_failures,mean_tasks_shipped,sd_tasks_shipped,incomplete",
    );
    if schema.theory {
        out.push_str(",theory_mean,mc_minus_theory");
    }
    if schema.paired {
        out.push_str(",delta_mean,delta_sd,delta_ci95");
    }
    if schema.metrics_full {
        out.push_str(
            ",mean_recoveries,mean_transfers,mean_tasks_clamped,mean_transit_task_seconds,\
             mean_tasks_lost,mean_retries,mean_bounces",
        );
        if schema.probe {
            out.push_str(
                ",queue_p50,queue_p99,transfer_us_p50,transfer_us_p99,\
                 downtime_us_p50,downtime_us_p99,retry_us_p50,retry_us_p99",
            );
        }
    }
    out.push('\n');
    out
}

/// One CSV line (with trailing newline) for `row` under `schema`.
#[must_use]
pub fn experiment_csv_row(schema: &ExperimentSchema, row: &ExperimentRow) -> String {
    let mut out = format!("{},{}", csv_field(&schema.scenario), row.index);
    for &(_, v) in &row.coords {
        out.push(',');
        out.push_str(&fnum(v));
    }
    out.push_str(&format!(
        ",{},{},{},{:?},{:?},{:?},{:?},{:?},{:?},{:?},{}",
        csv_field(&row.policy),
        row.reps,
        row.seed,
        row.mean_completion,
        row.ci95,
        row.sd_completion,
        row.mean_failures,
        row.sd_failures,
        row.mean_tasks_shipped,
        row.sd_tasks_shipped,
        row.incomplete
    ));
    if schema.theory {
        out.push(',');
        out.push_str(&csv_opt(row.theory_mean));
        out.push(',');
        out.push_str(&csv_opt(row.mc_minus_theory));
    }
    if schema.paired {
        // A row can lack a delta even under a paired schema: quarantine
        // can leave no replication surviving on both sides of the pair.
        // Render empty cells instead of panicking.
        match row.delta {
            Some(d) => out.push_str(&format!(
                ",{:?},{:?},{:?}",
                d.mean_delta, d.sd_delta, d.ci95_half_width
            )),
            None => out.push_str(",,,"),
        }
    }
    if schema.metrics_full {
        out.push_str(&format!(
            ",{:?},{:?},{:?},{:?},{:?},{:?},{:?}",
            row.mean_recoveries,
            row.mean_transfers,
            row.mean_tasks_clamped,
            row.mean_transit_task_seconds,
            row.mean_tasks_lost,
            row.mean_retries,
            row.mean_bounces
        ));
        if schema.probe {
            let t = &row.telemetry;
            out.push_str(&format!(
                ",{},{},{},{},{},{},{},{}",
                t.queue_hist.quantile(0.5),
                t.queue_hist.quantile(0.99),
                t.transfer_delay_us.quantile(0.5),
                t.transfer_delay_us.quantile(0.99),
                t.downtime_us.quantile(0.5),
                t.downtime_us.quantile(0.99),
                t.retry_delay_us.quantile(0.5),
                t.retry_delay_us.quantile(0.99)
            ));
        }
    }
    out.push('\n');
    out
}

/// One JSON-lines object (with trailing newline) for `row` under `schema`.
#[must_use]
pub fn experiment_jsonl_row(schema: &ExperimentSchema, row: &ExperimentRow) -> String {
    let mut out = format!(
        "{{\"scenario\":{},\"point\":{}",
        json_string(&schema.scenario),
        row.index
    );
    for &(a, v) in &row.coords {
        out.push_str(&format!(",\"{}\":{}", a.key(), fnum(v)));
    }
    out.push_str(&format!(
        ",\"policy\":{},\"reps\":{},\"seed\":{},\"mean_completion\":{:?},\
         \"ci95\":{:?},\"sd_completion\":{:?},\"mean_failures\":{:?},\"sd_failures\":{:?},\
         \"mean_tasks_shipped\":{:?},\"sd_tasks_shipped\":{:?},\"incomplete\":{}",
        json_string(&row.policy),
        row.reps,
        row.seed,
        row.mean_completion,
        row.ci95,
        row.sd_completion,
        row.mean_failures,
        row.sd_failures,
        row.mean_tasks_shipped,
        row.sd_tasks_shipped,
        row.incomplete
    ));
    if schema.theory {
        out.push_str(&format!(
            ",\"theory_mean\":{},\"mc_minus_theory\":{}",
            json_opt(row.theory_mean),
            json_opt(row.mc_minus_theory)
        ));
    }
    if schema.paired {
        match row.delta {
            Some(d) => out.push_str(&format!(
                ",\"delta_mean\":{:?},\"delta_sd\":{:?},\"delta_ci95\":{:?}",
                d.mean_delta, d.sd_delta, d.ci95_half_width
            )),
            None => out.push_str(",\"delta_mean\":null,\"delta_sd\":null,\"delta_ci95\":null"),
        }
    }
    if schema.metrics_full {
        out.push_str(&format!(
            ",\"mean_recoveries\":{:?},\"mean_transfers\":{:?},\
             \"mean_tasks_clamped\":{:?},\"mean_transit_task_seconds\":{:?},\
             \"mean_tasks_lost\":{:?},\"mean_retries\":{:?},\"mean_bounces\":{:?}",
            row.mean_recoveries,
            row.mean_transfers,
            row.mean_tasks_clamped,
            row.mean_transit_task_seconds,
            row.mean_tasks_lost,
            row.mean_retries,
            row.mean_bounces
        ));
        if schema.probe {
            let t = &row.telemetry;
            out.push_str(&format!(
                ",\"queue_p50\":{},\"queue_p99\":{},\"transfer_us_p50\":{},\
                 \"transfer_us_p99\":{},\"downtime_us_p50\":{},\"downtime_us_p99\":{},\
                 \"retry_us_p50\":{},\"retry_us_p99\":{}",
                t.queue_hist.quantile(0.5),
                t.queue_hist.quantile(0.99),
                t.transfer_delay_us.quantile(0.5),
                t.transfer_delay_us.quantile(0.99),
                t.downtime_us.quantile(0.5),
                t.downtime_us.quantile(0.99),
                t.retry_delay_us.quantile(0.5),
                t.retry_delay_us.quantile(0.99)
            ));
        }
    }
    // Degraded rows carry an explicit marker; clean rows keep their
    // pre-quarantine bytes exactly.
    if row.quarantined > 0 {
        out.push_str(&format!(",\"quarantined\":{}", row.quarantined));
    }
    out.push_str("}\n");
    out
}

/// One probe-tick JSON line (with trailing newline) for `--probe-out`:
/// the fleet aggregates of one tick of one replication, keyed by
/// `(scenario, point, policy, rep, time)`. Emitted in
/// `(grid point, policy, replication, tick)` order, so the file is a pure
/// function of the experiment spec — bit-identical for any thread count.
#[must_use]
pub fn probe_jsonl_row(
    scenario: &str,
    point: usize,
    policy: &str,
    rep: usize,
    s: &churnbal_cluster::ProbeSample,
) -> String {
    let mut out = format!(
        "{{\"scenario\":{},\"point\":{point},\"policy\":{},\"rep\":{rep},\
         \"time\":{:?},\"up\":{},\"queue_total\":{},\"queue_max\":{},\
         \"queue_p50\":{},\"queue_p99\":{},\"in_transit\":{},\
         \"failures\":{},\"transfers\":{}",
        json_string(scenario),
        json_string(policy),
        s.time,
        s.up_nodes,
        s.queue_total,
        s.queue_max,
        s.queue_p50,
        s.queue_p99,
        s.in_transit,
        s.failures,
        s.transfers,
    );
    // Only lossy channels can dead-letter; a reliable run's telemetry
    // stream keeps its pre-channel bytes exactly (absent means 0).
    if s.tasks_lost > 0 {
        out.push_str(&format!(",\"tasks_lost\":{}", s.tasks_lost));
    }
    out.push_str("}\n");
    out
}

// ---- sinks -------------------------------------------------------------

/// Streams rows as CSV to any writer (header at `begin`, flush at
/// `finish`).
pub struct CsvSink<W: Write> {
    out: W,
    schema: Option<ExperimentSchema>,
}

impl<W: Write> CsvSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        Self { out, schema: None }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RowSink for CsvSink<W> {
    fn begin(&mut self, schema: &ExperimentSchema) -> Result<(), String> {
        self.out
            .write_all(experiment_csv_header(schema).as_bytes())
            .map_err(|e| format!("cannot write CSV header: {e}"))?;
        self.schema = Some(schema.clone());
        Ok(())
    }

    fn row(&mut self, row: &ExperimentRow) -> Result<(), String> {
        let schema = self.schema.as_ref().expect("begin precedes rows");
        self.out
            .write_all(experiment_csv_row(schema, row).as_bytes())
            .and_then(|()| self.out.flush())
            .map_err(|e| format!("cannot write CSV row: {e}"))
    }

    fn finish(&mut self) -> Result<(), String> {
        self.out
            .flush()
            .map_err(|e| format!("cannot flush CSV output: {e}"))
    }
}

/// Streams rows as JSON lines to any writer.
pub struct JsonlSink<W: Write> {
    out: W,
    schema: Option<ExperimentSchema>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        Self { out, schema: None }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RowSink for JsonlSink<W> {
    fn begin(&mut self, schema: &ExperimentSchema) -> Result<(), String> {
        self.schema = Some(schema.clone());
        Ok(())
    }

    fn row(&mut self, row: &ExperimentRow) -> Result<(), String> {
        let schema = self.schema.as_ref().expect("begin precedes rows");
        self.out
            .write_all(experiment_jsonl_row(schema, row).as_bytes())
            .and_then(|()| self.out.flush())
            .map_err(|e| format!("cannot write JSONL row: {e}"))
    }

    fn finish(&mut self) -> Result<(), String> {
        self.out
            .flush()
            .map_err(|e| format!("cannot flush JSONL output: {e}"))
    }
}

/// Buffers every row in memory — what table renderers and tests want.
#[derive(Default)]
pub struct CollectSink {
    /// The announced schema.
    pub schema: Option<ExperimentSchema>,
    /// All rows, in `(point, policy)` order.
    pub rows: Vec<ExperimentRow>,
}

impl CollectSink {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl RowSink for CollectSink {
    fn begin(&mut self, schema: &ExperimentSchema) -> Result<(), String> {
        self.schema = Some(schema.clone());
        Ok(())
    }

    fn row(&mut self, row: &ExperimentRow) -> Result<(), String> {
        self.rows.push(row.clone());
        Ok(())
    }
}

/// A fully collected experiment: schema plus every row.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Column layout.
    pub schema: ExperimentSchema,
    /// All rows, in `(point, policy)` order.
    pub rows: Vec<ExperimentRow>,
}

impl ExperimentResult {
    /// Renders the whole result as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = experiment_csv_header(&self.schema);
        for row in &self.rows {
            out.push_str(&experiment_csv_row(&self.schema, row));
        }
        out
    }

    /// Renders the whole result as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&experiment_jsonl_row(&self.schema, row));
        }
        out
    }
}

/// CRN pairing of two cells' slot-stable completion-time vectors, honest
/// under quarantine: replication `r` contributes only when it survived on
/// **both** sides (a quarantined slot holds a placeholder zero, and
/// pairing it would corrupt the delta). Returns `None` when no
/// replication survived on both sides — renderers show empty cells /
/// `null`s / `-` for such rows. With no quarantine anywhere (the normal
/// case) this is exactly the full-vector pairing, byte for byte.
fn paired_delta(
    times: &[f64],
    quarantined: &[u64],
    base_times: &[f64],
    base_quarantined: &[u64],
) -> Option<PairedDelta> {
    if quarantined.is_empty() && base_quarantined.is_empty() {
        return Some(paired_comparison(times, base_times));
    }
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for r in 0..times.len().min(base_times.len()) {
        let r64 = r as u64;
        if !quarantined.contains(&r64) && !base_quarantined.contains(&r64) {
            xs.push(times[r]);
            ys.push(base_times[r]);
        }
    }
    (!xs.is_empty()).then(|| paired_comparison(&xs, &ys))
}

// ---- execution ---------------------------------------------------------

/// A validated, runnable experiment.
#[derive(Clone, Debug)]
pub struct Experiment {
    spec: ExperimentSpec,
}

impl Experiment {
    /// Wraps a spec (validation happens in [`Experiment::run`], where the
    /// grid is expanded and every point's policies are checked up front).
    #[must_use]
    pub fn new(spec: ExperimentSpec) -> Self {
        Self { spec }
    }

    /// The spec this experiment runs.
    #[must_use]
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// Collects the whole experiment in memory — the buffered convenience
    /// form of [`Experiment::run`].
    ///
    /// # Errors
    /// Same conditions as [`Experiment::run`].
    pub fn collect(&self) -> Result<ExperimentResult, String> {
        let mut sink = CollectSink::new();
        let schema = self.run(&mut sink)?;
        Ok(ExperimentResult {
            schema,
            rows: sink.rows,
        })
    }

    /// Runs the **base point** of the spec's scenario (axes ignored)
    /// under its first policy — or the scenario's own policy when the set
    /// is empty — and returns the raw Monte-Carlo estimate with every
    /// per-replication vector. Rendered output goes through
    /// [`Experiment::run`] instead.
    ///
    /// # Errors
    /// Propagates scenario/policy validation failures, including an
    /// explicit zero replication count.
    pub fn estimate(&self) -> Result<McEstimate, String> {
        let spec = &self.spec;
        let scenario = &spec.scenario;
        let config = scenario.system_config()?;
        let policy = match spec.policies.first() {
            Some(entry) => entry.spec.clone(),
            None => scenario.policy.clone(),
        };
        // Validate once up front so the per-replication build cannot fail.
        policy
            .validate_for(&config)
            .map_err(|e| format!("scenario {}: {e}", scenario.name))?;
        let job = self.point_job(scenario, &config)?;
        let mut stats = None;
        run_grid_policies_streaming_with_report(
            std::slice::from_ref(&job),
            1,
            &|_, _, r| policy.build_for_rep(&config, r).expect("validated above"),
            spec.options.threads,
            spec.options.chunk,
            |_, _, s| {
                stats = Some(s);
                Ok(())
            },
        )?;
        Ok(McEstimate::from_point_stats(
            stats.expect("one point always completes"),
        ))
    }

    /// The scheduler job of one grid point: replications, seed and
    /// simulation options resolved from the point's scenario and the run
    /// options.
    fn point_job<'a>(
        &self,
        scenario: &Scenario,
        config: &'a SystemConfig,
    ) -> Result<PointJob<'a>, String> {
        let options = &self.spec.options;
        Ok(PointJob {
            config,
            reps: options.checked_reps(scenario)?,
            seed: options.seed.unwrap_or(scenario.seed),
            rep_base: 0,
            antithetic: false,
            options: SimOptions {
                deadline: scenario.deadline,
                backend: options.backend,
                probe_dt: options.effective_probe_dt(scenario),
                task_timeout: options.task_timeout,
                audit: options.audit,
                ..SimOptions::default()
            },
        })
    }

    /// Executes the experiment, streaming rows to `sink` in
    /// `(grid point, policy)` order as cells complete. One scheduler pass
    /// covers the entire `grid × policy set × replication` space; output
    /// bytes are bit-identical for any `threads` / `chunk` value.
    ///
    /// # Errors
    /// Propagates grid-expansion and validation failures, and anything
    /// the sink returns.
    pub fn run(&self, sink: &mut dyn RowSink) -> Result<ExperimentSchema, String> {
        self.run_with_report(sink).map(|(schema, _)| schema)
    }

    /// [`Experiment::run`] plus the scheduler's runtime instrumentation:
    /// per-worker task/chunk/event counts and wall-clock throughput
    /// ([`ExecReport`]). The report is observational — wall times depend
    /// on the machine — while the rows stay bit-deterministic.
    ///
    /// # Errors
    /// Same conditions as [`Experiment::run`].
    pub fn run_with_report(
        &self,
        sink: &mut dyn RowSink,
    ) -> Result<(ExperimentSchema, ExecReport), String> {
        let spec = &self.spec;
        let points = expand_grid(&spec.scenario, &spec.axes)?;
        let axes: Vec<AxisParam> = points
            .first()
            .map(|p| p.coords.iter().map(|&(a, _)| a).collect())
            .unwrap_or_default();

        let labels: Vec<String> = if spec.policies.is_empty() {
            vec![spec.scenario.policy.kind().to_string()]
        } else {
            spec.policies.iter().map(|e| e.label.clone()).collect()
        };
        let mut point_policies: Vec<Vec<PolicySpec>> = Vec::with_capacity(points.len());
        for point in &points {
            if spec.policies.is_empty() {
                point_policies.push(vec![point.scenario.policy.clone()]);
                continue;
            }
            let set = spec
                .policies
                .iter()
                .map(|entry| entry.at_point(&point.coords))
                .collect::<Result<_, _>>()?;
            point_policies.push(set);
        }

        // Materialise configs and validate every (point, policy) pair up
        // front so the per-replication build in the workers cannot fail.
        let mut configs: Vec<SystemConfig> = Vec::with_capacity(points.len());
        for (point, set) in points.iter().zip(&point_policies) {
            let config = point.scenario.system_config()?;
            for policy in set {
                policy
                    .validate_for(&config)
                    .map_err(|e| format!("scenario {}: {e}", point.scenario.name))?;
            }
            configs.push(config);
        }

        // Join the Eq. 4 theory means (cheap: one lattice per distinct
        // two-node system, memoised).
        let theory: Vec<Vec<Option<f64>>> = if spec.theory {
            let mut cache = TheoryCache::new();
            points
                .iter()
                .zip(&configs)
                .zip(&point_policies)
                .map(|((point, config), set)| {
                    set.iter()
                        .map(|policy| cache.eq4_mean(&point.scenario, config, policy))
                        .collect()
                })
                .collect()
        } else {
            point_policies.iter().map(|s| vec![None; s.len()]).collect()
        };

        let jobs: Vec<PointJob<'_>> = points
            .iter()
            .zip(&configs)
            .map(|(point, config)| self.point_job(&point.scenario, config))
            .collect::<Result<_, _>>()?;
        let probe = jobs.iter().any(|j| j.options.probe_dt.is_some());

        let paired = labels.len() > 1;
        if spec.baseline >= labels.len() {
            return Err(format!(
                "baseline index {} out of range for {} policies",
                spec.baseline,
                labels.len()
            ));
        }
        let schema = ExperimentSchema {
            scenario: spec.scenario.name.clone(),
            axes,
            points: points.len(),
            policies: labels,
            baseline: spec.baseline,
            theory: spec.theory,
            paired,
            metrics_full: spec.options.metrics_full,
            probe,
        };
        sink.begin(&schema)?;

        let k = schema.policies.len();
        let b = spec.baseline;

        // ---- write-ahead journal / resume -----------------------------
        // The CLI flag wins; a scenario's own [journal] table journals
        // without resuming (resume is an explicit, per-invocation act).
        let journal_cfg = spec.journal.clone().or_else(|| {
            spec.scenario
                .journal_dir
                .clone()
                .map(|dir| JournalConfig { dir, resume: false })
        });
        let mut preloaded: Vec<Option<PointStats>> = vec![None; points.len() * k];
        let mut journal: Option<RunJournal> = None;
        if let Some(cfg) = &journal_cfg {
            if probe {
                return Err("the result journal does not capture probe telemetry; \
                     drop --journal or disable probing"
                    .into());
            }
            let (j, records) = RunJournal::open(Path::new(&cfg.dir), spec.digest(), cfg.resume)?;
            for rec in records {
                if rec.point >= points.len() || rec.policy >= k {
                    return Err(format!(
                        "journal {}: cell (point {}, policy {}) is outside the {}x{} grid",
                        j.path().display(),
                        rec.point,
                        rec.policy,
                        points.len(),
                        k
                    ));
                }
                let want = jobs[rec.point].reps as usize;
                if rec.stats.completion_times.len() != want {
                    return Err(format!(
                        "journal {}: cell (point {}, policy {}) holds {} replications, \
                         expected {}",
                        j.path().display(),
                        rec.point,
                        rec.policy,
                        rec.stats.completion_times.len(),
                        want
                    ));
                }
                preloaded[rec.point * k + rec.policy] = Some(rec.stats);
            }
            journal = Some(j);
        }
        // Which cells came from the journal — those must not be
        // re-appended when the drain emits them.
        let replayed: Vec<bool> = preloaded.iter().map(Option::is_some).collect();

        let build_row = |p: usize, v: usize, est: &McEstimate, delta: Option<PairedDelta>| {
            let theory_mean = theory[p][v];
            // Cross-replication histogram aggregation: exact integer
            // bucket adds, so the merge order cannot matter.
            let mut telemetry = ProbeReport::default();
            for report in &est.probes {
                telemetry.merge_telemetry(report);
            }
            ExperimentRow {
                index: points[p].index,
                coords: points[p].coords.clone(),
                policy_index: v,
                policy: schema.policies[v].clone(),
                // Quarantined replications are excluded from every
                // statistic, so the row honestly reports the surviving
                // sample size (and flags the loss in `quarantined`).
                reps: jobs[p].reps - est.quarantined,
                seed: jobs[p].seed,
                mean_completion: est.mean(),
                ci95: est.ci95(),
                sd_completion: sample_sd(est.completion_times.iter().copied()),
                mean_failures: est.mean_failures,
                sd_failures: sample_sd(est.failures_per_rep.iter().map(|&x| x as f64)),
                mean_tasks_shipped: est.mean_tasks_shipped,
                sd_tasks_shipped: sample_sd(est.tasks_shipped_per_rep.iter().map(|&x| x as f64)),
                incomplete: est.incomplete,
                quarantined: est.quarantined,
                theory_mean,
                mc_minus_theory: theory_mean.map(|t| est.mean() - t),
                delta,
                mean_recoveries: est.mean_recoveries,
                mean_transfers: est.mean_transfers,
                mean_tasks_clamped: est.mean_tasks_clamped,
                mean_transit_task_seconds: est.mean_transit_task_seconds,
                mean_tasks_lost: est.mean_tasks_lost,
                mean_retries: est.mean_retries,
                mean_bounces: est.mean_bounces,
                telemetry,
            }
        };
        // A cell's pairing inputs: the *slot-stable* per-replication
        // times (placeholder zeros included) plus the quarantined slots,
        // captured before `McEstimate::from_point_stats` drops them. CRN
        // pairing must align replication r with replication r, so slots
        // — not the compacted vectors — are what gets paired.
        let mut baseline_times: Vec<f64> = Vec::new();
        let mut baseline_quarantined: Vec<u64> = Vec::new();
        // Cells of the current point awaiting the baseline cell (only
        // used with a non-first baseline).
        let mut held: Vec<(usize, McEstimate, Vec<f64>, Vec<u64>)> = Vec::new();
        let report = run_grid_policies_resumable(
            &jobs,
            k,
            &|p, v, r| {
                point_policies[p][v]
                    .build_for_rep(&configs[p], r)
                    .expect("validated above")
            },
            spec.options.threads,
            spec.options.chunk,
            preloaded,
            |p, v, stats| {
                if let Some(j) = journal.as_mut() {
                    // Write-ahead: the cell hits disk before any sink
                    // sees it. Replayed cells are already on disk, and
                    // quarantined cells are withheld so a resume retries
                    // them instead of trusting placeholder slots.
                    if !replayed[p * k + v] && stats.quarantined_reps.is_empty() {
                        j.record(p, v, &stats)?;
                    }
                }
                let slot_times = stats.completion_times.clone();
                let quarantined = stats.quarantined_reps.clone();
                let est = McEstimate::from_point_stats(stats);
                let emit = |sink: &mut dyn RowSink,
                            v: usize,
                            est: &McEstimate,
                            delta: Option<PairedDelta>|
                 -> Result<(), String> {
                    let row = build_row(p, v, est, delta);
                    sink.row(&row)?;
                    if probe {
                        sink.probes(&row, &est.probes)?;
                    }
                    Ok(())
                };
                if !paired {
                    return emit(sink, v, &est, None);
                }
                if b == 0 {
                    // The baseline is the first cell of each point, so
                    // rows stream exactly as they complete.
                    if v == 0 {
                        baseline_times.clear();
                        baseline_times.extend_from_slice(&slot_times);
                        baseline_quarantined.clear();
                        baseline_quarantined.extend_from_slice(&quarantined);
                    }
                    let delta = paired_delta(
                        &slot_times,
                        &quarantined,
                        &baseline_times,
                        &baseline_quarantined,
                    );
                    return emit(sink, v, &est, delta);
                }
                // Non-first baseline: cells arrive in policy order, so
                // hold this point's cells until the last one, then emit
                // them together with deltas against the baseline cell.
                held.push((v, est, slot_times, quarantined));
                if v + 1 < k {
                    return Ok(());
                }
                let base = held
                    .iter()
                    .find(|(hv, ..)| *hv == b)
                    .expect("the baseline cell is part of the point");
                baseline_times.clear();
                baseline_times.extend_from_slice(&base.2);
                baseline_quarantined.clear();
                baseline_quarantined.extend_from_slice(&base.3);
                for (hv, hest, htimes, hq) in held.drain(..) {
                    let delta = paired_delta(&htimes, &hq, &baseline_times, &baseline_quarantined);
                    emit(sink, hv, &hest, delta)?;
                }
                Ok(())
            },
        )?;
        if let Some(j) = journal.as_mut() {
            j.finish()?;
        }
        sink.finish()?;
        Ok((schema, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    fn quick(reps: u64, threads: usize) -> RunOptions {
        RunOptions {
            reps: Some(reps),
            threads,
            ..RunOptions::default()
        }
    }

    fn compare_fig3(reps: u64, threads: usize) -> ExperimentResult {
        let scenario = registry::get("paper-fig3").expect("preset");
        let policies = ["lbp1", "lbp2", "none"]
            .iter()
            .map(|name| {
                PolicyEntry::named(
                    (*name).to_string(),
                    PolicySpec::parse(name, &scenario.policy).expect("parses"),
                )
            })
            .collect();
        Experiment::new(ExperimentSpec::compare(
            scenario,
            Vec::new(),
            policies,
            quick(reps, threads),
        ))
        .collect()
        .expect("compare runs")
    }

    #[test]
    fn zero_reps_override_is_rejected_with_the_scenario_error() {
        let scenario = registry::get("paper-fig5").expect("preset");
        let expected: String = crate::scenario::ScenarioError {
            scenario: scenario.name.clone(),
            kind: crate::scenario::ScenarioErrorKind::ZeroReps,
        }
        .into();
        let experiment = Experiment::new(ExperimentSpec::sweep(scenario, Vec::new(), quick(0, 1)));
        assert_eq!(experiment.estimate().unwrap_err(), expected);
        let mut sink = CollectSink::new();
        assert_eq!(experiment.run(&mut sink).unwrap_err(), expected);
        assert!(
            sink.schema.is_none(),
            "rejected before the sink sees a schema"
        );
    }

    #[test]
    fn compare_shares_random_numbers_across_policies() {
        // `none` vs `none`: identical trajectories, so every delta is 0
        // with a zero-width CI — CRN pairing at work.
        let scenario = registry::get("cascading-failures").expect("preset");
        let policies = vec![
            PolicyEntry::named("a", PolicySpec::NoBalancing),
            PolicyEntry::named("b", PolicySpec::NoBalancing),
        ];
        let result = Experiment::new(ExperimentSpec::compare(
            scenario,
            Vec::new(),
            policies,
            quick(6, 3),
        ))
        .collect()
        .expect("runs");
        assert_eq!(result.rows.len(), 2);
        let (a, b) = (&result.rows[0], &result.rows[1]);
        assert_eq!(a.mean_completion, b.mean_completion);
        let d = b.delta.expect("paired");
        assert_eq!(d.mean_delta, 0.0);
        assert_eq!(d.sd_delta, 0.0);
        assert_eq!(d.ci95_half_width, 0.0);
    }

    #[test]
    fn compare_fig3_emits_theory_and_paired_deltas() {
        let result = compare_fig3(4, 2);
        // 21 gain values × 3 policies.
        assert_eq!(result.rows.len(), 63);
        assert_eq!(
            result.schema.policies,
            vec!["lbp1".to_string(), "lbp2".into(), "none".into()]
        );
        for rows in result.rows.chunks(3) {
            let (lbp1, lbp2, none) = (&rows[0], &rows[1], &rows[2]);
            assert_eq!(lbp1.policy_index, 0);
            // The baseline delta is identically zero; the others are
            // genuine paired stats.
            let d0 = lbp1.delta.expect("paired");
            assert_eq!(
                (d0.mean_delta, d0.sd_delta, d0.ci95_half_width),
                (0.0, 0.0, 0.0)
            );
            let dn = none.delta.expect("paired");
            assert!(
                (dn.mean_delta - (none.mean_completion - lbp1.mean_completion)).abs() < 1e-9,
                "delta mean must equal the difference of means"
            );
            // Theory: Eq. 4 covers lbp1 and none, not LBP-2's
            // failure-compensated dynamics.
            assert!(lbp1.theory_mean.is_some());
            assert!(none.theory_mean.is_some());
            assert!(lbp2.theory_mean.is_none());
            let t = lbp1.theory_mean.expect("some");
            let gap = lbp1.mc_minus_theory.expect("some");
            assert!((gap - (lbp1.mean_completion - t)).abs() < 1e-12);
            // `none` ignores the gain axis: identical trajectories at
            // every gain (checked below against the first chunk).
        }
        // The gainless baseline is flat across the gain axis.
        let none_means: Vec<f64> = result
            .rows
            .iter()
            .filter(|r| r.policy == "none")
            .map(|r| r.mean_completion)
            .collect();
        assert!(none_means.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn compare_output_is_thread_and_chunk_invariant() {
        let reference = compare_fig3(3, 1).to_csv();
        assert_eq!(reference, compare_fig3(3, 4).to_csv());
        assert_eq!(reference, compare_fig3(3, 7).to_csv());
    }

    #[test]
    fn compare_rows_match_independent_single_policy_sweeps() {
        // The CRN contract: policy k's rows in a comparison are
        // bit-identical to a single-policy experiment of the same
        // scenario with that policy swapped in.
        let scenario = registry::get("paper-delay-crossover").expect("preset");
        let names = ["lbp2", "upon-failure-only", "none"];
        let policies: Vec<PolicyEntry> = names
            .iter()
            .map(|n| {
                PolicyEntry::named(
                    (*n).to_string(),
                    PolicySpec::parse(n, &scenario.policy).expect("parses"),
                )
            })
            .collect();
        let combined = Experiment::new(ExperimentSpec::compare(
            scenario.clone(),
            Vec::new(),
            policies.clone(),
            quick(5, 3),
        ))
        .collect()
        .expect("compare runs");
        for (v, entry) in policies.iter().enumerate() {
            let mut solo_scenario = scenario.clone();
            solo_scenario.policy = entry.spec.clone();
            let solo = Experiment::new(ExperimentSpec::sweep(
                solo_scenario,
                Vec::new(),
                quick(5, 1),
            ))
            .collect()
            .expect("solo runs");
            let compare_rows: Vec<&ExperimentRow> = combined
                .rows
                .iter()
                .filter(|r| r.policy_index == v)
                .collect();
            assert_eq!(compare_rows.len(), solo.rows.len());
            for (c, s) in compare_rows.iter().zip(&solo.rows) {
                assert_eq!(c.index, s.index);
                assert_eq!(c.mean_completion, s.mean_completion, "{}", entry.label);
                assert_eq!(c.sd_completion, s.sd_completion);
                assert_eq!(c.mean_failures, s.mean_failures);
                assert_eq!(c.incomplete, s.incomplete);
            }
        }
    }

    #[test]
    fn csv_and_jsonl_carry_the_extra_columns() {
        let result = compare_fig3(2, 2);
        let csv = result.to_csv();
        let header = csv.lines().next().expect("header");
        assert!(
            header
                .ends_with("incomplete,theory_mean,mc_minus_theory,delta_mean,delta_sd,delta_ci95"),
            "{header}"
        );
        // An out-of-domain theory cell is empty, not 0.
        let lbp2_line = csv.lines().nth(2).expect("lbp2 row");
        assert!(lbp2_line.contains(",lbp2,"), "{lbp2_line}");
        let jsonl = result.to_jsonl();
        let lbp2_json = jsonl.lines().nth(1).expect("lbp2 row");
        assert!(lbp2_json.contains("\"theory_mean\":null"), "{lbp2_json}");
        assert!(lbp2_json.contains("\"delta_mean\":"), "{lbp2_json}");
        let lbp1_json = jsonl.lines().next().expect("lbp1 row");
        assert!(!lbp1_json.contains("null"), "{lbp1_json}");
    }

    #[test]
    fn sink_errors_abort_the_run() {
        struct Failing(usize);
        impl RowSink for Failing {
            fn row(&mut self, _row: &ExperimentRow) -> Result<(), String> {
                self.0 += 1;
                if self.0 == 2 {
                    Err("disk full".into())
                } else {
                    Ok(())
                }
            }
        }
        let scenario = registry::get("paper-fig5").expect("preset");
        let policies = vec![
            PolicyEntry::from_spec(PolicySpec::NoBalancing),
            PolicyEntry::from_spec(PolicySpec::UponFailureOnly),
            PolicyEntry::from_spec(PolicySpec::Lbp2 { gain: 1.0 }),
        ];
        let mut sink = Failing(0);
        let err = Experiment::new(ExperimentSpec::compare(
            scenario,
            Vec::new(),
            policies,
            quick(2, 1),
        ))
        .run(&mut sink)
        .unwrap_err();
        assert_eq!(err, "disk full");
        assert_eq!(sink.0, 2, "the run must stop at the failing row");
    }

    #[test]
    fn gain_axis_on_an_all_gainless_comparison_still_errors_usefully() {
        // The *scenario's* policy carries the axis through expansion, so a
        // gain axis on a gainless scenario policy errors exactly as a
        // plain sweep does.
        let mut scenario = registry::get("paper-fig3").expect("preset");
        scenario.policy = PolicySpec::NoBalancing;
        let err = Experiment::new(ExperimentSpec::compare(
            scenario,
            Vec::new(),
            vec![PolicyEntry::from_spec(PolicySpec::NoBalancing)],
            quick(2, 1),
        ))
        .collect()
        .unwrap_err();
        assert!(err.contains("no gain parameter"), "{err}");
    }
}
