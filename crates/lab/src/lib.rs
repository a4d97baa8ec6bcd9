//! # churnbal-lab
//!
//! The declarative scenario & sweep subsystem: experiments as data
//! instead of `main()` functions.
//!
//! The paper's §4 is a handful of hard-coded parameter points; the lab
//! turns every experiment the suite can simulate into a serializable
//! [`Scenario`] — topology, per-node service/failure/recovery rates,
//! arrival process, delay model, policy, replications and seed — that can
//! be named, listed, dumped, edited, swept and reproduced:
//!
//! * [`toml`] — a hand-rolled TOML-subset document model, parser and
//!   serializer (the environment is offline; no serde). Canonical output,
//!   `parse ∘ serialize = id`, line-numbered errors.
//! * [`scenario`] — the [`Scenario`] spec and its TOML mapping (a key or
//!   table the format does not define is an error, not a silent
//!   default); builds [`SystemConfig`](churnbal_cluster::SystemConfig)s
//!   and [`PolicySpec`](churnbal_core::PolicySpec)-driven policies on
//!   demand.
//! * [`registry`] — named presets: the paper baselines plus heterogeneous
//!   speeds, hot-spare recovery, correlated/cascading failures, bursty
//!   MMPP, diurnal and flash-crowd arrivals, volunteer churn.
//! * [`sweep`] — sweep axes (gain, failure/recovery scale, arrival
//!   scale, delay, node count), grid expansion and the shared
//!   [`RunOptions`].
//! * [`experiment`] — the one execution and rendering API behind `run`,
//!   `sweep` and `compare`: an [`ExperimentSpec`] (scenario × axes ×
//!   **policy set** × options) executed in one scheduler pass, streaming
//!   rows to [`RowSink`]s (CSV / JSON-lines / collect), or
//!   [`Experiment::estimate`] for one point's raw Monte-Carlo estimate.
//!   Multiple policies evaluate per grid point on **identical
//!   random-number streams**, so rows carry CRN-paired deltas with
//!   t-based 95% CIs; two-node closed points join the Eq. 4 theory mean
//!   ([`theory`]).
//! * [`journal`] — crash safety: a write-ahead result journal keyed by a
//!   content digest of the resolved spec, so interrupted campaigns resume
//!   with byte-identical output (`--journal` / `--resume`).
//! * [`cli`] — the `churnbal-lab` binary:
//!   `list | show | run | sweep | compare | stats` (the last a one-point
//!   observability deep dive: counters, telemetry quantiles, runtime).
//!
//! ```
//! use churnbal_core::PolicySpec;
//! use churnbal_lab::{registry, Experiment, ExperimentSpec, PolicyEntry, RunOptions};
//!
//! let scenario = registry::get("paper-fig5").expect("registered");
//! let policies = ["lbp1-optimal", "none"]
//!     .map(|n| PolicyEntry::named(n, PolicySpec::parse(n, &scenario.policy).expect("known")))
//!     .to_vec();
//! let result = Experiment::new(ExperimentSpec::compare(
//!     scenario,
//!     Vec::new(),
//!     policies,
//!     RunOptions { reps: Some(4), threads: 2, ..Default::default() },
//! ))
//! .collect()
//! .expect("valid experiment");
//! // One row per (grid point, policy); the second policy's row carries a
//! // CRN-paired delta against the first.
//! assert_eq!(result.rows.len(), 2);
//! assert!(result.rows[1].delta.is_some());
//! ```

pub mod campaign;
pub mod cli;
pub mod experiment;
pub mod journal;
pub mod registry;
pub mod scenario;
pub mod sweep;
pub mod theory;
pub mod toml;

pub use campaign::{
    Campaign, CampaignRunOptions, CampaignRunReport, CampaignSpec, CellVerdict, StoppingRule,
};
pub use experiment::{
    probe_jsonl_row, CollectSink, CsvSink, Experiment, ExperimentResult, ExperimentRow,
    ExperimentSchema, ExperimentSpec, JsonlSink, PairedDelta, PolicyEntry, RowSink,
};
pub use journal::{JournalConfig, JournalRecord, RunJournal};
pub use scenario::{
    ArrivalsSpec, NetworkSpec, NodeSpec, Scenario, ScenarioError, ScenarioErrorKind, TopologySpec,
};
pub use sweep::{apply_axis, expand_grid, Axis, AxisParam, RunOptions};
