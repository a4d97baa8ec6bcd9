//! The declarative experiment spec.
//!
//! A [`Scenario`] describes a complete experiment — topology, per-node
//! service/failure/recovery rates, arrival process, delay model, policy,
//! replication count and master seed, plus optional baked-in sweep axes —
//! as plain data. It serializes to and from the lab's TOML subset
//! ([`Scenario::to_toml`] / [`Scenario::from_toml`], round-trip-exact) and
//! builds the simulator-facing [`SystemConfig`] on demand.

use churnbal_cluster::{
    ArrivalKind, ArrivalProcess, ChannelModel, ChurnModel, DelayLaw, DownPolicy, ExternalArrival,
    NetworkConfig, NodeConfig, SystemConfig, Topology,
};
use churnbal_core::PolicySpec;

use crate::sweep::{Axis, AxisParam};
use crate::toml::{Doc, Table, Value};

/// One node template; `count` identical nodes are instantiated.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSpec {
    /// Service rate `λ_d` (tasks per second, positive).
    pub service_rate: f64,
    /// Failure rate `λ_f` (1/s, ≥ 0).
    pub failure_rate: f64,
    /// Recovery rate `λ_r` (1/s; positive when `failure_rate` is).
    pub recovery_rate: f64,
    /// Tasks queued at `t = 0` on each instance.
    pub initial_tasks: u32,
    /// How many identical nodes this template expands to (≥ 1).
    pub count: u32,
}

impl NodeSpec {
    /// A single node with the given parameters.
    #[must_use]
    pub fn new(
        service_rate: f64,
        failure_rate: f64,
        recovery_rate: f64,
        initial_tasks: u32,
    ) -> Self {
        Self {
            service_rate,
            failure_rate,
            recovery_rate,
            initial_tasks,
            count: 1,
        }
    }

    /// Expands the template to `count` instances.
    #[must_use]
    pub fn times(mut self, count: u32) -> Self {
        self.count = count;
        self
    }
}

/// Network delay parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkSpec {
    /// Load-independent mean-delay component (seconds).
    pub fixed: f64,
    /// Mean seconds per transferred task.
    pub per_task: f64,
    /// Distributional shape.
    pub law: DelayLaw,
}

/// Declarative interconnect shape, materialized against the expanded
/// node count by [`Scenario::system_config`]. Absent means the paper's
/// implicit unconstrained complete graph (global policy scans, any-to-any
/// transfers with no per-edge delay scaling).
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// An explicit complete graph: same dynamics as no topology, but
    /// policies see the graph and the engine enforces (trivially
    /// satisfied) edge routing.
    Complete,
    /// A cycle: node `i` talks to `i ± 1 (mod n)`.
    Ring,
    /// A 2-D wrap-around grid; `rows × cols` must equal the node count.
    Torus {
        /// Grid rows.
        rows: u32,
        /// Grid columns.
        cols: u32,
    },
    /// A seeded random `degree`-regular graph.
    RandomRegular {
        /// Uniform node degree.
        degree: u32,
        /// Construction seed (independent of the scenario seed).
        seed: u64,
    },
    /// A rack/row/datacenter hierarchy; the dimension product must equal
    /// the node count.
    Hierarchical {
        /// Nodes per rack (unit-scale full mesh).
        rack_size: u32,
        /// Racks per row (leaders meshed at `row_scale`).
        racks_per_row: u32,
        /// Rows (row leaders meshed at `dc_scale`).
        rows: u32,
        /// Delay multiplier on rack-to-rack links.
        row_scale: f64,
        /// Delay multiplier on row-to-row links.
        dc_scale: f64,
    },
}

impl TopologySpec {
    /// Builds the concrete [`Topology`] for an `n`-node system.
    ///
    /// # Errors
    /// Propagates construction errors and dimension/node-count mismatches.
    pub fn build(&self, n: usize) -> Result<Topology, String> {
        match *self {
            Self::Complete => Topology::complete(n),
            Self::Ring => Topology::ring(n),
            Self::Torus { rows, cols } => {
                let (rows, cols) = (rows as usize, cols as usize);
                if rows * cols != n {
                    return Err(format!(
                        "torus is {rows}x{cols} = {} nodes but the system has {n}",
                        rows * cols
                    ));
                }
                Topology::torus(rows, cols)
            }
            Self::RandomRegular { degree, seed } => {
                Topology::random_regular(n, degree as usize, seed)
            }
            Self::Hierarchical {
                rack_size,
                racks_per_row,
                rows,
                row_scale,
                dc_scale,
            } => {
                let dims = rack_size as usize * racks_per_row as usize * rows as usize;
                if dims != n {
                    return Err(format!(
                        "hierarchy is {rows} rows x {racks_per_row} racks x {rack_size} nodes \
                         = {dims} but the system has {n}"
                    ));
                }
                Topology::hierarchical(
                    rack_size as usize,
                    racks_per_row as usize,
                    rows as usize,
                    row_scale,
                    dc_scale,
                )
            }
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Self::Complete => "complete",
            Self::Ring => "ring",
            Self::Torus { .. } => "torus",
            Self::RandomRegular { .. } => "random-regular",
            Self::Hierarchical { .. } => "hierarchical",
        }
    }
}

/// External workload description.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalsSpec {
    /// Closed system: only the initial workload.
    None,
    /// A fixed, fully deterministic arrival list.
    Fixed(Vec<ExternalArrival>),
    /// A stochastic arrival process sampled by the engine.
    Process(ArrivalProcess),
}

/// A complete, serializable experiment description.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Registry/display name (kebab-case).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Monte-Carlo replications (≥ 1).
    pub reps: u64,
    /// Master seed; replication `r` derives its streams from `(seed, r)`.
    pub seed: u64,
    /// Optional hard stop per replication (seconds).
    pub deadline: Option<f64>,
    /// Optional simulation-time probe cadence (seconds between fleet
    /// telemetry samples; `[probe] dt = ...` in TOML). Probing is
    /// observational only — it never changes the trajectory.
    pub probe_dt: Option<f64>,
    /// Optional write-ahead journal directory (`[journal] dir = ...` in
    /// TOML): completed cells are recorded there for crash-safe resume —
    /// see [`crate::journal`]. The CLI's `--journal` flag overrides it.
    pub journal_dir: Option<String>,
    /// Node templates (expanding to ≥ 2 nodes).
    pub nodes: Vec<NodeSpec>,
    /// Network parameters.
    pub network: NetworkSpec,
    /// External workload.
    pub arrivals: ArrivalsSpec,
    /// Failure-coupling model.
    pub churn: ChurnModel,
    /// Transfer-channel fault model (`[channel]` in TOML). The default,
    /// [`ChannelModel::Reliable`], is omitted from the serialized form so
    /// every pre-channel preset keeps its exact TOML bytes.
    pub channel: ChannelModel,
    /// Interconnect topology; `None` is the unconstrained complete graph.
    pub topology: Option<TopologySpec>,
    /// The policy under test.
    pub policy: PolicySpec,
    /// Sweep axes baked into the scenario (may be empty).
    pub axes: Vec<Axis>,
}

/// A validation failure, carrying the offending scenario's name and a
/// machine-readable [`ScenarioErrorKind`]. `Display` renders the exact
/// human message the lab has always produced
/// (`scenario <name>: <detail>`), so callers that only want a string can
/// keep formatting with `{}` — while programmatic callers match on
/// [`ScenarioError::kind`] instead of grepping message text.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioError {
    /// Name of the scenario that failed validation.
    pub scenario: String,
    /// What, precisely, is wrong.
    pub kind: ScenarioErrorKind,
}

/// The typed taxonomy of scenario validation failures.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioErrorKind {
    /// `reps == 0`.
    ZeroReps,
    /// A node template expands to zero instances.
    ZeroTemplateCount {
        /// Template index within [`Scenario::nodes`].
        template: usize,
    },
    /// A service rate `λ_d` that is not finite and positive.
    NonPositiveServiceRate {
        /// Template index.
        template: usize,
        /// Offending value.
        value: f64,
    },
    /// A failure rate `λ_f` that is negative or non-finite.
    NegativeFailureRate {
        /// Template index.
        template: usize,
        /// Offending value.
        value: f64,
    },
    /// A recovery rate `λ_r` that is negative or non-finite.
    NegativeRecoveryRate {
        /// Template index.
        template: usize,
        /// Offending value.
        value: f64,
    },
    /// A failing node with no recovery path (`λ_f > 0`, `λ_r == 0`).
    NoRecovery {
        /// Template index.
        template: usize,
        /// The template's failure rate.
        failure_rate: f64,
    },
    /// Templates expand to fewer than two nodes.
    TooFewNodes {
        /// Expanded node count.
        expanded: usize,
    },
    /// Network delay components are negative, non-finite, or both zero.
    InvalidNetworkDelay {
        /// Load-independent component.
        fixed: f64,
        /// Per-task component.
        per_task: f64,
    },
    /// A deadline that is not finite and positive.
    NonPositiveDeadline {
        /// Offending value.
        value: f64,
    },
    /// A probe cadence that is not finite and positive.
    NonPositiveProbeDt {
        /// Offending value.
        value: f64,
    },
    /// A `[journal]` table with an empty `dir`.
    EmptyJournalDir,
    /// `--resume` passed without `--journal`: resume replays the
    /// content-addressed journal, so it must know which directory holds
    /// it.
    ResumeWithoutJournal,
    /// Churn-model parameter failure (message from
    /// [`ChurnModel::validate`]).
    Churn(String),
    /// Channel-model parameter failure (message from
    /// [`ChannelModel::validate`]).
    Channel(String),
    /// Topology construction failure (dimension/node-count mismatch etc.).
    Topology(String),
    /// A fixed arrival addressed to a node index outside the system.
    ArrivalUnknownNode {
        /// The out-of-range node index.
        node: usize,
    },
    /// A fixed arrival scheduled at a negative or non-finite time.
    NegativeArrivalTime {
        /// Offending value.
        value: f64,
    },
    /// Arrival-process parameter failure.
    Arrivals(String),
    /// Policy failure — unknown kind for the system, or a gain outside
    /// `[0, 1]` (message from `PolicySpec::validate_for`).
    Policy(String),
    /// Sweep-axis failure (empty values, non-finite entries, ...).
    Axis(String),
    /// A TOML key the table does not define — a typo that would
    /// otherwise fall back to a default without a word.
    UnknownKey {
        /// Where the key sits: `document root`, `[channel]`,
        /// `[[node]] #2`, ...
        table: String,
        /// The unknown key.
        key: String,
        /// The keys this table accepts (for a kind-dependent table, the
        /// keys of its `kind`).
        expected: Vec<String>,
    },
    /// A `[table]` or `[[table]]` the scenario format does not define.
    UnknownTable {
        /// The table header as written, brackets included.
        table: String,
        /// The tables the format defines.
        expected: Vec<&'static str>,
    },
}

impl std::fmt::Display for ScenarioErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroReps => write!(f, "reps must be >= 1"),
            Self::ZeroTemplateCount { template } => {
                write!(f, "node template {template}: count must be >= 1")
            }
            Self::NonPositiveServiceRate { template, value } => write!(
                f,
                "node template {template}: service_rate must be positive, got {value}"
            ),
            Self::NegativeFailureRate { template, value } => write!(
                f,
                "node template {template}: failure_rate must be >= 0, got {value}"
            ),
            Self::NegativeRecoveryRate { template, value } => write!(
                f,
                "node template {template}: recovery_rate must be >= 0, got {value}"
            ),
            Self::NoRecovery {
                template,
                failure_rate,
            } => write!(
                f,
                "node template {template}: a node that fails (failure_rate {failure_rate}) \
                 must recover (recovery_rate is 0)"
            ),
            Self::TooFewNodes { expanded } => write!(
                f,
                "needs at least two nodes, templates expand to {expanded}"
            ),
            Self::InvalidNetworkDelay { fixed, per_task } => write!(
                f,
                "network delay must be finite, non-negative and not \
                 identically zero (fixed {fixed}, per_task {per_task})"
            ),
            Self::NonPositiveDeadline { value } => {
                write!(f, "deadline must be positive, got {value}")
            }
            Self::NonPositiveProbeDt { value } => {
                write!(f, "probe dt must be positive, got {value}")
            }
            Self::EmptyJournalDir => write!(f, "journal dir must be non-empty"),
            Self::ResumeWithoutJournal => {
                write!(
                    f,
                    "--resume needs --journal DIR to know where the journal lives"
                )
            }
            Self::Churn(e)
            | Self::Channel(e)
            | Self::Arrivals(e)
            | Self::Policy(e)
            | Self::Axis(e) => {
                write!(f, "{e}")
            }
            Self::Topology(e) => write!(f, "topology: {e}"),
            Self::ArrivalUnknownNode { node } => {
                write!(f, "fixed arrival targets unknown node {node}")
            }
            Self::NegativeArrivalTime { value } => {
                write!(f, "fixed arrival time must be >= 0, got {value}")
            }
            Self::UnknownKey {
                table,
                key,
                expected,
            } => write!(
                f,
                "{table}: unknown key `{key}` (expected {})",
                expected.join(", ")
            ),
            Self::UnknownTable { table, expected } => write!(
                f,
                "unknown table `{table}` (expected {})",
                expected.join(", ")
            ),
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario {}: {}", self.scenario, self.kind)
    }
}

impl std::error::Error for ScenarioError {}

impl From<ScenarioError> for String {
    fn from(e: ScenarioError) -> Self {
        e.to_string()
    }
}

impl Scenario {
    /// Validates the spec and materializes the simulator configuration.
    ///
    /// # Errors
    /// Fails with a precise message naming the offending field. This is
    /// the stringly-typed convenience wrapper around
    /// [`Scenario::system_config_checked`].
    pub fn system_config(&self) -> Result<SystemConfig, String> {
        self.system_config_checked().map_err(|e| e.to_string())
    }

    /// Validates the spec and materializes the simulator configuration,
    /// reporting failures through the typed [`ScenarioError`] taxonomy.
    ///
    /// # Errors
    /// One [`ScenarioError`] naming the scenario and the precise defect.
    pub fn system_config_checked(&self) -> Result<SystemConfig, ScenarioError> {
        let fail = |kind: ScenarioErrorKind| ScenarioError {
            scenario: self.name.clone(),
            kind,
        };
        if self.reps == 0 {
            return Err(fail(ScenarioErrorKind::ZeroReps));
        }
        let mut nodes = Vec::new();
        for (i, spec) in self.nodes.iter().enumerate() {
            if spec.count == 0 {
                return Err(fail(ScenarioErrorKind::ZeroTemplateCount { template: i }));
            }
            if !(spec.service_rate.is_finite() && spec.service_rate > 0.0) {
                return Err(fail(ScenarioErrorKind::NonPositiveServiceRate {
                    template: i,
                    value: spec.service_rate,
                }));
            }
            if !(spec.failure_rate.is_finite() && spec.failure_rate >= 0.0) {
                return Err(fail(ScenarioErrorKind::NegativeFailureRate {
                    template: i,
                    value: spec.failure_rate,
                }));
            }
            if !(spec.recovery_rate.is_finite() && spec.recovery_rate >= 0.0) {
                return Err(fail(ScenarioErrorKind::NegativeRecoveryRate {
                    template: i,
                    value: spec.recovery_rate,
                }));
            }
            if spec.failure_rate > 0.0 && spec.recovery_rate == 0.0 {
                return Err(fail(ScenarioErrorKind::NoRecovery {
                    template: i,
                    failure_rate: spec.failure_rate,
                }));
            }
            for _ in 0..spec.count {
                nodes.push(NodeConfig::new(
                    spec.service_rate,
                    spec.failure_rate,
                    spec.recovery_rate,
                    spec.initial_tasks,
                ));
            }
        }
        if nodes.len() < 2 {
            return Err(fail(ScenarioErrorKind::TooFewNodes {
                expanded: nodes.len(),
            }));
        }
        let net_ok = self.network.fixed.is_finite()
            && self.network.fixed >= 0.0
            && self.network.per_task.is_finite()
            && self.network.per_task >= 0.0
            && self.network.fixed + self.network.per_task > 0.0;
        if !net_ok {
            return Err(fail(ScenarioErrorKind::InvalidNetworkDelay {
                fixed: self.network.fixed,
                per_task: self.network.per_task,
            }));
        }
        if let Some(d) = self.deadline {
            if !(d.is_finite() && d > 0.0) {
                return Err(fail(ScenarioErrorKind::NonPositiveDeadline { value: d }));
            }
        }
        if let Some(dt) = self.probe_dt {
            if !(dt.is_finite() && dt > 0.0) {
                return Err(fail(ScenarioErrorKind::NonPositiveProbeDt { value: dt }));
            }
        }
        if let Some(dir) = &self.journal_dir {
            if dir.is_empty() {
                return Err(fail(ScenarioErrorKind::EmptyJournalDir));
            }
        }
        self.churn
            .validate()
            .map_err(|e| fail(ScenarioErrorKind::Churn(e)))?;
        self.channel
            .validate()
            .map_err(|e| fail(ScenarioErrorKind::Channel(e)))?;
        let mut config = SystemConfig::new(
            nodes,
            NetworkConfig::new(self.network.fixed, self.network.per_task, self.network.law),
        )
        .with_churn_model(self.churn.clone())
        .with_channel_model(self.channel.clone());
        if let Some(spec) = &self.topology {
            let topo = spec
                .build(config.num_nodes())
                .map_err(|e| fail(ScenarioErrorKind::Topology(e)))?;
            config = config.with_topology(topo);
        }
        match &self.arrivals {
            ArrivalsSpec::None => {}
            ArrivalsSpec::Fixed(list) => {
                for a in list {
                    if a.node >= config.num_nodes() {
                        return Err(fail(ScenarioErrorKind::ArrivalUnknownNode { node: a.node }));
                    }
                    if !(a.time.is_finite() && a.time >= 0.0) {
                        return Err(fail(ScenarioErrorKind::NegativeArrivalTime {
                            value: a.time,
                        }));
                    }
                }
                config = config.with_external_arrivals(list.clone());
            }
            ArrivalsSpec::Process(p) => {
                p.validate()
                    .map_err(|e| fail(ScenarioErrorKind::Arrivals(e)))?;
                config = config.with_arrival_process(p.clone());
            }
        }
        self.policy
            .validate_for(&config)
            .map_err(|e| fail(ScenarioErrorKind::Policy(e)))?;
        for axis in &self.axes {
            axis.validate()
                .map_err(|e| fail(ScenarioErrorKind::Axis(e)))?;
        }
        Ok(config)
    }

    /// Full validation without materializing (config + policy + axes).
    ///
    /// # Errors
    /// Same conditions as [`Scenario::system_config_checked`], as a typed
    /// [`ScenarioError`] (which converts into the legacy string form via
    /// `Display` / `From<ScenarioError> for String`).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.system_config_checked().map(|_| ())
    }

    /// Replication count under the common `--quick` convention
    /// (a tenth of the spec, at least 10).
    #[must_use]
    pub fn quick_reps(&self) -> u64 {
        (self.reps / 10).max(10)
    }

    // ---- TOML mapping -----------------------------------------------

    /// Serializes to the lab's TOML subset (canonical form).
    #[must_use]
    pub fn to_toml(&self) -> String {
        self.to_doc().serialize()
    }

    /// Parses a scenario from the lab's TOML subset.
    ///
    /// # Errors
    /// Reports the first syntactic error with its line number, or the
    /// first semantic error with its section and key. A key or table the
    /// format does not define is an error
    /// ([`ScenarioErrorKind::UnknownKey`] /
    /// [`ScenarioErrorKind::UnknownTable`]), never silently ignored.
    pub fn from_toml(text: &str) -> Result<Self, String> {
        Self::from_doc(&Doc::parse(text)?)
    }

    fn to_doc(&self) -> Doc {
        let mut doc = Doc::default();
        doc.root.set("name", Value::Str(self.name.clone()));
        doc.root
            .set("description", Value::Str(self.description.clone()));
        doc.root.set("reps", Value::Int(self.reps as i64));
        // Seeds use the full u64 space; they travel through the TOML
        // subset's signed integers in two's complement (the parser casts
        // back), so every seed value round-trips exactly.
        doc.root.set("seed", Value::Int(self.seed as i64));
        if let Some(d) = self.deadline {
            doc.root.set("deadline", Value::Float(d));
        }
        // The [probe] table is emitted only when probing is configured,
        // so probe-free presets keep their exact pre-probe TOML bytes.
        if let Some(dt) = self.probe_dt {
            let mut probe = Table::new();
            probe.set("dt", Value::Float(dt));
            doc.set_table("probe", probe);
        }
        // Likewise [journal]: only present when a journal directory is
        // configured, so journal-free scenarios keep their exact bytes.
        if let Some(dir) = &self.journal_dir {
            let mut journal = Table::new();
            journal.set("dir", Value::Str(dir.clone()));
            doc.set_table("journal", journal);
        }

        let mut net = Table::new();
        net.set("fixed", Value::Float(self.network.fixed));
        net.set("per_task", Value::Float(self.network.per_task));
        net.set("law", Value::Str(delay_law_name(self.network.law).into()));
        doc.set_table("network", net);

        let mut pol = Table::new();
        pol.set("kind", Value::Str(self.policy.kind().into()));
        match &self.policy {
            PolicySpec::Lbp1 {
                sender,
                receiver,
                gain,
            } => {
                pol.set("sender", Value::Int(*sender as i64));
                pol.set("receiver", Value::Int(*receiver as i64));
                pol.set("gain", Value::Float(*gain));
            }
            PolicySpec::Lbp2 { gain }
            | PolicySpec::EpisodicLbp2 { gain }
            | PolicySpec::InitialBalanceOnly { gain } => {
                pol.set("gain", Value::Float(*gain));
            }
            PolicySpec::ChaosPanic { rep } => {
                pol.set("rep", Value::Int(*rep as i64));
            }
            _ => {}
        }
        doc.set_table("policy", pol);

        let mut churn = Table::new();
        match &self.churn {
            ChurnModel::Independent => {
                churn.set("kind", Value::Str("independent".into()));
            }
            ChurnModel::CorrelatedShocks {
                shock_rate,
                hit_probability,
            } => {
                churn.set("kind", Value::Str("correlated-shocks".into()));
                churn.set("shock_rate", Value::Float(*shock_rate));
                churn.set("hit_probability", Value::Float(*hit_probability));
            }
            ChurnModel::Cascading { amplification } => {
                churn.set("kind", Value::Str("cascading".into()));
                churn.set("amplification", Value::Float(*amplification));
            }
            ChurnModel::Adversarial { strike_rate } => {
                churn.set("kind", Value::Str("adversarial".into()));
                churn.set("strike_rate", Value::Float(*strike_rate));
            }
            ChurnModel::RackShocks {
                shock_rate,
                group_size,
                hit_probabilities,
            } => {
                churn.set("kind", Value::Str("rack-shocks".into()));
                churn.set("shock_rate", Value::Float(*shock_rate));
                churn.set("group_size", Value::Int(i64::from(*group_size)));
                churn.set(
                    "hit_probabilities",
                    Value::Array(hit_probabilities.iter().map(|&p| Value::Float(p)).collect()),
                );
            }
        }
        doc.set_table("churn", churn);

        // The [channel] table is emitted only for lossy models, so every
        // pre-channel preset keeps its exact TOML bytes.
        if let ChannelModel::Lossy {
            loss_probability,
            on_down,
            max_retries,
            retry_backoff,
        } = &self.channel
        {
            let mut ch = Table::new();
            ch.set("kind", Value::Str("lossy".into()));
            ch.set("loss_probability", Value::Float(*loss_probability));
            ch.set("on_down", Value::Str(on_down.name().into()));
            ch.set("max_retries", Value::Int(i64::from(*max_retries)));
            ch.set("retry_backoff", Value::Float(*retry_backoff));
            doc.set_table("channel", ch);
        }

        if let Some(spec) = &self.topology {
            let mut topo = Table::new();
            topo.set("kind", Value::Str(spec.kind().into()));
            match *spec {
                TopologySpec::Complete | TopologySpec::Ring => {}
                TopologySpec::Torus { rows, cols } => {
                    topo.set("rows", Value::Int(i64::from(rows)));
                    topo.set("cols", Value::Int(i64::from(cols)));
                }
                TopologySpec::RandomRegular { degree, seed } => {
                    topo.set("degree", Value::Int(i64::from(degree)));
                    topo.set("seed", Value::Int(seed as i64));
                }
                TopologySpec::Hierarchical {
                    rack_size,
                    racks_per_row,
                    rows,
                    row_scale,
                    dc_scale,
                } => {
                    topo.set("rack_size", Value::Int(i64::from(rack_size)));
                    topo.set("racks_per_row", Value::Int(i64::from(racks_per_row)));
                    topo.set("rows", Value::Int(i64::from(rows)));
                    topo.set("row_scale", Value::Float(row_scale));
                    topo.set("dc_scale", Value::Float(dc_scale));
                }
            }
            doc.set_table("topology", topo);
        }

        let mut arr = Table::new();
        match &self.arrivals {
            ArrivalsSpec::None => arr.set("kind", Value::Str("none".into())),
            ArrivalsSpec::Fixed(_) => arr.set("kind", Value::Str("fixed".into())),
            ArrivalsSpec::Process(p) => {
                match &p.kind {
                    ArrivalKind::Poisson { rate } => {
                        arr.set("kind", Value::Str("poisson".into()));
                        arr.set("rate", Value::Float(*rate));
                    }
                    ArrivalKind::Mmpp {
                        rates,
                        switch_rates,
                    } => {
                        arr.set("kind", Value::Str("mmpp".into()));
                        arr.set(
                            "rates",
                            Value::Array(rates.iter().map(|&x| Value::Float(x)).collect()),
                        );
                        arr.set(
                            "switch_rates",
                            Value::Array(switch_rates.iter().map(|&x| Value::Float(x)).collect()),
                        );
                    }
                    ArrivalKind::Diurnal {
                        base_rate,
                        amplitude,
                        period,
                    } => {
                        arr.set("kind", Value::Str("diurnal".into()));
                        arr.set("base_rate", Value::Float(*base_rate));
                        arr.set("amplitude", Value::Float(*amplitude));
                        arr.set("period", Value::Float(*period));
                    }
                    ArrivalKind::FlashCrowd {
                        base_rate,
                        spike_start,
                        spike_duration,
                        spike_factor,
                    } => {
                        arr.set("kind", Value::Str("flash-crowd".into()));
                        arr.set("base_rate", Value::Float(*base_rate));
                        arr.set("spike_start", Value::Float(*spike_start));
                        arr.set("spike_duration", Value::Float(*spike_duration));
                        arr.set("spike_factor", Value::Float(*spike_factor));
                    }
                }
                arr.set("batch_min", Value::Int(i64::from(p.batch_min)));
                arr.set("batch_max", Value::Int(i64::from(p.batch_max)));
                arr.set("horizon", Value::Float(p.horizon));
            }
        }
        doc.set_table("arrivals", arr);

        for n in &self.nodes {
            let mut t = Table::new();
            t.set("service_rate", Value::Float(n.service_rate));
            t.set("failure_rate", Value::Float(n.failure_rate));
            t.set("recovery_rate", Value::Float(n.recovery_rate));
            t.set("initial_tasks", Value::Int(i64::from(n.initial_tasks)));
            t.set("count", Value::Int(i64::from(n.count)));
            doc.push_array("node", t);
        }
        if let ArrivalsSpec::Fixed(list) = &self.arrivals {
            for a in list {
                let mut t = Table::new();
                t.set("time", Value::Float(a.time));
                t.set("node", Value::Int(a.node as i64));
                t.set("tasks", Value::Int(i64::from(a.tasks)));
                doc.push_array("arrival", t);
            }
        }
        for axis in &self.axes {
            let mut t = Table::new();
            t.set("param", Value::Str(axis.param.key().into()));
            t.set(
                "values",
                Value::Array(axis.values.iter().map(|&x| Value::Float(x)).collect()),
            );
            doc.push_array("axis", t);
        }
        doc
    }

    fn from_doc(doc: &Doc) -> Result<Self, String> {
        let name = req_str(&doc.root, "", "name")?;
        let description = opt_str(&doc.root, "description").unwrap_or_default();
        let reps = req_u64(&doc.root, "", "reps")?;
        // Inverse of the two's-complement serialization in `to_doc`:
        // negative literals map back to seeds above `i64::MAX`.
        let seed = req_i64(&doc.root, "", "seed")? as u64;
        let deadline = opt_f64(&doc.root, "", "deadline")?;
        let probe_dt = match doc.table("probe") {
            None => None,
            Some(t) => Some(req_f64(t, "[probe]", "dt")?),
        };
        let journal_dir = match doc.table("journal") {
            None => None,
            Some(t) => Some(req_str(t, "[journal]", "dir")?),
        };

        let net = doc
            .table("network")
            .ok_or("missing [network] table".to_string())?;
        let network = NetworkSpec {
            fixed: req_f64(net, "[network]", "fixed")?,
            per_task: req_f64(net, "[network]", "per_task")?,
            law: parse_delay_law(&req_str(net, "[network]", "law")?)?,
        };

        let mut nodes = Vec::new();
        for (i, t) in doc.array("node").iter().enumerate() {
            let ctx = format!("[[node]] #{}", i + 1);
            nodes.push(NodeSpec {
                service_rate: req_f64(t, &ctx, "service_rate")?,
                failure_rate: req_f64(t, &ctx, "failure_rate")?,
                recovery_rate: req_f64(t, &ctx, "recovery_rate")?,
                initial_tasks: req_u32(t, &ctx, "initial_tasks")?,
                count: match t.get("count") {
                    Some(_) => req_u32(t, &ctx, "count")?,
                    None => 1,
                },
            });
        }
        if nodes.is_empty() {
            return Err("missing [[node]] tables (need at least two nodes)".into());
        }

        let pol = doc
            .table("policy")
            .ok_or("missing [policy] table".to_string())?;
        let policy = parse_policy(pol)?;

        let churn = match doc.table("churn") {
            None => ChurnModel::Independent,
            Some(t) => match req_str(t, "[churn]", "kind")?.as_str() {
                "independent" => ChurnModel::Independent,
                "correlated-shocks" => ChurnModel::CorrelatedShocks {
                    shock_rate: req_f64(t, "[churn]", "shock_rate")?,
                    hit_probability: req_f64(t, "[churn]", "hit_probability")?,
                },
                "cascading" => ChurnModel::Cascading {
                    amplification: req_f64(t, "[churn]", "amplification")?,
                },
                "adversarial" => ChurnModel::Adversarial {
                    strike_rate: req_f64(t, "[churn]", "strike_rate")?,
                },
                "rack-shocks" => ChurnModel::RackShocks {
                    shock_rate: req_f64(t, "[churn]", "shock_rate")?,
                    group_size: req_u32(t, "[churn]", "group_size")?,
                    hit_probabilities: req_f64_array(t, "[churn]", "hit_probabilities")?,
                },
                other => {
                    return Err(format!(
                        "[churn].kind: unknown churn model \"{other}\" (expected independent \
                         | correlated-shocks | cascading | adversarial | rack-shocks)"
                    ))
                }
            },
        };

        let channel = match doc.table("channel") {
            None => ChannelModel::Reliable,
            Some(t) => match req_str(t, "[channel]", "kind")?.as_str() {
                "reliable" => ChannelModel::Reliable,
                "lossy" => ChannelModel::Lossy {
                    loss_probability: req_f64(t, "[channel]", "loss_probability")?,
                    on_down: match req_str(t, "[channel]", "on_down")?.as_str() {
                        "enqueue" => DownPolicy::Enqueue,
                        "drop" => DownPolicy::Drop,
                        "bounce" => DownPolicy::Bounce,
                        other => {
                            return Err(format!(
                                "[channel].on_down: unknown down policy \"{other}\" \
                                 (expected enqueue | drop | bounce)"
                            ))
                        }
                    },
                    max_retries: req_u32(t, "[channel]", "max_retries")?,
                    retry_backoff: req_f64(t, "[channel]", "retry_backoff")?,
                },
                other => {
                    return Err(format!(
                        "[channel].kind: unknown channel model \"{other}\" \
                         (expected reliable | lossy)"
                    ))
                }
            },
        };

        let topology = match doc.table("topology") {
            None => None,
            Some(t) => Some(match req_str(t, "[topology]", "kind")?.as_str() {
                "complete" => TopologySpec::Complete,
                "ring" => TopologySpec::Ring,
                "torus" => TopologySpec::Torus {
                    rows: req_u32(t, "[topology]", "rows")?,
                    cols: req_u32(t, "[topology]", "cols")?,
                },
                "random-regular" => TopologySpec::RandomRegular {
                    degree: req_u32(t, "[topology]", "degree")?,
                    seed: req_i64(t, "[topology]", "seed")? as u64,
                },
                "hierarchical" => TopologySpec::Hierarchical {
                    rack_size: req_u32(t, "[topology]", "rack_size")?,
                    racks_per_row: req_u32(t, "[topology]", "racks_per_row")?,
                    rows: req_u32(t, "[topology]", "rows")?,
                    row_scale: req_f64(t, "[topology]", "row_scale")?,
                    dc_scale: req_f64(t, "[topology]", "dc_scale")?,
                },
                other => {
                    return Err(format!(
                        "[topology].kind: unknown topology \"{other}\" (expected complete \
                         | ring | torus | random-regular | hierarchical)"
                    ))
                }
            }),
        };

        let arrivals = match doc.table("arrivals") {
            None => ArrivalsSpec::None,
            Some(t) => parse_arrivals(t, doc)?,
        };
        if !matches!(arrivals, ArrivalsSpec::Fixed(_)) && !doc.array("arrival").is_empty() {
            return Err("[[arrival]] tables need [arrivals] kind = \"fixed\"".into());
        }

        let mut axes = Vec::new();
        for (i, t) in doc.array("axis").iter().enumerate() {
            let ctx = format!("[[axis]] #{}", i + 1);
            let param = AxisParam::parse(&req_str(t, &ctx, "param")?)?;
            let values = t
                .get("values")
                .ok_or(format!("{ctx}: missing key `values`"))?;
            let Some(items) = values.as_array() else {
                return Err(format!("{ctx}.values: expected an array"));
            };
            let mut vals = Vec::new();
            for (j, v) in items.iter().enumerate() {
                vals.push(
                    v.as_f64()
                        .ok_or(format!("{ctx}.values[{j}]: expected a number"))?,
                );
            }
            axes.push(Axis {
                param,
                values: vals,
            });
        }

        let scenario = Self {
            name,
            description,
            reps,
            seed,
            deadline,
            probe_dt,
            journal_dir,
            nodes,
            network,
            arrivals,
            churn,
            channel,
            topology,
            policy,
            axes,
        };
        check_keys(doc, &scenario.to_doc()).map_err(|kind| ScenarioError {
            scenario: scenario.name.clone(),
            kind,
        })?;
        Ok(scenario)
    }
}

/// Rejects keys and tables the scenario format does not define, so a typo
/// (`repz = 3`, `[chanel]`) fails loudly instead of silently running a
/// different experiment. A table accepts the keys the canonical form of
/// the parsed scenario writes there, so a kind-dependent table accepts
/// exactly the keys of its `kind`.
fn check_keys(doc: &Doc, canonical: &Doc) -> Result<(), ScenarioErrorKind> {
    const TABLES: [&str; 11] = [
        "[probe]",
        "[journal]",
        "[network]",
        "[policy]",
        "[churn]",
        "[channel]",
        "[topology]",
        "[arrivals]",
        "[[node]]",
        "[[arrival]]",
        "[[axis]]",
    ];
    let known_table = |header: String| {
        if TABLES.contains(&header.as_str()) {
            Ok(header)
        } else {
            Err(ScenarioErrorKind::UnknownTable {
                table: header,
                expected: TABLES.to_vec(),
            })
        }
    };
    let root = ["name", "description", "reps", "seed", "deadline"];
    known_keys(&doc.root, "document root".into(), &root)?;
    for (name, t) in &doc.tables {
        let header = known_table(format!("[{name}]"))?;
        // Only the default reliable [channel] has no canonical table.
        match canonical.table(name) {
            Some(c) => known_keys(t, header, &c.keys())?,
            None => known_keys(t, header, &["kind"])?,
        }
    }
    for (name, tables) in &doc.arrays {
        let header = known_table(format!("[[{name}]]"))?;
        // The canonical form writes back one table per parsed entry
        // (stray [[arrival]] tables are rejected while parsing).
        for (i, (t, c)) in tables.iter().zip(canonical.array(name)).enumerate() {
            known_keys(t, format!("{header} #{}", i + 1), &c.keys())?;
        }
    }
    Ok(())
}

/// The first key of `t` outside `expected`, as an error.
fn known_keys(t: &Table, table: String, expected: &[&str]) -> Result<(), ScenarioErrorKind> {
    match t.keys().into_iter().find(|key| !expected.contains(key)) {
        None => Ok(()),
        Some(key) => Err(ScenarioErrorKind::UnknownKey {
            table,
            key: key.to_string(),
            expected: expected.iter().map(|k| (*k).to_string()).collect(),
        }),
    }
}

fn delay_law_name(law: DelayLaw) -> &'static str {
    match law {
        DelayLaw::ExponentialBatch => "exponential-batch",
        DelayLaw::ErlangPerTask => "erlang-per-task",
        DelayLaw::DeterministicBatch => "deterministic-batch",
    }
}

fn parse_delay_law(name: &str) -> Result<DelayLaw, String> {
    match name {
        "exponential-batch" => Ok(DelayLaw::ExponentialBatch),
        "erlang-per-task" => Ok(DelayLaw::ErlangPerTask),
        "deterministic-batch" => Ok(DelayLaw::DeterministicBatch),
        other => Err(format!(
            "[network].law: unknown delay law \"{other}\" (expected exponential-batch \
             | erlang-per-task | deterministic-batch)"
        )),
    }
}

fn parse_policy(t: &Table) -> Result<PolicySpec, String> {
    let kind = req_str(t, "[policy]", "kind")?;
    match kind.as_str() {
        "no-balancing" => Ok(PolicySpec::NoBalancing),
        "lbp1" => Ok(PolicySpec::Lbp1 {
            sender: req_usize(t, "[policy]", "sender")?,
            receiver: req_usize(t, "[policy]", "receiver")?,
            gain: req_f64(t, "[policy]", "gain")?,
        }),
        "lbp1-optimal" => Ok(PolicySpec::Lbp1Optimal),
        "lbp2" => Ok(PolicySpec::Lbp2 {
            gain: req_f64(t, "[policy]", "gain")?,
        }),
        "lbp2-optimal" => Ok(PolicySpec::Lbp2Optimal),
        "episodic-lbp2" => Ok(PolicySpec::EpisodicLbp2 {
            gain: req_f64(t, "[policy]", "gain")?,
        }),
        "dynamic-lbp1" => Ok(PolicySpec::DynamicLbp1),
        "initial-only" => Ok(PolicySpec::InitialBalanceOnly {
            gain: req_f64(t, "[policy]", "gain")?,
        }),
        "upon-failure-only" => Ok(PolicySpec::UponFailureOnly),
        "chaos-panic" => Ok(PolicySpec::ChaosPanic {
            rep: req_u64(t, "[policy]", "rep")?,
        }),
        other => Err(format!(
            "[policy].kind: unknown policy \"{other}\" (expected no-balancing | lbp1 \
             | lbp1-optimal | lbp2 | lbp2-optimal | episodic-lbp2 | dynamic-lbp1 \
             | initial-only | upon-failure-only | chaos-panic)"
        )),
    }
}

fn parse_arrivals(t: &Table, doc: &Doc) -> Result<ArrivalsSpec, String> {
    let kind = req_str(t, "[arrivals]", "kind")?;
    let process_kind = match kind.as_str() {
        "none" => return Ok(ArrivalsSpec::None),
        "fixed" => {
            let mut list = Vec::new();
            for (i, a) in doc.array("arrival").iter().enumerate() {
                let ctx = format!("[[arrival]] #{}", i + 1);
                list.push(ExternalArrival {
                    time: req_f64(a, &ctx, "time")?,
                    node: req_usize(a, &ctx, "node")?,
                    tasks: req_u32(a, &ctx, "tasks")?,
                });
            }
            return Ok(ArrivalsSpec::Fixed(list));
        }
        "poisson" => ArrivalKind::Poisson {
            rate: req_f64(t, "[arrivals]", "rate")?,
        },
        "mmpp" => ArrivalKind::Mmpp {
            rates: req_f64_array(t, "[arrivals]", "rates")?,
            switch_rates: req_f64_array(t, "[arrivals]", "switch_rates")?,
        },
        "diurnal" => ArrivalKind::Diurnal {
            base_rate: req_f64(t, "[arrivals]", "base_rate")?,
            amplitude: req_f64(t, "[arrivals]", "amplitude")?,
            period: req_f64(t, "[arrivals]", "period")?,
        },
        "flash-crowd" => ArrivalKind::FlashCrowd {
            base_rate: req_f64(t, "[arrivals]", "base_rate")?,
            spike_start: req_f64(t, "[arrivals]", "spike_start")?,
            spike_duration: req_f64(t, "[arrivals]", "spike_duration")?,
            spike_factor: req_f64(t, "[arrivals]", "spike_factor")?,
        },
        other => {
            return Err(format!(
                "[arrivals].kind: unknown arrival process \"{other}\" (expected none | fixed \
                 | poisson | mmpp | diurnal | flash-crowd)"
            ))
        }
    };
    Ok(ArrivalsSpec::Process(ArrivalProcess {
        kind: process_kind,
        batch_min: req_u32(t, "[arrivals]", "batch_min")?,
        batch_max: req_u32(t, "[arrivals]", "batch_max")?,
        horizon: req_f64(t, "[arrivals]", "horizon")?,
    }))
}

// ---- typed field accessors with contextual errors ---------------------

fn ctx_key(ctx: &str, key: &str) -> String {
    if ctx.is_empty() {
        format!("`{key}`")
    } else {
        format!("{ctx}.{key}")
    }
}

fn req_str(t: &Table, ctx: &str, key: &str) -> Result<String, String> {
    let v = t.get(key).ok_or(format!(
        "{}: missing key `{key}`",
        if ctx.is_empty() { "document root" } else { ctx }
    ))?;
    v.as_str()
        .map(str::to_string)
        .ok_or(format!("{}: expected a string", ctx_key(ctx, key)))
}

fn opt_str(t: &Table, key: &str) -> Option<String> {
    t.get(key).and_then(|v| v.as_str()).map(str::to_string)
}

fn req_f64(t: &Table, ctx: &str, key: &str) -> Result<f64, String> {
    let v = t.get(key).ok_or(format!(
        "{}: missing key `{key}`",
        if ctx.is_empty() { "document root" } else { ctx }
    ))?;
    v.as_f64()
        .ok_or(format!("{}: expected a number", ctx_key(ctx, key)))
}

fn opt_f64(t: &Table, ctx: &str, key: &str) -> Result<Option<f64>, String> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or(format!("{}: expected a number", ctx_key(ctx, key))),
    }
}

fn req_i64(t: &Table, ctx: &str, key: &str) -> Result<i64, String> {
    let v = t.get(key).ok_or(format!(
        "{}: missing key `{key}`",
        if ctx.is_empty() { "document root" } else { ctx }
    ))?;
    v.as_int()
        .ok_or(format!("{}: expected an integer", ctx_key(ctx, key)))
}

fn req_u64(t: &Table, ctx: &str, key: &str) -> Result<u64, String> {
    let i = req_i64(t, ctx, key)?;
    u64::try_from(i).map_err(|_| format!("{}: must be >= 0, got {i}", ctx_key(ctx, key)))
}

fn req_u32(t: &Table, ctx: &str, key: &str) -> Result<u32, String> {
    let i = req_i64(t, ctx, key)?;
    u32::try_from(i).map_err(|_| {
        format!(
            "{}: must be between 0 and {}, got {i}",
            ctx_key(ctx, key),
            u32::MAX
        )
    })
}

fn req_usize(t: &Table, ctx: &str, key: &str) -> Result<usize, String> {
    let i = req_i64(t, ctx, key)?;
    usize::try_from(i).map_err(|_| format!("{}: must be >= 0, got {i}", ctx_key(ctx, key)))
}

fn req_f64_array(t: &Table, ctx: &str, key: &str) -> Result<Vec<f64>, String> {
    let v = t.get(key).ok_or(format!("{ctx}: missing key `{key}`"))?;
    let Some(items) = v.as_array() else {
        return Err(format!(
            "{}: expected an array of numbers",
            ctx_key(ctx, key)
        ));
    };
    items
        .iter()
        .enumerate()
        .map(|(i, x)| {
            x.as_f64()
                .ok_or(format!("{}[{i}]: expected a number", ctx_key(ctx, key)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn toml_round_trip_is_identity_for_presets() {
        for name in registry::names() {
            let sc = registry::get(name).expect("preset exists");
            let text = sc.to_toml();
            let back = Scenario::from_toml(&text)
                .unwrap_or_else(|e| panic!("{name}: reparse failed: {e}\n{text}"));
            assert_eq!(sc, back, "{name}: round trip changed the scenario");
        }
    }

    #[test]
    fn semantic_errors_name_section_and_key() {
        let base = registry::get("paper-fig3").expect("preset").to_toml();
        // Drop the [network] table.
        let text = base
            .lines()
            .filter(|l| !l.starts_with("[network]") && !l.contains("per_task"))
            .collect::<Vec<_>>()
            .join("\n");
        let err = Scenario::from_toml(&text).unwrap_err();
        assert!(
            err.contains("[network]") || err.contains("missing [network]"),
            "{err}"
        );

        let err = Scenario::from_toml("name = \"x\"\nseed = 1\n").unwrap_err();
        assert!(err.contains("missing key `reps`"), "{err}");

        let bad_policy = base.replace("kind = \"lbp1\"", "kind = \"lbp3\"");
        let err = Scenario::from_toml(&bad_policy).unwrap_err();
        assert!(err.contains("unknown policy \"lbp3\""), "{err}");

        let bad_law = base.replace("law = \"exponential-batch\"", "law = \"gamma\"");
        let err = Scenario::from_toml(&bad_law).unwrap_err();
        assert!(err.contains("unknown delay law \"gamma\""), "{err}");

        let bad_reps = base.replace("reps = 500", "reps = -4");
        let err = Scenario::from_toml(&bad_reps).unwrap_err();
        assert!(err.contains("`reps`") && err.contains(">= 0"), "{err}");
    }

    #[test]
    fn config_validation_reports_precise_messages() {
        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.nodes[0].service_rate = -1.0;
        let err = sc.validate().unwrap_err().to_string();
        assert!(err.contains("service_rate must be positive"), "{err}");

        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.nodes[0].recovery_rate = 0.0;
        let err = sc.validate().unwrap_err().to_string();
        assert!(err.contains("must recover"), "{err}");

        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.nodes.truncate(1);
        sc.nodes[0].count = 1;
        let err = sc.validate().unwrap_err().to_string();
        assert!(err.contains("at least two nodes"), "{err}");

        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.reps = 0;
        let err = sc.validate().unwrap_err().to_string();
        assert!(err.contains("reps must be >= 1"), "{err}");
    }

    #[test]
    fn validation_errors_carry_a_typed_taxonomy() {
        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.nodes[0].service_rate = -1.0;
        let err = sc.validate().unwrap_err();
        assert_eq!(err.scenario, sc.name);
        assert_eq!(
            err.kind,
            ScenarioErrorKind::NonPositiveServiceRate {
                template: 0,
                value: -1.0
            }
        );

        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.nodes[0].failure_rate = -0.5;
        assert_eq!(
            sc.validate().unwrap_err().kind,
            ScenarioErrorKind::NegativeFailureRate {
                template: 0,
                value: -0.5
            }
        );

        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.reps = 0;
        assert_eq!(sc.validate().unwrap_err().kind, ScenarioErrorKind::ZeroReps);

        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.probe_dt = Some(0.0);
        assert_eq!(
            sc.validate().unwrap_err().kind,
            ScenarioErrorKind::NonPositiveProbeDt { value: 0.0 }
        );

        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.nodes.truncate(1);
        sc.nodes[0].count = 1;
        assert_eq!(
            sc.validate().unwrap_err().kind,
            ScenarioErrorKind::TooFewNodes { expanded: 1 }
        );

        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.journal_dir = Some(String::new());
        assert_eq!(
            sc.validate().unwrap_err().kind,
            ScenarioErrorKind::EmptyJournalDir
        );

        // A gain outside [0, 1] lands in the Policy bucket.
        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.policy = PolicySpec::Lbp2 { gain: 1.5 };
        sc.axes.clear();
        let err = sc.validate().unwrap_err();
        assert!(
            matches!(&err.kind, ScenarioErrorKind::Policy(m) if m.contains("gain")),
            "{err}"
        );
    }

    #[test]
    fn journal_dir_round_trips_and_chaos_panic_parses() {
        let mut sc = registry::get("paper-fig5").expect("preset");
        sc.journal_dir = Some("out/journal".into());
        sc.policy = PolicySpec::ChaosPanic { rep: 3 };
        sc.axes.clear();
        let text = sc.to_toml();
        assert!(text.contains("[journal]"), "{text}");
        assert!(text.contains("dir = \"out/journal\""), "{text}");
        assert!(text.contains("kind = \"chaos-panic\""), "{text}");
        assert!(text.contains("rep = 3"), "{text}");
        let back = Scenario::from_toml(&text).expect("parses");
        assert_eq!(back, sc);
    }

    #[test]
    fn node_templates_expand_by_count() {
        let mut sc = registry::get("paper-fig3").expect("preset");
        sc.nodes = vec![
            NodeSpec::new(1.0, 0.0, 0.0, 10).times(3),
            NodeSpec::new(2.0, 0.0, 0.0, 0),
        ];
        sc.policy = PolicySpec::Lbp2 { gain: 1.0 };
        sc.axes.clear();
        let cfg = sc.system_config().expect("valid");
        assert_eq!(cfg.num_nodes(), 4);
        assert_eq!(cfg.nodes[2].service_rate, 1.0);
        assert_eq!(cfg.nodes[3].service_rate, 2.0);
    }

    #[test]
    fn adversarial_churn_round_trips_and_rejects_bad_rates() {
        let sc = registry::get("adversarial-churn").expect("preset");
        assert!(matches!(
            sc.churn,
            ChurnModel::Adversarial { strike_rate } if strike_rate > 0.0
        ));
        let text = sc.to_toml();
        assert!(text.contains("kind = \"adversarial\""), "{text}");
        assert!(text.contains("strike_rate"), "{text}");
        let back = Scenario::from_toml(&text).expect("parses");
        assert_eq!(back, sc);

        let mut bad = sc.clone();
        bad.churn = ChurnModel::Adversarial { strike_rate: 0.0 };
        let err = bad.validate().unwrap_err().to_string();
        assert!(err.contains("strike_rate must be positive"), "{err}");

        let unknown = text.replace("kind = \"adversarial\"", "kind = \"byzantine\"");
        let err = Scenario::from_toml(&unknown).unwrap_err();
        assert!(err.contains("unknown churn model \"byzantine\""), "{err}");
        assert!(err.contains("adversarial"), "lists the new kind: {err}");
    }

    #[test]
    fn full_u64_seed_range_round_trips() {
        for seed in [0u64, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let mut sc = registry::get("paper-fig5").expect("preset");
            sc.seed = seed;
            let back =
                Scenario::from_toml(&sc.to_toml()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(back.seed, seed);
        }
    }

    #[test]
    fn lossy_channel_round_trips_and_rejects_bad_parameters() {
        let sc = registry::get("lossy-fabric").expect("preset");
        assert!(matches!(sc.channel, ChannelModel::Lossy { .. }));
        let text = sc.to_toml();
        assert!(text.contains("[channel]"), "{text}");
        assert!(text.contains("kind = \"lossy\""), "{text}");
        assert!(text.contains("on_down"), "{text}");
        let back = Scenario::from_toml(&text).expect("parses");
        assert_eq!(back, sc);

        // A reliable scenario never emits a [channel] table...
        let plain = registry::get("paper-fig3").expect("preset");
        assert_eq!(plain.channel, ChannelModel::Reliable);
        assert!(!plain.to_toml().contains("[channel]"));
        // ...but an explicit `kind = "reliable"` table parses back to it.
        let explicit = format!("{}\n[channel]\nkind = \"reliable\"\n", plain.to_toml());
        let back = Scenario::from_toml(&explicit).expect("parses");
        assert_eq!(back.channel, ChannelModel::Reliable);

        let mut bad = sc.clone();
        bad.channel = ChannelModel::Lossy {
            loss_probability: 1.5,
            on_down: DownPolicy::Enqueue,
            max_retries: 1,
            retry_backoff: 0.1,
        };
        let err = bad.validate().unwrap_err();
        assert!(
            matches!(&err.kind, ScenarioErrorKind::Channel(m) if m.contains("loss_probability")),
            "{err}"
        );

        let unknown = text.replace("kind = \"lossy\"", "kind = \"quantum\"");
        let err = Scenario::from_toml(&unknown).unwrap_err();
        assert!(err.contains("unknown channel model \"quantum\""), "{err}");

        let bad_down = text.replace("on_down = \"", "on_down = \"teleport");
        let err = Scenario::from_toml(&bad_down).unwrap_err();
        assert!(err.contains("unknown down policy"), "{err}");
    }

    /// The typed key-check verdict on a preset's TOML after `edit`.
    fn key_check(preset: &str, edit: impl Fn(String) -> String) -> Result<(), ScenarioErrorKind> {
        let sc = registry::get(preset).expect("preset");
        check_keys(
            &Doc::parse(&edit(sc.to_toml())).expect("TOML"),
            &sc.to_doc(),
        )
    }

    /// `from_toml`'s error on a preset's TOML after `edit`.
    fn parse_err(preset: &str, edit: impl Fn(String) -> String) -> String {
        let text = edit(registry::get(preset).expect("preset").to_toml());
        Scenario::from_toml(&text).unwrap_err()
    }

    #[test]
    fn unknown_root_keys_are_rejected() {
        let add_repz = |t: String| t.replacen("reps = ", "repz = 3\nreps = ", 1);
        assert_eq!(
            key_check("paper-fig5", add_repz),
            Err(ScenarioErrorKind::UnknownKey {
                table: "document root".into(),
                key: "repz".into(),
                expected: ["name", "description", "reps", "seed", "deadline"]
                    .map(String::from)
                    .to_vec(),
            })
        );
        let err = parse_err("paper-fig5", add_repz);
        assert!(
            err.starts_with("scenario paper-fig5: document root: unknown key `repz`"),
            "{err}"
        );
    }

    #[test]
    fn unknown_tables_are_rejected() {
        // A misspelt [channel] would otherwise turn a lossy run reliable.
        let chanel = |t: String| t.replace("[channel]", "[chanel]");
        assert!(matches!(
            key_check("lossy-fabric", chanel),
            Err(ScenarioErrorKind::UnknownTable { ref table, ref expected })
                if table == "[chanel]" && expected.contains(&"[channel]")
        ));
        let err = parse_err("paper-fig3", |t| t.replace("[[axis]]", "[[axes]]"));
        assert!(
            err.contains("unknown table `[[axes]]` (expected [probe]"),
            "{err}"
        );
        // [[arrival]] tables only mean something under fixed arrivals.
        let err = parse_err("paper-fig5", |t| t + "\n[[arrival]]\ntime = 1.0\n");
        assert!(err.contains("[[arrival]] tables need"), "{err}");
    }

    #[test]
    fn fixed_and_array_tables_reject_unknown_keys() {
        let err = parse_err("paper-fig5", |t| {
            t.replace("per_task = ", "per_tasks = 1.0\nper_task = ")
        });
        assert!(
            err.contains("[network]: unknown key `per_tasks` (expected fixed, per_task, law)"),
            "{err}"
        );
        // The journal cadence is a constant, not a key.
        let err = parse_err("paper-fig5", |t| {
            t + "\n[journal]\ndir = \"j\"\nfsync_every = 8\n"
        });
        assert!(
            err.contains("[journal]: unknown key `fsync_every` (expected dir)"),
            "{err}"
        );
        let err = parse_err("volunteer-grid", |t| {
            t.replacen("count = ", "speed = 2.0\ncount = ", 1)
        });
        assert!(
            err.contains("[[node]] #1: unknown key `speed`")
                && err.contains("initial_tasks, count"),
            "{err}"
        );
    }

    #[test]
    fn kind_dependent_tables_accept_only_their_kinds_keys() {
        let err = parse_err("lossy-fabric", |t| {
            t.replace("max_retries = ", "max_retry = 1\nmax_retries = ")
        });
        assert!(
            err.contains("[channel]: unknown key `max_retry`") && err.contains("max_retries"),
            "{err}"
        );
        // A key of another kind is unknown too: `lbp2` takes no sender.
        let err = parse_err("paper-delay-crossover", |t| {
            t.replace("kind = \"lbp2\"", "kind = \"lbp2\"\nsender = 0")
        });
        assert!(
            err.contains("[policy]: unknown key `sender` (expected kind, gain)"),
            "{err}"
        );
        // The default reliable channel takes only its kind.
        let err = parse_err("paper-fig5", |t| {
            t + "\n[channel]\nkind = \"reliable\"\nloss_probability = 0.1\n"
        });
        assert!(
            err.contains("[channel]: unknown key `loss_probability` (expected kind)"),
            "{err}"
        );
    }

    #[test]
    fn missing_count_defaults_to_one_when_parsing() {
        let sc = registry::get("paper-fig3").expect("preset");
        let text = sc.to_toml().replace("count = 1\n", "");
        let back = Scenario::from_toml(&text).expect("parses");
        assert_eq!(back.nodes[0].count, 1);
    }
}
