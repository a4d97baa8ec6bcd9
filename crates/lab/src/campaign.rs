//! The campaign engine: a directory of experiment specs executed as one
//! unit, with adaptive sequential stopping and a content-addressed
//! per-cell result cache.
//!
//! A *campaign* mirrors the `experiments/001/var-*` layout of larger
//! simulation studies: a directory holds one TOML spec per figure or
//! table, each spec names one or more scenarios plus a policy set and
//! sweep axes, and the whole directory runs as a single
//! `churnbal-lab campaign run <dir>` invocation. Three properties make
//! campaigns cheap to iterate on:
//!
//! * **Content-addressed cells.** The unit of work is a *cell* — one
//!   `(resolved grid point, policy)` pair. Every cell is keyed by an
//!   FNV-1a digest of its fully-resolved inputs (the point scenario's
//!   TOML, grid coordinates, policy, seed and stopping rule), and its
//!   accumulated replications live in `<dir>/cache/<digest>.cell.jsonl`.
//!   Re-running a campaign recomputes only cells whose inputs changed;
//!   an interrupted run resumes for free, and a fully warm re-run
//!   performs **zero** simulations yet emits byte-identical CSV.
//! * **Adaptive sequential stopping.** Replications run in deterministic
//!   rounds — a first batch of `r0`, then doubling (`n` more when `n`
//!   are done) — until the t-based 95% confidence half-width of the
//!   mean completion time falls under the spec's `tolerance`, or
//!   `max_reps` caps the cell. Stopping is evaluated only at round
//!   barriers on the merged per-replication vector, so every cell's
//!   final replication count is **bit-identical across `--threads` and
//!   `--chunk`**.
//! * **Antithetic pairing (opt-in).** With `antithetic = true` in
//!   `[stopping]`, global replication `2k+1` runs on the mirrored
//!   streams of replication `2k` (every uniform maps `u ↦ ≈ 1 − u`; see
//!   [`PointJob::antithetic`]) — classic variance reduction that
//!   typically reaches tolerance in fewer replications on monotone
//!   metrics.
//!
//! Campaign spec files sit **directly** in the campaign directory (every
//! `*.toml` there is a spec); scenario files they reference live in
//! subdirectories (or the registry) so the two never collide:
//!
//! ```toml
//! # experiments/001/var-gain.toml
//! scenarios = ["paper-fig5", "scenarios/two-node-slow.toml"]
//! policies = ["lbp1-optimal", "none"]
//! axis = ["gain=0.1:0.9:0.4"]
//!
//! [stopping]
//! tolerance = 0.5
//! r0 = 8
//! max_reps = 512
//!
//! [fields]
//! figure = "5"
//! ```
//!
//! `campaign run` writes `<dir>/out/<spec>.csv` once every cell of a
//! spec has finished; `campaign status` summarises progress; `report`
//! renders the finished campaign as markdown tables.

use std::fs;
use std::path::{Path, PathBuf};

use churnbal_cluster::exec::{run_grid_policies_streaming_with_report, PointJob, PointStats};
use churnbal_cluster::{SimOptions, SystemConfig};
use churnbal_core::PolicySpec;
use churnbal_stochastic::{t_ci95_half_width, Fnv1a, OnlineStats};

use crate::cli::{load_scenario, parse_axis, parse_policies};
use crate::experiment::PolicyEntry;
use crate::journal::{lookup, parse_object, push_u64_array, JsonVal};
use crate::registry;
use crate::scenario::Scenario;
use crate::sweep::{csv_field, expand_grid, fnum, Axis, AxisParam};
use crate::toml::{Doc, Value};

/// Cache file format marker (first line of every cell file).
const CELL_KIND: &str = "churnbal-cell";
/// Cache file format version.
const CELL_VERSION: u64 = 1;
/// Default first-round batch.
const DEFAULT_R0: u64 = 4;
/// Default replication cap.
const DEFAULT_MAX_REPS: u64 = 1024;

/// The sequential-stopping rule of one campaign spec.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoppingRule {
    /// Target 95% confidence half-width of the mean completion time.
    pub tolerance: f64,
    /// First-round batch size (replications before the first check).
    pub r0: u64,
    /// Hard replication cap; a cell that reaches it without meeting
    /// `tolerance` finishes *capped* (`converged = 0` in the CSV).
    pub max_reps: u64,
    /// Antithetic replication pairing (see the module docs). Requires
    /// even `r0` and `max_reps` so rounds never split a mirror pair.
    pub antithetic: bool,
}

/// What a cell's accumulated replications say at a round barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellVerdict {
    /// Needs more replications.
    Pending,
    /// Half-width is within tolerance.
    Converged,
    /// Hit `max_reps` without meeting tolerance.
    Capped,
}

impl StoppingRule {
    /// The verdict for a cell with `n` accumulated replications whose
    /// metric half-width is `halfwidth`.
    #[must_use]
    pub fn verdict(&self, n: u64, halfwidth: f64) -> CellVerdict {
        if n >= self.r0 && halfwidth <= self.tolerance {
            CellVerdict::Converged
        } else if n >= self.max_reps {
            CellVerdict::Capped
        } else {
            CellVerdict::Pending
        }
    }

    /// The next round's batch for a cell with `n` replications done:
    /// `r0` first, then doubling, clamped to the cap.
    #[must_use]
    pub fn next_batch(&self, n: u64) -> u64 {
        if n == 0 {
            self.r0.min(self.max_reps)
        } else {
            n.min(self.max_reps.saturating_sub(n))
        }
    }
}

/// One parsed campaign spec file.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Spec name: the `name` key, defaulting to the file stem. Names the
    /// output CSV, so it is restricted to `[A-Za-z0-9._-]`.
    pub name: String,
    /// Resolved scenarios, in file order.
    pub scenarios: Vec<Scenario>,
    /// Raw `--policies`-style tokens (resolved against each scenario's
    /// own policy template). Empty = each scenario's own policy.
    pub policy_tokens: Vec<String>,
    /// Extra sweep axes on top of each scenario's baked-in ones.
    pub axes: Vec<Axis>,
    /// The stopping rule shared by every cell of the spec.
    pub stopping: StoppingRule,
    /// Extra constant CSV columns from `[fields]`, sorted by key.
    pub fields: Vec<(String, String)>,
    /// Master-seed override (like `--seed`); `None` = scenario seeds.
    pub seed: Option<u64>,
}

/// The base CSV columns every campaign row carries (extra `[fields]`
/// keys must not collide with these).
const BASE_COLUMNS: [&str; 11] = [
    "spec",
    "scenario",
    "point",
    "coords",
    "policy",
    "reps",
    "mean",
    "sd",
    "ci95",
    "incomplete",
    "converged",
];

impl CampaignSpec {
    /// Parses one spec file. `stem` is the file name without `.toml`
    /// (the default spec name); `dir` anchors relative scenario paths.
    ///
    /// # Errors
    /// Unknown keys, missing/invalid `[stopping]`, unresolvable
    /// scenarios, malformed policy/axis tokens — all prefixed with the
    /// spec name.
    pub fn parse(text: &str, stem: &str, dir: &Path) -> Result<Self, String> {
        let doc = Doc::parse(text).map_err(|e| format!("spec `{stem}`: {e}"))?;
        let fail = |msg: String| format!("spec `{stem}`: {msg}");
        for (key, _) in doc.root.iter() {
            if !matches!(key, "name" | "scenarios" | "policies" | "axis" | "seed") {
                return Err(fail(format!(
                    "unknown key `{key}` (expected name, scenarios, policies, axis, seed)"
                )));
            }
        }
        for (table, _) in &doc.tables {
            if !matches!(table.as_str(), "stopping" | "fields") {
                return Err(fail(format!(
                    "unknown table `[{table}]` (expected [stopping], [fields])"
                )));
            }
        }
        if let Some((name, _)) = doc.arrays.first() {
            return Err(fail(format!("array tables are not allowed (`[[{name}]]`)")));
        }

        let name = match doc.root.get("name") {
            None => stem.to_string(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| fail("`name` must be a string".into()))?
                .to_string(),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        {
            return Err(fail(format!(
                "`{name}` is not a valid spec name (use [A-Za-z0-9._-]; it names the output CSV)"
            )));
        }

        let str_list = |key: &str| -> Result<Vec<String>, String> {
            match doc.root.get(key) {
                None => Ok(Vec::new()),
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| fail(format!("`{key}` must be an array of strings")))?
                    .iter()
                    .map(|e| {
                        e.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| fail(format!("`{key}` must be an array of strings")))
                    })
                    .collect(),
            }
        };

        let scenario_names = str_list("scenarios")?;
        if scenario_names.is_empty() {
            return Err(fail(
                "`scenarios` must name at least one registry scenario or scenario file".into(),
            ));
        }
        let mut scenarios = Vec::with_capacity(scenario_names.len());
        for sname in &scenario_names {
            scenarios.push(resolve_scenario(sname, dir).map_err(&fail)?);
        }

        let policy_tokens = str_list("policies")?;
        let axes = str_list("axis")?
            .iter()
            .map(|token| parse_axis(token).map_err(&fail))
            .collect::<Result<Vec<Axis>, String>>()?;

        let seed = match doc.root.get("seed") {
            None => None,
            Some(v) => {
                let i = v
                    .as_int()
                    .ok_or_else(|| fail("`seed` must be an integer".into()))?;
                Some(u64::try_from(i).map_err(|_| fail("`seed` must be >= 0".into()))?)
            }
        };

        let stopping = parse_stopping(&doc, &fail)?;
        let fields = parse_fields(&doc, &fail)?;
        Ok(Self {
            name,
            scenarios,
            policy_tokens,
            axes,
            stopping,
            fields,
            seed,
        })
    }
}

/// Resolves a scenario reference: registry name first, then a file path
/// relative to the campaign directory.
fn resolve_scenario(name: &str, dir: &Path) -> Result<Scenario, String> {
    if registry::get(name).is_some() {
        return load_scenario(name);
    }
    let path = dir.join(name);
    if path.exists() {
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read scenario file `{}`: {e}", path.display()))?;
        let sc = Scenario::from_toml(&text).map_err(|e| format!("{name}: {e}"))?;
        sc.validate().map_err(|e| format!("{name}: {e}"))?;
        return Ok(sc);
    }
    Err(format!(
        "unknown scenario `{name}`: not a registry name, and `{}` does not exist",
        path.display()
    ))
}

fn parse_stopping(doc: &Doc, fail: &dyn Fn(String) -> String) -> Result<StoppingRule, String> {
    let Some(t) = doc.table("stopping") else {
        return Err(fail(
            "missing [stopping] table (at minimum: tolerance = ...)".into(),
        ));
    };
    for key in t.keys() {
        if !matches!(
            key,
            "metric" | "tolerance" | "r0" | "max_reps" | "antithetic"
        ) {
            return Err(fail(format!(
                "[stopping]: unknown key `{key}` (expected metric, tolerance, r0, max_reps, \
                 antithetic)"
            )));
        }
    }
    if let Some(v) = t.get("metric") {
        let m = v
            .as_str()
            .ok_or_else(|| fail("[stopping]: `metric` must be a string".into()))?;
        if m != "time" {
            return Err(fail(format!(
                "[stopping]: unknown metric `{m}` (only `time` — mean completion time — is \
                 supported)"
            )));
        }
    }
    let tolerance = t
        .get("tolerance")
        .ok_or_else(|| fail("[stopping]: `tolerance` is required".into()))?
        .as_f64()
        .ok_or_else(|| fail("[stopping]: `tolerance` must be a number".into()))?;
    if !(tolerance.is_finite() && tolerance > 0.0) {
        return Err(fail(
            "[stopping]: `tolerance` must be finite and > 0".into(),
        ));
    }
    let opt_u64 = |key: &str, default: u64| -> Result<u64, String> {
        match t.get(key) {
            None => Ok(default),
            Some(v) => {
                let i = v
                    .as_int()
                    .ok_or_else(|| fail(format!("[stopping]: `{key}` must be an integer")))?;
                u64::try_from(i).map_err(|_| fail(format!("[stopping]: `{key}` must be >= 0")))
            }
        }
    };
    let r0 = opt_u64("r0", DEFAULT_R0)?;
    let max_reps = opt_u64("max_reps", DEFAULT_MAX_REPS)?;
    if r0 < 2 {
        return Err(fail(
            "[stopping]: `r0` must be >= 2 (a confidence interval needs two samples)".into(),
        ));
    }
    if max_reps < r0 {
        return Err(fail("[stopping]: `max_reps` must be >= r0".into()));
    }
    let antithetic = match t.get("antithetic") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| fail("[stopping]: `antithetic` must be a boolean".into()))?,
    };
    if antithetic && (r0 % 2 != 0 || max_reps % 2 != 0) {
        return Err(fail(
            "[stopping]: antithetic pairing needs even `r0` and `max_reps` (replications run \
             in mirrored pairs)"
                .into(),
        ));
    }
    Ok(StoppingRule {
        tolerance,
        r0,
        max_reps,
        antithetic,
    })
}

fn parse_fields(
    doc: &Doc,
    fail: &dyn Fn(String) -> String,
) -> Result<Vec<(String, String)>, String> {
    let Some(t) = doc.table("fields") else {
        return Ok(Vec::new());
    };
    let mut fields = Vec::with_capacity(t.len());
    for (key, value) in t.iter() {
        if BASE_COLUMNS.contains(&key) {
            return Err(fail(format!(
                "[fields]: `{key}` collides with a base CSV column"
            )));
        }
        let rendered = match value {
            Value::Str(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => fnum(*x),
            Value::Bool(b) => b.to_string(),
            Value::Array(_) => {
                return Err(fail(format!("[fields]: `{key}` must be a scalar")));
            }
        };
        fields.push((key.to_string(), rendered));
    }
    fields.sort();
    Ok(fields)
}

/// Accumulated replications of one cell (the cache file's payload).
#[derive(Clone, Debug, Default, PartialEq)]
struct CellState {
    /// Completion time of each replication, in global-replication order.
    times: Vec<f64>,
    /// Failures observed in each replication.
    failures: Vec<u64>,
    /// Tasks shipped in each replication.
    shipped: Vec<u64>,
    /// Replications that hit the deadline without completing.
    incomplete: u64,
}

impl CellState {
    fn n(&self) -> u64 {
        self.times.len() as u64
    }

    fn halfwidth(&self) -> f64 {
        t_ci95_half_width(&self.times)
    }
}

/// One unit of campaign work: a `(resolved grid point, policy)` pair.
struct Cell {
    spec_idx: usize,
    scenario_name: String,
    point_index: usize,
    coords: Vec<(AxisParam, f64)>,
    config: SystemConfig,
    deadline: Option<f64>,
    policy_label: String,
    policy: PolicySpec,
    seed: u64,
    digest: u64,
    state: CellState,
}

impl Cell {
    fn verdict(&self, rule: &StoppingRule) -> CellVerdict {
        rule.verdict(self.state.n(), self.state.halfwidth())
    }
}

/// The digest that content-addresses a cell: every input that can change
/// its replication outcomes. The campaign/spec *name* is deliberately
/// excluded — renaming a spec (or sharing a cell between two specs)
/// reuses the cache.
fn cell_digest(
    point_scenario: &Scenario,
    coords: &[(AxisParam, f64)],
    policy_label: &str,
    policy: &PolicySpec,
    seed: u64,
    rule: &StoppingRule,
) -> u64 {
    let mut h = Fnv1a::new();
    h.update(CELL_KIND.as_bytes());
    h.update_u64(CELL_VERSION);
    h.update(point_scenario.to_toml().as_bytes());
    h.update_u64(coords.len() as u64);
    for (param, value) in coords {
        h.update(param.key().as_bytes());
        h.update_u64(value.to_bits());
    }
    h.update(policy_label.as_bytes());
    h.update(format!("{policy:?}").as_bytes());
    h.update_u64(seed);
    h.update_u64(rule.tolerance.to_bits());
    h.update_u64(rule.r0);
    h.update_u64(rule.max_reps);
    h.update_u64(u64::from(rule.antithetic));
    h.finish()
}

/// Renders a cell cache file: a header line plus one state line, floats
/// as `f64::to_bits` so the round trip is bit-exact.
fn render_cell_file(digest: u64, state: &CellState) -> String {
    let mut out = format!(
        "{{\"kind\":\"{CELL_KIND}\",\"version\":{CELL_VERSION},\"cell\":\"{digest:016x}\"}}\n"
    );
    let mut line = format!(
        "{{\"reps\":{},\"incomplete\":{}",
        state.n(),
        state.incomplete
    );
    push_u64_array(&mut line, "times", state.times.iter().map(|t| t.to_bits()));
    push_u64_array(&mut line, "failures", state.failures.iter().copied());
    push_u64_array(&mut line, "shipped", state.shipped.iter().copied());
    line.push('}');
    out.push_str(&line);
    out.push('\n');
    out
}

/// Parses a cell cache file back; `Ok(None)` when the header names a
/// different cell (stale file under a hash collision — treated as cold).
fn parse_cell_file(text: &str, digest: u64, path: &Path) -> Result<Option<CellState>, String> {
    let bad = |msg: &str| {
        format!(
            "cell cache `{}`: {msg} (delete the file to recompute)",
            path.display()
        )
    };
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| bad("empty file"))?;
    let fields = parse_object(header).map_err(|e| bad(&format!("bad header: {e}")))?;
    match lookup(&fields, "kind") {
        Some(JsonVal::Str(k)) if k == CELL_KIND => {}
        _ => return Err(bad("not a cell cache file")),
    }
    match lookup(&fields, "version") {
        Some(JsonVal::Num(v)) if *v == CELL_VERSION => {}
        _ => return Err(bad("unsupported version")),
    }
    match lookup(&fields, "cell") {
        Some(JsonVal::Str(d)) if *d == format!("{digest:016x}") => {}
        _ => return Ok(None),
    }
    let line = lines.next().ok_or_else(|| bad("missing state line"))?;
    let fields = parse_object(line).map_err(|e| bad(&format!("bad state line: {e}")))?;
    let num = |key: &str| -> Result<u64, String> {
        match lookup(&fields, key) {
            Some(JsonVal::Num(v)) => Ok(*v),
            _ => Err(bad(&format!("missing numeric `{key}`"))),
        }
    };
    let arr = |key: &str| -> Result<&Vec<u64>, String> {
        match lookup(&fields, key) {
            Some(JsonVal::Arr(v)) => Ok(v),
            _ => Err(bad(&format!("missing array `{key}`"))),
        }
    };
    let reps = num("reps")?;
    let incomplete = num("incomplete")?;
    let times: Vec<f64> = arr("times")?.iter().map(|b| f64::from_bits(*b)).collect();
    let failures = arr("failures")?.clone();
    let shipped = arr("shipped")?.clone();
    if times.len() as u64 != reps || failures.len() != times.len() || shipped.len() != times.len() {
        return Err(bad("inconsistent replication counts"));
    }
    Ok(Some(CellState {
        times,
        failures,
        shipped,
        incomplete,
    }))
}

/// Writes a file atomically (temp + rename) so a crash never leaves a
/// torn cache or CSV behind.
fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents).map_err(|e| format!("cannot write `{}`: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("cannot move `{}` into place: {e}", tmp.display()))
}

/// Execution knobs for [`Campaign::run`]. Result bytes and replication
/// counts do not depend on `threads` or `chunk`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CampaignRunOptions {
    /// Worker threads per round (0 = auto).
    pub threads: usize,
    /// Scheduler chunk size (0 = auto).
    pub chunk: usize,
    /// Stop the invocation once this many cells finish *in it* (checked
    /// at round barriers, so interruption points are deterministic). The
    /// CI smoke test uses this to interrupt a campaign reproducibly.
    pub max_cells: Option<u64>,
}

/// What one [`Campaign::run`] invocation did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignRunReport {
    /// Round barriers executed (0 on a fully warm cache).
    pub rounds: u64,
    /// Replications actually simulated (0 on a fully warm cache).
    pub reps_run: u64,
    /// Total cells across all specs.
    pub cells_total: usize,
    /// Cells finished (converged or capped) as of return.
    pub cells_done: usize,
    /// Cells that finished during this invocation.
    pub cells_finished_now: usize,
    /// CSV files written (specs whose cells all finished).
    pub csv_paths: Vec<PathBuf>,
}

/// A loaded campaign: parsed specs, enumerated cells, cache state.
pub struct Campaign {
    dir: PathBuf,
    specs: Vec<CampaignSpec>,
    cells: Vec<Cell>,
    /// Cell indices per spec, in CSV row order (scenario, point, policy).
    spec_cells: Vec<Vec<usize>>,
}

impl Campaign {
    /// Loads a campaign directory: parses every `*.toml` spec (sorted by
    /// file name), enumerates cells, and warms each cell from its cache
    /// file when one exists.
    ///
    /// # Errors
    /// No specs, malformed specs, invalid policies/axes for a scenario,
    /// duplicate spec names, unreadable cache files.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let mut spec_files: Vec<PathBuf> = fs::read_dir(dir)
            .map_err(|e| format!("cannot read campaign dir `{}`: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "toml"))
            .collect();
        spec_files.sort();
        if spec_files.is_empty() {
            return Err(format!(
                "no campaign specs in `{}` (specs are *.toml files directly in the campaign \
                 directory)",
                dir.display()
            ));
        }
        let mut specs = Vec::with_capacity(spec_files.len());
        for path in &spec_files {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("spec")
                .to_string();
            let text = fs::read_to_string(path)
                .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
            specs.push(CampaignSpec::parse(&text, &stem, dir)?);
        }
        for (i, spec) in specs.iter().enumerate() {
            if specs[..i].iter().any(|s| s.name == spec.name) {
                return Err(format!(
                    "duplicate spec name `{}` (spec names key the output CSVs)",
                    spec.name
                ));
            }
        }

        let mut cells = Vec::new();
        let mut spec_cells = Vec::with_capacity(specs.len());
        for (spec_idx, spec) in specs.iter().enumerate() {
            let mut indices = Vec::new();
            for scenario in &spec.scenarios {
                let entries: Vec<PolicyEntry> = if spec.policy_tokens.is_empty() {
                    vec![PolicyEntry::from_spec(scenario.policy.clone())]
                } else {
                    parse_policies(&spec.policy_tokens, scenario)
                        .map_err(|e| format!("spec `{}`: {e}", spec.name))?
                };
                let points = expand_grid(scenario, &spec.axes)
                    .map_err(|e| format!("spec `{}`: {e}", spec.name))?;
                for point in &points {
                    let config = point
                        .scenario
                        .system_config()
                        .map_err(|e| format!("spec `{}`: {e}", spec.name))?;
                    for entry in &entries {
                        let policy = entry.at_point(&point.coords).map_err(|e| {
                            format!("spec `{}`: policy {}: {e}", spec.name, entry.label)
                        })?;
                        policy.validate_for(&config).map_err(|e| {
                            format!(
                                "spec `{}`: scenario {}: policy {}: {e}",
                                spec.name, point.scenario.name, entry.label
                            )
                        })?;
                        let seed = spec.seed.unwrap_or(point.scenario.seed);
                        let digest = cell_digest(
                            &point.scenario,
                            &point.coords,
                            &entry.label,
                            &policy,
                            seed,
                            &spec.stopping,
                        );
                        indices.push(cells.len());
                        cells.push(Cell {
                            spec_idx,
                            scenario_name: point.scenario.name.clone(),
                            point_index: point.index,
                            coords: point.coords.clone(),
                            config: config.clone(),
                            deadline: point.scenario.deadline,
                            policy_label: entry.label.clone(),
                            policy,
                            seed,
                            digest,
                            state: CellState::default(),
                        });
                    }
                }
            }
            spec_cells.push(indices);
        }

        let mut campaign = Self {
            dir: dir.to_path_buf(),
            specs,
            cells,
            spec_cells,
        };
        campaign.warm_from_cache()?;
        Ok(campaign)
    }

    fn csv_path(&self, spec: &CampaignSpec) -> PathBuf {
        self.dir.join("out").join(format!("{}.csv", spec.name))
    }

    fn warm_from_cache(&mut self) -> Result<(), String> {
        for cell in &mut self.cells {
            let path = self
                .dir
                .join("cache")
                .join(format!("{:016x}.cell.jsonl", cell.digest));
            let text = match fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(format!("cannot read `{}`: {e}", path.display())),
            };
            if let Some(state) = parse_cell_file(&text, cell.digest, &path)? {
                cell.state = state;
            }
        }
        Ok(())
    }

    /// Runs the campaign to completion (or to `--max-cells`): rounds of
    /// replications over every pending cell, stopping checks at each
    /// round barrier, cache rewrite per cell per round, and a CSV per
    /// spec once all of its cells finish.
    ///
    /// # Errors
    /// Scheduler failures, quarantined replications (campaign cells must
    /// run clean — a panicking replication poisons the accumulated
    /// vectors), cache/CSV write failures.
    pub fn run(&mut self, opts: &CampaignRunOptions) -> Result<CampaignRunReport, String> {
        fs::create_dir_all(self.dir.join("cache"))
            .map_err(|e| format!("cannot create cache dir: {e}"))?;
        let mut report = CampaignRunReport {
            cells_total: self.cells.len(),
            ..CampaignRunReport::default()
        };
        loop {
            let pending: Vec<usize> = (0..self.cells.len())
                .filter(|&i| {
                    let cell = &self.cells[i];
                    cell.verdict(&self.specs[cell.spec_idx].stopping) == CellVerdict::Pending
                })
                .collect();
            if pending.is_empty() {
                break;
            }
            if let Some(max) = opts.max_cells {
                if report.cells_finished_now as u64 >= max {
                    break;
                }
            }
            report.rounds += 1;

            // One single-policy job per pending cell; `rep_base` makes
            // each round continue the same deterministic stream sequence
            // an unrounded `reps = rep_base + batch` job would use.
            let bases: Vec<u64> = pending.iter().map(|&i| self.cells[i].state.n()).collect();
            let jobs: Vec<PointJob<'_>> = pending
                .iter()
                .zip(&bases)
                .map(|(&i, &base)| {
                    let cell = &self.cells[i];
                    let rule = &self.specs[cell.spec_idx].stopping;
                    PointJob {
                        config: &cell.config,
                        reps: rule.next_batch(base),
                        seed: cell.seed,
                        rep_base: base,
                        antithetic: rule.antithetic,
                        options: SimOptions {
                            deadline: cell.deadline,
                            ..SimOptions::default()
                        },
                    }
                })
                .collect();
            let cells = &self.cells;
            let mut results: Vec<Option<PointStats>> = Vec::new();
            results.resize_with(pending.len(), || None);
            run_grid_policies_streaming_with_report(
                &jobs,
                1,
                &|p, _v, r| {
                    let cell = &cells[pending[p]];
                    // Policies draw their replication-keyed streams from
                    // the *global* index, matching an unrounded run.
                    cell.policy
                        .build_for_rep(&cell.config, bases[p] + r)
                        .expect("validated at load")
                },
                opts.threads,
                opts.chunk,
                |p, _v, stats| {
                    results[p] = Some(stats);
                    Ok(())
                },
            )?;

            for (slot, &i) in results.into_iter().zip(&pending) {
                let stats = slot.ok_or("scheduler dropped a cell")?;
                if !stats.quarantined_reps.is_empty() {
                    let cell = &self.cells[i];
                    return Err(format!(
                        "spec `{}`: scenario {}: policy {}: replication(s) {:?} quarantined — \
                         campaign cells must run clean; fix the scenario before resuming",
                        self.specs[cell.spec_idx].name,
                        cell.scenario_name,
                        cell.policy_label,
                        stats.quarantined_reps,
                    ));
                }
                report.reps_run += stats.completion_times.len() as u64;
                let rule = self.specs[self.cells[i].spec_idx].stopping;
                let cell = &mut self.cells[i];
                cell.state.times.extend_from_slice(&stats.completion_times);
                cell.state
                    .failures
                    .extend_from_slice(&stats.failures_per_rep);
                cell.state
                    .shipped
                    .extend_from_slice(&stats.tasks_shipped_per_rep);
                cell.state.incomplete += stats.incomplete;
                let path = self
                    .dir
                    .join("cache")
                    .join(format!("{:016x}.cell.jsonl", cell.digest));
                write_atomic(&path, &render_cell_file(cell.digest, &cell.state))?;
                if rule.verdict(cell.state.n(), cell.state.halfwidth()) != CellVerdict::Pending {
                    report.cells_finished_now += 1;
                }
            }
        }

        report.cells_done = self
            .cells
            .iter()
            .filter(|c| c.verdict(&self.specs[c.spec_idx].stopping) != CellVerdict::Pending)
            .count();
        report.csv_paths = self.write_finished_csvs()?;
        Ok(report)
    }

    /// Writes `<dir>/out/<spec>.csv` for every spec whose cells have all
    /// finished; returns the paths written. Byte-identical however the
    /// campaign got here (interruptions, thread counts, warm cache).
    fn write_finished_csvs(&self) -> Result<Vec<PathBuf>, String> {
        let mut paths = Vec::new();
        for (spec_idx, spec) in self.specs.iter().enumerate() {
            let done = self.spec_cells[spec_idx]
                .iter()
                .all(|&i| self.cells[i].verdict(&spec.stopping) != CellVerdict::Pending);
            if !done {
                continue;
            }
            fs::create_dir_all(self.dir.join("out"))
                .map_err(|e| format!("cannot create out dir: {e}"))?;
            let path = self.csv_path(spec);
            write_atomic(&path, &self.spec_csv(spec_idx))?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// Renders one spec's CSV from cached cell states.
    fn spec_csv(&self, spec_idx: usize) -> String {
        let spec = &self.specs[spec_idx];
        let mut out = BASE_COLUMNS.join(",");
        for (key, _) in &spec.fields {
            out.push(',');
            out.push_str(&csv_field(key));
        }
        out.push('\n');
        for &i in &self.spec_cells[spec_idx] {
            let cell = &self.cells[i];
            let stats = OnlineStats::from_slice(&cell.state.times);
            let coords = cell
                .coords
                .iter()
                .map(|(param, value)| format!("{}={}", param.key(), fnum(*value)))
                .collect::<Vec<String>>()
                .join(";");
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{}",
                csv_field(&spec.name),
                csv_field(&cell.scenario_name),
                cell.point_index,
                csv_field(&coords),
                csv_field(&cell.policy_label),
                cell.state.n(),
                fnum(stats.mean()),
                fnum(stats.std_dev()),
                fnum(cell.state.halfwidth()),
                cell.state.incomplete,
                u64::from(cell.verdict(&spec.stopping) == CellVerdict::Converged),
            ));
            for (_, value) in &spec.fields {
                out.push(',');
                out.push_str(&csv_field(value));
            }
            out.push('\n');
        }
        out
    }

    /// A human-readable progress summary for `campaign status`.
    #[must_use]
    pub fn status(&self) -> String {
        let mut out = format!(
            "campaign {}: {} spec(s), {} cell(s)\n",
            self.dir.display(),
            self.specs.len(),
            self.cells.len()
        );
        for (spec_idx, spec) in self.specs.iter().enumerate() {
            let indices = &self.spec_cells[spec_idx];
            let mut converged = 0usize;
            let mut capped = 0usize;
            let mut reps = 0u64;
            for &i in indices {
                let cell = &self.cells[i];
                reps += cell.state.n();
                match cell.verdict(&spec.stopping) {
                    CellVerdict::Converged => converged += 1,
                    CellVerdict::Capped => capped += 1,
                    CellVerdict::Pending => {}
                }
            }
            let done = converged + capped;
            let csv = self.csv_path(spec);
            let csv_note = if csv.exists() {
                format!("csv: {}", csv.display())
            } else {
                "csv: not yet written".to_string()
            };
            out.push_str(&format!(
                "  {}: {}/{} cells done ({} converged, {} capped), {} replication(s) cached; {}\n",
                spec.name,
                done,
                indices.len(),
                converged,
                capped,
                reps,
                csv_note
            ));
        }
        out
    }

    /// Renders the finished campaign as markdown tables (one per spec).
    ///
    /// # Errors
    /// Names the unfinished spec — and the `campaign run` command that
    /// finishes it — when any cell is still pending.
    pub fn report(&self) -> Result<String, String> {
        for (spec_idx, spec) in self.specs.iter().enumerate() {
            let pending = self.spec_cells[spec_idx]
                .iter()
                .filter(|&&i| self.cells[i].verdict(&spec.stopping) == CellVerdict::Pending)
                .count();
            if pending > 0 {
                return Err(format!(
                    "spec `{}`: {pending} cell(s) still pending — finish the campaign with \
                     `churnbal-lab campaign run {}`",
                    spec.name,
                    self.dir.display()
                ));
            }
        }
        let mut out = String::new();
        for (spec_idx, spec) in self.specs.iter().enumerate() {
            out.push_str(&format!("## {}\n\n", spec.name));
            if !spec.fields.is_empty() {
                let rendered: Vec<String> = spec
                    .fields
                    .iter()
                    .map(|(k, v)| format!("{k} = {v}"))
                    .collect();
                out.push_str(&format!("_{}_\n\n", rendered.join(", ")));
            }
            out.push_str(
                "| scenario | point | coords | policy | reps | mean | sd | ci95 | incomplete | converged |\n",
            );
            out.push_str("|---|---|---|---|---|---|---|---|---|---|\n");
            for &i in &self.spec_cells[spec_idx] {
                let cell = &self.cells[i];
                let stats = OnlineStats::from_slice(&cell.state.times);
                let coords = cell
                    .coords
                    .iter()
                    .map(|(param, value)| format!("{}={}", param.key(), fnum(*value)))
                    .collect::<Vec<String>>()
                    .join("; ");
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                    cell.scenario_name,
                    cell.point_index,
                    if coords.is_empty() { "—" } else { &coords },
                    cell.policy_label,
                    cell.state.n(),
                    fnum(stats.mean()),
                    fnum(stats.std_dev()),
                    fnum(cell.state.halfwidth()),
                    cell.state.incomplete,
                    if cell.verdict(&spec.stopping) == CellVerdict::Converged {
                        "yes"
                    } else {
                        "capped"
                    },
                ));
            }
            out.push('\n');
        }
        Ok(out)
    }

    /// The parsed specs, in file order.
    #[must_use]
    pub fn specs(&self) -> &[CampaignSpec] {
        &self.specs
    }

    /// Total cell count across all specs.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Per-cell `(spec, scenario, point, policy, cached reps)` rows, in
    /// CSV order — a stable probe for tests and tooling.
    #[must_use]
    pub fn cell_summaries(&self) -> Vec<(String, String, usize, String, u64)> {
        self.spec_cells
            .iter()
            .enumerate()
            .flat_map(|(spec_idx, indices)| {
                indices.iter().map(move |&i| {
                    let cell = &self.cells[i];
                    (
                        self.specs[spec_idx].name.clone(),
                        cell.scenario_name.clone(),
                        cell.point_index,
                        cell.policy_label.clone(),
                        cell.state.n(),
                    )
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> StoppingRule {
        StoppingRule {
            tolerance: 0.5,
            r0: 4,
            max_reps: 64,
            antithetic: false,
        }
    }

    #[test]
    fn batch_schedule_doubles_and_caps() {
        let r = rule();
        assert_eq!(r.next_batch(0), 4);
        assert_eq!(r.next_batch(4), 4);
        assert_eq!(r.next_batch(8), 8);
        assert_eq!(r.next_batch(16), 16);
        assert_eq!(r.next_batch(32), 32);
        // 48 done: doubling wants 48 more but the cap allows 16.
        assert_eq!(r.next_batch(48), 16);
        assert_eq!(r.next_batch(64), 0);
    }

    #[test]
    fn verdict_progression() {
        let r = rule();
        assert_eq!(r.verdict(0, f64::INFINITY), CellVerdict::Pending);
        // Tolerance met before r0: still pending (too few samples).
        assert_eq!(r.verdict(2, 0.1), CellVerdict::Pending);
        assert_eq!(r.verdict(4, 0.1), CellVerdict::Converged);
        assert_eq!(r.verdict(4, 0.9), CellVerdict::Pending);
        assert_eq!(r.verdict(64, 0.9), CellVerdict::Capped);
    }

    #[test]
    fn cell_file_round_trips_bit_exactly() {
        let state = CellState {
            times: vec![1.5, 2.25, f64::MIN_POSITIVE, 1e300],
            failures: vec![0, 3, 1, 2],
            shipped: vec![10, 11, 12, 13],
            incomplete: 1,
        };
        let digest = 0xdead_beef_cafe_f00d;
        let text = render_cell_file(digest, &state);
        let parsed = parse_cell_file(&text, digest, Path::new("x"))
            .expect("parses")
            .expect("digest matches");
        assert_eq!(parsed, state);
        for (a, b) in parsed.times.iter().zip(&state.times) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A different digest is a cache miss, not an error.
        assert_eq!(
            parse_cell_file(&text, digest ^ 1, Path::new("x")).expect("parses"),
            None
        );
    }

    #[test]
    fn spec_parse_defaults_and_errors() {
        let dir = Path::new(".");
        let spec = CampaignSpec::parse(
            "scenarios = [\"paper-fig5\"]\n[stopping]\ntolerance = 0.5\n",
            "var-a",
            dir,
        )
        .expect("minimal spec parses");
        assert_eq!(spec.name, "var-a");
        assert_eq!(spec.stopping.r0, DEFAULT_R0);
        assert_eq!(spec.stopping.max_reps, DEFAULT_MAX_REPS);
        assert!(!spec.stopping.antithetic);
        assert!(spec.fields.is_empty());

        let err = CampaignSpec::parse("scenarios = [\"paper-fig5\"]\n", "s", dir)
            .expect_err("missing stopping");
        assert!(err.contains("[stopping]"), "{err}");

        let err = CampaignSpec::parse(
            "scenarios = [\"paper-fig5\"]\n[stopping]\ntolerance = 0.5\nr0 = 3\nantithetic = true\n",
            "s",
            dir,
        )
        .expect_err("odd r0 with antithetic");
        assert!(err.contains("even"), "{err}");

        let err = CampaignSpec::parse(
            "scenarios = [\"paper-fig5\"]\nbogus = 1\n[stopping]\ntolerance = 0.5\n",
            "s",
            dir,
        )
        .expect_err("unknown key");
        assert!(err.contains("bogus"), "{err}");

        let err = CampaignSpec::parse(
            "scenarios = [\"paper-fig5\"]\n[stopping]\ntolerance = 0.5\n[fields]\nmean = \"x\"\n",
            "s",
            dir,
        )
        .expect_err("reserved field");
        assert!(err.contains("collides"), "{err}");
    }

    #[test]
    fn digest_tracks_every_input() {
        let sc = registry::get("paper-fig5").expect("registered");
        let policy = sc.policy.clone();
        let r = rule();
        let base = cell_digest(&sc, &[], "p", &policy, 42, &r);
        assert_eq!(base, cell_digest(&sc, &[], "p", &policy, 42, &r));
        assert_ne!(base, cell_digest(&sc, &[], "p", &policy, 43, &r));
        assert_ne!(
            base,
            cell_digest(&sc, &[(AxisParam::Gain, 0.5)], "p", &policy, 42, &r)
        );
        assert_ne!(base, cell_digest(&sc, &[], "q", &policy, 42, &r));
        let mut tighter = r;
        tighter.tolerance = 0.25;
        assert_ne!(base, cell_digest(&sc, &[], "p", &policy, 42, &tighter));
        let mut anti = r;
        anti.antithetic = true;
        assert_ne!(base, cell_digest(&sc, &[], "p", &policy, 42, &anti));
    }
}
