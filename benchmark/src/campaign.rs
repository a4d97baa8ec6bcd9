//! The `campaign-grid` workload: a campaign directory run cold until
//! every cell has converged or capped, then re-run warm from its cell
//! store. The traced run replays the campaign's replications through the
//! `exec` scheduler at `nproc` threads.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use churnbal_cluster::exec::PointJob;
use churnbal_cluster::{SimOptions, Simulator, SystemConfig};
use churnbal_core::{model_params, PolicySpec};
use churnbal_lab::theory::TheoryCache;
use churnbal_lab::{expand_grid, Campaign, CampaignRunOptions, CampaignRunReport, Scenario};
use churnbal_model::Lbp1Evaluator;
use churnbal_stochastic::{fnv1a_bytes, OnlineStats, StreamFactory};

use crate::inputs::{campaign_spec, DEFAULT_SEED};
use crate::layers::{exec_replay, kernel_metrics, median_secs, HookCounters, Tally, TimedPolicy};
use crate::report::{nproc, Outcome};
use crate::stats::{fastest, median, tail};
use crate::Args;

/// The spec file name; its stem names the output CSV.
const SPEC: &str = "campaign-grid";

/// One finished cell, rebuilt from the spec through the lab's public
/// grid expansion, with its row of the campaign CSV.
struct Cell {
    scenario: Scenario,
    config: SystemConfig,
    options: SimOptions,
    policy: PolicySpec,
    seed: u64,
    reps: u64,
    mean: String,
    ci95: f64,
    converged: bool,
}

/// A scratch campaign directory inside the benchmark's own tree,
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Self {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{SPEC}-{}", std::process::id()));
        Self(dir)
    }

    /// Empties the directory and writes the spec for `seed`.
    fn fresh(&self, seed: u64) {
        let _ = fs::remove_dir_all(&self.0);
        fs::create_dir_all(&self.0).expect("create the campaign directory");
        fs::write(self.0.join(format!("{SPEC}.toml")), campaign_spec(seed))
            .expect("write the campaign spec");
    }

    fn csv(&self) -> Vec<u8> {
        fs::read(self.0.join("out").join(format!("{SPEC}.csv"))).unwrap_or_default()
    }

    fn cache_bytes(&self) -> u64 {
        fs::read_dir(self.0.join("cache"))
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// Timed campaign passes run on one thread. On a shared 2-vCPU host the
/// `nproc`-thread cold pass varied 1.6× from run to run while
/// single-threaded work stayed within a few percent; results do not
/// depend on the thread count.
fn run_options() -> CampaignRunOptions {
    CampaignRunOptions {
        threads: 1,
        ..CampaignRunOptions::default()
    }
}

fn load(dir: &WorkDir) -> Campaign {
    Campaign::load(&dir.0).expect("the benchmark campaign loads")
}

/// One cold pass: load, run to the end, return the times and report.
fn cold(dir: &WorkDir, seed: u64) -> (f64, f64, Campaign, CampaignRunReport) {
    dir.fresh(seed);
    let start = Instant::now();
    let mut campaign = load(dir);
    let load_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = campaign
        .run(&run_options())
        .expect("the cold campaign runs");
    (load_s, start.elapsed().as_secs_f64(), campaign, report)
}

/// Rebuilds every cell of the finished campaign, in CSV row order.
fn cells_of(campaign: &Campaign, csv: &[u8]) -> Vec<Cell> {
    let spec = &campaign.specs()[0];
    let text = String::from_utf8_lossy(csv);
    let mut rows = text
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect::<Vec<_>>());
    let mut out = Vec::new();
    for scenario in &spec.scenarios {
        let points = expand_grid(scenario, &spec.axes).expect("the grid expands");
        for point in &points {
            let config = point.scenario.system_config().expect("valid scenario");
            for token in &spec.policy_tokens {
                let mut policy = PolicySpec::parse(token, &scenario.policy).expect("valid policy");
                for (param, value) in &point.coords {
                    if *param == churnbal_lab::AxisParam::Gain && policy.gain().is_some() {
                        policy = policy.with_gain(*value).expect("gain in range");
                    }
                }
                let row = rows.next().expect("one CSV row per cell");
                assert!(
                    row[1] == point.scenario.name && row[4] == token.as_str(),
                    "the CSV rows follow the grid order"
                );
                out.push(Cell {
                    scenario: point.scenario.clone(),
                    config: config.clone(),
                    options: SimOptions {
                        deadline: point.scenario.deadline,
                        ..SimOptions::default()
                    },
                    policy,
                    seed: spec.seed.unwrap_or(point.scenario.seed),
                    reps: row[5].parse().expect("reps column"),
                    mean: row[6].to_string(),
                    ci95: row[8].parse().expect("ci95 column"),
                    converged: row[10] == "1",
                });
            }
        }
    }
    out
}

/// Totals of a single-threaded replay of cells' replications.
#[derive(Default)]
struct Replay {
    /// Seconds of every replication, reset included.
    busy_secs: f64,
    tally: Tally,
    /// Cells whose replayed mean differs from the CSV's.
    mismatched: usize,
}

impl Replay {
    /// Replays one cell on one thread through `Simulator`, its
    /// replications on the streams the campaign used, hooks timed when
    /// `hooks` is given. Returns the cell's mean replication seconds and
    /// its events.
    fn cell(&mut self, cell: &Cell, hooks: Option<&HookCounters>) -> (f64, u64) {
        let events = self.tally.events();
        let streams = |r: u64| StreamFactory::new(cell.seed).subfactory(r);
        let mut sim = Simulator::new(&cell.config, &streams(0), cell.options);
        let mut times = Vec::with_capacity(cell.reps as usize);
        let cell_start = Instant::now();
        for r in 0..cell.reps {
            let start = Instant::now();
            sim.reset(&streams(r));
            self.tally.resets.push(start.elapsed().as_secs_f64());
            let policy = cell
                .policy
                .build_for_rep(&cell.config, r)
                .expect("valid policy");
            let run = Instant::now();
            let s = match hooks {
                Some(h) => sim.run_summary(&mut TimedPolicy::new(policy, h)),
                None => sim.run_summary(&mut { policy }),
            };
            self.tally.add(&s, run.elapsed().as_secs_f64());
            times.push(s.completion_time);
        }
        let cell_secs = cell_start.elapsed().as_secs_f64();
        self.busy_secs += cell_secs;
        if format!("{:?}", OnlineStats::from_slice(&times).mean()) != cell.mean {
            self.mismatched += 1;
        }
        (cell_secs / cell.reps as f64, self.tally.events() - events)
    }

    /// Replays every cell.
    fn all(cells: &[Cell], hooks: Option<&HookCounters>) -> Self {
        let mut out = Self::default();
        for cell in cells {
            out.cell(cell, hooks);
        }
        out
    }
}

/// Checks the theory-eligible cells against Eq. 4: the Monte-Carlo mean
/// lies within three 95% half-widths of the exact mean.
fn theory_check(cells: &[Cell], out: &mut Outcome) -> f64 {
    let start = Instant::now();
    let mut cache = TheoryCache::new();
    let (mut eligible, mut off) = (0, 0);
    for cell in cells {
        if let Some(theory) = cache.eq4_mean(&cell.scenario, &cell.config, &cell.policy) {
            eligible += 1;
            let mean: f64 = cell.mean.parse().expect("mean column");
            if (mean - theory).abs() > 3.0 * cell.ci95 {
                off += 1;
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    out.check(
        "theory-eligible cells agree with Eq. 4",
        eligible > 0 && off == 0,
        format!("{off} of {eligible} eligible cells outside 3 half-widths"),
    );
    secs
}

/// One warm re-run of a finished campaign: its seconds, and whether it
/// simulated nothing and rewrote the `cold` CSV byte for byte.
fn warm(dir: &WorkDir, cold: &[u8]) -> (f64, bool) {
    let start = Instant::now();
    let warm = load(dir)
        .run(&run_options())
        .expect("the warm campaign runs");
    let secs = start.elapsed().as_secs_f64();
    (
        secs,
        warm.reps_run == 0 && !cold.is_empty() && dir.csv() == cold,
    )
}

/// Loads and warm re-runs timed per cold pass: both last milliseconds,
/// so a run takes several per pass.
const SAMPLES_PER_PASS: usize = 4;

/// Each cold pass is followed by a replay of every `REPLAY_SLICES`-th
/// cell, so every cell is replayed once in that many passes.
const REPLAY_SLICES: usize = 4;

/// The untraced run: cold passes, each with its warm re-runs, loads of a
/// fresh directory and a slice of the cell replay, until `seconds` have
/// passed. A load, a pass, a warm re-run and a replay of one cell each
/// do the same work every time, so each is timed by its fastest run.
pub fn measure(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let dir = WorkDir::new();
    let (mut loads, mut colds, mut warms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reps_run, mut first_csv) = (0, Vec::new());
    let (mut unfinished, mut differing) = (0, 0);
    let mut cells = Vec::new();
    // Each cell's replayed mean replication seconds, one per replay, and
    // its events.
    let mut cell_secs: Vec<Vec<f64>> = Vec::new();
    let mut cell_events: Vec<u64> = Vec::new();
    let mut replay = Replay::default();
    let start = Instant::now();
    while colds.len() < REPLAY_SLICES || start.elapsed().as_secs_f64() < args.seconds {
        for _ in 0..SAMPLES_PER_PASS {
            dir.fresh(args.seed);
            let t = Instant::now();
            black_box(load(&dir));
            loads.push(t.elapsed().as_secs_f64());
        }
        let (load_s, cold_s, campaign, report) = cold(&dir, args.seed);
        unfinished += u32::from(report.cells_done != report.cells_total);
        loads.push(load_s);
        colds.push(cold_s);
        reps_run = report.reps_run;
        let csv = dir.csv();
        out.attempted += 1;
        if cells.is_empty() {
            cells = cells_of(&campaign, &csv);
            cell_secs = vec![Vec::new(); cells.len()];
            cell_events = vec![0; cells.len()];
            first_csv = csv;
        } else {
            differing += u32::from(csv != first_csv);
        }
        for _ in 0..SAMPLES_PER_PASS {
            let (warm_s, same) = warm(&dir, &first_csv);
            differing += u32::from(!same);
            warms.push(warm_s);
            out.attempted += 1;
        }
        let slice = (colds.len() - 1) % REPLAY_SLICES;
        for i in (slice..cells.len()).step_by(REPLAY_SLICES) {
            let (secs, events) = replay.cell(&cells[i], None);
            cell_secs[i].push(secs);
            cell_events[i] = events;
        }
    }
    out.check(
        "every cell converged or capped",
        unfinished == 0,
        format!("{unfinished} cold passes left cells pending"),
    );
    out.check(
        "cold and warm CSVs are byte-identical",
        differing == 0,
        format!("{differing} cold passes or warm re-runs simulated or wrote another CSV"),
    );
    out.check(
        "replayed cell means match the campaign CSV",
        replay.mismatched == 0,
        format!("{} cell replays differ", replay.mismatched),
    );
    theory_check(&cells, &mut out);
    // Each cell's fastest replay; replays of one cell do the same work.
    let cell_rep_secs: Vec<f64> = cell_secs.iter().map(|xs| fastest(xs)).collect();
    let events: u64 = cell_events.iter().sum();
    let converged = cells.iter().filter(|c| c.converged).count();
    let cold_s = fastest(&colds);
    let m = &mut out.metrics;
    m.set("setup_s", fastest(&loads));
    m.set("events_per_s", events as f64 / cold_s);
    m.set("rep_ms_p50", median(&cell_rep_secs) * 1e3);
    let t = tail(&cell_rep_secs).expect("the campaign has more than 10 cells");
    m.set("rep_ms_tail", t.value * 1e3);
    m.set("reps_per_s", reps_run as f64 / cold_s);
    m.set("wall_s", cold_s);
    m.set("rerun_s", fastest(&warms));
    out.info.push(format!(
        "time_to_ci_s {cold_s:?} s (wall_s, the fastest of {} cold passes); {} cells, \
         {converged} converged, {} capped, {reps_run} reps; rep_ms_* time an engine replay of \
         the cells' replications: the median and p{:.2} over the {} cells of each cell's \
         fastest replayed mean replication time",
        colds.len(),
        cells.len(),
        cells.len() - converged,
        t.percentile,
        t.samples
    ));
    out.digest = pinned_digest(&dir);
    out
}

/// The CSV digest of a cold campaign at the default seed.
fn pinned_digest(dir: &WorkDir) -> u64 {
    let _ = cold(dir, DEFAULT_SEED);
    fnv1a_bytes(&dir.csv())
}

/// The traced run: `lab` spans around one cold and one warm pass, the
/// replay with and without hook timing, and the `exec` replay at
/// `nproc`.
pub fn trace(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let dir = WorkDir::new();
    let (load_s, _, campaign, report) = cold(&dir, args.seed);
    out.attempted += 1;
    out.check(
        "every cell converged or capped",
        report.cells_done == report.cells_total,
        "",
    );
    let csv = dir.csv();
    let start = Instant::now();
    let rendered = campaign.report();
    let report_s = start.elapsed().as_secs_f64();
    out.check("the campaign report renders", rendered.is_ok(), "");
    let (_, same) = warm(&dir, &csv);
    out.attempted += 1;
    out.check("cold and warm CSVs are byte-identical", same, "");
    let cells = cells_of(&campaign, &csv);
    let theory_s = theory_check(&cells, &mut out);

    let m = &mut out.metrics;
    m.set("lab.load_s", load_s);
    m.set("lab.rounds", report.rounds as f64);
    m.set("lab.reps_run", report.reps_run as f64);
    m.set("lab.cache_bytes", dir.cache_bytes() as f64);
    m.set("lab.theory_ms", theory_s * 1e3);
    m.set("lab.report_ms", report_s * 1e3);
    let paper = &cells[0].config;
    let m0 = [paper.nodes[0].initial_tasks, paper.nodes[1].initial_tasks];
    m.set(
        "model.mean_lattice_ms",
        median_secs(5, 0.5, || {
            black_box(Lbp1Evaluator::new(&model_params(paper), m0));
        }) * 1e3,
    );
    m.set(
        "engine.sim_new_ms",
        median_secs(5, 0.2, || {
            black_box(Simulator::new(
                paper,
                &StreamFactory::new(args.seed),
                SimOptions::default(),
            ));
        }) * 1e3,
    );

    let hooks = HookCounters::default();
    let plain = Replay::all(&cells, None);
    let traced = Replay::all(&cells, Some(&hooks));
    traced.tally.set_metrics(m, &hooks);
    let mismatched = plain.mismatched + traced.mismatched;
    m.set(
        "trace.overhead_frac",
        (traced.busy_secs - plain.busy_secs) / plain.busy_secs,
    );

    let jobs: Vec<PointJob<'_>> = cells
        .iter()
        .map(|c| PointJob {
            config: &c.config,
            reps: c.reps,
            seed: c.seed,
            rep_base: 0,
            antithetic: false,
            options: c.options,
        })
        .collect();
    exec_replay(
        m,
        &jobs,
        &|p, r| {
            cells[p]
                .policy
                .build_for_rep(&cells[p].config, r)
                .expect("valid policy")
        },
        nproc(),
    );
    kernel_metrics(m, 4, args.seed);
    out.check(
        "replayed cell means match the campaign CSV",
        mismatched == 0,
        format!("{mismatched} of {} cell replays differ", 2 * cells.len()),
    );
    out
}
