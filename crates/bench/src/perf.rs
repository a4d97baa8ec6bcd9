//! The `perfreport` harness: named engine workloads, wall-clock
//! measurement, pinned completion-time digests, and the machine-readable
//! `BENCH_*.json` report.
//!
//! Three engine workloads span the per-event regimes:
//!
//! * `paper-fig3` — the paper's two-node LBP-1 system (service-dominated:
//!   throughput of the plain event loop and the replication runner);
//! * `shock-storm` — 32 nodes under correlated environmental shocks
//!   (bursts of simultaneous failures, each cancelling pending service and
//!   failure events);
//! * `cascading-churn` — 24 nodes with load-dependent failure
//!   amplification, where every churn transition cancels and redraws every
//!   other node's pending failure — the cancel-heavy path the indexed
//!   event queue exists for.
//!
//! A fourth workload, `sweep-grid`, measures the *sweep scheduler* rather
//! than the event loop: a fine-grained grid of many small points with
//! mixed replication counts, run both through one flattened
//! `(point, replication)` scheduler pass and through the sequential-point
//! baseline (one scheduler invocation per point — the pre-scheduler sweep
//! shape, with its per-point spawn/join barrier) at the same thread
//! count. The engine code is identical in both modes; the measured gap is
//! exactly the per-point orchestration cost the flattened pass removes.
//!
//! A fifth workload, `compare-grid`, measures the **policy axis**: the
//! same grid × a 3-policy comparison set, run once through a single
//! `(point, policy, replication)` scheduler pass (how `churnbal-lab
//! compare` executes) and once as K sequential single-policy sweeps (how
//! the comparison had to be asked before). The bit-exact cross-check of
//! the two modes doubles as a measured proof of the common-random-numbers
//! invariant.
//!
//! Wall-clock numbers are measurements; the *sample paths* are pinned: the
//! digest of each workload's completion-time vector is asserted against a
//! committed value, so a refactor that silently changes sampling fails the
//! report rather than producing an incomparable number.

use std::time::Instant;

use churnbal_cluster::exec::{run_grid_policies_streaming_with_report, PointJob};
use churnbal_cluster::{run_replications, ChurnModel, McEstimate, QueueBackend, SimOptions};
use churnbal_cluster::{
    ChannelModel, DownPolicy, NetworkConfig, NodeConfig, SystemConfig, Topology,
};
use churnbal_core::{Lbp2, PolicySpec};
use churnbal_stochastic::digest_f64s;

/// Master seed shared by every perf workload (digests are pinned to it).
pub const PERF_SEED: u64 = 20060425;

/// One named engine workload: a system, a policy, and replication counts.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Stable workload name (JSON key, digest-table key).
    pub name: &'static str,
    /// The system under test.
    pub config: SystemConfig,
    /// The policy driving it.
    pub policy: PolicySpec,
    /// Replications in a full run.
    pub reps: u64,
    /// Replications in a `--quick` run.
    pub quick_reps: u64,
}

/// The perf suite, in report order.
#[must_use]
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "paper-fig3",
            config: SystemConfig::paper([100, 60]),
            policy: PolicySpec::Lbp1 {
                sender: 0,
                receiver: 1,
                gain: 0.35,
            },
            reps: 500,
            quick_reps: 50,
        },
        Workload {
            name: "shock-storm",
            config: shock_storm_config(),
            policy: PolicySpec::Lbp2 { gain: 1.0 },
            reps: 200,
            quick_reps: 20,
        },
        Workload {
            name: "cascading-churn",
            config: cascading_churn_config(),
            policy: PolicySpec::UponFailureOnly,
            reps: 200,
            quick_reps: 20,
        },
    ]
}

/// 32 heterogeneous nodes hit by correlated shocks: each shock downs about
/// half the fleet at one instant, cancelling every victim's pending
/// service and failure events.
#[must_use]
pub fn shock_storm_config() -> SystemConfig {
    let rates = [0.8, 1.2, 1.6, 2.0];
    SystemConfig::new(
        (0..32)
            .map(|i| NodeConfig::new(rates[i % rates.len()], 0.02, 0.4, 30))
            .collect(),
        NetworkConfig::exponential(0.01),
    )
    .with_churn_model(ChurnModel::CorrelatedShocks {
        shock_rate: 0.25,
        hit_probability: 0.5,
    })
}

/// 24 nodes with cascading failure amplification: every failure and
/// recovery changes every other up node's hazard, so the engine cancels
/// and redraws up to `n − 1` pending failure events per churn transition.
#[must_use]
pub fn cascading_churn_config() -> SystemConfig {
    SystemConfig::new(
        (0..24)
            .map(|_| NodeConfig::new(1.0, 0.06, 0.5, 40))
            .collect(),
        NetworkConfig::exponential(0.01),
    )
    .with_churn_model(ChurnModel::Cascading { amplification: 3.0 })
}

/// Thread count of the `sweep-grid` comparison: both the flattened
/// scheduler and the sequential-point baseline run with this many
/// workers, so the measured speedup isolates scheduling, not parallelism.
pub const SWEEP_GRID_THREADS: usize = 4;

/// The `sweep-grid` workload: a fine-grained grid of small two-node
/// systems with mixed replication counts (many points with fewer
/// replications than workers — the shape that leaves cores idle under
/// per-point parallelism). Returns the configs and the per-point rep
/// counts.
#[must_use]
pub fn sweep_grid(quick: bool) -> (Vec<SystemConfig>, Vec<u64>) {
    let points = if quick { 32 } else { 96 };
    // Mixed on purpose: singleton points pay the worst idle-core cost
    // under per-point parallelism, multi-rep points pay the per-point
    // spawn/join barrier, and the occasional 8-rep point creates the
    // imbalance a flattened queue has to absorb.
    const REPS_CYCLE: [u64; 6] = [1, 2, 4, 4, 2, 8];
    let mut configs = Vec::with_capacity(points);
    let mut reps = Vec::with_capacity(points);
    for k in 0..points {
        let m = [8 + (k as u32 % 5) * 2, 5 + (k as u32 % 3) * 2];
        let churn_scale = 0.5 + 0.25 * (k % 4) as f64;
        configs.push(SystemConfig::new(
            vec![
                NodeConfig::new(1.08, 0.05 * churn_scale, 0.1, m[0]),
                NodeConfig::new(1.86, 0.05 * churn_scale, 0.05, m[1]),
            ],
            NetworkConfig::exponential(0.02),
        ));
        reps.push(REPS_CYCLE[k % REPS_CYCLE.len()]);
    }
    (configs, reps)
}

/// Result of measuring the `sweep-grid` workload.
#[derive(Clone, Debug)]
pub struct SweepGridMeasurement {
    /// Grid points run.
    pub points: usize,
    /// Total replications across the grid.
    pub reps: u64,
    /// Total engine events (identical in both execution modes).
    pub events: u64,
    /// Wall-clock seconds through the flattened scheduler.
    pub wall_seconds: f64,
    /// Wall-clock seconds through the sequential-point baseline.
    pub sequential_wall_seconds: f64,
    /// Worker threads used by both modes.
    pub threads: usize,
    /// FNV-1a digest of the flattened completion-time vector (all points
    /// in grid order) — asserted identical between the two modes before
    /// either wall-clock number is reported.
    pub digest: u64,
}

impl SweepGridMeasurement {
    /// Sequential-point wall clock over scheduler wall clock.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.sequential_wall_seconds / self.wall_seconds
    }

    /// Events per second through the scheduler.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds
    }
}

/// Measures the `sweep-grid` workload: the same grid through the
/// flattened scheduler and through the sequential-point baseline, with
/// the sample paths cross-checked bit-exactly before timing is trusted.
/// Each mode keeps its fastest of `repeat` rounds (see
/// [`measure_repeated`] for why minimum-of-N is the right estimator).
///
/// # Panics
/// Panics if `repeat == 0` or the two execution modes disagree on any
/// sampled value (a scheduler determinism bug).
#[must_use]
pub fn measure_sweep_grid(quick: bool, seed: u64, repeat: u32) -> SweepGridMeasurement {
    assert!(repeat > 0, "need at least one measurement round");
    let (configs, reps) = sweep_grid(quick);
    let jobs: Vec<PointJob<'_>> = configs
        .iter()
        .zip(&reps)
        .map(|(config, &reps)| PointJob {
            config,
            reps,
            seed,
            rep_base: 0,
            antithetic: false,
            options: SimOptions::default(),
        })
        .collect();

    let mut times = Vec::new();
    let mut events = 0u64;
    let mut wall_seconds = f64::INFINITY;
    let mut sequential_wall_seconds = f64::INFINITY;
    for round in 0..repeat {
        // Flattened scheduler: one pool over every (point, rep) task.
        let mut round_times = Vec::new();
        let mut round_events = 0u64;
        let start = Instant::now();
        run_grid_policies_streaming_with_report(
            &jobs,
            1,
            &|_, _, _| Lbp2::new(1.0),
            SWEEP_GRID_THREADS,
            0,
            |_, _, stats| {
                round_times.extend_from_slice(&stats.completion_times);
                round_events += stats.total_events;
                Ok(())
            },
        )
        .expect("sweep-grid scheduler run");
        wall_seconds = wall_seconds.min(start.elapsed().as_secs_f64());

        // Sequential-point baseline: the pre-scheduler sweep *shape* —
        // one scheduler invocation per point (replication-parallel
        // within it), paying a worker-pool spawn/join barrier between
        // points. Same engine code either way; only the orchestration
        // differs.
        let mut seq_times = Vec::new();
        let mut seq_events = 0u64;
        let start = Instant::now();
        for job in &jobs {
            let est = run_replications(
                job.config,
                &|_| Lbp2::new(1.0),
                job.reps,
                job.seed,
                SWEEP_GRID_THREADS,
                job.options,
            );
            seq_times.extend_from_slice(&est.completion_times);
            seq_events += est.total_events;
        }
        sequential_wall_seconds = sequential_wall_seconds.min(start.elapsed().as_secs_f64());

        assert_eq!(
            round_times, seq_times,
            "sweep-grid: scheduler and sequential-point baseline sampled \
             different trajectories"
        );
        assert_eq!(
            round_events, seq_events,
            "sweep-grid: event counts diverged"
        );
        if round == 0 {
            times = round_times;
            events = round_events;
        } else {
            assert_eq!(times, round_times, "sweep-grid: rounds disagree");
        }
    }
    SweepGridMeasurement {
        points: configs.len(),
        reps: reps.iter().sum(),
        events,
        wall_seconds,
        sequential_wall_seconds,
        threads: SWEEP_GRID_THREADS,
        digest: digest_f64s(&times),
    }
}

/// The policy set of the `compare-grid` workload, in baseline-first
/// order — the same declarative specs the lab's `compare` resolves.
#[must_use]
pub fn compare_grid_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Lbp2 { gain: 1.0 },
        PolicySpec::UponFailureOnly,
        PolicySpec::NoBalancing,
    ]
}

/// Result of measuring the `compare-grid` workload: the sweep grid ×
/// a 3-policy set through one shared scheduler pass vs K sequential
/// single-policy sweeps.
#[derive(Clone, Debug)]
pub struct CompareGridMeasurement {
    /// Grid points run.
    pub points: usize,
    /// Policies evaluated per point.
    pub policies: usize,
    /// Total replications across `points × policies`.
    pub reps: u64,
    /// Total engine events (identical in both execution modes).
    pub events: u64,
    /// Wall-clock seconds through the single shared pass.
    pub wall_seconds: f64,
    /// Wall-clock seconds through K sequential single-policy sweeps.
    pub sequential_wall_seconds: f64,
    /// Worker threads used by both modes.
    pub threads: usize,
    /// FNV-1a digest of the flattened completion-time vector (cells in
    /// `(point, policy)` order) — asserted identical between the two
    /// modes before either wall-clock number is reported.
    pub digest: u64,
}

impl CompareGridMeasurement {
    /// K-sequential-sweeps wall clock over shared-pass wall clock.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.sequential_wall_seconds / self.wall_seconds
    }

    /// Events per second through the shared pass.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds
    }
}

/// Measures the `compare-grid` workload: the `sweep_grid` systems × the
/// 3-policy comparison set, once through a single
/// [`run_grid_policies_streaming_with_report`] pass (the lab `compare`
/// execution shape) and once as K sequential single-policy passes (the
/// pre-policy-axis way to answer the same question). Sample paths are
/// cross-checked bit-exactly between the modes before timing is trusted —
/// which is also the common-random-numbers invariant, measured instead of
/// assumed. Each mode keeps its fastest of `repeat` rounds.
///
/// # Panics
/// Panics if `repeat == 0` or the two execution modes disagree on any
/// sampled value (a scheduler determinism bug).
#[must_use]
pub fn measure_compare_grid(quick: bool, seed: u64, repeat: u32) -> CompareGridMeasurement {
    assert!(repeat > 0, "need at least one measurement round");
    let (configs, reps) = sweep_grid(quick);
    let policies = compare_grid_policies();
    for (config, policy) in configs
        .iter()
        .flat_map(|c| policies.iter().map(move |p| (c, p)))
    {
        policy
            .validate_for(config)
            .expect("compare-grid policies fit every point");
    }
    let jobs: Vec<PointJob<'_>> = configs
        .iter()
        .zip(&reps)
        .map(|(config, &reps)| PointJob {
            config,
            reps,
            seed,
            rep_base: 0,
            antithetic: false,
            options: SimOptions::default(),
        })
        .collect();
    let k = policies.len();

    let mut times = Vec::new();
    let mut events = 0u64;
    let mut wall_seconds = f64::INFINITY;
    let mut sequential_wall_seconds = f64::INFINITY;
    for round in 0..repeat {
        // Shared pass: one pool over every (point, policy, rep) task.
        let mut round_times = Vec::new();
        let mut round_events = 0u64;
        let start = Instant::now();
        run_grid_policies_streaming_with_report(
            &jobs,
            k,
            &|p, v, _| policies[v].build(jobs[p].config).expect("validated"),
            SWEEP_GRID_THREADS,
            0,
            |_, _, stats| {
                round_times.extend_from_slice(&stats.completion_times);
                round_events += stats.total_events;
                Ok(())
            },
        )
        .expect("compare-grid shared pass");
        wall_seconds = wall_seconds.min(start.elapsed().as_secs_f64());

        // Baseline: K sequential sweeps, one full scheduler pass per
        // policy — same engine code, same per-policy task order; only the
        // orchestration differs. Results land per policy and are then
        // interleaved into the shared pass's (point, policy) cell order
        // for the bit-exact cross-check.
        let mut per_policy: Vec<Vec<Vec<f64>>> = Vec::with_capacity(k);
        let mut seq_events = 0u64;
        let start = Instant::now();
        for policy in &policies {
            let mut cells: Vec<Vec<f64>> = Vec::with_capacity(jobs.len());
            run_grid_policies_streaming_with_report(
                &jobs,
                1,
                &|p, _, _| policy.build(jobs[p].config).expect("validated"),
                SWEEP_GRID_THREADS,
                0,
                |_, _, stats| {
                    seq_events += stats.total_events;
                    cells.push(stats.completion_times);
                    Ok(())
                },
            )
            .expect("compare-grid sequential sweep");
            per_policy.push(cells);
        }
        sequential_wall_seconds = sequential_wall_seconds.min(start.elapsed().as_secs_f64());
        let mut seq_times = Vec::with_capacity(round_times.len());
        for p in 0..jobs.len() {
            for cells in &per_policy {
                seq_times.extend_from_slice(&cells[p]);
            }
        }

        assert_eq!(
            round_times, seq_times,
            "compare-grid: shared pass and sequential sweeps sampled \
             different trajectories (CRN invariant broken)"
        );
        assert_eq!(
            round_events, seq_events,
            "compare-grid: event counts diverged"
        );
        if round == 0 {
            times = round_times;
            events = round_events;
        } else {
            assert_eq!(times, round_times, "compare-grid: rounds disagree");
        }
    }
    CompareGridMeasurement {
        points: configs.len(),
        policies: k,
        reps: reps.iter().sum::<u64>() * k as u64,
        events,
        wall_seconds,
        sequential_wall_seconds,
        threads: SWEEP_GRID_THREADS,
        digest: digest_f64s(&times),
    }
}

/// Pinned `(quick, full)` digests of the `compare-grid` flattened
/// completion-time vector for [`PERF_SEED`]. Change them deliberately or
/// not at all.
pub const EXPECTED_COMPARE_GRID_DIGESTS: (u64, u64) =
    (0x0098_fd56_7fda_0769, 0x6d97_8a9a_9f7a_3d4d);

/// The pinned `compare-grid` digest for the given mode.
#[must_use]
pub fn expected_compare_grid_digest(quick: bool) -> u64 {
    if quick {
        EXPECTED_COMPARE_GRID_DIGESTS.0
    } else {
        EXPECTED_COMPARE_GRID_DIGESTS.1
    }
}

/// Torus dimensions of the `large-fleet` workload: `100 × 100` (10⁴
/// nodes) in full mode, `50 × 50` in `--quick`.
#[must_use]
pub fn large_fleet_dims(quick: bool) -> (usize, usize) {
    if quick {
        (50, 50)
    } else {
        (100, 100)
    }
}

/// Simulated-time horizon of the `large-fleet` workload. The fleet
/// carries ~40 initial tasks per node — more than it can drain before
/// this deadline — so both execution modes measure a steady churn-plus-
/// service regime instead of a drain tail.
pub const LARGE_FLEET_DEADLINE: f64 = 25.0;

fn large_fleet_nodes(n: usize) -> Vec<NodeConfig> {
    let rates = [0.9, 1.0, 1.1, 1.2];
    (0..n)
        .map(|i| NodeConfig::new(rates[i % rates.len()], 0.002, 0.1, 40 + (i as u32 % 3)))
        .collect()
}

fn large_fleet_churn(cols: usize) -> ChurnModel {
    // One rack per torus row; shocks strike whole racks with per-rack
    // probabilities cycled over four reliability classes.
    ChurnModel::RackShocks {
        shock_rate: 2.0,
        group_size: cols as u32,
        hit_probabilities: vec![0.10, 0.40, 0.20, 0.60],
    }
}

/// The `large-fleet` system: a `rows × cols` torus (each rack is one
/// torus row) under rack-correlated shock churn, balanced by LBP-2 with
/// **neighbor-local** O(degree) policy scans and the **calendar-queue**
/// event backend.
#[must_use]
pub fn large_fleet_config(quick: bool) -> SystemConfig {
    let (rows, cols) = large_fleet_dims(quick);
    SystemConfig::new(
        large_fleet_nodes(rows * cols),
        NetworkConfig::exponential(0.05),
    )
    .with_churn_model(large_fleet_churn(cols))
    .with_topology(Topology::torus(rows, cols).expect("torus dims are valid"))
}

/// The identical fleet with **no topology installed**: every policy scan
/// falls back to the global O(n) walk and the event queue is forced onto
/// the binary heap — the pre-topology execution shape the `large-fleet`
/// speedup is measured against.
#[must_use]
pub fn large_fleet_global_config(quick: bool) -> SystemConfig {
    let (rows, cols) = large_fleet_dims(quick);
    SystemConfig::new(
        large_fleet_nodes(rows * cols),
        NetworkConfig::exponential(0.05),
    )
    .with_churn_model(large_fleet_churn(cols))
}

/// Trajectory digest of a deadline-bounded replication run. The
/// completion-time vector alone degenerates to the deadline constant, so
/// the digest folds in the per-replication failure and shipment counts
/// plus the total event count — any drifted trajectory moves at least
/// one of them.
#[must_use]
pub fn deadline_run_digest(est: &McEstimate) -> u64 {
    let mut values = est.completion_times.clone();
    values.extend(est.failures_per_rep.iter().map(|&f| f as f64));
    values.extend(est.tasks_shipped_per_rep.iter().map(|&s| s as f64));
    values.push(est.total_events as f64);
    digest_f64s(&values)
}

/// Result of measuring the `large-fleet` workload: the same ≥10⁴-node
/// fleet once through the topology path (neighbor-local scans + calendar
/// queue) and once through the global path (O(n) scans + binary heap).
#[derive(Clone, Debug)]
pub struct LargeFleetMeasurement {
    /// Fleet size (torus rows × cols).
    pub nodes: usize,
    /// Replications per mode.
    pub reps: u64,
    /// Engine events through the topology path.
    pub events: u64,
    /// Wall-clock seconds through the topology path.
    pub wall_seconds: f64,
    /// Engine events through the global-scan/heap path.
    pub baseline_events: u64,
    /// Wall-clock seconds through the global-scan/heap path.
    pub baseline_wall_seconds: f64,
    /// [`deadline_run_digest`] of the topology-path run.
    pub digest: u64,
    /// [`deadline_run_digest`] of the global-path run.
    pub baseline_digest: u64,
}

impl LargeFleetMeasurement {
    /// Events per second through the topology path.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds
    }

    /// Events per second through the global-scan/heap path.
    #[must_use]
    pub fn baseline_events_per_sec(&self) -> f64 {
        self.baseline_events as f64 / self.baseline_wall_seconds
    }

    /// Topology-path throughput over global-path throughput. The two
    /// modes sample different trajectories (the topology changes where
    /// transfers may go), so this is a throughput ratio, not a same-work
    /// wall-clock ratio.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.events_per_sec() / self.baseline_events_per_sec()
    }
}

/// Measures the `large-fleet` workload: one deadline-bounded replication
/// of the torus fleet per mode, fastest of `repeat` rounds per mode, with
/// both trajectory digests asserted stable across rounds. Single-threaded
/// on purpose — the contrast under measurement is per-event policy-scan
/// and queue cost, not parallelism.
///
/// # Panics
/// Panics if `repeat == 0` or any round samples a different trajectory.
#[must_use]
pub fn measure_large_fleet(quick: bool, seed: u64, repeat: u32) -> LargeFleetMeasurement {
    assert!(repeat > 0, "need at least one measurement round");
    let (rows, cols) = large_fleet_dims(quick);
    let local_cfg = large_fleet_config(quick);
    let global_cfg = large_fleet_global_config(quick);
    let local_opts = SimOptions {
        deadline: Some(LARGE_FLEET_DEADLINE),
        backend: QueueBackend::Calendar,
        ..SimOptions::default()
    };
    let global_opts = SimOptions {
        deadline: Some(LARGE_FLEET_DEADLINE),
        backend: QueueBackend::Heap,
        ..SimOptions::default()
    };
    let reps = 1;
    let mut m: Option<LargeFleetMeasurement> = None;
    for _ in 0..repeat {
        let start = Instant::now();
        let local = run_replications(&local_cfg, &|_| Lbp2::new(1.0), reps, seed, 1, local_opts);
        let wall_seconds = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let global = run_replications(&global_cfg, &|_| Lbp2::new(1.0), reps, seed, 1, global_opts);
        let baseline_wall_seconds = start.elapsed().as_secs_f64();
        let round = LargeFleetMeasurement {
            nodes: rows * cols,
            reps,
            events: local.total_events,
            wall_seconds,
            baseline_events: global.total_events,
            baseline_wall_seconds,
            digest: deadline_run_digest(&local),
            baseline_digest: deadline_run_digest(&global),
        };
        m = match m {
            None => Some(round),
            Some(mut prev) => {
                assert_eq!(prev.digest, round.digest, "large-fleet: rounds disagree");
                assert_eq!(
                    prev.baseline_digest, round.baseline_digest,
                    "large-fleet: baseline rounds disagree"
                );
                prev.wall_seconds = prev.wall_seconds.min(round.wall_seconds);
                prev.baseline_wall_seconds =
                    prev.baseline_wall_seconds.min(round.baseline_wall_seconds);
                Some(prev)
            }
        };
    }
    m.expect("repeat >= 1")
}

/// Pinned `(quick, full)` [`deadline_run_digest`]s of the `large-fleet`
/// topology-path run for [`PERF_SEED`].
pub const EXPECTED_LARGE_FLEET_DIGESTS: (u64, u64) = (0x09df_cb9f_e3b8_6f66, 0x655c_0ac6_d0f3_3bb2);

/// Pinned `(quick, full)` [`deadline_run_digest`]s of the `large-fleet`
/// global-scan/heap baseline run for [`PERF_SEED`].
pub const EXPECTED_LARGE_FLEET_BASELINE_DIGESTS: (u64, u64) =
    (0x1624_d456_4450_ab9c, 0x09f0_8430_eb04_6aa7);

/// The pinned `large-fleet` topology-path digest for the given mode.
#[must_use]
pub fn expected_large_fleet_digest(quick: bool) -> u64 {
    if quick {
        EXPECTED_LARGE_FLEET_DIGESTS.0
    } else {
        EXPECTED_LARGE_FLEET_DIGESTS.1
    }
}

/// The pinned `large-fleet` baseline digest for the given mode.
#[must_use]
pub fn expected_large_fleet_baseline_digest(quick: bool) -> u64 {
    if quick {
        EXPECTED_LARGE_FLEET_BASELINE_DIGESTS.0
    } else {
        EXPECTED_LARGE_FLEET_BASELINE_DIGESTS.1
    }
}

/// Result of measuring one workload.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Workload name.
    pub name: &'static str,
    /// Replications run.
    pub reps: u64,
    /// Total engine events dispatched.
    pub events: u64,
    /// Wall-clock seconds for the whole replication run.
    pub wall_seconds: f64,
    /// Mean completion time (a sanity anchor, not a perf number).
    pub mean_completion: f64,
    /// FNV-1a digest of the completion-time vector.
    pub digest: u64,
}

impl Measurement {
    /// Events per wall-clock second.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds
    }
}

/// Pinned completion-time digests: `(workload, quick digest, full digest)`
/// for the default seed. Any engine change that alters a sample path must
/// update these deliberately (and justify it in the PR).
pub const EXPECTED_DIGESTS: &[(&str, u64, u64)] = &[
    ("paper-fig3", 0x2c94_8cc7_508e_4943, 0x23ce_c6b9_6177_7e3f),
    ("shock-storm", 0x652b_fe99_eae3_59e7, 0xafa7_2471_119b_5837),
    (
        "cascading-churn",
        0xa6dd_59e7_2da6_9095,
        0xfbf3_672e_d885_7e79,
    ),
];

/// Looks up the pinned digest for a workload in the given mode.
#[must_use]
pub fn expected_digest(name: &str, quick: bool) -> Option<u64> {
    EXPECTED_DIGESTS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, q, f)| if quick { q } else { f })
}

/// Pinned `(quick, full)` digests of the `sweep-grid` flattened
/// completion-time vector for [`PERF_SEED`]. Change them deliberately or
/// not at all.
pub const EXPECTED_SWEEP_GRID_DIGESTS: (u64, u64) = (0x5117_9065_1d66_93b9, 0x647f_3dce_b148_4c05);

/// The pinned `sweep-grid` digest for the given mode.
#[must_use]
pub fn expected_sweep_grid_digest(quick: bool) -> u64 {
    if quick {
        EXPECTED_SWEEP_GRID_DIGESTS.0
    } else {
        EXPECTED_SWEEP_GRID_DIGESTS.1
    }
}

/// Runs one workload and measures it. `threads` follows the
/// replication-runner convention (0 = auto); digests are thread-invariant.
/// Equivalent to [`measure_repeated`] with a single round.
///
/// # Panics
/// Panics if the workload's policy does not build against its config
/// (a bug in the workload table).
#[must_use]
pub fn measure(w: &Workload, quick: bool, threads: usize, seed: u64) -> Measurement {
    measure_repeated(w, quick, threads, seed, 1)
}

/// Runs one workload `repeat` times and keeps the fastest round's wall
/// clock. Wall-clock noise on a shared machine is one-sided — scheduler
/// preemption and frequency dips only ever *add* time — so the minimum
/// over a few rounds estimates the unloaded throughput far more stably
/// than any single shot (the standard microbenchmark practice). Events,
/// digest and mean are identical across rounds (asserted), so only the
/// timing varies.
///
/// # Panics
/// Panics if `repeat == 0`, if the workload's policy does not build, or
/// if any round samples a different trajectory (a determinism bug).
#[must_use]
pub fn measure_repeated(
    w: &Workload,
    quick: bool,
    threads: usize,
    seed: u64,
    repeat: u32,
) -> Measurement {
    assert!(repeat > 0, "need at least one measurement round");
    let reps = if quick { w.quick_reps } else { w.reps };
    // Policies are rebuilt per replication through the same declarative
    // path the lab uses, so the measurement covers the production loop.
    w.policy
        .validate_for(&w.config)
        .expect("perf workload must be self-consistent");
    let mut best: Option<Measurement> = None;
    for _ in 0..repeat {
        let start = Instant::now();
        let est = run_replications(
            &w.config,
            &|_| w.policy.build(&w.config).expect("validated"),
            reps,
            seed,
            threads,
            SimOptions::default(),
        );
        let wall_seconds = start.elapsed().as_secs_f64();
        let m = Measurement {
            name: w.name,
            reps,
            events: est.total_events,
            wall_seconds,
            mean_completion: est.mean(),
            digest: digest_f64s(&est.completion_times),
        };
        best = match best {
            None => Some(m),
            Some(prev) => {
                assert_eq!(prev.digest, m.digest, "{}: rounds disagree", w.name);
                assert_eq!(prev.events, m.events, "{}: rounds disagree", w.name);
                Some(if m.wall_seconds < prev.wall_seconds {
                    m
                } else {
                    prev
                })
            }
        };
    }
    best.expect("repeat >= 1")
}

/// Simulation-time probe cadence of the `probe-overhead` measurement.
/// Deliberately coarse: a handful of ticks per replication against ~10⁴
/// events, so the armed run isolates the **per-event probe branch** —
/// the cost the disabled path pays — instead of the per-tick sampling
/// work, whose price scales with the cadence the user chose.
pub const PROBE_OVERHEAD_DT: f64 = 50.0;

/// Result of measuring the observability cost on the `cascading-churn`
/// engine workload: the identical run with probes off and with a
/// [`PROBE_OVERHEAD_DT`]-cadence probe armed.
#[derive(Clone, Debug)]
pub struct ProbeOverheadMeasurement {
    /// Replications per mode.
    pub reps: u64,
    /// Engine events (identical in both modes — probing dispatches no
    /// extra events).
    pub events: u64,
    /// Probe ticks emitted across every replication of the armed mode.
    pub probe_ticks: u64,
    /// Wall-clock seconds with probes off (fastest round).
    pub off_wall_seconds: f64,
    /// Wall-clock seconds with the probe armed (fastest round).
    pub armed_wall_seconds: f64,
    /// Median over rounds of the paired per-round `armed / off` wall
    /// ratio. Each round times both modes back to back and every other
    /// round mirrors the order, so ambient machine-speed drift cancels
    /// out of the pairing instead of biasing one mode — the robust
    /// overhead estimator on shared hardware.
    pub median_armed_ratio: f64,
    /// Completion-time digest — asserted identical between the two modes
    /// (the probe draws no random numbers).
    pub digest: u64,
}

impl ProbeOverheadMeasurement {
    /// Median paired armed-over-off wall ratio, minus one. The off path
    /// differs from the armed path only by skipping tick flushes and
    /// histogram records, so this is an upper bound on what the disabled
    /// probe branch can cost.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.median_armed_ratio - 1.0
    }

    /// Events per second with probes off.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.off_wall_seconds
    }
}

/// Measures the probe overhead: the `cascading-churn` workload (the
/// longest wall clock of the suite — the most stable timing base) with
/// probes off and with a coarse [`PROBE_OVERHEAD_DT`] cadence armed,
/// interleaved within each round so both modes see the same machine
/// state, over `2 × repeat` rounds with the mode order mirrored every
/// other round. Reported walls are the per-mode minima; the reported
/// overhead is the **median of the paired per-round ratios**, which a
/// monotone machine-speed drift straddles symmetrically instead of
/// biasing. The two modes' completion-time digests are asserted
/// identical — the probe's no-RNG contract, measured.
///
/// # Panics
/// Panics if `repeat == 0`, if the two modes sample different
/// trajectories, or if the armed mode emits no ticks.
#[must_use]
pub fn measure_probe_overhead(
    quick: bool,
    threads: usize,
    seed: u64,
    repeat: u32,
) -> ProbeOverheadMeasurement {
    assert!(repeat > 0, "need at least one measurement round");
    let w = workloads()
        .into_iter()
        .find(|w| w.name == "cascading-churn")
        .expect("cascading-churn is in the suite");
    let reps = if quick { w.quick_reps } else { w.reps };
    let policy = |_: u64| w.policy.build(&w.config).expect("validated");
    let armed_opts = SimOptions {
        probe_dt: Some(PROBE_OVERHEAD_DT),
        ..SimOptions::default()
    };
    let mut m: Option<ProbeOverheadMeasurement> = None;
    let mut ratios: Vec<f64> = Vec::new();
    // Twice the requested rounds, mirroring the mode order every other
    // round: a monotone machine-speed drift (the dominant noise on shared
    // containers) then biases neither mode's min-of-N, and the per-round
    // paired ratios below straddle the true overhead symmetrically.
    for round in 0..repeat * 2 {
        let timed = |opts: SimOptions| {
            let start = Instant::now();
            let est = run_replications(&w.config, &policy, reps, seed, threads, opts);
            (est, start.elapsed().as_secs_f64())
        };
        let (off, off_wall_seconds, armed, armed_wall_seconds) = if round % 2 == 0 {
            let (off, off_wall) = timed(SimOptions::default());
            let (armed, armed_wall) = timed(armed_opts);
            (off, off_wall, armed, armed_wall)
        } else {
            let (armed, armed_wall) = timed(armed_opts);
            let (off, off_wall) = timed(SimOptions::default());
            (off, off_wall, armed, armed_wall)
        };
        assert_eq!(
            off.completion_times, armed.completion_times,
            "probe-overhead: arming the probe changed the sampled trajectories"
        );
        assert_eq!(
            off.total_events, armed.total_events,
            "probe-overhead: arming the probe changed the event count"
        );
        let probe_ticks: u64 = armed.probes.iter().map(|r| r.samples.len() as u64).sum();
        assert!(
            probe_ticks > 0,
            "probe-overhead: armed mode emitted no ticks"
        );
        ratios.push(armed_wall_seconds / off_wall_seconds);
        let round = ProbeOverheadMeasurement {
            reps,
            events: off.total_events,
            probe_ticks,
            off_wall_seconds,
            armed_wall_seconds,
            median_armed_ratio: 0.0, // filled in below, once every round is in
            digest: digest_f64s(&off.completion_times),
        };
        m = match m {
            None => Some(round),
            Some(mut prev) => {
                assert_eq!(prev.digest, round.digest, "probe-overhead: rounds disagree");
                prev.off_wall_seconds = prev.off_wall_seconds.min(round.off_wall_seconds);
                prev.armed_wall_seconds = prev.armed_wall_seconds.min(round.armed_wall_seconds);
                Some(prev)
            }
        };
    }
    let mut m = m.expect("repeat >= 1");
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite wall ratios"));
    let mid = ratios.len() / 2;
    m.median_armed_ratio = if ratios.len().is_multiple_of(2) {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    } else {
        ratios[mid]
    };
    m
}

/// Result of measuring the channel-model cost on the `cascading-churn`
/// engine workload: the identical run under [`ChannelModel::Reliable`]
/// and under an armed-but-zero-loss [`ChannelModel::Lossy`].
///
/// Zero loss is the right probe: the lossy branch draws one uniform per
/// transfer arrival and takes the verdict match, but never retries or
/// dead-letters — so the paired ratio isolates the **per-arrival channel
/// branch**, the only cost a reliable run could ever pay.
#[derive(Clone, Debug)]
pub struct ChannelOverheadMeasurement {
    /// Replications per mode.
    pub reps: u64,
    /// Engine events (identical in both modes — zero loss redelivers
    /// nothing).
    pub events: u64,
    /// Wall-clock seconds under the reliable channel (fastest round).
    pub reliable_wall_seconds: f64,
    /// Wall-clock seconds under the zero-loss lossy channel (fastest
    /// round).
    pub lossy_wall_seconds: f64,
    /// Median over rounds of the paired per-round `lossy / reliable`
    /// wall ratio (mirrored mode order, like
    /// [`ProbeOverheadMeasurement::median_armed_ratio`]).
    pub median_lossy_ratio: f64,
    /// Completion-time digest — asserted identical between the two modes
    /// (the channel stream is drawn lazily, so a zero-loss channel still
    /// consumes coins but never alters any legacy stream).
    pub digest: u64,
}

impl ChannelOverheadMeasurement {
    /// Median paired lossy-over-reliable wall ratio, minus one — the
    /// per-arrival cost of arming the channel fault machinery at all.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.median_lossy_ratio - 1.0
    }

    /// Events per second under the reliable channel.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.reliable_wall_seconds
    }
}

/// Measures the channel overhead: the `cascading-churn` workload under
/// the default reliable channel and under a zero-loss lossy channel,
/// interleaved within each round with the mode order mirrored every
/// other round (see [`measure_probe_overhead`] for why). The two modes'
/// completion-time digests are asserted identical — the dedicated-
/// channel-stream contract, measured: arming the model must not perturb
/// one legacy trajectory.
///
/// # Panics
/// Panics if `repeat == 0` or the two modes sample different
/// trajectories.
#[must_use]
pub fn measure_channel_overhead(
    quick: bool,
    threads: usize,
    seed: u64,
    repeat: u32,
) -> ChannelOverheadMeasurement {
    assert!(repeat > 0, "need at least one measurement round");
    let w = workloads()
        .into_iter()
        .find(|w| w.name == "cascading-churn")
        .expect("cascading-churn is in the suite");
    let reps = if quick { w.quick_reps } else { w.reps };
    let lossy_config = w.config.clone().with_channel_model(ChannelModel::Lossy {
        loss_probability: 0.0,
        on_down: DownPolicy::Enqueue,
        max_retries: 0,
        retry_backoff: 0.1,
    });
    let opts = SimOptions::default();
    let mut m: Option<ChannelOverheadMeasurement> = None;
    let mut ratios: Vec<f64> = Vec::new();
    for round in 0..repeat * 2 {
        let timed = |config: &SystemConfig| {
            let start = Instant::now();
            let est = run_replications(
                config,
                &|_| w.policy.build(config).expect("validated"),
                reps,
                seed,
                threads,
                opts,
            );
            (est, start.elapsed().as_secs_f64())
        };
        let (reliable, reliable_wall, lossy, lossy_wall) = if round % 2 == 0 {
            let (reliable, rw) = timed(&w.config);
            let (lossy, lw) = timed(&lossy_config);
            (reliable, rw, lossy, lw)
        } else {
            let (lossy, lw) = timed(&lossy_config);
            let (reliable, rw) = timed(&w.config);
            (reliable, rw, lossy, lw)
        };
        assert_eq!(
            reliable.completion_times, lossy.completion_times,
            "channel-overhead: arming a zero-loss channel changed the \
             sampled trajectories"
        );
        assert_eq!(
            reliable.total_events, lossy.total_events,
            "channel-overhead: arming a zero-loss channel changed the \
             event count"
        );
        assert!(
            lossy.mean_tasks_lost == 0.0 && lossy.mean_retries == 0.0,
            "zero-loss lossy mode must lose and retry nothing"
        );
        ratios.push(lossy_wall / reliable_wall);
        let round = ChannelOverheadMeasurement {
            reps,
            events: reliable.total_events,
            reliable_wall_seconds: reliable_wall,
            lossy_wall_seconds: lossy_wall,
            median_lossy_ratio: 0.0, // filled in below, once every round is in
            digest: digest_f64s(&reliable.completion_times),
        };
        m = match m {
            None => Some(round),
            Some(mut prev) => {
                assert_eq!(
                    prev.digest, round.digest,
                    "channel-overhead: rounds disagree"
                );
                prev.reliable_wall_seconds =
                    prev.reliable_wall_seconds.min(round.reliable_wall_seconds);
                prev.lossy_wall_seconds = prev.lossy_wall_seconds.min(round.lossy_wall_seconds);
                Some(prev)
            }
        };
    }
    let mut m = m.expect("repeat >= 1");
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite wall ratios"));
    let mid = ratios.len() / 2;
    m.median_lossy_ratio = if ratios.len().is_multiple_of(2) {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    } else {
        ratios[mid]
    };
    m
}

/// The run-level flags a report records alongside its measurements.
#[derive(Clone, Copy, Debug)]
pub struct RunInfo {
    /// Quick (CI) replication counts vs full.
    pub quick: bool,
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Master seed of every workload.
    pub seed: u64,
    /// Measurement rounds per workload (fastest kept).
    pub repeat: u32,
}

/// Fixed thread count of the campaign-cache workload: the invariant
/// under test is *what* runs (zero cells warm), not scheduling, so a
/// small fixed pool keeps the wall numbers comparable across machines.
pub const CAMPAIGN_CACHE_THREADS: usize = 4;

/// The campaign-cache workload's cold vs warm comparison: a campaign
/// directory built from scratch and run to completion (cold), then
/// re-run unchanged (warm — the content-addressed cache must satisfy
/// every cell, simulating **zero** replications).
#[derive(Clone, Debug)]
pub struct CampaignCacheMeasurement {
    /// Cells in the campaign grid.
    pub cells: usize,
    /// Replications the cold run simulated.
    pub reps: u64,
    /// Replications the warm run simulated (the cache contract: 0).
    pub warm_reps: u64,
    /// Worker threads ([`CAMPAIGN_CACHE_THREADS`]).
    pub threads: usize,
    /// Cold wall clock (best of `repeat` fresh-directory runs).
    pub cold_wall_seconds: f64,
    /// Warm wall clock (best of `repeat` re-runs on the finished dir).
    pub warm_wall_seconds: f64,
    /// FNV-1a digest of the final CSV bytes (byte-identical cold/warm).
    pub digest: u64,
}

impl CampaignCacheMeasurement {
    /// Cold-over-warm wall-clock ratio — the value the ≥ 10× acceptance
    /// floor gates.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.warm_wall_seconds > 0.0 {
            self.cold_wall_seconds / self.warm_wall_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// Pinned campaign-cache CSV digests, `(quick, full)`.
pub const EXPECTED_CAMPAIGN_CACHE_DIGESTS: (u64, u64) =
    (0xbc4d_9e85_1830_3116, 0x892a_76a4_41c1_cde4);

/// The pinned campaign-cache digest for the mode.
#[must_use]
pub fn expected_campaign_cache_digest(quick: bool) -> u64 {
    if quick {
        EXPECTED_CAMPAIGN_CACHE_DIGESTS.0
    } else {
        EXPECTED_CAMPAIGN_CACHE_DIGESTS.1
    }
}

/// The campaign spec of the campaign-cache workload: paper-fig5 swept
/// over a failure-rate axis with a 2-policy set under tight sequential
/// stopping, so the cold run caps out and the cell count is stable.
fn campaign_cache_spec(quick: bool, seed: u64) -> String {
    let (r0, max_reps) = if quick { (8, 64) } else { (16, 256) };
    format!(
        "scenarios = [\"paper-fig5\"]\n\
         policies = [\"lbp1-optimal\", \"none\"]\n\
         axis = [\"failure-scale=1,1.25,1.5,1.75,2\"]\n\
         seed = {seed}\n\
         \n\
         [stopping]\n\
         tolerance = 0.05\n\
         r0 = {r0}\n\
         max_reps = {max_reps}\n\
         \n\
         [fields]\n\
         workload = \"campaign-cache\"\n"
    )
}

/// Measures the campaign cache: best-of-`repeat` cold runs (fresh
/// directory each time) against best-of-`repeat` warm re-runs of the
/// finished directory, with the final CSV digested for the drift gate.
///
/// # Panics
/// On campaign failures, or if a warm run simulates any replication.
#[must_use]
pub fn measure_campaign_cache(quick: bool, seed: u64, repeat: u32) -> CampaignCacheMeasurement {
    use churnbal_lab::campaign::{Campaign, CampaignRunOptions};

    let dir = std::env::temp_dir().join(format!(
        "churnbal-campaign-cache-{}-{}",
        if quick { "quick" } else { "full" },
        std::process::id()
    ));
    let opts = CampaignRunOptions {
        threads: CAMPAIGN_CACHE_THREADS,
        chunk: 0,
        max_cells: None,
    };
    let spec = campaign_cache_spec(quick, seed);

    let mut cells = 0;
    let mut reps = 0;
    let mut cold_wall_seconds = f64::INFINITY;
    for _ in 0..repeat.max(1) {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create campaign dir");
        std::fs::write(dir.join("campaign-cache.toml"), &spec).expect("write spec");
        let start = Instant::now();
        let mut campaign = Campaign::load(&dir).expect("campaign loads");
        let report = campaign.run(&opts).expect("cold campaign run");
        cold_wall_seconds = cold_wall_seconds.min(start.elapsed().as_secs_f64());
        assert_eq!(report.cells_done, report.cells_total, "cold run finishes");
        cells = report.cells_total;
        reps = report.reps_run;
    }

    let mut warm_reps = 0;
    let mut warm_wall_seconds = f64::INFINITY;
    for _ in 0..repeat.max(1) {
        let start = Instant::now();
        let mut campaign = Campaign::load(&dir).expect("campaign reloads");
        let report = campaign.run(&opts).expect("warm campaign run");
        warm_wall_seconds = warm_wall_seconds.min(start.elapsed().as_secs_f64());
        assert_eq!(
            report.reps_run, 0,
            "warm re-run must simulate zero replications"
        );
        warm_reps = report.reps_run;
    }

    let csv = std::fs::read(dir.join("out").join("campaign-cache.csv")).expect("campaign csv");
    let mut h = churnbal_stochastic::Fnv1a::new();
    h.update(&csv);
    let digest = h.finish();
    let _ = std::fs::remove_dir_all(&dir);
    CampaignCacheMeasurement {
        cells,
        reps,
        warm_reps,
        threads: CAMPAIGN_CACHE_THREADS,
        cold_wall_seconds,
        warm_wall_seconds,
        digest,
    }
}

/// The optional per-workload sections of the JSON report, one slot per
/// specialized workload; a slot is `Some` when its workload ran.
#[derive(Default)]
pub struct ExtraSections<'a> {
    pub sweep: Option<&'a SweepGridMeasurement>,
    pub compare: Option<&'a CompareGridMeasurement>,
    pub large: Option<&'a LargeFleetMeasurement>,
    pub probe: Option<&'a ProbeOverheadMeasurement>,
    pub channel: Option<&'a ChannelOverheadMeasurement>,
    pub campaign: Option<&'a CampaignCacheMeasurement>,
}

/// Renders the report as pretty-printed JSON (no external deps; every
/// field is a number or a fixed-format string).
#[must_use]
pub fn to_json(measurements: &[Measurement], extras: &ExtraSections<'_>, info: RunInfo) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"churnbal-perfreport/7\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if info.quick { "quick" } else { "full" }
    ));
    out.push_str(&format!("  \"threads\": {},\n", info.threads));
    out.push_str(&format!("  \"seed\": {},\n", info.seed));
    out.push_str(&format!("  \"repeat\": {},\n", info.repeat));
    out.push_str("  \"workloads\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"reps\": {}, \"events\": {}, \"wall_seconds\": {:?}, \
             \"events_per_sec\": {:.0}, \"mean_completion\": {:?}, \"digest\": \"{:#018x}\"}}{}\n",
            m.name,
            m.reps,
            m.events,
            m.wall_seconds,
            m.events_per_sec(),
            m.mean_completion,
            m.digest,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    if let Some(s) = extras.sweep {
        out.push_str(&format!(
            "  \"sweep_grid\": {{\"points\": {}, \"reps\": {}, \"events\": {}, \
             \"threads\": {}, \"wall_seconds\": {:?}, \"sequential_wall_seconds\": {:?}, \
             \"speedup\": {:.2}, \"digest\": \"{:#018x}\"}},\n",
            s.points,
            s.reps,
            s.events,
            s.threads,
            s.wall_seconds,
            s.sequential_wall_seconds,
            s.speedup(),
            s.digest,
        ));
    }
    if let Some(c) = extras.compare {
        out.push_str(&format!(
            "  \"compare_grid\": {{\"points\": {}, \"policies\": {}, \"reps\": {}, \
             \"events\": {}, \"threads\": {}, \"wall_seconds\": {:?}, \
             \"sequential_wall_seconds\": {:?}, \"speedup\": {:.2}, \
             \"digest\": \"{:#018x}\"}},\n",
            c.points,
            c.policies,
            c.reps,
            c.events,
            c.threads,
            c.wall_seconds,
            c.sequential_wall_seconds,
            c.speedup(),
            c.digest,
        ));
    }
    if let Some(l) = extras.large {
        out.push_str(&format!(
            "  \"large_fleet\": {{\"nodes\": {}, \"reps\": {}, \"events\": {}, \
             \"wall_seconds\": {:?}, \"events_per_sec\": {:.0}, \"baseline_events\": {}, \
             \"baseline_wall_seconds\": {:?}, \"baseline_events_per_sec\": {:.0}, \
             \"speedup\": {:.2}, \"digest\": \"{:#018x}\", \"baseline_digest\": \"{:#018x}\"}},\n",
            l.nodes,
            l.reps,
            l.events,
            l.wall_seconds,
            l.events_per_sec(),
            l.baseline_events,
            l.baseline_wall_seconds,
            l.baseline_events_per_sec(),
            l.speedup(),
            l.digest,
            l.baseline_digest,
        ));
    }
    if let Some(p) = extras.probe {
        out.push_str(&format!(
            "  \"probe_overhead\": {{\"reps\": {}, \"events\": {}, \"probe_ticks\": {}, \
             \"off_wall_seconds\": {:?}, \"armed_wall_seconds\": {:?}, \
             \"armed_overhead\": {:.4}, \"digest\": \"{:#018x}\"}},\n",
            p.reps,
            p.events,
            p.probe_ticks,
            p.off_wall_seconds,
            p.armed_wall_seconds,
            p.overhead(),
            p.digest,
        ));
    }
    if let Some(c) = extras.channel {
        out.push_str(&format!(
            "  \"channel_overhead\": {{\"reps\": {}, \"events\": {}, \
             \"reliable_wall_seconds\": {:?}, \"lossy_wall_seconds\": {:?}, \
             \"lossy_overhead\": {:.4}, \"digest\": \"{:#018x}\"}},\n",
            c.reps,
            c.events,
            c.reliable_wall_seconds,
            c.lossy_wall_seconds,
            c.overhead(),
            c.digest,
        ));
    }
    if let Some(c) = extras.campaign {
        out.push_str(&format!(
            "  \"campaign_cache\": {{\"cells\": {}, \"reps\": {}, \"warm_reps\": {}, \
             \"threads\": {}, \"cold_wall_seconds\": {:?}, \"warm_wall_seconds\": {:?}, \
             \"speedup\": {:.2}, \"digest\": \"{:#018x}\"}},\n",
            c.cells,
            c.reps,
            c.warm_reps,
            c.threads,
            c.cold_wall_seconds,
            c.warm_wall_seconds,
            c.speedup(),
            c.digest,
        ));
    }
    let events: u64 = measurements.iter().map(|m| m.events).sum();
    let wall: f64 = measurements.iter().map(|m| m.wall_seconds).sum();
    out.push_str(&format!(
        "  \"total\": {{\"events\": {}, \"wall_seconds\": {:?}, \"events_per_sec\": {:.0}}}\n",
        events,
        wall,
        events as f64 / wall
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_table_is_self_consistent() {
        for w in workloads() {
            w.policy
                .validate_for(&w.config)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(w.quick_reps < w.reps, "{}: quick must be cheaper", w.name);
            assert!(expected_digest(w.name, true).is_some(), "{}", w.name);
            assert!(expected_digest(w.name, false).is_some(), "{}", w.name);
        }
    }

    #[test]
    fn quick_digests_match_their_pins() {
        // The full-mode digests are asserted by `perfreport` itself (CI
        // runs `--quick`); here the cheap mode keeps `cargo test` honest.
        for w in workloads() {
            let m = measure(&w, true, 0, PERF_SEED);
            assert_eq!(
                Some(m.digest),
                expected_digest(w.name, true),
                "{}: sample path drifted (digest {:#018x})",
                w.name,
                m.digest
            );
        }
    }

    #[test]
    fn json_report_has_every_workload() {
        let ms: Vec<Measurement> = workloads()
            .iter()
            .map(|w| measure(w, true, 0, PERF_SEED))
            .collect();
        let sweep = measure_sweep_grid(true, PERF_SEED, 1);
        let compare = measure_compare_grid(true, PERF_SEED, 1);
        // A hand-built large-fleet cell: the JSON rendering is under test
        // here, not the measurement (the digest test below runs that).
        let large = LargeFleetMeasurement {
            nodes: 2500,
            reps: 1,
            events: 200_000,
            wall_seconds: 0.1,
            baseline_events: 180_000,
            baseline_wall_seconds: 0.9,
            digest: 0xdead,
            baseline_digest: 0xbeef,
        };
        // Hand-built like the large-fleet cell: the JSON rendering is the
        // subject, the real measurement runs in the digest test below.
        let probe = ProbeOverheadMeasurement {
            reps: 50,
            events: 1_000_000,
            probe_ticks: 7000,
            off_wall_seconds: 0.5,
            armed_wall_seconds: 0.505,
            median_armed_ratio: 1.01,
            digest: 0xcafe,
        };
        // Hand-built as well: the JSON rendering is the subject.
        let channel = ChannelOverheadMeasurement {
            reps: 50,
            events: 1_000_000,
            reliable_wall_seconds: 0.5,
            lossy_wall_seconds: 0.503,
            median_lossy_ratio: 1.006,
            digest: 0xf00d,
        };
        // Hand-built as well: the JSON rendering is the subject.
        let campaign = CampaignCacheMeasurement {
            cells: 10,
            reps: 640,
            warm_reps: 0,
            threads: CAMPAIGN_CACHE_THREADS,
            cold_wall_seconds: 0.4,
            warm_wall_seconds: 0.002,
            digest: 0xfeed,
        };
        let json = to_json(
            &ms,
            &ExtraSections {
                sweep: Some(&sweep),
                compare: Some(&compare),
                large: Some(&large),
                probe: Some(&probe),
                channel: Some(&channel),
                campaign: Some(&campaign),
            },
            RunInfo {
                quick: true,
                threads: 0,
                seed: PERF_SEED,
                repeat: 1,
            },
        );
        for w in workloads() {
            assert!(json.contains(w.name), "{json}");
        }
        assert!(json.contains("\"schema\": \"churnbal-perfreport/7\""));
        assert!(json.contains("\"sweep_grid\""));
        assert!(json.contains("\"compare_grid\""));
        assert!(json.contains("\"large_fleet\""));
        assert!(json.contains("\"probe_overhead\""));
        assert!(json.contains("\"channel_overhead\""));
        assert!(json.contains("\"campaign_cache\""));
        assert!(json.contains("\"warm_reps\": 0"), "{json}");
        assert!(json.contains("\"speedup\": 200.00"), "{json}");
        assert!(json.contains("\"lossy_overhead\": 0.0060"), "{json}");
        assert!(json.contains("\"armed_overhead\": 0.0100"), "{json}");
        assert!(json.contains("\"speedup\": 10.00"), "{json}");
        assert!(json.contains("\"policies\": 3"));
        assert!(json.contains("\"repeat\": 1"));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"total\""));
    }

    #[test]
    fn campaign_cache_digest_matches_its_pin() {
        // `measure_campaign_cache` itself asserts the warm run simulates
        // zero replications; this additionally pins the CSV bytes the
        // cache reproduces.
        let m = measure_campaign_cache(true, PERF_SEED, 1);
        assert_eq!(
            m.digest,
            expected_campaign_cache_digest(true),
            "campaign-cache CSV drifted (digest {:#018x})",
            m.digest
        );
        assert_eq!(m.cells, 10);
        assert_eq!(m.warm_reps, 0);
        assert!(m.reps > 0);
    }

    #[test]
    fn compare_grid_digest_matches_its_pin() {
        // `measure_compare_grid` itself cross-checks the shared pass
        // against K sequential sweeps bit-exactly; this additionally pins
        // the sampled trajectories to their committed digest.
        let m = measure_compare_grid(true, PERF_SEED, 1);
        assert_eq!(
            m.digest,
            expected_compare_grid_digest(true),
            "compare-grid sample paths drifted (digest {:#018x})",
            m.digest
        );
        assert_eq!(m.points, 32);
        assert_eq!(m.policies, 3);
        assert_eq!(m.reps, 3 * 108);
        assert!(m.events > 0);
    }

    #[test]
    fn sweep_grid_digest_matches_its_pin() {
        // `measure_sweep_grid` itself cross-checks the scheduler against
        // the sequential-point baseline; this additionally pins the
        // sampled trajectories to their committed digest.
        let m = measure_sweep_grid(true, PERF_SEED, 1);
        assert_eq!(
            m.digest,
            expected_sweep_grid_digest(true),
            "sweep-grid sample paths drifted (digest {:#018x})",
            m.digest
        );
        assert_eq!(m.points, 32);
        assert_eq!(m.reps, 108);
        assert!(m.events > 0);
    }

    #[test]
    fn large_fleet_quick_digests_match_their_pins() {
        // Quick mode only (the 50×50 torus); the full 100×100 digests are
        // asserted by `perfreport` itself. Timing is not asserted here —
        // debug builds invert every perf ratio — only the trajectories.
        let m = measure_large_fleet(true, PERF_SEED, 1);
        assert_eq!(m.nodes, 2500);
        assert!(m.events > 0 && m.baseline_events > 0);
        assert_eq!(
            m.digest,
            expected_large_fleet_digest(true),
            "large-fleet sample paths drifted (digest {:#018x})",
            m.digest
        );
        assert_eq!(
            m.baseline_digest,
            expected_large_fleet_baseline_digest(true),
            "large-fleet baseline sample paths drifted (digest {:#018x})",
            m.baseline_digest
        );
    }

    #[test]
    fn probe_overhead_modes_sample_identical_pinned_paths() {
        // Timing is not asserted here — debug builds distort every ratio —
        // only the no-RNG contract: probes off and armed sample the same
        // trajectories, and they are the workload's pinned ones.
        let m = measure_probe_overhead(true, 0, PERF_SEED, 1);
        assert_eq!(
            Some(m.digest),
            expected_digest("cascading-churn", true),
            "arming the probe drifted the cascading-churn sample paths \
             (digest {:#018x})",
            m.digest
        );
        assert!(m.probe_ticks > 0);
        assert!(m.events > 0);
        assert!(
            m.median_armed_ratio > 0.0,
            "paired-ratio estimator left unfilled"
        );
    }

    #[test]
    fn channel_overhead_modes_sample_identical_pinned_paths() {
        // Timing is not asserted here — debug builds distort every ratio —
        // only the dedicated-stream contract: a zero-loss lossy channel
        // samples the workload's exact pinned reliable trajectories.
        let m = measure_channel_overhead(true, 0, PERF_SEED, 1);
        assert_eq!(
            Some(m.digest),
            expected_digest("cascading-churn", true),
            "arming a zero-loss channel drifted the cascading-churn sample \
             paths (digest {:#018x})",
            m.digest
        );
        assert!(m.events > 0);
        assert!(
            m.median_lossy_ratio > 0.0,
            "paired-ratio estimator left unfilled"
        );
    }

    #[test]
    fn large_fleet_configs_share_everything_but_the_topology() {
        let local = large_fleet_config(true);
        let global = large_fleet_global_config(true);
        assert!(local.topology().is_some());
        assert!(global.topology().is_none());
        assert_eq!(local.nodes, global.nodes);
        let (rows, cols) = large_fleet_dims(false);
        assert_eq!(rows * cols, 10_000, "full mode must reach 10^4 nodes");
    }

    #[test]
    fn sweep_grid_has_mixed_rep_counts() {
        let (configs, reps) = sweep_grid(false);
        assert_eq!(configs.len(), 96);
        assert_eq!(configs.len(), reps.len());
        assert!(reps.contains(&1) && reps.contains(&8), "{reps:?}");
        // The fine-grained shape the scheduler exists for: half the
        // points have fewer replications than the comparison's workers.
        let small = reps
            .iter()
            .filter(|&&r| r < SWEEP_GRID_THREADS as u64)
            .count();
        assert!(small * 2 >= reps.len(), "{reps:?}");
    }
}
