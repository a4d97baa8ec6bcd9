//! The `paper-model` workload: the Fig. 5 pipeline on the workloads
//! (50, 0) and (25, 50). Set-up builds each system's Eq. 4 lattices
//! (`Lbp1Evaluator`) with and without failures. A pass picks the optimal
//! LBP-1 plan from them (`optimize_transfer` over both senders, which is
//! `optimize_lbp1` without the lattice build), computes each plan's
//! Eq. 5 CDF (`lbp1_cdf`, on the `ctmc` chain) and validates the
//! failure-case CDF by Monte Carlo.

use std::hint::black_box;
use std::time::Instant;

use churnbal_cluster::exec::PointJob;
use churnbal_cluster::{Policy, SimOptions, Simulator, SystemConfig};
use churnbal_core::{model_params, Lbp1};
use churnbal_model::optimize::optimize_transfer;
use churnbal_model::{
    lbp1_cdf, optimize_lbp1, CompletionCdf, Lbp1Evaluator, TwoNodeParams, WorkState,
};
use churnbal_stochastic::{digest_f64s, Ecdf, StreamFactory};

use crate::inputs::{model_times, DEFAULT_SEED, MODEL_MC_REPS, MODEL_WORKLOADS};
use crate::layers::{
    exec_replay, kernel_metrics, median_secs, samples_secs, HookCounters, Tally, TimedPolicy,
};
use crate::report::Outcome;
use crate::stats::{fastest, ks_critical, median, tail};
use crate::Args;

/// Significance of the model-vs-Monte-Carlo KS check: small enough that
/// a correct model fails it about once in a million runs.
const KS_ALPHA: f64 = 1e-6;

/// Validation replications timed together as one `rep_ms_*` sample:
/// single ones last about 8 µs, near the scale of timer noise.
const REP_BATCH: u64 = 10;

/// One workload's inputs and its Eq. 4 lattices.
struct System {
    m0: [u32; 2],
    config: SystemConfig,
    params: TwoNodeParams,
    nofail: TwoNodeParams,
    lattice: Lbp1Evaluator,
    lattice_nofail: Lbp1Evaluator,
}

/// The set-up: model parameters and Eq. 4 lattices of both workloads.
fn systems() -> Vec<System> {
    MODEL_WORKLOADS
        .iter()
        .map(|&m0| {
            let config = SystemConfig::paper(m0);
            let params = model_params(&config);
            let nofail = params.without_failures();
            System {
                m0,
                lattice: Lbp1Evaluator::new(&params, m0),
                lattice_nofail: Lbp1Evaluator::new(&nofail, m0),
                nofail,
                params,
                config,
            }
        })
        .collect()
}

/// An optimal LBP-1 plan: the sender ships `tasks` at `t = 0`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Plan {
    sender: usize,
    tasks: u32,
    mean: f64,
}

/// The optimal plan from a built lattice: the better sender, the first
/// on a tie, as `optimize_lbp1` picks it.
fn optimum(lattice: &Lbp1Evaluator) -> Plan {
    (0..2)
        .map(|sender| {
            let (tasks, mean) = optimize_transfer(lattice, sender, WorkState::BOTH_UP);
            Plan {
                sender,
                tasks,
                mean,
            }
        })
        .min_by(|a, b| a.mean.total_cmp(&b.mean))
        .expect("two senders")
}

/// The plans from the built lattices agree with `optimize_lbp1`, which
/// builds its own.
fn optima_agree(systems: &[System]) -> bool {
    systems.iter().all(|s| {
        [(&s.lattice, &s.params), (&s.lattice_nofail, &s.nofail)]
            .iter()
            .all(|(lattice, params)| {
                let full = optimize_lbp1(params, s.m0, WorkState::BOTH_UP);
                optimum(lattice)
                    == Plan {
                        sender: full.sender,
                        tasks: full.tasks,
                        mean: full.mean,
                    }
            })
    })
}

/// One validation simulator per system, reset for every replication.
fn simulators(systems: &[System]) -> Vec<Simulator<'_>> {
    systems
        .iter()
        .map(|s| Simulator::new(&s.config, &StreamFactory::new(0), SimOptions::default()))
        .collect()
}

/// Stage timings and results of one pipeline pass.
#[derive(Default)]
struct Pass {
    optimize_s: f64,
    cdf_s: f64,
    mc_s: f64,
    /// Seconds of each stage — optimize, the two CDFs, validation — of
    /// each system, in order.
    stages: Vec<f64>,
    /// Mean seconds per replication of each batch of [`REP_BATCH`].
    rep_secs: Vec<f64>,
    tally: Tally,
    /// Model outputs, digested for the pin.
    model_values: Vec<f64>,
    /// Largest KS distance between a validation ECDF and its CDF.
    ks: f64,
    /// Failed checks, by name.
    failures: Vec<String>,
}

/// A CDF is non-decreasing and within [0, 1].
fn valid_cdf(cdf: &CompletionCdf) -> bool {
    cdf.values.iter().all(|v| (0.0..=1.0).contains(v))
        && cdf.values.windows(2).all(|w| w[0] <= w[1])
}

/// Runs `reps` Monte-Carlo replications of the optimal LBP-1 plan and
/// returns their completion times.
fn validate(
    sys: &System,
    sim: &mut Simulator<'_>,
    plan: Plan,
    seed: u64,
    reps: u64,
    hooks: Option<&HookCounters>,
    pass: &mut Pass,
) -> Vec<f64> {
    let streams = |r: u64| StreamFactory::new(seed).subfactory(r);
    let mut times = Vec::with_capacity(reps as usize);
    let mut batch = Instant::now();
    for r in 0..reps {
        let reset = Instant::now();
        sim.reset(&streams(r));
        pass.tally.resets.push(reset.elapsed().as_secs_f64());
        let policy = Lbp1::new(plan.sender, 1 - plan.sender, plan.tasks);
        let run = Instant::now();
        let s = match hooks {
            Some(h) => sim.run_summary(&mut TimedPolicy::new(policy, h)),
            None => sim.run_summary(&mut { policy } as &mut dyn Policy),
        };
        pass.tally.add(&s, run.elapsed().as_secs_f64());
        if (r + 1) % REP_BATCH == 0 {
            pass.rep_secs
                .push(batch.elapsed().as_secs_f64() / REP_BATCH as f64);
            batch = Instant::now();
        }
        let m = sim.metrics();
        if s.aborted
            || !s.completed
            || m.total_processed() + m.tasks_lost != sys.config.total_tasks()
        {
            pass.failures.push(format!(
                "replication {r} of {:?} broke task conservation",
                sys.m0
            ));
        }
        times.push(s.completion_time);
    }
    times
}

/// One pass of the pipeline over both workloads.
fn pass(
    systems: &[System],
    sims: &mut [Simulator<'_>],
    times: &[f64],
    seed: u64,
    hooks: Option<&HookCounters>,
) -> Pass {
    let mut p = Pass::default();
    for (sys, sim) in systems.iter().zip(sims) {
        let start = Instant::now();
        let opt_f = optimum(&sys.lattice);
        let opt_n = optimum(&sys.lattice_nofail);
        let secs = start.elapsed().as_secs_f64();
        p.optimize_s += secs;
        p.stages.push(secs);

        let cdf = |params, opt: Plan| {
            lbp1_cdf(
                params,
                sys.m0,
                opt.sender,
                opt.tasks,
                WorkState::BOTH_UP,
                times,
            )
        };
        let start = Instant::now();
        let cdf_f = cdf(&sys.params, opt_f);
        let mid = Instant::now();
        let cdf_n = cdf(&sys.nofail, opt_n);
        let secs = [mid - start, mid.elapsed()].map(|d| d.as_secs_f64());
        p.cdf_s += secs[0] + secs[1];
        p.stages.extend(secs);

        let start = Instant::now();
        let mc = validate(sys, sim, opt_f, seed, MODEL_MC_REPS, hooks, &mut p);
        let ecdf = Ecdf::new(mc);
        // Kolmogorov-Smirnov distance on the grid, which ends before the
        // CDFs reach 1.
        let ks = times
            .iter()
            .zip(&cdf_f.values)
            .map(|(&t, v)| (ecdf.eval(t) - v).abs())
            .fold(0.0, f64::max);
        let secs = start.elapsed().as_secs_f64();
        p.mc_s += secs;
        p.stages.push(secs);
        p.ks = p.ks.max(ks);

        let label = format!("({}, {})", sys.m0[0], sys.m0[1]);
        if !valid_cdf(&cdf_f) || !valid_cdf(&cdf_n) {
            p.failures
                .push(format!("{label}: a CDF leaves [0, 1] or decreases"));
        }
        if cdf_f
            .values
            .iter()
            .zip(&cdf_n.values)
            .any(|(f, n)| *f > n + 1e-9)
        {
            p.failures
                .push(format!("{label}: failure CDF above the no-failure CDF"));
        }
        let crit = ks_critical(MODEL_MC_REPS as usize, KS_ALPHA);
        if ks.is_nan() || ks >= crit {
            p.failures
                .push(format!("{label}: KS distance {ks:.4} >= {crit:.4}"));
        }
        for opt in [opt_f, opt_n] {
            p.model_values
                .extend([opt.sender as f64, f64::from(opt.tasks), opt.mean]);
        }
        p.model_values.extend(&cdf_f.values);
        p.model_values.extend(&cdf_n.values);
    }
    p
}

/// The pinned digest: the seed-independent model outputs of `p` plus a
/// short Monte-Carlo run at the default seed.
fn pinned_digest(systems: &[System], sims: &mut [Simulator<'_>], p: &Pass) -> u64 {
    let mut values = p.model_values.clone();
    let mut scratch = Pass::default();
    for (sys, sim) in systems.iter().zip(sims) {
        values.extend(validate(
            sys,
            sim,
            optimum(&sys.lattice),
            DEFAULT_SEED,
            32,
            None,
            &mut scratch,
        ));
    }
    digest_f64s(&values)
}

/// One check over every pass: CDF shape and order, KS distance and task
/// conservation, with the first failure as its detail.
fn check_passes<'a>(out: &mut Outcome, passes: impl IntoIterator<Item = &'a Pass>) {
    let mut failures = Vec::new();
    for p in passes {
        out.attempted += 1;
        failures.extend(p.failures.iter().cloned());
    }
    check_failures(out, &failures);
}

/// The check of [`check_passes`] over the failures of passes already
/// counted as attempted.
fn check_failures(out: &mut Outcome, failures: &[String]) {
    out.check(
        "CDFs, KS distance and task conservation hold in every pass",
        failures.is_empty(),
        failures.first().cloned().unwrap_or_default(),
    );
}

/// Lowers each of `best` to the matching sample of `xs`, filling an
/// empty `best` first.
fn keep_fastest(best: &mut Vec<f64>, xs: &[f64]) {
    if best.is_empty() {
        best.resize(xs.len(), f64::INFINITY);
    }
    for (b, x) in best.iter_mut().zip(xs) {
        *b = b.min(*x);
    }
}

/// Set-up samples taken before each pair of passes: seconds to build
/// the systems, their lattices, the validation simulators and the grid.
fn setup_samples(n: usize) -> Vec<f64> {
    samples_secs(n, 0.0, || {
        let systems = black_box(systems());
        black_box((simulators(&systems).len(), model_times()));
    })
}

/// The untraced run: one pass over every system, for the checks and the
/// pin, then pairs of timed passes over (50, 0) — the pass, then its
/// re-run — until `seconds` have passed. A (25, 50) pass lasts about 2 s,
/// too long for a run to hold enough of them. Every timed pass does the
/// same work, so each stage and each validation batch is timed by its
/// fastest run: `wall_s` and `rerun_s` add up the stages' fastest runs
/// over the passes (or the re-runs), and a stall on the host spoils one
/// stage's sample, not a whole pass.
pub fn measure(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = setup_samples(5);
    let systems = systems();
    out.check(
        "optima from the built lattices match optimize_lbp1",
        optima_agree(&systems),
        "",
    );
    let mut sims = simulators(&systems);
    let times = model_times();
    let full = pass(&systems, &mut sims, &times, args.seed, None);
    // The timed passes run on (50, 0), the first system.
    let timed = ..1;
    // Running fastest times, so memory does not grow with the pass
    // count: each stage over the passes (`[0]`) and over the re-runs
    // (`[1]`), each validation batch over both.
    let (mut stages, mut rep_secs) = ([Vec::new(), Vec::new()], Vec::new());
    let (mut pairs, mut events, mut ks) = (0, 0, full.ks);
    let mut failures = full.failures.clone();
    out.attempted += 1;
    let start = Instant::now();
    while pairs < 2 || start.elapsed().as_secs_f64() < args.seconds {
        for slot in &mut stages {
            let p = pass(&systems[timed], &mut sims[timed], &times, args.seed, None);
            keep_fastest(slot, &p.stages);
            keep_fastest(&mut rep_secs, &p.rep_secs);
            events = p.tally.events();
            ks = ks.max(p.ks);
            failures.extend(p.failures);
            out.attempted += 1;
        }
        pairs += 1;
        setups.extend(setup_samples(1));
    }
    check_failures(&mut out, &failures);
    let mc_s = rep_secs.iter().sum::<f64>() * REP_BATCH as f64;
    let m = &mut out.metrics;
    m.set("setup_s", fastest(&setups));
    m.set("events_per_s", events as f64 / mc_s);
    m.set("rep_ms_p50", median(&rep_secs) * 1e3);
    let t = tail(&rep_secs).expect("dozens of validation batches");
    m.set("rep_ms_tail", t.value * 1e3);
    m.set(
        "reps_per_s",
        (rep_secs.len() as u64 * REP_BATCH) as f64 / mc_s,
    );
    m.set("wall_s", stages[0].iter().sum());
    m.set("rerun_s", stages[1].iter().sum());
    out.info.push(format!(
        "{} timed passes and re-runs of (50, 0), each stage and batch timed by its fastest \
         run; optimize {:.4} s, cdf {:.3} s, mc {:.3} s in the first pass over every system, \
         largest KS distance {:.4}; rep_ms_tail is p{:.2} of {} batches of {REP_BATCH} \
         validation replications",
        pairs, full.optimize_s, full.cdf_s, full.mc_s, ks, t.percentile, t.samples
    ));
    out.digest = pinned_digest(&systems, &mut sims, &full);
    out
}

/// The traced run: two plain and two traced passes, stage spans from
/// the first traced one.
pub fn trace(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let lattice_s = median_secs(3, 0.5, || {
        black_box(systems());
    });
    let systems = systems();
    let mut sims = simulators(&systems);
    let times = model_times();
    // Plain, traced, traced, plain: the order cancels a linear drift. The
    // metrics come from the first traced pass and its hook counters.
    let hooks = [HookCounters::default(), HookCounters::default()];
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for with_hooks in [false, true, true, false] {
        let counters = with_hooks.then(|| &hooks[traced.len()]);
        let t = Instant::now();
        let p = pass(&systems, &mut sims, &times, args.seed, counters);
        let secs = t.elapsed().as_secs_f64();
        if with_hooks {
            traced_s += secs;
            traced.push(p);
        } else {
            plain_s += secs;
            plain.push(p);
        }
    }
    check_passes(&mut out, plain.iter().chain(&traced));
    let p = &traced[0];

    // `optimize_lbp1` in full, lattice build included, as a user calls it.
    let optimize_s = median_secs(3, 0.5, || {
        for s in &systems {
            black_box(optimize_lbp1(&s.params, s.m0, WorkState::BOTH_UP));
            black_box(optimize_lbp1(&s.nofail, s.m0, WorkState::BOTH_UP));
        }
    });
    let sim_new_ms = median_secs(5, 0.2, || {
        black_box(Simulator::new(
            &systems[1].config,
            &StreamFactory::new(args.seed),
            SimOptions::default(),
        ));
    }) * 1e3;
    let m = &mut out.metrics;
    m.set("model.cdf_s", p.cdf_s);
    m.set("model.optimize_s", optimize_s);
    m.set("model.mean_lattice_ms", lattice_s * 1e3);
    m.set("model.mc_validate_s", p.mc_s);
    p.tally.set_metrics(m, &hooks[0]);
    m.set("engine.sim_new_ms", sim_new_ms);
    m.set("trace.overhead_frac", (traced_s - plain_s) / plain_s);
    let plans: Vec<Plan> = systems.iter().map(|s| optimum(&s.lattice)).collect();
    let jobs: Vec<PointJob<'_>> = systems
        .iter()
        .map(|s| PointJob {
            config: &s.config,
            reps: MODEL_MC_REPS,
            seed: args.seed,
            rep_base: 0,
            antithetic: false,
            options: SimOptions::default(),
        })
        .collect();
    exec_replay(
        m,
        &jobs,
        &|p, _| Lbp1::new(plans[p].sender, 1 - plans[p].sender, plans[p].tasks),
        1,
    );
    kernel_metrics(m, 4, args.seed);
    out
}
