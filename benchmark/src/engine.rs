//! The engine workloads, `churn-cascade` and `fleet-lbp2`: replications
//! driven through `Simulator::reset` + `Simulator::run_summary` on one
//! thread.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use churnbal_cluster::exec::PointJob;
use churnbal_cluster::{RunSummary, SimOptions, Simulator, SystemConfig};
use churnbal_core::PolicySpec;
use churnbal_stochastic::{digest_f64s, StreamFactory};

use crate::inputs::{self, build_policy, DEFAULT_SEED};
use crate::layers::{
    exec_replay, kernel_metrics, median_secs, samples_secs, HookCounters, Tally, TimedPolicy,
};
use crate::report::Outcome;
use crate::stats::{fastest, median, tail};
use crate::Args;

/// One engine workload's inputs and run shape.
pub struct EngineWorkload {
    pub config: fn() -> SystemConfig,
    pub policy: PolicySpec,
    pub options: SimOptions,
    /// Replications in the set every round of a run repeats; more than
    /// [`crate::stats::TAIL_BEYOND`], for the tail rule.
    pub set_reps: u64,
    /// Replications of the traced run; fixed, so its counts repeat.
    pub trace_reps: u64,
    /// Replications digested at the default seed, and audited there and
    /// at the run's seed.
    pub digest_reps: u64,
    /// Set-ups timed together as one `setup_s` sample, so fast ones
    /// read well above the timer's resolution.
    pub setup_batch: u32,
    /// Nominal pending-event count for the synthetic queue kernels: one
    /// service and one churn event per node.
    pub pending: usize,
}

/// `churn-cascade`.
pub fn churn_cascade() -> EngineWorkload {
    EngineWorkload {
        config: inputs::churn_cascade_config,
        policy: inputs::CHURN_CASCADE_POLICY,
        options: SimOptions::default(),
        set_reps: 100,
        trace_reps: 1000,
        digest_reps: 16,
        setup_batch: 100,
        pending: 48,
    }
}

/// `fleet-lbp2`.
pub fn fleet_lbp2() -> EngineWorkload {
    let (rows, cols) = inputs::FLEET_DIMS;
    EngineWorkload {
        config: inputs::fleet_config,
        policy: inputs::FLEET_POLICY,
        options: inputs::fleet_options(),
        set_reps: 200,
        trace_reps: 200,
        digest_reps: 4,
        setup_batch: 4,
        pending: 2 * rows * cols,
    }
}

/// Task conservation from `Simulator::metrics()`: a completed run
/// processed or lost every task; a deadline-cut run no more than that.
/// The full invariant, which also counts queued and in-flight tasks, is
/// the engine's own auditor (see [`EngineWorkload::audited`]).
fn conserved(sim: &Simulator<'_>, config: &SystemConfig, s: &RunSummary) -> bool {
    let m = sim.metrics();
    let accounted = m.total_processed() + m.tasks_lost;
    if s.completed {
        accounted == config.total_tasks()
    } else {
        accounted <= config.total_tasks()
    }
}

/// The summary fields a trajectory digest covers.
fn digest_fields(s: &RunSummary) -> [f64; 6] {
    [
        s.completion_time,
        s.failures as f64,
        s.recoveries as f64,
        s.tasks_shipped as f64,
        s.tasks_clamped as f64,
        s.events as f64,
    ]
}

impl EngineWorkload {
    fn streams(seed: u64, rep: u64) -> StreamFactory {
        StreamFactory::new(seed).subfactory(rep)
    }

    /// The digest fields of the first `digest_reps` replications at
    /// `seed`, run under the engine's conservation auditor
    /// (`SimOptions::audit`). It checks `spawned = processed + queued +
    /// in_transit + lost + pending` after every event, deadline-cut runs
    /// included, and panics on a violation; `None` reports one.
    fn audited(&self, config: &SystemConfig, seed: u64) -> Option<Vec<f64>> {
        let options = SimOptions {
            audit: true,
            ..self.options
        };
        catch_unwind(AssertUnwindSafe(|| {
            let mut sim = Simulator::new(config, &Self::streams(seed, 0), options);
            let mut values = Vec::new();
            for r in 0..self.digest_reps {
                sim.reset(&Self::streams(seed, r));
                let mut policy = build_policy(&self.policy, config);
                values.extend(digest_fields(&sim.run_summary(&mut policy)));
            }
            values
        }))
        .ok()
    }

    /// Runs the audited replications at the default seed and at `seed`,
    /// counts them, checks the audit and returns the pinned digest.
    fn audit(&self, config: &SystemConfig, seed: u64, out: &mut Outcome) -> u64 {
        let pinned = self.audited(config, DEFAULT_SEED);
        let own = self.audited(config, seed);
        out.attempted += 2 * self.digest_reps;
        out.check(
            "the engine's conservation audit holds after every event",
            pinned.is_some() && own.is_some(),
            format!(
                "{} replications at each of seeds {DEFAULT_SEED} and {seed}",
                self.digest_reps
            ),
        );
        pinned.map_or(0, |v| digest_f64s(&v))
    }

    /// `setup_batch` set-ups, each a config and its simulator.
    fn set_up(&self, seed: u64) {
        for _ in 0..self.setup_batch {
            let config = (self.config)();
            black_box(Simulator::new(
                &config,
                &Self::streams(seed, 0),
                self.options,
            ));
        }
    }

    /// Runs one replication; checks it and counts it.
    fn rep(
        &self,
        sim: &mut Simulator<'_>,
        config: &SystemConfig,
        seed: u64,
        r: u64,
        out: &mut Outcome,
    ) -> (RunSummary, f64) {
        let start = Instant::now();
        sim.reset(&Self::streams(seed, r));
        let mut policy = build_policy(&self.policy, config);
        let s = sim.run_summary(&mut policy);
        let secs = start.elapsed().as_secs_f64();
        out.attempted += 1;
        if s.aborted || !conserved(sim, config, &s) {
            out.failed += 1;
        }
        (s, secs)
    }

    /// The untraced run: the same `set_reps` replications in rounds,
    /// alternately a pass and a re-run, until `seconds` have passed.
    /// Each replication's time is its fastest run: other tenants of a
    /// shared host only ever add time, and a round's replications are
    /// short enough that each finds a quiet moment over the run.
    pub fn measure(&self, args: &Args) -> Outcome {
        let mut out = Outcome::default();
        // Set-up samples: five now and one after every round, so the
        // fastest comes from the quietest moment of the whole run.
        let mut setups = samples_secs(5, 0.0, || self.set_up(args.seed));
        let config = (self.config)();
        let mut sim = Simulator::new(&config, &Self::streams(args.seed, 0), self.options);
        let n = self.set_reps as usize;
        let mut first = Vec::with_capacity(n);
        let mut events = 0u64;
        // Fastest seconds per replication in pass rounds and in re-runs.
        let mut best = [vec![f64::INFINITY; n], vec![f64::INFINITY; n]];
        let (mut rounds, mut mismatches) = (0usize, 0u64);
        let start = Instant::now();
        while rounds < 2 || start.elapsed().as_secs_f64() < args.seconds {
            for (i, r) in (0..self.set_reps).enumerate() {
                let (s, secs) = self.rep(&mut sim, &config, args.seed, r, &mut out);
                if rounds == 0 {
                    events += s.events;
                    first.push(digest_fields(&s));
                } else {
                    mismatches += u64::from(digest_fields(&s) != first[i]);
                }
                let slot = &mut best[rounds % 2][i];
                *slot = slot.min(secs);
            }
            rounds += 1;
            setups.extend(samples_secs(1, 0.0, || self.set_up(args.seed)));
        }
        let rep_secs: Vec<f64> = best[0]
            .iter()
            .zip(&best[1])
            .map(|(a, b)| a.min(*b))
            .collect();
        let busy: f64 = rep_secs.iter().sum();
        let m = &mut out.metrics;
        m.set("setup_s", fastest(&setups) / f64::from(self.setup_batch));
        m.set("events_per_s", events as f64 / busy);
        m.set("rep_ms_p50", median(&rep_secs) * 1e3);
        let t = tail(&rep_secs).expect("the replication set holds more than 10");
        m.set("rep_ms_tail", t.value * 1e3);
        m.set("reps_per_s", n as f64 / busy);
        m.set("wall_s", best[0].iter().sum());
        m.set("rerun_s", best[1].iter().sum());
        out.info.push(format!(
            "{rounds} rounds over {n} replications, each timed by its fastest run; rep_ms_tail \
             is p{:.2} of {} replications",
            t.percentile, t.samples
        ));
        out.check(
            "rerun reproduces",
            mismatches == 0,
            format!("{mismatches} re-run replications differ from their first run"),
        );
        out.digest = self.audit(&config, args.seed, &mut out);
        out
    }

    /// The traced run: `trace_reps` replications, each run once plain
    /// and once with the policy hooks and the reset timed, in alternating
    /// order.
    pub fn trace(&self, args: &Args) -> Outcome {
        let mut out = Outcome::default();
        let config = (self.config)();
        let sim_new = median_secs(5, 0.5, || {
            black_box(Simulator::new(
                &config,
                &Self::streams(args.seed, 0),
                self.options,
            ));
        });
        let mut sim = Simulator::new(&config, &Self::streams(args.seed, 0), self.options);
        let hooks = HookCounters::default();
        let mut tally = Tally::default();
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        for r in 0..self.trace_reps {
            for traced in [r % 2 == 1, r % 2 == 0] {
                if !traced {
                    let (_, secs) = self.rep(&mut sim, &config, args.seed, r, &mut out);
                    plain_s += secs;
                    continue;
                }
                let start = Instant::now();
                sim.reset(&Self::streams(args.seed, r));
                tally.resets.push(start.elapsed().as_secs_f64());
                let mut policy = TimedPolicy::new(build_policy(&self.policy, &config), &hooks);
                let run = Instant::now();
                let s = sim.run_summary(&mut policy);
                tally.add(&s, run.elapsed().as_secs_f64());
                traced_s += start.elapsed().as_secs_f64();
            }
        }
        let m = &mut out.metrics;
        tally.set_metrics(m, &hooks);
        m.set("engine.sim_new_ms", sim_new * 1e3);
        m.set("trace.overhead_frac", (traced_s - plain_s) / plain_s);
        let job = PointJob {
            config: &config,
            reps: self.set_reps,
            seed: args.seed,
            rep_base: 0,
            antithetic: false,
            options: self.options,
        };
        exec_replay(
            m,
            std::slice::from_ref(&job),
            &|_, _| build_policy(&self.policy, &config),
            1,
        );
        kernel_metrics(m, self.pending, args.seed);
        out
    }
}
