//! Outside-in probes of single layers: a timing policy adapter for
//! `core`, synthetic `stochastic` and `desim` kernels, and an `exec`
//! replay. All of them call the layers' public functions only.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use churnbal_cluster::exec::{run_grid_policies_streaming_with_report, PointJob};
use churnbal_cluster::{Policy, RunSummary, SystemView, TransferOrder};
use churnbal_desim::{BackendQueue, EventId, QueueBackend};
use churnbal_stochastic::{BatchedRng, StreamFactory};

use crate::report::Metrics;
use crate::stats::{busy_frac, median, ratio, self_time};

/// Hook statistics shared by every [`TimedPolicy`] of one measurement.
/// Relaxed atomics: the counters publish nothing but themselves.
#[derive(Default)]
pub struct HookCounters {
    calls: AtomicU64,
    orders: AtomicU64,
    nanos: AtomicU64,
}

impl HookCounters {
    /// Hook invocations so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Transfer orders the hooks emitted.
    pub fn orders(&self) -> u64 {
        self.orders.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the hooks.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Wraps a policy and times every hook call into it.
pub struct TimedPolicy<'a, P> {
    inner: P,
    counters: &'a HookCounters,
}

impl<'a, P: Policy> TimedPolicy<'a, P> {
    pub fn new(inner: P, counters: &'a HookCounters) -> Self {
        Self { inner, counters }
    }

    fn timed(
        &mut self,
        orders: &mut Vec<TransferOrder>,
        hook: impl FnOnce(&mut P, &mut Vec<TransferOrder>),
    ) {
        let before = orders.len();
        let start = Instant::now();
        hook(&mut self.inner, orders);
        let nanos = start.elapsed().as_nanos() as u64;
        let c = self.counters;
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.orders
            .fetch_add((orders.len() - before) as u64, Ordering::Relaxed);
        c.nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

impl<P: Policy> Policy for TimedPolicy<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.timed(orders, |p, o| p.on_start(view, o));
    }

    fn on_failure(&mut self, node: usize, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.timed(orders, |p, o| p.on_failure(node, view, o));
    }

    fn on_recovery(&mut self, node: usize, view: &SystemView<'_>, orders: &mut Vec<TransferOrder>) {
        self.timed(orders, |p, o| p.on_recovery(node, view, o));
    }

    fn on_transfer_arrival(
        &mut self,
        node: usize,
        tasks: u32,
        view: &SystemView<'_>,
        orders: &mut Vec<TransferOrder>,
    ) {
        self.timed(orders, |p, o| p.on_transfer_arrival(node, tasks, view, o));
    }

    fn on_external_arrival(
        &mut self,
        node: usize,
        tasks: u32,
        view: &SystemView<'_>,
        orders: &mut Vec<TransferOrder>,
    ) {
        self.timed(orders, |p, o| p.on_external_arrival(node, tasks, view, o));
    }
}

/// Engine totals over the replications of a traced run.
#[derive(Default)]
pub struct Tally {
    /// Seconds inside `run_summary`.
    pub run_secs: f64,
    /// Seconds of each `reset`.
    pub resets: Vec<f64>,
    reps: u64,
    events: u64,
    churn: u64,
    shipped: u64,
    clamped: u64,
}

impl Tally {
    /// Counts one replication that spent `run_secs` in `run_summary`.
    pub fn add(&mut self, s: &RunSummary, run_secs: f64) {
        self.run_secs += run_secs;
        self.reps += 1;
        self.events += s.events;
        self.churn += s.failures + s.recoveries;
        self.shipped += s.tasks_shipped;
        self.clamped += s.tasks_clamped;
    }

    /// Engine events counted.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Sets the `core.*` metrics from `hooks` and the `engine.*` metrics
    /// but `engine.sim_new_ms`.
    pub fn set_metrics(&self, m: &mut Metrics, hooks: &HookCounters) {
        let events = self.events as f64;
        let calls = hooks.calls() as f64;
        m.set("core.hook_calls_per_event", ratio(calls, events));
        m.set("core.orders_per_call", ratio(hooks.orders() as f64, calls));
        m.set("core.hook_ns", ratio(hooks.seconds() * 1e9, calls));
        m.set("core.hook_share", ratio(hooks.seconds(), self.run_secs));
        m.set("engine.reset_us", median(&self.resets) * 1e6);
        m.set(
            "engine.self_ns_per_event",
            ratio(self_time(self.run_secs, hooks.seconds()) * 1e9, events),
        );
        m.set("engine.events_per_rep", ratio(events, self.reps as f64));
        m.set("engine.churn_per_event", ratio(self.churn as f64, events));
        m.set(
            "engine.clamped_frac",
            ratio(self.clamped as f64, (self.shipped + self.clamped) as f64),
        );
    }
}

/// Seconds of each of at least `min` calls of `f`, made for about
/// `budget` seconds.
pub fn samples_secs(min: usize, budget: f64, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || (start.elapsed().as_secs_f64() < budget && samples.len() < 1000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    samples
}

/// Median seconds of `f` (see [`samples_secs`]).
pub fn median_secs(min: usize, budget: f64, f: impl FnMut()) -> f64 {
    median(&samples_secs(min, budget, f))
}

/// Median over `batches` of the per-operation nanoseconds of `op`
/// repeated `ops` times.
fn ns_per_op(batches: usize, ops: u32, mut op: impl FnMut(u32)) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for i in 0..ops {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / f64::from(ops)
        })
        .collect();
    median(&samples)
}

/// Pre-drawn unit-mean exponential delays, so the queue kernels time
/// queue operations rather than random draws.
fn delays(seed: u64) -> Vec<f64> {
    let mut rng = BatchedRng::new(StreamFactory::new(seed).stream(1));
    (0..4096).map(|_| rng.exp(1.0)).collect()
}

/// `stochastic.exp_ns`: one `BatchedRng::exp` draw.
pub fn exp_ns(seed: u64) -> f64 {
    let mut rng = BatchedRng::new(StreamFactory::new(seed).stream(0));
    ns_per_op(9, 1 << 20, |_| {
        black_box(rng.exp(black_box(1.5)));
    })
}

/// `stochastic.stream_setup_ns`: one per-replication `subfactory` plus
/// the first stream drawn from it.
pub fn stream_setup_ns(seed: u64) -> f64 {
    let factory = StreamFactory::new(seed);
    ns_per_op(9, 1 << 16, |r| {
        black_box(factory.subfactory(u64::from(r)).stream(0));
    })
}

/// `desim.hold_ns.*`: the hold model — pop the earliest event and
/// schedule a replacement — on a queue holding `pending` events.
pub fn hold_ns(backend: QueueBackend, pending: usize, seed: u64) -> f64 {
    let d = delays(seed);
    let mut q = BackendQueue::for_fleet(backend, pending);
    for i in 0..pending {
        q.schedule_in(d[i % d.len()], i as u32);
    }
    ns_per_op(9, 1 << 18, |i| {
        let ev = q.pop().expect("the hold model keeps the queue full");
        q.schedule_in(d[i as usize % d.len()], ev.payload);
    })
}

/// `desim.cancel_ns.heap`: cancel a pending event and schedule its
/// replacement, on a heap holding `pending` events — the engine's churn
/// redraw pattern.
pub fn cancel_ns_heap(pending: usize, seed: u64) -> f64 {
    let d = delays(seed);
    let mut pick = BatchedRng::new(StreamFactory::new(seed).stream(2));
    let victims: Vec<usize> = (0..4096)
        .map(|_| pick.next_below(pending as u64) as usize)
        .collect();
    let mut q = BackendQueue::for_fleet(QueueBackend::Heap, pending);
    let mut ids: Vec<EventId> = (0..pending)
        .map(|i| q.schedule_in(d[i % d.len()], i as u32))
        .collect();
    ns_per_op(9, 1 << 18, |i| {
        let v = victims[i as usize % victims.len()];
        q.cancel(ids[v]);
        ids[v] = q.schedule_in(d[i as usize % d.len()], v as u32);
    })
}

/// Adds the `stochastic` and `desim` kernel metrics, the queue kernels
/// sized to `pending` events.
pub fn kernel_metrics(m: &mut Metrics, pending: usize, seed: u64) {
    m.set("stochastic.exp_ns", exp_ns(seed));
    m.set("stochastic.stream_setup_ns", stream_setup_ns(seed));
    m.set("desim.cancel_ns.heap", cancel_ns_heap(pending, seed));
    m.set(
        "desim.hold_ns.heap",
        hold_ns(QueueBackend::Heap, pending, seed),
    );
    m.set(
        "desim.hold_ns.calendar",
        hold_ns(QueueBackend::Calendar, pending, seed),
    );
}

/// Replays `jobs` (one policy per job) through the `exec` scheduler at
/// `threads` and adds its `exec.*` metrics.
pub fn exec_replay<P: Policy>(
    m: &mut Metrics,
    jobs: &[PointJob<'_>],
    make_policy: &(dyn Fn(usize, u64) -> P + Sync),
    threads: usize,
) {
    let report = run_grid_policies_streaming_with_report(
        jobs,
        1,
        &|p, _, r| make_policy(p, r),
        threads,
        0,
        |_, _, _| Ok(()),
    )
    .expect("the replay sink never fails");
    let t = report.totals();
    m.set(
        "exec.busy_frac",
        busy_frac(t.busy_seconds, report.wall_seconds, report.workers.len()),
    );
    m.set("exec.task_us", ratio(t.busy_seconds * 1e6, t.tasks as f64));
    m.set("exec.idle_claims", t.idle_claims as f64);
    m.set(
        "exec.rebinds_per_task",
        ratio(t.rebinds as f64, t.tasks as f64),
    );
}
