//! # churnbal
//!
//! A Rust reproduction of **Dhakal, Hayat, Pezoa, Abdallah, Birdwell,
//! Chiasson — "Load Balancing in the Presence of Random Node Failure and
//! Recovery", IPDPS 2006** (DOI 10.1109/IPDPS.2006.1639293): load-balancing
//! policies for distributed systems whose nodes randomly fail and recover,
//! with random, load-dependent transfer delays.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`stochastic`] — reproducible PRNG streams, distributions, statistics;
//! * [`desim`] — the deterministic discrete-event kernel;
//! * [`ctmc`] — the finite CTMC engine (absorption analysis, uniformization);
//! * [`cluster`] — the distributed-system substrate (nodes, churn, network,
//!   Monte-Carlo engine, test-bed stand-in);
//! * [`core`] — the paper's policies: preemptive [`core::Lbp1`], reactive
//!   [`core::Lbp2`], baselines, optimisers;
//! * [`model`] — the regeneration-theory analytics: mean completion time
//!   (Eq. 4), completion-time CDF (Eq. 5), gain optimisation;
//! * [`lab`] — the declarative scenario & sweep subsystem: TOML-subset
//!   experiment specs, a registry of named presets (paper baselines,
//!   correlated failures, bursty/diurnal/flash-crowd arrivals, volunteer
//!   churn, …), the `Experiment` runner behind every run, sweep and
//!   policy comparison, and the `churnbal-lab` CLI.
//!
//! ## Quickstart
//!
//! ```
//! use churnbal::prelude::*;
//!
//! // The paper's two-node system with 100 + 60 tasks.
//! let config = SystemConfig::paper([100, 60]);
//!
//! // Churn-aware preemptive balancing: model picks K*, sender, receiver.
//! let mut policy = Lbp1::optimal(&config);
//! let outcome = simulate(&config, &mut policy, 42, SimOptions::default());
//! assert!(outcome.completed);
//!
//! // The analytical mean for the same plan:
//! let params = model_params(&config);
//! let mean = churnbal::model::mean::lbp1_mean(
//!     &params, [100, 60], policy.sender(), policy.tasks(), WorkState::BOTH_UP);
//! assert!(mean > 0.0);
//! ```
//!
//! See `examples/` for full scenarios and `crates/bench` for the binaries
//! regenerating every table and figure of the paper.

pub use churnbal_cluster as cluster;
pub use churnbal_core as core;
pub use churnbal_ctmc as ctmc;
pub use churnbal_desim as desim;
pub use churnbal_lab as lab;
pub use churnbal_model as model;
pub use churnbal_stochastic as stochastic;

/// The most commonly used items in one import.
pub mod prelude {
    pub use churnbal_cluster::{
        run_replications, simulate, ArrivalKind, ArrivalProcess, ChurnModel, DelayLaw,
        ExternalArrival, NetworkConfig, NoBalancing, NodeConfig, Policy, QueueBackend, SimOptions,
        SystemConfig, Topology, TransferOrder,
    };
    pub use churnbal_core::{
        model_params, AnyPolicy, DynamicLbp1, EpisodicLbp2, InitialBalanceOnly, Lbp1, Lbp1Multi,
        Lbp2, PolicySpec, UponFailureOnly,
    };
    pub use churnbal_lab::{
        Axis, AxisParam, Experiment, ExperimentSpec, PolicyEntry, RowSink, RunOptions, Scenario,
    };
    pub use churnbal_model::{
        lbp1_cdf, lbp1_moments, mean_from_cdf, optimize_lbp1, optimize_lbp1_deadline, DelayModel,
        TwoNodeParams, WorkState,
    };
    pub use churnbal_stochastic::{OnlineStats, StreamFactory, Xoshiro256pp};
}
