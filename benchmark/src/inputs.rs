//! Every workload input, built from the library's public constructors.
//!
//! Nothing here comes from the repository's own perf harness, so a
//! rewrite of that harness cannot move the benchmark.

use churnbal_cluster::{
    ChurnModel, NetworkConfig, NodeConfig, QueueBackend, SimOptions, SystemConfig, Topology,
};
use churnbal_core::{AnyPolicy, PolicySpec};

/// The seed whose results are pinned in `pins.txt`.
pub const DEFAULT_SEED: u64 = 20_060_425;

/// `churn-cascade`: 24 equal nodes whose failure rate grows with every
/// node already down, so each churn transition cancels and redraws up to
/// 23 pending failures.
#[must_use]
pub fn churn_cascade_config() -> SystemConfig {
    SystemConfig::new(
        (0..24)
            .map(|_| NodeConfig::new(1.0, 0.06, 0.5, 40))
            .collect(),
        NetworkConfig::exponential(0.01),
    )
    .with_churn_model(ChurnModel::Cascading { amplification: 3.0 })
}

/// Failure compensation only: Eq. 8 floors every order to zero at 24
/// equal nodes, so the policy hook runs but ships nothing.
pub const CHURN_CASCADE_POLICY: PolicySpec = PolicySpec::UponFailureOnly;

/// `fleet-lbp2` torus shape: 16 × 16 nodes, one rack per row. The
/// larger the torus, the more of the simulator state lies outside a
/// core's private caches, and the more its per-event cost follows other
/// tenants' traffic in the shared cache: on a shared 2-vCPU Xeon host,
/// adjacent runs of equal work spread ±18% at 100 × 100, ±11% at
/// 32 × 32 and ±4% at 16 × 16.
pub const FLEET_DIMS: (usize, usize) = (16, 16);

/// Simulated-time horizon of one `fleet-lbp2` replication.
pub const FLEET_DEADLINE: f64 = 25.0;

/// `fleet-lbp2`: a 256-node torus under rack-correlated shocks.
#[must_use]
pub fn fleet_config() -> SystemConfig {
    let (rows, cols) = FLEET_DIMS;
    let rates = [0.9, 1.0, 1.1, 1.2];
    let nodes = (0..rows * cols)
        .map(|i| NodeConfig::new(rates[i % rates.len()], 0.002, 0.1, 40 + (i as u32 % 3)))
        .collect();
    SystemConfig::new(nodes, NetworkConfig::exponential(0.05))
        .with_churn_model(ChurnModel::RackShocks {
            shock_rate: 2.0,
            group_size: cols as u32,
            hit_probabilities: vec![0.10, 0.40, 0.20, 0.60],
        })
        .with_topology(Topology::torus(rows, cols).expect("torus dims are valid"))
}

/// Neighbour-local LBP-2 (the torus installs the neighbourhoods).
pub const FLEET_POLICY: PolicySpec = PolicySpec::Lbp2 { gain: 1.0 };

/// Calendar queue and the sim-time deadline.
#[must_use]
pub fn fleet_options() -> SimOptions {
    SimOptions {
        deadline: Some(FLEET_DEADLINE),
        backend: QueueBackend::Calendar,
        ..SimOptions::default()
    }
}

/// The campaign-grid spec, with the workload seed filled in.
#[must_use]
pub fn campaign_spec(seed: u64) -> String {
    include_str!("../inputs/campaign-grid.toml").replace("{seed}", &seed.to_string())
}

/// `paper-model`: the Fig. 5 initial workloads.
pub const MODEL_WORKLOADS: [[u32; 2]; 2] = [[50, 0], [25, 50]];

/// The Fig. 5 time grid, 1 s steps, cut at 20 s (Fig. 5 runs to 250 s).
/// `lbp1_cdf` costs time in proportion to the horizon, and (25, 50) to
/// 250 s takes about 16 s on a 2-vCPU Xeon; at 20 s a pipeline pass lasts
/// about a second, so a run holds many. The CDFs are still rising there.
#[must_use]
pub fn model_times() -> Vec<f64> {
    (0..=20).map(f64::from).collect()
}

/// Monte-Carlo replications validating each failure-case CDF.
pub const MODEL_MC_REPS: u64 = 1000;

/// The policy a [`PolicySpec`] builds for `config`.
#[must_use]
pub fn build_policy(spec: &PolicySpec, config: &SystemConfig) -> AnyPolicy {
    spec.build(config)
        .expect("benchmark policies fit their systems")
}
