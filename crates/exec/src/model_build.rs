//! Building functional models for whole clusters from (simulated noisy)
//! measurements — the experimental procedure of paper §3.1.

use fpm_core::error::Result;
use fpm_core::speed::builder::{build_speed_band, BuildOutcome, BuilderConfig};
use fpm_core::speed::PiecewiseLinearSpeed;
use fpm_simnet::fluctuation::{FluctuatingMeasurer, Integration};
use fpm_simnet::machine::MachineSpec;
use fpm_simnet::profile::AppProfile;
use fpm_simnet::speed_model::MachineSpeed;

use crate::pool::WorkerPool;

/// A cluster model built from measurements: one piece-wise linear speed
/// function per machine, plus build diagnostics.
#[derive(Debug, Clone)]
pub struct BuiltCluster {
    /// Machine names.
    pub names: Vec<String>,
    /// The built speed functions (what a real deployment would feed to the
    /// partitioners, instead of the hidden true curves).
    pub models: Vec<PiecewiseLinearSpeed>,
    /// Per-machine build outcomes (measurement counts, costs).
    pub outcomes: Vec<BuildOutcome>,
}

impl BuiltCluster {
    /// Total number of experimental measurements across the cluster.
    pub fn total_measurements(&self) -> usize {
        self.outcomes.iter().map(|o| o.measurements).sum()
    }
}

/// Builds the model of one machine (the §3.1 trisection procedure against
/// a noisy simulated measurer). `machine_index` selects the machine's
/// deterministic RNG stream under `seed`.
fn build_one_model(
    spec: &MachineSpec,
    app: AppProfile,
    integration: Integration,
    seed: u64,
    machine_index: usize,
    cfg: BuilderConfig,
) -> Result<BuildOutcome> {
    let truth = MachineSpeed::for_app(spec, app);
    let (a, b) = truth.model_interval();
    let law = integration.width_law(b);
    let mut measurer =
        FluctuatingMeasurer::new(truth, law, seed.wrapping_add(machine_index as u64 * 7919));
    build_speed_band(&mut measurer, a, b, cfg)
}

/// Builds piece-wise linear speed models for every machine of a testbed by
/// running the §3.1 trisection procedure against noisy simulated
/// measurements.
///
/// Machines are built in parallel on the persistent
/// [`WorkerPool`]; each machine derives its own
/// RNG stream from `seed`, so the result is bit-identical to the
/// sequential build ([`build_cluster_models_seq`]).
///
/// * `integration` — fluctuation level of the machines (paper Fig. 2);
/// * `seed` — RNG seed (each machine derives its own stream).
pub fn build_cluster_models(
    specs: &[MachineSpec],
    app: AppProfile,
    integration: Integration,
    seed: u64,
    cfg: BuilderConfig,
) -> Result<BuiltCluster> {
    let tasks: Vec<Box<dyn FnOnce() -> Result<BuildOutcome> + Send>> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let spec = spec.clone();
            Box::new(move || build_one_model(&spec, app, integration, seed, i, cfg))
                as Box<dyn FnOnce() -> Result<BuildOutcome> + Send>
        })
        .collect();
    let results = WorkerPool::global().run(tasks);
    assemble_cluster(specs, results)
}

/// Sequential reference implementation of [`build_cluster_models`]; kept
/// for benchmarking the pooled build against the seed behaviour.
pub fn build_cluster_models_seq(
    specs: &[MachineSpec],
    app: AppProfile,
    integration: Integration,
    seed: u64,
    cfg: BuilderConfig,
) -> Result<BuiltCluster> {
    let results = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| build_one_model(spec, app, integration, seed, i, cfg))
        .collect();
    assemble_cluster(specs, results)
}

/// Collects per-machine outcomes (in spec order) into a [`BuiltCluster`],
/// propagating the first build error.
fn assemble_cluster(
    specs: &[MachineSpec],
    results: Vec<Result<BuildOutcome>>,
) -> Result<BuiltCluster> {
    let mut names = Vec::with_capacity(specs.len());
    let mut models = Vec::with_capacity(specs.len());
    let mut outcomes = Vec::with_capacity(specs.len());
    for (spec, result) in specs.iter().zip(results) {
        let outcome = result?;
        names.push(spec.name.clone());
        models.push(outcome.midline.clone());
        outcomes.push(outcome);
    }
    Ok(BuiltCluster { names, models, outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm_core::speed::SpeedFunction;
    use fpm_simnet::testbeds;

    /// Accuracy of a built model against the hidden truth: the maximum
    /// relative speed error over a log-spaced probe grid within the modelled
    /// range (excluding the collapsed tail where both speeds are negligible).
    fn model_max_relative_error(
        truth: &MachineSpeed,
        model: &PiecewiseLinearSpeed,
        probes: usize,
    ) -> f64 {
        let (a, b) = truth.model_interval();
        let lo = a.ln();
        let hi = (b * 0.9).ln();
        let mut worst = 0.0f64;
        // 2 % of the in-cache peak.
        let floor = truth.sustained_mflops() * (1.0 + truth.app().cache_boost()) * 0.02;
        for k in 0..probes {
            let t = k as f64 / (probes - 1).max(1) as f64;
            let x = (lo + t * (hi - lo)).exp();
            let s_true = truth.speed(x);
            if s_true < floor {
                continue; // collapsed tail: absolute speeds negligible
            }
            let s_model = model.speed(x);
            worst = worst.max((s_model - s_true).abs() / s_true);
        }
        worst
    }

    #[test]
    fn builds_models_for_whole_table2() {
        let specs = testbeds::table2();
        let built = build_cluster_models(
            &specs,
            AppProfile::MatrixMult,
            Integration::Dedicated,
            42,
            BuilderConfig::default(),
        )
        .unwrap();
        assert_eq!(built.models.len(), 12);
        assert!(built.total_measurements() >= 3 * 12);
        assert!(built.outcomes.iter().map(|o| o.cost_seconds).sum::<f64>() > 0.0);
    }

    #[test]
    fn noise_free_models_are_accurate() {
        let specs = testbeds::table2();
        let built = build_cluster_models(
            &specs,
            AppProfile::LuFactorization,
            Integration::Dedicated,
            1,
            BuilderConfig::default(),
        )
        .unwrap();
        for (spec, model) in specs.iter().zip(&built.models) {
            let truth = MachineSpeed::for_app(spec, AppProfile::LuFactorization);
            let err = model_max_relative_error(&truth, model, 120);
            assert!(err < 0.40, "{}: max relative error {err}", spec.name);
        }
    }

    #[test]
    fn fluctuating_models_still_usable() {
        let specs = testbeds::table2();
        let built = build_cluster_models(
            &specs,
            AppProfile::MatrixMult,
            Integration::Low,
            7,
            BuilderConfig::default(),
        )
        .unwrap();
        // Partition with the built (imperfect) models: must still conserve
        // and balance reasonably.
        use fpm_core::partition::{CombinedPartitioner, Partitioner};
        let n = 3u64 * 10_000 * 10_000;
        let r = CombinedPartitioner::new().partition(n, &built.models).unwrap();
        assert_eq!(r.distribution.total(), n);
    }

    #[test]
    fn pooled_build_matches_sequential_exactly() {
        let specs = testbeds::table2();
        let par = build_cluster_models(
            &specs,
            AppProfile::MatrixMult,
            Integration::Low,
            99,
            BuilderConfig::default(),
        )
        .unwrap();
        let seq = build_cluster_models_seq(
            &specs,
            AppProfile::MatrixMult,
            Integration::Low,
            99,
            BuilderConfig::default(),
        )
        .unwrap();
        assert_eq!(par.names, seq.names);
        assert_eq!(par.models.len(), seq.models.len());
        for (m_par, m_seq) in par.models.iter().zip(&seq.models) {
            assert_eq!(m_par.knots(), m_seq.knots(), "per-machine RNG streams are independent");
        }
        assert_eq!(par.total_measurements(), seq.total_measurements());
    }

    #[test]
    fn high_integration_costs_no_more_measurements_than_budget() {
        let specs = testbeds::table1();
        let cfg = BuilderConfig { max_measurements: 16, ..BuilderConfig::default() };
        let built = build_cluster_models(
            &specs,
            AppProfile::MatrixMultAtlas,
            Integration::High,
            3,
            cfg,
        )
        .unwrap();
        for o in &built.outcomes {
            assert!(o.measurements <= 16);
        }
    }
}
