//! Seeded, reproducible generators for admissible heterogeneous clusters.
//!
//! Every generated case is a pure function of one `u64` seed plus a
//! [`GenConfig`], so a failing case reported by the conformance engine can
//! be replayed exactly from the seed embedded in its failure message.
//!
//! Generated clusters only contain *admissible* speed models — shapes
//! satisfying the paper's single-intersection requirement (`s(x)/x`
//! strictly decreasing) — drawn from the same families the production code
//! supports: the closed-form [`AnalyticSpeed`] shapes of paper Fig. 5, the
//! piece-wise linear representation the paper recommends building from
//! experiments, and full memory-hierarchy [`fpm_simnet`] machine models.
//! The deliberately adversarial `exp_tail` shape (the basic algorithm's
//! documented `O(n)` worst case) is *not* in the default mix; opt in via
//! [`GenConfig::kinds`].

use fpm_core::speed::{AnalyticSpeed, PiecewiseLinearSpeed, SpeedFunction, WidthLaw};
use fpm_simnet::{random_cluster, AppProfile, FluctuatingMeasurer, ScenarioConfig};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Families of speed models the generator can draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Single-number constant speed (closed-form intersections).
    Constant,
    /// Strictly decreasing shape (`s1` of paper Fig. 5).
    Decreasing,
    /// Increasing saturating shape (`s3` of paper Fig. 5).
    Saturating,
    /// Increasing-then-paging shape (`s2` of paper Fig. 5).
    Unimodal,
    /// Flat-then-paging shape (Fig. 1a/1b applications).
    Paging,
    /// Piece-wise constant Drozdowski–Wolniewicz levels.
    StepLevels,
    /// Piece-wise linear model sampled from an admissible analytic truth.
    Piecewise,
    /// The basic algorithm's exponential-tail worst case. **Not** in the
    /// default mix: it is admissible but makes the basic bisection `O(n)`.
    ExpTail,
}

impl ModelKind {
    /// Short tag used in case descriptors.
    fn tag(self) -> &'static str {
        match self {
            ModelKind::Constant => "const",
            ModelKind::Decreasing => "dec",
            ModelKind::Saturating => "sat",
            ModelKind::Unimodal => "uni",
            ModelKind::Paging => "page",
            ModelKind::StepLevels => "step",
            ModelKind::Piecewise => "pwl",
            ModelKind::ExpTail => "exp",
        }
    }
}

/// Knobs controlling cluster generation.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Inclusive range of cluster sizes `p`.
    pub machines: (usize, usize),
    /// `log10` range of the problem size `n` (sampled log-uniformly).
    pub n_log10: (f64, f64),
    /// Peak-speed spread: peaks are drawn from `[base, base·heterogeneity]`.
    /// `1.0` produces homogeneous peaks.
    pub heterogeneity: f64,
    /// Probability that a synthetic machine's shape includes paging
    /// degradation (applies to the `Unimodal`/`Paging` kinds weighting).
    pub paging_fraction: f64,
    /// Probability that a case uses a full simnet-derived cluster
    /// ([`fpm_simnet::MachineSpeed`] memory-hierarchy models) instead of a
    /// synthetic per-machine mix.
    pub simnet_fraction: f64,
    /// The model families to mix for synthetic clusters.
    pub kinds: Vec<ModelKind>,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            machines: (2, 12),
            n_log10: (3.0, 8.5),
            heterogeneity: 25.0,
            paging_fraction: 0.4,
            simnet_fraction: 0.25,
            kinds: vec![
                ModelKind::Constant,
                ModelKind::Decreasing,
                ModelKind::Saturating,
                ModelKind::Unimodal,
                ModelKind::Paging,
                ModelKind::StepLevels,
                ModelKind::Piecewise,
            ],
        }
    }
}

/// One generated conformance case: a problem size and an admissible
/// cluster, fully determined by `seed`.
pub struct CaseSpec {
    /// The seed this case was generated from (embed in failure messages).
    pub seed: u64,
    /// Problem size.
    pub n: u64,
    /// The cluster's speed models.
    pub funcs: Vec<Box<dyn SpeedFunction>>,
    /// Human-readable summary (`p`, `n`, model tags) for diagnostics.
    pub descriptor: String,
}

impl CaseSpec {
    /// Generates the case determined by `seed` under `config`.
    pub fn from_seed(seed: u64, config: &GenConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ SALT);
        let p = rng.gen_range(config.machines.0..=config.machines.1.max(config.machines.0));
        let raw_n = 10f64.powf(rng.gen_range(config.n_log10.0..=config.n_log10.1));

        let (funcs, tags) = if rng.gen_bool(config.simnet_fraction.clamp(0.0, 1.0)) {
            simnet_cluster(&mut rng, p)
        } else {
            synthetic_cluster(&mut rng, p, raw_n, config)
        };

        // Clamp n into the cluster's modelled capacity so bounded models
        // (piece-wise linear, simnet machine intervals) stay feasible.
        let capacity: f64 = funcs.iter().map(|f| f.max_size().min(1e15)).sum();
        let n = (raw_n.min(0.8 * capacity).max(1.0)) as u64;

        let descriptor = format!("p={p} n={n} models=[{}]", tags.join(","));
        Self { seed, n, funcs, descriptor }
    }
}

/// Decorrelates case seeds from the other ChaCha8 streams in the workspace.
const SALT: u64 = 0x7E57_4B17_5EED_0001;

fn simnet_cluster(rng: &mut ChaCha8Rng, p: usize) -> (Vec<Box<dyn SpeedFunction>>, Vec<String>) {
    let apps = AppProfile::all();
    let app = apps[rng.gen_range(0usize..apps.len())];
    let cluster_seed = rng.next_u64();
    let cluster = random_cluster(
        ScenarioConfig { machines: p, seed: cluster_seed, ..ScenarioConfig::default() },
        app,
    );
    let tags = vec![format!("simnet:{app:?}x{p}")];
    (cluster.into_iter().map(|m| Box::new(m) as Box<dyn SpeedFunction>).collect(), tags)
}

fn synthetic_cluster(
    rng: &mut ChaCha8Rng,
    p: usize,
    raw_n: f64,
    config: &GenConfig,
) -> (Vec<Box<dyn SpeedFunction>>, Vec<String>) {
    let mut funcs: Vec<Box<dyn SpeedFunction>> = Vec::with_capacity(p);
    let mut tags = Vec::with_capacity(p);
    let het = config.heterogeneity.max(1.0);
    for _ in 0..p {
        let kind = config.kinds[rng.gen_range(0usize..config.kinds.len().max(1))];
        // Shapes that page are kept or resampled according to the paging
        // knob, so the knob biases the mix without removing any kind.
        let kind = match kind {
            ModelKind::Unimodal | ModelKind::Paging
                if !rng.gen_bool(config.paging_fraction.clamp(0.0, 1.0)) =>
            {
                ModelKind::Saturating
            }
            k => k,
        };
        let peak = 50.0 * rng.gen_range(1.0..=het);
        funcs.push(make_model(rng, kind, peak, raw_n));
        tags.push(kind.tag().to_string());
    }
    (funcs, tags)
}

/// Builds one admissible model of the requested kind, scaled so its
/// characteristic features (ramp, paging point, knot span) are active near
/// the per-case problem sizes.
fn make_model(
    rng: &mut ChaCha8Rng,
    kind: ModelKind,
    peak: f64,
    raw_n: f64,
) -> Box<dyn SpeedFunction> {
    match kind {
        ModelKind::Constant => Box::new(AnalyticSpeed::constant(peak)),
        ModelKind::Decreasing => {
            let scale = raw_n * rng.gen_range(0.01..=1.0);
            let alpha = rng.gen_range(1.0..=3.0);
            Box::new(AnalyticSpeed::decreasing(peak, scale, alpha))
        }
        ModelKind::Saturating => {
            let ramp = raw_n * rng.gen_range(1e-4..=0.05);
            Box::new(AnalyticSpeed::saturating(peak, ramp))
        }
        ModelKind::Unimodal => {
            let ramp = raw_n * rng.gen_range(1e-4..=0.02);
            let page_at = raw_n * rng.gen_range(0.05..=1.5);
            let alpha = rng.gen_range(1.0..=4.0);
            Box::new(AnalyticSpeed::unimodal(peak, ramp, page_at, alpha))
        }
        ModelKind::Paging => {
            let page_at = raw_n * rng.gen_range(0.05..=1.0);
            let alpha = rng.gen_range(1.0..=4.0);
            Box::new(AnalyticSpeed::paging(peak, page_at, alpha))
        }
        ModelKind::StepLevels => {
            let levels = rng.gen_range(2usize..=4);
            let mut threshold = raw_n * rng.gen_range(0.01..=0.1);
            let mut speed = peak;
            let mut steps = Vec::with_capacity(levels);
            for _ in 0..levels {
                steps.push((threshold, speed));
                threshold *= rng.gen_range(3.0..=10.0);
                speed *= rng.gen_range(0.3..=0.9);
            }
            Box::new(AnalyticSpeed::step_levels(steps))
        }
        ModelKind::Piecewise => piecewise_model(rng, peak, raw_n),
        ModelKind::ExpTail => {
            let scale = raw_n * rng.gen_range(0.05..=0.5);
            Box::new(AnalyticSpeed::exp_tail(peak, scale))
        }
    }
}

/// A generated cluster in *wire form*: named piece-wise linear models as
/// raw `(size, speed)` knot lists, plus a feasible problem size.
///
/// Unlike [`CaseSpec`] (whose trait objects cannot leave the process),
/// everything here is plain data, so the same cluster can be registered
/// with a partition server over JSON *and* rebuilt locally via
/// [`fpm_core::speed::PiecewiseLinearSpeed::new`] — and because Rust
/// renders `f64` as shortest-round-trip decimal, both sides see
/// bit-identical knots and therefore produce bit-identical plans.
pub struct WireCluster {
    /// The seed this cluster was generated from.
    pub seed: u64,
    /// A feasible problem size for this cluster.
    pub n: u64,
    /// `(machine name, knots)` per machine; every knot list is admissible.
    pub models: Vec<(String, Vec<(f64, f64)>)>,
}

impl WireCluster {
    /// Generates the wire cluster determined by `seed` under `config`.
    /// Only the machine-count and size knobs of `config` apply (all models
    /// are piece-wise linear by construction).
    pub fn from_seed(seed: u64, config: &GenConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ WIRE_SALT);
        let p = rng.gen_range(config.machines.0..=config.machines.1.max(config.machines.0));
        let raw_n = 10f64.powf(rng.gen_range(config.n_log10.0..=config.n_log10.1));
        let het = config.heterogeneity.max(1.0);
        let mut models = Vec::with_capacity(p);
        for i in 0..p {
            let peak = 50.0 * rng.gen_range(1.0..=het);
            let knots = piecewise_knots(&mut rng, peak, raw_n);
            models.push((format!("m{i}"), knots));
        }
        // Clamp n into the cluster's modelled capacity (the last knot of
        // each model bounds the load it can absorb).
        let capacity: f64 = models
            .iter()
            .map(|(_, knots)| knots.last().map_or(0.0, |k| k.0).min(1e15))
            .sum();
        let n = (raw_n.min(0.8 * capacity).max(1.0)) as u64;
        Self { seed, n, models }
    }

    /// Rebuilds the concrete speed models (the local-oracle side).
    pub fn build(&self) -> Vec<PiecewiseLinearSpeed> {
        self.models
            .iter()
            .map(|(name, knots)| {
                PiecewiseLinearSpeed::new(knots.clone())
                    .unwrap_or_else(|e| panic!("wire model {name} inadmissible: {e:?}"))
            })
            .collect()
    }
}

/// Decorrelates wire-cluster streams from [`CaseSpec`] streams.
const WIRE_SALT: u64 = 0x7E57_4B17_5EED_0002;

/// Decorrelates drift-scenario streams from the other generator streams.
const DRIFT_SALT: u64 = 0x7E57_4B17_5EED_0003;

/// A generated *drift scenario* for the online-refinement harness: a
/// cluster whose registered models have gone stale. The true speed each
/// machine actually sustains is its initial model scaled down by a
/// per-machine factor in `[0.55, 0.85]` (machine 0 always drifts; the rest
/// drift with probability ½). Multiplicative drift preserves the `s(x)/x`
/// single-intersection invariant exactly, so initial and drifted models
/// are both admissible by construction — and the drift (≥ 15%) always
/// exceeds the refiner's default ±5% fluctuation band, so observations on
/// drifted machines are never silently absorbed as noise.
///
/// Initial knots are sampled from three source families — analytic shapes
/// (`ana`), plain piece-wise ramps (`pwl`), and full simnet
/// memory-hierarchy machines (`sim`) — and always end with a zero-speed
/// knot, so a local refit can never shrink the cluster's modelled
/// capacity (the zero-speed anchor survives every band repair).
pub struct DriftScenario {
    /// The seed this scenario was generated from.
    pub seed: u64,
    /// A feasible problem size (clamped to the *positive-speed* capacity).
    pub n: u64,
    /// `(machine name, knots)` — the models as initially registered.
    pub initial: Vec<(String, Vec<(f64, f64)>)>,
    /// Per-machine drift factor in `(0, 1]`; truth speed = initial·factor.
    pub factors: Vec<f64>,
    /// Relative observation-noise half-width for [`Self::measurers`]
    /// (0 ⇒ deterministic observations; the tier-1 sweep uses 0).
    pub noise: f64,
    /// Human-readable summary (`p`, `n`, drift factors, model sources).
    pub descriptor: String,
}

impl DriftScenario {
    /// Generates the drift scenario determined by `seed` under `config`.
    /// Only the machine-count, size and heterogeneity knobs apply.
    pub fn from_seed(seed: u64, config: &GenConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ DRIFT_SALT);
        let p = rng.gen_range(config.machines.0..=config.machines.1.max(config.machines.0));
        let raw_n = 10f64.powf(rng.gen_range(config.n_log10.0..=config.n_log10.1));
        let het = config.heterogeneity.max(1.0);
        let mut initial = Vec::with_capacity(p);
        let mut factors = Vec::with_capacity(p);
        let mut tags = Vec::with_capacity(p);
        // Positive-speed capacity: the zero-speed tail appended below is a
        // repair anchor, not usable throughput, so n is clamped against the
        // last knot that still has positive speed.
        let mut capacity = 0.0f64;
        for i in 0..p {
            let peak = 50.0 * rng.gen_range(1.0..=het);
            let (mut knots, tag) = match rng.gen_range(0u8..3) {
                0 => (piecewise_knots(&mut rng, peak, raw_n), "ana"),
                1 => (ramp_knots(&mut rng, peak, raw_n), "pwl"),
                _ => (simnet_knots(&mut rng, peak, raw_n), "sim"),
            };
            capacity += knots
                .iter()
                .rev()
                .find(|k| k.1 > 0.0)
                .map_or(0.0, |k| k.0)
                .min(1e15);
            if knots.last().is_some_and(|k| k.1 > 0.0) {
                let tail = knots.last().unwrap().0 * 2.0;
                knots.push((tail, 0.0));
            }
            let factor = if i == 0 || rng.gen_bool(0.5) {
                rng.gen_range(0.55..=0.85)
            } else {
                1.0
            };
            initial.push((format!("m{i}"), knots));
            factors.push(factor);
            tags.push(tag);
        }
        let n = (raw_n.min(0.8 * capacity).max(1.0)) as u64;
        let drift: Vec<String> = factors.iter().map(|f| format!("{f:.2}")).collect();
        let descriptor =
            format!("p={p} n={n} drift=[{}] models=[{}]", drift.join(","), tags.join(","));
        Self { seed, n, initial, factors, noise: 0.0, descriptor }
    }

    /// Rebuilds the initially registered (stale) models.
    pub fn initial_models(&self) -> Vec<PiecewiseLinearSpeed> {
        self.initial
            .iter()
            .map(|(name, knots)| {
                PiecewiseLinearSpeed::new(knots.clone())
                    .unwrap_or_else(|e| panic!("drift model {name} inadmissible: {e:?}"))
            })
            .collect()
    }

    /// The drifted truth: every knot speed scaled by the machine's factor.
    pub fn truth_models(&self) -> Vec<PiecewiseLinearSpeed> {
        self.initial
            .iter()
            .zip(&self.factors)
            .map(|((name, knots), &f)| {
                let scaled: Vec<(f64, f64)> = knots.iter().map(|&(x, s)| (x, s * f)).collect();
                PiecewiseLinearSpeed::new(scaled)
                    .unwrap_or_else(|e| panic!("drifted truth {name} inadmissible: {e:?}"))
            })
            .collect()
    }

    /// Seeded noisy oracles over the drifted truth, one per machine
    /// (relative half-width [`Self::noise`]; 0 = deterministic).
    pub fn measurers(&self) -> Vec<FluctuatingMeasurer<PiecewiseLinearSpeed>> {
        self.truth_models()
            .into_iter()
            .enumerate()
            .map(|(i, truth)| {
                FluctuatingMeasurer::new(
                    truth,
                    WidthLaw::Constant(self.noise),
                    self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            })
            .collect()
    }
}

/// A plain admissible ramp: log-spaced sizes with geometrically decaying
/// speeds (decreasing `s` over increasing `x` keeps `s/x` strictly
/// decreasing unconditionally).
fn ramp_knots(rng: &mut ChaCha8Rng, peak: f64, raw_n: f64) -> Vec<(f64, f64)> {
    let knots = rng.gen_range(3usize..=8);
    let lo = (raw_n * 1e-4).max(1.0);
    let hi = raw_n * 2.0;
    let mut s = peak;
    let mut points = Vec::with_capacity(knots);
    for k in 0..knots {
        let t = k as f64 / (knots - 1) as f64;
        points.push((lo * (hi / lo).powf(t), s));
        s *= rng.gen_range(0.5..=0.95);
    }
    points
}

/// Samples one simnet memory-hierarchy machine at log-spaced sizes,
/// keeping `s/x` strictly decreasing at the knots (same filter as
/// [`piecewise_knots`]); falls back to a ramp when sampling degenerates.
fn simnet_knots(rng: &mut ChaCha8Rng, peak: f64, raw_n: f64) -> Vec<(f64, f64)> {
    let apps = AppProfile::all();
    let app = apps[rng.gen_range(0usize..apps.len())];
    let cluster_seed = rng.next_u64();
    let machine = random_cluster(
        ScenarioConfig { machines: 1, seed: cluster_seed, ..ScenarioConfig::default() },
        app,
    )
    .remove(0);
    let hi = machine.max_size().min(raw_n * 2.0).max(4.0);
    let lo = (hi * 1e-4).max(1.0);
    let knots = rng.gen_range(4usize..=12);
    let mut points: Vec<(f64, f64)> = Vec::with_capacity(knots);
    for k in 0..knots {
        let t = k as f64 / (knots - 1) as f64;
        let x = lo * (hi / lo).powf(t);
        let s = machine.speed(x);
        if !s.is_finite() || s < 0.0 {
            continue;
        }
        if let Some(&(px, ps)) = points.last() {
            if s / x >= ps / px {
                continue;
            }
        }
        points.push((x, s));
    }
    if points.len() < 2 || points[0].1 <= 0.0 {
        return ramp_knots(rng, peak, raw_n);
    }
    points
}

/// Raw admissible knots: an analytic truth sampled at log-spaced points,
/// keeping `s/x` strictly decreasing (see [`piecewise_model`]); falls back
/// to a guaranteed-admissible two-knot ramp when sampling degenerates.
fn piecewise_knots(rng: &mut ChaCha8Rng, peak: f64, raw_n: f64) -> Vec<(f64, f64)> {
    let truth: Box<dyn SpeedFunction> = if rng.gen_bool(0.5) {
        Box::new(AnalyticSpeed::decreasing(peak, raw_n * rng.gen_range(0.05..=0.5), 2.0))
    } else {
        Box::new(AnalyticSpeed::unimodal(
            peak,
            raw_n * rng.gen_range(1e-3..=0.01),
            raw_n * rng.gen_range(0.1..=0.8),
            2.0,
        ))
    };
    let knots = rng.gen_range(4usize..=12);
    let lo = (raw_n * 1e-4).max(1.0);
    let hi = raw_n * 2.0;
    let mut points: Vec<(f64, f64)> = Vec::with_capacity(knots);
    for k in 0..knots {
        let t = k as f64 / (knots - 1) as f64;
        let x = lo * (hi / lo).powf(t);
        let s = truth.speed(x);
        if let Some(&(px, ps)) = points.last() {
            if s / x >= ps / px {
                continue;
            }
        }
        points.push((x, s));
    }
    if points.len() < 2 {
        // Two knots with decreasing speed over increasing size always keep
        // s/x strictly decreasing.
        points = vec![(lo, peak), (hi, peak * 0.25)];
    }
    points
}

/// Samples an admissible analytic truth at log-spaced knots and builds the
/// piece-wise linear model the paper recommends (Fig. 14). Chords between
/// knots with strictly decreasing `s/x` preserve the single-intersection
/// property, so the sampled model is admissible by construction; knots
/// breaking strictness to rounding are dropped.
fn piecewise_model(rng: &mut ChaCha8Rng, peak: f64, raw_n: f64) -> Box<dyn SpeedFunction> {
    let truth: Box<dyn SpeedFunction> = if rng.gen_bool(0.5) {
        Box::new(AnalyticSpeed::decreasing(peak, raw_n * rng.gen_range(0.05..=0.5), 2.0))
    } else {
        Box::new(AnalyticSpeed::unimodal(
            peak,
            raw_n * rng.gen_range(1e-3..=0.01),
            raw_n * rng.gen_range(0.1..=0.8),
            2.0,
        ))
    };
    let knots = rng.gen_range(4usize..=12);
    let lo = (raw_n * 1e-4).max(1.0);
    let hi = raw_n * 2.0;
    let mut points: Vec<(f64, f64)> = Vec::with_capacity(knots);
    for k in 0..knots {
        let t = k as f64 / (knots - 1) as f64;
        let x = lo * (hi / lo).powf(t);
        let s = truth.speed(x);
        if let Some(&(px, ps)) = points.last() {
            // Keep s/x strictly decreasing at the knots.
            if s / x >= ps / px {
                continue;
            }
        }
        points.push((x, s));
    }
    match PiecewiseLinearSpeed::new(points) {
        Ok(pwl) => Box::new(pwl),
        // Degenerate sampling (all knots collapsed) falls back to the truth
        // itself; still admissible, still deterministic.
        Err(_) => truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm_core::speed::check_single_intersection;

    #[test]
    fn same_seed_same_case() {
        let cfg = GenConfig::default();
        let a = CaseSpec::from_seed(42, &cfg);
        let b = CaseSpec::from_seed(42, &cfg);
        assert_eq!(a.n, b.n);
        assert_eq!(a.descriptor, b.descriptor);
        assert_eq!(a.funcs.len(), b.funcs.len());
        for (fa, fb) in a.funcs.iter().zip(&b.funcs) {
            for &x in &[1.0, 100.0, 1e5, 1e8] {
                assert_eq!(fa.speed(x).to_bits(), fb.speed(x).to_bits());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig::default();
        let a = CaseSpec::from_seed(1, &cfg);
        let b = CaseSpec::from_seed(2, &cfg);
        // Extremely unlikely to collide on both n and descriptor.
        assert!(a.n != b.n || a.descriptor != b.descriptor);
    }

    #[test]
    fn generated_models_are_admissible() {
        let cfg = GenConfig::default();
        for seed in 0..40u64 {
            let case = CaseSpec::from_seed(seed, &cfg);
            assert!(case.n >= 1);
            assert!(case.funcs.len() >= cfg.machines.0);
            for (i, f) in case.funcs.iter().enumerate() {
                let hi = f.max_size().min(case.n as f64 * 2.0).max(2.0);
                check_single_intersection(f.as_ref(), 1.0, hi, 200).unwrap_or_else(|(a, b)| {
                    panic!(
                        "seed {seed} ({}) machine {i}: s/x not decreasing between {a} and {b}",
                        case.descriptor
                    )
                });
            }
        }
    }

    #[test]
    fn machine_count_respects_config() {
        let cfg = GenConfig { machines: (3, 5), ..GenConfig::default() };
        for seed in 0..20u64 {
            let p = CaseSpec::from_seed(seed, &cfg).funcs.len();
            assert!((3..=5).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn wire_clusters_are_deterministic_and_admissible() {
        let cfg = GenConfig::default();
        for seed in 0..40u64 {
            let a = WireCluster::from_seed(seed, &cfg);
            let b = WireCluster::from_seed(seed, &cfg);
            assert_eq!(a.n, b.n);
            assert_eq!(a.models.len(), b.models.len());
            for ((na, ka), (nb, kb)) in a.models.iter().zip(&b.models) {
                assert_eq!(na, nb);
                assert_eq!(ka.len(), kb.len());
                for (pa, pb) in ka.iter().zip(kb) {
                    assert_eq!(pa.0.to_bits(), pb.0.to_bits());
                    assert_eq!(pa.1.to_bits(), pb.1.to_bits());
                }
            }
            // Every wire model must rebuild into an admissible function.
            let built = a.build();
            assert_eq!(built.len(), a.models.len());
            for (i, f) in built.iter().enumerate() {
                let hi = f.max_size().max(2.0);
                check_single_intersection(f, 1.0, hi, 200).unwrap_or_else(|(x, y)| {
                    panic!("wire seed {seed} machine {i}: s/x not decreasing in [{x}, {y}]")
                });
            }
            assert!(a.n >= 1);
        }
    }

    #[test]
    fn wire_cluster_stream_differs_from_case_stream() {
        // Same seed, different salts: the wire generator must not mirror
        // the trait-object generator (they feed different test layers).
        let cfg = GenConfig::default();
        let case = CaseSpec::from_seed(5, &cfg);
        let wire = WireCluster::from_seed(5, &cfg);
        assert!(case.n != wire.n || case.funcs.len() != wire.models.len());
    }

    #[test]
    fn drift_scenarios_are_deterministic_and_admissible() {
        let cfg = GenConfig::default();
        for seed in 0..40u64 {
            let a = DriftScenario::from_seed(seed, &cfg);
            let b = DriftScenario::from_seed(seed, &cfg);
            assert_eq!(a.n, b.n);
            assert_eq!(a.descriptor, b.descriptor);
            assert_eq!(a.factors, b.factors);
            // Machine 0 always drifts, and every drift clears the default
            // ±5% fluctuation band by a wide margin.
            assert!(a.factors[0] <= 0.85, "{}", a.descriptor);
            for &f in &a.factors {
                assert!(f == 1.0 || (0.55..=0.85).contains(&f), "factor {f}");
            }
            let initial = a.initial_models();
            let truth = a.truth_models();
            assert_eq!(initial.len(), truth.len());
            for (i, (init, tru)) in initial.iter().zip(&truth).enumerate() {
                let hi = init.max_size().max(2.0);
                check_single_intersection(init, 1.0, hi, 200).unwrap_or_else(|(x, y)| {
                    panic!("seed {seed} machine {i} initial: s/x not decreasing in [{x}, {y}]")
                });
                check_single_intersection(tru, 1.0, hi, 200).unwrap_or_else(|(x, y)| {
                    panic!("seed {seed} machine {i} truth: s/x not decreasing in [{x}, {y}]")
                });
                // Truth is the initial model scaled — same modelled range.
                assert_eq!(init.max_size().to_bits(), tru.max_size().to_bits());
            }
            assert!(a.n >= 1);
        }
    }

    #[test]
    fn drift_measurers_observe_the_truth() {
        let cfg = GenConfig::default();
        let sc = DriftScenario::from_seed(7, &cfg);
        let truth = sc.truth_models();
        let mut measurers = sc.measurers();
        // Default noise is zero: observations equal the drifted truth.
        for (m, t) in measurers.iter_mut().zip(&truth) {
            let x = (t.max_size() * 0.3).max(1.0);
            assert_eq!(m.observe(x).to_bits(), t.speed(x).to_bits());
        }
    }

    #[test]
    fn n_stays_in_configured_decade_range() {
        let cfg = GenConfig {
            n_log10: (3.0, 4.0),
            simnet_fraction: 0.0,
            kinds: vec![ModelKind::Constant],
            ..GenConfig::default()
        };
        for seed in 0..20u64 {
            let n = CaseSpec::from_seed(seed, &cfg).n;
            assert!((1_000..=10_000).contains(&n), "n = {n}");
        }
    }

}
