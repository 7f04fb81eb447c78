//! Stochastic workload fluctuation (paper §1, Fig. 2).
//!
//! A computer integrated into a common network constantly runs routine
//! jobs (mail clients, browsers, editors…), so repeated executions of the
//! same task vary in time. The paper characterises this with a performance
//! *band* whose width depends on the machine's level of network
//! integration:
//!
//! * **high integration** — width ≈40 % of the maximum speed at small
//!   problem sizes, declining close-to-linearly to ≈6 % at the largest
//!   solvable sizes;
//! * **low integration** — width ≈5–7 % regardless of size, "even when
//!   there was heavy file sharing activity";
//! * additional *heavy* load shifts the whole band down, width unchanged.
//!
//! [`FluctuatingMeasurer`] wraps any true speed function into a noisy
//! measurement oracle (usable directly with
//! [`fpm_core::speed::builder::build_speed_band`]), sampling uniformly
//! within the band. It also tracks the simulated cost of the measurements.

use fpm_core::speed::{builder::Measurer, SpeedFunction, WidthLaw};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Level of network integration of a machine (controls fluctuation width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integration {
    /// Highly integrated: 40 % → 6 % declining band.
    High,
    /// Weakly integrated: constant ≈6 % band.
    Low,
    /// Dedicated (no fluctuation) — useful for deterministic tests.
    Dedicated,
}

impl Integration {
    /// The paper-calibrated width law, scaled so that the decline happens
    /// over the machine's usable size range `[0, full_size]`.
    pub fn width_law(&self, full_size: f64) -> WidthLaw {
        match self {
            Integration::High => WidthLaw::Declining {
                w0: 0.40,
                w_inf: 0.06,
                x_scale: (full_size / 8.0).max(1.0),
            },
            Integration::Low => WidthLaw::Constant(0.06),
            Integration::Dedicated => WidthLaw::Constant(0.0),
        }
    }
}

/// A noisy measurement oracle around a true speed function.
#[derive(Debug, Clone)]
pub struct FluctuatingMeasurer<F> {
    truth: F,
    law: WidthLaw,
    rng: ChaCha8Rng,
    /// Observation count after which the machine "dies": every later
    /// observation reads zero speed.
    death_after: Option<usize>,
    measurements: usize,
    cost_seconds: f64,
}

impl<F: SpeedFunction> FluctuatingMeasurer<F> {
    /// Wraps `truth` with the given width law and RNG seed.
    pub fn new(truth: F, law: WidthLaw, seed: u64) -> Self {
        law.validate().expect("width law must be valid");
        Self {
            truth,
            law,
            rng: ChaCha8Rng::seed_from_u64(seed),
            death_after: None,
            measurements: 0,
            cost_seconds: 0.0,
        }
    }

    /// Kills the machine after `k` observations: observation `k+1` and all
    /// later ones read zero speed, simulating a mid-sweep machine death
    /// (crash, network drop, OOM kill) for fault-injection tests.
    pub fn with_death_after(mut self, k: usize) -> Self {
        self.death_after = Some(k);
        self
    }

    /// One noisy speed observation at problem size `x`.
    pub fn observe(&mut self, x: f64) -> f64 {
        if self.death_after.is_some_and(|k| self.measurements >= k) {
            self.measurements += 1;
            return 0.0;
        }
        let s = self.truth.speed(x).max(0.0);
        let half = self.law.width_at(x) / 2.0;
        let u: f64 = self.rng.gen_range(-1.0..=1.0);
        let observed = (s * (1.0 + half * u)).max(0.0);
        self.measurements += 1;
        if observed > 0.0 {
            self.cost_seconds += x / observed;
        }
        observed
    }

    /// Number of observations taken so far.
    pub fn measurements(&self) -> usize {
        self.measurements
    }

    /// Simulated time spent measuring (`Σ x/s_observed`), the cost the
    /// paper charges for building the model.
    pub fn cost_seconds(&self) -> f64 {
        self.cost_seconds
    }

    /// The true (noise-free) function.
    pub fn truth(&self) -> &F {
        &self.truth
    }
}

impl<F: SpeedFunction> Measurer for FluctuatingMeasurer<F> {
    fn measure(&mut self, x: f64) -> f64 {
        self.observe(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm_core::speed::AnalyticSpeed;

    #[test]
    fn dedicated_is_noise_free() {
        let truth = AnalyticSpeed::constant(100.0);
        let mut m = FluctuatingMeasurer::new(
            truth,
            Integration::Dedicated.width_law(1e6),
            42,
        );
        for &x in &[10.0, 1e3, 1e6] {
            assert_eq!(m.observe(x), 100.0);
        }
        assert_eq!(m.measurements(), 3);
    }

    #[test]
    fn high_integration_fluctuates_more_at_small_sizes() {
        let truth = AnalyticSpeed::constant(100.0);
        let law = Integration::High.width_law(1e6);
        let mut m = FluctuatingMeasurer::new(truth, law, 7);
        let small: Vec<f64> = (0..200).map(|_| m.observe(100.0)).collect();
        let large: Vec<f64> = (0..200).map(|_| m.observe(9e5)).collect();
        let spread = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(
            spread(&small) > 2.0 * spread(&large),
            "small-size spread {} vs large-size spread {}",
            spread(&small),
            spread(&large)
        );
    }

    #[test]
    fn observations_stay_within_band() {
        let truth = AnalyticSpeed::constant(100.0);
        let mut m = FluctuatingMeasurer::new(truth, WidthLaw::Constant(0.10), 3);
        for _ in 0..500 {
            let s = m.observe(1e4);
            assert!((94.9..=105.1).contains(&s), "observation {s} outside ±5 %");
        }
    }

    #[test]
    fn cost_accumulates() {
        let truth = AnalyticSpeed::constant(100.0);
        let mut m = FluctuatingMeasurer::new(truth, WidthLaw::Constant(0.0), 1);
        m.observe(1000.0);
        assert!((m.cost_seconds() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn seeded_reproducibility() {
        let truth = AnalyticSpeed::constant(100.0);
        let mut a = FluctuatingMeasurer::new(truth.clone(), WidthLaw::Constant(0.2), 99);
        let mut b = FluctuatingMeasurer::new(truth, WidthLaw::Constant(0.2), 99);
        for _ in 0..50 {
            assert_eq!(a.observe(5e3), b.observe(5e3));
        }
    }

    #[test]
    fn death_after_kills_later_observations() {
        let truth = AnalyticSpeed::constant(100.0);
        let mut m =
            FluctuatingMeasurer::new(truth, WidthLaw::Constant(0.0), 1).with_death_after(3);
        assert_eq!(m.observe(10.0), 100.0);
        assert_eq!(m.observe(10.0), 100.0);
        assert_eq!(m.observe(10.0), 100.0);
        assert_eq!(m.observe(10.0), 0.0);
        assert_eq!(m.observe(1e6), 0.0);
        assert_eq!(m.measurements(), 5);
    }

    #[test]
    fn works_as_builder_measurer() {
        use fpm_core::speed::builder::{build_speed_band, BuilderConfig};
        let truth = AnalyticSpeed::unimodal(200.0, 1e3, 1e6, 3.0);
        let mut m = FluctuatingMeasurer::new(truth, WidthLaw::Constant(0.04), 11);
        let out = build_speed_band(&mut m, 1e3, 1e7, BuilderConfig::default()).unwrap();
        assert!(out.measurements >= 3);
        assert_eq!(out.measurements, m.measurements());
    }
}
