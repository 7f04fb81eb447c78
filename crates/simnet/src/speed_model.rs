//! The machine × application speed model.
//!
//! Combines a [`MachineSpec`] with an [`AppProfile`] into a concrete
//! [`SpeedFunction`] with the shape template
//!
//! ```text
//! s(x) = sustained · ramp(x) · cache_boost(x) · paging(x)
//! ```
//!
//! * `sustained` — the post-cache, pre-paging speed the paper quotes for
//!   its machines (e.g. 250 MFlops for an X5-class Xeon on the naive MM);
//! * `ramp(x) = x/(x+r)` — per-call overheads amortise with size, giving
//!   the increasing left edge of the unimodal shapes in paper Fig. 5;
//! * `cache_boost(x) = 1 + β/(1+(x/knee)^exp)` — extra speed while the
//!   working set is cache-resident: a long smooth decline for naive
//!   kernels (Fig. 1c), a small sharp step for blocked kernels
//!   (Fig. 1a/1b);
//! * `paging(x)` — collapse beyond the paging point `P`, with
//!   per-application sharpness (paper: different paging algorithms produce
//!   different degradation laws).
//!
//! Every factor is non-increasing except the ramp, whose `x/(x+r)` form
//! keeps `s(x)/x` strictly decreasing — so the model provably satisfies the
//! single-intersection requirement of the partitioning algorithms.

use fpm_core::speed::SpeedFunction;

use crate::machine::MachineSpec;
use crate::profile::AppProfile;
use crate::workload;

/// Application-specific speed function of one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpeed {
    name: String,
    app: AppProfile,
    sustained_mflops: f64,
    ramp_elements: f64,
    cache_knee: f64,
    cache_exp: f64,
    cache_boost: f64,
    page_at: f64,
    page_alpha: f64,
    page_width: f64,
    page_floor: f64,
    model_hi: f64,
}

impl MachineSpeed {
    /// Builds the speed model of `spec` running `app`.
    pub fn for_app(spec: &MachineSpec, app: AppProfile) -> Self {
        let peak = app.flops_per_cycle(spec.arch) * spec.cpu_mhz as f64;
        let cache = spec.cache_elements();
        // The paging point in *elements*: the measured per-application
        // matrix size when available, else the free-memory capacity.
        let page_at = match app {
            AppProfile::MatrixMult | AppProfile::MatrixMultAtlas | AppProfile::ArrayOpsF => spec
                .paging_mm
                .map(|n| workload::mm_elements(n as u64) as f64)
                .unwrap_or_else(|| spec.free_memory_elements()),
            AppProfile::LuFactorization => spec
                .paging_lu
                .map(|n| workload::lu_elements(n as u64) as f64)
                .unwrap_or_else(|| spec.free_memory_elements()),
        };
        let model_hi = spec.memory_plus_swap_elements().max(3.0 * page_at);
        Self {
            name: spec.name.clone(),
            app,
            sustained_mflops: peak,
            ramp_elements: (cache / 16.0).max(16.0),
            cache_knee: cache,
            cache_exp: app.cache_sensitivity(),
            cache_boost: app.cache_boost(),
            page_at,
            page_alpha: app.paging_sharpness(),
            page_width: page_at * app.paging_transition(),
            page_floor: app.paging_floor(),
            model_hi,
        }
    }

    /// Machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Application this model describes.
    pub fn app(&self) -> AppProfile {
        self.app
    }

    /// Sustained (post-cache, pre-paging) speed in MFlops.
    pub fn sustained_mflops(&self) -> f64 {
        self.sustained_mflops
    }

    /// Problem size (elements) at which paging starts — the point *P* of
    /// paper Fig. 1.
    pub fn paging_point(&self) -> f64 {
        self.page_at
    }

    /// The interval `[a, b]` the model-building procedure of paper §3.1
    /// would use for this machine: `a` fits in cache, `b` exhausts memory
    /// plus swap.
    pub fn model_interval(&self) -> (f64, f64) {
        ((self.cache_knee / 4.0).max(64.0), self.model_hi)
    }

    fn cache_factor(&self, x: f64) -> f64 {
        1.0 + self.cache_boost / (1.0 + (x / self.cache_knee).powf(self.cache_exp))
    }

    fn page_factor(&self, x: f64) -> f64 {
        if x <= self.page_at {
            1.0
        } else {
            let collapse =
                1.0 / (1.0 + ((x - self.page_at) / self.page_width).powf(self.page_alpha) * 8.0);
            collapse.max(self.page_floor)
        }
    }
}

impl SpeedFunction for MachineSpeed {
    fn speed(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let ramp = x / (x + self.ramp_elements);
        self.sustained_mflops * ramp * self.cache_factor(x) * self.page_factor(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Arch;
    use fpm_core::speed::check_single_intersection;

    fn xeon() -> MachineSpec {
        MachineSpec::new("X5", "Linux 2.4.18-10smp", Arch::Xeon, 1977, 1_030_508, 512)
            .with_free_memory(415_904)
            .with_paging(6000, 8500)
    }

    fn sparc() -> MachineSpec {
        MachineSpec::new("X10", "SunOS 5.8", Arch::UltraSparc, 440, 524_288, 2048)
            .with_free_memory(409_600)
            .with_paging(4500, 5000)
    }

    #[test]
    fn all_machine_app_models_satisfy_shape_requirement() {
        for spec in [xeon(), sparc()] {
            for app in AppProfile::all() {
                let m = MachineSpeed::for_app(&spec, app);
                let (_a, b) = m.model_interval();
                assert!(
                    check_single_intersection(&m, 16.0, b, 600).is_ok(),
                    "{} / {}",
                    spec.name,
                    app.name()
                );
            }
        }
    }

    #[test]
    fn xeon_naive_mm_is_near_250_mflops_pre_paging() {
        // The paper: X5 multiplies two dense 4500×4500 matrices at 250
        // MFlops (no paging at that size).
        let m = MachineSpeed::for_app(&xeon(), AppProfile::MatrixMult);
        let x = crate::workload::mm_elements(4500) as f64;
        let s = m.speed(x);
        assert!(s > 140.0 && s < 260.0, "X5 MM at 4500: {s} MFlops");
    }

    #[test]
    fn sparc_mm_is_near_31_mflops() {
        let m = MachineSpeed::for_app(&sparc(), AppProfile::MatrixMult);
        let x = crate::workload::mm_elements(4000) as f64;
        let s = m.speed(x);
        assert!(s > 17.0 && s < 33.0, "X10 MM at 4000: {s} MFlops");
    }

    #[test]
    fn paging_collapses_speed() {
        let m = MachineSpeed::for_app(&xeon(), AppProfile::MatrixMult);
        let before = m.speed(m.paging_point() * 0.9);
        let after = m.speed(m.paging_point() * 2.0);
        assert!(after < before * 0.25, "paging must collapse speed: {before} → {after}");
    }

    #[test]
    fn paging_point_uses_measured_matrix_size() {
        let m = MachineSpeed::for_app(&xeon(), AppProfile::MatrixMult);
        assert_eq!(m.paging_point(), (3 * 6000u64 * 6000) as f64);
        let lu = MachineSpeed::for_app(&xeon(), AppProfile::LuFactorization);
        assert_eq!(lu.paging_point(), (8500u64 * 8500) as f64);
    }

    #[test]
    fn blocked_kernel_is_flatter_than_naive_before_paging() {
        let spec = xeon();
        let atlas = MachineSpeed::for_app(&spec, AppProfile::MatrixMultAtlas);
        let naive = MachineSpeed::for_app(&spec, AppProfile::MatrixMult);
        // Relative drop from 1e5 to 1e7 elements (both below paging).
        let drop = |m: &MachineSpeed| m.speed(1e7) / m.speed(1e5);
        assert!(
            drop(&atlas) > drop(&naive),
            "ATLAS {} vs naive {}",
            drop(&atlas),
            drop(&naive)
        );
        assert!(drop(&atlas) > 0.85, "blocked kernels stay near peak");
    }

    #[test]
    fn zero_size_has_zero_speed() {
        let m = MachineSpeed::for_app(&xeon(), AppProfile::MatrixMult);
        assert_eq!(m.speed(0.0), 0.0);
        assert_eq!(m.speed(-5.0), 0.0);
    }

    #[test]
    fn model_interval_brackets_paging_point() {
        for app in AppProfile::all() {
            let m = MachineSpeed::for_app(&sparc(), app);
            let (a, b) = m.model_interval();
            assert!(a < m.paging_point());
            assert!(b > m.paging_point(), "{}: b={b} page={}", app.name(), m.paging_point());
        }
    }
}
