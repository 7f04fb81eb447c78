//! The paper's two experimental networks.
//!
//! * [`table1`] — the four heterogeneous computers of Table 1, used for the
//!   motivating speed-curve experiments (Figs. 1–2);
//! * [`table2`] — the twelve Solaris/Linux workstations of Table 2 used in
//!   the numerical experiments (§3), including the measured paging matrix
//!   sizes for both applications.

use crate::machine::{Arch, MachineSpec};

/// The four heterogeneous computers of paper Table 1.
///
/// Table 1 does not list free memory or paging sizes; the specs derive
/// free memory as 70 % of main memory and the paging points from it.
pub fn table1() -> Vec<MachineSpec> {
    vec![
        MachineSpec::new(
            "Comp1",
            "Linux 2.4.20-8",
            Arch::Pentium4,
            2793,
            513_304,
            512,
        ),
        MachineSpec::new(
            "Comp2",
            "SunOS 5.8 sun4u sparc SUNW,Ultra-5_10",
            Arch::UltraSparc,
            440,
            524_288,
            2048,
        ),
        MachineSpec::new("Comp3", "Windows XP", Arch::GenericX86, 3000, 1_030_388, 512),
        MachineSpec::new("Comp4", "Linux 2.4.7-10 i686", Arch::GenericX86, 730, 254_524, 256),
    ]
}

/// The twelve workstations of paper Table 2 with their measured paging
/// matrix sizes (columns "Paging (MM)" and "Paging (LU)").
pub fn table2() -> Vec<MachineSpec> {
    vec![
        MachineSpec::new("X1", "Linux 2.4.20-20.9 i686", Arch::PentiumIii, 997, 513_304, 256)
            .with_free_memory(363_264)
            .with_paging(4500, 6000),
        MachineSpec::new("X2", "Linux 2.4.18-3 i686", Arch::PentiumIii, 997, 254_576, 256)
            .with_free_memory(65_692)
            .with_paging(4000, 5000),
        MachineSpec::new("X3", "Linux 2.4.20-20.9bigmem", Arch::Xeon, 2783, 7_933_500, 512)
            .with_free_memory(2_221_436)
            .with_paging(6400, 11_000),
        MachineSpec::new("X4", "Linux 2.4.20-20.9bigmem", Arch::Xeon, 2783, 7_933_500, 512)
            .with_free_memory(3_073_628)
            .with_paging(6400, 11_000),
        MachineSpec::new("X5", "Linux 2.4.18-10smp", Arch::Xeon, 1977, 1_030_508, 512)
            .with_free_memory(415_904)
            .with_paging(6000, 8500),
        MachineSpec::new("X6", "Linux 2.4.18-10smp", Arch::Xeon, 1977, 1_030_508, 512)
            .with_free_memory(364_120)
            .with_paging(6000, 8500),
        MachineSpec::new("X7", "Linux 2.4.18-10smp", Arch::Xeon, 1977, 1_030_508, 512)
            .with_free_memory(215_752)
            .with_paging(6000, 8000),
        MachineSpec::new("X8", "Linux 2.4.18-10smp", Arch::Xeon, 1977, 1_030_508, 512)
            .with_free_memory(134_400)
            .with_paging(5500, 6500),
        MachineSpec::new("X9", "Linux 2.4.18-10smp", Arch::Xeon, 1977, 1_030_508, 512)
            .with_free_memory(134_400)
            .with_paging(5500, 6500),
        MachineSpec::new("X10", "SunOS 5.8 sun4u sparc", Arch::UltraSparc, 440, 524_288, 2048)
            .with_free_memory(409_600)
            .with_paging(4500, 5000),
        MachineSpec::new("X11", "SunOS 5.8 sun4u sparc", Arch::UltraSparc, 440, 524_288, 2048)
            .with_free_memory(418_816)
            .with_paging(4500, 5000),
        MachineSpec::new("X12", "SunOS 5.8 sun4u sparc", Arch::UltraSparc, 440, 524_288, 2048)
            .with_free_memory(395_264)
            .with_paging(4500, 5000),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AppProfile;
    use crate::speed_model::MachineSpeed;
    use fpm_core::speed::{check_single_intersection, SpeedFunction};

    /// Speed models for every machine of a testbed running `app`.
    fn speed_models(specs: &[MachineSpec], app: AppProfile) -> Vec<MachineSpeed> {
        specs.iter().map(|m| MachineSpeed::for_app(m, app)).collect()
    }

    #[test]
    fn table1_has_four_machines() {
        let t = table1();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].name, "Comp1");
        assert_eq!(t[1].arch, Arch::UltraSparc);
        assert_eq!(t[3].cache_kb, 256);
    }

    #[test]
    fn table2_has_twelve_machines_with_paging() {
        let t = table2();
        assert_eq!(t.len(), 12);
        for m in &t {
            assert!(m.paging_mm.is_some(), "{} must have a measured MM paging size", m.name);
            assert!(m.paging_lu.is_some());
        }
        assert_eq!(t[0].paging_mm, Some(4500));
        assert_eq!(t[2].paging_lu, Some(11_000));
        assert_eq!(t[9].cache_kb, 2048);
    }

    #[test]
    fn table2_heterogeneity_ratio_matches_paper() {
        // Paper §3.1: for MM the fastest machine does ≈250 MFlops, the
        // slowest ≈31, ratio ≈ 8.0 "reasonably heterogeneous".
        let models = speed_models(&table2(), AppProfile::MatrixMult);
        let at = crate::workload::mm_elements(4000) as f64;
        let speeds: Vec<f64> = models.iter().map(|m| m.speed(at)).collect();
        let max = speeds.iter().cloned().fold(0.0, f64::max);
        let min = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
        let ratio = max / min;
        assert!((4.0..14.0).contains(&ratio), "heterogeneity ratio {ratio}");
    }

    #[test]
    fn all_testbed_models_satisfy_shape_requirement() {
        for specs in [table1(), table2()] {
            for app in AppProfile::all() {
                for m in speed_models(&specs, app) {
                    let (_a, b) = m.model_interval();
                    assert!(
                        check_single_intersection(&m, 16.0, b, 400).is_ok(),
                        "{} / {}",
                        m.name(),
                        app.name()
                    );
                }
            }
        }
    }

    #[test]
    fn lu_heterogeneity_matches_paper() {
        // Paper: X6 ≈130 MFlops LU at 8500; X1 ≈19 MFlops at 4500; ratio
        // ≈ 6.8.
        let models = speed_models(&table2(), AppProfile::LuFactorization);
        let x6 = &models[5];
        let x1 = &models[0];
        let s6 = x6.speed(crate::workload::lu_elements(8500) as f64);
        let s1 = x1.speed(crate::workload::lu_elements(4500) as f64);
        let ratio = s6 / s1;
        assert!((4.0..10.0).contains(&ratio), "LU ratio {ratio} (s6={s6}, s1={s1})");
    }
}
